"""Closed-form leave-one-out refits and prediction residuals.

Dropping row ``i`` from a wide full-row-rank design does not require
refitting: with ``k_i = W^+ e_i`` and ``g_ii = e_i^T G_W e_i > 0``, the rank-one
projector ``P_i = k_i k_i^T / g_ii`` turns the full-sample pseudoinverse into
its leave-one-out counterpart ``Wt_i = (I - P_i) W^+``.  Substituting ``Wt_i``
for ``W^+`` in the split-design coefficient formulas yields the leave-i-out
coefficients, and the prediction residual collapses to

    eps_i = e_i^T [diag(G_W)]^{-1} G_W (I - H_i) y,
    H_i   = T (Wt_i T)^+ Wt_i.

Every residual comes from one kernel.  With ``a_i = T^T G_W e_i`` and
``M = T^T G_W T``, two identities hold:
``(Wt_i T)^T (Wt_i T) = M - a_i a_i^T / g_ii`` and
``(Wt_i T)^T Wt_i = T^T G_W - a_i g_i^T / g_ii``.  A Sherman-Morrison step on
the m x m matrix ``M`` then gives every row of the residual map at once,

    R = [diag(Q)]^{-1} Q,    Q = G_W - G_W T M^{-1} T^T G_W.

``Q`` is not formed by that subtraction, which loses about
``cond(W)^2 * eps`` when ``T`` lies along the weakest directions of ``W``.
With ``L = U S^{-1}`` from the SVD the :class:`DesignPartition` keeps (so
``G_W = L L^T``) and ``N`` an orthonormal basis of the complement of
colsp(L^T T), it is the projection ``Q = (L N)(L N)^T``; the partition
keeps ``F = L N`` (:meth:`DesignPartition.split_factor`), which the ``wc``
variance estimator shares.  No per-index factorization is needed.

All closed forms here are validated against :func:`brute_force_refit`, which
physically deletes the row and refits; that oracle is part of the public
surface so downstream users can run the same comparison on their own data.

Rank precondition: dropping a row of a full-row-rank ``W`` always leaves the
remaining rows linearly independent, so only one thing can fail, and it is
checked per index: the unpenalized block may lose full column rank when the
row is removed.  ``Wt_i`` annihilates ``e_i`` and is injective on its
complement, so ``rank(Wt_i T) = rank(T_{-i})``, and both are full exactly
when ``e_i`` is outside colsp(T), that is when the leverage
``h_i = ||U_T[i]||^2`` of ``T`` is below 1.  One check, of ``1 - h_i``
against the square root of the rank cutoff, covers both.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, RankAssumptionError
from .interpolators import DesignPartition, fit_partial
from .linalg import (
    RankTolerance,
    as_matrix,
    as_vector,
    full_row_rank_svd,
    get_default_tolerance,
    pinv,
)

__all__ = [
    "LooProjector",
    "LooRecord",
    "PartialLooSolver",
    "loo_projector",
    "loo_fit",
    "loo_record",
    "loo_residual_partial",
    "loo_residuals_partial",
    "gram_downdate",
    "brute_force_refit",
]

#: Internal-consistency bound between the residual closed form and the
#: prediction implied by the leave-one-out coefficients.
_CONSISTENCY_RTOL = 1e-8


@dataclass(frozen=True)
class LooProjector:
    """Rank-one projector pair for one held-out index.

    ``p`` projects onto span(W^+ e_i) in coefficient space; ``q_companion``
    is its sample-space companion ``e_i e_i^T G_W / g_ii`` (idempotent but not
    symmetric).  ``w_tilde = (I - p) W^+`` is the deflated pseudoinverse that
    drives every leave-one-out closed form.
    """

    index: int
    p: np.ndarray
    q_companion: np.ndarray
    w_tilde: np.ndarray
    denominator: float


@dataclass(frozen=True)
class LooRecord:
    """Leave-one-out coefficients and prediction residual for one index."""

    index: int
    lambda_loo: np.ndarray
    tau_loo: np.ndarray
    residual: float


def _check_index(i: int, n: int) -> int:
    i = int(i)
    if not 0 <= i < n:
        raise InvalidInputError(f"index {i} out of range for {n} rows")
    return i


def loo_projector(w, i: int, tol: RankTolerance | None = None) -> LooProjector:
    """Build the projector pair for row ``i`` of a full-row-rank ``w``."""
    w = as_matrix(w, "w")
    n = w.shape[0]
    i = _check_index(i, n)
    f = full_row_rank_svd(w, tol, "w")
    wp = f.pinv(tol)
    gw = f.gram_inverse(tol)
    gii = float(gw[i, i])  # >= 1 / smax^2: U has orthonormal rows
    k = wp[:, i]
    p = np.outer(k, k) / gii
    q_companion = np.zeros((n, n))
    q_companion[i, :] = gw[i] / gii
    w_tilde = wp - np.outer(k, gw[i]) / gii
    return LooProjector(
        index=i, p=p, q_companion=q_companion, w_tilde=w_tilde, denominator=gii
    )


def _check_loo_rows(d: DesignPartition, tol, rows: np.ndarray) -> None:
    """Raise :class:`RankAssumptionError` unless every index in ``rows`` can be left out.

    Deleting row ``i`` keeps ``T`` at full column rank exactly when ``e_i``
    is outside colsp(T), that is when its leverage ``h_i = ||U_T[i]||^2``
    is below 1.  ``1 - h_i`` is a squared distance, computed with rounding
    of order eps, so it is compared with the square root of the cutoff.
    """
    if d.w_svd.rank(tol) != d.n:
        raise RankAssumptionError(
            f"rank assumption violated: penalized block w must have full row rank {d.n}"
        )
    tol = get_default_tolerance() if tol is None else tol
    ut = d.t_svd.u[rows]
    lev = np.einsum("ij,ij->i", ut, ut)
    bad = rows[1.0 - lev <= np.sqrt(tol.cutoff((d.n, d.m), 1.0))]
    if bad.size:
        raise RankAssumptionError(
            f"leave-one-out rank violation at index {bad[0]}: unpenalized block t "
            "loses full column rank when the row is removed"
        )


def _loo_gram(d: DesignPartition) -> np.ndarray:
    """``Q = G_W - G_W T M^{-1} T^T G_W = F F^T`` for ``F = d.split_factor()``."""
    f = d.split_factor()
    return f @ f.T


def _check_response(y, n: int) -> np.ndarray:
    y = as_vector(y, "y")
    if y.size != n:
        raise InvalidInputError(f"y has length {y.size}, expected {n}")
    return y


def loo_fit(
    d: DesignPartition, y, i: int, tol: RankTolerance | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out coefficient pair ``(lambda_loo, tau_loo)`` without refitting."""
    y = _check_response(y, d.n)
    i = _check_index(i, d.n)
    _check_loo_rows(d, tol, np.array([i]))
    gw = d.w_svd.gram_inverse(tol)
    wp = d.w_svd.pinv(tol)
    w_tilde = wp - np.outer(wp[:, i], gw[i]) / gw[i, i]
    wt_t = w_tilde @ d.t
    wty = w_tilde @ y
    tau_loo = pinv(wt_t, tol) @ wty
    lam_loo = d.w.T @ (w_tilde.T @ (wty - wt_t @ tau_loo))
    return lam_loo, tau_loo


def loo_residual_partial(
    d: DesignPartition, y, i: int, tol: RankTolerance | None = None
) -> float:
    """Leave-one-out prediction residual for index ``i`` via the closed form.

    Equals ``y_i`` minus the prediction of the model refit without row ``i``;
    it is row ``i`` of the residual map ``R`` applied to ``y``.
    """
    y = _check_response(y, d.n)
    i = _check_index(i, d.n)
    _check_loo_rows(d, tol, np.array([i]))
    q = _loo_gram(d)
    return float(q[i] @ y / q[i, i])


def loo_record(
    d: DesignPartition, y, i: int, tol: RankTolerance | None = None
) -> LooRecord:
    """Coefficients plus residual for one index, cross-checked for consistency."""
    y = as_vector(y, "y")
    lam_loo, tau_loo = loo_fit(d, y, i, tol)
    resid = loo_residual_partial(d, y, i, tol)
    predicted = float(d.w[i] @ lam_loo + (d.t[i] @ tau_loo if d.m else 0.0))
    gap = abs(resid - (y[i] - predicted))
    if gap > _CONSISTENCY_RTOL * (1.0 + abs(float(y[i]))):
        raise RankAssumptionError(
            f"leave-one-out closed forms disagree at index {i} (gap {gap:.3e}); "
            "the design is numerically rank-marginal"
        )
    return LooRecord(index=i, lambda_loo=lam_loo, tau_loo=tau_loo, residual=resid)


class PartialLooSolver:
    """Per-design cache turning leave-one-out residuals into one matrix apply.

    The residual of every index is linear in ``y``, so the whole residual
    vector is ``R y`` for an n x n matrix ``R`` whose i-th row is
    ``e_i^T [diag(G_W)]^{-1} G_W (I - H_i)``.  Building ``R`` once per design
    amortizes the per-index work across repeated responses (the variance
    estimator and the simulation harness evaluate thousands of draws against
    a fixed design).
    """

    def __init__(self, d: DesignPartition, tol: RankTolerance | None = None):
        self.design = d
        _check_loo_rows(d, tol, np.arange(d.n))
        q = _loo_gram(d)
        rows = q / np.diag(q)[:, None]
        rows.setflags(write=False)
        self.residual_matrix = rows
        self.denominator = float(np.sum(rows * rows))

    def residuals(self, y) -> np.ndarray:
        """All leave-one-out prediction residuals for one response vector."""
        y = _check_response(y, self.design.n)
        return self.residual_matrix @ y


def loo_residuals_partial(
    d: DesignPartition, y, tol: RankTolerance | None = None
) -> np.ndarray:
    """Leave-one-out residuals for every index of a split design."""
    return PartialLooSolver(d, tol).residuals(y)


def gram_downdate(x, i: int, tol: RankTolerance | None = None) -> np.ndarray:
    """Column-Gram pseudoinverse after deleting row ``i``, via a rank-one update.

    Returns ``[(X_del)^T X_del]^+`` computed from the full-sample
    pseudoinverse alone:

        X^+ {I - e_i e_i^T G_X / g_ii - G_X e_i e_i^T / g_ii
             + (e_i^T G_X^2 e_i / g_ii^2) e_i e_i^T} X^{+,T}

    For a full-row-rank ``X`` the deleted design keeps full row rank, so no
    extra precondition is needed beyond the rank check.
    """
    x = as_matrix(x, "x")
    n = x.shape[0]
    i = _check_index(i, n)
    f = full_row_rank_svd(x, tol)
    xp = f.pinv(tol)
    gx = f.gram_inverse(tol)
    gii = float(gx[i, i])
    gi = gx[i]
    mid = np.eye(n)
    mid[i, :] -= gi / gii
    mid[:, i] -= gi / gii
    mid[i, i] += float(gi @ gi) / gii**2
    return xp @ mid @ xp.T


def brute_force_refit(
    d: DesignPartition, y, i: int, tol: RankTolerance | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: physically delete row ``i`` and refit the split design.

    Deterministic and independent of the closed forms above; the test suite
    holds the closed forms to this oracle.
    """
    y = _check_response(y, d.n)
    i = _check_index(i, d.n)
    w_del = np.delete(np.asarray(d.w), i, axis=0)
    y_del = np.delete(y, i)
    if d.m == 0:
        part = DesignPartition.penalized_only(w_del, tol=tol)
    else:
        t_del = np.delete(np.asarray(d.t), i, axis=0)
        part = DesignPartition(w_del, t_del, tol=tol)
    fit = fit_partial(part, y_del, tol)
    return fit.lambda_hat, fit.tau_hat
