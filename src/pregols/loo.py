"""Closed-form leave-one-out refits and prediction residuals.

Dropping row ``i`` from a wide full-row-rank design does not require
refitting: with ``k_i = W^+ e_i`` and ``g_ii = e_i^T G_W e_i > 0``, the rank-one
projector ``P_i = k_i k_i^T / g_ii`` turns the full-sample pseudoinverse into
its leave-one-out counterpart ``Wt_i = (I - P_i) W^+``.  With ``W = U S V^T``
kept by the :class:`DesignPartition` and ``L = U S^{-1}`` (its ``ell``),
``W^+ = V L^T``, ``k_i = V l_i`` for the row ``l_i = L[i]`` and
``g_ii = ||l_i||^2``, so ``Wt_i = V D_i L^T`` with
``D_i = I - l_i l_i^T / g_ii`` (n x n); neither ``W^+`` nor ``Wt_i`` is
formed.  Substituting ``Wt_i`` for ``W^+`` in the split-design coefficient
formulas yields the leave-i-out coefficients, so :func:`loo_fit` is the
split fit's one solve with ``D_i L^T`` in place of ``L^T``, and the
prediction residual collapses to

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
With ``G_W = L L^T`` and ``N`` an orthonormal basis of the complement of
colsp(L^T T), it is the projection ``Q = (L N)(L N)^T``; the partition
keeps ``F = L N`` (:meth:`DesignPartition.split_factor`), which the ``wc``
variance estimator shares.  No per-index factorization is needed, and a
single residual reads row ``i`` of ``Q`` as ``F[i] F^T`` without forming
``Q``.

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
against the square root of the rank cutoff, covers both.  Every rank
decision here is made under the tolerance the partition was validated
against (``d.tol``), so no function in this module takes a tolerance of its
own and ``W``'s full row rank, checked at construction, is not checked
again.
"""

from __future__ import annotations

import numpy as np

from .exceptions import InvalidInputError, RankAssumptionError
from .interpolators import DesignPartition, _split_solve, fit_partial
from .linalg import _readonly, as_int, as_matrix, as_vector, full_row_rank_svd

__all__ = [
    "PartialLooSolver",
    "loo_fit",
    "loo_residual_partial",
    "gram_downdate",
    "brute_force_refit",
]


def _check_index(i: int, n: int) -> int:
    if not 0 <= (i := as_int(i, "index")) < n:
        raise InvalidInputError(f"index {i} out of range for {n} rows")
    return i


def _check_loo_rows(d: DesignPartition, rows: np.ndarray) -> None:
    """Raise :class:`RankAssumptionError` unless every index in ``rows`` can be left out.

    Deleting row ``i`` keeps ``T`` at full column rank exactly when ``e_i``
    is outside colsp(T), that is when its leverage ``h_i = ||U_T[i]||^2``
    is below 1.  ``1 - h_i`` is a squared distance, computed with rounding
    of order eps, so it is compared with the square root of the partition's
    cutoff.  ``W`` needs no check: the partition was validated under the
    same tolerance.
    """
    ut = d.t_svd.u[rows]
    lev = np.einsum("ij,ij->i", ut, ut)
    bad = rows[1.0 - lev <= np.sqrt(d.tol.cutoff((d.n, d.m), 1.0))]
    if bad.size:
        raise RankAssumptionError(
            f"leave-one-out rank violation at index {bad[0]}: unpenalized block t "
            "loses full column rank when the row is removed"
        )


def _downdated_lt(ell: np.ndarray, i: int) -> np.ndarray:
    """``D_i L^T`` (n x n) from ``L = U S^{-1}`` of a full-row-rank block ``U S V^T``.

    ``V D_i L^T`` is the pseudoinverse of the block with row ``i`` deleted,
    with a zero column at ``i`` (module docstring).
    """
    lt = ell.T
    li = lt[:, i]
    return lt - np.outer(li, li @ lt) / (li @ li)


def loo_fit(d: DesignPartition, y, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Leave-one-out coefficient pair ``(lambda_loo, tau_loo)``, read-only, without refitting.

    The split solve of :func:`fit_partial` with ``D_i L^T`` in place of ``L^T``
    (``Wt_i = V D_i L^T``, module docstring): ``tau_loo = (D_i L^T T)^+ D_i L^T y``
    and ``lambda_loo = V D_i L^T (y - T tau_loo)``.
    """
    y = as_vector(y, "y", d.n)
    i = _check_index(i, d.n)
    _check_loo_rows(d, np.array([i]))
    return tuple(map(_readonly, _split_solve(_downdated_lt(d.ell, i), d.w_svd.vt, d.t, d.tol, y)))


def loo_residual_partial(d: DesignPartition, y, i: int) -> float:
    """Leave-one-out prediction residual for index ``i`` via the closed form.

    Equals ``y_i`` minus the prediction of the model refit without row ``i``;
    it is row ``i`` of the residual map ``R`` applied to ``y``.
    """
    y = as_vector(y, "y", d.n)
    i = _check_index(i, d.n)
    _check_loo_rows(d, np.array([i]))
    f = d.split_factor()
    return float(f[i] @ (f.T @ y) / (f[i] @ f[i]))


def _loo_map(g: np.ndarray) -> tuple[np.ndarray, float]:
    """``(R, ||R||_F^2)`` for the leave-one-out map ``R = [diag(G)]^{-1} G``, ``R`` read-only."""
    r = _readonly(g / np.diag(g)[:, None])
    return r, float(np.sum(r * r))


class PartialLooSolver:
    """Per-design cache turning leave-one-out residuals into one matrix apply.

    The residual of every index is linear in ``y``, so the whole residual
    vector is ``R y`` for an n x n matrix ``R`` whose i-th row is
    ``e_i^T [diag(G_W)]^{-1} G_W (I - H_i)``.  Building ``R`` once per design
    amortizes the per-index work across repeated responses (the variance
    estimator and the simulation harness evaluate thousands of draws against
    a fixed design).
    """

    def __init__(self, d: DesignPartition):
        self.design = d
        _check_loo_rows(d, np.arange(d.n))
        f = d.split_factor()
        self.residual_matrix, self.denominator = _loo_map(f @ f.T)

    def residuals(self, y) -> np.ndarray:
        """All leave-one-out prediction residuals for one response vector."""
        y = as_vector(y, "y", self.design.n)
        return self.residual_matrix @ y


def gram_downdate(x, i: int) -> np.ndarray:
    """Column-Gram pseudoinverse ``[(X_del)^T X_del]^+`` after deleting row ``i``.

    With one SVD ``X = U S V^T`` and ``L = U S^{-1}``, the deleted design's
    pseudoinverse is ``Wt_i = V D_i L^T`` with its zero column ``i``
    dropped (module docstring), so the result is ``Wt_i Wt_i^T``; no
    ``cond(X)^2`` term is subtracted.  Against a 60-digit oracle it erred
    by less than ``n cond(X) eps`` relative in the 2-norm at cond(X) 1e4 to
    1e10.  A full-row-rank ``X`` keeps full row rank when a row is deleted,
    so the rank check, made under ``RankTolerance()``, is the only
    precondition.
    """
    x = as_matrix(x, "x")
    i = _check_index(i, x.shape[0])
    f = full_row_rank_svd(x)
    wt = f.vt.T @ _downdated_lt(f.u / f.s, i)
    return wt @ wt.T


def brute_force_refit(d: DesignPartition, y, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: physically delete row ``i`` and refit the split design.

    Deterministic and independent of the closed forms above; the test suite
    holds the closed forms to this oracle.  The reduced partition is
    validated under ``d.tol``.
    """
    y = as_vector(y, "y", d.n)
    i = _check_index(i, d.n)
    part = DesignPartition(
        np.delete(d.w, i, axis=0), np.delete(d.t, i, axis=0), tol=d.tol
    )
    fit = fit_partial(part, np.delete(y, i))
    return fit.lambda_hat, fit.tau_hat
