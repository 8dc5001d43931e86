"""Minimum-norm least squares interpolation for wide designs.

In the overparameterized regime (more columns than rows) infinitely many
coefficient vectors fit the data exactly.  Two canonical picks:

* **full regularization** — the solution of smallest overall l2 norm,
  ``beta = X^+ y``;
* **partial regularization** — split the design as ``[W | T]`` and, among all
  interpolating pairs, take the one whose *W-block* has smallest l2 norm,
  leaving the T-block unpenalized (the wide-design analogue of partialling
  out controls, and the zero-penalty limit of ridge with an unpenalized
  intercept).

The partial solution decomposes in closed form: with ``P`` the projection
onto the orthogonal complement of ``colsp(T)``,

    lambda_hat = (P W)^+ P y          (W-block)
    tau_hat    = (W^+ T)^+ W^+ y      (T-block)

Three algebraically equivalent re-expressions of the same solution are
exposed as named variants and used as cross-checks:

* ``rowspace``:  lambda_hat = P_{W^T} P_{W^+ T}^perp W^+ y
* ``residual``:  lambda_hat = W^T G_W (y - T tau_hat)
* ``gls``:       tau_hat = (T^T G_W T)^+ T^T G_W y

where ``G_W = (W W^T)^+`` is the inverse row Gram matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, RankAssumptionError
from .linalg import (
    RankTolerance,
    Svd,
    as_matrix,
    as_vector,
    full_row_rank_svd,
    get_default_tolerance,
    pinv,
)

__all__ = [
    "DesignPartition",
    "FullFit",
    "PartialFit",
    "PARTIAL_VARIANTS",
    "fit_full",
    "fit_partial",
    "fit_partial_variant",
    "fit_partial_variants",
    "predict",
]

#: Scale factor for the interpolation guard: a valid fit must reproduce y to
#: within INTERPOLATION_RTOL * (1 + max|y|) in the sup norm.
INTERPOLATION_RTOL = 1e-8


class DesignPartition:
    """A validated split design ``[W | T]``.

    ``W`` (n x q) is the penalized block and must have full row rank, which
    requires q >= n.  ``T`` (n x m) is the unpenalized block and must have
    full column rank with m < n.  Validation happens eagerly here because
    every downstream closed form silently degrades if the rank structure
    fails.

    The thin SVDs that validation computes are kept as ``w_svd`` and
    ``t_svd`` (see :class:`~pregols.linalg.Svd`); the fits, the leave-one-out
    closed forms and the variance operators derive ``W^+``, ``G_W``,
    ``B = W^+ T``, ``P_T``, the inverse Gram of ``[W | T]``
    (:meth:`full_gram_factors`) and the n-space factor of the split
    estimators (:meth:`split_factor`, kept once built) from them instead of
    factoring again.  ``w`` may be given as an ``Svd`` of ``W`` (the one a
    rank check has already computed, or factors known by construction),
    which is kept as it is.

    The degenerate case m = 0 (no unpenalized block) is permitted only via
    :meth:`penalized_only`; fitting such a partition reduces to the fully
    regularized solution on ``W``.
    """

    __slots__ = ("w", "t", "w_svd", "t_svd", "_split_factor")

    def __init__(self, w, t, *, tol: RankTolerance | None = None):
        w, w_svd = _penalized_block(w)
        t = as_matrix(t, "t")
        if t.shape[1] == 0:
            raise InvalidInputError(
                "unpenalized block t must have at least one column; "
                "use DesignPartition.penalized_only for an empty t"
            )
        n, m = t.shape
        if w.shape[0] != n:
            raise InvalidInputError(
                f"w and t must have equal row counts, got {w.shape[0]} and {n}"
            )
        self._set_w(w, w_svd, tol)
        if m >= n:
            raise RankAssumptionError(
                f"unpenalized block t must have fewer columns than rows, got {n}x{m}"
            )
        self._set_t(t)
        rt = self.t_svd.rank(tol)
        if rt != m:
            raise RankAssumptionError(
                f"rank assumption violated: unpenalized block t must have full "
                f"column rank {m}, numeric rank is {rt}"
            )

    def _set_w(self, w: np.ndarray, w_svd: Svd | None, tol: RankTolerance | None) -> None:
        n, q = w.shape
        if q < n:
            raise RankAssumptionError(
                f"penalized block w must be wide (cols >= rows), got {n}x{q}"
            )
        self.w = _readonly(w)
        self.w_svd = Svd(self.w) if w_svd is None else w_svd
        self._split_factor = None
        rw = self.w_svd.rank(tol)
        if rw != n:
            raise RankAssumptionError(
                f"rank assumption violated: penalized block w must have full row "
                f"rank {n}, numeric rank is {rw}"
            )

    def _set_t(self, t: np.ndarray) -> None:
        self.t = _readonly(t)
        self.t_svd = Svd(self.t)

    @classmethod
    def penalized_only(cls, w, *, tol: RankTolerance | None = None) -> "DesignPartition":
        """Partition with an empty unpenalized block (m = 0)."""
        w, w_svd = _penalized_block(w)
        self = object.__new__(cls)
        self._set_w(w, w_svd, tol)
        self._set_t(np.zeros((w.shape[0], 0)))
        return self

    @property
    def n(self) -> int:
        return self.w.shape[0]

    @property
    def q(self) -> int:
        return self.w.shape[1]

    @property
    def m(self) -> int:
        return self.t.shape[1]

    def stacked(self) -> np.ndarray:
        """The full design ``[W | T]`` with W columns first."""
        return np.hstack([self.w, self.t])

    def full_gram_factors(
        self, tol: RankTolerance | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(U, R)`` with ``G_X = U R^{-1} R^{-T} U^T``, the inverse row Gram of ``X = [W | T]``.

        ``U`` is n x n orthogonal and ``R`` n x n upper triangular.  With
        ``W = U S V^T`` kept and ``C = U^T T``, ``X X^T = U (S^2 + C C^T) U^T``,
        and the R factor of the (n + m) x n matrix ``[S; C^T]`` has
        ``R^T R = S^2 + C C^T``: one small QR, no factorization of ``X``.
        ``R`` has the singular values of ``X``, and no Woodbury subtraction
        from ``G_W`` is made, so nothing of size ``cond(W)^2`` cancels.

        Full row rank of ``X`` is certified by
        ``s_min(W) > cutoff((n, q + m), hypot(s_max(W), s_max(T)))``: every
        singular value of ``X`` is at least the matching one of ``W``, and
        ``||X|| <= hypot(||W||, ||T||)``.  When the certificate fails, ``X``
        is factored, its rank decided from its own SVD as for an unsplit
        design, and ``(U_X, diag(s_X))`` returned.
        """
        f, n = self.w_svd, self.n
        tol = get_default_tolerance() if tol is None else tol
        t_max = float(self.t_svd.s[0]) if self.m else 0.0
        cut = tol.cutoff((n, self.q + self.m), float(np.hypot(f.s[0], t_max)))
        if f.s[-1] > cut:
            return f.u, np.linalg.qr(np.vstack([np.diag(f.s), self.t.T @ f.u]), mode="r")
        x = full_row_rank_svd(self.stacked(), tol)
        return x.u, np.diag(x.s)

    def split_factor(self) -> np.ndarray:
        """``F = L N`` (n x (n - m)), built once: the factor of the split estimators.

        With ``W = U S V^T`` kept, ``L = U S^{-1}`` (so ``G_W = L L^T`` and
        ``W^+ = V L^T``) and ``N`` the last n - m columns of the complete QR
        of ``K = L^T T``, an orthonormal basis of the complement of
        colsp(K).  Then ``F F^T = G_W - G_W T M^{-1} T^T G_W`` with
        ``M = T^T G_W T`` (the leave-one-out kernel), and
        ``P_B^perp W^+ = (V N) F^T`` for ``B = W^+ T``, where ``V N`` has
        orthonormal columns.  Nothing is subtracted, so no ``cond(W)^2``
        cancellation occurs when ``T`` lies along the weakest directions of
        ``W``.  The factor takes every singular value of ``W``, so it needs
        no tolerance.
        """
        if self._split_factor is None:
            f = self.w_svd
            ln = f.u / f.s  # L; W has full row rank, so U is n x n
            # L times the complete Q factor of K, one Householder reflector
            # H_j = I - tau_j v_j v_j^T at a time; the last n - m columns of Q are N
            h, tau = np.linalg.qr(ln.T @ self.t, mode="raw")
            for j in range(self.m):
                v = np.concatenate([np.zeros(j), [1.0], h[j, j + 1:]])
                ln -= np.outer(ln @ v, tau[j] * v)
            self._split_factor = _readonly(ln[:, self.m:])
        return self._split_factor

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DesignPartition(n={self.n}, q={self.q}, m={self.m})"


def _penalized_block(w) -> tuple[np.ndarray, Svd | None]:
    """``w`` as a checked array, with its kept SVD when ``w`` is an :class:`Svd`."""
    if isinstance(w, Svd):
        return as_matrix(w.a, "w"), w
    return as_matrix(w, "w"), None


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class FullFit:
    """Minimum-norm interpolating coefficients for an unsplit design."""

    beta_hat: np.ndarray
    max_interp_residual: float


@dataclass(frozen=True)
class PartialFit:
    """Coefficient pair for a split design: penalized lambda, free tau."""

    lambda_hat: np.ndarray
    tau_hat: np.ndarray
    max_interp_residual: float


def _check_interpolation(residual: np.ndarray, y: np.ndarray, what: str) -> float:
    gap = float(np.max(np.abs(residual))) if residual.size else 0.0
    scale = 1.0 + (float(np.max(np.abs(y))) if y.size else 0.0)
    bound = INTERPOLATION_RTOL * scale
    if gap > bound:
        raise RankAssumptionError(
            f"{what} failed to interpolate (sup-norm residual {gap:.3e} > {bound:.3e}); "
            "the design is numerically rank-marginal"
        )
    return gap


def fit_full(x, y, tol: RankTolerance | None = None) -> FullFit:
    """Fit the minimum l2-norm interpolator ``beta = X^+ y``.

    Requires ``X`` to have full row rank so that an exact fit exists; the
    returned coefficients are the smallest-norm element of the interpolating
    set.
    """
    x = as_matrix(x, "x")
    y = as_vector(y, "y")
    n = x.shape[0]
    if y.size != n:
        raise InvalidInputError(f"y has length {y.size}, expected {n}")
    beta = full_row_rank_svd(x, tol).pinv(tol) @ y
    gap = _check_interpolation(y - x @ beta, y, "full fit")
    return FullFit(beta_hat=_readonly(beta), max_interp_residual=gap)


def _partial_blocks(d: DesignPartition, rhs, tol):
    """Core solver for the partial decomposition; rhs may be a vector or matrix.

    ``P W`` has rank exactly n - m: ``W`` has full row rank, so the nonzero
    singular values of ``P W`` are at least ``s_min(W)``, which passed the
    partition's rank check.  Its pseudoinverse keeps those n - m triplets; a
    cutoff relative to ``||P W||`` would count the rounding noise of ``P W``,
    of order ``eps ||W||``, as rank when ``||P W||`` is well below ``||W||``.
    """
    pt_perp = np.eye(d.n) - d.t_svd.projector(tol)
    pw = Svd(pt_perp @ d.w)
    r = d.n - d.m
    lam = ((pw.vt[:r].T / pw.s[:r]) @ pw.u[:, :r].T) @ (pt_perp @ rhs)
    wp = d.w_svd.pinv(tol)
    tau = pinv(wp @ d.t, tol) @ (wp @ rhs)
    return lam, tau


def fit_partial(d: DesignPartition, y, tol: RankTolerance | None = None) -> PartialFit:
    """Fit the partially regularized interpolator on a split design.

    Among all ``(lambda, tau)`` with ``W lambda + T tau = y``, returns the
    pair whose ``lambda`` has minimum l2 norm.  With an empty unpenalized
    block the problem reduces to :func:`fit_full` on ``W``.
    """
    y = as_vector(y, "y")
    if y.size != d.n:
        raise InvalidInputError(f"y has length {y.size}, expected {d.n}")
    if d.m == 0:
        full = fit_full(d.w, y, tol)
        return PartialFit(
            lambda_hat=full.beta_hat,
            tau_hat=_readonly(np.zeros(0)),
            max_interp_residual=full.max_interp_residual,
        )
    lam, tau = _partial_blocks(d, y, tol)
    gap = _check_interpolation(y - d.w @ lam - d.t @ tau, y, "partial fit")
    return PartialFit(
        lambda_hat=_readonly(lam), tau_hat=_readonly(tau), max_interp_residual=gap
    )


def _variant_rowspace(d, y, tol):
    wp = d.w_svd.pinv(tol)
    b = wp @ d.t
    bp = pinv(b, tol)
    row_proj = wp @ d.w  # projection onto the row space of W
    lam = row_proj @ ((np.eye(d.q) - b @ bp) @ (wp @ y))
    tau = bp @ (wp @ y)
    return lam, tau


def _variant_residual(d, y, tol):
    wp = d.w_svd.pinv(tol)
    gw = d.w_svd.gram_inverse(tol)
    tau = pinv(wp @ d.t, tol) @ (wp @ y)
    lam = d.w.T @ (gw @ (y - d.t @ tau))
    return lam, tau


def _variant_gls(d, y, tol):
    gw = d.w_svd.gram_inverse(tol)
    tau = pinv(d.t.T @ gw @ d.t, tol) @ (d.t.T @ (gw @ y))
    lam = d.w.T @ (gw @ (y - d.t @ tau))
    return lam, tau


_VARIANT_FNS = {
    "rowspace": _variant_rowspace,
    "residual": _variant_residual,
    "gls": _variant_gls,
}

#: Recognized coefficient-expression names; "direct" is the defining form.
PARTIAL_VARIANTS = ("direct", "rowspace", "residual", "gls")


def fit_partial_variant(
    d: DesignPartition, y, variant: str, tol: RankTolerance | None = None
) -> PartialFit:
    """Fit using one named coefficient expression (all are algebraically equal)."""
    if variant == "direct":
        return fit_partial(d, y, tol)
    try:
        fn = _VARIANT_FNS[variant]
    except KeyError:
        raise InvalidInputError(
            f"unknown variant {variant!r}; choose from {PARTIAL_VARIANTS}"
        ) from None
    y = as_vector(y, "y")
    if y.size != d.n:
        raise InvalidInputError(f"y has length {y.size}, expected {d.n}")
    if d.m == 0:
        return fit_partial(d, y, tol)
    lam, tau = fn(d, y, tol)
    gap = _check_interpolation(y - d.w @ lam - d.t @ tau, y, f"partial fit ({variant})")
    return PartialFit(
        lambda_hat=_readonly(lam), tau_hat=_readonly(tau), max_interp_residual=gap
    )


def fit_partial_variants(
    d: DesignPartition, y, tol: RankTolerance | None = None
) -> dict[str, PartialFit]:
    """All three alternative coefficient expressions, keyed by variant name.

    Each agrees with :func:`fit_partial` to numerical precision; disagreement
    signals a tolerance or rank problem, which is exactly what the cross-check
    is for.
    """
    return {name: fit_partial_variant(d, y, name, tol) for name in _VARIANT_FNS}


def predict(fit, w_new, t_new=None) -> float:
    """Predict at a new observation: ``w_new . lambda_hat + t_new . tau_hat``.

    For a :class:`FullFit`, ``w_new`` (concatenated with ``t_new`` when given)
    must match the full coefficient vector.
    """
    w_new = as_vector(w_new, "w_new")
    t_new = np.zeros(0) if t_new is None else as_vector(t_new, "t_new")
    if isinstance(fit, PartialFit):
        if w_new.size != fit.lambda_hat.size or t_new.size != fit.tau_hat.size:
            raise InvalidInputError(
                f"prediction inputs of lengths ({w_new.size}, {t_new.size}) do not "
                f"match coefficient lengths ({fit.lambda_hat.size}, {fit.tau_hat.size})"
            )
        return float(w_new @ fit.lambda_hat + t_new @ fit.tau_hat)
    if isinstance(fit, FullFit):
        x_new = np.concatenate([w_new, t_new])
        if x_new.size != fit.beta_hat.size:
            raise InvalidInputError(
                f"prediction input of length {x_new.size} does not match "
                f"coefficient length {fit.beta_hat.size}"
            )
        return float(x_new @ fit.beta_hat)
    raise InvalidInputError(f"unsupported fit object {type(fit).__name__}")
