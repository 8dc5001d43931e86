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

    tau_hat    = (W^+ T)^+ W^+ y      (T-block)
    lambda_hat = W^+ (y - T tau_hat)  (W-block, equal to (P W)^+ P y)

Both come from the kept SVD ``W = U S V^T``: with ``L = U S^{-1}``,
``W^+ = V L^T``, so ``tau_hat = (L^T T)^+ L^T y`` factors only the n x m
``L^T T`` (:meth:`DesignPartition.tau_map`) and
``lambda_hat = V L^T (y - T tau_hat)``.  As ``lambda_hat`` is the
minimum-norm W-block for the computed ``tau_hat``, the fit interpolates to
about ``cond(W) eps`` and ``lambda_hat`` is accurate to about
``n cond(W) eps``.  ``tau_hat`` solves a weighted least-squares problem
with a large residual, so it carries a ``cond(W)^2 eps`` term (Bjorck 1996,
ch. 1); that loss belongs to the problem, not to the algorithm.

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
    ``P_T``, the map to the split fit's ``tau`` (:meth:`tau_map`), the
    inverse Gram of ``[W | T]`` (:meth:`full_gram_inverse`) and the n-space
    factor of the split estimators (:meth:`split_factor`, kept once built)
    from them instead of factoring again.  ``w`` and ``t`` may each be
    given as an ``Svd`` (the one a rank check has already computed, or
    factors known by construction), which is kept as it is.

    An empty ``T`` is refused: an unsplit design is fitted by :func:`fit_full`
    and its variance map is :func:`~pregols.variance.full_operator`.
    """

    __slots__ = ("w", "t", "w_svd", "t_svd", "_split_factor")

    def __init__(self, w, t, *, tol: RankTolerance | None = None):
        w_svd = w if isinstance(w, Svd) else None
        t_svd = t if isinstance(t, Svd) else None
        w = as_matrix(w.a if w_svd is not None else w, "w")
        t = as_matrix(t.a if t_svd is not None else t, "t")
        if t.shape[1] == 0:
            raise InvalidInputError(
                "unpenalized block t must have at least one column; "
                "fit an unsplit design with fit_full"
            )
        n, m = t.shape
        if w.shape[0] != n:
            raise InvalidInputError(
                f"w and t must have equal row counts, got {w.shape[0]} and {n}"
            )
        if w.shape[1] < n:
            raise RankAssumptionError(
                f"penalized block w must be wide (cols >= rows), got {n}x{w.shape[1]}"
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
        if m >= n:
            raise RankAssumptionError(
                f"unpenalized block t must have fewer columns than rows, got {n}x{m}"
            )
        self.t = _readonly(t)
        self.t_svd = Svd(self.t) if t_svd is None else t_svd
        rt = self.t_svd.rank(tol)
        if rt != m:
            raise RankAssumptionError(
                f"rank assumption violated: unpenalized block t must have full "
                f"column rank {m}, numeric rank is {rt}"
            )

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

    def full_gram_inverse(self, tol: RankTolerance | None = None) -> np.ndarray:
        """``G_X = (X X^T)^{-1}``, the inverse row Gram of ``X = [W | T]``, from the kept factors.

        Full row rank of ``X`` is certified by
        ``s_min(W) > cutoff((n, q + m), hypot(s_max(W), s_max(T)))``: every
        singular value of ``X`` is at least the matching one of ``W``, and
        ``||X|| <= hypot(||W||, ||T||)``.  When the certificate fails, ``X``
        is factored, its rank decided from its own SVD as for an unsplit
        design, and ``G_X`` built from that SVD.

        Otherwise, with ``W = U S V^T`` kept, one of two routes; neither
        subtracts anything from ``G_W``, so nothing of size ``cond(W)^2``
        cancels.

        * **Floor.**  When the smallest singular value ``sigma = s_n`` of
          ``W`` repeats more than m times (``k`` values lie above it and
          ``n - k > m``; an exact comparison, as a spiked draw builds its
          floor exactly), ``X X^T = sigma^2 I + J J^T`` with
          ``J = [U_k diag(sqrt(s_k^2 - sigma^2)) | T]`` (n x (k + m)).  By
          Sherman-Morrison-Woodbury ``G_X = sigma^{-2} (I - Q_1 Q_1^T)``,
          where ``Q_1`` is the top n rows of the thin Q factor of
          ``[J; sigma I]``, a (k + m)-wide QR: ``Q_1 = J R^{-1}`` with
          ``R^T R = sigma^2 I + J^T J``.  The QR, unlike a Cholesky of
          ``sigma^2 I + J^T J``, does not square ``cond(X)`` when ``T``
          lies along a large spike.  As ``n - k > m``, ``sigma^2`` is the
          smallest eigenvalue of ``X X^T`` and ``Q_1 Q_1^T`` has
          eigenvalues in [0, 1), so the subtraction errs by about
          ``eps ||G_X||``.
        * **QR.**  With ``C = U^T T``, ``X X^T = U (S^2 + C C^T) U^T``, and
          the R factor of the (n + m) x n matrix ``[S; C^T]`` has
          ``R^T R = S^2 + C C^T``, so ``G_X = L L^T`` with ``L = U R^{-1}``.
          ``R`` has the singular values of ``X``.
        """
        f, n, m = self.w_svd, self.n, self.m
        tol = get_default_tolerance() if tol is None else tol
        floor = f.s[-1]
        x_max = float(np.hypot(f.s[0], self.t_svd.s[0]))  # bounds ||[W | T]||
        if not floor > tol.cutoff((n, self.q + m), x_max):
            return full_row_rank_svd(self.stacked(), tol).gram_inverse(tol)
        k = int(np.count_nonzero(f.s > floor))
        if n - k > m:
            top = f.s[:k]
            j = np.hstack([f.u[:, :k] * np.sqrt((top - floor) * (top + floor)), self.t])
            q1 = np.linalg.qr(np.vstack([j, floor * np.eye(k + m)]))[0][:n]
            gx = -(q1 @ q1.T)
            gx[np.diag_indices(n)] += 1.0
            return gx / floor**2
        ell = f.u @ np.linalg.inv(
            np.linalg.qr(np.vstack([np.diag(f.s), self.t.T @ f.u]), mode="r")
        )  # LU of a triangular R swaps no rows
        return ell @ ell.T

    def tau_map(self, tol: RankTolerance | None = None) -> np.ndarray:
        """``(L^T T)^+ L^T`` (m x n), the map from ``y`` to the split fit's ``tau``.

        With ``W = U S V^T`` kept and ``L = U S^{-1}``, ``W^+ = V L^T`` and
        ``V`` has orthonormal columns, so ``(W^+ T)^+ W^+ = (L^T T)^+ L^T``.
        Only the n x m ``L^T T`` is factored, under ``tol``; the q x n
        ``W^+`` is never formed.  Not kept: each call factors ``L^T T``.
        """
        ln = self.w_svd.u / self.w_svd.s
        return Svd(ln.T @ self.t).pinv(tol) @ ln.T

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
    """The split fit ``(lambda, tau)``; ``rhs`` may be a vector or a matrix of columns.

    ``tau = (L^T T)^+ L^T rhs`` (:meth:`DesignPartition.tau_map`), then
    ``lambda = W^+ (rhs - T tau) = V L^T (rhs - T tau)`` from the kept
    ``W = U S V^T``: the minimum-norm ``lambda`` for that ``tau``, so
    ``W lambda + T tau`` reproduces ``rhs`` whatever the error in ``tau``.
    """
    f = d.w_svd
    tau = d.tau_map(tol) @ rhs
    lam = f.vt.T @ ((f.u / f.s).T @ (rhs - d.t @ tau))
    return lam, tau


def fit_partial(d: DesignPartition, y, tol: RankTolerance | None = None) -> PartialFit:
    """Fit the partially regularized interpolator on a split design.

    Among all ``(lambda, tau)`` with ``W lambda + T tau = y``, returns the
    pair whose ``lambda`` has minimum l2 norm: ``tau`` first, then
    ``lambda = W^+ (y - T tau)`` (see the module docstring).  Against the
    exact ``lambda`` it erred by at most ``8.8 n cond(W) eps`` over 400
    random designs with cond(W) up to 5e3, and by ``1.4 n cond(W) eps``
    with ``T`` along the strong directions of a ``W`` of cond 1e4 to 1e8.
    """
    y = as_vector(y, "y")
    if y.size != d.n:
        raise InvalidInputError(f"y has length {y.size}, expected {d.n}")
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
    """``tau`` as in ``direct``, ``lambda = W^T G_W (y - T tau)``.

    Going through ``G_W`` loses up to ``cond(W)^2 * eps``: reparametrizing
    ``T -> T A`` moved ``lambda`` by 1.7e-10 relative at cond(W) = 2.6e3,
    where ``direct`` moved by at most ``43 * cond(W) * eps``.
    """
    gw = d.w_svd.gram_inverse(tol)
    tau = d.tau_map(tol) @ y
    lam = d.w.T @ (gw @ (y - d.t @ tau))
    return lam, tau


def _variant_gls(d, y, tol):
    """``tau = (T^T G_W T)^+ T^T G_W y``, ``lambda = W^T G_W (y - T tau)``.

    Forming ``T^T G_W T`` loses up to ``cond(W)^2 * eps``: reparametrizing
    ``T -> T A`` moved ``lambda`` by 3.3e-8 relative at cond(W) = 1.1e3,
    where ``direct`` moved by at most ``43 * cond(W) * eps``.
    """
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
    """Fit using one named coefficient expression.

    All are algebraically equal, not equally accurate.  Against the exact
    ``lambda`` over 400 random designs with cond(W) up to 5e3, ``direct``
    erred by at most ``8.8``, ``rowspace`` ``23``, ``residual`` ``175`` and
    ``gls`` ``8.4e3`` times ``n cond(W) eps``: ``gls`` and ``residual`` go
    through ``G_W`` and lose up to ``cond(W)^2 * eps``.
    """
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
