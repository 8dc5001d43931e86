"""Long/short/auxiliary regressions and the omitted-variable decomposition.

Split the penalized block as ``W = [Z | U]`` where ``Z`` is retained and
``U`` may be omitted.  Three partially regularized problems share the
unpenalized block ``T``:

* **long**  — regress y on (Z, U penalized; T free): coefficients
  (alpha_hat, gamma_hat, tau_hat);
* **short** — regress y on (Z penalized; T free): (alpha_tilde, tau_tilde);
* **auxiliary** — regress each column of U on (Z penalized; T free):
  matrices (delta_z, delta_t).

Two exact identities link them.  The fitted values agree for *any* members
of the three solution sets:

    Z alpha_tilde + T tau_tilde
        = Z (alpha_hat + delta_z gamma_hat) + T (tau_hat + delta_t gamma_hat)

and, for the canonical minimum-norm solutions, the coefficients themselves
satisfy the classical omitted-variable (Cochran) recursion

    alpha_tilde = alpha_hat + delta_z gamma_hat
    tau_tilde   = tau_hat   + delta_t gamma_hat.

With ``T = [D, 1]`` for a binary treatment ``D``, the recursion gives the
omitted-variable bias of the treatment coefficient as (imbalance of U across
arms) x (impact of U on the outcome); see :func:`ovb_decompose`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import InvalidInputError, RankAssumptionError
from .interpolators import (
    DesignPartition,
    _check_interpolation,
    _partial_blocks,
    _readonly,
    fit_partial,
)
from .linalg import RankTolerance, Svd, as_matrix, as_vector, numeric_rank

__all__ = [
    "CochranDesign",
    "LongFit",
    "ShortFit",
    "AuxFit",
    "CochranGaps",
    "OvbDecomposition",
    "fit_long",
    "fit_short",
    "fit_aux",
    "cochran_check",
    "image_gap",
    "ovb_decompose",
]


class CochranDesign:
    """Validated triple ``(Z, U, T)`` with Z wide full row rank, U and T skinny full column rank.

    The thin SVDs of ``Z`` and ``T`` that the rank checks compute are kept as
    ``z_svd`` and ``t_svd``, so the fits do not factor either again.
    """

    __slots__ = ("z", "u", "t", "z_svd", "t_svd")

    def __init__(self, z, u, t, *, tol: RankTolerance | None = None):
        z = _readonly(as_matrix(z, "z"))
        u = as_matrix(u, "u")
        t = _readonly(as_matrix(t, "t"))
        n = z.shape[0]
        if u.shape[0] != n or t.shape[0] != n:
            raise InvalidInputError("z, u, t must have equal row counts")
        z_svd = Svd(z) if z.shape[1] >= n else None
        if z_svd is None or z_svd.rank(tol) != n:
            raise RankAssumptionError(
                f"rank assumption violated: retained block z must have full row rank {n}"
            )
        if u.shape[1] >= n or numeric_rank(u, tol) != u.shape[1]:
            raise RankAssumptionError(
                "rank assumption violated: omitted block u must have full column rank "
                f"with fewer columns than rows, got shape {u.shape}"
            )
        t_svd = Svd(t) if t.shape[1] < n else None
        if t_svd is None or t_svd.rank(tol) != t.shape[1]:
            raise RankAssumptionError(
                "rank assumption violated: unpenalized block t must have full column "
                f"rank with fewer columns than rows, got shape {t.shape}"
            )
        self.z = z
        self.z_svd = z_svd
        self.u = _readonly(u)
        self.t = t
        self.t_svd = t_svd

    @property
    def n(self) -> int:
        return self.z.shape[0]

    @property
    def n_retained(self) -> int:
        return self.z.shape[1]

    @property
    def n_omitted(self) -> int:
        return self.u.shape[1]

    @property
    def n_unpenalized(self) -> int:
        return self.t.shape[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CochranDesign(n={self.n}, retained={self.n_retained}, "
            f"omitted={self.n_omitted}, unpenalized={self.n_unpenalized})"
        )


@dataclass(frozen=True)
class LongFit:
    alpha_hat: np.ndarray
    gamma_hat: np.ndarray
    tau_hat: np.ndarray
    max_interp_residual: float


@dataclass(frozen=True)
class ShortFit:
    alpha_tilde: np.ndarray
    tau_tilde: np.ndarray
    max_interp_residual: float


@dataclass(frozen=True)
class AuxFit:
    """Columnwise regression of U on (Z penalized, T unpenalized)."""

    delta_z: np.ndarray  # shape (cols of Z, cols of U)
    delta_t: np.ndarray  # shape (cols of T, cols of U)
    max_interp_residual: float


def fit_long(d: CochranDesign, y, tol: RankTolerance | None = None) -> LongFit:
    """Joint regression including the omitted block, minimizing ||alpha||^2 + ||gamma||^2.

    Delegates to the split-design solver with penalized block ``[Z | U]``
    (column order Z-then-U, so the joint l2 penalty is exactly the sum of the
    two block penalties) and splits the coefficients back out.
    """
    y = as_vector(y, "y")
    part = DesignPartition(np.hstack([d.z, d.u]), d.t_svd, tol=tol)
    fit = fit_partial(part, y, tol)
    ell = d.n_retained
    return LongFit(
        alpha_hat=_readonly(fit.lambda_hat[:ell]),
        gamma_hat=_readonly(fit.lambda_hat[ell:]),
        tau_hat=fit.tau_hat,
        max_interp_residual=fit.max_interp_residual,
    )


def fit_short(z, t, y, tol: RankTolerance | None = None) -> ShortFit:
    """Regression omitting U, minimizing ||alpha||^2 with T unpenalized."""
    y = as_vector(y, "y")
    part = DesignPartition(z, t, tol=tol)
    fit = fit_partial(part, y, tol)
    return ShortFit(
        alpha_tilde=fit.lambda_hat,
        tau_tilde=fit.tau_hat,
        max_interp_residual=fit.max_interp_residual,
    )


def fit_aux(z, t, u, tol: RankTolerance | None = None) -> AuxFit:
    """Regress each column of U on (Z penalized, T unpenalized).

    The Frobenius objective decomposes by column, so the joint minimum-norm
    solution is the columnwise one; the solver handles the matrix right-hand
    side directly.
    """
    part = DesignPartition(z, t, tol=tol)
    u = as_matrix(u, "u")
    if u.shape[0] != part.n:
        raise InvalidInputError("u must have the same row count as z and t")
    dz, dt = _partial_blocks(part, u, tol)
    resid = u - part.w @ dz - part.t @ dt
    gap = _check_interpolation(resid, u.reshape(-1), "auxiliary fit")
    return AuxFit(delta_z=_readonly(dz), delta_t=_readonly(dt), max_interp_residual=gap)


class CochranGaps(NamedTuple):
    image_gap: float
    coeff_gap: float


def image_gap(d: CochranDesign, long_fit, short_fit, aux_fit) -> float:
    """Sup-norm gap in the fitted-value identity, for arbitrary solution-set members.

    Accepts the fit dataclasses or plain coefficient tuples
    ``(alpha, gamma, tau)``, ``(alpha, tau)``, ``(delta_z, delta_t)`` so that
    null-space-perturbed (non-minimum-norm) solutions can be checked too.
    """
    a1, g1, t1 = _long_coeffs(long_fit)
    a2, t2 = _short_coeffs(short_fit)
    dz, dt = _aux_coeffs(aux_fit)
    lhs = d.z @ a2 + d.t @ t2
    rhs = d.z @ (a1 + dz @ g1) + d.t @ (t1 + dt @ g1)
    return float(np.max(np.abs(lhs - rhs)))


def _long_coeffs(fit):
    if isinstance(fit, LongFit):
        return fit.alpha_hat, fit.gamma_hat, fit.tau_hat
    return tuple(np.asarray(v, dtype=np.float64) for v in fit)


def _short_coeffs(fit):
    if isinstance(fit, ShortFit):
        return fit.alpha_tilde, fit.tau_tilde
    return tuple(np.asarray(v, dtype=np.float64) for v in fit)


def _aux_coeffs(fit):
    if isinstance(fit, AuxFit):
        return fit.delta_z, fit.delta_t
    return tuple(np.asarray(v, dtype=np.float64) for v in fit)


def _cochran_fits(
    d: CochranDesign, y, tol: RankTolerance | None = None
) -> tuple[LongFit, ShortFit, AuxFit]:
    """The long, short and auxiliary fits of one response.

    The fits start from the kept ``d.z_svd`` and ``d.t_svd``, so neither
    ``Z`` nor ``T`` is factored again.
    """
    return (
        fit_long(d, y, tol),
        fit_short(d.z_svd, d.t_svd, y, tol),
        fit_aux(d.z_svd, d.t_svd, d.u, tol),
    )


def _cochran_report(
    d: CochranDesign, y, tol: RankTolerance | None = None
) -> tuple[CochranGaps, OvbDecomposition | None]:
    """Both identity gaps and, when ``T = [D, 1]``, the OVB decomposition, from one set of fits."""
    long_fit, short_fit, aux_fit = _cochran_fits(d, y, tol)
    img = image_gap(d, long_fit, short_fit, aux_fit)
    coeff = max(
        float(
            np.max(
                np.abs(
                    short_fit.alpha_tilde
                    - long_fit.alpha_hat
                    - aux_fit.delta_z @ long_fit.gamma_hat
                )
            )
        ),
        float(
            np.max(
                np.abs(
                    short_fit.tau_tilde
                    - long_fit.tau_hat
                    - aux_fit.delta_t @ long_fit.gamma_hat
                )
            )
        ),
    )
    gaps = CochranGaps(image_gap=img, coeff_gap=coeff)
    if _ovb_problem(d.t) is not None:
        return gaps, None
    tau_long_d = float(long_fit.tau_hat[0])
    tau_short_d = float(short_fit.tau_tilde[0])
    ovb = OvbDecomposition(
        tau_long_d=tau_long_d,
        tau_short_d=tau_short_d,
        bias=tau_short_d - tau_long_d,
        impact=long_fit.gamma_hat,
        imbalance=_readonly(aux_fit.delta_t[0]),
    )
    return gaps, ovb


def cochran_check(d: CochranDesign, y, tol: RankTolerance | None = None) -> CochranGaps:
    """Evaluate both identities on the canonical minimum-norm fits.

    Returns the sup-norm discrepancy of the fitted-value identity and of the
    coefficient recursion; both should sit at numerical-noise level whenever
    the design ranks validate.
    """
    return _cochran_report(d, y, tol)[0]


@dataclass(frozen=True)
class OvbDecomposition:
    """Bias of the treatment coefficient split into imbalance x impact."""

    tau_long_d: float
    tau_short_d: float
    bias: float
    impact: np.ndarray  # long-fit coefficients of the omitted block
    imbalance: np.ndarray  # treatment row of the auxiliary T-coefficients


def ovb_decompose(d: CochranDesign, y, tol: RankTolerance | None = None) -> OvbDecomposition:
    """Omitted-variable decomposition for ``T = [D, 1]`` with binary treatment D.

    ``bias`` is the treatment-coefficient shift ``tau_short_d - tau_long_d``;
    it equals ``imbalance . impact`` exactly, where ``impact`` is the long
    fit's coefficient on the omitted block and ``imbalance`` is the
    treatment row of the auxiliary regression of the omitted block on the
    retained design.
    """
    problem = _ovb_problem(d.t)
    if problem is not None:
        raise InvalidInputError(problem)
    # rank(T) = 2 was validated at construction, which already rules out a
    # constant treatment column.
    return _cochran_report(d, y, tol)[1]


def _ovb_problem(t: np.ndarray) -> str | None:
    """Why ``t`` is not ``[D, 1]`` with a binary treatment D, or None when it is."""
    if t.shape[1] != 2:
        return (
            f"ovb_decompose requires t = [treatment, intercept] with 2 columns, got {t.shape[1]}"
        )
    if not np.all((t[:, 0] == 0.0) | (t[:, 0] == 1.0)):
        return "treatment column must be binary (0/1)"
    if not np.all(t[:, 1] == 1.0):
        return "second column of t must be all ones"
    return None

