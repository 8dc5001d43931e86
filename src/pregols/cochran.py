"""Long/short/auxiliary regressions and the omitted-variable decomposition.

Split the penalized block as ``W = [Z | U]`` where ``Z`` is retained and
``U`` may be omitted.  Three partially regularized problems share the
unpenalized block ``T``:

* **long**  — regress y on (Z, U penalized; T free): coefficients
  (alpha_hat, gamma_hat, tau_hat);
* **short** — regress y on (Z penalized; T free): (alpha_tilde, tau_tilde);
* **auxiliary** — regress each column of U on (Z penalized; T free):
  matrices (delta_z, delta_t).

Each is a :func:`~pregols.interpolators.fit_partial` on a partition of a
:class:`CochranDesign` ``d``, whose ``(lambda_hat, tau_hat)`` are the pairs
above: ``fit_partial(d.long, y)`` with ``lambda_hat`` split into
``(alpha_hat, gamma_hat)`` at ``d.n_retained``, ``fit_partial(d.short, y)``
and ``fit_partial(d.short, d.u)``.

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
from .interpolators import DesignPartition, PartialFit, fit_partial
from .linalg import RankTolerance, Svd, _readonly, as_matrix

__all__ = [
    "CochranDesign",
    "CochranGaps",
    "OvbDecomposition",
    "cochran_check",
    "image_gap",
    "ovb_decompose",
]


class CochranDesign:
    """Validated triple ``(Z, U, T)``: the two split designs of the long and short fits.

    ``short`` is the :class:`~pregols.interpolators.DesignPartition`
    ``[Z | T]`` of the short and auxiliary fits, and ``long`` the partition
    ``[Z U | T]`` of the long fit, built on ``short``'s kept SVD of ``T``.
    Building ``short`` validates ``Z`` (wide, full row rank) and ``T``
    (skinny, full column rank); an error names the failed block as ``z`` or
    ``t``.  ``U`` must have full column rank with fewer columns than rows.
    The three fits read the two partitions (module docstring), the
    auxiliary one with the n x r matrix ``u`` as its responses, so none of
    them factors ``Z``, ``T`` or ``[Z | U]`` again.

    The rank tolerance is fixed once, here (``tol=None`` means
    ``RankTolerance()``), and kept as ``tol``: the three blocks are
    validated under it, both partitions keep it, and the long, short and
    auxiliary fits of every operation on the design decide rank under it
    too.
    """

    __slots__ = ("z", "u", "t", "short", "long", "tol")

    def __init__(self, z, u, t, *, tol: RankTolerance | None = None):
        z, u, t = as_matrix(z, "z"), as_matrix(np.array(u, dtype=float), "u"), as_matrix(t, "t")
        n = z.shape[0]
        if u.shape[0] != n or t.shape[0] != n:
            raise InvalidInputError("z, u, t must have equal row counts")
        try:
            short = DesignPartition(z, t, tol=tol)
        except RankAssumptionError as e:
            # the partition calls Z its penalized block w
            raise RankAssumptionError(
                str(e).replace("penalized block w", "retained block z")
            ) from None
        if u.shape[1] >= n or Svd(u).rank(short.tol) != u.shape[1]:
            raise RankAssumptionError(
                "rank assumption violated: omitted block u must have full column rank "
                f"with fewer columns than rows, got shape {u.shape}"
            )
        self.short = short
        self.z, self.u, self.t, self.tol = short.w, _readonly(u), short.t, short.tol
        self.long = DesignPartition(Svd(np.hstack([self.z, self.u])), short.t_svd, tol=short.tol)

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


class CochranGaps(NamedTuple):
    image_gap: float
    coeff_gap: float


def image_gap(
    d: CochranDesign, long_fit: PartialFit, short_fit: PartialFit, aux_fit: PartialFit
) -> float:
    """Sup-norm gap in the fitted-value identity, for arbitrary solution-set members.

    The fits are on ``d.long``, ``d.short`` and, for the responses ``d.u``,
    ``d.short`` (module docstring).  The identity holds for any members of the three solution sets, not only
    the minimum-norm fits; to check a non-minimum-norm member, move a fit's
    coefficients along the null space of its design, e.g.
    ``dataclasses.replace(long_fit, lambda_hat=...)``.
    """
    ell = d.n_retained
    alpha, gamma = long_fit.lambda_hat[:ell], long_fit.lambda_hat[ell:]
    lhs = d.z @ short_fit.lambda_hat + d.t @ short_fit.tau_hat
    rhs = (d.z @ (alpha + aux_fit.lambda_hat @ gamma)
           + d.t @ (long_fit.tau_hat + aux_fit.tau_hat @ gamma))
    return float(np.max(np.abs(lhs - rhs)))


def _cochran_report(d: CochranDesign, y) -> tuple[CochranGaps, OvbDecomposition | None]:
    """Both identity gaps and, when ``T = [D, 1]``, the OVB decomposition, from one set of fits."""
    long_fit, short_fit = fit_partial(d.long, y), fit_partial(d.short, y)
    aux_fit = fit_partial(d.short, d.u)
    ell = d.n_retained
    alpha, gamma = long_fit.lambda_hat[:ell], long_fit.lambda_hat[ell:]
    coeff = max(
        float(np.max(np.abs(short_fit.lambda_hat - alpha - aux_fit.lambda_hat @ gamma))),
        float(np.max(np.abs(short_fit.tau_hat - long_fit.tau_hat - aux_fit.tau_hat @ gamma))),
    )
    gaps = CochranGaps(image_gap=image_gap(d, long_fit, short_fit, aux_fit), coeff_gap=coeff)
    if _ovb_problem(d.t) is not None:
        return gaps, None
    tau_long_d = float(long_fit.tau_hat[0])
    tau_short_d = float(short_fit.tau_hat[0])
    ovb = OvbDecomposition(
        tau_long_d=tau_long_d,
        tau_short_d=tau_short_d,
        bias=tau_short_d - tau_long_d,
        impact=gamma,
        imbalance=aux_fit.tau_hat[0],
    )
    return gaps, ovb


def cochran_check(d: CochranDesign, y) -> CochranGaps:
    """Evaluate both identities on the canonical minimum-norm fits.

    Returns the sup-norm discrepancy of the fitted-value identity and of the
    coefficient recursion; both should sit at numerical-noise level whenever
    the design ranks validate.
    """
    return _cochran_report(d, y)[0]


@dataclass(frozen=True)
class OvbDecomposition:
    """Bias of the treatment coefficient split into imbalance x impact."""

    tau_long_d: float
    tau_short_d: float
    bias: float
    impact: np.ndarray  # long-fit coefficients of the omitted block
    imbalance: np.ndarray  # treatment row of the auxiliary T-coefficients


def ovb_decompose(d: CochranDesign, y) -> OvbDecomposition:
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
    return _cochran_report(d, y)[1]


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

