"""Homoskedastic noise-variance estimators for interpolating fits.

Interpolators have zero in-sample residuals, so the classical residual-based
variance estimator degenerates.  Four replacements work on a wide split
design ``[W | T]`` under the fixed-design Gauss-Markov model
(``y = X beta + eps``, ``E[eps] = 0``, ``Cov(eps) = sigma^2 I``).  Each one is a
normalized quadratic form

    sigma2_hat = ||R y||^2 / ||R||_F^2

for an estimator-specific matrix ``R``, and consequently each has the exact
expectation ``sigma^2 + ||R E[y]||^2 / ||R||_F^2`` (apply
``E[y^T M y] = beta^T X^T M X beta + sigma^2 tr(M)`` with ``M = R^T R``).
The additive term is the estimator's bias, computable exactly from a supplied
truth; all four are conservative (biased upward).

===========  ==========================================================
estimator    R
===========  ==========================================================
``full``     ``[diag(G_X)]^{-1} G_X`` (leave-one-out residual map, X unsplit)
``partial``  rows ``e_i^T [diag(G_W)]^{-1} G_W (I - H_i)`` (split LOO map)
``w``        ``P_T``, projection onto colsp(T); normalizer rank(T)
``wc``       ``F^T``, equal to ``P_B^perp W^+`` (``B = W^+ T``) up to a
             left isometry
===========  ==========================================================

``F = L N`` is the n x (n - m) factor the partition keeps
(:meth:`~pregols.interpolators.DesignPartition.split_factor`), the same one
the ``partial`` map is built from.  ``P_B^perp W^+ = (V N) F^T`` and ``V N``
has orthonormal columns, so ``F^T`` gives every ``wc`` estimate and its
normalizer without forming the q x n ``W^+`` or a q x q projector.

Normalizer note for ``wc``: two superficially similar normalizers exist,
``tr(P_B^perp (W^T W)^+)`` over the projected coefficient space and
``tr(P_T^perp G_W)`` over the sample space.  They are NOT equal in general
(numerically they differ by factors on random designs).  This module uses the
projected-space trace, which equals ``||P_B^perp W^+||_F^2 = ||F||_F^2`` and
is the one that makes the exact-bias identity hold; the Monte-Carlo suite
verifies this.  :func:`wc_normalizers` exposes both for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError, RankAssumptionError
from .interpolators import DesignPartition
from .linalg import (
    RankTolerance,
    as_matrix,
    as_vector,
    complement_projector,
    full_row_rank_svd,
)
from .loo import PartialLooSolver

__all__ = [
    "ESTIMATOR_IDS",
    "GaussMarkovTruth",
    "VarianceReport",
    "ResidualOperator",
    "full_operator",
    "partial_operator",
    "w_operator",
    "wc_operator",
    "wc_normalizers",
    "residual_operator",
    "loo_residuals_full",
    "sigma2",
    "expected_bias",
]

ESTIMATOR_IDS = ("full", "partial", "w", "wc")


@dataclass(frozen=True)
class GaussMarkovTruth:
    """Fixed-design truth: deterministic coefficients and noise variance."""

    beta: np.ndarray
    sigma2: float

    def __post_init__(self) -> None:
        beta = as_vector(self.beta, "beta")
        object.__setattr__(self, "beta", beta)
        if not 0.0 < self.sigma2 < np.inf:
            raise InvalidInputError("sigma2 must be positive and finite")

    def mean_response(self, design: np.ndarray) -> np.ndarray:
        design = as_matrix(design, "design")
        if design.shape[1] != self.beta.size:
            raise InvalidInputError(
                f"beta has length {self.beta.size}, design has {design.shape[1]} columns"
            )
        return design @ self.beta


@dataclass(frozen=True)
class VarianceReport:
    """One estimate with its normalizer and, when a truth is supplied, its exact bias."""

    estimator_id: str
    estimate: float
    denominator: float
    expected_bias: float | None = None


@dataclass(frozen=True)
class ResidualOperator:
    """Matrix ``R`` and normalizer defining one estimator ``||R y||^2 / denominator``.

    :meth:`estimates` is the one implementation of the quadratic form: it
    takes a block whose rows are responses and applies ``R`` to all of them
    with one matrix product.  :meth:`estimate` and :meth:`expected_bias` are
    its one-row cases, and the simulation harness calls it on each trial's
    block of draws.
    """

    estimator_id: str
    matrix: np.ndarray
    denominator: float

    def estimates(self, ys) -> np.ndarray:
        """``||R v||^2 / denominator`` for every row ``v`` of the block ``ys``."""
        ys = as_matrix(ys, "ys")
        n = self.matrix.shape[1]
        if ys.shape[1] != n:
            raise InvalidInputError(f"rows of ys have length {ys.shape[1]}, expected {n}")
        r = ys @ self.matrix.T
        return np.einsum("ij,ij->i", r, r) / self.denominator

    def _one_row(self, v, name: str) -> float:
        v = as_vector(v, name)
        if v.size != self.matrix.shape[1]:
            raise InvalidInputError(
                f"{name} has length {v.size}, expected {self.matrix.shape[1]}"
            )
        return float(self.estimates(v[None, :])[0])

    def estimate(self, y) -> float:
        return self._one_row(y, "y")

    def expected_bias(self, mean_response) -> float:
        """Exact additive bias for a given ``E[y]``."""
        return self._one_row(mean_response, "mean_response")

    def report(self, y, mean_response=None) -> VarianceReport:
        return VarianceReport(
            estimator_id=self.estimator_id,
            estimate=self.estimate(y),
            denominator=self.denominator,
            expected_bias=None
            if mean_response is None
            else self.expected_bias(mean_response),
        )


def full_operator(x, tol: RankTolerance | None = None) -> ResidualOperator:
    """Leave-one-out residual map of the unsplit minimum-norm interpolator.

    For a full-row-rank ``X`` it is ``[diag(G_X)]^{-1} G_X``, and
    ``g_ii >= 1 / smax^2 > 0``.  For an array ``x`` the rank and ``G_X``
    come from one SVD of ``X``; for a :class:`DesignPartition` ``G_X``
    comes from its kept factors (:meth:`DesignPartition.full_gram_inverse`),
    with ``X = [W | T]`` never factored unless its rank certificate fails.
    """
    if isinstance(x, DesignPartition):
        gx = x.full_gram_inverse(tol)
    else:
        gx = full_row_rank_svd(as_matrix(x, "x"), tol).gram_inverse(tol)
    r = gx / np.diag(gx)[:, None]
    return ResidualOperator("full", r, float(np.sum(r * r)))


def loo_residuals_full(x, y, tol: RankTolerance | None = None) -> np.ndarray:
    """Leave-one-out residuals of the fully regularized interpolator.

    For a full-row-rank design the whole vector is ``[diag(G_X)]^{-1} G_X y``,
    the :func:`full_operator` map applied to ``y``; no per-index correction
    is needed because there is no unpenalized block.
    """
    x = as_matrix(x, "x")
    y = as_vector(y, "y")
    if y.size != x.shape[0]:
        raise InvalidInputError(f"y has length {y.size}, expected {x.shape[0]}")
    return full_operator(x, tol).matrix @ y


def partial_operator(d: DesignPartition, tol: RankTolerance | None = None) -> ResidualOperator:
    """Leave-one-out residual map of the split-design interpolator."""
    solver = PartialLooSolver(d, tol)
    return ResidualOperator("partial", solver.residual_matrix, solver.denominator)


def w_operator(d: DesignPartition, tol: RankTolerance | None = None) -> ResidualOperator:
    """In-sample residual map from the penalized-block formulation.

    Regressing ``y`` (not its projection) on the projected penalized block
    leaves the nontrivial residual ``P_T y``; the normalizer is rank(T),
    which equals ``||P_T||_F^2`` exactly.  With ``T`` a lone intercept
    column the bias is ``(sum_i w_i . beta_W + n beta_0)^2 / n``, which grows
    with the sample mean of the signal; expect it to dominate the other three.
    """
    return ResidualOperator("w", d.t_svd.projector(tol), float(d.t_svd.rank(tol)))


def wc_operator(d: DesignPartition, tol: RankTolerance | None = None) -> ResidualOperator:
    """In-sample residual map from the unpenalized-block formulation.

    The residual of regressing ``W^+ y`` on ``W^+ T`` is
    ``P_B^perp W^+ y = (V N) F^T y`` with ``B = W^+ T``; ``V N`` is an
    isometry, so the map is the (n - m) x n ``F^T`` (see module docstring).
    """
    if d.w_svd.rank(tol) != d.n:
        raise RankAssumptionError(
            f"rank assumption violated: penalized block w must have full row rank {d.n}"
        )
    r = d.split_factor().T
    return ResidualOperator("wc", r, float(np.sum(r * r)))


def wc_normalizers(d: DesignPartition, tol: RankTolerance | None = None) -> tuple[float, float]:
    """Both candidate normalizers for ``wc``: (projected-space, sample-space).

    The first is ``tr(P_B^perp (W^T W)^+)`` and is what :func:`wc_operator`
    uses; the second is ``tr(P_T^perp G_W)``.  They differ in general.
    """
    wp = d.w_svd.pinv(tol)
    # (W^T W)^+ = W^+ W^{+T}
    projected = float(np.trace(complement_projector(wp @ d.t, tol) @ (wp @ wp.T)))
    p_t_perp = np.eye(d.n) - d.t_svd.projector(tol)
    sample = float(np.trace(p_t_perp @ d.w_svd.gram_inverse(tol)))
    return projected, sample


def residual_operator(estimator_id: str, d: DesignPartition,
                      tol: RankTolerance | None = None) -> ResidualOperator:
    """The residual operator of one estimator on a split design.

    ``full`` is the map of the stacked design ``[W | T]``; it and the other
    three are built from the partition's kept factors.
    """
    if estimator_id == "full":
        return full_operator(d, tol)
    if estimator_id == "partial":
        return partial_operator(d, tol)
    if estimator_id == "w":
        return w_operator(d, tol)
    if estimator_id == "wc":
        return wc_operator(d, tol)
    raise InvalidInputError(
        f"unknown estimator {estimator_id!r}; choose from {ESTIMATOR_IDS}"
    )


def _operator(estimator_id: str, design,
              tol: RankTolerance | None) -> tuple[ResidualOperator, np.ndarray]:
    """``(R, X)``: one estimator's residual operator and the stacked design it maps.

    ``full`` takes an unsplit array or a :class:`DesignPartition`; the other
    three take a :class:`DesignPartition` only.
    """
    if estimator_id not in ESTIMATOR_IDS:
        raise InvalidInputError(
            f"unknown estimator {estimator_id!r}; choose from {ESTIMATOR_IDS}"
        )
    if isinstance(design, DesignPartition):
        return residual_operator(estimator_id, design, tol), design.stacked()
    if estimator_id != "full":
        raise InvalidInputError(
            f"estimator {estimator_id!r} requires a DesignPartition"
        )
    x = as_matrix(design, "design")
    return full_operator(x, tol), x


def sigma2(estimator_id: str, design, y, truth: GaussMarkovTruth | None = None,
           tol: RankTolerance | None = None) -> VarianceReport:
    """One estimate ``||R y||^2 / ||R||_F^2``, with its exact bias when ``truth`` is given.

    ``design`` is as for :func:`expected_bias`.  Build the operator once
    (:func:`residual_operator`) to amortize the per-design work across many
    responses.
    """
    op, x = _operator(estimator_id, design, tol)
    return op.report(y, None if truth is None else truth.mean_response(x))


def expected_bias(estimator_id: str, design, truth: GaussMarkovTruth,
                  tol: RankTolerance | None = None) -> float:
    """Exact additive bias ``E[sigma2_hat] - sigma^2`` for a given truth.

    ``design`` is the unsplit matrix or a :class:`DesignPartition` for
    ``full`` and a :class:`DesignPartition` for the other three;
    ``truth.beta`` is ordered W-block first, then T-block.
    """
    op, x = _operator(estimator_id, design, tol)
    return op.expected_bias(truth.mean_response(x))
