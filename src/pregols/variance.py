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
``w``        ``U_T^T`` (m x n), equal to ``P_T``, the projection onto
             colsp(T), up to a left isometry; normalizer rank(T)
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
verifies this.  The test oracles compute both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidInputError
from .interpolators import DesignPartition
from .linalg import _readonly, as_choice, as_matrix, as_real, as_vector, full_row_rank_svd
from .loo import PartialLooSolver, _loo_map

__all__ = [
    "ESTIMATOR_IDS",
    "GaussMarkovTruth",
    "VarianceReport",
    "ResidualOperator",
    "full_operator",
    "partial_operator",
    "w_operator",
    "wc_operator",
    "residual_operator",
    "sigma2",
    "expected_bias",
]

ESTIMATOR_IDS = ("full", "partial", "w", "wc")


@dataclass(frozen=True)
class GaussMarkovTruth:
    """Fixed-design truth: deterministic coefficients and noise variance.

    No output depends on ``sigma2``: the exact bias ``||R mu||^2 / ||R||_F^2``
    does not, so it is only checked to be positive and finite.
    """

    beta: np.ndarray
    sigma2: float

    def __post_init__(self) -> None:
        beta = as_vector(np.array(self.beta, dtype=float), "beta")
        object.__setattr__(self, "beta", _readonly(beta))
        if not 0.0 < as_real(self.sigma2, "sigma2") < np.inf:
            raise InvalidInputError("sigma2 must be positive and finite")

    def mean_response(self, design) -> np.ndarray:
        """``E[y] = X beta`` for the unsplit design ``X``, an array or a partition's ``[W | T]``.

        An ``X beta`` that overflows raises :class:`InvalidInputError`.
        """
        if isinstance(design, DesignPartition):
            design = design.stacked()
        design = as_matrix(design, "design")
        if design.shape[1] != self.beta.size:
            raise InvalidInputError(
                f"beta has length {self.beta.size}, design has {design.shape[1]} columns"
            )
        with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
            mu = design @ self.beta
        if not np.isfinite(mu).all():
            raise InvalidInputError("the truth's mean response X beta overflows")
        return mu


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

    :meth:`estimate_sum` applies ``R`` to a block of responses, one per row,
    with one matrix product and sums their estimates with one dot product,
    ``||Y R^T||_F^2 / denominator``, as the simulation harness reduces each
    block of draws.  :meth:`estimate` and :meth:`expected_bias` are its
    one-row case.  An estimate that overflows raises :class:`InvalidInputError`.
    """

    estimator_id: str
    matrix: np.ndarray
    denominator: float

    def estimate_sum(self, ys) -> float:
        """The sum of ``||R v||^2 / denominator`` over the rows ``v`` of the block ``ys``."""
        ys = as_matrix(ys, "ys")
        if ys.shape[1] != (n := self.matrix.shape[1]):
            raise InvalidInputError(f"rows of ys have length {ys.shape[1]}, expected {n}")
        r = (ys @ self.matrix.T).ravel()
        total = float(np.vdot(r, r)) / self.denominator  # r @ r, which would warn on overflow
        if not math.isfinite(total):
            raise InvalidInputError(
                f"the {self.estimator_id} estimate overflows: the responses are too large"
            )
        return total

    def _one_row(self, v, name: str) -> float:
        return self.estimate_sum(as_vector(v, name, self.matrix.shape[1])[None, :])

    def estimate(self, y) -> float:
        return self._one_row(y, "y")

    def expected_bias(self, mean_response) -> float:
        """Exact additive bias for a given ``E[y]``."""
        return self._one_row(mean_response, "mean_response")


def full_operator(x) -> ResidualOperator:
    """Leave-one-out residual map of the unsplit minimum-norm interpolator.

    For a full-row-rank ``X`` it is ``[diag(G_X)]^{-1} G_X``, and
    ``g_ii >= 1 / smax^2 > 0``.  For an array ``x`` the rank and ``G_X``
    come from one SVD of ``X`` under ``RankTolerance()``; for a
    :class:`DesignPartition` ``G_X`` comes from its kept factors under its
    own tolerance (:meth:`DesignPartition.full_gram_inverse`), with
    ``X = [W | T]`` never factored unless its rank certificate fails.
    """
    if isinstance(x, DesignPartition):
        gx = x.full_gram_inverse()
    else:
        gx = full_row_rank_svd(as_matrix(x, "x")).gram_inverse()
    return ResidualOperator("full", *_loo_map(gx))


def partial_operator(d: DesignPartition) -> ResidualOperator:
    """Leave-one-out residual map of the split-design interpolator."""
    solver = PartialLooSolver(d)
    return ResidualOperator("partial", solver.residual_matrix, solver.denominator)


def w_operator(d: DesignPartition) -> ResidualOperator:
    """In-sample residual map from the penalized-block formulation.

    Regressing ``y`` (not its projection) on the projected penalized block
    leaves the nontrivial residual ``P_T y``.  ``P_T = U_T U_T^T`` with
    ``U_T`` the kept left factor of ``T`` and ``||P_T y|| = ||U_T^T y||``,
    so the map is the m x n ``U_T^T``; the normalizer is rank(T), the ``m``
    the partition validated, which equals ``||P_T||_F^2`` exactly.
    With ``T`` a lone intercept column the bias is
    ``(sum_i w_i . beta_W + n beta_0)^2 / n``, which grows with the sample
    mean of the signal; expect it to dominate the other three.
    """
    return ResidualOperator("w", d.t_svd.u.T, float(d.m))


def wc_operator(d: DesignPartition) -> ResidualOperator:
    """In-sample residual map from the unpenalized-block formulation.

    The residual of regressing ``W^+ y`` on ``W^+ T`` is
    ``P_B^perp W^+ y = (V N) F^T y`` with ``B = W^+ T``; ``V N`` is an
    isometry, so the map is the (n - m) x n ``F^T`` (see module docstring).
    """
    r = d.split_factor().T
    return ResidualOperator("wc", r, float(np.sum(r * r)))


def residual_operator(estimator_id: str, design) -> ResidualOperator:
    """The residual operator of one estimator on a design.

    ``full`` takes the unsplit matrix or a :class:`DesignPartition`, whose
    ``[W | T]`` it maps from the kept factors; the other three take a
    :class:`DesignPartition` only.  Every operator of a partition is built
    under the tolerance it was validated with (``design.tol``), the rank of
    an unsplit matrix under ``RankTolerance()``.
    """
    as_choice(estimator_id, ESTIMATOR_IDS, "estimator")
    if not isinstance(design, DesignPartition):
        if estimator_id == "full":
            return full_operator(as_matrix(design, "design"))
        raise InvalidInputError(
            f"estimator {estimator_id!r} requires a DesignPartition"
        )
    if estimator_id == "full":
        return full_operator(design)
    if estimator_id == "partial":
        return partial_operator(design)
    return w_operator(design) if estimator_id == "w" else wc_operator(design)


def sigma2(estimator_id: str, design, y,
           truth: GaussMarkovTruth | None = None) -> VarianceReport:
    """One estimate ``||R y||^2 / ||R||_F^2``, with its exact bias when ``truth`` is given.

    ``design`` is as for :func:`residual_operator`.  Build the operator once
    (:func:`residual_operator`) to amortize the per-design work across many
    responses.
    """
    # the truth is checked before the operator is built, so a beta of the
    # wrong length is reported even on a design whose map fails a rank check
    mu = None if truth is None else truth.mean_response(design)
    op = residual_operator(estimator_id, design)
    bias = None if mu is None else op.expected_bias(mu)
    return VarianceReport(estimator_id, op.estimate(y), op.denominator, bias)


def expected_bias(estimator_id: str, design, truth: GaussMarkovTruth) -> float:
    """Exact additive bias ``E[sigma2_hat] - sigma^2`` for a given truth.

    ``design`` is as for :func:`residual_operator`; ``truth.beta`` is
    ordered W-block first, then T-block.
    """
    return residual_operator(estimator_id, design).expected_bias(truth.mean_response(design))
