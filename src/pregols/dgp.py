"""Seedable generators for covariates, responses, and the treatment experiment.

Reproducibility contract: a 64-bit root seed plus a stream index fully
determine every draw.  Stream seeds are derived with one documented mixing
function (SplitMix64 applied to ``root + k * GOLDEN``), each stream drives an
independent PCG64 generator, and Gaussians are produced in exactly one place
by inverse-CDF transform of 53-bit uniforms — no reliance on the default
normal algorithm, so streams are stable across platforms for a fixed
generator version.

Three covariate models, all n x q with q >= n and full row rank:

* ``standard_normal`` — i.i.d. unit Gaussians;
* ``spiked`` — ``W = U Sigma^{1/2}`` with Haar-like orthonormal rows ``U`` and
  ``Sigma = sigma_x^2 (I + sum_l lambda_l v_l v_l^T)``: isotropic plus a few
  large random spikes.  The symmetric root ``Sigma^{1/2}`` is built from the
  r x r spike block (r = min(q, k)), never from a q x q eigendecomposition;
* ``geometric`` — a random matrix whose singular values are exactly
  ``lambda * rho^{l/2}``, synthesized as an SVD with Haar-like factors.

:func:`gen_covariates` returns each draw as its thin
:class:`~pregols.linalg.Svd`.  The spiked and geometric draws are born
factored: the geometric synthesis is its SVD, and a spiked ``W`` has
``W W^T = sigma_x^2 (I_n + K E K^T)`` with ``K = U_h C`` (n x r, ``U_h``
the Haar-like rows, ``C`` the orthonormal spike directions) and ``E >= 0``,
so a complete QR of ``K`` and an r x r eigenproblem give the left factor
and the singular values, and ``V^T = S^{-1} U^T W`` is one product.  No
SVD of ``W`` is taken for them; the standard normal model, which has no
such structure, factors ``W`` once.
"""

from __future__ import annotations

import logging
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .exceptions import InvalidInputError, RankAssumptionError
from .linalg import RankTolerance, Svd, as_matrix, as_vector

__all__ = [
    "Seed",
    "splitmix64",
    "standard_normal",
    "orthonormal_rows",
    "CovariateConfig",
    "COVARIATE_MODELS",
    "gen_covariates",
    "gen_response",
    "gen_ate_design",
    "gen_ate_dataset",
]

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MAX_REJECTIONS = 100

COVARIATE_MODELS = ("standard_normal", "spiked", "geometric")


def splitmix64(z: int) -> int:
    """One round of the SplitMix64 finalizer (a 64-bit bijection)."""
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


@dataclass(frozen=True)
class Seed:
    """Root seed with a fixed stream-derivation rule.

    Stream ``k`` seeds a PCG64 generator with
    ``splitmix64(root + k * GOLDEN mod 2^64)``; distinct k always yield
    distinct seeds because the multiplier is odd and SplitMix64 is a
    bijection.
    """

    root: int

    def __post_init__(self) -> None:
        root = self.root
        if isinstance(root, bool) or not isinstance(root, numbers.Integral):
            raise InvalidInputError(f"seed root must be an integer, got {root!r}")
        if not 0 <= root <= _MASK64:
            raise InvalidInputError("seed root must be an unsigned 64-bit integer")
        object.__setattr__(self, "root", int(root))

    def stream_seed(self, k: int) -> int:
        if k < 0:
            raise InvalidInputError("stream index must be nonnegative")
        return splitmix64((self.root + k * _GOLDEN) & _MASK64)

    def rng(self, k: int) -> np.random.Generator:
        """Independent generator for stream ``k``."""
        return np.random.Generator(np.random.PCG64(self.stream_seed(k)))


def standard_normal(rng: np.random.Generator, size=None) -> np.ndarray | float:
    """Standard normals via inverse CDF of 53-bit uniforms.

    The one pinned Gaussian transform for the whole package: uniforms are
    ``(j + 0.5) / 2^53`` for a 53-bit integer ``j``, strictly inside (0, 1),
    mapped through the normal quantile function.  ``Generator.random`` is
    ``j 2^-53`` for the same ``j`` that ``integers(0, 2^53)`` draws from the
    same 64-bit output, so ``random() + 2^-54`` is that uniform bit for bit
    (it rounds exactly like ``j + 0.5``) and consumes the stream identically.
    """
    out = ndtri(rng.random(size) + 2.0**-54)
    return float(out) if size is None else out


def orthonormal_rows(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x q matrix with orthonormal rows (Haar-like).

    Orthogonalizes a q x n standard Gaussian draw by QR (signs fixed so the
    distribution is rotation invariant) and transposes.
    """
    if n > q:
        raise InvalidInputError(f"orthonormal rows require n <= q, got {n} > {q}")
    g = standard_normal(rng, (q, n))
    qmat, rmat = np.linalg.qr(g)
    signs = np.sign(np.diag(rmat))
    signs[signs == 0.0] = 1.0
    return (qmat * signs).T


@dataclass(frozen=True)
class CovariateConfig:
    """Declarative covariate model: which process and its parameters.

    ``sigma_x``, ``k_spikes``, ``lambda_range`` apply to the spiked model;
    ``lambda_geo``, ``rho`` to the geometric model.  Defaults match the
    simulation studies (five spikes with strengths uniform on [10, 20],
    geometric decay 0.95).
    """

    model: str
    n: int
    q: int
    sigma_x: float = 1.0
    k_spikes: int = 5
    lambda_range: tuple[float, float] = (10.0, 20.0)
    lambda_geo: float = 1.0
    rho: float = 0.95

    def __post_init__(self) -> None:
        if self.model not in COVARIATE_MODELS:
            raise InvalidInputError(
                f"unknown covariate model {self.model!r}; choose from {COVARIATE_MODELS}"
            )
        if not (1 <= self.n <= self.q):
            raise InvalidInputError(
                f"need 1 <= n <= q for a wide full-row-rank design, got n={self.n}, q={self.q}"
            )
        if not 0.0 < self.sigma_x < np.inf:
            raise InvalidInputError("sigma_x must be positive and finite")
        k = self.k_spikes
        if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
            raise InvalidInputError("k_spikes must be a nonnegative integer")
        lo, hi = self.lambda_range
        if not (0.0 <= lo <= hi < np.inf):
            raise InvalidInputError("lambda_range must be ordered, nonnegative and finite")
        if not 0.0 < self.rho < 1.0:
            raise InvalidInputError("rho must lie strictly inside (0, 1)")
        if not 0.0 < self.lambda_geo < np.inf:
            raise InvalidInputError("lambda_geo must be positive and finite")


def _spiked_covariance(cfg: CovariateConfig, rng: np.random.Generator):
    """``(root, C, A)``: the root of the spiked covariance and its r x r spike block.

    With the thin QR ``V = B R`` (``B`` q x r orthonormal, r = min(q, k)),
    ``I + V Lambda V^T = (I - B B^T) + B (I_r + R Lambda R^T) B^T``.  ``A``
    holds the eigenvalues of ``I_r + R Lambda R^T`` (all >= 1) and
    ``C = B Z`` its eigenvectors, so ``C`` has orthonormal columns,
    ``Sigma = sigma_x^2 (I + C (diag(A) - I) C^T)`` and its unique symmetric
    root is ``sigma_x (I + C (diag(A)^{1/2} - I) C^T)``: an r x r
    eigenproblem and O(q k^2 + q^2 k) work, no q x q factorization.
    """
    lo, hi = cfg.lambda_range
    k = cfg.k_spikes
    root = np.eye(cfg.q)
    c, evals = np.zeros((cfg.q, 0)), np.zeros(0)
    if k > 0:
        lams = lo + (hi - lo) * rng.random(k)
        v = standard_normal(rng, (cfg.q, k))
        v = v / np.linalg.norm(v, axis=0)
        b, r = np.linalg.qr(v)
        evals, evecs = np.linalg.eigh(np.eye(b.shape[1]) + (r * lams) @ r.T)
        if np.any(evals <= 0.0):
            raise RankAssumptionError("spiked covariance is not positive definite")
        c = b @ evecs
        root += (c * (np.sqrt(evals) - 1.0)) @ c.T
    return cfg.sigma_x * root, c, evals


def _spiked_left_factors(k: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(U, d)`` with ``I_n + K diag(e) K^T = U diag(d) U^T``, ``d`` descending.

    For r < n columns of ``K``, the complete QR ``K = Q R`` and the r x r
    ``eigh`` of ``R_1 diag(e) R_1^T = Z Lambda Z^T`` give
    the block-diagonal product ``U = Q diag(Z, I_{n-r})`` and
    ``d = (1 + Lambda, 1, ..., 1)``; for r >= n the n x n matrix is
    factored directly.
    """
    n, r = k.shape
    if r >= n:
        d, u = np.linalg.eigh(np.eye(n) + (k * e) @ k.T)
        return u[:, ::-1], d[::-1]
    u, rk = np.linalg.qr(k, mode="complete")
    lam, z = np.linalg.eigh((rk[:r] * e) @ rk[:r].T)
    u[:, :r] = u[:, :r] @ z
    d = np.concatenate([1.0 + lam, np.ones(n - r)])
    order = np.argsort(-d, kind="stable")
    return u[:, order], d[order]


def _draw_covariates(cfg: CovariateConfig, rng: np.random.Generator) -> Svd:
    """One covariate draw as its thin SVD; built, not computed, for spiked and geometric."""
    if cfg.model == "standard_normal":
        return Svd(standard_normal(rng, (cfg.n, cfg.q)))
    if cfg.model == "spiked":
        # W = U_h Sigma^{1/2} and W W^T = sigma_x^2 (I_n + K E K^T) with
        # K = U_h C and E = diag(A) - I >= 0; then V^T = S^{-1} U^T W
        root, c, evals = _spiked_covariance(cfg, rng)
        uh = orthonormal_rows(cfg.n, cfg.q, rng)
        w = uh @ root
        u, d = _spiked_left_factors(uh @ c, evals - 1.0)
        s = cfg.sigma_x * np.sqrt(d)
        return Svd.from_factors(w, u, s, (u.T @ w) / s[:, None])
    # geometric: exact SVD synthesis, so the top-n singular values are
    # lambda * rho^{l/2} by construction rather than approximately.
    svals = cfg.lambda_geo * cfg.rho ** (np.arange(1, cfg.n + 1) / 2.0)
    left = orthonormal_rows(cfg.n, cfg.n, rng)
    right = orthonormal_rows(cfg.n, cfg.q, rng)
    return Svd.from_factors((left * svals) @ right, left, svals, right)


def gen_covariates(
    cfg: CovariateConfig, rng: np.random.Generator, tol: RankTolerance | None = None
) -> Svd:
    """Draw one covariate matrix as its thin SVD, resampling on (vanishingly rare) rank failure.

    The spiked and geometric models build the factors with the draw and
    the standard normal model factors ``W`` once; the rank check reads the
    singular values.  The returned :class:`~pregols.linalg.Svd` keeps ``W``
    as ``.a`` and can be handed to
    :class:`~pregols.interpolators.DesignPartition`, which then does not
    factor ``W`` again.
    """
    for attempt in range(_MAX_REJECTIONS):
        f = _draw_covariates(cfg, rng)
        if f.rank(tol) == cfg.n:
            if attempt:
                logger.warning(
                    "resampled covariates %d time(s) after rank failures", attempt
                )
            return f
    raise RankAssumptionError(
        f"covariate model {cfg.model!r} failed the full-row-rank check "
        f"{_MAX_REJECTIONS} times in a row"
    )


def gen_response(
    w, beta1, beta0: float, sigma: float, rng: np.random.Generator
) -> np.ndarray:
    """Linear response with intercept and homoskedastic Gaussian noise."""
    w = as_matrix(w, "w")
    beta1 = as_vector(beta1, "beta1")
    if beta1.size != w.shape[1]:
        raise InvalidInputError(
            f"beta1 has length {beta1.size}, expected {w.shape[1]}"
        )
    if not 0.0 <= sigma < np.inf:
        raise InvalidInputError("sigma must be nonnegative and finite")
    if not np.isfinite(beta0):
        raise InvalidInputError("beta0 must be finite")
    n = w.shape[0]
    y = w @ beta1 + float(beta0)
    if sigma > 0.0:
        y = y + sigma * standard_normal(rng, n)
    return y


def gen_ate_design(
    n: int, q: int, rng: np.random.Generator, tol: RankTolerance | None = None
) -> tuple[Svd, np.ndarray]:
    """Spiked covariates, as their kept thin SVD, plus a fair-coin treatment vector.

    A constant treatment would make ``[D, 1]`` rank one, so constant draws
    are rejected and redrawn.
    """
    if not 1 <= n < q:
        raise InvalidInputError(f"need 1 <= n < q, got n={n}, q={q}")
    cfg = CovariateConfig(model="spiked", n=n, q=q)
    w = gen_covariates(cfg, rng, tol)
    for _ in range(_MAX_REJECTIONS):
        d = (rng.random(n) < 0.5).astype(np.float64)
        if 0.0 < d.mean() < 1.0:
            return w, d
    raise RankAssumptionError(
        f"treatment vector was constant {_MAX_REJECTIONS} times in a row"
    )


def gen_ate_dataset(
    n: int,
    q: int,
    tau: float,
    rng: np.random.Generator,
    tol: RankTolerance | None = None,
    noise_sd: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One draw of the treatment-effect experiment.

    Covariates are spiked, the treatment is a fair coin, and the response is
    ``W alpha + tau D + 1 + eps`` with ``alpha = p^{-1/2} 1`` for
    ``p = q + 2`` (covariates + treatment + intercept) and unit-variance
    noise.  ``noise_sd`` exists as a test hook for the noise-free path.
    """
    if not 0.0 <= noise_sd < np.inf:
        raise InvalidInputError("noise_sd must be nonnegative and finite")
    if not np.isfinite(tau):
        raise InvalidInputError("tau must be finite")
    w_svd, d = gen_ate_design(n, q, rng, tol)
    w = w_svd.a
    p = q + 2
    alpha = np.full(q, p ** -0.5)
    y = w @ alpha + float(tau) * d + 1.0
    if noise_sd > 0.0:
        y = y + noise_sd * standard_normal(rng, n)
    return w, d, y
