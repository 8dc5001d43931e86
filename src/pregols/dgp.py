"""Seedable generators for covariates and the treatment experiment.

Reproducibility contract: a 64-bit root seed plus a stream index fully
determine every draw.  Stream seeds are derived with one documented mixing
function (SplitMix64 applied to ``root + k * GOLDEN``), each stream drives an
independent PCG64 generator, and Gaussians are produced in exactly one place
by inverse-CDF transform of 53-bit uniforms — no reliance on the default
normal algorithm, so streams are stable across platforms for a fixed
generator version.

Three covariate models, each a :class:`CovariateConfig` drawn at an n x q
shape given per draw (q >= n), with full row rank:

* ``standard_normal`` — i.i.d. unit Gaussians;
* ``spiked`` — ``W = U Sigma^{1/2}`` with Haar-like orthonormal rows ``U`` and
  ``Sigma = sigma_x^2 (I + sum_l lambda_l v_l v_l^T)``: isotropic plus a few
  large random spikes.  The symmetric root ``Sigma^{1/2}`` is ``sigma_x I``
  plus a rank-r term (r = min(q, k)) from an SVD of the q x k spikes, and
  the draw applies it to ``U`` as that update: no q x q matrix is formed;
* ``geometric`` — a random matrix whose singular values are exactly
  ``lambda * rho^{l/2}``, synthesized as an SVD with Haar-like factors.

:func:`gen_covariates` returns each draw as its thin
:class:`~pregols.linalg.Svd`.  The spiked and geometric draws are born
factored: the geometric synthesis gives its left factor and singular
values, and a spiked ``W`` has ``W W^T = sigma_x^2 (I_n + K E^2 K^T)`` with
``K = U_h C`` (n x r, ``U_h`` the Haar-like rows, ``C`` the orthonormal
spike directions) and ``E`` the spike strengths, so the full SVD of the
n x r ``K E`` gives the left factor and the singular values.  No SVD of
``W`` is taken for them; the standard normal model, which has no such
structure, factors ``W`` once.  Their Haar-like rows ``U_h = Q^T``, for a
q x n Gaussian ``g = Q R``, stay the n Householder reflectors of the QR
(Golub & Van Loan 5.2), applied to k columns in O(q n k) by one LAPACK
``dormqr`` call: a spiked draw's to ``[C | 1]`` for ``K`` and ``U_h 1``, a
geometric draw's right factor to ``1``.  So a draw keeps ``W 1`` as
``.ones``, and ``W`` (``.a``) and ``V^T = S^{-1} U^T W`` (``.vt``) are
formed only if something reads them; a simulate trial never does.
"""

from __future__ import annotations

import logging
from dataclasses import KW_ONLY, dataclass

import numpy as np

from .exceptions import InvalidInputError, RankAssumptionError
from .linalg import RankTolerance, Svd, _householder_qt, _readonly, as_choice, as_int, as_real
from .linalg import is_int, is_real

__all__ = [
    "Seed",
    "splitmix64",
    "standard_normal",
    "orthonormal_rows",
    "CovariateConfig",
    "COVARIATE_MODELS",
    "gen_covariates",
    "gen_ate_design",
    "gen_ate_dataset",
]

logger = logging.getLogger(__name__)

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MAX_REJECTIONS = 100
_TOP_UNIFORM = 1.0 - 2.0**-53

#: The :class:`CovariateConfig` parameters each model reads; it ignores the others.
_MODEL_PARAMS = {
    "standard_normal": (),
    "spiked": ("sigma_x", "k_spikes", "lambda_range"),
    "geometric": ("lambda_geo", "rho"),
}
COVARIATE_MODELS = tuple(_MODEL_PARAMS)


def splitmix64(z: int) -> int:
    """One round of the SplitMix64 finalizer (a 64-bit bijection)."""
    z = (as_int(z, "splitmix64 input") + _GOLDEN) & _MASK64
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
        root = as_int(self.root, "seed root")
        if not 0 <= root <= _MASK64:
            raise InvalidInputError("seed root must be an unsigned 64-bit integer")
        object.__setattr__(self, "root", root)

    def stream_seed(self, k: int) -> int:
        if (k := as_int(k, "stream index")) < 0:
            raise InvalidInputError("stream index must be nonnegative")
        return splitmix64((self.root + k * _GOLDEN) & _MASK64)

    def rng(self, k: int) -> np.random.Generator:
        """Independent generator for stream ``k``."""
        return np.random.Generator(np.random.PCG64(self.stream_seed(k)))


def standard_normal(rng: np.random.Generator,
                    size: int | tuple[int, ...] | None = None) -> np.ndarray | float:
    """Standard normals via inverse CDF of 53-bit uniforms.

    The one pinned Gaussian transform for the whole package: uniforms are
    ``(j + 0.5) / 2^53`` for a 53-bit integer ``j``, mapped through the
    normal quantile function.  ``Generator.random`` is ``j 2^-53`` for the
    same ``j`` that ``integers(0, 2^53)`` draws from the same 64-bit output,
    so ``random() + 2^-54`` is that uniform bit for bit (it rounds exactly
    like ``j + 0.5``) and consumes the stream identically.  The top ``j``
    rounds up to 1, where the quantile is infinite, so it is clamped to
    ``1 - 2^-53``: every uniform lies strictly inside (0, 1).

    ``ndtri`` is imported here, not with the module: importing
    ``scipy.special`` takes about 0.1 s, and only the generators and
    ``simulate`` draw Gaussians, so the one-shot ``fit``, ``loo``,
    ``cochran`` and ``variance`` commands never load scipy.  An array draw
    is transformed in place, one buffer per call: each temporary a simulate
    trial frees can push the top of the heap past glibc's trim threshold
    (128 KB unless an early large free raised it, as importing scipy with
    the package did), and trimmed pages fault back in on the next trial.

    ``size`` is ``None``, a nonnegative integer or a tuple of them; any
    other raises :class:`InvalidInputError` before the stream is read.
    """
    from scipy.special import ndtri

    dims = () if size is None else size if isinstance(size, tuple) else (size,)
    if not all(is_int(k) and k >= 0 for k in dims):
        raise InvalidInputError(
            f"size must be None, a nonnegative integer or a tuple of them, got {size!r}"
        )
    if size is None:
        return float(ndtri(min(rng.random() + 2.0**-54, _TOP_UNIFORM)))
    u = rng.random(size)
    u += 2.0**-54
    np.minimum(u, _TOP_UNIFORM, out=u)
    ndtri(u, out=u)
    return u if u.ndim else u[()]


def orthonormal_rows(n: int, q: int, rng: np.random.Generator) -> np.ndarray:
    """Random n x q matrix with orthonormal rows (Haar-like).

    ``Q^T`` for a q x n standard Gaussian ``g = Q R`` with ``diag(R) >= 0``
    (so rotation invariant): the explicit form of the rows a covariate draw
    keeps in Householder form (module docstring).
    """
    _check_shape(n, q)
    if n > q:
        raise InvalidInputError(f"orthonormal rows require n <= q, got {n} > {q}")
    return _householder_qt(standard_normal(rng, (q, n)))()


def _check_shape(n, q) -> None:
    if not (is_int(n) and is_int(q)):
        raise InvalidInputError(f"n and q must be integers, got n={n!r}, q={q!r}")


@dataclass(frozen=True)
class CovariateConfig:
    """Declarative covariate model: which process and its parameters, not the shape.

    ``sigma_x``, ``k_spikes``, ``lambda_range`` apply to the spiked model;
    ``lambda_geo``, ``rho`` to the geometric model; all are keyword-only.
    Defaults match the simulation studies (five spikes with strengths
    uniform on [10, 20], geometric decay 0.95).  The n x q shape is chosen
    per draw (:func:`gen_covariates`), so one checked model serves a whole
    grid of shapes.
    """

    model: str
    _: KW_ONLY
    sigma_x: float = 1.0
    k_spikes: int = 5
    lambda_range: tuple[float, float] = (10.0, 20.0)
    lambda_geo: float = 1.0
    rho: float = 0.95

    def __post_init__(self) -> None:
        as_choice(self.model, COVARIATE_MODELS, "covariate model")
        lam = self.lambda_range
        if not (isinstance(lam, (tuple, list)) and len(lam) == 2 and all(map(is_real, lam))):
            raise InvalidInputError(f"lambda_range must be a pair of real numbers, got {lam!r}")
        object.__setattr__(self, "lambda_range", tuple(as_real(v, "lambda_range") for v in lam))
        for name in ("sigma_x", "lambda_geo", "rho"):
            as_real(getattr(self, name), name)
        if not 0.0 < self.sigma_x < np.inf:
            raise InvalidInputError("sigma_x must be positive and finite")
        if not is_int(self.k_spikes) or self.k_spikes < 0:
            raise InvalidInputError("k_spikes must be a nonnegative integer")
        lo, hi = self.lambda_range
        if not (0.0 <= lo <= hi < np.inf):
            raise InvalidInputError("lambda_range must be ordered, nonnegative and finite")
        if not 0.0 < self.rho < 1.0:
            raise InvalidInputError("rho must lie strictly inside (0, 1)")
        if not 0.0 < self.lambda_geo < np.inf:
            raise InvalidInputError("lambda_geo must be positive and finite")


_ATE_COVARIATES = CovariateConfig("spiked")  # the model gen_ate_design draws from


def _spiked_covariance(cfg: CovariateConfig, q: int, rng: np.random.Generator):
    """``(C, e)``: the orthonormal spike directions in q-space and their strengths.

    The thin SVD ``V Lambda^{1/2} = C diag(e) Z^T`` (q x k, ``C`` q x r,
    r = min(q, k)) gives ``V Lambda V^T = C diag(e^2) C^T``, so
    ``Sigma = sigma_x^2 (I + C (diag(A) - I) C^T)`` with ``A = 1 + e^2``
    (all >= 1) and its unique symmetric root is
    ``sigma_x (I + C (diag(A)^{1/2} - I) C^T)``: one SVD and O(q k^2)
    work.  The root itself is never formed (:func:`_draw_covariates`
    applies it as a rank-r update).
    """
    lo, hi = cfg.lambda_range
    k = cfg.k_spikes
    lams = lo + (hi - lo) * rng.random(k)
    v = standard_normal(rng, (q, k))
    v = v / np.linalg.norm(v, axis=0)
    c, e, _ = np.linalg.svd(v * np.sqrt(lams), full_matrices=False)
    if not np.all(1.0 + e**2 > 0.0):  # A = 1 + e^2; a NaN strength fails too
        raise RankAssumptionError("spiked covariance is not positive definite")
    return c, e


def _spiked_left_factors(k: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(U, d)`` with ``I_n + K diag(e^2) K^T = U diag(d) U^T``, ``d`` descending.

    The full SVD ``K diag(e) = U diag(s) Z^T`` gives the complete n x n
    ``U`` with ``s`` already descending, so ``d = 1 + s^2`` followed by
    ``n - r`` ones when the n x r ``K`` has r < n columns.
    """
    u, s, _ = np.linalg.svd(k * e)
    return u, np.concatenate([1.0 + s**2, np.ones(k.shape[0] - s.size)])


class _Draw(Svd):
    """A covariate draw's thin SVD and its row sums ``ones = W 1``, read-only."""

    __slots__ = ("ones",)


def _draw_covariates(cfg: CovariateConfig, n: int, q: int, rng: np.random.Generator) -> _Draw:
    """One n x q covariate draw as its thin SVD; built, not computed, for spiked and geometric."""
    sx = cfg.sigma_x
    if cfg.model == "standard_normal":
        f = _Draw(standard_normal(rng, (n, q)))
        f.ones = _readonly(f.a @ np.ones(q))
        return f
    if cfg.model == "spiked":
        # W = U_h Sigma^{1/2} = sigma_x (U_h + (K (A^{1/2} - 1)) C^T) with K = U_h C
        # and A = 1 + e^2, no q x q root formed; W W^T = sigma_x^2 (I_n + K E^2 K^T)
        # with E = diag(e), and V^T = S^{-1} U^T W is left to Svd.vt
        c, e = _spiked_covariance(cfg, q, rng)
        uh = _householder_qt(standard_normal(rng, (q, n)))  # x -> U_h x
        c1 = np.ones((q, c.shape[1] + 1))
        c1[:, :-1] = c
        kc = uh(c1)  # [K | U_h 1]
        k, root = kc[:, :-1], np.sqrt(1.0 + e**2) - 1.0
        u, d = _spiked_left_factors(k, e)
        f = _Draw.from_factors(((n, q), lambda: sx * ((k * root) @ c.T + uh())),
                               u, sx * np.sqrt(d))
        f.ones = _readonly(sx * (kc[:, -1] + k @ (root * c.sum(axis=0))))
        return f
    # geometric: exact SVD synthesis, so the top-n singular values are
    # lambda * rho^{l/2} by construction rather than approximately.
    svals = cfg.lambda_geo * cfg.rho ** (np.arange(1, n + 1) / 2.0)
    left = orthonormal_rows(n, n, rng)
    right = _householder_qt(standard_normal(rng, (q, n)))
    f = _Draw.from_factors(((n, q), lambda: (left * svals) @ right()), left, svals)
    f.ones = _readonly((left * svals) @ right(np.ones((q, 1)))[:, 0])
    return f


def gen_covariates(cfg: CovariateConfig, n: int, q: int, rng: np.random.Generator,
                   tol: RankTolerance | None = None) -> Svd:
    """One n x q draw of ``cfg`` as its thin SVD, resampling on (vanishingly rare) rank failure.

    ``n`` and ``q`` must be integers with ``1 <= n <= q``.  The spiked and
    geometric models build the factors with the draw and the standard normal
    model factors ``W`` once; the rank check reads the singular values under
    ``tol`` (``None`` means ``RankTolerance()``), so a looser cutoff resamples
    draws that the default would keep.  The
    returned :class:`~pregols.linalg.Svd` keeps ``W`` as ``.a`` and its row
    sums ``W 1`` as ``.ones``, all read-only, and can be handed to
    :class:`~pregols.interpolators.DesignPartition`, which then does not
    factor ``W`` again.
    """
    _check_shape(n, q)
    if not 1 <= n <= q:
        raise InvalidInputError(
            f"need 1 <= n <= q for a wide full-row-rank design, got n={n}, q={q}"
        )
    for attempt in range(_MAX_REJECTIONS):
        f = _draw_covariates(cfg, n, q, rng)
        if f.rank(tol) == n:
            if attempt:
                logger.warning(
                    "resampled covariates %d time(s) after rank failures", attempt
                )
            return f
    raise RankAssumptionError(
        f"covariate model {cfg.model!r} failed the full-row-rank check "
        f"{_MAX_REJECTIONS} times in a row"
    )


def gen_ate_design(n: int, q: int, rng: np.random.Generator,
                   tol: RankTolerance | None = None) -> tuple[Svd, np.ndarray]:
    """Spiked covariates, as their kept thin SVD, plus a fair-coin treatment vector.

    The covariates' rank is decided under ``tol`` (:func:`gen_covariates`).
    A constant treatment would make ``[D, 1]`` rank one, so constant draws
    are rejected and redrawn.
    """
    _check_shape(n, q)
    if not 1 <= n < q:
        raise InvalidInputError(f"need 1 <= n < q, got n={n}, q={q}")
    w = gen_covariates(_ATE_COVARIATES, n, q, rng, tol)
    for _ in range(_MAX_REJECTIONS):
        d = (rng.random(n) < 0.5).astype(np.float64)
        if 0.0 < d.mean() < 1.0:
            return w, d
    raise RankAssumptionError(
        f"treatment vector was constant {_MAX_REJECTIONS} times in a row"
    )


def gen_ate_dataset(
    n: int, q: int, tau: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One draw of the treatment-effect experiment.

    Covariates are spiked, the treatment is a fair coin, and the response is
    ``W alpha + tau D + 1 + eps`` with ``alpha = p^{-1/2} 1`` for
    ``p = q + 2`` (covariates + treatment + intercept) and unit-variance
    noise.
    """
    if not np.isfinite(tau := as_real(tau, "tau")):
        raise InvalidInputError("tau must be finite")
    w_svd, d = gen_ate_design(n, q, rng)
    w = w_svd.a.copy()  # the draw's W is read-only; the dataset is the caller's to write
    p = q + 2
    alpha = np.full(q, p ** -0.5)
    y = w @ alpha + tau * d + 1.0 + standard_normal(rng, n)
    return w, d, y
