"""Independent oracles used to validate the closed forms.

Deliberately avoid the library's SVD/pseudoinverse pathway: the ridge oracle
solves penalized normal equations by LU factorization, and the rank oracle
runs Gaussian elimination with partial pivoting.  Agreement between these and
the package is evidence, not circularity.
"""

from fractions import Fraction

import numpy as np
from scipy.special import ndtri


def ridge_solve(w, t, y, penalty):
    """Penalized least squares with the penalty applied only to the w block.

    Solves the (q+m) x (q+m) normal-equation system

        [W'W + penalty*I  W'T] [lam]   [W'y]
        [T'W              T'T] [tau] = [T'y]

    which is strictly convex for penalty > 0 when T has full column rank.
    As the penalty tends to zero the solution tends to the partially
    regularized interpolator.
    """
    w = np.asarray(w, dtype=float)
    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)
    q, m = w.shape[1], t.shape[1]
    a = np.empty((q + m, q + m))
    a[:q, :q] = w.T @ w + penalty * np.eye(q)
    a[:q, q:] = w.T @ t
    a[q:, :q] = t.T @ w
    a[q:, q:] = t.T @ t
    b = np.concatenate([w.T @ y, t.T @ y])
    sol = np.linalg.solve(a, b)
    return sol[:q], sol[q:]


def elimination_rank(m, tol=1e-10):
    """Matrix rank by Gaussian elimination with partial pivoting."""
    a = np.array(m, dtype=float)
    rows, cols = a.shape
    rank = 0
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 0.0)
    for col in range(cols):
        if rank == rows:
            break
        pivot_row = rank + int(np.argmax(np.abs(a[rank:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) <= tol * scale:
            continue
        a[[rank, pivot_row]] = a[[pivot_row, rank]]
        a[rank] = a[rank] / a[rank, col]
        for r in range(rows):
            if r != rank:
                a[r] = a[r] - a[r, col] * a[rank]
        rank += 1
    return rank


def min_norm_refit_full(x, y, i):
    """Smallest-norm interpolator with row i deleted, via numpy lstsq."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mask = np.ones(x.shape[0], dtype=bool)
    mask[i] = False
    beta, *_ = np.linalg.lstsq(x[mask], y[mask], rcond=None)
    return beta


def min_norm_refit_partial(w, t, y, i):
    """Leave-one-out residual of the split-design fit, refit via numpy lstsq.

    ``tau = (W^+ T)^+ W^+ y`` and ``lambda = W^+ (y - T tau)`` on the design
    with row ``i`` deleted, each a full-rank least-squares solve.
    """
    w, t, y = (np.asarray(a, dtype=float) for a in (w, t, y))
    keep = np.arange(y.size) != i
    wp_ty = np.linalg.lstsq(w[keep], np.column_stack([t[keep], y[keep]]), rcond=None)[0]
    tau = np.linalg.lstsq(wp_ty[:, :-1], wp_ty[:, -1], rcond=None)[0]
    lam = np.linalg.lstsq(w[keep], y[keep] - t[keep] @ tau, rcond=None)[0]
    return float(y[i] - w[i] @ lam - t[i] @ tau)


def partial_blocks_projected(w, t, rhs):
    """``((P W)^+ P rhs, (W^+ T)^+ W^+ rhs)``: the split fit in its defining form.

    ``P`` projects onto the orthogonal complement of colsp(T); ``rhs`` may
    be a vector or a matrix of columns.  ``P W`` has rank exactly n - m
    (``W`` has full row rank), so its pseudoinverse keeps n - m singular
    triplets rather than applying a cutoff relative to ``||P W||``.  numpy's
    SVD and ``pinv`` throughout.
    """
    w, t, rhs = (np.asarray(a, dtype=float) for a in (w, t, rhs))
    n, m = t.shape
    q_t = np.linalg.qr(t)[0]
    p = np.eye(n) - q_t @ q_t.T
    u, s, vt = np.linalg.svd(p @ w, full_matrices=False)
    lam = (vt[: n - m].T / s[: n - m]) @ (u[:, : n - m].T @ (p @ rhs))
    wp = np.linalg.pinv(w)
    tau = np.linalg.pinv(wp @ t) @ (wp @ rhs)
    return lam, tau


def loo_projector(w, i):
    """``(P, Q, W~_i, g_ii)``: the leave-one-out projector pair for row ``i``.

    ``P = k k^T / g_ii`` with ``k = W^+ e_i`` projects onto span(W^+ e_i) in
    coefficient space; ``Q = e_i e_i^T G_W / g_ii`` is its sample-space
    companion (idempotent, not symmetric); ``W~_i = W^+ - k e_i^T G_W / g_ii``
    is the rank-one form of the deflated pseudoinverse ``(I - P) W^+``.
    ``W^+`` is ``np.linalg.pinv(W)`` and ``G_W`` is ``inv(W W^T)``.
    """
    w = np.asarray(w, dtype=float)
    wp = np.linalg.pinv(w)
    gw = np.linalg.inv(w @ w.T)
    gii = float(gw[i, i])
    k = wp[:, i]
    p = np.outer(k, k) / gii
    q_companion = np.zeros_like(gw)
    q_companion[i] = gw[i] / gii
    return p, q_companion, wp - np.outer(k, gw[i]) / gii, gii


def weak_constant_direction_w(cond, rng, n=10, q=20):
    """``(W, U)``: ``W = U diag(1, ..., 1, 1/cond) V^T`` (n x q) whose weakest
    left singular vector ``U[:, -1]`` is the constant vector +-1/sqrt(n).

    An intercept ``T`` then lies along the weakest direction of ``W`` while
    ``[W | T]`` stays well conditioned: the case where an update of ``G_W``
    cancels terms of size ``cond^2``.
    """
    u, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, n - 1))]))
    u = u[:, ::-1]
    v, _ = np.linalg.qr(rng.standard_normal((q, n)))
    s = np.ones(n)
    s[-1] = 1.0 / cond
    return (u * s) @ v.T, u


def spiked_root_eigh(cfg, rng):
    """Spiked-covariance root by a full q x q eigendecomposition.

    Draws the spike strengths and directions from ``rng`` in the library's
    order (``pregols.dgp.standard_normal`` is looked up at call time, so a
    patched generator reaches both), forms the dense covariance
    ``sigma_x^2 (I + V Lambda V^T)`` and returns ``E diag(sqrt(d)) E^T``.
    """
    from pregols import dgp

    q, k = cfg.q, cfg.k_spikes
    lo, hi = cfg.lambda_range
    sigma = cfg.sigma_x**2 * np.eye(q)
    if k > 0:
        lams = lo + (hi - lo) * rng.random(k)
        v = dgp.standard_normal(rng, (q, k))
        v = v / np.linalg.norm(v, axis=0)
        sigma += cfg.sigma_x**2 * (v * lams) @ v.T
    evals, evecs = np.linalg.eigh(sigma)
    return (evecs * np.sqrt(evals)) @ evecs.T


def standard_normal_from_integers(rng, size=None):
    """Standard normals from the uniforms ``(j + 0.5) / 2^53``, ``j = integers(0, 2^53)``.

    The formula ``pregols.dgp.standard_normal`` is pinned to, written out
    with a 53-bit integer draw and an explicit half-step offset.
    """
    j = rng.integers(0, 1 << 53, size=size)
    u = (np.asarray(j, dtype=np.float64) + 0.5) / float(1 << 53)
    out = ndtri(u)
    return float(out) if size is None else out


def dense_svd(w):
    """The factored route: ``pregols.linalg.Svd`` of ``w``, one LAPACK thin SVD.

    The oracle for covariates whose factors are built with the draw.
    """
    from pregols.linalg import Svd

    return Svd(np.asarray(w, dtype=float))


def _rational(a):
    return [[Fraction(float(x)) for x in row] for row in np.asarray(a, dtype=float)]


def _mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _inverse(a):
    """Exact inverse of a nonsingular rational matrix by Gauss-Jordan elimination."""
    k = len(a)
    aug = [row[:] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(a)]
    for col in range(k):
        piv = next(r for r in range(col, k) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(k):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[k:] for row in aug]


def split_qspace(w, t):
    """``(P_B^perp W^+, (W^+ T)^+ W^+)`` with ``B = W^+ T``: the q-space forms.

    The first is the ``wc`` residual map, the second the map from ``y`` to
    the split fit's ``tau``.  Both are evaluated exactly in rational
    arithmetic from the float64 entries of a full-row-rank ``w`` and a
    full-column-rank ``t`` (``W^+ = W^T (W W^T)^{-1}``,
    ``B^+ = (B^T B)^{-1} B^T``) and rounded once, so they carry no
    ``cond(W)`` loss of their own.
    """
    wr, tr = _rational(w), _rational(t)
    wp = _mul(_transpose(wr), _inverse(_mul(wr, _transpose(wr))))
    b = _mul(wp, tr)
    bt = _transpose(b)
    rows = _mul(_mul(_inverse(_mul(bt, b)), bt), wp)
    wc = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(wp, _mul(b, rows))]
    return np.array(wc, dtype=float), np.array(rows, dtype=float)


def full_gram_inverse_exact(x):
    """``(X X^T)^{-1}`` evaluated exactly in rational arithmetic and rounded once.

    ``X`` is taken at its float64 entries, so the result carries no
    ``cond(X)`` loss of its own: the oracle for
    ``DesignPartition.full_gram_inverse``.
    """
    xr = _rational(x)
    return np.array(_inverse(_mul(xr, _transpose(xr))), dtype=float)
