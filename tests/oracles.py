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
    """``(lambda, tau)`` of the split-design fit with row ``i`` deleted, via numpy lstsq.

    ``tau = (W^+ T)^+ W^+ y`` and ``lambda = W^+ (y - T tau)`` on the design
    with row ``i`` deleted, each a full-rank least-squares solve.
    """
    w, t, y = (np.asarray(a, dtype=float) for a in (w, t, y))
    keep = np.arange(y.size) != i
    wp_ty = np.linalg.lstsq(w[keep], np.column_stack([t[keep], y[keep]]), rcond=None)[0]
    tau = np.linalg.lstsq(wp_ty[:, :-1], wp_ty[:, -1], rcond=None)[0]
    lam = np.linalg.lstsq(w[keep], y[keep] - t[keep] @ tau, rcond=None)[0]
    return lam, tau


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


def strong_direction_split(cond, seed, n=12, q=24):
    """``(W, T, y)``: a :func:`weak_constant_direction_w` of condition ``cond``,
    a two-column ``T`` in the span of its two strongest left singular
    vectors and a standard normal ``y``, all drawn from ``default_rng(seed)``.

    Well posed at any ``cond`` the rank check accepts, yet every fit through
    ``W`` reproduces ``y`` only to about ``cond(W) eps``.
    """
    rng = np.random.default_rng(seed)
    w, u = weak_constant_direction_w(cond, rng, n=n, q=q)
    t = u[:, :2] @ rng.standard_normal((2, 2))
    return w, t, rng.standard_normal(n)


def spiked_root_eigh(cfg, q, rng):
    """Spiked-covariance root of the model ``cfg`` by a full q x q eigendecomposition.

    Draws the spike strengths and directions from ``rng`` in the library's
    order (``pregols.dgp.standard_normal`` is looked up at call time, so a
    patched generator reaches both), forms the dense covariance
    ``sigma_x^2 (I + V Lambda V^T)`` and returns ``E diag(sqrt(d)) E^T``.
    """
    from pregols import dgp

    k = cfg.k_spikes
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
    with a 53-bit integer draw and an explicit half-step offset.  The top
    ``j = 2^53 - 1`` rounds to 1, so it is held at ``1 - 2^-53``, the
    largest double below 1, by the same rule.
    """
    j = rng.integers(0, 1 << 53, size=size)
    u = np.minimum((np.asarray(j, dtype=np.float64) + 0.5) / float(1 << 53), 1.0 - 2.0**-53)
    out = ndtri(u)
    return float(out) if size is None else out


def projector(f, tol=None):
    """``P = U_r U_r^T``, the orthogonal projection onto the column space of ``f.a``.

    ``f`` is a ``pregols.linalg.Svd``; ``U_r`` is its left factor kept under
    ``tol``.  The oracle of the ``w`` estimator's m x n map ``U_T^T``, as
    ``||P_T y|| = ||U_T^T y||``.
    """
    u = f.kept(tol)[0]
    return u @ u.T


def nullspace_component(m, v, tol=None):
    """Project ``v`` (vector or matrix of columns) onto the null space of ``m``.

    Samples non-canonical members of a least-squares solution set: adding
    any null-space vector to a solution keeps it a solution.  The
    pseudoinverse is ``pregols.linalg.Svd(m).pinv(tol)``.
    """
    from pregols.linalg import Svd

    a = np.asarray(m, dtype=float)
    w = np.asarray(v, dtype=float)
    return w - Svd(a).pinv(tol) @ (a @ w)


def wc_normalizers(d):
    """Both candidate normalizers for ``wc``: (projected-space, sample-space).

    The first is ``tr(P_B^perp (W^T W)^+) = ||F||_F^2``, the denominator of
    ``pregols.wc_operator``; the second is ``tr(P_T^perp G_W) = ||P_T^perp L||_F^2``
    with ``L = U S^{-1}`` the partition's ``ell`` and ``P_T`` from the kept
    SVD of ``T``.  They differ in general.  Both stay in n-space: no ``W^+``, q x q
    projector or ``(W^T W)^+`` is formed, so neither loses ``cond(W)^2 eps``.
    """
    from pregols import wc_operator

    ell, ut = d.ell, d.t_svd.u
    rest = ell - ut @ (ut.T @ ell)  # P_T^perp L
    return wc_operator(d).denominator, float(np.sum(rest * rest))


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


def gram_downdate_mp(x, i, dps=60):
    """``X_d^T (X_d X_d^T)^{-2} X_d`` for ``X`` with row ``i`` deleted, in
    ``dps``-digit mpmath arithmetic from the float64 entries, rounded once:
    the oracle for ``gram_downdate``, free of any ``cond(X)`` loss at the
    conditions the tests use.
    """
    import mpmath

    with mpmath.workdps(dps):
        xd = mpmath.matrix(np.delete(np.asarray(x, dtype=float), i, axis=0).tolist())
        a = (xd * xd.T) ** -1 * xd
        return np.array((a.T * a).tolist(), dtype=float)
