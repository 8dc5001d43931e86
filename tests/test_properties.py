"""Property tests of the fits, the leave-one-out residuals and the four variance
estimators (hypothesis, derandomized)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pregols import (
    ESTIMATOR_IDS,
    PARTIAL_VARIANTS,
    DesignPartition,
    fit_partial_variant,
    loo_residuals_full,
    loo_residuals_partial,
    residual_operator,
)

_PROPERTY = settings(derandomize=True, deadline=None, max_examples=30, database=None)


def _partition(seed, n, q, m):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, q))
    t = np.ones((n, 1)) if m == 1 else rng.standard_normal((n, m))
    return DesignPartition(w, t)


_designs = st.builds(
    lambda seed, n, extra, m: _partition(seed, n, n + extra, m),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(3, 12),
    extra=st.integers(0, 10),
    m=st.integers(1, 2),
)


def _sigma2(d, y):
    return {est: residual_operator(est, d).estimate(y) for est in ESTIMATOR_IDS}


@_PROPERTY
@given(d=_designs, data=st.data())
def test_property_block_kernel_equals_per_row_quadratic_form(d, data):
    k = data.draw(st.integers(1, 12), label="draws")
    ys = data.draw(
        arrays(np.float64, (k, d.n), elements=st.floats(-1e3, 1e3, allow_subnormal=False)),
        label="ys",
    )
    for est in ESTIMATOR_IDS:
        op = residual_operator(est, d)
        rows = np.array([(op.matrix @ y) @ (op.matrix @ y) for y in ys]) / op.denominator
        # forward-error scale of a quadratic form: ||R||_F^2 ||y||^2 / denominator
        bound = 1e-13 * np.sum(op.matrix**2) * np.sum(ys**2, axis=1) / op.denominator
        got = op.estimates(ys)
        assert got.shape == (k,)
        assert np.all(np.abs(got - rows) <= bound), est
        singles = np.array([op.estimate(y) for y in ys])
        assert np.all(np.abs(singles - rows) <= bound), est


@_PROPERTY
@given(d=_designs, seed=st.integers(0, 2**32 - 1),
       c=st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3))
def test_property_quadratic_scaling(d, seed, c):
    y = np.random.default_rng(seed).standard_normal(d.n)
    base, scaled = _sigma2(d, y), _sigma2(d, c * y)
    for est in ESTIMATOR_IDS:
        assert scaled[est] == pytest.approx(c**2 * base[est], rel=1e-12), est


@_PROPERTY
@given(d=_designs, seed=st.integers(0, 2**32 - 1))
def test_property_rotation_of_w_leaves_estimates_unchanged(d, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d.q, d.q)))
    y = rng.standard_normal(d.n)
    base = _sigma2(d, y)
    rotated = _sigma2(DesignPartition(d.w @ q, d.t), y)
    for est in ESTIMATOR_IDS:
        assert rotated[est] == pytest.approx(base[est], rel=1e-9), est



def _loo_condition(d):
    """``cond(W)^2 / min_i s_i``: the partial LOO residuals' sensitivity.

    ``s_i = Q_ii / (G_W)_ii`` with ``Q = G_W - G_W T (T^T G_W T)^{-1} T^T G_W``
    measures how close deleting row ``i`` comes to a rank loss of ``T``;
    computed here with dense inverses, independently of the library.
    """
    gw = np.linalg.inv(d.w @ d.w.T)
    a = d.t.T @ gw
    q = gw - a.T @ np.linalg.solve(a @ d.t, a)
    return np.linalg.cond(d.w) ** 2 / np.min(np.diag(q) / np.diag(gw))


@_PROPERTY
@given(d=_designs, seed=st.integers(0, 2**32 - 1))
def test_property_row_permutation_permutes_loo_residuals(d, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d.n)
    y = rng.standard_normal(d.n)
    moved = DesignPartition(d.w[perm], d.t[perm])
    partial = loo_residuals_partial(d, y)
    gap = np.max(np.abs(loo_residuals_partial(moved, y[perm]) - partial[perm]))
    assert gap <= 1e-12 * _loo_condition(d) * np.max(np.abs(partial))
    x, x_moved = d.stacked(), moved.stacked()
    full = loo_residuals_full(x, y)
    gap = np.max(np.abs(loo_residuals_full(x_moved, y[perm]) - full[perm]))
    assert gap <= 1e-12 * np.linalg.cond(x) ** 2 * np.max(np.abs(full))


@_PROPERTY
@given(d=_designs, seed=st.integers(0, 2**32 - 1))
def test_property_reparametrizing_t_maps_tau_only(d, seed):
    # T -> T A leaves lambda, T tau and every prediction unchanged and maps
    # tau -> A^{-1} tau, for each variant; the G_W-based variants lose up to
    # cond(W)^2 eps, hence the scale of the bound
    rng = np.random.default_rng(seed)
    a = np.linalg.qr(rng.standard_normal((d.m, d.m)))[0] * rng.uniform(0.5, 2.0, d.m)
    y = rng.standard_normal(d.n)
    w_new, t_new = rng.standard_normal(d.q), rng.standard_normal(d.m)
    moved = DesignPartition(d.w, d.t @ a)
    rtol = 1e-11 * np.linalg.cond(d.w) ** 2
    for variant in PARTIAL_VARIANTS:
        base = fit_partial_variant(d, y, variant)
        fit = fit_partial_variant(moved, y, variant)
        lam, tau = base.lambda_hat, base.tau_hat
        assert np.max(np.abs(fit.lambda_hat - lam)) <= rtol * np.max(np.abs(lam)), variant
        assert np.max(np.abs(a @ fit.tau_hat - tau)) <= rtol * np.max(np.abs(tau)), variant
        t_part = d.t @ tau
        assert np.max(np.abs(moved.t @ fit.tau_hat - t_part)) <= rtol * np.max(np.abs(t_part)), variant
        pred = w_new @ fit.lambda_hat + (t_new @ a) @ fit.tau_hat
        scale = np.abs(w_new) @ np.abs(lam) + np.abs(t_new) @ np.abs(tau)
        assert abs(pred - (w_new @ lam + t_new @ tau)) <= rtol * scale, variant
