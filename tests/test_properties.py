"""Property tests of the four variance estimators (hypothesis, derandomized)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pregols import ESTIMATOR_IDS, DesignPartition, residual_operator

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
