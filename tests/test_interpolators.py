import numpy as np
import pytest

from pregols import (
    DesignPartition,
    InvalidInputError,
    RankAssumptionError,
    fit_full,
    fit_partial,
    fit_partial_variant,
    fit_partial_variants,
    nullspace_component,
    predict,
)

from oracles import (
    partial_blocks_projected,
    ridge_solve,
    split_qspace,
    weak_constant_direction_w,
)


def random_partition(rng, n, q, m):
    return DesignPartition(rng.standard_normal((n, q)), rng.standard_normal((n, m)))


# ---------------------------------------------------------------- fit_full


def test_fit_full_symmetric_split():
    fit = fit_full(np.array([[1.0, 1.0]]), np.array([2.0]))
    assert np.allclose(fit.beta_hat, [1.0, 1.0], atol=1e-12)


def test_fit_full_identity_design():
    y = np.array([0.3, -1.2, 4.0])
    fit = fit_full(np.eye(3), y)
    assert np.allclose(fit.beta_hat, y, atol=1e-12)


def test_fit_full_minimum_norm_among_feasible():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((4, 9))
    y = rng.standard_normal(4)
    beta = fit_full(x, y).beta_hat
    base = np.linalg.norm(beta)
    for _ in range(1000):
        z = nullspace_component(x, rng.standard_normal(9))
        cand = np.linalg.norm(beta + z)
        assert cand >= base - 1e-10
        if np.linalg.norm(z) > 1e-8:
            assert cand > base  # strict away from the minimizer


def test_fit_full_rejects_rank_deficient_rows():
    x = np.array([[1.0, 2.0, 0.0], [2.0, 4.0, 0.0]])  # row 2 = 2 * row 1
    with pytest.raises(RankAssumptionError, match="full row rank"):
        fit_full(x, np.array([1.0, 2.0]))


def test_fit_full_length_mismatch():
    with pytest.raises(InvalidInputError):
        fit_full(np.eye(3), np.ones(4))


# -------------------------------------------------------------- fit_partial


def test_fit_partial_hand_example():
    d = DesignPartition([[1.0, 0, 0], [0, 1, 0]], [[1.0], [1.0]])
    fit = fit_partial(d, [1.0, 2.0])
    assert np.allclose(fit.lambda_hat, [-0.5, 0.5, 0.0], atol=1e-12)
    assert np.allclose(fit.tau_hat, [1.5], atol=1e-12)
    assert np.max(np.abs(d.w @ fit.lambda_hat + d.t @ fit.tau_hat - [1, 2])) <= 1e-12


def test_fit_partial_response_in_t_span():
    rng = np.random.default_rng(1)
    d = random_partition(rng, 6, 10, 2)
    c = np.array([2.0, -3.0])
    fit = fit_partial(d, d.t @ c)
    assert np.max(np.abs(fit.lambda_hat)) <= 1e-10
    assert np.allclose(fit.tau_hat, c, atol=1e-10)


def test_fit_partial_matches_ridge_limit():
    rng = np.random.default_rng(2)
    d = random_partition(rng, 6, 10, 2)
    y = rng.standard_normal(6)
    fit = fit_partial(d, y)
    lam_r, tau_r = ridge_solve(d.w, d.t, y, 1e-8)
    assert np.max(np.abs(fit.lambda_hat - lam_r)) <= 1e-4
    assert np.max(np.abs(fit.tau_hat - tau_r)) <= 1e-4


def test_fit_partial_when_t_spans_the_strong_directions_of_w():
    # P W = u3 v3^T has norm 1 while ||W|| = 100: the rounding noise of P W
    # (about eps ||W||) lies above a cutoff relative to ||P W|| alone, so the
    # direct form must not take the rank of P W from its own singular values
    rng = np.random.default_rng(0)
    u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    v = np.linalg.qr(rng.standard_normal((4, 4)))[0][:, :3]
    w = (u * [100.0, 100.0, 1.0]) @ v.T
    t = u[:, :2] @ np.array([[1.0, 2.0], [0.5, -1.0]])
    y = np.array([1.0, -2.0, 0.5])
    d = DesignPartition(w, t)
    fit = fit_partial(d, y)
    assert fit.max_interp_residual <= 1e-10
    for name, other in fit_partial_variants(d, y).items():
        assert np.max(np.abs(fit.lambda_hat - other.lambda_hat)) <= 1e-10, name
        assert np.max(np.abs(fit.tau_hat - other.tau_hat)) <= 1e-10, name
    lam_r, tau_r = ridge_solve(w, t, y, 1e-6)
    assert np.max(np.abs(fit.lambda_hat - lam_r)) <= 1e-3
    assert np.max(np.abs(fit.tau_hat - tau_r)) <= 1e-3


@pytest.mark.parametrize("n, q, m", [(6, 10, 1), (12, 20, 3), (20, 40, 2), (5, 5, 2)])
def test_fit_partial_matches_the_projected_form(n, q, m):
    rng = np.random.default_rng(n + m)
    d = random_partition(rng, n, q, m)
    y = rng.standard_normal(n)
    fit = fit_partial(d, y)
    for got, want in zip((fit.lambda_hat, fit.tau_hat), partial_blocks_projected(d.w, d.t, y)):
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("cond", [1e4, 1e6, 1e8])
def test_fit_partial_when_t_lies_along_the_strong_directions_of_an_ill_conditioned_w(
    cond, seed
):
    # well-posed designs that a split solve computing lambda and tau apart
    # reports as rank-marginal: their errors do not cancel in W lambda + T tau.
    # tau carries the problem's own cond(W)^2 eps, so only lambda is held to
    # an exact solve
    rng = np.random.default_rng(seed)
    w, u = weak_constant_direction_w(cond, rng, n=12, q=24)
    t = u[:, :2] @ rng.standard_normal((2, 2))
    y = rng.standard_normal(12)
    fit = fit_partial(DesignPartition(w, t), y)
    want = split_qspace(w, t)[0] @ y
    bound = 10 * 12 * np.linalg.cond(w) * np.finfo(float).eps
    assert np.linalg.norm(fit.lambda_hat - want) <= bound * np.linalg.norm(want)


def test_fit_partial_interpolates():
    rng = np.random.default_rng(3)
    for n, q, m in [(6, 10, 1), (12, 20, 3), (20, 40, 2)]:
        d = random_partition(rng, n, q, m)
        y = rng.standard_normal(n)
        fit = fit_partial(d, y)
        bound = 1e-8 * (1.0 + np.max(np.abs(y)))
        assert fit.max_interp_residual <= bound


def test_fit_partial_lambda_minimal_over_nullspace():
    rng = np.random.default_rng(4)
    d = random_partition(rng, 6, 10, 2)
    y = rng.standard_normal(6)
    fit = fit_partial(d, y)
    x = d.stacked()
    base = np.linalg.norm(fit.lambda_hat)
    for _ in range(500):
        z = nullspace_component(x, rng.standard_normal(12))
        assert np.linalg.norm(fit.lambda_hat + z[: d.q]) >= base - 1e-10


def test_fit_partial_linearity():
    rng = np.random.default_rng(5)
    d = random_partition(rng, 8, 14, 2)
    y1, y2 = rng.standard_normal(8), rng.standard_normal(8)
    c = 2.75
    f1, f2 = fit_partial(d, y1), fit_partial(d, y2)
    f12 = fit_partial(d, y1 + c * y2)
    assert np.allclose(f12.lambda_hat, f1.lambda_hat + c * f2.lambda_hat, atol=1e-8)
    assert np.allclose(f12.tau_hat, f1.tau_hat + c * f2.tau_hat, atol=1e-8)


# ------------------------------------------------------------ construction


def test_partition_requires_wide_w():
    rng = np.random.default_rng(7)
    with pytest.raises(RankAssumptionError, match="wide"):
        DesignPartition(rng.standard_normal((5, 3)), rng.standard_normal((5, 1)))


def test_partition_square_w_allowed():
    # q = n is legitimate: the solve only needs full row rank
    rng = np.random.default_rng(8)
    d = DesignPartition(rng.standard_normal((5, 5)), np.ones((5, 1)))
    y = rng.standard_normal(5)
    fit = fit_partial(d, y)
    assert fit.max_interp_residual <= 1e-8 * (1 + np.max(np.abs(y)))


def test_partition_rejects_rank_deficient_w():
    rng = np.random.default_rng(9)
    w = rng.standard_normal((4, 8))
    w[3] = w[0]
    with pytest.raises(RankAssumptionError, match="penalized block"):
        DesignPartition(w, np.ones((4, 1)))


def test_partition_rejects_rank_deficient_t():
    rng = np.random.default_rng(10)
    t = np.ones((6, 2))  # two identical columns
    with pytest.raises(RankAssumptionError, match="unpenalized block"):
        DesignPartition(rng.standard_normal((6, 10)), t)


def test_partition_rejects_wide_t():
    rng = np.random.default_rng(11)
    with pytest.raises(RankAssumptionError, match="fewer columns"):
        DesignPartition(rng.standard_normal((3, 6)), rng.standard_normal((3, 3)))


def test_partition_rejects_empty_t_via_init():
    rng = np.random.default_rng(12)
    with pytest.raises(InvalidInputError, match="fit_full"):
        DesignPartition(rng.standard_normal((3, 6)), np.zeros((3, 0)))


def test_partition_row_count_mismatch():
    rng = np.random.default_rng(13)
    with pytest.raises(InvalidInputError, match="row counts"):
        DesignPartition(rng.standard_normal((4, 8)), np.ones((5, 1)))


# ----------------------------------------------------------------- variants


def test_variants_match_direct():
    rng = np.random.default_rng(14)
    d = random_partition(rng, 6, 10, 2)
    y = rng.standard_normal(6)
    direct = fit_partial(d, y)
    for name, fit in fit_partial_variants(d, y).items():
        assert np.max(np.abs(fit.lambda_hat - direct.lambda_hat)) <= 1e-8, name
        assert np.max(np.abs(fit.tau_hat - direct.tau_hat)) <= 1e-8, name


def test_variant_gls_hand_example():
    d = DesignPartition([[1.0, 0, 0], [0, 1, 0]], [[1.0], [1.0]])
    fit = fit_partial_variant(d, [1.0, 2.0], "gls")
    assert np.allclose(fit.tau_hat, [1.5], atol=1e-10)


def test_variants_scale_linearly():
    rng = np.random.default_rng(15)
    d = random_partition(rng, 7, 12, 2)
    y = rng.standard_normal(7)
    for name in ("rowspace", "residual", "gls"):
        f = fit_partial_variant(d, y, name)
        f7 = fit_partial_variant(d, 7.0 * y, name)
        assert np.allclose(f7.lambda_hat, 7.0 * f.lambda_hat, atol=1e-8)
        assert np.allclose(f7.tau_hat, 7.0 * f.tau_hat, atol=1e-8)


def test_unknown_variant_rejected():
    rng = np.random.default_rng(16)
    d = random_partition(rng, 5, 9, 1)
    with pytest.raises(InvalidInputError, match="unknown variant"):
        fit_partial_variant(d, rng.standard_normal(5), "qr")


# ------------------------------------------------------------------ predict


def test_predict_reproduces_training_rows():
    rng = np.random.default_rng(17)
    d = random_partition(rng, 6, 11, 2)
    y = rng.standard_normal(6)
    fit = fit_partial(d, y)
    for i in range(d.n):
        assert abs(predict(fit, d.w[i], d.t[i]) - y[i]) <= 1e-8 * (1 + abs(y[i]))


def test_predict_zero_inputs():
    rng = np.random.default_rng(18)
    d = random_partition(rng, 5, 9, 1)
    fit = fit_partial(d, rng.standard_normal(5))
    assert predict(fit, np.zeros(9), np.zeros(1)) == 0.0


def test_predict_full_fit():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((4, 7))
    y = rng.standard_normal(4)
    fit = fit_full(x, y)
    assert abs(predict(fit, x[2]) - y[2]) <= 1e-8


def test_predict_dimension_mismatch():
    rng = np.random.default_rng(20)
    d = random_partition(rng, 5, 9, 1)
    fit = fit_partial(d, rng.standard_normal(5))
    with pytest.raises(InvalidInputError):
        predict(fit, np.zeros(8), np.zeros(1))


# ---------------------------------------------------------------- immutability


def test_fit_arrays_are_readonly():
    rng = np.random.default_rng(21)
    d = random_partition(rng, 5, 9, 1)
    fit = fit_partial(d, rng.standard_normal(5))
    with pytest.raises(ValueError):
        fit.lambda_hat[0] = 99.0
    with pytest.raises(ValueError):
        d.w[0, 0] = 99.0
