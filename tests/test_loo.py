import numpy as np
import pytest

from pregols import (
    DesignPartition,
    InvalidInputError,
    PartialLooSolver,
    RankAssumptionError,
    RankTolerance,
    Svd,
    brute_force_refit,
    full_operator,
    gram_downdate,
    loo_fit,
    loo_residual_partial,
    pinv,
)

from oracles import (
    gram_downdate_mp,
    loo_projector,
    min_norm_refit_full,
    min_norm_refit_partial,
    strong_direction_split,
    weak_constant_direction_w,
)


def random_partition(rng, n, q, m):
    return DesignPartition(rng.standard_normal((n, q)), rng.standard_normal((n, m)))


def test_loo_fit_response_in_t_span():
    rng = np.random.default_rng(0)
    d = random_partition(rng, 8, 14, 2)
    c = np.array([1.5, -0.5])
    y = d.t @ c
    for i in range(d.n):
        lam, tau = loo_fit(d, y, i)
        assert np.max(np.abs(lam)) <= 1e-9
        assert np.allclose(tau, c, atol=1e-9)


def test_loo_coefficients_are_readonly():
    # like a fit's coefficients, the pair loo_fit returns is read-only
    rng = np.random.default_rng(5)
    d = random_partition(rng, 8, 14, 2)
    y = rng.standard_normal(8)
    for arr in loo_fit(d, y, 3):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 99.0


def test_loo_fit_matches_brute_force():
    rng = np.random.default_rng(1)
    d = random_partition(rng, 8, 14, 1)
    y = rng.standard_normal(8)
    for i in range(d.n):
        lam, tau = loo_fit(d, y, i)
        lam_b, tau_b = brute_force_refit(d, y, i)
        scale = 1.0 + max(np.max(np.abs(lam_b)), np.max(np.abs(tau_b)))
        assert np.max(np.abs(lam - lam_b)) <= 1e-6 * scale
        assert np.max(np.abs(tau - tau_b)) <= 1e-6 * scale


def test_loo_fit_linear_in_response():
    rng = np.random.default_rng(2)
    d = random_partition(rng, 8, 14, 1)
    y1, y2 = rng.standard_normal(8), rng.standard_normal(8)
    lam1, tau1 = loo_fit(d, y1, 3)
    lam2, tau2 = loo_fit(d, y2, 3)
    lam12, tau12 = loo_fit(d, y1 + 2.0 * y2, 3)
    assert np.allclose(lam12, lam1 + 2.0 * lam2, atol=1e-8)
    assert np.allclose(tau12, tau1 + 2.0 * tau2, atol=1e-8)


def test_loo_residual_zero_when_held_out_point_on_model():
    rng = np.random.default_rng(3)
    d = random_partition(rng, 8, 14, 2)
    y = d.t @ np.array([0.7, 2.0])
    for i in range(d.n):
        assert abs(loo_residual_partial(d, y, i)) <= 1e-9


def test_loo_residual_matches_brute_force():
    rng = np.random.default_rng(4)
    d = random_partition(rng, 9, 15, 2)
    y = rng.standard_normal(9)
    for i in range(d.n):
        lam_b, tau_b = brute_force_refit(d, y, i)
        expected = y[i] - (d.w[i] @ lam_b + d.t[i] @ tau_b)
        got = loo_residual_partial(d, y, i)
        assert abs(got - expected) <= 1e-6 * (1 + abs(expected))


def test_loo_residual_consistent_with_loo_fit():
    rng = np.random.default_rng(5)
    d = random_partition(rng, 8, 13, 1)
    y = rng.standard_normal(8)
    for i in range(d.n):
        lam, tau = loo_fit(d, y, i)
        pred = d.w[i] @ lam + d.t[i] @ tau
        assert abs(loo_residual_partial(d, y, i) - (y[i] - pred)) <= 1e-8


def test_solver_matches_per_index_ops():
    rng = np.random.default_rng(6)
    d = random_partition(rng, 8, 14, 2)
    y = rng.standard_normal(8)
    solver = PartialLooSolver(d)
    res = solver.residuals(y)
    for i in range(d.n):
        assert abs(res[i] - loo_residual_partial(d, y, i)) <= 1e-10
    assert solver.denominator > 0


def full_loo_residuals(x, y):
    # the leave-one-out residuals of the unsplit interpolator are its residual map applied to y
    return full_operator(x).matrix @ y


def test_loo_residuals_full_zero_response():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((6, 10))
    assert np.max(np.abs(full_loo_residuals(x, np.zeros(6)))) == 0.0


def test_loo_residuals_full_matches_refit_oracle():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((6, 10))
    y = rng.standard_normal(6)
    res = full_loo_residuals(x, y)
    for i in range(6):
        beta = min_norm_refit_full(x, y, i)
        expected = y[i] - x[i] @ beta
        assert abs(res[i] - expected) <= 1e-6 * (1 + abs(expected))


def test_loo_residuals_full_consistent_with_coefficient_shortcut():
    # beta with row i left out = (I - k k^T / g_ii) beta, k = X^+ e_i
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 10))
    y = rng.standard_normal(6)
    xp = pinv(x)
    gx = Svd(x).gram_inverse()
    beta = xp @ y
    res = full_loo_residuals(x, y)
    for i in range(6):
        k = xp[:, i]
        beta_i = beta - k * (k @ beta) / gx[i, i]
        assert abs(res[i] - (y[i] - x[i] @ beta_i)) <= 1e-8


# ------------------------------------------------------------ gram downdate


def test_gram_downdate_row_orthogonal():
    x = np.array([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0]])
    for i in range(2):
        direct = pinv(np.delete(x, i, axis=0).T @ np.delete(x, i, axis=0))
        assert np.max(np.abs(gram_downdate(x, i) - direct)) <= 1e-12


def test_gram_downdate_random():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((5, 9))
    for i in range(5):
        x_del = np.delete(x, i, axis=0)
        direct = pinv(x_del.T @ x_del)
        assert np.max(np.abs(gram_downdate(x, i) - direct)) <= 1e-8


@pytest.mark.parametrize("cond", [1e4, 1e6, 1e8, 1e10])
def test_gram_downdate_within_condition_bound_of_oracle(cond):
    # the weakest direction of X is the constant vector, so deleting a row
    # moves it; an update of the full-sample G_X cancels terms of size cond^2
    eps = np.finfo(np.float64).eps
    for seed in range(3):
        x, _ = weak_constant_direction_w(cond, np.random.default_rng(seed), n=12, q=24)
        for i in (0, 5, 11):
            want = gram_downdate_mp(x, i)
            err = np.linalg.norm(gram_downdate(x, i) - want, 2) / np.linalg.norm(want, 2)
            assert err <= x.shape[0] * np.linalg.cond(x) * eps, (seed, i, err)


def test_gram_downdate_symmetric_psd():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((5, 9))
    g = gram_downdate(x, 2)
    assert np.max(np.abs(g - g.T)) <= 1e-10
    evals = np.linalg.eigvalsh((g + g.T) / 2)
    assert evals.min() >= -1e-10


# --------------------------------------------------------- projector algebra


@pytest.mark.parametrize("shape", [(5, 9), (6, 10)])
def test_projector_pair_identities(shape):
    rng = np.random.default_rng(sum(shape))
    w = rng.standard_normal(shape)
    n, q = shape
    wp = pinv(w)
    gw = Svd(w).gram_inverse()
    dg = np.diag(gw)
    for i in range(n):
        p, qc, w_tilde, _ = loo_projector(w, i)
        assert np.max(np.abs(p @ p - p)) <= 1e-8
        assert np.max(np.abs(qc @ qc - qc)) <= 1e-8
        lhs = (np.eye(q) - p) @ wp
        rhs = wp @ (np.eye(n) - qc)
        assert np.max(np.abs(lhs - rhs)) <= 1e-8
        a = gw @ (np.eye(n) - qc)
        b = (np.eye(n) - qc).T @ gw @ (np.eye(n) - qc)
        assert np.max(np.abs(a - b)) <= 1e-8
        w_del = np.delete(w, i, axis=0)
        lhs = pinv(w_del) @ w_del
        rhs = (np.eye(q) - p) @ wp @ w
        assert np.max(np.abs(lhs - rhs)) <= 1e-8
        lhs = w[i] @ wp @ qc
        rhs = gw[i] / dg[i]
        assert np.max(np.abs(lhs - rhs)) <= 1e-8
        assert np.max(np.abs(w_tilde - (np.eye(q) - p) @ wp)) <= 1e-12


def test_projector_denominator_positive():
    rng = np.random.default_rng(12)
    w = rng.standard_normal((5, 9))
    gw = Svd(w).gram_inverse()
    for i in range(5):
        gii = loo_projector(w, i)[3]
        assert gii > 0
        assert abs(gw[i, i] - gii) <= 1e-12 * gii


# ------------------------------------------------------------------- errors


def _e0_design(rng):
    # t = e_1: deleting row 0 zeroes the t column
    t = np.zeros((5, 1))
    t[0, 0] = 1.0
    return rng.standard_normal((5, 9)), t, 0


def _one_treated_unit_design(rng):
    # T = [D, 1] with unit 3 the only treated one: deleting it zeroes D
    d = np.zeros((6, 1))
    d[3, 0] = 1.0
    return rng.standard_normal((6, 10)), np.hstack([d, np.ones((6, 1))]), 3


def _scaled_w_design(rng):
    # W columns spread over four decades; the check is scale-free
    w, t, bad = _e0_design(rng)
    return w * np.geomspace(1.0, 1e4, w.shape[1]), t, bad


_LOO_CALLS = {
    "loo_fit": loo_fit,
    "loo_residual_partial": loo_residual_partial,
    "PartialLooSolver": lambda d, y, i: PartialLooSolver(d).residuals(y),
}


@pytest.mark.parametrize("call", sorted(_LOO_CALLS))
@pytest.mark.parametrize(
    "make", [_e0_design, _one_treated_unit_design, _scaled_w_design],
    ids=["t_is_e1", "one_treated_unit", "w_columns_scaled"],
)
def test_loo_rank_violation_identifies_t_block(call, make):
    rng = np.random.default_rng(13)
    w, t, bad = make(rng)
    d = DesignPartition(w, t)
    y = rng.standard_normal(d.n)
    with pytest.raises(RankAssumptionError, match=f"index {bad}: unpenalized block t"):
        _LOO_CALLS[call](d, y, bad)
    if call != "PartialLooSolver":
        # other indexes keep t intact and must work
        _LOO_CALLS[call](d, y, (bad + 1) % d.n)


def _geometric_design(cond, seed):
    """10 x 20 ``W`` with singular values geometric from 1 to 1/cond; random t and y."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    v, _ = np.linalg.qr(rng.standard_normal((20, 10)))
    w = (u * np.geomspace(1.0, 1.0 / cond, 10)) @ v.T
    return w, rng.standard_normal((10, 1)), rng.standard_normal(10)


def _intercept_design(cond, seed, treatment=False):
    """10 x 20 ``W`` whose weakest direction, of singular value 1/cond, is the
    constant vector; ``T = ones`` (``[d, 1]`` with an alternating dummy ``d``
    when ``treatment``) and a random y."""
    rng = np.random.default_rng(seed)
    w, _ = weak_constant_direction_w(cond, rng)
    t = np.ones((10, 1))
    if treatment:
        t = np.column_stack([np.tile([0.0, 1.0], 5), t])
    return w, t, rng.standard_normal(10)


def _treatment_design(cond, seed):
    return _intercept_design(cond, seed, treatment=True)


def _refit_residual(w, t, y, i):
    lam, tau = min_norm_refit_partial(w, t, y, i)
    return y[i] - w[i] @ lam - t[i] @ tau


@pytest.mark.parametrize(
    "make, cond",
    [
        pytest.param(_geometric_design, 1e6, id="1000000.0"),
        pytest.param(_geometric_design, 1e8, id="100000000.0"),
        pytest.param(_intercept_design, 1e4, id="intercept-10000.0"),
        pytest.param(_intercept_design, 1e6, id="intercept-1000000.0"),
        pytest.param(_intercept_design, 1e8, id="intercept-100000000.0"),
    ],
)
def test_ill_conditioned_loo_matches_refit_or_raises(make, cond):
    w, t, y = make(cond, seed=1)
    d = DesignPartition(w, t)
    expected = np.array([_refit_residual(w, t, y, i) for i in range(10)])
    scale = 1.0 + np.max(np.abs(expected))
    try:
        got = PartialLooSolver(d).residuals(y)
    except RankAssumptionError:
        # refusing is allowed where deleting a row may cost t its rank; an
        # intercept never loses rank, so there a refusal is a false alarm
        assert make is not _intercept_design
        got = None
    if got is not None:
        assert np.max(np.abs(got - expected)) <= 1e-6 * scale
    if make is _intercept_design:
        # the split kernel loses at most about cond(W) * eps here, not cond(W)^2 * eps
        eps = np.finfo(float).eps
        assert np.max(np.abs(got - expected)) <= 100 * cond * eps * scale
    # G_W keeps the weakest direction of W, whose eigenvalue is smin^-2
    smin = np.linalg.svd(w, compute_uv=False)[-1]
    assert np.linalg.norm(Svd(w).gram_inverse(), 2) == pytest.approx(smin**-2, rel=1e-6)


def test_loo_index_out_of_range():
    rng = np.random.default_rng(14)
    d = random_partition(rng, 5, 9, 1)
    with pytest.raises(InvalidInputError):
        loo_fit(d, rng.standard_normal(5), 5)


_INDEXED_CALLS = {
    "loo_fit": loo_fit,
    "loo_residual_partial": loo_residual_partial,
    "brute_force_refit": brute_force_refit,
    "gram_downdate": lambda d, y, i: gram_downdate(d.stacked(), i),
}


@pytest.mark.parametrize("call", sorted(_INDEXED_CALLS))
@pytest.mark.parametrize(
    "bad", [2.7, 2.0, np.float64(2.0), True, "2", None],
    ids=["float_2.7", "float_2.0", "float64_2.0", "True", "str_2", "None"],
)
def test_loo_index_must_be_an_integer(call, bad):
    rng = np.random.default_rng(14)
    d = random_partition(rng, 5, 9, 1)
    y = rng.standard_normal(5)
    with pytest.raises(InvalidInputError, match="index must be an integer"):
        _INDEXED_CALLS[call](d, y, bad)
    _INDEXED_CALLS[call](d, y, np.int64(2))  # numpy integers are integers


def test_full_operator_rejects_rank_deficient():
    x = np.vstack([np.ones((2, 4))])
    with pytest.raises(RankAssumptionError):
        full_operator(x)


# ------------------------------------------------------------------- oracle


def test_brute_force_refit_interpolates_retained_rows():
    rng = np.random.default_rng(15)
    d = random_partition(rng, 3, 6, 1)
    y = rng.standard_normal(3)
    lam, tau = brute_force_refit(d, y, 1)
    for i in (0, 2):
        assert abs(d.w[i] @ lam + d.t[i] @ tau - y[i]) <= 1e-9


def test_brute_force_refit_deterministic():
    rng = np.random.default_rng(16)
    d = random_partition(rng, 6, 11, 2)
    y = rng.standard_normal(6)
    lam1, tau1 = brute_force_refit(d, y, 2)
    lam2, tau2 = brute_force_refit(d, y, 2)
    assert np.array_equal(lam1, lam2) and np.array_equal(tau1, tau2)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize(
    "make, cond",
    [
        pytest.param(strong_direction_split, 1e9, id="1000000000.0"),
        pytest.param(strong_direction_split, 1e12, id="1000000000000.0"),
        *(
            pytest.param(make, cond, id=f"{name}-{cond}")
            for name, make in (("intercept", _intercept_design), ("treatment", _treatment_design))
            for cond in (1e4, 1e6, 1e8)
        ),
    ],
)
def test_loo_fit_and_residual_agree_within_the_condition_of_w(make, cond, seed):
    # the two closed forms agree to n cond(W) eps (1 + |y_i|), where a fixed
    # 1e-8 (1 + |y_i|) bound called the strong-direction designs
    # rank-marginal, and the coefficients match a refit to as much
    w, t, y = make(cond, seed)
    d = DesignPartition(w, t)
    bound = d.n * np.linalg.cond(w) * np.finfo(float).eps
    for i in range(d.n):
        lam_loo, tau_loo = loo_fit(d, y, i)
        gap = abs(loo_residual_partial(d, y, i) - (y[i] - d.w[i] @ lam_loo - d.t[i] @ tau_loo))
        assert gap <= bound * (1.0 + abs(y[i]))
        lam = min_norm_refit_partial(w, t, y, i)[0]
        assert np.max(np.abs(lam_loo - lam)) <= bound * np.max(np.abs(lam))


def _marginal_leverage_design():
    # 1 - h_0 = 9 * 1.05e-3^2 = 9.9e-6 clears the square root of the default
    # cutoff (4.7e-8) but not that of a 1e-3 cutoff (3.2e-2)
    w = np.random.default_rng(0).standard_normal((10, 20))
    t = np.full((10, 1), 1.05e-3)
    t[0] = 1.0
    return w, t


def test_leave_one_out_checks_run_under_the_partitions_own_tolerance():
    w, t = _marginal_leverage_design()
    PartialLooSolver(DesignPartition(w, t))
    loose = RankTolerance(relative_cutoff=1e-3)
    d = DesignPartition(w, t, tol=loose)
    assert d.tol is loose
    with pytest.raises(RankAssumptionError, match="leave-one-out rank violation at index 0"):
        PartialLooSolver(d)
    with pytest.raises(RankAssumptionError, match="leave-one-out rank violation at index 0"):
        loo_residual_partial(d, np.ones(10), 0)


def test_a_partition_given_no_tolerance_takes_the_default_one():
    # tol=None means RankTolerance(), whatever cutoff an earlier partition
    # was built under
    w, t = _marginal_leverage_design()
    DesignPartition(w, t, tol=RankTolerance(relative_cutoff=1e-3))
    d = DesignPartition(w, t)
    assert d.tol == RankTolerance()
    PartialLooSolver(d)
