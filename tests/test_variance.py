from dataclasses import astuple

import numpy as np
import pytest

from pregols import (
    COVARIATE_MODELS,
    ESTIMATOR_IDS,
    CovariateConfig,
    DesignPartition,
    GaussMarkovTruth,
    InvalidInputError,
    RankAssumptionError,
    RankTolerance,
    Seed,
    expected_bias,
    full_operator,
    gen_covariates,
    partial_operator,
    residual_operator,
    sigma2,
    standard_normal,
    w_operator,
    wc_operator,
)

from oracles import (
    full_gram_inverse_exact,
    projector,
    split_qspace,
    wc_normalizers,
    weak_constant_direction_w,
)


def fixture_partition(seed=0, n=12, q=18, m=1):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((n, q))
    t = np.ones((n, 1)) if m == 1 else rng.standard_normal((n, m))
    return DesignPartition(w, t)


def all_reports(d, y, truth=None):
    return {
        "full": sigma2("full", d.stacked(), y, truth),
        **{est: sigma2(est, d, y, truth) for est in ("partial", "w", "wc")},
    }


def test_sigma2_is_the_operator_report():
    d = fixture_partition(seed=18, m=2)
    truth = GaussMarkovTruth(beta=np.linspace(-1.0, 1.0, d.q + d.m), sigma2=1.0)
    y = np.random.default_rng(19).standard_normal(d.n)
    x = d.stacked()
    mu = truth.mean_response(x)
    for est, design in [*((est, d) for est in ESTIMATOR_IDS), ("full", x)]:
        op = residual_operator(est, design)
        fields = (est, op.estimate(y), op.denominator)
        assert astuple(sigma2(est, design, y, truth)) == (*fields, op.expected_bias(mu))
        assert astuple(sigma2(est, design, y)) == (*fields, None)


def test_residual_operator_takes_an_unsplit_array_for_full():
    x = fixture_partition(seed=20, m=2).stacked()
    op, ref = residual_operator("full", x), full_operator(x)
    assert op.estimator_id == ref.estimator_id == "full"
    assert np.array_equal(op.matrix, ref.matrix)
    assert op.denominator == ref.denominator


def test_mean_response_takes_a_partition():
    d = fixture_partition(seed=21, m=2)
    truth = GaussMarkovTruth(beta=np.linspace(-1.0, 1.0, d.q + d.m), sigma2=1.0)
    assert np.array_equal(truth.mean_response(d), truth.mean_response(d.stacked()))


def test_zero_response_gives_zero_estimates():
    d = fixture_partition()
    for rep in all_reports(d, np.zeros(d.n)).values():
        assert rep.estimate == 0.0
        assert rep.denominator > 0.0


def test_noiseless_estimate_equals_bias_term():
    # with sigma = 0 the estimate is exactly the bias evaluated at E[y] = y
    d = fixture_partition(seed=1)
    truth = GaussMarkovTruth(
        beta=np.concatenate([np.full(d.q, 0.3), [1.0]]), sigma2=1.0
    )
    y = d.stacked() @ truth.beta
    for est, rep in all_reports(d, y, truth).items():
        assert rep.expected_bias is not None
        assert abs(rep.estimate - rep.expected_bias) <= 1e-10 * (1 + rep.estimate), est


def test_w_estimator_trivial_cases():
    d = fixture_partition(seed=2)
    # response orthogonal to colsp(t): project it out
    rng = np.random.default_rng(3)
    y = rng.standard_normal(d.n)
    y = y - np.mean(y)  # t is the intercept column
    assert sigma2("w", d, y).estimate <= 1e-20 * d.n
    # constant response c: estimate n c^2
    c = 1.7
    rep = sigma2("w", d, np.full(d.n, c))
    assert abs(rep.estimate - d.n * c**2) <= 1e-9


@pytest.mark.parametrize(
    "estimator_id, unsplit", [(est, False) for est in ESTIMATOR_IDS] + [("full", True)]
)
def test_operator_matrices_refuse_writes(estimator_id, unsplit):
    # an operator is built per design and applied to every response, so a
    # write into its matrix would change every later estimate
    d = fixture_partition(seed=9)
    op = residual_operator(estimator_id, d.stacked() if unsplit else d)
    before = op.estimate(np.arange(1.0, d.n + 1))
    with pytest.raises(ValueError, match="read-only"):
        op.matrix[...] = 0.0
    assert op.estimate(np.arange(1.0, d.n + 1)) == before


@pytest.mark.parametrize("t", ["ones", "treatment"])
def test_w_map_is_the_left_factor_of_t(t):
    # R = U_T^T (m x n) with R^T R = P_T, so its estimates and exact biases
    # are those of the projector form ||P_T v||^2 / m
    w = gen_covariates(CovariateConfig(model="spiked"), 40, 99, Seed(3).rng(0))
    rng = np.random.default_rng(4)
    block = np.ones((40, 1))
    if t == "treatment":
        block = np.column_stack([rng.random(40) < 0.5, block]).astype(float)
    d = DesignPartition(w, block)
    op, proj = w_operator(d), projector(d.t_svd, d.tol)
    assert op.matrix.shape == (d.m, d.n) and op.denominator == d.m
    assert not op.matrix.flags.writeable  # a view of the partition's U_T
    assert np.max(np.abs(op.matrix.T @ op.matrix - proj)) <= d.n * np.finfo(float).eps
    ys = 3.0 + rng.standard_normal((5, d.n))
    pys = ys @ proj
    want = np.einsum("ij,ij->i", pys, pys) / d.m
    got = np.array([op.estimate(y) for y in ys])
    assert np.max(np.abs(got - want) / want) <= 1e-13
    mean_y = d.stacked() @ np.full(d.q + d.m, 0.3)
    pm = proj @ mean_y
    want_bias = float(pm @ pm) / d.m
    assert abs(op.expected_bias(mean_y) - want_bias) <= 1e-13 * want_bias


def test_wc_estimator_zero_on_t_span():
    d = fixture_partition(seed=4, m=2)
    y = d.t @ np.array([2.0, -1.0])
    assert sigma2("wc", d, y).estimate <= 1e-16


def test_w_bias_closed_form_for_intercept_block():
    d = fixture_partition(seed=5)
    beta1 = np.full(d.q, d.q**-0.5)
    beta0 = 2.5
    truth = GaussMarkovTruth(beta=np.concatenate([beta1, [beta0]]), sigma2=1.0)
    remark = (np.sum(d.w @ beta1) + d.n * beta0) ** 2 / d.n
    assert abs(expected_bias("w", d, truth) - remark) <= 1e-10 * (1 + remark)


def test_w_bias_pure_intercept():
    d = fixture_partition(seed=6)
    c = 3.0
    truth = GaussMarkovTruth(beta=np.concatenate([np.zeros(d.q), [c]]), sigma2=1.0)
    assert abs(expected_bias("w", d, truth) - d.n * c**2) <= 1e-9


def test_zero_signal_means_zero_bias_everywhere():
    d = fixture_partition(seed=7)
    truth = GaussMarkovTruth(beta=np.zeros(d.q + 1), sigma2=2.0)
    for est in ("full", "partial", "w", "wc"):
        assert expected_bias(est, d, truth) == 0.0


def test_quadratic_homogeneity_in_response():
    d = fixture_partition(seed=8)
    rng = np.random.default_rng(9)
    y = rng.standard_normal(d.n)
    c = 3.0
    for est, rep in all_reports(d, y).items():
        scaled = all_reports(d, c * y)[est]
        assert abs(scaled.estimate - c**2 * rep.estimate) <= 1e-8 * (
            1 + abs(scaled.estimate)
        ), est


def test_operator_denominators_match_frobenius():
    d = fixture_partition(seed=10)
    for op in (
        full_operator(d.stacked()),
        partial_operator(d),
        wc_operator(d),
    ):
        assert abs(op.denominator - np.sum(op.matrix**2)) <= 1e-10 * op.denominator
    wop = w_operator(d)
    assert abs(wop.denominator - np.sum(wop.matrix**2)) <= 1e-8


@pytest.mark.parametrize(
    "c, seed",
    [
        pytest.param(None, 11, id="generic"),
        *(pytest.param(c, s, id=f"weak-{c}-{s}") for c in (1e4, 1e6, 1e8) for s in range(5)),
    ],
)
def test_wc_normalizers_projected_vs_sample_space(c, seed):
    if c is None:
        d = fixture_partition(seed=seed, m=2)
    else:
        # T = ones along the weakest direction of W, whose other singular
        # values are 1: both traces are exactly n - 1, and a route through
        # (W^T W)^+ or a q x q projector loses cond(W)^2 eps
        w, _ = weak_constant_direction_w(c, np.random.default_rng(seed), n=12, q=24)
        d = DesignPartition(w, np.ones((12, 1)))
    projected, sample = wc_normalizers(d)
    if c is None:
        # the two renderings genuinely differ on generic designs
        assert abs(projected - sample) > 1e-3
    else:
        bound = d.n * np.linalg.cond(d.w) * np.finfo(float).eps * (d.n - 1)
        assert abs(projected - (d.n - 1)) <= bound
        assert abs(sample - (d.n - 1)) <= bound


def test_monte_carlo_means_match_exact_bias():
    d = fixture_partition(seed=12, n=16, q=24)
    truth = GaussMarkovTruth(
        beta=np.concatenate([np.full(d.q, d.q**-0.5), [1.0]]), sigma2=1.0
    )
    x = d.stacked()
    mean_y = x @ truth.beta
    ops = {
        "full": full_operator(x),
        "partial": partial_operator(d),
        "w": w_operator(d),
        "wc": wc_operator(d),
    }
    draws = 4000
    rng = Seed(99).rng(0)
    noise = standard_normal(rng, (d.n, draws))
    ys = mean_y[:, None] + noise
    for est, op in ops.items():
        r = op.matrix @ ys
        vals = (r * r).sum(axis=0) / op.denominator
        se = vals.std(ddof=1) / np.sqrt(draws)
        target = truth.sigma2 + op.expected_bias(mean_y)
        assert abs(vals.mean() - target) <= 3 * se, est


def test_quadratic_form_expectation_identity_monte_carlo():
    # E[y' M y] = beta' X' M X beta + sigma^2 tr(M) for each estimator's M
    d = fixture_partition(seed=13, n=10, q=16)
    truth = GaussMarkovTruth(
        beta=np.concatenate([np.full(d.q, 0.2), [1.0]]), sigma2=1.5
    )
    x = d.stacked()
    mean_y = x @ truth.beta
    rng = Seed(100).rng(0)
    draws = 4000
    noise = standard_normal(rng, (d.n, draws))
    ys = mean_y[:, None] + np.sqrt(truth.sigma2) * noise
    for op in (full_operator(x), partial_operator(d), w_operator(d), wc_operator(d)):
        m = op.matrix.T @ op.matrix
        quad = (ys * (m @ ys)).sum(axis=0)
        se = quad.std(ddof=1) / np.sqrt(draws)
        target = mean_y @ m @ mean_y + truth.sigma2 * np.trace(m)
        assert abs(quad.mean() - target) <= 3 * se, op.estimator_id


def test_unbiased_when_signal_orthogonal_to_t():
    # choose the intercept so the projected mean vanishes: zero bias for 'w'
    d = fixture_partition(seed=14, n=14, q=20)
    beta1 = np.full(d.q, 0.25)
    beta0 = -float(np.mean(d.w @ beta1))
    truth = GaussMarkovTruth(beta=np.concatenate([beta1, [beta0]]), sigma2=1.0)
    assert expected_bias("w", d, truth) <= 1e-12
    mean_y = d.stacked() @ truth.beta
    rng = Seed(101).rng(0)
    draws = 4000
    ys = mean_y[:, None] + standard_normal(rng, (d.n, draws))
    op = w_operator(d)
    r = op.matrix @ ys
    vals = (r * r).sum(axis=0) / op.denominator
    se = vals.std(ddof=1) / np.sqrt(draws)
    assert abs(vals.mean() - truth.sigma2) <= 3 * se


def test_expected_bias_validates_inputs():
    # residual_operator is the one dispatch; expected_bias and sigma2 raise what it raises
    d = fixture_partition(seed=15)
    truth = GaussMarkovTruth(beta=np.zeros(d.q + 1), sigma2=1.0)
    y = np.ones(d.n)
    calls = (
        lambda est, design: residual_operator(est, design),
        lambda est, design: expected_bias(est, design, truth),
        lambda est, design: sigma2(est, design, y),
        lambda est, design: sigma2(est, design, y, truth),
    )
    for call in calls:
        for design in (d, d.stacked()):
            with pytest.raises(InvalidInputError, match="unknown estimator 'ridge'"):
                call("ridge", design)
        for est in ("partial", "w", "wc"):
            with pytest.raises(InvalidInputError, match=f"'{est}' requires a DesignPartition"):
                call(est, d.stacked())
        with pytest.raises(InvalidInputError, match="^design contains non-finite entries"):
            call("full", np.full((d.n, d.q + 1), np.nan))


def test_truth_validation():
    with pytest.raises(InvalidInputError):
        GaussMarkovTruth(beta=np.zeros(3), sigma2=0.0)
    with pytest.raises(InvalidInputError):
        GaussMarkovTruth(beta=np.array([np.inf, 0.0]), sigma2=1.0)


@pytest.mark.parametrize("bad", ["1", None, True, np.ones(1)])
def test_truth_sigma2_must_be_a_real_number(bad):
    with pytest.raises(InvalidInputError, match="sigma2 must be a real number"):
        GaussMarkovTruth(beta=np.zeros(3), sigma2=bad)


def test_estimates_nonnegative():
    d = fixture_partition(seed=16)
    rng = np.random.default_rng(17)
    for _ in range(5):
        y = rng.standard_normal(d.n) * rng.uniform(0.1, 10)
        for est, rep in all_reports(d, y).items():
            assert rep.estimate >= 0.0, est


def _count_calls(monkeypatch, name):
    """Record the shape of every matrix ``np.linalg.<name>`` factors."""
    factor = getattr(np.linalg, name)
    calls = []

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return factor(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, counted)
    return calls


def _count_svds(monkeypatch):
    return _count_calls(monkeypatch, "svd")


def test_one_design_is_factored_a_handful_of_times(monkeypatch):
    # the SVDs of W and T; not [W | T] or B = W^+ T, nothing per held-out row
    w = gen_covariates(CovariateConfig(model="spiked"), 40, 99, Seed(314).rng(0)).a
    shapes = _count_svds(monkeypatch)
    d = DesignPartition(w, np.ones((40, 1)))
    for est in ESTIMATOR_IDS:
        residual_operator(est, d)
    assert shapes == [(40, 99), (40, 1)]


def test_estimate_names_the_argument_of_wrong_length():
    op = residual_operator("partial", fixture_partition())
    with pytest.raises(InvalidInputError, match="^y has length 11, expected 12"):
        op.estimate(np.ones(11))
    with pytest.raises(InvalidInputError, match="^mean_response has length 13"):
        op.expected_bias(np.ones(13))
    with pytest.raises(InvalidInputError, match="^rows of ys have length 11"):
        op.estimate_sum(np.ones((3, 11)))


@pytest.mark.parametrize("model", COVARIATE_MODELS)
def test_estimate_sum_is_the_sum_of_the_estimates(model):
    # the block reduction ||Y R^T||_F^2 / denominator, one product and one
    # dot, adds up the per-row estimates; a one-row block is estimate()
    n = 40
    w = gen_covariates(CovariateConfig(model=model), n, 99, Seed(8).rng(0))
    d = DesignPartition(w, np.ones((n, 1)))
    ys = 2.0 + standard_normal(Seed(8).rng(1), (25, n))
    for est in ESTIMATOR_IDS:
        op = residual_operator(est, d)
        want = float(np.sum([op.estimate(y) for y in ys]))
        assert abs(op.estimate_sum(ys) - want) <= 1e-13 * want, est
        assert op.estimate_sum(ys[:1]) == op.estimate(ys[0]), est


def test_estimate_sum_refuses_a_bad_block():
    apply = residual_operator("partial", fixture_partition()).estimate_sum
    for bad in (np.nan, np.inf):
        block = np.ones((3, 12))
        block[1, 4] = bad
        with pytest.raises(InvalidInputError, match="^ys contains non-finite entries"):
            apply(block)
    with pytest.raises(InvalidInputError, match="^rows of ys have length 11, expected 12"):
        apply(np.ones((3, 11)))


def test_an_estimate_that_overflows_is_refused():
    # ||R y||^2 of a 1e200-scale y is beyond the float range: refused, with
    # no overflow warning on the way (the suite turns warnings into errors)
    d = fixture_partition()
    y = 1e200 * np.random.default_rng(3).standard_normal(d.n)
    truth = GaussMarkovTruth(np.full(d.q + d.m, 1e200), 1.0)
    for est in ESTIMATOR_IDS:
        op = residual_operator(est, d)
        calls = (lambda: op.estimate_sum(np.vstack([y, y])), lambda: op.estimate(y),
                 lambda: op.expected_bias(y), lambda: sigma2(est, d, y),
                 lambda: expected_bias(est, d, truth))
        for call in calls:
            with pytest.raises(InvalidInputError, match=f"^the {est} estimate overflows"):
                call()
        assert np.isfinite(op.estimate(1e100 * y / 1e200))


def test_a_truth_whose_mean_response_overflows_is_refused_by_name():
    # X beta beyond the float range: refused before any operator is built,
    # with no overflow warning on the way (the suite turns warnings into errors)
    d = fixture_partition()
    truth = GaussMarkovTruth(np.full(d.q + d.m, 1e308), 1.0)
    calls = [lambda: truth.mean_response(d), lambda: truth.mean_response(d.stacked())]
    calls += [lambda est=est: sigma2(est, d, np.ones(d.n), truth) for est in ESTIMATOR_IDS]
    calls += [lambda est=est: expected_bias(est, d, truth) for est in ESTIMATOR_IDS]
    for call in calls:
        with pytest.raises(InvalidInputError, match="^the truth's mean response X beta overflows"):
            call()


# ------------------------------------------------ full map from kept factors


def _weak_direction_design(cond, t="treatment", t_scale=1.0, seed=3):
    """10 x 20 ``W`` whose weakest direction ``u_10``, of singular value
    1/cond, is the constant vector, and a ``T`` scaled by ``t_scale``:
    ``[d, 1]`` (``"treatment"``), ``u_10`` (``"weakest"``) or ``u_1``
    (``"strongest"``)."""
    w, u = weak_constant_direction_w(cond, np.random.default_rng(seed))
    if t == "treatment":
        block = np.column_stack([np.arange(10) % 3 == 0, np.ones(10)]).astype(float)
    else:
        block = u[:, -1:] if t == "weakest" else u[:, :1]
    return w, t_scale * block


@pytest.mark.parametrize("cond", [1e4, 1e6, 1e8])
def test_full_map_from_kept_factors_when_t_lies_along_the_weakest_direction(
    monkeypatch, cond
):
    d = DesignPartition(*_weak_direction_design(cond))
    x = d.stacked()
    bound = 10 * d.n * np.linalg.cond(x) * np.finfo(float).eps
    ref_op = full_operator(x).matrix
    ref_row = np.linalg.pinv(x)[d.q]
    calls = _count_svds(monkeypatch)
    op = residual_operator("full", d)
    # the ate trial's full row, G_X d, and its split row, which factors L^T T
    row, _ = d.full_gram_inverse() @ d.t[:, 0], d.tau_map()
    monkeypatch.undo()
    assert calls == [(d.n, 2)]  # L^T T for the split row; [W | T] is not factored
    assert np.max(np.abs(op.matrix - ref_op)) <= bound * np.max(np.abs(ref_op))
    assert np.max(np.abs(row - ref_row)) <= bound * np.max(np.abs(ref_row))


@pytest.mark.parametrize("t, full_rank", [("weakest", True), ("strongest", False)])
def test_full_map_falls_back_when_the_rank_certificate_fails(monkeypatch, t, full_rank):
    # cond(W) = 1e3 against ||T|| = 1e12: s_min(W) is below the cutoff of
    # hypot(||W||, ||T||), so [W | T] is factored to decide its rank
    d = DesignPartition(*_weak_direction_design(1e3, t, t_scale=1e12))
    calls = _count_svds(monkeypatch)
    if full_rank:
        expected = full_operator(d.stacked()).matrix
        got = full_operator(d).matrix
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))
    else:
        with pytest.raises(RankAssumptionError) as stacked:
            full_operator(d.stacked())
        with pytest.raises(RankAssumptionError, match="full row rank 10") as split:
            full_operator(d)
        assert str(split.value) == str(stacked.value)
    monkeypatch.undo()
    assert len(calls) == 2  # one SVD of [W | T] per call


# ------------------------------------ G_X from the repeated floor of W


def _count_stacked_qrs(monkeypatch, d):
    """Shapes of the QRs of the (n + m) x n matrix ``[S; U^T T]`` (the QR route)."""
    calls = _count_calls(monkeypatch, "qr")
    return lambda: [shape for shape in calls if shape == (d.n + d.m, d.n)]


def _spiked_partition(n, q, t, seed=0):
    rng = Seed(seed).rng(n)
    w_svd = gen_covariates(CovariateConfig(model="spiked"), n, q, rng)
    if t == "ones":
        block = np.ones((n, 1))
    else:
        block = np.column_stack([np.arange(n) % 3 == 0, np.ones(n)]).astype(float)
    return DesignPartition(w_svd, block)


@pytest.mark.parametrize("t", ["ones", "treatment"])
@pytest.mark.parametrize("n, q", [(20, 99), (60, 99), (80, 98), (99, 99)])
def test_spiked_full_map_takes_the_floor_route(monkeypatch, n, q, t):
    d = _spiked_partition(n, q, t)
    x = d.stacked()
    bound = 10 * d.n * np.linalg.cond(x) * np.finfo(float).eps
    ref_op = full_operator(x).matrix
    ref_row = np.linalg.pinv(x)[d.q]
    qrs = _count_stacked_qrs(monkeypatch, d)
    op = full_operator(d).matrix
    row = d.full_gram_inverse() @ d.t[:, 0]  # the ate trial's full row
    monkeypatch.undo()
    assert qrs() == []
    assert np.max(np.abs(op - ref_op)) <= bound * np.max(np.abs(ref_op))
    assert np.max(np.abs(row - ref_row)) <= bound * np.max(np.abs(ref_row))


def _floor_partition(s, t, seed=5, q=20):
    """``W`` born factored with singular values ``s`` (n x q) and a ``T`` that is
    a floor direction (``"floor"``), the top direction (``"top"``),
    ``1e4 [1, alternating]`` (``"large"``) or the top direction scaled to
    ``s_1`` plus a floor direction (``"spike-sized"``)."""
    from pregols.linalg import Svd

    n = s.size
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((n, n)))
    vt = np.linalg.qr(rng.standard_normal((q, n)))[0].T
    w_svd = Svd.from_factors((u * s) @ vt, u, s)
    if t == "floor":
        block = u[:, -1:]
    elif t == "top":
        block = u[:, :1]
    elif t == "spike-sized":
        block = s[0] * u[:, :1] + u[:, -1:]
    else:
        block = 1e4 * np.column_stack([np.ones(n), (-1.0) ** np.arange(n)])
    return DesignPartition(w_svd, block)


@pytest.mark.parametrize("t", ["floor", "top", "large", "spike-sized"])
@pytest.mark.parametrize("c", [1e2, 1e4, 1e6, 1e8])
def test_full_gram_inverse_on_a_floor_matches_the_exact_inverse(monkeypatch, c, t):
    # s = (c, c/3, 1, ..., 1): spikes far above a floor of multiplicity 10 > m.
    # A spike-sized T makes sigma^2 I + J^T J as ill conditioned as X X^T:
    # a Cholesky of it misses the bound from c = 1e6 and fails at c = 1e8
    d = _floor_partition(np.array([c, c / 3] + [1.0] * 10), t)
    x = d.stacked()
    bound = 10 * d.n * np.linalg.cond(x) * np.finfo(float).eps
    want = full_gram_inverse_exact(x)
    qrs = _count_stacked_qrs(monkeypatch, d)
    got = d.full_gram_inverse()
    monkeypatch.undo()
    assert qrs() == []
    assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want))


def _qr_route_partitions():
    rng = Seed(8).rng(0)
    for model in ("standard_normal", "geometric"):
        w_svd = gen_covariates(CovariateConfig(model=model), 12, 20, rng)
        yield model, DesignPartition(w_svd, np.ones((12, 1)))
    yield "weak direction", DesignPartition(*_weak_direction_design(1e6))
    # a floor of multiplicity exactly m = 2 is not an eigenvalue of X X^T
    s = np.array([50.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.5, 2.0, 1.0, 1.0])
    yield "floor of multiplicity m", _floor_partition(s, "large")


def test_full_gram_inverse_takes_the_qr_route_without_a_repeated_floor(monkeypatch):
    for name, d in _qr_route_partitions():
        x = d.stacked()
        bound = 10 * d.n * np.linalg.cond(x) * np.finfo(float).eps
        want = full_gram_inverse_exact(x)
        qrs = _count_stacked_qrs(monkeypatch, d)
        got = d.full_gram_inverse()
        full_operator(d)
        monkeypatch.undo()
        assert len(qrs()) == 2, name  # one per call
        assert np.max(np.abs(got - want)) <= bound * np.max(np.abs(want)), name


# ------------------------------------------- wc and the split row in n-space


def _assert_n_space_matches_q_space(d, bound):
    ys = np.random.default_rng(7).standard_normal((20, d.n))
    wc_map, split_rows = split_qspace(d.w, d.t)
    op = residual_operator("wc", d)
    assert op.matrix.shape == (d.n - d.m, d.n)
    r = ys @ wc_map.T
    want = np.einsum("ij,ij->i", r, r) / np.sum(wc_map * wc_map)
    got = np.array([op.estimate(y) for y in ys])
    assert np.max(np.abs(got - want)) <= bound * np.max(want)
    want_row = split_rows[0]
    row = d.tau_map()[0]  # the ate trial's split row
    assert np.max(np.abs(row - want_row)) <= bound * np.max(np.abs(want_row))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("m", [1, 2, 3])
def test_wc_and_split_row_match_the_q_space_forms(seed, m):
    d = fixture_partition(seed=seed, n=10, q=17, m=m)
    cond = np.linalg.cond(d.w)
    _assert_n_space_matches_q_space(d, 10 * d.n * cond * np.finfo(float).eps)


@pytest.mark.parametrize("t", ["ones", "treatment"])
@pytest.mark.parametrize("cond", [1e4, 1e6, 1e8])
def test_wc_and_split_row_when_t_lies_along_the_weakest_direction(t, cond):
    w, _ = weak_constant_direction_w(cond, np.random.default_rng(3))
    block = np.ones((10, 1))
    if t == "treatment":
        block = np.column_stack([np.arange(10) % 3 == 0, np.ones(10)]).astype(float)
    d = DesignPartition(w, block)
    _assert_n_space_matches_q_space(d, d.n * cond * np.finfo(float).eps)


def test_partition_refuses_a_tolerance_under_which_w_loses_rank():
    # at 1e-3 the 1e-4 direction of W is rank noise: the partition is refused
    # where it is built, so no estimator can truncate W^+ under that cutoff
    w, _ = weak_constant_direction_w(1e4, np.random.default_rng(3))
    with pytest.raises(RankAssumptionError, match="w must have full row rank 10"):
        DesignPartition(w, np.ones((10, 1)), tol=RankTolerance(relative_cutoff=1e-3))
