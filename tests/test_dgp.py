import numpy as np
import pytest
from scipy.special import ndtri

from pregols import (
    ESTIMATOR_IDS,
    CovariateConfig,
    DesignPartition,
    GaussMarkovTruth,
    InvalidInputError,
    RankAssumptionError,
    RankTolerance,
    Seed,
    Svd,
    fit_partial,
    gen_ate_dataset,
    gen_ate_design,
    gen_covariates,
    orthonormal_rows,
    residual_operator,
    splitmix64,
    standard_normal,
)
from pregols import dgp as dgp_module

from oracles import dense_svd, spiked_root_eigh, standard_normal_from_integers


def test_splitmix64_is_stable():
    # frozen reference values of the documented mixing function
    assert splitmix64(0) == 0xE220A8397B1DCDAF
    assert splitmix64(1) == 0x910A2DEC89025CC1
    assert splitmix64(2) == 0x975835DE1C9756CE


def test_seed_streams_deterministic_and_distinct():
    s = Seed(42)
    a = standard_normal(s.rng(3), (4, 3))
    b = standard_normal(s.rng(3), (4, 3))
    c = standard_normal(s.rng(4), (4, 3))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert Seed(42).stream_seed(7) == Seed(42).stream_seed(7)
    assert Seed(42).stream_seed(7) != Seed(43).stream_seed(7)
    # a numpy integer index is that index (the stride product stays a Python int)
    assert Seed(42).stream_seed(np.int64(7)) == Seed(42).stream_seed(7)


def test_seed_validation():
    with pytest.raises(InvalidInputError):
        Seed(-1)
    with pytest.raises(InvalidInputError):
        Seed(1 << 64)
    with pytest.raises(InvalidInputError):
        Seed(0).rng(-2)


def test_standard_normal_block_continues_the_stream():
    # one (k, n) block is k sequential length-n draws, bit for bit, and
    # leaves the generator where the sequential calls leave it
    block_rng, seq_rng = Seed(11).rng(5), Seed(11).rng(5)
    block = standard_normal(block_rng, (7, 13))
    rows = np.stack([standard_normal(seq_rng, 13) for _ in range(7)])
    assert np.array_equal(block, rows)
    assert block_rng.bit_generator.state == seq_rng.bit_generator.state
    assert standard_normal(block_rng) == standard_normal(seq_rng)


@pytest.mark.parametrize("size", [None, (), 1, 7, (3, 4), (80, 99), 0, (0, 3)])
def test_standard_normal_matches_the_integer_uniform_formula(size):
    # rng.random() + 2^-54 is (j + 0.5) / 2^53 for the j that
    # integers(0, 2^53) draws: equal values, type and stream state; the
    # in-place transform equals the out-of-place ndtri(random() + 2^-54)
    for seed in range(20):
        rng, ref, plain = Seed(seed).rng(3), Seed(seed).rng(3), Seed(seed).rng(3)
        got, want = standard_normal(rng, size), standard_normal_from_integers(ref, size)
        out_of_place = ndtri(plain.random(size) + 2.0**-54)
        if size is None:
            out_of_place = float(out_of_place)
        assert type(got) is type(want) is type(out_of_place)
        for other in (want, out_of_place):
            assert np.array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(other).view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state == plain.bit_generator.state


def test_standard_normal_moments():
    x = standard_normal(Seed(1).rng(0), 100_000)
    assert abs(x.mean()) < 0.02
    assert abs(x.std() - 1.0) < 0.02
    assert np.all(np.isfinite(x))


def test_orthonormal_rows_orthonormal():
    u = orthonormal_rows(5, 9, Seed(2).rng(0))
    assert np.max(np.abs(u @ u.T - np.eye(5))) <= 1e-10


def test_orthonormal_rows_square_is_orthogonal():
    u = orthonormal_rows(6, 6, Seed(3).rng(0))
    assert abs(abs(np.linalg.det(u)) - 1.0) <= 1e-8


def test_orthonormal_rows_entry_moments():
    # mean squared entry of a Haar-like row frame is 1/q
    q = 30
    rng = Seed(4).rng(0)
    acc = 0.0
    draws = 1000
    for _ in range(draws):
        u = orthonormal_rows(3, q, rng)
        acc += float(np.mean(u**2))
    assert abs(acc / draws - 1.0 / q) <= 0.05 / q


def test_orthonormal_rows_requires_wide():
    with pytest.raises(InvalidInputError):
        orthonormal_rows(5, 3, Seed(5).rng(0))


def test_spiked_no_spikes_is_isotropic():
    cfg = CovariateConfig(model="spiked", k_spikes=0, sigma_x=1.5)
    w = gen_covariates(cfg, 6, 12, Seed(6).rng(0)).a
    assert np.max(np.abs(w @ w.T - 1.5**2 * np.eye(6))) <= 1e-8


_ROOT_CASES = {
    "paper-sim": dict(n=80, q=99),
    "paper-ate": dict(n=80, q=98, sigma_x=0.7),
    "no-spikes": dict(n=6, q=12, k_spikes=0, sigma_x=1.5),
    "k-above-q": dict(n=4, q=10, k_spikes=12, sigma_x=2.0),
    "zero-strength": dict(n=9, q=30, k_spikes=3, lambda_range=(0.0, 0.0)),
}


def _model_and_shape(n, q, model="spiked", **settings):
    """A case's covariate model and the n x q shape it is drawn at."""
    return CovariateConfig(model, **settings), n, q


def _assert_root_matches_oracle(cfg, n, q, seed):
    # the root is never formed: the drawn W = U_h Sigma^{1/2} is held to the
    # rows U_h times the dense root, both drawn from one stream in order
    got = dgp_module._draw_covariates(cfg, n, q, Seed(seed).rng(0)).a
    ref_rng = Seed(seed).rng(0)
    root = spiked_root_eigh(cfg, q, ref_rng)
    want = orthonormal_rows(n, q, ref_rng) @ root
    scale = np.linalg.norm(root, 2)
    assert np.linalg.norm(got - want, 2) <= 10 * q * np.finfo(float).eps * scale


@pytest.mark.parametrize("case", sorted(_ROOT_CASES))
def test_spiked_root_matches_eigh_oracle(case):
    cfg, n, q = _model_and_shape(**_ROOT_CASES[case])
    for seed in range(5):
        _assert_root_matches_oracle(cfg, n, q, seed)


def test_spiked_root_with_repeated_spike_direction(monkeypatch):
    # two equal columns of V make R singular; A = I + R Lambda R^T stays
    # positive definite and the draw still matches the dense root's
    real = dgp_module.standard_normal
    repeats = []

    def repeated(rng, size=None):
        out = real(rng, size)
        if size == (40, 4):
            out[:, 2] = out[:, 0]
            repeats.append(size)
        return out

    monkeypatch.setattr(dgp_module, "standard_normal", repeated)
    cfg = CovariateConfig(model="spiked", k_spikes=4)
    _assert_root_matches_oracle(cfg, 20, 40, 3)
    assert len(repeats) == 2  # the library's draw and the oracle's


def test_spiked_covariance_refuses_a_nan_strength(monkeypatch):
    # Sigma is positive definite when every A = 1 + e^2 is; the guard reads
    # the strengths e of the spike block's SVD, and a NaN one fails it
    svd = np.linalg.svd

    def nan_strengths(a, *args, **kwargs):
        u, s, vt = svd(a, *args, **kwargs)
        return u, np.full_like(s, np.nan), vt

    monkeypatch.setattr(np.linalg, "svd", nan_strengths)
    cfg = CovariateConfig(model="spiked")
    with pytest.raises(RankAssumptionError, match="not positive definite"):
        dgp_module._spiked_covariance(cfg, 8, Seed(1).rng(0))


def test_a_draw_refuses_a_shape_before_drawing():
    # the shape is the draw's, checked before the stream is read: n must be
    # an integer (not a float, a bool or a 0-d array) and at most q
    rng = Seed(1).rng(0)
    state = rng.bit_generator.state
    for n in (7.0, True, np.array(4)):
        with pytest.raises(InvalidInputError, match="n and q must be integers"):
            gen_covariates(CovariateConfig("spiked"), n, 9, rng)
    with pytest.raises(InvalidInputError, match="need 1 <= n <= q"):
        gen_covariates(CovariateConfig("spiked"), 10, 9, rng)
    with pytest.raises(InvalidInputError, match="n and q must be integers"):
        gen_ate_design(np.array(4), 9, rng)
    assert rng.bit_generator.state == state


def test_covariate_config_is_the_model_alone():
    # the settings are keyword-only, so an old positional shape cannot be
    # read as sigma_x and k_spikes
    with pytest.raises(TypeError):
        CovariateConfig("spiked", 80, 98)
    cfg = CovariateConfig("spiked", lambda_range=[1.0, 2.0])
    assert cfg == CovariateConfig("spiked", lambda_range=(1.0, 2.0))
    assert isinstance(cfg.lambda_range, tuple)
    assert not {"n", "q"} & set(vars(cfg))


@pytest.mark.parametrize("case", sorted(_ROOT_CASES))
def test_spiked_draw_consumes_the_stream_like_the_dense_root(case):
    # the spikes, then the orthonormal rows: the generator ends where the
    # dense construction leaves it, so every later draw is unchanged; the
    # public generator keeps the draw's W bit for bit
    cfg, n, q = _model_and_shape(**_ROOT_CASES[case])
    lib_rng, ref_rng, pub_rng = Seed(21).rng(2), Seed(21).rng(2), Seed(21).rng(2)
    w = dgp_module._draw_covariates(cfg, n, q, lib_rng).a
    root = spiked_root_eigh(cfg, q, ref_rng)
    want = orthonormal_rows(n, q, ref_rng) @ root
    assert lib_rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(gen_covariates(cfg, n, q, pub_rng).a, w)
    assert pub_rng.bit_generator.state == lib_rng.bit_generator.state
    scale = np.linalg.norm(root, 2)
    assert np.linalg.norm(w - want, 2) <= 10 * q * np.finfo(float).eps * scale


_FACTOR_CASES = {
    **{f"spiked-{name}": dict(model="spiked", **kw) for name, kw in _ROOT_CASES.items()},
    "spiked-k-above-n": dict(model="spiked", n=5, q=30, k_spikes=7),
    "geometric": dict(model="geometric", n=60, q=99),
    "geometric-square": dict(model="geometric", n=7, q=7, lambda_geo=1.3, rho=0.9),
}


@pytest.mark.parametrize("case", sorted(_FACTOR_CASES))
def test_covariates_are_born_factored(case):
    # the spiked and geometric draws build their thin SVD; it reconstructs
    # W, has orthonormal factors and the singular values of a dense SVD
    cfg, n, q = _model_and_shape(**_FACTOR_CASES[case])
    eps = np.finfo(float).eps
    for seed in range(5):
        f = gen_covariates(cfg, n, q, Seed(seed).rng(0))
        bound = 10 * q * eps * np.linalg.norm(f.a, 2)
        assert f.u.shape == (n, n) and f.vt.shape == (n, q)
        assert np.linalg.norm((f.u * f.s) @ f.vt - f.a, 2) <= bound
        assert np.linalg.norm(f.u.T @ f.u - np.eye(n), 2) <= bound
        assert np.linalg.norm(f.vt @ f.vt.T - np.eye(n), 2) <= bound
        assert np.all(np.diff(f.s) <= 0.0)
        assert np.max(np.abs(f.s - dense_svd(f.a).s)) <= bound


@pytest.mark.parametrize("model", ["spiked", "geometric"])
@pytest.mark.parametrize("n", [20, 60, 80, 99])
def test_factored_partition_matches_the_dense_svd_partition(model, n):
    # every operator and W^+ from the built factors equal those from an SVD
    # of W; the w and wc maps are compared through R^T R, since U_T^T is
    # defined up to signs and F^T up to a left isometry (the spiked model
    # repeats sigma_x n - k times)
    cfg = CovariateConfig(model=model)
    for seed in range(3):
        rng = Seed(seed).rng(n)
        f = gen_covariates(cfg, n, 99, rng)
        t = np.column_stack([rng.random(n) < 0.5, np.ones(n)]).astype(float)
        built = DesignPartition(f, t)
        dense = DesignPartition(dense_svd(f.a), t)
        pairs = [(built.w_svd.pinv(), dense.w_svd.pinv())]
        for est in ESTIMATOR_IDS:
            got, want = residual_operator(est, built), residual_operator(est, dense)
            pairs.append((got.matrix.T @ got.matrix, want.matrix.T @ want.matrix))
            pairs.append((np.array(got.denominator), np.array(want.denominator)))
            if est not in ("w", "wc"):
                pairs.append((got.matrix, want.matrix))
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("model", ["spiked", "geometric"])
@pytest.mark.parametrize("n", [20, 80])
def test_fit_on_the_built_factors_matches_the_fit_on_a_dense_svd(model, n):
    # a born-factored draw, whose V^T = S^-1 U^T W is built when the fit
    # first reads it, fits as the SVD of W does: lambda to the fit's own
    # 8.8 n cond(W) eps (fit_partial), tau to the cond(W)^2 eps its problem
    # carries, on the treatment model's response
    cfg = CovariateConfig(model=model)
    eps = np.finfo(float).eps
    for seed in range(3):
        rng = Seed(seed).rng(n)
        f = gen_covariates(cfg, n, 99, rng)
        t = np.column_stack([rng.random(n) < 0.5, np.ones(n)]).astype(float)
        y = f.a @ np.full(99, 101**-0.5) + t @ [2.0, 1.0] + standard_normal(rng, n)
        got = fit_partial(DesignPartition(f, t), y)
        want = fit_partial(DesignPartition(Svd(f.a), t), y)
        cond = f.s[0] / f.s[-1]
        for g, w, c in ((got.lambda_hat, want.lambda_hat, cond),
                        (got.tau_hat, want.tau_hat, cond**2)):
            assert np.linalg.norm(g - w) <= 10 * n * c * eps * np.linalg.norm(w)


def test_geometric_singular_values_exact():
    cfg = CovariateConfig(model="geometric", lambda_geo=1.3, rho=0.9)
    w = gen_covariates(cfg, 5, 11, Seed(7).rng(0)).a
    target = 1.3 * 0.9 ** (np.arange(1, 6) / 2.0)
    got = np.sort(np.linalg.svd(w, compute_uv=False))[::-1]
    assert np.max(np.abs(got - target)) <= 1e-8


def test_spiked_spectrum_has_k_large_eigenvalues():
    # at (n, q) = (80, 99) with spikes in [10, 20], exactly k compressed
    # spikes exceed 5 while the isotropic bulk stays at sigma_x^2 = 1
    cfg = CovariateConfig(model="spiked")
    rng = Seed(8).rng(0)
    counts = []
    for _ in range(10):
        w = gen_covariates(cfg, 80, 99, rng).a
        evals = np.linalg.eigvalsh(w @ w.T)
        counts.append(int(np.sum(evals > 5.0)))
    assert np.mean(counts) == cfg.k_spikes


def test_standard_normal_model_full_rank():
    cfg = CovariateConfig(model="standard_normal")
    rng = Seed(9).rng(0)
    for _ in range(20):
        assert Svd(gen_covariates(cfg, 10, 15, rng).a).rank() == 10


def test_gen_covariates_resamples_on_rank_failure(monkeypatch, caplog):
    # the rank check is the rank of the thin SVD that the design keeps
    cfg = CovariateConfig(model="standard_normal")
    calls = {"n": 0}

    class FlakyDraw(dgp_module._Draw):
        __slots__ = ()

        def rank(self, tol=None):
            calls["n"] += 1
            return 0 if calls["n"] == 1 else super().rank(tol)

    monkeypatch.setattr(dgp_module, "_Draw", FlakyDraw)
    with caplog.at_level("WARNING", logger="pregols.dgp"):
        w = dgp_module.gen_covariates(cfg, 4, 6, Seed(10).rng(0))
    assert w.a.shape == (4, 6)
    assert calls["n"] == 2
    assert caplog.messages == ["resampled covariates 1 time(s) after rank failures"]


@pytest.mark.parametrize("draw", [
    lambda rng, tol: gen_covariates(CovariateConfig("standard_normal"), 3, 5, rng, tol),
    lambda rng, tol: gen_ate_design(3, 5, rng, tol),
])
def test_the_generators_decide_rank_under_the_tolerance_they_are_given(draw):
    # no 3 x 5 draw has all three singular values within 0.1% of each other,
    # so every draw fails a 0.999 cutoff and the generator gives up
    draw(Seed(2).rng(0), None)
    with pytest.raises(RankAssumptionError, match="failed the full-row-rank check 100 times"):
        draw(Seed(2).rng(0), RankTolerance(0.999))


def test_covariate_config_validation():
    with pytest.raises(InvalidInputError):
        CovariateConfig(model="lognormal")
    with pytest.raises(InvalidInputError):
        gen_covariates(CovariateConfig(model="spiked"), 9, 8, Seed(1).rng(0))
    with pytest.raises(InvalidInputError):
        CovariateConfig(model="geometric", rho=1.0)
    with pytest.raises(InvalidInputError):
        CovariateConfig(model="spiked", sigma_x=0.0)
    for bad in ({"sigma_x": np.inf}, {"sigma_x": np.nan}, {"k_spikes": True},
                {"lambda_range": (0.0, np.inf)}, {"lambda_range": (np.nan, 1.0)},
                {"lambda_geo": np.inf}, {"lambda_geo": np.nan}):
        with pytest.raises(InvalidInputError):
            CovariateConfig(model="spiked", **bad)


@pytest.mark.parametrize(
    "bad, message",
    [
        ({"sigma_x": "1"}, "sigma_x must be a real number"),
        ({"sigma_x": True}, "sigma_x must be a real number"),
        ({"sigma_x": 1 + 0j}, "sigma_x must be a real number"),
        ({"rho": "0.5"}, "rho must be a real number"),
        ({"lambda_geo": None}, "lambda_geo must be a real number"),
        ({"lambda_range": (1, "2")}, "lambda_range must be a pair of real numbers"),
        ({"lambda_range": (1,)}, "lambda_range must be a pair of real numbers"),
        ({"lambda_range": (1, 2, 3)}, "lambda_range must be a pair of real numbers"),
        ({"lambda_range": (False, 2)}, "lambda_range must be a pair of real numbers"),
        ({"lambda_range": 3}, "lambda_range must be a pair of real numbers"),
    ],
)
def test_covariate_parameters_must_be_real(bad, message):
    with pytest.raises(InvalidInputError, match=message):
        CovariateConfig(model="spiked", **bad)


def test_covariate_lambda_range_is_kept_as_a_tuple():
    cfg = CovariateConfig(model="spiked", lambda_range=[1, np.float64(2.5)])
    assert cfg.lambda_range == (1, 2.5) and isinstance(cfg.lambda_range, tuple)


@pytest.mark.parametrize("bad", [2.5, 4.0, "4", True, None])
def test_covariate_sizes_must_be_integers(bad):
    cfg = CovariateConfig(model="spiked")
    for n, q in ((bad, 8), (1, bad)):
        with pytest.raises(InvalidInputError, match="n and q must be integers"):
            gen_covariates(cfg, n, q, Seed(1).rng(0))
    gen_covariates(cfg, np.int64(4), 8, Seed(1).rng(0))  # numpy integers are integers


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_noise_scales_must_be_nonnegative_and_finite(bad):
    rng = Seed(13).rng(1)
    with pytest.raises(InvalidInputError, match="sigma2 must be positive and finite"):
        GaussMarkovTruth(np.ones(6), sigma2=bad)
    if not np.isfinite(bad):
        # the effect may be negative, but not non-finite
        with pytest.raises(InvalidInputError, match="tau must be finite"):
            gen_ate_dataset(10, 20, bad, rng)


def test_ate_dataset_replays_its_stream():
    # replaying the stream: the design draw, then n unit Gaussians of noise
    rng, replay = Seed(14).rng(0), Seed(14).rng(0)
    w, d, y = gen_ate_dataset(10, 20, 0.0, rng)
    w_svd, d_replay = gen_ate_design(10, 20, replay)
    alpha = np.full(20, 22**-0.5)
    assert np.array_equal(w, w_svd.a) and np.array_equal(d, d_replay)
    assert np.array_equal(y, w @ alpha + 1.0 + standard_normal(replay, 10))
    assert set(np.unique(d)) <= {0.0, 1.0}


def test_ate_dataset_treatment_balance():
    rng = Seed(15).rng(0)
    fractions = []
    for _ in range(20):
        _, d, _ = gen_ate_dataset(80, 98, 1.0, rng)
        fractions.append(d.mean())
    assert all(0.3 <= f <= 0.7 for f in fractions)


def test_ate_design_never_constant_treatment():
    rng = Seed(16).rng(0)
    for _ in range(50):
        _, d = gen_ate_design(4, 8, rng)
        assert 0.0 < d.mean() < 1.0


def test_ate_requires_wide():
    with pytest.raises(InvalidInputError):
        gen_ate_dataset(8, 8, 1.0, Seed(17).rng(0))


class _FixedUniforms:
    """A stand-in generator whose ``random`` returns ``j 2^-53`` for the given 53-bit ``j``."""

    def __init__(self, js):
        self.u = np.array(js, dtype=np.float64) * 2.0**-53

    def random(self, size=None):
        return float(self.u[0]) if size is None else self.u.reshape(size).copy()


def test_the_top_uniform_is_held_below_one():
    # j = 2^53 - 1 would round to u = 1.0 and give ndtri(1) = inf; it is held
    # at 1 - 2^-53 instead, and every other j keeps its bits
    top = (1 << 53) - 1
    js = [0, 1, 1 << 52, top - 1, top]
    got = standard_normal(_FixedUniforms(js), (5,))
    want = ndtri(np.array(js, dtype=np.float64) * 2.0**-53 + 2.0**-54)
    assert np.isinf(want[-1])
    assert np.array_equal(got[:-1].view(np.uint64), want[:-1].view(np.uint64))
    assert got[-1] == ndtri(1.0 - 2.0**-53) and np.isfinite(got[-1])
    assert standard_normal(_FixedUniforms([top])) == got[-1]

    class TopIntegers:
        def integers(self, lo, hi, size=None):
            return np.full(size, top) if size is not None else top

    assert standard_normal_from_integers(TopIntegers(), (2,))[0] == got[-1]


@pytest.mark.parametrize("model", ["spiked", "geometric"])
def test_a_factored_draw_forms_w_only_when_read(model, w_builds):
    # the partition and every operator read u and s; the first read of w
    # builds W, once, and its row sums are the draw's ones
    f = gen_covariates(CovariateConfig(model=model), 30, 99, Seed(4).rng(0))
    part = DesignPartition(f, np.ones((30, 1)))
    ops = [residual_operator(est, part) for est in ESTIMATOR_IDS]
    assert w_builds == [] and (part.n, part.q) == (30, 99) and len(ops) == 4
    w = part.w
    assert w_builds == [(30, 99)] and np.array_equal(w, f.a) and not w.flags.writeable
    assert part.w is w and w_builds == [(30, 99)]
    eps = np.finfo(float).eps
    assert np.max(np.abs(f.ones - w.sum(axis=1))) <= 10 * 99 * eps * np.abs(w).max()


def test_a_partition_checks_the_factors_it_reads_in_place_of_w():
    f = gen_covariates(CovariateConfig(model="spiked"), 6, 12, Seed(1).rng(0))
    u = f.u.copy()
    u[2, 3] = np.nan

    def forbidden():
        raise AssertionError("W was formed")

    bad = Svd.from_factors(((6, 12), forbidden), u, f.s)
    with pytest.raises(InvalidInputError, match="w contains non-finite entries"):
        DesignPartition(bad, np.ones((6, 1)))


@pytest.mark.parametrize("model", ["spiked", "geometric"])
@pytest.mark.parametrize("n", [20, 80])
def test_draws_without_dormqr_match_the_lapack_path(model, n, monkeypatch):
    # with no dormqr in numpy's library, Q is formed by np.linalg.qr and
    # multiplied; the draw's factors, row sums and W agree with the
    # Householder path to 10 q eps ||W||, and the stream is consumed alike
    from pregols import linalg

    if linalg._dormqr() is None:
        pytest.skip("numpy's LAPACK exports no dormqr")
    cfg = CovariateConfig(model=model)
    fast_rng, slow_rng = Seed(8).rng(n), Seed(8).rng(n)
    fast = gen_covariates(cfg, n, 99, fast_rng)
    monkeypatch.setattr(linalg, "_dormqr", lambda: None)
    slow = gen_covariates(cfg, n, 99, slow_rng)
    assert fast_rng.bit_generator.state == slow_rng.bit_generator.state
    scale = np.linalg.norm(slow.a, 2)
    bound = 10 * 99 * np.finfo(float).eps * scale
    for got, want in ((fast.a, slow.a), (fast.s, slow.s), (fast.ones, slow.ones)):
        assert np.max(np.abs(got - want)) <= bound
    gram = [(f.u * f.s**2) @ f.u.T for f in (fast, slow)]  # W W^T, whatever basis u takes
    assert np.max(np.abs(gram[0] - gram[1])) <= bound * scale
