import numpy as np
import pytest

from pregols import (
    ESTIMATOR_IDS,
    CovariateConfig,
    DesignPartition,
    GaussMarkovTruth,
    InvalidInputError,
    Seed,
    gen_ate_dataset,
    gen_ate_design,
    gen_covariates,
    gen_response,
    numeric_rank,
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


@pytest.mark.parametrize("size", [None, 1, 7, (3, 4), (80, 99), 0, (0, 3)])
def test_standard_normal_matches_the_integer_uniform_formula(size):
    # rng.random() + 2^-54 is (j + 0.5) / 2^53 for the j that
    # integers(0, 2^53) draws: equal values, type and stream state
    for seed in range(20):
        rng, ref = Seed(seed).rng(3), Seed(seed).rng(3)
        got, want = standard_normal(rng, size), standard_normal_from_integers(ref, size)
        assert type(got) is type(want)
        assert np.array_equal(np.asarray(got).view(np.uint64),
                              np.asarray(want).view(np.uint64))
        assert rng.bit_generator.state == ref.bit_generator.state


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
    cfg = CovariateConfig(model="spiked", n=6, q=12, k_spikes=0, sigma_x=1.5)
    w = gen_covariates(cfg, Seed(6).rng(0)).a
    assert np.max(np.abs(w @ w.T - 1.5**2 * np.eye(6))) <= 1e-8


_ROOT_CASES = {
    "paper-sim": dict(n=80, q=99),
    "paper-ate": dict(n=80, q=98, sigma_x=0.7),
    "no-spikes": dict(n=6, q=12, k_spikes=0, sigma_x=1.5),
    "k-above-q": dict(n=4, q=10, k_spikes=12, sigma_x=2.0),
    "zero-strength": dict(n=9, q=30, k_spikes=3, lambda_range=(0.0, 0.0)),
}


def _assert_root_matches_oracle(cfg, seed):
    got = dgp_module._spiked_covariance(cfg, Seed(seed).rng(0))[0]
    want = spiked_root_eigh(cfg, Seed(seed).rng(0))
    scale = np.linalg.norm(want, 2)
    assert np.linalg.norm(got - want, 2) <= 10 * cfg.q * np.finfo(float).eps * scale


@pytest.mark.parametrize("case", sorted(_ROOT_CASES))
def test_spiked_root_matches_eigh_oracle(case):
    cfg = CovariateConfig(model="spiked", **_ROOT_CASES[case])
    for seed in range(5):
        _assert_root_matches_oracle(cfg, seed)


def test_spiked_root_with_repeated_spike_direction(monkeypatch):
    # two equal columns of V make R singular; A = I + R Lambda R^T stays
    # positive definite and the root still matches the dense one
    real = dgp_module.standard_normal
    repeats = []

    def repeated(rng, size=None):
        out = real(rng, size)
        if size == (40, 4):
            out[:, 2] = out[:, 0]
            repeats.append(size)
        return out

    monkeypatch.setattr(dgp_module, "standard_normal", repeated)
    cfg = CovariateConfig(model="spiked", n=20, q=40, k_spikes=4)
    _assert_root_matches_oracle(cfg, 3)
    assert len(repeats) == 2  # the library's draw and the oracle's


@pytest.mark.parametrize("case", sorted(_ROOT_CASES))
def test_spiked_draw_consumes_the_stream_like_the_dense_root(case):
    # the spikes, then the orthonormal rows: the generator ends where the
    # dense construction leaves it, so every later draw is unchanged; the
    # public generator keeps the draw's W bit for bit
    cfg = CovariateConfig(model="spiked", **_ROOT_CASES[case])
    lib_rng, ref_rng, pub_rng = Seed(21).rng(2), Seed(21).rng(2), Seed(21).rng(2)
    w = dgp_module._draw_covariates(cfg, lib_rng).a
    root = spiked_root_eigh(cfg, ref_rng)
    want = orthonormal_rows(cfg.n, cfg.q, ref_rng) @ root
    assert lib_rng.bit_generator.state == ref_rng.bit_generator.state
    assert np.array_equal(gen_covariates(cfg, pub_rng).a, w)
    assert pub_rng.bit_generator.state == lib_rng.bit_generator.state
    scale = np.linalg.norm(root, 2)
    assert np.linalg.norm(w - want, 2) <= 10 * cfg.q * np.finfo(float).eps * scale


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
    cfg = CovariateConfig(**_FACTOR_CASES[case])
    eps = np.finfo(float).eps
    for seed in range(5):
        f = gen_covariates(cfg, Seed(seed).rng(0))
        bound = 10 * cfg.q * eps * np.linalg.norm(f.a, 2)
        assert f.u.shape == (cfg.n, cfg.n) and f.vt.shape == (cfg.n, cfg.q)
        assert np.linalg.norm((f.u * f.s) @ f.vt - f.a, 2) <= bound
        assert np.linalg.norm(f.u.T @ f.u - np.eye(cfg.n), 2) <= bound
        assert np.linalg.norm(f.vt @ f.vt.T - np.eye(cfg.n), 2) <= bound
        assert np.all(np.diff(f.s) <= 0.0)
        assert np.max(np.abs(f.s - dense_svd(f.a).s)) <= bound


@pytest.mark.parametrize("model", ["spiked", "geometric"])
@pytest.mark.parametrize("n", [20, 60, 80, 99])
def test_factored_partition_matches_the_dense_svd_partition(model, n):
    # every operator and W^+ from the built factors equal those from an SVD
    # of W; the wc map is compared through R^T R, since F^T is defined up to
    # a left isometry (the spiked model repeats sigma_x n - k times)
    cfg = CovariateConfig(model=model, n=n, q=99)
    for seed in range(3):
        rng = Seed(seed).rng(n)
        f = gen_covariates(cfg, rng)
        t = np.column_stack([rng.random(n) < 0.5, np.ones(n)]).astype(float)
        built = DesignPartition(f, t)
        dense = DesignPartition(dense_svd(f.a), t)
        pairs = [(built.w_svd.pinv(), dense.w_svd.pinv())]
        for est in ESTIMATOR_IDS:
            got, want = residual_operator(est, built), residual_operator(est, dense)
            pairs.append((got.matrix.T @ got.matrix, want.matrix.T @ want.matrix))
            pairs.append((np.array(got.denominator), np.array(want.denominator)))
            if est != "wc":
                pairs.append((got.matrix, want.matrix))
        for got, want in pairs:
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_geometric_singular_values_exact():
    cfg = CovariateConfig(model="geometric", n=5, q=11, lambda_geo=1.3, rho=0.9)
    w = gen_covariates(cfg, Seed(7).rng(0)).a
    target = 1.3 * 0.9 ** (np.arange(1, 6) / 2.0)
    got = np.sort(np.linalg.svd(w, compute_uv=False))[::-1]
    assert np.max(np.abs(got - target)) <= 1e-8


def test_spiked_spectrum_has_k_large_eigenvalues():
    # at (n, q) = (80, 99) with spikes in [10, 20], exactly k compressed
    # spikes exceed 5 while the isotropic bulk stays at sigma_x^2 = 1
    cfg = CovariateConfig(model="spiked", n=80, q=99)
    rng = Seed(8).rng(0)
    counts = []
    for _ in range(10):
        w = gen_covariates(cfg, rng).a
        evals = np.linalg.eigvalsh(w @ w.T)
        counts.append(int(np.sum(evals > 5.0)))
    assert np.mean(counts) == cfg.k_spikes


def test_standard_normal_model_full_rank():
    cfg = CovariateConfig(model="standard_normal", n=10, q=15)
    rng = Seed(9).rng(0)
    for _ in range(20):
        assert numeric_rank(gen_covariates(cfg, rng).a) == 10


def test_gen_covariates_resamples_on_rank_failure(monkeypatch, caplog):
    # the rank check is the rank of the thin SVD that the design keeps
    cfg = CovariateConfig(model="standard_normal", n=4, q=6)
    calls = {"n": 0}

    class FlakySvd(dgp_module.Svd):
        __slots__ = ()

        def rank(self, tol=None):
            calls["n"] += 1
            return 0 if calls["n"] == 1 else super().rank(tol)

    monkeypatch.setattr(dgp_module, "Svd", FlakySvd)
    with caplog.at_level("WARNING", logger="pregols.dgp"):
        w = dgp_module.gen_covariates(cfg, Seed(10).rng(0))
    assert w.a.shape == (4, 6)
    assert calls["n"] == 2
    assert caplog.messages == ["resampled covariates 1 time(s) after rank failures"]


def test_covariate_config_validation():
    with pytest.raises(InvalidInputError):
        CovariateConfig(model="lognormal", n=4, q=8)
    with pytest.raises(InvalidInputError):
        CovariateConfig(model="spiked", n=9, q=8)
    with pytest.raises(InvalidInputError):
        CovariateConfig(model="geometric", n=4, q=8, rho=1.0)
    with pytest.raises(InvalidInputError):
        CovariateConfig(model="spiked", n=4, q=8, sigma_x=0.0)
    for bad in ({"sigma_x": np.inf}, {"sigma_x": np.nan}, {"k_spikes": True},
                {"lambda_range": (0.0, np.inf)}, {"lambda_range": (np.nan, 1.0)},
                {"lambda_geo": np.inf}, {"lambda_geo": np.nan}):
        with pytest.raises(InvalidInputError):
            CovariateConfig(model="spiked", n=4, q=8, **bad)


def test_gen_response_noise_free():
    rng = Seed(11).rng(0)
    w = standard_normal(rng, (5, 7))
    beta1 = np.arange(7, dtype=float) / 7
    y = gen_response(w, beta1, 2.0, 0.0, rng)
    assert np.array_equal(y, w @ beta1 + 2.0)


def test_gen_response_noise_is_centered():
    rng = Seed(12).rng(0)
    w = standard_normal(rng, (4, 6))
    beta1 = np.full(6, 0.5)
    draws = 10_000
    acc = np.zeros(4)
    for _ in range(draws):
        acc += gen_response(w, beta1, 1.0, 1.0, rng) - (w @ beta1 + 1.0)
    assert np.max(np.abs(acc / draws)) <= 3.0 / np.sqrt(draws)


def test_gen_response_validates():
    rng = Seed(13).rng(0)
    w = standard_normal(rng, (4, 6))
    with pytest.raises(InvalidInputError):
        gen_response(w, np.ones(5), 0.0, 1.0, rng)
    with pytest.raises(InvalidInputError):
        gen_response(w, np.ones(6), 0.0, -1.0, rng)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_noise_scales_must_be_nonnegative_and_finite(bad):
    rng = Seed(13).rng(1)
    w = standard_normal(rng, (4, 6))
    with pytest.raises(InvalidInputError, match="sigma must be nonnegative and finite"):
        gen_response(w, np.ones(6), 0.0, bad, rng)
    with pytest.raises(InvalidInputError, match="noise_sd must be nonnegative and finite"):
        gen_ate_dataset(10, 20, 0.0, rng, noise_sd=bad)
    with pytest.raises(InvalidInputError, match="sigma2 must be positive and finite"):
        GaussMarkovTruth(np.ones(6), sigma2=bad)
    if not np.isfinite(bad):
        # the intercept and the effect may be negative, but not non-finite
        with pytest.raises(InvalidInputError, match="beta0 must be finite"):
            gen_response(w, np.ones(6), bad, 1.0, rng)
        with pytest.raises(InvalidInputError, match="tau must be finite"):
            gen_ate_dataset(10, 20, bad, rng)


def test_ate_dataset_noise_free_hook():
    rng = Seed(14).rng(0)
    w, d, y = gen_ate_dataset(10, 20, 0.0, rng, noise_sd=0.0)
    alpha = np.full(20, 22**-0.5)
    assert np.array_equal(y, w @ alpha + 1.0)
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
