from dataclasses import replace

import numpy as np
import pytest

from pregols import (
    CochranDesign,
    InvalidInputError,
    RankAssumptionError,
    RankTolerance,
    cochran_check,
    fit_partial,
    gen_ate_dataset,
    image_gap,
    ovb_decompose,
    pinv,
    Seed,
)

from oracles import nullspace_component, partial_blocks_projected, weak_constant_direction_w


def cochran_fits(d, y):
    """The long, short and auxiliary fits: split fits on the design's two partitions."""
    return fit_partial(d.long, y), fit_partial(d.short, y), fit_partial(d.short, d.u)


def random_design(rng, n, ell, r, m):
    return CochranDesign(
        rng.standard_normal((n, ell)),
        rng.standard_normal((n, r)),
        rng.standard_normal((n, m)),
    )


def test_long_fit_response_in_t_span():
    rng = np.random.default_rng(0)
    d = random_design(rng, 8, 12, 2, 1)
    c = np.array([1.7])
    fit = fit_partial(d.long, d.t @ c)
    assert np.max(np.abs(fit.lambda_hat)) <= 1e-10  # alpha and gamma
    assert np.allclose(fit.tau_hat, pinv(d.t) @ (d.t @ c), atol=1e-10)


def test_long_fit_interpolates():
    rng = np.random.default_rng(1)
    d = random_design(rng, 8, 12, 2, 1)
    y = rng.standard_normal(8)
    fit = fit_partial(d.long, y)
    alpha, gamma = fit.lambda_hat[:d.n_retained], fit.lambda_hat[d.n_retained:]
    resid = y - d.z @ alpha - d.u @ gamma - d.t @ fit.tau_hat
    assert np.max(np.abs(resid)) <= 1e-8 * (1 + np.max(np.abs(y)))


@pytest.mark.parametrize("n, ell, r, m", [(8, 12, 2, 1), (20, 93, 5, 2)])
def test_aux_fit_matches_the_projected_form(n, ell, r, m):
    rng = np.random.default_rng(n)
    d = random_design(rng, n, ell, r, m)
    fit = fit_partial(d.short, d.u)
    for got, want in zip((fit.lambda_hat, fit.tau_hat), partial_blocks_projected(d.z, d.t, d.u)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * (1.0 + np.max(np.abs(want)))


def test_long_fit_linearity():
    rng = np.random.default_rng(2)
    d = random_design(rng, 8, 12, 2, 1)
    y = rng.standard_normal(8)
    c = -3.5
    f1, f2 = fit_partial(d.long, y), fit_partial(d.long, c * y)
    assert np.allclose(f2.lambda_hat, c * f1.lambda_hat, atol=1e-8)
    assert np.allclose(f2.tau_hat, c * f1.tau_hat, atol=1e-8)


def test_short_fit_mirrors_long_properties():
    rng = np.random.default_rng(3)
    d = random_design(rng, 8, 12, 2, 1)
    z, t = d.z, d.t
    c = np.array([-0.4])
    fit = fit_partial(d.short, t @ c)
    assert np.max(np.abs(fit.lambda_hat)) <= 1e-10
    y = rng.standard_normal(8)
    fit = fit_partial(d.short, y)
    assert np.max(np.abs(y - z @ fit.lambda_hat - t @ fit.tau_hat)) <= 1e-8
    f2 = fit_partial(d.short, 2.0 * y)
    assert np.allclose(f2.lambda_hat, 2.0 * fit.lambda_hat, atol=1e-8)


def test_aux_fit_copy_of_t_gives_identity():
    rng = np.random.default_rng(4)
    z = rng.standard_normal((8, 12))
    t = rng.standard_normal((8, 2))
    d = CochranDesign(z, t, t)
    aux = fit_partial(d.short, d.u)
    assert np.max(np.abs(aux.lambda_hat)) <= 1e-10
    assert np.allclose(aux.tau_hat, np.eye(2), atol=1e-10)


def test_aux_fit_interpolates_and_separates_columns():
    rng = np.random.default_rng(5)
    z = rng.standard_normal((8, 12))
    t = rng.standard_normal((8, 1))
    u = rng.standard_normal((8, 3))
    d = CochranDesign(z, u, t)
    aux = fit_partial(d.short, d.u)
    assert np.max(np.abs(u - z @ aux.lambda_hat - t @ aux.tau_hat)) <= 1e-8
    for j in range(3):
        col = fit_partial(d.short, u[:, [j]])
        assert np.max(np.abs(col.lambda_hat[:, 0] - aux.lambda_hat[:, j])) <= 1e-10
        assert np.max(np.abs(col.tau_hat[:, 0] - aux.tau_hat[:, j])) <= 1e-10


@pytest.mark.parametrize("shape", [(8, 12, 2, 1), (10, 20, 3, 2), (20, 40, 5, 2)])
def test_cochran_identities_random(shape):
    rng = np.random.default_rng(sum(shape))
    for _ in range(10):
        d = random_design(rng, *shape)
        y = rng.standard_normal(shape[0])
        scale = 1.0 + np.max(np.abs(y))
        gaps = cochran_check(d, y)
        assert gaps.image_gap <= 1e-8 * scale
        assert gaps.coeff_gap <= 1e-8 * scale


def test_cochran_scaling():
    rng = np.random.default_rng(6)
    d = random_design(rng, 8, 12, 2, 1)
    y = rng.standard_normal(8)
    c = 100.0
    gaps = cochran_check(d, c * y)
    assert gaps.image_gap <= 1e-8 * c * (1 + np.max(np.abs(y)))
    assert gaps.coeff_gap <= 1e-8 * c * (1 + np.max(np.abs(y)))


def test_image_identity_for_perturbed_solutions():
    """The fitted-value identity holds for any solution-set members."""
    rng = np.random.default_rng(7)
    d = random_design(rng, 8, 12, 2, 1)
    ell, r, m = 12, 2, 1
    y = rng.standard_normal(8)
    long_fit, short_fit, aux_fit = cochran_fits(d, y)
    stacked_long = np.hstack([d.z, d.u, d.t])
    stacked_short = np.hstack([d.z, d.t])
    for _ in range(20):
        z1 = nullspace_component(stacked_long, rng.standard_normal(ell + r + m))
        z2 = nullspace_component(stacked_short, rng.standard_normal(ell + m))
        z3 = nullspace_component(stacked_short, rng.standard_normal((ell + m, r)))
        long_p = replace(
            long_fit,
            lambda_hat=long_fit.lambda_hat + z1[: ell + r],  # alpha then gamma
            tau_hat=long_fit.tau_hat + z1[ell + r :],
        )
        short_p = replace(
            short_fit,
            lambda_hat=short_fit.lambda_hat + z2[:ell],
            tau_hat=short_fit.tau_hat + z2[ell:],
        )
        aux_p = replace(
            aux_fit, lambda_hat=aux_fit.lambda_hat + z3[:ell], tau_hat=aux_fit.tau_hat + z3[ell:]
        )
        gap = image_gap(d, long_p, short_p, aux_p)
        assert gap <= 1e-8 * (1 + np.max(np.abs(y)))


def test_rank_validation():
    rng = np.random.default_rng(8)
    with pytest.raises(RankAssumptionError, match="retained block"):
        CochranDesign(
            rng.standard_normal((8, 6)),  # too narrow for full row rank
            rng.standard_normal((8, 2)),
            rng.standard_normal((8, 1)),
        )
    u = rng.standard_normal((8, 2))
    u[:, 1] = u[:, 0]
    with pytest.raises(RankAssumptionError, match="omitted block"):
        CochranDesign(rng.standard_normal((8, 12)), u, rng.standard_normal((8, 1)))


def test_rank_validation_of_a_wide_rank_deficient_z():
    # the short partition decides the rank of Z; the error still names z
    rng = np.random.default_rng(15)
    z = rng.standard_normal((8, 12))
    z[7] = z[6]
    with pytest.raises(RankAssumptionError, match="retained block z must have full row rank 8"):
        CochranDesign(z, rng.standard_normal((8, 2)), rng.standard_normal((8, 1)))
    t = rng.standard_normal((8, 2))
    t[:, 1] = t[:, 0]
    with pytest.raises(RankAssumptionError, match="unpenalized block t must have full column"):
        CochranDesign(rng.standard_normal((8, 12)), rng.standard_normal((8, 2)), t)
    d = random_design(rng, 8, 12, 2, 1)
    assert d.short.w_svd.a is d.z and d.short.t is d.t
    assert d.long.t_svd is d.short.t_svd
    assert np.array_equal(d.long.w, np.hstack([d.z, d.u]))
    assert np.allclose((d.short.w_svd.u * d.short.w_svd.s) @ d.short.w_svd.vt, d.z, atol=1e-13)


def _cochran_designs():
    rng = np.random.default_rng(16)
    for shape in [(8, 12, 2, 1), (10, 20, 3, 2), (20, 93, 5, 2)]:
        yield random_design(rng, *shape), rng.standard_normal(shape[0])
    dcol = np.array([1.0, 0, 1, 0, 1, 1, 0, 0, 1, 0])
    for cond in (1e2, 1e4, 1e6):
        # intercept along the weakest direction of Z, alone and with a treatment
        z, _ = weak_constant_direction_w(cond, rng, n=10, q=16)
        for t in (np.ones((10, 1)), np.column_stack([dcol, np.ones(10)])):
            yield CochranDesign(z, rng.standard_normal((10, 2)), t), rng.standard_normal(10)
    yield binary_design(rng, 20, 93, 5), rng.standard_normal(20)


def _assert_close(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))


def test_cochran_fits_are_readonly_and_interpolate():
    for d, y in _cochran_designs():
        long_fit, short_fit, aux_fit = cochran_fits(d, y)
        for fit in (long_fit, short_fit, aux_fit):
            assert not fit.lambda_hat.flags.writeable and not fit.tau_hat.flags.writeable
        assert aux_fit.lambda_hat.shape == (d.n_retained, d.n_omitted)
        assert aux_fit.tau_hat.shape == (d.n_unpenalized, d.n_omitted)
        scale = 1.0 + np.max(np.abs(y))
        assert long_fit.max_interp_residual <= 1e-8 * scale
        assert short_fit.max_interp_residual <= 1e-8 * scale
        assert aux_fit.max_interp_residual <= 1e-8 * (1.0 + np.max(np.abs(d.u)))


def test_fits_reuse_the_design_partitions(monkeypatch):
    # after construction the three fits factor only the n x m L^T T of their
    # partitions: Z, T and [Z | U] are never factored again
    for d, y in _cochran_designs():
        factored, real_svd = [], np.linalg.svd

        def counted_svd(a, *args, **kwargs):
            factored.append(np.array(a))
            return real_svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counted_svd)
        cochran_fits(d, y)
        monkeypatch.undo()
        assert [a.shape for a in factored] == [(d.n, d.n_unpenalized)] * 3
        # L = U S^-1 from the SVD each partition kept at construction
        for part, got in zip((d.long, d.short, d.short), factored):
            assert np.array_equal(got, (part.w_svd.u / part.w_svd.s).T @ d.t)


def test_design_partitions_keep_the_design_tolerance():
    rng = np.random.default_rng(18)
    tol = RankTolerance(relative_cutoff=1e-3)
    d = CochranDesign(
        rng.standard_normal((8, 12)), rng.standard_normal((8, 2)), rng.standard_normal((8, 1)),
        tol=tol,
    )
    assert d.short.tol is d.long.tol is d.tol is tol


def test_cochran_check_and_ovb_keep_their_values():
    for d, y in _cochran_designs():
        fits = cochran_fits(d, y)
        # both gaps are rounding noise, as they are from the separate fits
        gaps = cochran_check(d, y)
        noise = 1e-8 * (1.0 + np.max(np.abs(y)))
        assert image_gap(d, *fits) <= noise
        assert gaps.image_gap <= noise and gaps.coeff_gap <= noise
        if d.n_unpenalized != 2 or not np.all(d.t[:, 1] == 1.0):
            continue
        ovb = ovb_decompose(d, y)
        _assert_close(ovb.tau_long_d, fits[0].tau_hat[0])
        _assert_close(ovb.tau_short_d, fits[1].tau_hat[0])
        _assert_close(ovb.impact, fits[0].lambda_hat[d.n_retained:])
        _assert_close(ovb.imbalance, fits[2].tau_hat[0])


def test_wrong_length_response_names_the_length():
    rng = np.random.default_rng(17)
    d = binary_design(rng, 10, 16, 2)
    for fn in (cochran_check, ovb_decompose,
               lambda d, y: fit_partial(d.long, y), lambda d, y: fit_partial(d.short, y)):
        with pytest.raises(InvalidInputError, match="y has length 9, expected 10"):
            fn(d, rng.standard_normal(9))


# --------------------------------------------------------------------- ovb


def binary_design(rng, n, ell, r):
    dcol = (rng.random(n) < 0.5).astype(float)
    while dcol.std() == 0:
        dcol = (rng.random(n) < 0.5).astype(float)
    t = np.column_stack([dcol, np.ones(n)])
    return CochranDesign(
        rng.standard_normal((n, ell)), rng.standard_normal((n, r)), t
    )


def test_ovb_zero_impact_means_zero_bias():
    rng = np.random.default_rng(9)
    d = binary_design(rng, 10, 16, 2)
    y = d.t @ np.array([0.8, -0.2])  # long fit assigns nothing to u
    ovb = ovb_decompose(d, y)
    assert np.max(np.abs(ovb.impact)) <= 1e-10
    assert abs(ovb.bias) <= 1e-10


def test_ovb_bias_equals_imbalance_times_impact():
    rng = np.random.default_rng(10)
    for _ in range(10):
        d = binary_design(rng, 10, 16, 2)
        y = rng.standard_normal(10)
        ovb = ovb_decompose(d, y)
        assert abs(ovb.bias - float(ovb.imbalance @ ovb.impact)) <= 1e-8


def test_ovb_consistent_with_separate_fits():
    rng = np.random.default_rng(11)
    d = binary_design(rng, 10, 16, 2)
    y = rng.standard_normal(10)
    ovb = ovb_decompose(d, y)
    long_fit = fit_partial(d.long, y)
    short_fit = fit_partial(d.short, y)
    assert abs(ovb.tau_long_d - long_fit.tau_hat[0]) <= 1e-12
    assert abs(ovb.tau_short_d - short_fit.tau_hat[0]) <= 1e-12


def test_ovb_on_treatment_experiment_draw():
    # internal consistency on the experiment generator at effect 2
    rng = Seed(77).rng(0)
    w, dvec, y = gen_ate_dataset(20, 30, 2.0, rng)
    t = np.column_stack([dvec, np.ones(20)])
    d = CochranDesign(w[:, :24], w[:, 24:], t)
    ovb = ovb_decompose(d, y)
    assert abs(ovb.bias - (ovb.tau_short_d - ovb.tau_long_d)) <= 1e-12
    assert abs(ovb.bias - float(ovb.imbalance @ ovb.impact)) <= 1e-8


def test_ovb_requires_binary_treatment():
    rng = np.random.default_rng(12)
    t = np.column_stack([rng.standard_normal(10), np.ones(10)])
    d = CochranDesign(
        rng.standard_normal((10, 16)), rng.standard_normal((10, 2)), t
    )
    with pytest.raises(InvalidInputError, match="binary"):
        ovb_decompose(d, rng.standard_normal(10))


def test_ovb_requires_two_columns():
    rng = np.random.default_rng(13)
    d = random_design(rng, 10, 16, 2, 1)
    with pytest.raises(InvalidInputError, match="2 columns"):
        ovb_decompose(d, rng.standard_normal(10))


def test_constant_treatment_fails_rank_check():
    rng = np.random.default_rng(14)
    t = np.column_stack([np.ones(10), np.ones(10)])
    with pytest.raises(RankAssumptionError):
        CochranDesign(rng.standard_normal((10, 16)), rng.standard_normal((10, 2)), t)
