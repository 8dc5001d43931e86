"""Acceptance suite: one test per release criterion, at the stated tolerances.

Each test prints a single PASS line on success (run with ``pytest -s`` to see
them).  Statistical criteria are pinned to fixed seeds so the suite is
deterministic; runtimes are asserted against the stated budgets.
"""

import os
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

import pregols as pg

from oracles import loo_projector, min_norm_refit_full, nullspace_component, ridge_solve

SEED = 314  # pinned seed for the statistical criteria


def _report(name):
    print(f"[acceptance] {name}: PASS")


def random_partition(rng, n, q, m):
    return pg.DesignPartition(rng.standard_normal((n, q)), rng.standard_normal((n, m)))


def test_criterion_01_penrose_suite():
    """Four Penrose criteria at 1e-10 relative, 100 matrices per shape."""
    start = time.monotonic()
    rng = np.random.default_rng(SEED)
    for shape in [(3, 5), (10, 7), (50, 50), (80, 100)]:
        for _ in range(100):
            m = rng.standard_normal(shape)
            mp = pg.pinv(m)
            smax = float(np.linalg.svd(m, compute_uv=False)[0])
            scale = 1e-10 * max(1.0, smax)
            assert np.max(np.abs(m @ mp @ m - m)) <= scale
            assert np.max(np.abs(mp @ m @ mp - mp)) <= scale
            assert np.max(np.abs((m @ mp) - (m @ mp).T)) <= scale
            assert np.max(np.abs((mp @ m) - (mp @ m).T)) <= scale
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s budget"
    _report(f"criterion 1, Penrose suite ({elapsed:.1f}s)")


def test_criterion_02_interpolation_and_expression_equivalence():
    """Interpolation < 1e-8 and all four coefficient expressions agree pairwise."""
    start = time.monotonic()
    rng = np.random.default_rng(SEED + 1)
    for n, q, m in [(6, 10, 1), (20, 40, 2), (80, 99, 1)]:
        for _ in range(100):
            d = random_partition(rng, n, q, m)
            y = rng.standard_normal(n)
            scale = 1.0 + float(np.max(np.abs(y)))
            direct = pg.fit_partial(d, y)
            assert direct.max_interp_residual <= 1e-8 * scale
            fits = [pg.fit_partial_variant(d, y, name) for name in pg.PARTIAL_VARIANTS]
            for a in fits:
                for b in fits:
                    assert np.max(np.abs(a.lambda_hat - b.lambda_hat)) <= 1e-8 * scale
                    assert np.max(np.abs(a.tau_hat - b.tau_hat)) <= 1e-8 * scale
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s budget"
    _report(f"criterion 2, interpolation + expression equivalence ({elapsed:.1f}s)")


def test_criterion_03_ridge_limit():
    """Distance to the penalized solution shrinks monotonically, < 1e-3 at 1e-6."""
    rng = np.random.default_rng(SEED + 2)
    shapes = [(6, 10, 2), (8, 14, 1), (10, 18, 3), (12, 20, 2)]
    for trial in range(20):
        n, q, m = shapes[trial % len(shapes)]
        d = random_partition(rng, n, q, m)
        y = rng.standard_normal(n)
        fit = pg.fit_partial(d, y)
        dists = []
        for penalty in (1e-2, 1e-4, 1e-6):
            lam_r, tau_r = ridge_solve(d.w, d.t, y, penalty)
            dists.append(
                max(
                    float(np.max(np.abs(lam_r - fit.lambda_hat))),
                    float(np.max(np.abs(tau_r - fit.tau_hat))),
                )
            )
        assert dists[0] > dists[1] > dists[2]
        assert dists[2] < 1e-3
    _report("criterion 3, ridge limit")


def test_criterion_04_cochran_identities():
    """Coefficient and fitted-value identities at 1e-8, plus perturbed members."""
    start = time.monotonic()
    rng = np.random.default_rng(SEED + 3)
    for n, ell, r, m in [(8, 12, 2, 1), (10, 20, 3, 2), (20, 40, 5, 2)]:
        for rep in range(100):
            d = pg.CochranDesign(
                rng.standard_normal((n, ell)),
                rng.standard_normal((n, r)),
                rng.standard_normal((n, m)),
            )
            y = rng.standard_normal(n)
            scale = 1.0 + float(np.max(np.abs(y)))
            gaps = pg.cochran_check(d, y)
            assert gaps.image_gap <= 1e-8 * scale
            assert gaps.coeff_gap <= 1e-8 * scale
            if rep % 10 == 0:  # non-canonical members of each solution set
                long_fit, short_fit = pg.fit_partial(d.long, y), pg.fit_partial(d.short, y)
                aux_fit = pg.fit_partial(d.short, d.u)
                s_long = np.hstack([d.z, d.u, d.t])
                s_short = np.hstack([d.z, d.t])
                z1 = nullspace_component(s_long, rng.standard_normal(ell + r + m))
                z2 = nullspace_component(s_short, rng.standard_normal(ell + m))
                z3 = nullspace_component(s_short, rng.standard_normal((ell + m, r)))
                gap = pg.image_gap(
                    d,
                    replace(
                        long_fit,
                        lambda_hat=long_fit.lambda_hat + z1[: ell + r],  # alpha then gamma
                        tau_hat=long_fit.tau_hat + z1[ell + r :],
                    ),
                    replace(
                        short_fit,
                        lambda_hat=short_fit.lambda_hat + z2[:ell],
                        tau_hat=short_fit.tau_hat + z2[ell:],
                    ),
                    replace(
                        aux_fit,
                        lambda_hat=aux_fit.lambda_hat + z3[:ell],
                        tau_hat=aux_fit.tau_hat + z3[ell:],
                    ),
                )
                assert gap <= 1e-8 * scale
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"runtime {elapsed:.1f}s exceeds 30s budget"
    _report(f"criterion 4, omitted-variable identities ({elapsed:.1f}s)")


def test_criterion_05_loo_oracle_equivalence():
    """Closed-form refits match brute force at 1e-6 relative, 300+ pairs."""
    start = time.monotonic()
    rng = np.random.default_rng(SEED + 4)
    pairs = 0
    for trial in range(30):
        n, q, m = [(8, 14, 1), (10, 18, 2), (6, 9, 1)][trial % 3]
        d = random_partition(rng, n, q, m)
        y = rng.standard_normal(n)
        solver = pg.PartialLooSolver(d)
        res = solver.residuals(y)
        for i in range(n):
            lam_b, tau_b = pg.brute_force_refit(d, y, i)
            lam, tau = pg.loo_fit(d, y, i)
            scale = 1.0 + max(float(np.max(np.abs(lam_b))), float(np.max(np.abs(tau_b))))
            assert np.max(np.abs(lam - lam_b)) <= 1e-6 * scale
            assert np.max(np.abs(tau - tau_b)) <= 1e-6 * scale
            expected = y[i] - (d.w[i] @ lam_b + d.t[i] @ tau_b)
            assert abs(res[i] - expected) <= 1e-6 * (1.0 + abs(expected))
            # held-out prediction of the closed-form refit
            pred = d.w[i] @ lam + d.t[i] @ tau
            assert abs(pred - (y[i] - res[i])) <= 1e-6 * (1.0 + abs(y[i]))
            pairs += 1
    # unsplit-design variant against its own refit oracle
    for trial in range(10):
        x = rng.standard_normal((6, 10))
        y = rng.standard_normal(6)
        res = pg.full_operator(x).matrix @ y
        for i in range(6):
            beta = min_norm_refit_full(x, y, i)
            expected = y[i] - x[i] @ beta
            assert abs(res[i] - expected) <= 1e-6 * (1.0 + abs(expected))
            pairs += 1
        for i in range(6):
            x_del = np.delete(x, i, axis=0)
            direct = pg.pinv(x_del.T @ x_del)
            assert np.max(np.abs(pg.gram_downdate(x, i) - direct)) <= 1e-8
    assert pairs >= 300
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s budget"
    _report(f"criterion 5, leave-one-out oracle equivalence ({pairs} pairs, {elapsed:.1f}s)")


def test_criterion_06_projector_identity_suite():
    """Per-index projector identities at 1e-8 on 50 random designs."""
    rng = np.random.default_rng(SEED + 5)
    for trial in range(50):
        n, q = [(6, 10), (8, 14)][trial % 2]
        w = rng.standard_normal((n, q))
        wp = pg.pinv(w)
        gw = pg.Svd(w).gram_inverse()
        dg = np.diag(gw)
        assert np.all(dg > 0)
        for i in range(n):
            p, qc, _, _ = loo_projector(w, i)
            assert np.max(np.abs(p @ p - p)) <= 1e-8
            assert np.max(np.abs(qc @ qc - qc)) <= 1e-8
            assert np.max(np.abs((np.eye(q) - p) @ wp - wp @ (np.eye(n) - qc))) <= 1e-8
            a = gw @ (np.eye(n) - qc)
            b = (np.eye(n) - qc).T @ gw @ (np.eye(n) - qc)
            assert np.max(np.abs(a - b)) <= 1e-8
            w_del = np.delete(w, i, axis=0)
            assert (
                np.max(np.abs(pg.pinv(w_del) @ w_del - (np.eye(q) - p) @ wp @ w))
                <= 1e-8
            )
            assert np.max(np.abs(w[i] @ wp @ qc - gw[i] / dg[i])) <= 1e-8
    _report("criterion 6, projector identity suite")


def test_criterion_07_exact_bias_validation():
    """10,000 draws on a fixed 80x100 spiked design: MC mean within 3 SE of
    sigma^2 + exact bias for all four estimators; closed-form intercept bias
    formula exact."""
    start = time.monotonic()
    rng = pg.Seed(701).rng(0)
    n, p = 80, 100
    q = p - 1
    w = pg.gen_covariates(pg.CovariateConfig(model="spiked"), n, q, rng).a
    part = pg.DesignPartition(w, np.ones((n, 1)))
    x = part.stacked()
    beta1 = np.full(q, p**-0.5)
    beta0, sigma = 1.0, 1.0
    truth = pg.GaussMarkovTruth(beta=np.concatenate([beta1, [beta0]]), sigma2=sigma**2)
    mean_y = x @ truth.beta
    ops = {
        "full": pg.full_operator(x),
        "partial": pg.partial_operator(part),
        "w": pg.w_operator(part),
        "wc": pg.wc_operator(part),
    }
    draws = 10_000
    ys = mean_y[:, None] + sigma * pg.standard_normal(rng, (n, draws))
    for est, op in ops.items():
        r = op.matrix @ ys
        vals = (r * r).sum(axis=0) / op.denominator
        se = float(vals.std(ddof=1) / np.sqrt(draws))
        target = sigma**2 + pg.expected_bias(est, part, truth)
        assert abs(float(vals.mean()) - target) <= 3.0 * se, est
    # deterministic closed form for the intercept-only unpenalized block
    remark = (float(np.sum(w @ beta1)) + n * beta0) ** 2 / n
    got = pg.expected_bias("w", part, truth)
    assert abs(got - remark) <= 1e-10 * (1.0 + remark)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min budget"
    _report(f"criterion 7, exact-bias validation ({elapsed:.1f}s)")


def test_criterion_08_simulation_qualitative_reproduction():
    """Desk-profile studies reproduce the qualitative findings at seed 314."""
    start = time.monotonic()
    # (a) standard-normal intercept sweep: the unsplit estimator's bias grows
    # sharply with the intercept while the split ones stay near zero
    cfg4 = pg.ExperimentConfig(experiment="sim4", model="standard_normal", seed=SEED)
    rep4 = pg.run_experiment(cfg4)
    lo, hi = rep4.cell(1.0, "full"), rep4.cell(10.0, "full")
    pooled = float(np.hypot(lo.std_error, hi.std_error))
    assert hi.mean_bias - lo.mean_bias > 5.0 * pooled
    for est in ("partial", "wc"):
        for g in cfg4.grid:
            assert abs(rep4.cell(g, est).mean_bias) < 0.5, (est, g)
    # (b) structured covariates: near-zero bias in every cell
    for experiment in ("sim1", "sim2"):
        for model in ("spiked", "geometric"):
            cfg = pg.ExperimentConfig(
                experiment=experiment,
                model=model,
                seed=SEED,
                estimators=("full", "partial", "wc"),
            )
            rep = pg.run_experiment(cfg)
            for c in rep.cells:
                assert abs(c.mean_bias) < 3.0 * c.std_error, (
                    experiment,
                    model,
                    c.grid_value,
                    c.estimator,
                )
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min budget"
    _report(f"criterion 8, simulation qualitative reproduction ({elapsed:.1f}s)")


def test_criterion_09_treatment_effect_experiment():
    """Split fit's treatment-coefficient bias never exceeds the unsplit one."""
    start = time.monotonic()
    cfg = pg.ExperimentConfig(
        experiment="ate",
        model="spiked",
        grid=(2.0, -2.0, 4.0, -4.0, 8.0, -8.0),
        seed=SEED,
    )
    rep = pg.run_experiment(cfg)
    for g in cfg.grid:
        cf, cp = rep.cell(g, "full"), rep.cell(g, "partial")
        pooled = float(np.hypot(cf.std_error, cp.std_error))
        assert abs(cp.mean_bias) <= abs(cf.mean_bias) + 3.0 * pooled, g
    elapsed = time.monotonic() - start
    assert elapsed < 180.0, f"runtime {elapsed:.1f}s exceeds 3min budget"
    _report(f"criterion 9, treatment-effect experiment ({elapsed:.1f}s)")


def test_criterion_10_thread_count_determinism(tmp_path):
    """Identical CSV bytes from two fresh simulate processes on 1 and 2 BLAS threads.

    Desk-scale spiked sim2 at seed 314 differed in the last digits between
    the two when the trials ran on the BLAS thread count of the process.
    """
    outs = []
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "pregols.cli",
                "simulate",
                "--experiment",
                "sim2",
                "--model",
                "spiked",
                "--seed",
                "314",
                "--out",
                str(out_dir),
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "OPENBLAS_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out_dir)
    for name in ("report.csv", "supplementary.csv"):
        a = (outs[0] / name).read_bytes()
        b = (outs[1] / name).read_bytes()
        assert a == b, f"{name} differs between 1 and 2 BLAS threads"
    _report("criterion 10, run-to-run and BLAS-thread determinism")
