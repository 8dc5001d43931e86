import os

import numpy as np
import pytest

from pregols import (
    CovariateConfig,
    DesignPartition,
    ExperimentAbortedError,
    ExperimentConfig,
    InvalidInputError,
    Seed,
    gen_ate_design,
    gen_covariates,
    pinv,
    residual_operator,
    run_experiment,
    standard_normal,
    write_report,
)
from pregols import simharness


TINY = dict(trials=4, draws_per_trial=3, seed=5)


def tiny_config(**overrides):
    base = dict(experiment="sim3", model="spiked", grid=(1.0, 2.0), **TINY)
    base.update(overrides)
    return ExperimentConfig(**base)


def test_report_shape_and_cells():
    cfg = tiny_config()
    rep = run_experiment(cfg)
    assert len(rep.cells) == len(cfg.grid) * len(cfg.estimators)
    for c in rep.cells:
        assert c.trials == cfg.trials
        assert c.draws == cfg.draws_per_trial
        assert c.failures == 0
        assert c.std_error >= 0.0


def test_run_is_deterministic():
    cfg = tiny_config()
    assert run_experiment(cfg) == run_experiment(cfg)


def test_run_experiment_starts_no_threads(monkeypatch):
    # trials run serially in the caller's thread; PREGOLS_THREADS is not read
    import threading

    def refuse(self):
        raise AssertionError(f"run_experiment started thread {self.name}")

    monkeypatch.setenv("PREGOLS_THREADS", "4")
    monkeypatch.setattr(threading.Thread, "start", refuse)
    rep = run_experiment(tiny_config())
    assert all(c.failures == 0 for c in rep.cells)


def test_aggregation_matches_streaming_recompute():
    """Recompute each cell by a separate streaming (Welford) pass over trials."""
    cfg = tiny_config(trials=6)
    rep = run_experiment(cfg)
    for gi, gv in enumerate(cfg.grid):
        count = 0
        mean = {e: 0.0 for e in cfg.estimators}
        m2 = {e: 0.0 for e in cfg.estimators}
        for ti in range(cfg.trials):
            trial = simharness._sim_trial(cfg, gi, ti)
            count += 1
            for e in cfg.estimators:
                delta = trial[e] - mean[e]
                mean[e] += delta / count
                m2[e] += delta * (trial[e] - mean[e])
        for e in cfg.estimators:
            cell = rep.cell(gv, e)
            se = np.sqrt(m2[e] / (count - 1) / count)
            assert abs(cell.mean_bias - mean[e]) <= 1e-12
            assert abs(cell.std_error - se) <= 1e-12


def _close(got, expected):
    for key, v in expected.items():
        assert abs(got[key] - v) <= 1e-12 * (1.0 + abs(v)), key


def _sim_trial_per_draw(cfg, gi, ti):
    """The trial as a loop of single draws and ``estimate`` calls."""
    rng = Seed(cfg.seed).rng(gi * simharness._STREAM_STRIDE + ti)
    n, p, sigma, beta0 = simharness._sim_parameters(cfg.experiment, cfg.grid[gi])
    w = gen_covariates(CovariateConfig(model=cfg.model, n=n, q=p - 1, **cfg.covariate), rng).a
    d = DesignPartition(w, np.ones((n, 1)))
    ops = {est: residual_operator(est, d) for est in cfg.estimators}
    mean_y = w @ np.full(p - 1, p**-0.5) + beta0
    sums = dict.fromkeys(cfg.estimators, 0.0)
    for _ in range(cfg.draws_per_trial):
        y = mean_y + sigma * standard_normal(rng, n)
        for est, op in ops.items():
            sums[est] += op.estimate(y) - sigma**2
    return {est: s / cfg.draws_per_trial for est, s in sums.items()}


def _ate_trial_per_draw(cfg, gi, ti):
    """The treatment trial as a loop of single draws."""
    rng = Seed(cfg.seed).rng(gi * simharness._STREAM_STRIDE + ti)
    tau, n, q = cfg.grid[gi], simharness._ATE_N, simharness._ATE_Q
    w_svd, dvec = gen_ate_design(n, q, rng)
    w = w_svd.a
    t = np.column_stack([dvec, np.ones(n)])
    full_row = pinv(np.hstack([w, t]))[q]
    wp = pinv(w)
    partial_row = (pinv(wp @ t) @ wp)[0]
    mean_y = w @ np.full(q, (q + 2) ** -0.5) + tau * dvec + 1.0
    sums = {"full": 0.0, "partial": 0.0}
    for _ in range(cfg.draws_per_trial):
        y = mean_y + standard_normal(rng, n)
        sums["full"] += float(full_row @ y) - tau
        sums["partial"] += float(partial_row @ y) - tau
    return {est: s / cfg.draws_per_trial for est, s in sums.items()}


@pytest.mark.parametrize("block", [None, 7])
def test_batched_trials_match_per_draw_loop(monkeypatch, block):
    draws = 3
    if block is not None:  # several chunks per trial, the last one short
        monkeypatch.setattr(simharness, "_DRAW_BLOCK", block)
        draws = 20
    sim = tiny_config(experiment="sim1", grid=(20.0, 60.0), draws_per_trial=draws)
    ate = ExperimentConfig(
        experiment="ate", grid=(-2.0, 4.0), trials=2, draws_per_trial=draws, seed=5
    )
    for gi in range(2):
        for ti in range(2):
            _close(simharness._sim_trial(sim, gi, ti), _sim_trial_per_draw(sim, gi, ti))
            _close(simharness._ate_trial(ate, gi, ti), _ate_trial_per_draw(ate, gi, ti))


def _record_svd_shapes(monkeypatch):
    svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


def test_each_trial_factors_only_its_small_blocks(monkeypatch):
    # spiked and geometric W are born factored, and wc, partial and the
    # split row share one n-space factor: the sim trial factors T alone,
    # the ATE trial T and L^T T; never W, [W | T] or B = W^+ T
    shapes = _record_svd_shapes(monkeypatch)
    ate = ExperimentConfig(
        experiment="ate", grid=(-2.0, 4.0), trials=2, draws_per_trial=2, seed=5
    )
    n = simharness._ATE_N
    for model in ("spiked", "geometric"):
        sim = tiny_config(experiment="sim1", model=model, grid=(20.0, 60.0), draws_per_trial=2)
        for gi in range(2):
            shapes.clear()
            simharness._sim_trial(sim, gi, 0)
            assert shapes == [(int(sim.grid[gi]), 1)]
    for gi in range(2):
        shapes.clear()
        simharness._ate_trial(ate, gi, 0)
        assert shapes == [(n, 2), (n, 2)]


def test_standard_normal_trial_factors_w_once(monkeypatch):
    shapes = _record_svd_shapes(monkeypatch)
    sim = tiny_config(
        experiment="sim1", model="standard_normal", grid=(20.0, 60.0), draws_per_trial=2
    )
    for gi in range(2):
        shapes.clear()
        simharness._sim_trial(sim, gi, 0)
        n = int(sim.grid[gi])
        assert shapes == [(n, 99), (n, 1)]


def test_ate_reports_full_and_partial():
    cfg = ExperimentConfig(experiment="ate", model="spiked", grid=(2.0,), **TINY)
    rep = run_experiment(cfg)
    assert {c.estimator for c in rep.cells} == {"full", "partial"}


def test_ate_partial_exact_recovery_boundary():
    """Noise-free recovery of the treatment coefficient.

    The split fit returns the true effect exactly when the response carries
    no penalized-block signal; with a covariate signal the deviation is the
    projection of that signal onto [d, 1] in the inverse-Gram inner product,
    and matches its closed form exactly.
    """
    from pregols import DesignPartition, Seed, gen_ate_design, gram_inverse, pinv

    rng = Seed(123).rng(0)
    n, q, tau = 10, 20, 2.5
    w_svd, dvec = gen_ate_design(n, q, rng)
    w = w_svd.a
    t = np.column_stack([dvec, np.ones(n)])
    DesignPartition(w, t)  # rank structure holds
    wp = pinv(w)
    functional = pinv(wp @ t) @ wp
    # pure treatment + intercept response: exact
    y0 = tau * dvec + 1.0
    assert abs(functional[0] @ y0 - tau) <= 1e-8
    # with a covariate signal: deviation equals its closed form
    alpha = np.full(q, (q + 2) ** -0.5)
    y1 = w @ alpha + tau * dvec + 1.0
    gw = gram_inverse(w)
    correction = np.linalg.solve(t.T @ gw @ t, t.T @ gw @ (w @ alpha))
    assert abs(functional[0] @ y1 - (tau + correction[0])) <= 1e-8


def test_abort_on_excess_failures(monkeypatch):
    from pregols.exceptions import RankAssumptionError

    cfg = tiny_config(trials=10)
    real_trial = simharness._sim_trial

    def failing(cfg_, gi, ti, dump_dir=None):
        if ti < 3:  # 30% failure rate > 5%, from two distinct causes
            raise RankAssumptionError("synthetic failure A" if ti else "synthetic failure B")
        return real_trial(cfg_, gi, ti, dump_dir)

    monkeypatch.setattr(simharness, "_sim_trial", failing)
    with pytest.raises(ExperimentAbortedError) as info:
        run_experiment(cfg)
    # every distinct reason with its count, the most frequent first
    assert str(info.value).endswith(
        "synthetic failure A (x2); synthetic failure B (x1)"
    )


def test_config_validation():
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="sim9", model="spiked")
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="sim1", model="spiked", grid=())
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="sim1", model="spiked", grid=(100.0,))
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="sim3", model="spiked", trials=0)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="sim3", model="spiked", estimators=("ridge",))
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="ate", model="geometric")


@pytest.mark.parametrize(
    "experiment, covariate, message",
    [
        ("sim3", {"bogus": 1}, r"unknown covariate keys \['bogus'\]"),
        ("sim1", {"n": 5, "q": 9}, r"may not set \['n', 'q'\]"),
        ("sim2", {"model": "geometric"}, r"may not set \['model'\]"),
        ("sim3", {"sigma_x": 0}, "sigma_x must be positive"),
        ("sim4", {"k_spikes": 2.5}, "k_spikes must be a nonnegative integer"),
        ("sim3", {"lambda_range": [3.0]}, "invalid covariate settings"),
        ("sim3", {"rho": "high"}, "invalid covariate settings"),
        ("ate", {"k_spikes": 0, "sigma_x": 5}, "takes no covariate settings"),
        ("sim3", {"sigma_x": float("inf")}, "sigma_x must be positive and finite"),
        ("sim3", {"sigma_x": float("nan")}, "sigma_x must be positive and finite"),
        ("sim4", {"k_spikes": True}, "k_spikes must be a nonnegative integer"),
        ("sim1", {"lambda_range": [0, float("inf")]}, "lambda_range must be ordered"),
        ("sim2", {"lambda_range": [float("nan"), 1.0]}, "lambda_range must be ordered"),
        ("sim3", {"lambda_geo": float("inf")}, "lambda_geo must be positive and finite"),
    ],
)
def test_config_rejects_bad_covariate_settings(experiment, covariate, message):
    # checked once when the config is built, before any trial runs
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig(experiment=experiment, covariate=covariate)
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig.from_dict({"experiment": experiment, "covariate": covariate})


@pytest.mark.parametrize(
    "setting, message",
    [
        ({"trials": 2.5}, "trials must be an integer"),
        ({"draws_per_trial": 2.5}, "draws_per_trial must be an integer"),
        ({"trials": "5"}, "trials must be an integer"),
        ({"draws_per_trial": True}, "draws_per_trial must be an integer"),
        ({"seed": 2.5}, "seed root must be an integer"),
        ({"seed": True}, "seed root must be an integer"),
        ({"grid": "25"}, "grid must be a list of numbers"),
        ({"grid": 5}, "grid must be a list of numbers"),
        ({"grid": [[20]]}, "grid must be a list of numbers"),
        ({"grid": [True]}, "grid must be a list of numbers"),
        ({"estimators": "wc"}, "estimators must be a list of names"),
        ({"estimators": 5}, "estimators must be a list of names"),
        ({"estimators": [["w"]]}, "estimators must be a list of names"),
    ],
)
def test_config_rejects_non_integer_counts(setting, message):
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig(experiment="sim3", **setting)
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig.from_dict({"experiment": "sim3", **setting})


@pytest.mark.parametrize("experiment", ["sim1", "sim2", "sim3", "sim4", "ate"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_config_rejects_non_finite_grid_values(experiment, value):
    with pytest.raises(InvalidInputError, match="grid values must be finite"):
        ExperimentConfig(experiment=experiment, grid=(value,))
    with pytest.raises(InvalidInputError, match="grid values must be finite"):
        ExperimentConfig.from_dict({"experiment": experiment, "grid": [1.0, value]})


def test_config_rejects_non_object_covariate():
    with pytest.raises(InvalidInputError, match="covariate must be an object"):
        ExperimentConfig.from_dict({"experiment": "sim3", "covariate": [1.0]})


def test_default_grids():
    cfg = ExperimentConfig.default("sim1", model="geometric", seed=1)
    assert cfg.grid == (20.0, 40.0, 60.0, 80.0, 99.0)
    assert cfg.trials == cfg.draws_per_trial == 25
    paper = ExperimentConfig.default("sim1", paper_scale=True)
    assert paper.trials == paper.draws_per_trial == 100


def test_config_from_dict_roundtrip():
    cfg = ExperimentConfig.from_dict(
        {
            "experiment": "sim3",
            "model": "geometric",
            "grid": [1, 5],
            "trials": 3,
            "draws_per_trial": 2,
            "estimators": ["full", "wc"],
            "seed": 9,
            "covariate": {"rho": 0.9, "lambda_geo": 2.0},
        }
    )
    assert cfg.grid == (1.0, 5.0)
    assert cfg.covariate["rho"] == 0.9
    rep = run_experiment(cfg)
    assert len(rep.cells) == 4


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(InvalidInputError, match="unknown config keys"):
        ExperimentConfig.from_dict({"experiment": "sim3", "bogus": 1})


# ----------------------------------------------------------------- reports


def test_write_report_files(tmp_path):
    cfg = tiny_config()
    rep = run_experiment(cfg)
    paths = write_report(rep, tmp_path)
    names = {os.path.basename(p) for p in paths}
    assert names == {"report.csv", "supplementary.csv", "sim3_spiked.svg"}
    lines = (tmp_path / "report.csv").read_text().splitlines()
    # header + (grid x estimators-without-w)
    assert len(lines) == 1 + len(cfg.grid) * (len(cfg.estimators) - 1)
    supp = (tmp_path / "supplementary.csv").read_text().splitlines()
    assert len(supp) == 1 + len(cfg.grid)
    assert all(line.split(",")[3] == "w" for line in supp[1:])


def test_write_report_include_w(tmp_path):
    cfg = tiny_config()
    rep = run_experiment(cfg)
    write_report(rep, tmp_path, include_w=True)
    lines = (tmp_path / "report.csv").read_text().splitlines()
    assert len(lines) == 1 + len(cfg.grid) * len(cfg.estimators)
    assert not (tmp_path / "supplementary.csv").exists()


def test_write_report_byte_identical(tmp_path):
    cfg = tiny_config()
    rep = run_experiment(cfg)
    write_report(rep, tmp_path / "a")
    write_report(run_experiment(cfg), tmp_path / "b")
    assert (tmp_path / "a/report.csv").read_bytes() == (
        tmp_path / "b/report.csv"
    ).read_bytes()
    assert (tmp_path / "a/sim3_spiked.svg").read_bytes() == (
        tmp_path / "b/sim3_spiked.svg"
    ).read_bytes()


def test_svg_structure(tmp_path):
    cfg = tiny_config()
    rep = run_experiment(cfg)
    write_report(rep, tmp_path)
    svg = (tmp_path / "sim3_spiked.svg").read_text()
    assert svg.startswith("<svg")
    assert 'width="800" height="600"' in svg
    assert "polyline" in svg and "polygon" in svg
    assert "mean bias" in svg and "noise standard deviation" in svg


def test_dump_dir_writes_covariates(tmp_path):
    cfg = tiny_config(trials=2, grid=(1.0,))
    run_experiment(cfg, dump_dir=tmp_path / "dump")
    files = sorted(os.listdir(tmp_path / "dump"))
    assert files == [
        "sim3_spiked_g00_t0000_w.csv",
        "sim3_spiked_g00_t0001_w.csv",
    ]


def test_trials_see_the_callers_rank_tolerance():
    # simulate --rank-tol sets the default tolerance in the command's copied
    # context; every trial runs in that context and sees it
    import contextvars

    from pregols import RankTolerance, get_default_tolerance, set_default_tolerance

    seen = []

    def trial(cfg, gi, ti, dump_dir):
        seen.append(get_default_tolerance())
        return {}

    loose = RankTolerance(relative_cutoff=1e-3)

    def caller():
        set_default_tolerance(loose)
        simharness._collect_trials(tiny_config(trials=8), trial, None)

    contextvars.copy_context().run(caller)
    assert seen == [loose] * 16
    assert get_default_tolerance() == RankTolerance()
