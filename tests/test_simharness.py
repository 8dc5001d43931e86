import csv
import os
import re
import time

import numpy as np
import pytest

from pregols import (
    COVARIATE_MODELS,
    CovariateConfig,
    DesignPartition,
    ExperimentAbortedError,
    ExperimentConfig,
    InvalidInputError,
    Seed,
    fit_partial,
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
    # trials run in the caller and in forked worker processes, never in a
    # thread; PREGOLS_THREADS is not read
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
            trial = simharness._trial(cfg, None, gi, ti)
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
    assert cfg.experiment == "sim1"  # n from the grid, p = 100, unit noise and intercept
    rng = Seed(cfg.seed).rng(gi * simharness._STREAM_STRIDE + ti)
    n, p, sigma, beta0 = int(cfg.grid[gi]), 100, 1.0, 1.0
    w = gen_covariates(CovariateConfig(model=cfg.model, **cfg.covariate), n, p - 1, rng).a
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
            _close(simharness._trial(sim, None, gi, ti), _sim_trial_per_draw(sim, gi, ti))
            _close(simharness._trial(ate, None, gi, ti), _ate_trial_per_draw(ate, gi, ti))


@pytest.mark.parametrize("scale", [1.0, 2.5, 0.0])
def test_response_blocks_equal_the_out_of_place_draw(monkeypatch, scale):
    # scaled and shifted in place, each block is mean_y + scale * z bit for bit
    monkeypatch.setattr(simharness, "_DRAW_BLOCK", 7)
    mean_y = standard_normal(Seed(4).rng(0), 11)
    rng, ref = Seed(4).rng(1), Seed(4).rng(1)
    blocks = list(simharness._response_blocks(rng, mean_y, scale, 20))
    assert [b.shape for b in blocks] == [(7, 11), (7, 11), (6, 11)]
    for got in blocks:
        want = mean_y + scale * standard_normal(ref, got.shape)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rng.bit_generator.state == ref.bit_generator.state


def _record_svd_shapes(monkeypatch):
    svd = np.linalg.svd
    shapes = []

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return shapes


def test_each_trial_factors_only_its_small_blocks(monkeypatch):
    # spiked and geometric W are born factored, the intercept too, and wc,
    # partial and the split row share one n-space factor: a spiked draw takes
    # one SVD of its q x 5 spike block and one of the n x 5 K diag(e), the
    # geometric sim trial none, the ATE trial adds T and L^T T; never W,
    # [W | T] or B = W^+ T
    shapes = _record_svd_shapes(monkeypatch)
    ate = ExperimentConfig(
        experiment="ate", grid=(-2.0, 4.0), trials=2, draws_per_trial=2, seed=5
    )
    n, q = simharness._ATE_N, simharness._ATE_Q
    want = {"spiked": lambda n: [(99, 5), (n, 5)], "geometric": lambda n: []}
    for model in ("spiked", "geometric"):
        sim = tiny_config(experiment="sim1", model=model, grid=(20.0, 60.0), draws_per_trial=2)
        for gi in range(2):
            shapes.clear()
            simharness._trial(sim, None, gi, 0)
            assert shapes == want[model](int(sim.grid[gi]))
    for gi in range(2):
        shapes.clear()
        simharness._trial(ate, None, gi, 0)
        assert shapes == [(q, 5), (n, 5), (n, 2), (n, 2)]


def test_standard_normal_trial_factors_w_once(monkeypatch):
    shapes = _record_svd_shapes(monkeypatch)
    sim = tiny_config(
        experiment="sim1", model="standard_normal", grid=(20.0, 60.0), draws_per_trial=2
    )
    for gi in range(2):
        shapes.clear()
        simharness._trial(sim, None, gi, 0)
        n = int(sim.grid[gi])
        assert shapes == [(n, 99)]


def test_trials_build_no_covariate_config(monkeypatch):
    # the run's covariate model is checked once, when its config is built;
    # a trial draws from it at its grid value's shape: counted, not timed
    sim = tiny_config(experiment="sim1", grid=(20.0, 60.0), draws_per_trial=2,
                      covariate={"k_spikes": 3})
    ate = ExperimentConfig(experiment="ate", grid=(-2.0, 4.0), trials=2, draws_per_trial=2)
    validated = []
    post_init = CovariateConfig.__post_init__

    def counted(cfg):
        validated.append(cfg.model)
        post_init(cfg)

    monkeypatch.setattr(CovariateConfig, "__post_init__", counted)
    for cfg in (sim, ate):
        for ti in range(3):
            for gi in range(len(cfg.grid)):
                simharness._trial(cfg, None, gi, ti)
    assert validated == []
    ExperimentConfig(experiment="sim2", model="geometric", covariate={"rho": 0.9})
    assert validated == ["geometric"]  # once, when the config is built


def test_trials_never_build_the_right_factor_of_w(monkeypatch):
    # a paper-scale trial reads U and s of the born-factored spiked W only;
    # V^T = S^-1 U^T W is built on first read, so a trial that builds it is
    # caught by a count, not by a clock
    from pregols import linalg

    builds = []
    vt = linalg.Svd.vt

    def counted(f):
        if f._vt is None:
            builds.append(f.shape)
        return vt.fget(f)

    monkeypatch.setattr(linalg.Svd, "vt", property(counted))
    sim = ExperimentConfig.default("sim1", paper_scale=True)
    ate = ExperimentConfig.default("ate", paper_scale=True)
    for cfg in (sim, ate):
        for gi in range(len(cfg.grid)):
            simharness._trial(cfg, None, gi, 0)
    assert builds == []
    f, d = gen_ate_design(simharness._ATE_N, simharness._ATE_Q, Seed(1).rng(0))
    part = DesignPartition(f, np.column_stack([d, np.ones(d.size)]))
    fit_partial(part, d)
    fit_partial(part, d)
    assert builds == [(simharness._ATE_N, simharness._ATE_Q)]  # a fit builds it, once


def test_ate_reports_full_and_partial():
    cfg = ExperimentConfig(experiment="ate", model="spiked", grid=(2.0,), **TINY)
    rep = run_experiment(cfg)
    assert {c.estimator for c in rep.cells} == {"full", "partial"}


@pytest.mark.parametrize("subset", [("partial",), ("full",), ("partial", "full")])
def test_ate_runs_an_estimator_subset(subset):
    # each fit's error comes from the same draws whichever fits run, so a
    # subset's cells equal the full run's, in the order the subset names them
    both = run_experiment(ExperimentConfig(experiment="ate", grid=(-2.0, 4.0), **TINY))
    cfg = ExperimentConfig(experiment="ate", grid=(-2.0, 4.0), estimators=subset, **TINY)
    rep = run_experiment(cfg)
    assert [c.estimator for c in rep.cells] == list(subset) * 2
    assert all(c == both.cell(c.grid_value, c.estimator) for c in rep.cells)


def test_ate_partial_exact_recovery_boundary():
    """Noise-free recovery of the treatment coefficient.

    The split fit returns the true effect exactly when the response carries
    no penalized-block signal; with a covariate signal the deviation is the
    projection of that signal onto [d, 1] in the inverse-Gram inner product,
    and matches its closed form exactly.
    """
    from pregols import DesignPartition, Seed, Svd, gen_ate_design, pinv

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
    gw = Svd(w).gram_inverse()
    correction = np.linalg.solve(t.T @ gw @ t, t.T @ gw @ (w @ alpha))
    assert abs(functional[0] @ y1 - (tau + correction[0])) <= 1e-8


def test_abort_on_excess_failures(monkeypatch):
    from pregols.exceptions import RankAssumptionError

    cfg = tiny_config(trials=10)
    real_trial = simharness._trial

    def failing(cfg_, dump_dir, gi, ti):
        if ti < 3:  # 30% failure rate > 5%, from two distinct causes
            raise RankAssumptionError("synthetic failure A" if ti else "synthetic failure B")
        return real_trial(cfg_, dump_dir, gi, ti)

    monkeypatch.setattr(simharness, "_trial", failing)
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
    with pytest.raises(InvalidInputError, match="trials must be <= 1048576"):
        ExperimentConfig(experiment="sim3", model="spiked", trials=2**20 + 1)
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="sim3", model="spiked", estimators=("ridge",))
    with pytest.raises(InvalidInputError):
        ExperimentConfig(experiment="ate", model="geometric")


@pytest.mark.parametrize(
    "experiment, grid, message",
    [
        # a size that is not an integer is refused, not truncated
        ("sim1", (20.5,), r"sim1 grid values must be sample sizes, integers in \[2, 100\)"),
        ("sim1", (40.0, 1.0, 99.5), r"got \[1.0, 99.5\]"),
        ("sim2", (100.7,), "sim2 grid values must be dimensions, integers >= 3, got"),
        ("sim2", (2.0,), "integers >= 3"),
        ("sim3", (-1.0,), "sim3 grid values must be noise levels >= 0"),
        # report.csv would hold two cells under one grid value, and the SVG
        # would plot only the first of them
        ("sim1", (20, 20), r"sim1 grid values must be distinct, got \[20.0, 20.0\]"),
        ("sim3", (1.0, 5.0, 1), r"sim3 grid values must be distinct, got \[1.0, 5.0, 1.0\]"),
        ("ate", (0.0, -0.0), r"ate grid values must be distinct, got \[0.0, -0.0\]"),
    ],
)
def test_config_rejects_grid_values_outside_the_experiments_rule(experiment, grid, message):
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig(experiment=experiment, grid=grid)
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig.from_dict({"experiment": experiment, "grid": list(grid)})


@pytest.mark.parametrize(
    "experiment, estimators",
    [("sim1", ("full", "full")), ("sim3", ("wc", "partial", "wc")), ("ate", ("partial",) * 2)],
)
def test_config_rejects_a_repeated_estimator(experiment, estimators):
    # each of the estimator's rows would be written twice
    message = r"estimators must be a nonempty subset of .* with no name repeated, got \["
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig(experiment=experiment, estimators=estimators)
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig.from_dict({"experiment": experiment, "estimators": list(estimators)})


def test_integral_grid_values_are_accepted_as_sizes():
    assert ExperimentConfig(experiment="sim1", grid=(20, 99.0)).grid == (20.0, 99.0)
    assert ExperimentConfig(experiment="sim2", grid=(3, 150.0)).grid == (3.0, 150.0)


@pytest.mark.parametrize(
    "experiment, estimators",
    [
        ("sim4", ("full", "partial", "w", "wc")),
        ("ate", ("full", "partial")),
    ],
)
def test_estimators_default_to_the_experiments_own(experiment, estimators):
    assert ExperimentConfig(experiment=experiment).estimators == estimators
    assert ExperimentConfig.default(experiment).estimators == estimators


@pytest.mark.parametrize("estimators", [("w",), ("wc", "partial"), ()])
def test_ate_rejects_estimators_it_does_not_have(estimators):
    message = r"ate estimators must be a nonempty subset of \('full', 'partial'\)"
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig(experiment="ate", estimators=estimators)
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig.from_dict({"experiment": "ate", "estimators": list(estimators)})


@pytest.mark.parametrize(
    "experiment, model, covariate, message",
    [
        ("sim3", "spiked", {"bogus": 1}, r"unknown covariate keys \['bogus'\]"),
        ("sim1", "spiked", {"n": 5, "q": 9}, r"may not set \['n', 'q'\]"),
        ("sim2", "spiked", {"model": "geometric"}, r"may not set \['model'\]"),
        ("sim3", "spiked", {"sigma_x": 0}, "sigma_x must be positive"),
        ("sim4", "spiked", {"k_spikes": 2.5}, "k_spikes must be a nonnegative integer"),
        ("sim3", "spiked", {"lambda_range": [3.0]}, "invalid covariate settings"),
        ("sim3", "geometric", {"rho": "high"}, "invalid covariate settings"),
        ("sim3", "spiked", {"sigma_x": True}, "sigma_x must be a real number"),
        ("sim4", "spiked", {"lambda_range": 3}, "lambda_range must be a pair of real numbers"),
        ("ate", "spiked", {"k_spikes": 0, "sigma_x": 5}, "takes no covariate settings"),
        ("sim3", "spiked", {"sigma_x": float("inf")}, "sigma_x must be positive and finite"),
        ("sim3", "spiked", {"sigma_x": float("nan")}, "sigma_x must be positive and finite"),
        ("sim4", "spiked", {"k_spikes": True}, "k_spikes must be a nonnegative integer"),
        ("sim1", "spiked", {"lambda_range": [0, float("inf")]}, "lambda_range must be ordered"),
        ("sim2", "spiked", {"lambda_range": [float("nan"), 1.0]}, "lambda_range must be ordered"),
        ("sim3", "geometric", {"lambda_geo": float("inf")},
         "lambda_geo must be positive and finite"),
        # a key of another model would be ignored by the draw, so it is refused
        ("sim3", "spiked", {"rho": 0.5, "lambda_geo": 7.0},
         r"unknown covariate keys \['lambda_geo', 'rho'\] for the spiked model, which takes "
         r"\['sigma_x', 'k_spikes', 'lambda_range'\]"),
        ("sim3", "geometric", {"sigma_x": 9.0, "k_spikes": 0},
         r"unknown covariate keys \['k_spikes', 'sigma_x'\] for the geometric model, which "
         r"takes \['lambda_geo', 'rho'\]"),
        ("sim1", "geometric", {"rho": 0.9, "lambda_range": [1.0, 2.0]},
         r"unknown covariate keys \['lambda_range'\] for the geometric model"),
        ("sim3", "standard_normal", {"sigma_x": 9.0},
         r"unknown covariate keys \['sigma_x'\] for the standard_normal model, which takes none"),
    ],
)
def test_config_rejects_bad_covariate_settings(experiment, model, covariate, message):
    # checked once when the config is built, before any trial runs
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig(experiment=experiment, model=model, covariate=covariate)
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig.from_dict(
            {"experiment": experiment, "model": model, "covariate": covariate}
        )


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


@pytest.mark.parametrize(
    "data, message",
    [
        ([1, 2], "config document must be a JSON object"),
        ("sim1", "config document must be a JSON object"),
        ({"model": "spiked"}, "config must name an experiment"),
    ],
)
def test_config_from_dict_rejects_a_document_it_cannot_read(data, message):
    with pytest.raises(InvalidInputError, match=message):
        ExperimentConfig.from_dict(data)


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


def test_write_report_reads_a_generator_once(tmp_path):
    # a generator is read once: a second pass would find it empty and write
    # a header-only report.csv and no chart
    rep = run_experiment(tiny_config())
    write_report(rep, tmp_path / "one")
    paths = write_report((r for r in [rep]), tmp_path / "gen")
    assert sorted(os.path.basename(p) for p in paths) == [
        "report.csv", "sim3_spiked.svg", "supplementary.csv"]
    for name in ("report.csv", "supplementary.csv", "sim3_spiked.svg"):
        assert (tmp_path / "gen" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_write_report_refuses_what_is_not_a_report(tmp_path):
    rep = run_experiment(tiny_config(trials=2))
    for reports, bad in ((5, "5"), (None, "None"), ("report", "'r'"), ([rep, 7], "7")):
        with pytest.raises(InvalidInputError,
                           match=f"^reports must be ExperimentReport objects, got {bad}$"):
            write_report(reports, tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_write_report_refuses_two_reports_of_one_chart(tmp_path):
    a, b = (run_experiment(tiny_config(seed=seed, trials=2)) for seed in (1, 2))
    with pytest.raises(InvalidInputError, match="sim3_spiked.svg"):
        write_report([a, b], tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_svg_structure(tmp_path):
    cfg = tiny_config()
    rep = run_experiment(cfg)
    write_report(rep, tmp_path)
    svg = (tmp_path / "sim3_spiked.svg").read_text()
    assert svg.startswith("<svg")
    assert 'width="800" height="600"' in svg
    assert "polyline" in svg and "polygon" in svg
    assert "mean bias" in svg and "noise standard deviation" in svg


_SVG_REFERENCE = os.path.join(os.path.dirname(__file__), "render_svg_reference.svg")


def test_svg_bytes_match_the_pinned_chart():
    # hand-built cells, so no BLAS rounding reaches the chart; the bands lie on
    # both sides of 0, so the dashed zero line is drawn too
    series = {
        "full": ([0.5, 0.75, 1.25], [0.1, 0.05, 0.2]),
        "partial": ([0.125, -0.0625, 0.25], [0.03125, 0.125, 0.0]),
        "wc": ([-0.25, -0.5, -0.375], [0.0625, 0.1, 0.15]),
        "w": ([2.0, 1.5, 3.0], [0.5, 0.25, 0.75]),
    }
    grid = (1.0, 2.0, 5.0)
    cfg = ExperimentConfig(experiment="sim3", model="geometric", grid=grid, **TINY)
    cells = tuple(
        simharness.CellResult(g, est, m, s, trials=4, draws=3, failures=0)
        for est, (means, ses) in series.items()
        for g, m, s in zip(grid, means, ses)
    )
    svg = simharness._render_svg(simharness.ExperimentReport(config=cfg, cells=cells))
    with open(_SVG_REFERENCE, "rb") as fh:
        assert svg.encode() == fh.read()


def test_dump_dir_writes_covariates(tmp_path):
    cfg = tiny_config(trials=2, grid=(1.0,))
    run_experiment(cfg, dump_dir=tmp_path / "dump")
    files = sorted(os.listdir(tmp_path / "dump"))
    assert files == [
        "sim3_spiked_g00_t0000_w.csv",
        "sim3_spiked_g00_t0001_w.csv",
    ]


def _cpus():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _slow_trial(outcome):
    # workers claim trials as they go, so a trial must take long enough
    # for a forked worker to start before the caller has claimed them all
    def trial(gi, ti):
        time.sleep(0.05)
        return outcome(gi, ti)

    return trial


def test_the_configs_rank_tolerance_reaches_every_trial(monkeypatch, caplog):
    # rank_tol = 1e-3 resamples one n = 99 draw of desk sim1 at seed 314 that
    # the default keeps; the forked workers and the caller alone agree on it
    def cells(**tol):
        cfg = ExperimentConfig.default("sim1", model="standard_normal", seed=314, **tol)
        return run_experiment(cfg).cells

    default, forked = cells(), cells(rank_tol=1e-3)
    monkeypatch.setattr(simharness.os, "sched_getaffinity", lambda pid: {0})
    caplog.clear()  # a forked worker's warning does not reach it, the caller's does
    with caplog.at_level("WARNING", logger="pregols.dgp"):
        alone = cells(rank_tol=1e-3)
    assert alone == forked
    assert [c for c in forked if c.grid_value != 99.0] == [
        c for c in default if c.grid_value != 99.0]
    assert all(a != b for a, b in zip(forked, default) if a.grid_value == 99.0)
    assert [r.getMessage() for r in caplog.records] == [
        "resampled covariates 1 time(s) after rank failures"]


def test_outcomes_come_back_in_task_order():
    # 21 tasks, each run by whichever process claims it first
    cfg = tiny_config(trials=7, grid=(1.0, 2.0, 3.0))
    by_cell = simharness._collect_trials(cfg, _slow_trial(lambda gi, ti: (gi, ti)))
    assert by_cell == [[(gi, ti) for ti in range(7)] for gi in range(3)]


def test_without_openblas_every_trial_runs_in_the_caller(monkeypatch):
    monkeypatch.setattr(simharness, "_blas_threads", lambda: None)
    by_cell = simharness._collect_trials(tiny_config(), lambda *a: os.getpid())
    assert [pid for cell in by_cell for pid in cell] == [os.getpid()] * 8


def test_trials_run_on_one_blas_thread_and_the_count_is_restored():
    blas = simharness._blas_threads()
    if blas is None:
        pytest.skip("numpy's BLAS is not an OpenBLAS")
    get, put = blas
    saved = get()
    put(2)
    try:
        by_cell = simharness._collect_trials(tiny_config(), lambda *a: get())
        assert get() == 2
    finally:
        put(saved)
    assert [n for cell in by_cell for n in cell] == [1] * 8


@pytest.mark.parametrize(
    "where, error",
    [("worker", LookupError), ("caller", LookupError), ("caller", KeyboardInterrupt)],
)
def test_an_error_in_a_trial_reaches_the_caller_and_no_worker_outlives_it(where, error):
    import multiprocessing

    if where == "worker" and _cpus() < 2:
        pytest.skip("one CPU: every trial runs in the caller")
    caller = os.getpid()

    def fail(gi, ti):
        if (os.getpid() == caller) == (where == "caller"):
            raise error(f"synthetic failure at {gi}, {ti}")
        return {}

    trial = _slow_trial(fail)
    with pytest.raises(error, match="synthetic failure") as info:
        simharness._collect_trials(tiny_config(), trial)
    if where == "worker":
        assert "in trial worker" in str(info.value.__cause__)
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_is_reported():
    import multiprocessing

    if _cpus() < 2:
        pytest.skip("one CPU: every trial runs in the caller")
    caller = os.getpid()

    def die(gi, ti):
        if os.getpid() != caller:
            os._exit(3)
        return {}

    trial = _slow_trial(die)
    with pytest.raises(RuntimeError, match="exited with code 3"):
        simharness._collect_trials(tiny_config(), trial)
    assert multiprocessing.active_children() == []


# Every experiment x covariate model run at seed 314, desk scale (25 x 25):
# the mean bias and standard error of each cell, recorded from the
# per-experiment trial functions that the experiment table replaced.
_REFERENCE = os.path.join(os.path.dirname(__file__), "seed314_desk_reference.csv")


def test_seed_314_desk_runs_match_the_pinned_reference():
    with open(_REFERENCE, newline="") as fh:
        want = {
            (r["experiment"], r["model"], float(r["grid_value"]), r["estimator"]): (
                float(r["mean_bias"]),
                float(r["std_error"]),
            )
            for r in csv.DictReader(fh)
        }
    runs = [(e, m) for e in ("sim1", "sim2", "sim3", "sim4") for m in COVARIATE_MODELS]
    got = {}
    for experiment, model in [*runs, ("ate", "spiked")]:
        rep = run_experiment(ExperimentConfig.default(experiment, model=model, seed=314))
        for c in rep.cells:
            got[(experiment, model, c.grid_value, c.estimator)] = (c.mean_bias, c.std_error)
    assert len(want) == 262 and got.keys() == want.keys()
    for key, values in want.items():
        for g, v in zip(got[key], values):
            assert abs(g - v) <= 1e-12 * (1.0 + abs(v)), key


@pytest.mark.parametrize("experiment", ["sim1", "ate"])
def test_paper_scale_trials_never_form_w(experiment, w_builds):
    # every grid value of paper-scale sim1 (all five n) and ate (all 11
    # effects): the trial reads W only through its factors and row sums
    cfg = ExperimentConfig.default(experiment, seed=314, paper_scale=True)
    for gi in range(len(cfg.grid)):
        simharness._trial(cfg, None, gi, 0)
    assert w_builds == []


def test_a_dumped_trial_builds_w_once_and_writes_the_explicit_w(tmp_path, w_builds):
    # the dump forms W once; it matches the draw formed the explicit way
    # (Q from np.linalg.qr, the dense root from eigh) to 10 q eps ||W||
    from oracles import spiked_root_eigh
    from pregols import read_matrix_csv

    cfg = ExperimentConfig.default("sim1", seed=314, paper_scale=True)
    simharness._trial(cfg, str(tmp_path), 4, 0)
    assert w_builds == [(99, 99)]
    got = read_matrix_csv(tmp_path / "sim1_spiked_g04_t0000_w.csv")
    rng = Seed(314).rng(4 * simharness._STREAM_STRIDE)
    root = spiked_root_eigh(CovariateConfig(model="spiked"), 99, rng)
    qmat, rmat = np.linalg.qr(standard_normal(rng, (99, 99)))
    want = (qmat * np.sign(np.diag(rmat))).T @ root
    eps = np.finfo(float).eps
    assert np.linalg.norm(got - want, 2) <= 10 * 99 * eps * np.linalg.norm(want, 2)


def test_an_infinite_response_stops_the_treatment_trial(monkeypatch):
    # the ate error map checks its block as estimate_sum does for sim
    real = simharness.standard_normal

    def with_inf(rng, size=None):
        out = real(rng, size)
        out[0, 0] = np.inf
        return out

    monkeypatch.setattr(simharness, "standard_normal", with_inf)
    for est in ("full", "partial"):
        cfg = ExperimentConfig("ate", grid=(1.0,), trials=1, draws_per_trial=3, estimators=[est])
        with pytest.raises(InvalidInputError, match="ys contains non-finite entries"):
            simharness._trial(cfg, None, 0, 0)


@pytest.mark.parametrize("experiment, value, cause", [
    ("sim3", 1e200, "the full estimate overflows"),
    ("sim4", 1e200, "the full estimate overflows"),
    ("sim3", 1.36e154, "the full estimate overflows"),  # sigma^2 overflows too
    ("ate", 1e308, "the summed errors .* are not all finite"),  # 2 tau is beyond the range
    ("sim4", 1e100, "the full trial means overflow"),  # each trial's mean is finite
    ("ate", 1e200, "the full trial means overflow"),
])
def test_an_overflow_stops_the_run_and_names_the_grid_value(experiment, value, cause):
    # nothing is reported as inf or nan, and no overflow warning is raised
    cfg = ExperimentConfig(experiment, grid=[1.0, value], trials=2, draws_per_trial=2)
    where = re.escape(f"at grid value {value!r}: ")
    with pytest.raises(InvalidInputError, match=f"^{experiment} (trial )?{where}{cause}"):
        run_experiment(cfg)


def test_a_noise_level_whose_square_overflows_makes_every_error_infinite():
    # sigma^2 is beyond the float range, so the trial refuses the error sum
    # instead of dying in the power
    cfg = ExperimentConfig("sim3", grid=[1.35e154])
    _, _, errors, _ = simharness._variance_design(cfg, Seed(1).rng(0), 20, 30, sigma=1.35e154)
    ys = standard_normal(Seed(2).rng(0), (2, 20))
    assert [err(ys) for err in errors.values()] == [-np.inf] * 4
