import json
import os
import subprocess
import sys

import numpy as np
import pytest

import pregols
from pregols import write_matrix_csv
from pregols.cli import main

from oracles import weak_constant_direction_w


@pytest.fixture()
def hand_files(tmp_path):
    write_matrix_csv(tmp_path / "w.csv", [[1.0, 0, 0], [0, 1, 0]])
    write_matrix_csv(tmp_path / "t.csv", [[1.0], [1.0]])
    write_matrix_csv(tmp_path / "y.csv", [[1.0], [2.0]])
    return tmp_path


@pytest.fixture()
def wide_files(tmp_path):
    rng = np.random.default_rng(0)
    n = 8
    write_matrix_csv(tmp_path / "w.csv", rng.standard_normal((n, 14)))
    write_matrix_csv(tmp_path / "t.csv", np.ones((n, 1)))
    write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((n, 1)))
    write_matrix_csv(tmp_path / "z.csv", rng.standard_normal((n, 12)))
    write_matrix_csv(tmp_path / "u.csv", rng.standard_normal((n, 2)))
    dcol = np.array([1.0, 0, 1, 0, 1, 1, 0, 0])
    write_matrix_csv(tmp_path / "td.csv", np.column_stack([dcol, np.ones(n)]))
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_fit_hand_example(hand_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "fit",
        "--w", str(hand_files / "w.csv"),
        "--t", str(hand_files / "t.csv"),
        "--y", str(hand_files / "y.csv"),
    )
    assert code == 0
    lam_line, tau_line = out.strip().splitlines()
    lam = [float(v) for v in lam_line.split(",")]
    tau = [float(v) for v in tau_line.split(",")]
    assert np.allclose(lam, [-0.5, 0.5, 0.0], atol=1e-10)
    assert np.allclose(tau, [1.5], atol=1e-10)


def test_fit_variants_agree(wide_files, capsys):
    outputs = []
    for variant in ("direct", "rowspace", "residual", "gls"):
        code, out, _ = run_cli(
            capsys,
            "fit",
            "--w", str(wide_files / "w.csv"),
            "--t", str(wide_files / "t.csv"),
            "--y", str(wide_files / "y.csv"),
            "--variant", variant,
        )
        assert code == 0
        outputs.append([float(v) for line in out.strip().splitlines() for v in line.split(",")])
    base = np.array(outputs[0])
    for other in outputs[1:]:
        assert np.max(np.abs(np.array(other) - base)) <= 1e-8


def test_fit_rank_deficient_exits_2(tmp_path, capsys):
    write_matrix_csv(tmp_path / "w.csv", [[1.0, 0, 0], [1.0, 0, 0]])
    write_matrix_csv(tmp_path / "t.csv", [[1.0], [1.0]])
    write_matrix_csv(tmp_path / "y.csv", [[1.0], [2.0]])
    code, _, err = run_cli(
        capsys,
        "fit",
        "--w", str(tmp_path / "w.csv"),
        "--t", str(tmp_path / "t.csv"),
        "--y", str(tmp_path / "y.csv"),
    )
    assert code == 2
    assert "rank assumption" in err
    assert "full row rank" in err


def test_fit_with_t_along_the_strong_directions_of_an_ill_conditioned_w_exits_0(
    tmp_path, capsys
):
    # [W | T] is well posed (cond(W) = 1e6, T orthogonal to W's weak
    # direction): the fit must not report it as rank-marginal (exit 2)
    rng = np.random.default_rng(0)
    w, u = weak_constant_direction_w(1e6, rng, n=12, q=24)
    write_matrix_csv(tmp_path / "w.csv", w)
    write_matrix_csv(tmp_path / "t.csv", u[:, :2] @ rng.standard_normal((2, 2)))
    write_matrix_csv(tmp_path / "y.csv", rng.standard_normal((12, 1)))
    code, out, err = run_cli(
        capsys,
        "fit",
        "--w", str(tmp_path / "w.csv"),
        "--t", str(tmp_path / "t.csv"),
        "--y", str(tmp_path / "y.csv"),
    )
    assert (code, err) == (0, "")
    assert [len(line.split(",")) for line in out.strip().splitlines()] == [24, 2]


def test_missing_input_exits_1(hand_files, capsys):
    code, _, err = run_cli(
        capsys,
        "fit",
        "--w", str(hand_files / "nope.csv"),
        "--t", str(hand_files / "t.csv"),
        "--y", str(hand_files / "y.csv"),
    )
    assert code == 1
    assert err


def test_unknown_flag_exits_1(hand_files, capsys):
    code, _, err = run_cli(
        capsys,
        "fit",
        "--w", str(hand_files / "w.csv"),
        "--t", str(hand_files / "t.csv"),
        "--y", str(hand_files / "y.csv"),
        "--frobnicate",
    )
    assert code == 1
    assert "unrecognized" in err


def test_loo_with_oracle_check(wide_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "loo",
        "--w", str(wide_files / "w.csv"),
        "--t", str(wide_files / "t.csv"),
        "--y", str(wide_files / "y.csv"),
        "--check-oracle",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 9  # 8 residual rows + oracle line
    assert lines[-1].startswith("oracle_max_deviation,")
    assert float(lines[-1].split(",")[1]) <= 1e-6


def test_cochran_json(wide_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "cochran",
        "--z", str(wide_files / "z.csv"),
        "--u", str(wide_files / "u.csv"),
        "--t", str(wide_files / "td.csv"),
        "--y", str(wide_files / "y.csv"),
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["image_gap"] <= 1e-8
    assert payload["coeff_gap"] <= 1e-8
    assert list(payload) == ["image_gap", "coeff_gap", "ovb"]
    ovb = payload["ovb"]
    assert ovb is not None
    assert list(ovb) == ["tau_long_d", "tau_short_d", "bias", "impact", "imbalance"]
    assert abs(ovb["bias"] - (ovb["tau_short_d"] - ovb["tau_long_d"])) <= 1e-12
    assert abs(ovb["bias"] - np.dot(ovb["imbalance"], ovb["impact"])) <= 1e-8


@pytest.mark.parametrize("block, message", [
    ("z", "retained block z must have full row rank 8"),
    ("td", "unpenalized block t must have full column rank 2"),
])
def test_cochran_rank_deficient_block_exits_2_and_names_it(wide_files, capsys, block, message):
    a = np.loadtxt(wide_files / f"{block}.csv", delimiter=",", ndmin=2)
    if block == "z":
        a[7] = a[6]
    else:
        a[:, 0] = 1.0
    write_matrix_csv(wide_files / f"{block}.csv", a)
    code, out, err = run_cli(capsys, "cochran", *(
        arg for name, stem in zip("zuty", ("z", "u", "td", "y"))
        for arg in (f"--{name}", str(wide_files / f"{stem}.csv"))))
    assert code == 2
    assert out == ""
    assert message in err


def test_cochran_json_without_ovb(wide_files, capsys):
    # unpenalized block is a plain intercept: no treatment decomposition
    code, out, _ = run_cli(
        capsys,
        "cochran",
        "--z", str(wide_files / "z.csv"),
        "--u", str(wide_files / "u.csv"),
        "--t", str(wide_files / "t.csv"),
        "--y", str(wide_files / "y.csv"),
    )
    assert code == 0
    assert json.loads(out)["ovb"] is None


def test_variance_all_estimators(wide_files, capsys):
    code, out, _ = run_cli(
        capsys,
        "variance",
        "--w", str(wide_files / "w.csv"),
        "--t", str(wide_files / "t.csv"),
        "--y", str(wide_files / "y.csv"),
        "--estimator", "all",
    )
    assert code == 0
    reports = json.loads(out)
    assert [r["estimator_id"] for r in reports] == ["full", "partial", "w", "wc"]
    for r in reports:
        assert list(r) == ["estimator_id", "estimate", "denominator", "expected_bias"]
        assert r["estimate"] >= 0.0
        assert r["denominator"] > 0.0
        assert r["expected_bias"] is None


def test_variance_with_truth(wide_files, capsys):
    write_matrix_csv(wide_files / "beta.csv", np.zeros((15, 1)))
    code, out, _ = run_cli(
        capsys,
        "variance",
        "--w", str(wide_files / "w.csv"),
        "--t", str(wide_files / "t.csv"),
        "--y", str(wide_files / "y.csv"),
        "--estimator", "wc",
        "--truth", str(wide_files / "beta.csv"),
        "--sigma2", "1.0",
    )
    assert code == 0
    report = json.loads(out)
    assert report["expected_bias"] == 0.0


def test_variance_output_does_not_depend_on_sigma2(wide_files, capsys):
    # the exact bias ||R mu||^2 / ||R||_F^2 has no sigma^2 in it: --sigma2 is
    # checked to be positive and finite, and no output reads it
    write_matrix_csv(wide_files / "beta.csv", np.full((15, 1), 0.1))
    argv = ["variance", *(a for k in "wty" for a in (f"--{k}", str(wide_files / f"{k}.csv"))),
            "--truth", str(wide_files / "beta.csv")]
    runs = [run_cli(capsys, *argv, "--sigma2", v) for v in ("1", "100", "1e-300")]
    assert runs[0][0] == 0 and all(r["expected_bias"] > 0.0 for r in json.loads(runs[0][1]))
    assert runs[1] == runs[0] and runs[2] == runs[0]


def test_variance_truth_requires_sigma2(wide_files, capsys):
    write_matrix_csv(wide_files / "beta.csv", np.zeros((15, 1)))
    code, _, err = run_cli(
        capsys,
        "variance",
        "--w", str(wide_files / "w.csv"),
        "--t", str(wide_files / "t.csv"),
        "--y", str(wide_files / "y.csv"),
        "--truth", str(wide_files / "beta.csv"),
    )
    assert code == 1
    assert "--sigma2" in err


@pytest.mark.parametrize("command", ["fit", "loo", "variance"])
@pytest.mark.parametrize("missing", ["w", "t", "y"])
def test_design_arguments_are_required(hand_files, capsys, command, missing):
    argv = [a for k in "wty" if k != missing for a in (f"--{k}", str(hand_files / f"{k}.csv"))]
    code, out, err = run_cli(capsys, command, *argv)
    assert (code, out) == (1, "")
    assert err == f"pregols: error: the following arguments are required: --{missing}\n"


@pytest.mark.parametrize("command", ["fit", "loo", "variance"])
def test_design_arguments_share_one_help(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for text in ("penalized block, CSV", "unpenalized block, CSV", "response vector, CSV"):
        assert text in out


def test_variance_checks_the_truth_before_the_operator(wide_files, capsys):
    # row 0 alone carries T's second column, so the leave-one-out map fails its
    # rank check (exit 2); a beta of the wrong length is still the error reported
    t = np.column_stack([np.ones(8), np.eye(8)[:, 0]])
    write_matrix_csv(wide_files / "tlev.csv", t)
    write_matrix_csv(wide_files / "beta.csv", np.zeros((3, 1)))
    wty = ["--w", str(wide_files / "w.csv"), "--t", str(wide_files / "tlev.csv"),
           "--y", str(wide_files / "y.csv"), "--estimator", "partial"]
    code, _, err = run_cli(capsys, "variance", *wty)
    assert code == 2 and "leave-one-out rank violation" in err
    code, out, err = run_cli(
        capsys, "variance", *wty, "--truth", str(wide_files / "beta.csv"), "--sigma2", "1"
    )
    assert (code, out) == (1, "")
    assert err == "pregols: beta has length 3, design has 16 columns\n"


def test_simulate_with_config(tmp_path, capsys):
    cfg = {
        "experiment": "sim3",
        "model": "spiked",
        "grid": [1.0],
        "trials": 3,
        "draws_per_trial": 2,
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code, out, _ = run_cli(
        capsys, "simulate", "--config", str(cfg_path), "--out", str(out_dir)
    )
    assert code == 0
    assert (out_dir / "report.csv").exists()
    assert (out_dir / "sim3_spiked.svg").exists()
    rows = (out_dir / "report.csv").read_text().splitlines()
    assert rows[0].startswith("experiment,model,grid_value")
    assert all(",7" in r for r in rows[1:])  # seed echoed


def test_simulate_ate_estimator_subset(tmp_path, capsys):
    cfg = {"experiment": "ate", "grid": [1.0, 2.0], "trials": 2, "draws_per_trial": 2}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**cfg, "estimators": ["partial"]}))
    code, _, _ = run_cli(
        capsys, "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")
    )
    assert code == 0
    rows = (tmp_path / "out/report.csv").read_text().splitlines()[1:]
    assert [r.split(",")[3] for r in rows] == ["partial", "partial"]


def test_simulate_seed_overrides_config(tmp_path, capsys):
    cfg = {
        "experiment": "sim3",
        "model": "spiked",
        "grid": [1.0],
        "trials": 2,
        "draws_per_trial": 2,
        "seed": 7,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--config", str(cfg_path),
        "--seed", "11",
        "--out", str(tmp_path / "out"),
    )
    assert code == 0
    rows = (tmp_path / "out/report.csv").read_text().splitlines()
    assert rows[1].rstrip().endswith(",11")


_SIM1_NORMAL = ["simulate", "--experiment", "sim1", "--model", "normal", "--seed", "314"]


def test_simulate_rank_tol_flag_and_config_write_the_same_report(tmp_path, capsys):
    # 1e-3 resamples one n = 99 draw that the default keeps; the flag fills
    # the config's rank_tol and, like --seed, overrides a document's value
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"experiment": "sim1", "model": "standard_normal", "seed": 314, "rank_tol": 1e-2}))
    runs = {
        "default": _SIM1_NORMAL,
        "flag": ["--rank-tol", "1e-3", *_SIM1_NORMAL],
        "config": ["--rank-tol", "1e-3", "simulate", "--config", str(cfg_path)],
    }
    reports = {}
    for name, argv in runs.items():
        code, _, _ = run_cli(capsys, *argv, "--out", str(tmp_path / name))
        assert code == 0, name
        reports[name] = (tmp_path / name / "report.csv").read_text()
    assert reports["flag"] == reports["config"] != reports["default"]


def test_simulate_aborts_under_a_loose_rank_tol_forked_and_alone(tmp_path, monkeypatch, capsys):
    # at 1e-2 four n = 99 trials fail their draw 100 times, over the 5% allowed
    from pregols import simharness

    for case in ("forked", "alone"):
        if case == "alone":
            monkeypatch.setattr(simharness.os, "sched_getaffinity", lambda pid: {0})
        code, out, err = run_cli(
            capsys, "--rank-tol", "1e-2", *_SIM1_NORMAL, "--out", str(tmp_path / case))
        assert code == 2, case
        assert out == ""
        assert err.splitlines()[-1].startswith(
            "pregols: 4/25 trials failed at grid value 99.0 of sim1: "), case


@pytest.mark.parametrize("selection", ["--experiment sim3", "--model spiked", "--paper-scale"])
def test_simulate_conflicting_selection(tmp_path, capsys, selection):
    # a config that runs on its own, so only the refusal can exit 1
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(
        {"experiment": "ate", "grid": [1.0, 2.0], "trials": 2, "draws_per_trial": 2}
    ))
    code, out, err = run_cli(
        capsys,
        "simulate",
        "--config", str(cfg_path),
        *selection.split(),
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert out == ""
    assert err == "pregols: --config replaces --experiment/--model/--paper-scale\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "setting",
    [
        {"covariate": {"bogus": 1}},
        {"covariate": {"sigma_x": 0}},
        {"experiment": "ate", "covariate": {"sigma_x": 5}},
        {"trials": 2.5},
        {"draws_per_trial": 2.5},
        {"trials": "5"},
        {"seed": 2.5},
        {"experiment": "ate", "grid": [float("nan")]},
        {"grid": [float("nan")]},
        {"experiment": "sim4", "grid": [float("inf")]},
        {"experiment": "sim2", "grid": [float("nan")]},
        {"covariate": {"lambda_range": [0, float("inf")]}},
        {"covariate": {"sigma_x": float("inf")}},
        {"model": "geometric", "covariate": {"lambda_geo": float("inf")}},
        {"model": "geometric", "covariate": {"sigma_x": 2.0}},
        {"covariate": {"k_spikes": True}},
        {"experiment": "sim1", "grid": "25"},
        {"grid": 5},
        {"grid": [[20]]},
        {"estimators": "wc"},
        {"estimators": 5},
        {"experiment": "sim1", "grid": [20.5]},
        {"experiment": "sim2", "grid": [100.7]},
        {"experiment": "ate", "grid": [1.0], "estimators": ["w"]},
        {"rank_tol": 1.5},
        {"rank_tol": "1e-3"},
        {"rank_tol": True},
    ],
)
def test_simulate_bad_config_exits_1(tmp_path, capsys, setting):
    cfg = {"experiment": "sim3", "grid": [1.0], "trials": 2, "draws_per_trial": 2, **setting}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert out == ""
    assert err.startswith("pregols: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("document", ["[1, 2]", '"sim1"'])
def test_simulate_seed_with_a_config_that_is_not_an_object_exits_1(tmp_path, capsys, document):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(document)
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(cfg_path), "--seed", "5",
        "--out", str(tmp_path / "out"),
    )
    assert code == 1
    assert out == ""
    assert err == "pregols: config document must be a JSON object\n"


def test_simulate_needs_a_model(tmp_path, capsys):
    code, out, err = run_cli(
        capsys, "simulate", "--experiment", "sim1", "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert out == ""
    assert err == "pregols: simulate needs --experiment and --model (or --config)\n"


def test_simulate_config_that_is_not_json_exits_1(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{experiment: sim1")
    code, out, err = run_cli(
        capsys, "simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out")
    )
    assert code == 1
    assert out == ""
    assert err.startswith(f"pregols: could not parse {cfg_path}: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_simulate_dump_dir(tmp_path, capsys):
    cfg = {
        "experiment": "sim3",
        "model": "spiked",
        "grid": [1.0],
        "trials": 2,
        "draws_per_trial": 2,
        "seed": 3,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    code, _, _ = run_cli(
        capsys,
        "simulate",
        "--config", str(cfg_path),
        "--out", str(tmp_path / "out"),
        "--dump-dir", str(tmp_path / "dump"),
    )
    assert code == 0
    assert len(os.listdir(tmp_path / "dump")) == 2


def _near_collinear_fit_args(folder):
    # nearly collinear rows pass at the default cutoff, fail at a loose one
    write_matrix_csv(folder / "w.csv", [[1.0, 0, 0], [1.0, 1e-4, 0]])
    write_matrix_csv(folder / "t.csv", [[1.0], [0.0]])
    write_matrix_csv(folder / "y.csv", [[1.0], [2.0]])
    return ["fit", *(arg for name in "wty" for arg in (f"--{name}", str(folder / f"{name}.csv")))]


def test_rank_tol_flag_changes_rank_decision(tmp_path, capsys):
    args = _near_collinear_fit_args(tmp_path)
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    code, _, err = run_cli(capsys, "--rank-tol", "1e-3", *args)
    assert code == 2
    assert "rank" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_rank_tol_flag_stays_with_its_own_command(tmp_path, monkeypatch, capsys):
    # two commands run at once in two threads: the one given --rank-tol 1e-3
    # fails its rank check, and the other still decides under the default
    import threading

    from pregols import cli

    args = _near_collinear_fit_args(tmp_path)
    code, alone, _ = run_cli(capsys, *args)
    assert code == 0
    both_reading, real_read = threading.Barrier(2, timeout=10), cli.read_matrix_csv

    def read_together(path):  # each command waits at W until the other has started
        if str(path).endswith("w.csv"):
            both_reading.wait()
        return real_read(path)

    monkeypatch.setattr(cli, "read_matrix_csv", read_together)
    codes = {}

    def command(key, flags):
        codes[key] = main([*flags, *args])

    threads = [threading.Thread(target=command, args=("loose", ["--rank-tol", "1e-3"])),
               threading.Thread(target=command, args=("default", []))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=20)
    out = capsys.readouterr()
    assert codes == {"loose": 2, "default": 0}
    assert out.out == alone
    assert out.err.count("\n") == 1 and "rank" in out.err


@pytest.fixture()
def cochran_files(tmp_path):
    # the cli-oneshot shape: Z is the first 93 columns of W, U the last 5
    rng = np.random.default_rng(21)
    n, q = 20, 98
    w = rng.standard_normal((n, q))
    dcol = np.tile([0.0, 1.0], n // 2)
    blocks = {
        "z": w[:, :93], "u": w[:, 93:], "t": np.column_stack([dcol, np.ones(n)]),
        "y": rng.standard_normal((n, 1)),
    }
    for name, block in blocks.items():
        write_matrix_csv(tmp_path / f"{name}.csv", block)
    return tmp_path, blocks


def test_cochran_factors_each_block_once(cochran_files, monkeypatch, capsys):
    folder, b = cochran_files
    factored, real_svd = [], np.linalg.svd

    def counted_svd(a, *args, **kwargs):
        factored.append(np.array(a))
        return real_svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    code, out, _ = run_cli(capsys, "cochran", *(
        arg for name in "zuty" for arg in (f"--{name}", str(folder / f"{name}.csv"))))
    monkeypatch.undo()
    assert code == 0
    assert json.loads(out)["ovb"] is not None
    # Z, U and T for the rank checks and [Z|U] for the long fit, once each,
    # and the n x 2 L^T T once per fit
    assert len(factored) == 7
    zu = np.hstack([b["z"], b["u"]])
    for block in (b["z"], zu, b["u"], b["t"]):
        hits = [a for a in factored if a.shape == block.shape and np.allclose(a, block, atol=1e-12)]
        assert len(hits) == 1
    # L^T T with L = U S^-1 from the SVD of the penalized block: sign-free,
    # (L^T T)^T (L^T T) = T^T (W W^T)^-1 T; Z for the short and auxiliary fits
    for w, times in ((b["z"], 2), (zu, 1)):
        gram = b["t"].T @ np.linalg.solve(w @ w.T, b["t"])
        hits = [a for a in factored if a.shape == b["t"].shape
                and np.allclose(a.T @ a, gram, rtol=1e-10, atol=0)]
        assert len(hits) == times


@pytest.mark.parametrize("rel", ["inf", "1", "2", "0", "nan"])
def test_rank_tol_out_of_range_exits_1(hand_files, capsys, rel):
    code, out, err = run_cli(
        capsys, "--rank-tol", rel, "fit",
        "--w", str(hand_files / "w.csv"),
        "--t", str(hand_files / "t.csv"),
        "--y", str(hand_files / "y.csv"),
    )
    assert code == 1
    assert out == ""
    assert err.startswith("pregols: relative_cutoff") and err.count("\n") == 1


@pytest.mark.parametrize("text", ["", "\n", "\n\n  \n"])
def test_blank_csv_exits_1_with_one_line(hand_files, text):
    # a subprocess, so that a warning numpy prints would reach stderr
    (hand_files / "y.csv").write_text(text)
    src = os.path.dirname(os.path.dirname(os.path.abspath(pregols.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "pregols.cli", "fit",
         "--w", str(hand_files / "w.csv"), "--t", str(hand_files / "t.csv"),
         "--y", str(hand_files / "y.csv")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"pregols: matrix CSV {hand_files / 'y.csv'} is empty\n"


@pytest.mark.parametrize("command", ["sim3", "sim4", "variance", "truth"])
def test_an_overflow_exits_1_with_one_line(wide_files, command):
    # a subprocess, so that a warning numpy prints would reach stderr
    if command == "variance":
        write_matrix_csv(wide_files / "y.csv", 1e200 * np.ones((8, 1)))
        args = ["variance", *(f"--{b}={wide_files / b}.csv" for b in ("w", "t", "y"))]
    elif command == "truth":  # X beta overflows
        write_matrix_csv(wide_files / "truth.csv", np.full((15, 1), 1e308))
        args = ["variance", *(f"--{b}={wide_files / b}.csv" for b in ("w", "t", "y", "truth")),
                "--sigma2=1"]
    else:
        (wide_files / "cfg.json").write_text(json.dumps(
            {"experiment": command, "grid": [1e200], "trials": 2, "draws_per_trial": 2}))
        args = ["simulate", "--config", str(wide_files / "cfg.json"),
                "--out", str(wide_files / "out")]
    src = os.path.dirname(os.path.dirname(os.path.abspath(pregols.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-m", "pregols.cli", *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("pregols: ") and proc.stderr.count("\n") == 1, proc.stderr
    assert "overflows" in proc.stderr and not (wide_files / "out").exists()


def test_one_shot_commands_do_not_load_scipy(wide_files):
    # importing scipy.special costs a one-shot process about 0.2 s, and
    # scipy.linalg about 6 MB of resident set; numpy's LAPACK bindings
    # suffice, and only the Gaussian generators need scipy's ndtri.  Nor
    # may they import multiprocessing (5-7 ms), which only simulate uses
    write_matrix_csv(wide_files / "truth.csv", np.full((15, 1), 0.1))
    f = {stem: str(wide_files / f"{stem}.csv") for stem in ("w", "t", "y", "z", "u", "td", "truth")}
    wty = ["--w", f["w"], "--t", f["t"], "--y", f["y"]]
    commands = [
        ["fit", *wty],
        ["loo", *wty],
        ["cochran", "--z", f["z"], "--u", f["u"], "--t", f["td"], "--y", f["y"]],
        ["variance", *wty, "--truth", f["truth"], "--sigma2", "1"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "import pregols, pregols.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [pregols.cli.main(argv) for argv in {commands!r}]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                 if m.split('.')[0] in ('scipy', 'multiprocessing'))]))\n"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(pregols.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, 0, 0, 0], []]


def test_variance_sigma2_requires_truth(wide_files, capsys):
    code, out, err = run_cli(
        capsys,
        "variance",
        "--w", str(wide_files / "w.csv"),
        "--t", str(wide_files / "t.csv"),
        "--y", str(wide_files / "y.csv"),
        "--sigma2", "1",
    )
    assert code == 1
    assert out == ""
    assert err == "pregols: --sigma2 requires --truth\n"
