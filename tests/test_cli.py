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
    ovb = payload["ovb"]
    assert ovb is not None
    assert abs(ovb["bias"] - (ovb["tau_short_d"] - ovb["tau_long_d"])) <= 1e-12
    assert abs(ovb["bias"] - np.dot(ovb["imbalance"], ovb["impact"])) <= 1e-8


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


def test_simulate_conflicting_selection(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text("{}")
    code, _, err = run_cli(
        capsys,
        "simulate",
        "--config", str(cfg_path),
        "--experiment", "sim3",
        "--out", str(tmp_path / "out"),
    )
    assert code == 1


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
        {"covariate": {"k_spikes": True}},
        {"experiment": "sim1", "grid": "25"},
        {"grid": 5},
        {"grid": [[20]]},
        {"estimators": "wc"},
        {"estimators": 5},
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


def test_rank_tol_flag_changes_rank_decision(tmp_path, capsys):
    # nearly collinear rows pass at the default cutoff, fail at a loose one
    eps = 1e-4
    write_matrix_csv(tmp_path / "w.csv", [[1.0, 0, 0], [1.0, eps, 0]])
    write_matrix_csv(tmp_path / "t.csv", [[1.0], [0.0]])
    write_matrix_csv(tmp_path / "y.csv", [[1.0], [2.0]])
    args = [
        "fit",
        "--w", str(tmp_path / "w.csv"),
        "--t", str(tmp_path / "t.csv"),
        "--y", str(tmp_path / "y.csv"),
    ]
    code, _, _ = run_cli(capsys, *args)
    assert code == 0
    code, _, err = run_cli(capsys, "--rank-tol", "1e-3", *args)
    assert code == 2
    assert "rank" in err


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_rank_tol_flag_stays_in_its_own_thread(hand_files, monkeypatch, capsys):
    # the CLI's --rank-tol is a context-local default: another thread keeps
    # its own while the command runs, and the command's thread is restored
    import threading

    from pregols import RankTolerance, cli, get_default_tolerance

    inside, release, seen = threading.Event(), threading.Event(), []
    real_read = cli.read_matrix_csv

    def blocking_read(path):
        seen.append(get_default_tolerance())
        inside.set()
        release.wait(timeout=10)
        return real_read(path)

    monkeypatch.setattr(cli, "read_matrix_csv", blocking_read)
    codes = []

    def command():
        codes.append(main(["--rank-tol", "1e-3", "fit", "--w", str(hand_files / "w.csv"),
                           "--t", str(hand_files / "t.csv"), "--y", str(hand_files / "y.csv")]))
        seen.append(get_default_tolerance())

    worker = threading.Thread(target=command)
    worker.start()
    assert inside.wait(timeout=10)
    assert get_default_tolerance() == RankTolerance()
    release.set()
    worker.join(timeout=10)
    assert codes == [0]
    assert seen[0] == RankTolerance(relative_cutoff=1e-3)
    assert seen[-1] == RankTolerance()
    assert get_default_tolerance() == RankTolerance()


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
