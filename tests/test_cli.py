import json
import os

import numpy as np
import pytest

from pregols import write_matrix_csv
from pregols.cli import main


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
    "experiment, covariate",
    [("sim3", {"bogus": 1}), ("sim3", {"sigma_x": 0}), ("ate", {"sigma_x": 5})],
)
def test_simulate_bad_covariate_exits_1(tmp_path, capsys, experiment, covariate):
    cfg = {"experiment": experiment, "grid": [1.0], "trials": 2,
           "draws_per_trial": 2, "covariate": covariate}
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
