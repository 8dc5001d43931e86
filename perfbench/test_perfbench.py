"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gates  # noqa: E402
import workloads  # noqa: E402
from measure import Tracer, call_counts, percentile, self_times  # noqa: E402


# ---------------------------------------------------------------- self time


def test_self_time_subtracts_nested_children():
    spans = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("leaf", 1, 2.0, 3.0),
        ("b", 0, 5.0, 7.0),
    ]
    assert self_times(spans) == pytest.approx({"root": 5.0, "a": 2.0, "leaf": 1.0, "b": 2.0})
    assert sum(self_times(spans).values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [("root", -1, 0.0, 10.0), ("x", 0, 1.0, 5.0), ("x", 0, 3.0, 7.0)]
    assert self_times(spans)["root"] == pytest.approx(4.0)
    assert call_counts(spans) == {"root": 1, "x": 2}


def test_tracer_records_parent_links_and_restores_patches():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    class Owner:
        @staticmethod
        def inner():
            return 1

    def outer():
        return Owner.inner() + Owner.inner()

    tracer.patch(Owner, "inner", "inner")
    traced_outer = tracer.wrap("outer", outer)
    assert traced_outer() == 2
    tracer.restore()
    assert not hasattr(Owner.inner, "__wrapped__")
    # outer: ticks 0..5, inner: 1..2 and 3..4
    assert tracer.spans == [("outer", -1, 0.0, 5.0), ("inner", 0, 1.0, 2.0), ("inner", 0, 3.0, 4.0)]
    assert self_times(tracer.spans) == {"outer": 3.0, "inner": 2.0}


# ---------------------------------------------------------------- percentiles


def test_p90_needs_ten_samples_beyond_it():
    assert percentile(range(1, 101), 90) == 90
    with pytest.raises(ValueError, match="need at least 10"):
        percentile(range(1, 100), 90)


def test_median_rank_needs_ten_samples_beyond_it():
    assert percentile(range(1, 21), 50) == 10
    with pytest.raises(ValueError):
        percentile(range(1, 20), 50)


# ---------------------------------------------------------------- simulate gate


def _reference():
    return gates.read_report_cells([HERE / "reference" / "sim-paper.csv"])


def _sim_workload(seed, tmp_path):
    return workloads.make_workload("sim-paper", seed, tmp_path)


def test_reference_rejects_a_perturbed_value(tmp_path):
    ref = _reference()
    got = {k: dict(v) for k, v in ref.items()}
    assert gates.compare_cells(got, ref) == []
    key = sorted(ref)[3]
    got[key]["mean_bias"] = ref[key]["mean_bias"] * (1 + 1e-14)
    assert gates.compare_cells(got, ref) == []
    got[key]["mean_bias"] = ref[key]["mean_bias"] + 1e-9
    problems = gates.compare_cells(got, ref)
    assert len(problems) == 1 and "mean_bias" in problems[0]

    wl = _sim_workload(workloads.REFERENCE_SEED, tmp_path)
    wl.reference = ref
    good = workloads.Pass(seconds=1.0, attempted=500, cells=ref)
    bad = workloads.Pass(seconds=1.0, attempted=500, cells=got)
    wl.check([good, bad])
    assert (good.failed, bad.failed) == (0, 500)


def test_other_seeds_need_equality_with_the_pool_and_no_failures(tmp_path):
    ref = _reference()
    failing = {k: dict(v, failures=1) for k, v in ref.items()}
    wl = _sim_workload(7, tmp_path)
    parallel = workloads.Pass(seconds=1.0, attempted=500, cells=ref)
    same = workloads.Pass(seconds=1.0, attempted=500, cells=ref)
    shifted = workloads.Pass(
        seconds=1.0,
        attempted=500,
        cells={k: dict(v, std_error=np.nextafter(v["std_error"], 1.0)) for k, v in ref.items()},
    )
    failed = workloads.Pass(seconds=1.0, attempted=500, cells=failing)
    raised = workloads.Pass(seconds=1.0, attempted=500, cells=None)
    wl.check([same, shifted, failed, raised], parallel)
    assert [p.failed for p in (same, shifted, failed, raised)] == [0, 500, 500, 500]
    assert gates.total_failures(failing) == len({g for g, _e in ref})


# ---------------------------------------------------------------- cli gate


def _design():
    rng = np.random.default_rng(3)
    n, q = 12, 20
    w = rng.standard_normal((n, q))
    t = np.column_stack([rng.integers(0, 2, n).astype(float), np.ones(n)])
    t[0, 0], t[1, 0] = 0.0, 1.0
    y = rng.standard_normal(n)
    lam, tau = gates.expected_fit(w, t, y)
    return gates.DesignExpectation(
        w=w, t=t, y=y, lambda_hat=lam, tau_hat=tau, loo={}, sigma2_w=gates.expected_sigma2_w(t, y)
    )


def _fit_output(lam, tau):
    return ",".join(repr(float(v)) for v in lam) + "\n" + ",".join(repr(float(v)) for v in tau) + "\n"


def test_cli_gate_accepts_a_correct_fit_and_rejects_a_nonzero_exit():
    exp = _design()
    out = _fit_output(exp.lambda_hat, exp.tau_hat)
    assert gates.check_command("fit", 0, out, exp) == []
    assert gates.check_command("fit", 2, out, exp) == ["fit exited with code 2"]
    assert gates.check_command("variance", 1, "", exp) == ["variance exited with code 1"]


def test_cli_gate_rejects_a_wrong_fit_and_garbage():
    exp = _design()
    wrong = _fit_output(exp.lambda_hat * (1 + 1e-6), exp.tau_hat)
    assert any("lambda" in p for p in gates.check_command("fit", 0, wrong, exp))
    assert gates.check_command("cochran", 0, "not json", exp)[0].startswith("cochran output")


def test_cli_gate_on_the_real_commands(tmp_path):
    wl = workloads.make_workload("cli-oneshot", 5, tmp_path)
    wl.setup()
    result = wl.run_pass(1, designs=wl.designs[:1])
    assert (result.attempted, result.failed, result.problems) == (4, 0, [])
    files, exp = wl.designs[0]
    bad = gates.DesignExpectation(**{**exp.__dict__, "sigma2_w": exp.sigma2_w * 1.001})
    result = wl.run_pass(1, designs=[(files, bad)])
    assert result.failed == 1 and result.problems[0].startswith("variance")


# ---------------------------------------------------------------- the manifest


def test_benchmark_json_lists_the_metrics_the_runner_prints(tmp_path):
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(workloads.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(workloads.END_TO_END_UNITS.values())
    assert [m["name"] for m in spec["per_layer"]] == list(workloads.PER_LAYER_UNITS)
    assert [m["unit"] for m in spec["per_layer"]] == list(workloads.PER_LAYER_UNITS.values())
    for w in spec["workloads"]:
        assert workloads.make_workload(w["name"], 1, tmp_path).name == w["name"]
