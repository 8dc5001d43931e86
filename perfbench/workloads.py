"""The three workloads and the layer boundaries the traced run records.

Each workload is a closed loop with one client in one process: the next
pass starts when the previous one has returned.  Inputs come from the
workload seed alone; the program under test only ever sees the generated
configs and CSV files.

Nothing is truncated or deleted before the run ends: freeing a file's
blocks can stall for hundreds of milliseconds (measured on ext4 mounted
with ``discard``), which would land in the timing of whatever did it.  So
every simulate pass writes its report into a directory of its own, and the
repeated cli set-ups rewrite their CSV files in place.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import logging
import os
import time
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from pregols import cli, simharness, variance
from pregols.dgp import Seed, gen_ate_dataset
from pregols.simharness import DEFAULT_GRIDS, ExperimentConfig

import gates
from measure import Tracer, call_counts, self_times

#: Seed whose simulate reports are pinned in ``reference/``.
REFERENCE_SEED = 314
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


@dataclass
class Pass:
    """One timed pass: its wall time, the operations it attempted and what failed."""

    seconds: float
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)
    cells: dict | None = None  # simulate workloads: the report
    latencies: list = field(default_factory=list)  # cli-oneshot: one per command
    layers: dict | None = None  # traced passes: per-layer numbers


@contextlib.contextmanager
def pool_threads(value: str | None):
    """Set ``PREGOLS_THREADS`` for the passes run inside; ``None`` leaves the program's default."""
    saved = os.environ.pop("PREGOLS_THREADS", None)
    if value is not None:
        os.environ["PREGOLS_THREADS"] = value
    try:
        yield
    finally:
        os.environ.pop("PREGOLS_THREADS", None)
        if saved is not None:
            os.environ["PREGOLS_THREADS"] = saved


# --------------------------------------------------------------------------
# tracing: spans at the calls into each layer
# --------------------------------------------------------------------------

# (module, attribute) -> layer name.  These are the public names that
# simharness, variance and cli import, plus the entry points the workloads
# call; a name a module defines itself is only patched where another module
# of the package calls it through that module's globals.
_SPAN_SITES = (
    (simharness, "run_experiment", "simharness.run_experiment"),
    (simharness, "write_report", "simharness.write_report"),
    (simharness, "gen_covariates", "dgp.gen_covariates"),
    (simharness, "gen_ate_design", "dgp.gen_ate_design"),
    (simharness, "standard_normal", "dgp.standard_normal"),
    (simharness, "DesignPartition", "interpolators.DesignPartition"),
    (simharness, "pinv", "linalg.pinv"),
    (simharness, "full_operator", "variance.full_operator"),
    (simharness, "partial_operator", "variance.partial_operator"),
    (simharness, "w_operator", "variance.w_operator"),
    (simharness, "wc_operator", "variance.wc_operator"),
    (variance, "full_operator", "variance.full_operator"),
    (variance, "partial_operator", "variance.partial_operator"),
    (variance, "w_operator", "variance.w_operator"),
    (variance, "wc_operator", "variance.wc_operator"),
    (variance, "PartialLooSolver", "loo.PartialLooSolver"),
    (variance.ResidualOperator, "estimate", "variance.estimate"),
    (cli, "main", "cli.main"),
    (cli, "read_matrix_csv", "linalg.read_matrix_csv"),
    (cli, "DesignPartition", "interpolators.DesignPartition"),
    (cli, "fit_partial_variant", "interpolators.fit_partial_variant"),
    (cli, "PartialLooSolver", "loo.PartialLooSolver"),
    (cli, "CochranDesign", "cochran.CochranDesign"),
    (cli, "cochran_check", "cochran.cochran_check"),
    (cli, "ovb_decompose", "cochran.ovb_decompose"),
)

#: Layers reported as ``<layer>.self_s`` and ``<layer>.calls``.
SPAN_LAYERS = tuple(dict.fromkeys(name for _o, _a, name in _SPAN_SITES))

#: Every end-to-end metric of an untraced run, with its unit.
END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

#: Every per-layer metric of a traced run, with its unit.
PER_LAYER_UNITS = {
    **{f"{layer}.self_s": "s" for layer in SPAN_LAYERS},
    **{f"{layer}.calls": "count" for layer in SPAN_LAYERS},
    "linalg.svd.calls": "count",
    "linalg.svd.s": "s",
    "dgp.covariate_resamples": "count",
    "simharness.trial_failures": "count",
    "simharness.serial_run_s": "s",
    "simharness.pool_run_s": "s",
    "trace.self_sum_s": "s",
    "trace.overhead": "ratio",
}


class _ResampleCounter(logging.Handler):
    """Counts covariate redraws from the warning ``pregols.dgp`` logs."""

    def __init__(self):
        super().__init__(level=logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.getMessage().startswith("resampled covariates"):
            self.count += int(record.args[0])


@contextlib.contextmanager
def traced_layers(tracer: Tracer, counters: dict):
    """Install spans, the SVD counter and the resample counter for one pass."""
    svd = np.linalg.svd
    clock = time.perf_counter

    def counted_svd(*args, **kwargs):
        start = clock()
        try:
            return svd(*args, **kwargs)
        finally:
            counters["linalg.svd.s"] += clock() - start
            counters["linalg.svd.calls"] += 1

    resamples = _ResampleCounter()
    dgp_logger = logging.getLogger("pregols.dgp")
    for owner, attr, name in _SPAN_SITES:
        tracer.patch(owner, attr, name)
    np.linalg.svd = counted_svd
    dgp_logger.addHandler(resamples)
    try:
        yield
    finally:
        dgp_logger.removeHandler(resamples)
        np.linalg.svd = svd
        tracer.restore()
        counters["dgp.covariate_resamples"] += resamples.count


def layer_numbers(tracer: Tracer, counters: dict) -> dict:
    selfs, calls = self_times(tracer.spans), call_counts(tracer.spans)
    out = dict(counters)
    for layer in SPAN_LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
        out[f"{layer}.calls"] = calls.get(layer, 0)
    out["trace.self_sum_s"] = sum(selfs.values())
    return out


def run_traced(run_pass, index: int) -> Pass:
    tracer = Tracer()
    counters = {"linalg.svd.calls": 0, "linalg.svd.s": 0.0, "dgp.covariate_resamples": 0}
    with pool_threads("1"), traced_layers(tracer, counters):
        result = run_pass(index)
    result.layers = layer_numbers(tracer, counters)
    result.layers["simharness.trial_failures"] = (
        gates.total_failures(result.cells) if result.cells else 0
    )
    return result


# --------------------------------------------------------------------------
# sim-paper and ate-paper
# --------------------------------------------------------------------------


class SimulateWorkload:
    """One paper-scale experiment plus its report per pass; an operation is a trial."""

    def __init__(self, name: str, cfg: ExperimentConfig, workdir: Path):
        self.name = name
        self.cfg = cfg
        self.workdir = workdir
        self.trials_per_pass = len(cfg.grid) * cfg.trials
        self.reference = None
        self.parallel = None  # the pass non-reference seeds are checked against
        self.dirs = itertools.count()

    def setup(self) -> None:
        """Warm up every code path of a pass (pool, BLAS, report writer) on a tiny run."""
        warm = replace(self.cfg, trials=2, draws_per_trial=2)
        out = self.workdir / f"warmup{next(self.dirs)}"
        simharness.write_report(simharness.run_experiment(warm), out)
        if self.cfg.seed == REFERENCE_SEED:
            self.reference = gates.read_report_cells([REFERENCE_DIR / f"{self.name}.csv"])

    def run_pass(self, index: int) -> Pass:
        out = self.workdir / f"report{next(self.dirs)}"
        result = Pass(seconds=0.0, attempted=self.trials_per_pass)
        start = time.perf_counter()
        try:
            report = simharness.run_experiment(self.cfg)
            written = simharness.write_report(report, out)
        except Exception:  # a failed pass is counted, not fatal
            result.seconds = time.perf_counter() - start
            result.problems.append(traceback.format_exc(limit=3))
            return result
        result.seconds = time.perf_counter() - start
        result.cells = gates.read_report_cells(p for p in written if p.endswith(".csv"))
        return result

    def check(self, passes, parallel: Pass | None = None) -> None:
        """Pinned values at the reference seed; otherwise equality with a pass on the default pool.

        Without a ``parallel`` pass from the caller, one is run here, untimed.
        """
        self.parallel = parallel
        if self.reference is None and self.parallel is None:
            with pool_threads(None):
                self.parallel = self.run_pass(-1)
        for p in passes:
            if p.cells is None:
                p.failed = p.attempted
                continue
            if self.reference is not None:
                problems = gates.compare_cells(p.cells, self.reference)
            elif self.parallel.cells is None:
                problems = ["the default-pool pass failed"] + self.parallel.problems
            else:
                problems = gates.compare_cells(p.cells, self.parallel.cells, rtol=0.0)
            failures = gates.total_failures(p.cells)
            if failures and self.reference is None:
                problems.append(f"{failures} trials failed")
            p.problems.extend(problems)
            p.failed = p.attempted if problems else failures


# --------------------------------------------------------------------------
# cli-oneshot
# --------------------------------------------------------------------------

_CLI_SIZES = (20, 50, 80)
_CLI_DESIGNS_PER_SIZE = 4
_CLI_Q = 98
_CLI_OMITTED = 5  # cochran: Z is the first q - 5 columns of W, U the last 5
_CLI_LOO_SAMPLE = 3
_CLI_KINDS = ("fit", "loo", "cochran", "variance")
_FIT_VARIANTS = ("direct", "rowspace", "residual", "gls")


def _write_design(folder: Path, w, t, y, tau: float) -> dict:
    """Write one design's blocks as CSV; returns the file of each block."""
    folder.mkdir(parents=True, exist_ok=True)
    q = w.shape[1]
    alpha = np.full(q, (q + 2) ** -0.5)
    blocks = {
        "w": w,
        "t": t,
        "y": y.reshape(-1, 1),
        "z": w[:, : q - _CLI_OMITTED],
        "u": w[:, q - _CLI_OMITTED:],
        "truth": np.concatenate([alpha, [tau, 1.0]]).reshape(-1, 1),
    }
    files = {}
    for key, block in blocks.items():
        path = folder / f"{key}.csv"
        buf = io.BytesIO()
        np.savetxt(buf, block, delimiter=",", fmt="%.17g")
        with open(path, "r+b" if path.exists() else "wb") as fh:
            fh.write(buf.getvalue())
            fh.truncate()
        files[key] = str(path)
    return files


class CliWorkload:
    """In-process ``pregols`` commands on one-shot designs; an operation is a command.

    Every design is factored by each command from its CSV files, once per
    command, so nothing is amortized across calls.
    """

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.seed = seed
        self.workdir = workdir
        self.designs: list = []

    def setup(self) -> None:
        """Generate the design pool, write it as CSV and recompute every expected output."""
        root = Seed(self.seed)
        taus = DEFAULT_GRIDS["ate"]
        folder = self.workdir / "designs"
        self.designs = []
        for k in range(len(_CLI_SIZES) * _CLI_DESIGNS_PER_SIZE):
            n = _CLI_SIZES[k // _CLI_DESIGNS_PER_SIZE]
            tau = taus[k % len(taus)]
            rng = root.rng(k)
            w, d, y = gen_ate_dataset(n, _CLI_Q, tau, rng)
            t = np.column_stack([d, np.ones(n)])
            files = _write_design(folder / f"design{k:02d}", w, t, y, tau)
            lam, tau_hat = gates.expected_fit(w, t, y)
            loo = {}
            for i in sorted(rng.choice(n, size=_CLI_LOO_SAMPLE, replace=False).tolist()):
                keep = np.arange(n) != i
                lam_i, tau_i = gates.expected_fit(w[keep], t[keep], y[keep])
                loo[i] = float(y[i] - w[i] @ lam_i - t[i] @ tau_i)
            exp = gates.DesignExpectation(
                w=w, t=t, y=y, lambda_hat=lam, tau_hat=tau_hat, loo=loo,
                sigma2_w=gates.expected_sigma2_w(t, y),
            )
            self.designs.append((files, exp))
        warm = self.run_pass(0, designs=self.designs[:: _CLI_DESIGNS_PER_SIZE])
        if warm.failed:
            raise RuntimeError("cli warm-up failed: " + "; ".join(warm.problems[:3]))

    @staticmethod
    def _argv(kind: str, files: dict, variant: str) -> list:
        wty = ["--w", files["w"], "--t", files["t"], "--y", files["y"]]
        if kind == "fit":
            return ["fit", *wty, "--variant", variant]
        if kind == "loo":
            return ["loo", *wty]
        if kind == "cochran":
            return ["cochran", "--z", files["z"], "--u", files["u"], "--t", files["t"],
                    "--y", files["y"]]
        return ["variance", *wty, "--truth", files["truth"], "--sigma2", "1"]

    def run_pass(self, index: int, designs=None) -> Pass:
        """Every design once per command kind; fit cycles its four variants."""
        designs = self.designs if designs is None else designs
        result = Pass(seconds=0.0, attempted=0)
        for k, (files, exp) in enumerate(designs):
            variant = _FIT_VARIANTS[(k + index) % len(_FIT_VARIANTS)]
            for kind in _CLI_KINDS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    start = time.perf_counter()
                    try:
                        code = cli.main(self._argv(kind, files, variant))
                    except Exception:  # counted as a failed command
                        code = None
                        err.write(traceback.format_exc(limit=3))
                    elapsed = time.perf_counter() - start
                result.latencies.append(elapsed)
                result.seconds += elapsed
                result.attempted += 1
                problems = gates.check_command(kind, code, out.getvalue(), exp)
                if problems:
                    result.failed += 1
                    result.problems.append(
                        f"{kind} design{k:02d}: {'; '.join(problems)} {err.getvalue().strip()}"
                    )
        return result

    def check(self, passes, parallel: Pass | None = None) -> None:
        """Commands are checked as they run."""


def make_workload(name: str, seed: int, workdir: Path):
    if name == "sim-paper":
        cfg = ExperimentConfig.default("sim1", model="spiked", seed=seed, paper_scale=True)
        return SimulateWorkload(name, cfg, workdir)
    if name == "ate-paper":
        cfg = ExperimentConfig.default("ate", seed=seed, paper_scale=True)
        return SimulateWorkload(name, cfg, workdir)
    if name == "cli-oneshot":
        return CliWorkload(name, seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
