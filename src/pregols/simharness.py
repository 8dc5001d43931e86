"""Declarative experiment runner for the estimator-bias studies.

Five experiments over a one-dimensional grid, each cell aggregating
``trials`` independent designs x ``draws_per_trial`` responses per design:

* ``sim1`` — fixed p = 100, grid over the sample size n (integers);
* ``sim2`` — fixed aspect ratio n/p = 0.8, grid over p (integers);
* ``sim3`` — fixed (n, p) = (80, 100), grid over the noise level sigma;
* ``sim4`` — fixed (n, p) = (80, 100), grid over the intercept magnitude;
* ``ate``  — treatment-effect bias, grid over the true effect tau.

One table, ``_TABLE``, holds every per-experiment fact (grid, axis label,
grid rule, settings, estimator names, design function).  The variance
experiments record ``sigma2_hat - sigma^2`` per draw for each selected
estimator; the treatment experiment records the error of the treatment
coefficient for the unsplit and split fits.  A cell reports the mean of
per-trial means and the standard error across trials.

Every experiment runs one trial skeleton: stream ``g * 2^20 + t`` of the
root seed draws the design, through the table's design function, from the
run's one covariate model at the grid value's shape, and then all its
responses, as one block (in chunks of at most 1024 rows) to which each
estimator is applied at once.

Determinism: the block holds exactly the sequential draws of that stream,
so a trial's outcome does not depend on where or when it runs.  The trials
run in the caller and in forked workers, one process per CPU in the
affinity mask and each on one BLAS thread, and their outcomes are put back
in (grid, trial) order before a cell is aggregated.  So results are
byte-identical across runs, CPU counts and BLAS thread settings.  Without
numpy's OpenBLAS entry points or ``fork``, the trials run serially in the
caller.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable

import numpy as np

from .dgp import (
    COVARIATE_MODELS,
    _MODEL_PARAMS,
    CovariateConfig,
    Seed,
    gen_ate_design,
    gen_covariates,
    standard_normal,
)
from .exceptions import ExperimentAbortedError, InvalidInputError, RankAssumptionError
from .interpolators import DesignPartition
from .linalg import RankTolerance, Svd, _numpy_function, as_choice, as_flag, as_int, as_real
from .linalg import as_vector, is_real
from .linalg import write_matrix_csv
from .linalg import pinv  # noqa: F401  perfbench/workloads.py traces this name
from .variance import (  # noqa: F401  perfbench/workloads.py traces these names
    ESTIMATOR_IDS,
    full_operator,
    partial_operator,
    residual_operator,
    w_operator,
    wc_operator,
)

__all__ = [
    "EXPERIMENTS",
    "DEFAULT_GRIDS",
    "ExperimentConfig",
    "CellResult",
    "ExperimentReport",
    "run_experiment",
    "write_report",
]

_FIXED_P = 100
_SIM2_RATIO = 0.8
_ATE_N, _ATE_Q = 80, 98
_STREAM_STRIDE = 1 << 20
_MAX_FAILURE_FRACTION = 0.05
_DRAW_BLOCK = 1024  # most response rows one trial holds at a time


@dataclass(frozen=True)
class _Experiment:
    """One study: default grid, axis label, grid rule, accepted settings and design.

    ``design(cfg, value, rng)`` draws a trial's design at grid value
    ``value`` and returns ``(mean_y, sigma, errors, blocks)``: the responses
    are ``mean_y + sigma * z``, ``errors[est]`` sums the errors of a block
    of responses (one per row), and ``blocks`` build the matrices to dump.
    """

    grid: tuple[float, ...]
    label: str
    design: Callable
    valid: Callable[[float], bool] = lambda v: True
    rule: str = "finite"  # what ``valid`` asks of a grid value
    models: tuple[str, ...] = COVARIATE_MODELS
    covariates: bool = True  # whether the config may set ``covariate``
    estimators: tuple[str, ...] = ESTIMATOR_IDS


def _variance_design(cfg, rng, n: int, p: int, sigma: float = 1.0, beta0: float = 1.0):
    """An ``n x (p - 1)`` covariate draw ``W`` and an intercept; ``y = W beta1 + beta0 + sigma z``.

    Every slope is ``p^-1/2``; an estimator's error is ``sigma2_hat - sigma^2``.
    The intercept is born factored, ``1 = (1 / sqrt(n)) sqrt(n)``: no SVD of it.
    """
    try:
        var = sigma**2
    except OverflowError:  # every error is then infinite, which the trial refuses
        var = math.inf
    w_svd = gen_covariates(cfg._covariates, n, p - 1, rng, cfg._tol)
    ones = Svd.from_factors(np.ones((n, 1)), np.full((n, 1), n**-0.5), np.array([n**0.5]))
    part = DesignPartition(w_svd, ones, tol=cfg._tol)
    errors = {
        est: lambda ys, op=residual_operator(est, part): op.estimate_sum(ys) - len(ys) * var
        for est in cfg.estimators
    }
    return p**-0.5 * w_svd.ones + beta0, sigma, errors, {"w": lambda: w_svd.a}


def _ate_design(cfg, tau: float, rng):
    """An ``80 x 98`` spiked ``W`` and ``T = [d, 1]``; ``y = W alpha + tau d + 1 + z``.

    Every ``alpha`` coordinate is ``(q + 2)^-1/2``; a fit's error is its
    treatment coefficient minus ``tau``, and a non-finite one is refused.
    The full fit's coefficient is ``y`` times row q of ``X^+ = X^T G_X``,
    ``G_X d``; the split fit's, times the first row of the ``tau`` map.
    Only the selected estimators' rows are built.
    """
    n, q = _ATE_N, _ATE_Q
    w_svd, dvec = gen_ate_design(n, q, rng, cfg._tol)
    part = DesignPartition(w_svd, np.column_stack([dvec, np.ones(n)]), tol=cfg._tol)
    rows = {
        "full": lambda: part.full_gram_inverse() @ part.t[:, 0],
        "partial": lambda: part.tau_map()[0],
    }
    errors = {est: lambda ys, r=rows[est](): float(as_vector(ys @ r, "ys").sum()) - len(ys) * tau
              for est in cfg.estimators}
    mean_y = (q + 2) ** -0.5 * w_svd.ones + tau * dvec + 1.0
    return mean_y, 1.0, errors, {"w": lambda: w_svd.a, "d": lambda: dvec.reshape(-1, 1)}


_TABLE: dict[str, _Experiment] = {
    "sim1": _Experiment(
        grid=(20.0, 40.0, 60.0, 80.0, 99.0),
        label="sample size n",
        design=lambda cfg, v, rng: _variance_design(cfg, rng, int(v), _FIXED_P),
        valid=lambda v: v.is_integer() and 2 <= v < _FIXED_P,
        rule=f"sample sizes, integers in [2, {_FIXED_P})",
    ),
    "sim2": _Experiment(
        grid=(50.0, 75.0, 100.0, 125.0, 150.0),
        label="covariate dimension p",
        design=lambda cfg, v, rng: _variance_design(cfg, rng, round(_SIM2_RATIO * v), int(v)),
        valid=lambda v: v.is_integer() and v >= 3,
        rule="dimensions, integers >= 3",
    ),
    "sim3": _Experiment(
        grid=(1.0, 2.0, 5.0, 7.0, 10.0),
        label="noise standard deviation",
        design=lambda cfg, v, rng: _variance_design(cfg, rng, 80, _FIXED_P, sigma=v),
        valid=lambda v: v >= 0,
        rule="noise levels >= 0",
    ),
    "sim4": _Experiment(
        grid=(1.0, 2.0, 5.0, 7.0, 10.0),
        label="intercept magnitude",
        design=lambda cfg, v, rng: _variance_design(cfg, rng, 80, _FIXED_P, beta0=v),
    ),
    "ate": _Experiment(
        grid=(-8.0, -6.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 6.0, 8.0),
        label="true treatment effect",
        design=_ate_design,
        models=("spiked",),
        covariates=False,
        estimators=("full", "partial"),
    ),
}
EXPERIMENTS = tuple(_TABLE)
DEFAULT_GRIDS: dict[str, tuple[float, ...]] = {name: row.grid for name, row in _TABLE.items()}


def _covariate_model(model: str, cov: dict) -> CovariateConfig:
    """The :class:`CovariateConfig` of ``model`` with the parameters ``cov``, checked once."""
    fixed = sorted(set(cov) & {"model", "n", "q"})
    if fixed:
        raise InvalidInputError(
            f"covariate may not set {fixed}: the experiment and its grid choose them"
        )
    takes = _MODEL_PARAMS[model]
    unknown = sorted(set(cov) - set(takes))
    if unknown:  # a key the model does not read would be silently ignored
        raise InvalidInputError(
            f"unknown covariate keys {unknown} for the {model} model, "
            f"which takes {list(takes) or 'none'}"
        )
    try:
        return CovariateConfig(model, **cov)
    except InvalidInputError as exc:
        raise InvalidInputError(f"invalid covariate settings {cov}: {exc}") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: which study, which covariate model, and repeat counts.

    The desk-scale defaults (25 x 25) keep a full run under a few minutes;
    ``paper_scale=True`` in :meth:`default` switches to the 100 x 100 repeat
    structure of the original studies.  ``covariate`` holds the parameters
    of the one :class:`CovariateConfig` that every trial of ``sim1``-``sim4``
    draws from, checked here; ``ate`` draws default spiked covariates only.
    ``estimators`` defaults to the study's own names: all four for
    ``sim1``-``sim4`` and ``("full", "partial")`` for ``ate``; a given value
    must be a nonempty subset of them.  ``rank_tol`` is the relative cutoff
    of every rank decision of a trial (:class:`~pregols.linalg.RankTolerance`;
    ``None`` is its default): a looser one resamples more covariate draws, so
    it is part of what a run's report depends on.
    """

    experiment: str
    model: str = "spiked"
    grid: tuple[float, ...] | None = None
    trials: int = 25
    draws_per_trial: int = 25
    estimators: tuple[str, ...] | None = None
    seed: int = 0
    covariate: dict = field(default_factory=dict)
    rank_tol: float | None = None

    def __post_init__(self) -> None:
        row = _TABLE[as_choice(self.experiment, EXPERIMENTS, "experiment")]
        if self.model not in row.models:
            raise InvalidInputError(
                f"the {self.experiment} experiment takes the covariate models "
                f"{row.models}, got {self.model!r}"
            )
        if not isinstance(self.covariate, dict):
            raise InvalidInputError("covariate must be an object")
        if self.covariate and not row.covariates:
            raise InvalidInputError(
                f"the {self.experiment} experiment uses the default {self.model} covariates; "
                f"it takes no covariate settings, got {sorted(self.covariate)}"
            )
        cov = _covariate_model(self.model, self.covariate)
        object.__setattr__(self, "covariate", {key: getattr(cov, key) for key in self.covariate})
        object.__setattr__(self, "_covariates", cov)  # the one model every trial draws from
        raw = row.grid if self.grid is None else self.grid
        if not isinstance(raw, (list, tuple)) or not all(map(is_real, raw)):
            raise InvalidInputError(f"grid must be a list of numbers, got {raw!r}")
        grid = tuple(as_real(v, "grid value") for v in raw)
        if not grid:
            raise InvalidInputError("grid must be nonempty")
        if not np.all(np.isfinite(grid)):
            raise InvalidInputError(f"grid values must be finite, got {list(grid)}")
        bad = [v for v in grid if not row.valid(v)]
        if bad:
            raise InvalidInputError(
                f"{self.experiment} grid values must be {row.rule}, got {bad}"
            )
        if len(set(grid)) < len(grid):  # a repeated value would name two cells alike
            raise InvalidInputError(
                f"{self.experiment} grid values must be distinct, got {list(grid)}"
            )
        object.__setattr__(self, "grid", grid)
        for name in ("trials", "draws_per_trial"):
            as_int(getattr(self, name), name)
        if self.trials < 1 or self.draws_per_trial < 1:
            raise InvalidInputError("trials and draws_per_trial must be >= 1")
        if self.trials > _STREAM_STRIDE:
            raise InvalidInputError(f"trials must be <= {_STREAM_STRIDE}")
        ests = row.estimators if self.estimators is None else self.estimators
        if not isinstance(ests, (list, tuple)) or not all(isinstance(e, str) for e in ests):
            raise InvalidInputError(f"estimators must be a list of names, got {ests!r}")
        ests = tuple(ests)
        if not ests or any(e not in row.estimators for e in ests) or len(set(ests)) < len(ests):
            raise InvalidInputError(
                f"{self.experiment} estimators must be a nonempty subset of {row.estimators}"
                f" with no name repeated, got {list(ests)}"
            )
        object.__setattr__(self, "estimators", ests)
        Seed(self.seed)  # validates the root
        try:
            tol = RankTolerance(self.rank_tol)
        except InvalidInputError as exc:
            raise InvalidInputError(f"invalid rank_tol: {exc}") from None
        object.__setattr__(self, "_tol", tol)  # the one tolerance every trial decides rank under

    @classmethod
    def default(
        cls,
        experiment: str,
        model: str = "spiked",
        seed: int = 0,
        paper_scale: bool = False,
        **overrides,
    ) -> "ExperimentConfig":
        """Config with the study's standard grid; 25 x 25 desk or 100 x 100 paper scale."""
        repeats = 100 if as_flag(paper_scale, "paper_scale") else 25
        settings = dict(model=model, seed=seed, trials=repeats, draws_per_trial=repeats)
        return cls(experiment, **{**settings, **overrides})

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build from a parsed JSON document (see README for the schema)."""
        if not isinstance(data, dict):
            raise InvalidInputError("config document must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise InvalidInputError(f"unknown config keys: {sorted(unknown)}")
        if "experiment" not in data:
            raise InvalidInputError("config must name an experiment")
        return cls(**data)


@dataclass(frozen=True)
class CellResult:
    """Aggregates for one (grid value, estimator) cell."""

    grid_value: float
    estimator: str
    mean_bias: float
    std_error: float
    trials: int
    draws: int
    failures: int


@dataclass(frozen=True)
class ExperimentReport:
    """All cells of one run plus the config that produced them."""

    config: ExperimentConfig
    cells: tuple[CellResult, ...]

    @property
    def experiment(self) -> str:
        return self.config.experiment

    @property
    def model(self) -> str:
        return self.config.model

    def cell(self, grid_value: float, estimator: str) -> CellResult:
        for c in self.cells:
            if c.grid_value == grid_value and c.estimator == estimator:
                return c
        raise KeyError((grid_value, estimator))


def _response_blocks(rng, mean_y: np.ndarray, scale: float, draws: int):
    """A trial's responses ``mean_y + scale * z`` as blocks of at most ``_DRAW_BLOCK`` rows.

    Consecutive ``standard_normal(rng, (k, n))`` calls continue one stream,
    so row ``j`` overall is the ``j``-th sequential draw whatever the block
    size; memory stays O(_DRAW_BLOCK * n) for any ``draws``.  Each block is
    scaled and shifted in place, bit for bit ``mean_y + scale * z``, so it
    is the only array a draw allocates (see :func:`standard_normal`).
    """
    n = mean_y.size
    for start in range(0, draws, _DRAW_BLOCK):
        ys = standard_normal(rng, (min(_DRAW_BLOCK, draws - start), n))
        ys *= scale
        ys += mean_y
        yield ys


def _trial(cfg: ExperimentConfig, dump_dir, gi: int, ti: int) -> dict:
    """Trial ``ti`` of grid cell ``gi``: each estimator's mean error over the trial's draws.

    An overflow stops the run: :class:`InvalidInputError` names the experiment and grid value.
    """
    rng = Seed(cfg.seed).rng(gi * _STREAM_STRIDE + ti)
    mean_y, sigma, errors, blocks = _TABLE[cfg.experiment].design(cfg, cfg.grid[gi], rng)
    if dump_dir is not None:
        stem = f"{cfg.experiment}_{cfg.model}_g{gi:02d}_t{ti:04d}"
        for name, matrix in blocks.items():
            write_matrix_csv(os.path.join(dump_dir, f"{stem}_{name}.csv"), matrix())
    sums = dict.fromkeys(errors, 0.0)
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an inf or nan is refused instead
            for ys in _response_blocks(rng, mean_y, sigma, cfg.draws_per_trial):
                for est, err in errors.items():
                    sums[est] += err(ys)
        if not all(map(math.isfinite, sums.values())):
            raise InvalidInputError(f"the summed errors {sums} are not all finite")
    except InvalidInputError as exc:
        raise InvalidInputError(
            f"{cfg.experiment} trial at grid value {cfg.grid[gi]!r}: {exc}"
        ) from None
    return {est: s / cfg.draws_per_trial for est, s in sums.items()}


def _outcome(trial, task):
    """One (grid, trial) task's outcome ``trial(*task)``; a rank failure is kept as its reason."""
    try:
        return trial(*task)
    except RankAssumptionError as exc:
        return str(exc)


def _claim(trial, tasks, counter) -> list:
    """``(index, outcome)`` of each task this process claims from the shared ``counter``.

    Each process takes the next unclaimed task until none is left, so one
    that runs on a slower or busier CPU simply runs fewer trials.
    """
    done = []
    while True:
        with counter.get_lock():
            k = counter.value
            counter.value = k + 1
        if k >= len(tasks):
            return done
        done.append((k, _outcome(trial, tasks[k])))


def _blas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS numpy calls, or ``None``.

    The entry points are numpy's own (:func:`~pregols.linalg._numpy_function`).
    ``None`` when that BLAS is not an OpenBLAS.
    """
    import ctypes

    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get = _numpy_function(f"{prefix}_get_num_threads{suffix}")
            put = _numpy_function(f"{prefix}_set_num_threads{suffix}")
            if get is None or put is None:
                continue
            get.argtypes, get.restype = (), ctypes.c_int
            put.argtypes, put.restype = (ctypes.c_int,), None
            return get, put
    return None


def _worker(conn, trial, tasks, counter) -> None:
    """A forked child's body: claim tasks, then send ``(claimed, None)`` or ``(error, traceback)``.

    The child ignores SIGINT; the caller terminates it when it is interrupted.
    An error that does not pickle ends the child, which the caller reports.
    """
    import signal

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        message = (_claim(trial, tasks, counter), None)
    except Exception as exc:
        import traceback

        message = (exc, traceback.format_exc())
    conn.send(message)
    conn.close()


def _receive(proc, conn) -> list:
    """One worker's claimed outcomes; its exception is raised here, with the worker's traceback as cause."""
    try:
        payload, trace = conn.recv()
    except EOFError:
        proc.join()
        raise RuntimeError(
            f"trial worker {proc.pid} exited with code {proc.exitcode} before returning its trials"
        ) from None
    if trace is not None:
        raise payload from RuntimeError(f"in trial worker {proc.pid}:\n{trace}")
    return payload


def _run_forked(trial, tasks, fork: bool = True) -> list:
    """Outcomes of ``tasks`` in task order, run by the caller and one forked child per further CPU.

    One process per CPU of the affinity mask claims tasks one at a time
    from a shared counter (:func:`_claim`), and the outcomes are put back by
    task index.  Claimed, not dealt out as fixed shares ``tasks[k::workers]``:
    the CPUs of a busy shared host do not run at one speed, and a fixed share
    waits for the slowest (paper-scale sim1 on 2 busy vCPUs: 0.466 s a pass
    for fixed shares, 0.401 s claimed, medians of 40).  ``fork``, not
    ``spawn``: a spawned child would import numpy and scipy again before its
    first trial.  A child inherits ``trial``, so nothing is pickled on the way
    in, and the caller's pinned BLAS.  Serial in the caller where there is
    one CPU, no ``fork`` or ``fork=False``.  No child outlives the call,
    whether it returns or raises.
    """
    import multiprocessing

    try:
        workers = min(len(os.sched_getaffinity(0)), len(tasks)) if fork else 1
        ctx = multiprocessing.get_context("fork")
    except (AttributeError, ValueError):  # no affinity mask, or no fork, on this platform
        workers = 1
    if workers < 2:
        return [_outcome(trial, task) for task in tasks]
    counter = ctx.Value("q", 0)
    children = []
    try:
        for _ in range(workers - 1):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(
                target=_worker, args=(send, trial, tasks, counter), daemon=True
            )
            proc.start()
            send.close()
            children.append((proc, recv))
        claimed = _claim(trial, tasks, counter)
        for proc, recv in children:
            claimed += _receive(proc, recv)
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, recv in children:
            proc.join()
            recv.close()
    outcomes = [None] * len(tasks)
    for k, outcome in claimed:
        outcomes[k] = outcome
    return outcomes


def _collect_trials(cfg: ExperimentConfig, trial):
    """Every outcome ``trial(gi, ti)`` of ``cfg``'s grid, grouped by grid value in trial order.

    numpy's OpenBLAS runs on one thread for the whole trial section, so a
    trial's numbers do not depend on the BLAS thread count, and the forked
    workers of :func:`_run_forked` do not oversubscribe the CPUs; the old
    count is restored afterwards.  Without that OpenBLAS the trials run
    serially in the caller, on the BLAS settings it has.
    """
    tasks = [(gi, ti) for gi in range(len(cfg.grid)) for ti in range(cfg.trials)]
    blas = _blas_threads()
    if blas is None:
        outcomes = _run_forked(trial, tasks, fork=False)
    else:
        get, put = blas
        saved = get()
        put(1)
        try:
            outcomes = _run_forked(trial, tasks)
        finally:
            put(saved)
    return [outcomes[gi * cfg.trials:(gi + 1) * cfg.trials] for gi in range(len(cfg.grid))]


def _failure_summary(outcomes) -> str:
    """Every distinct failure reason with its count, most frequent first."""
    counts = Counter(o for o in outcomes if isinstance(o, str))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return "; ".join(f"{reason} (x{n})" for reason, n in ranked)


def _aggregate(cfg: ExperimentConfig, by_cell) -> ExperimentReport:
    cells = []
    for gi, outcomes in enumerate(by_cell):
        means = [o for o in outcomes if isinstance(o, dict)]
        failures = len(outcomes) - len(means)
        if failures > _MAX_FAILURE_FRACTION * cfg.trials:
            raise ExperimentAbortedError(
                f"{failures}/{cfg.trials} trials failed at grid value "
                f"{cfg.grid[gi]} of {cfg.experiment}: {_failure_summary(outcomes)}"
            )
        for est in cfg.estimators:
            vals = np.array([m[est] for m in means])
            with np.errstate(over="ignore", invalid="ignore"):  # refused below instead
                mean = float(vals.mean())
                se = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
            if not (math.isfinite(mean) and math.isfinite(se)):
                raise InvalidInputError(
                    f"{cfg.experiment} at grid value {cfg.grid[gi]!r}: the {est} trial means "
                    "overflow the cell's mean or standard error"
                )
            cells.append(
                CellResult(
                    grid_value=cfg.grid[gi],
                    estimator=est,
                    mean_bias=mean,
                    std_error=se,
                    trials=int(vals.size),
                    draws=cfg.draws_per_trial,
                    failures=failures,
                )
            )
    return ExperimentReport(config=cfg, cells=tuple(cells))


def run_experiment(cfg: ExperimentConfig, dump_dir=None) -> ExperimentReport:
    """Run one experiment to completion; deterministic given the config seed."""
    if dump_dir is not None:
        os.makedirs(dump_dir, exist_ok=True)
    return _aggregate(cfg, _collect_trials(cfg, functools.partial(_trial, cfg, dump_dir)))


# --------------------------------------------------------------------------
# report emission
# --------------------------------------------------------------------------

_CSV_HEADER = (
    "experiment,model,grid_value,estimator,mean_bias,std_error,trials,draws,failures,seed"
)

_WIDTH, _HEIGHT = 800, 600
_COLORS = {
    "full": "#d62728",
    "partial": "#2ca02c",
    "wc": "#1f77b4",
    "w": "#9467bd",
}


def write_report(reports, out_dir, include_w: bool = False) -> list[str]:
    """Emit ``report.csv`` (plus ``supplementary.csv``) and one SVG per report.

    ``reports`` is one :class:`ExperimentReport` or an iterable of them.

    The ``w`` estimator's rows go to ``supplementary.csv`` unless
    ``include_w`` merges them into the main table: its bias is larger by
    orders of magnitude and would dominate any shared axis.  Output is
    byte-identical across reruns of the same seed.
    """
    include_w = as_flag(include_w, "include_w")
    if isinstance(reports, ExperimentReport) or not np.iterable(reports):
        reports = [reports]
    reports = list(reports)  # read once: an iterator yields its reports only once
    if bad := [r for r in reports if not isinstance(r, ExperimentReport)]:
        raise InvalidInputError(f"reports must be ExperimentReport objects, got {bad[0]!r}")
    charts = [f"{r.experiment}_{r.model}.svg" for r in reports]
    if len(set(charts)) < len(charts):
        raise InvalidInputError(f"two reports would write the same chart, in {charts}")
    os.makedirs(out_dir, exist_ok=True)
    tables = {"report.csv": [], "supplementary.csv": []}
    for report in reports:
        cfg = report.config
        for c in report.cells:
            table = "supplementary.csv" if c.estimator == "w" and not include_w else "report.csv"
            tables[table].append(
                f"{cfg.experiment},{cfg.model},{c.grid_value!r},{c.estimator},"
                f"{c.mean_bias!r},{c.std_error!r},{c.trials},{c.draws},{c.failures},"
                f"{cfg.seed}\n"
            )
    files = {
        name: _CSV_HEADER + "\n" + "".join(rows)
        for name, rows in tables.items()
        if rows or name == "report.csv"
    }
    files.update({name: _render_svg(r) for name, r in zip(charts, reports)})
    written = []
    for name, text in files.items():
        written.append(os.path.join(out_dir, name))
        with open(written[-1], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    return written


def _line(x1, y1, x2, y2, stroke="black", extra="") -> str:
    return f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" stroke="{stroke}"{extra}/>'


def _text(x, y, body, size, anchor="middle") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (
        f'<text x="{x:.2f}" y="{y:.2f}"{anchor} font-family="sans-serif" '
        f'font-size="{size}">{body}</text>'
    )


def _points(xys) -> str:
    return " ".join(f"{x:.2f},{y:.2f}" for x, y in xys)


def _render_svg(report: ExperimentReport) -> str:
    """Static line chart with shaded +/- one-standard-error bands."""
    left, right, top, bottom = 75.0, 25.0, 45.0, 65.0
    plot_w, plot_h = _WIDTH - left - right, _HEIGHT - top - bottom
    grid = sorted({c.grid_value for c in report.cells})
    estimators = list(dict.fromkeys(c.estimator for c in report.cells))
    series = {
        est: [(g, report.cell(g, est).mean_bias, report.cell(g, est).std_error) for g in grid]
        for est in estimators
    }
    lo = min(min(m - s for _, m, s in rows) for rows in series.values())
    hi = max(max(m + s for _, m, s in rows) for rows in series.values())
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    pad = 0.05 * (hi - lo) or 1.0
    lo, hi = lo - pad, hi + pad
    x0, x1 = grid[0], grid[-1]
    xspan = (x1 - x0) or 1.0

    def sx(v):
        return left + (v - x0) / xspan * plot_w

    def sy(v):
        return top + (hi - v) / (hi - lo) * plot_h

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.2f}" y="25" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{report.experiment} bias profile ({report.model} model)</text>',
        _line(left, top + plot_h, left + plot_w, top + plot_h),  # axes
        _line(left, top, left, top + plot_h),
    ]
    if lo < 0.0 < hi:
        out.append(_line(left, sy(0), left + plot_w, sy(0), "#bbbbbb", ' stroke-dasharray="4,3"'))
    for g in grid:
        out += [
            _line(sx(g), top + plot_h, sx(g), top + plot_h + 5),
            _text(sx(g), top + plot_h + 20, f"{g:g}", 12),
        ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        out += [
            _line(left - 5, sy(v), left, sy(v)),
            _text(left - 9, sy(v) + 4, f"{v:.3g}", 12, "end"),
        ]
    out += [
        _text(left + plot_w / 2, _HEIGHT - 15, _TABLE[report.experiment].label, 14),
        f'<text x="20" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.2f})">mean bias</text>',
    ]
    legend, lx = [], left + plot_w - 130
    for idx, (est, rows) in enumerate(series.items()):
        color = _COLORS.get(est, "#333333")
        band = [(sx(g), sy(m + s)) for g, m, s in rows]
        band += [(sx(g), sy(m - s)) for g, m, s in rows[::-1]]
        out += [
            f'<polygon points="{_points(band)}" fill="{color}" fill-opacity="0.18"/>',
            f'<polyline points="{_points((sx(g), sy(m)) for g, m, _ in rows)}" fill="none" '
            f'stroke="{color}" stroke-width="2"/>',
        ]
        ly = top + 12 + 18 * idx
        legend += [
            _line(lx, ly, lx + 24, ly, color, ' stroke-width="2"'),
            _text(lx + 30, ly + 4, est, 12, anchor=None),
        ]
    return "\n".join([*out, *legend, "</svg>"]) + "\n"
