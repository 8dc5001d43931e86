"""Declarative experiment runner for the estimator-bias studies.

Five experiments over a one-dimensional grid, each cell aggregating
``trials`` independent designs x ``draws_per_trial`` responses per design:

* ``sim1`` — fixed p = 100, grid over the sample size n;
* ``sim2`` — fixed aspect ratio n/p = 0.8, grid over p;
* ``sim3`` — fixed (n, p) = (80, 100), grid over the noise level sigma;
* ``sim4`` — fixed (n, p) = (80, 100), grid over the intercept magnitude;
* ``ate``  — treatment-effect bias, grid over the true effect tau.

The variance experiments record ``sigma2_hat - sigma^2`` per draw for each
selected estimator; the treatment experiment records the error of the
treatment coefficient for the unsplit and split fits.  A cell reports the
mean of per-trial means and the standard error across trials.

Each trial draws its design and then all its responses from stream
``g * 2^20 + t`` of the root seed; the responses come as one block (in
chunks of at most 1024 rows), and each estimator is applied to the whole
block with one matrix product.

Determinism: the block holds exactly the sequential draws of that stream,
and the trials run one after another in the caller's thread in fixed
(grid, trial) order, so results are byte-identical across runs.
"""

from __future__ import annotations

import numbers
import os
from collections import Counter
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dgp import (
    COVARIATE_MODELS,
    CovariateConfig,
    Seed,
    gen_ate_design,
    gen_covariates,
    standard_normal,
)
from .exceptions import ExperimentAbortedError, InvalidInputError, RankAssumptionError
from .interpolators import DesignPartition
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

EXPERIMENTS = ("sim1", "sim2", "sim3", "sim4", "ate")

DEFAULT_GRIDS: dict[str, tuple[float, ...]] = {
    "sim1": (20.0, 40.0, 60.0, 80.0, 99.0),
    "sim2": (50.0, 75.0, 100.0, 125.0, 150.0),
    "sim3": (1.0, 2.0, 5.0, 7.0, 10.0),
    "sim4": (1.0, 2.0, 5.0, 7.0, 10.0),
    "ate": (-8.0, -6.0, -4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0, 6.0, 8.0),
}

_FIXED_P = 100
_SIM2_RATIO = 0.8
_ATE_N, _ATE_Q = 80, 98
_STREAM_STRIDE = 1 << 20
_MAX_FAILURE_FRACTION = 0.05
_DRAW_BLOCK = 1024  # most response rows one trial holds at a time

_ATE_ESTIMATORS = ("full", "partial")


_COVARIATE_KEYS = tuple(
    f.name for f in fields(CovariateConfig) if f.name not in ("model", "n", "q")
)


def _covariate_settings(model: str, cov: dict) -> dict:
    """A copy of ``cov`` checked once as the parameters of a :class:`CovariateConfig`."""
    fixed = sorted(set(cov) & {"model", "n", "q"})
    if fixed:
        raise InvalidInputError(
            f"covariate may not set {fixed}: the experiment and its grid choose them"
        )
    unknown = sorted(set(cov) - set(_COVARIATE_KEYS))
    if unknown:
        raise InvalidInputError(
            f"unknown covariate keys {unknown}; choose from {list(_COVARIATE_KEYS)}"
        )
    cov = dict(cov)
    try:
        if "lambda_range" in cov:
            cov["lambda_range"] = tuple(cov["lambda_range"])
        CovariateConfig(model=model, n=1, q=1, **cov)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"invalid covariate settings {cov}: {exc}") from None
    return cov


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment run: which study, which covariate model, and repeat counts.

    The desk-scale defaults (25 x 25) keep a full run under a few minutes;
    ``paper_scale=True`` in :meth:`default` switches to the 100 x 100 repeat
    structure of the original studies.  ``covariate`` holds
    :class:`CovariateConfig` parameters for ``sim1``-``sim4``, validated here
    once; ``ate`` always draws default spiked covariates and takes none.
    """

    experiment: str
    model: str = "spiked"
    grid: tuple[float, ...] | None = None
    trials: int = 25
    draws_per_trial: int = 25
    estimators: tuple[str, ...] = ESTIMATOR_IDS
    seed: int = 0
    covariate: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise InvalidInputError(
                f"unknown experiment {self.experiment!r}; choose from {EXPERIMENTS}"
            )
        if self.model not in COVARIATE_MODELS:
            raise InvalidInputError(
                f"unknown covariate model {self.model!r}; choose from {COVARIATE_MODELS}"
            )
        if self.experiment == "ate" and self.model != "spiked":
            raise InvalidInputError("the ate experiment uses the spiked model only")
        if not isinstance(self.covariate, dict):
            raise InvalidInputError("covariate must be an object")
        if self.experiment == "ate" and self.covariate:
            raise InvalidInputError(
                "the ate experiment uses the default spiked covariates; "
                f"it takes no covariate settings, got {sorted(self.covariate)}"
            )
        object.__setattr__(self, "covariate", _covariate_settings(self.model, self.covariate))
        raw = DEFAULT_GRIDS[self.experiment] if self.grid is None else self.grid
        if not isinstance(raw, (list, tuple)) or not all(
            isinstance(v, numbers.Real) and not isinstance(v, bool) for v in raw
        ):
            raise InvalidInputError(f"grid must be a list of numbers, got {raw!r}")
        grid = tuple(float(v) for v in raw)
        if not grid:
            raise InvalidInputError("grid must be nonempty")
        if not np.all(np.isfinite(grid)):
            raise InvalidInputError(f"grid values must be finite, got {list(grid)}")
        object.__setattr__(self, "grid", grid)
        for name in ("trials", "draws_per_trial"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidInputError(f"{name} must be an integer, got {value!r}")
        if self.trials < 1 or self.draws_per_trial < 1:
            raise InvalidInputError("trials and draws_per_trial must be >= 1")
        if self.trials > _STREAM_STRIDE:
            raise InvalidInputError(f"trials must be <= {_STREAM_STRIDE}")
        ests = self.estimators
        if not isinstance(ests, (list, tuple)) or not all(isinstance(e, str) for e in ests):
            raise InvalidInputError(f"estimators must be a list of names, got {ests!r}")
        ests = tuple(ests)
        if not ests or any(e not in ESTIMATOR_IDS for e in ests):
            raise InvalidInputError(
                f"estimators must be a nonempty subset of {ESTIMATOR_IDS}"
            )
        object.__setattr__(self, "estimators", ests)
        Seed(self.seed)  # validates the root
        if self.experiment == "sim1":
            bad = [v for v in grid if not 2 <= v < _FIXED_P]
            if bad:
                raise InvalidInputError(
                    f"sim1 grid values must be sample sizes in [2, {_FIXED_P}), got {bad}"
                )
        if self.experiment == "sim2":
            bad = [v for v in grid if round(_SIM2_RATIO * v) < 2 or v < 3]
            if bad:
                raise InvalidInputError(f"sim2 grid values too small: {bad}")
        if self.experiment == "sim3" and any(v < 0 for v in grid):
            raise InvalidInputError("sim3 grid values are noise levels, must be >= 0")

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
        repeats = 100 if paper_scale else 25
        base = cls(
            experiment=experiment,
            model=model,
            seed=seed,
            trials=repeats,
            draws_per_trial=repeats,
        )
        return replace(base, **overrides) if overrides else base

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """Build from a parsed JSON document (see README for the schema)."""
        if not isinstance(data, dict):
            raise InvalidInputError("config document must be a JSON object")
        known = {
            "experiment",
            "model",
            "grid",
            "trials",
            "draws_per_trial",
            "estimators",
            "seed",
            "covariate",
        }
        unknown = set(data) - known
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


def _sim_parameters(experiment: str, grid_value: float) -> tuple[int, int, float, float]:
    """(n, p, sigma, beta0) for one variance-experiment cell."""
    if experiment == "sim1":
        return int(grid_value), _FIXED_P, 1.0, 1.0
    if experiment == "sim2":
        p = int(grid_value)
        return int(round(_SIM2_RATIO * p)), p, 1.0, 1.0
    if experiment == "sim3":
        return 80, _FIXED_P, float(grid_value), 1.0
    if experiment == "sim4":
        return 80, _FIXED_P, 1.0, float(grid_value)
    raise InvalidInputError(f"not a variance experiment: {experiment!r}")


def _dump(dump_dir, cfg, gi, ti, name, matrix) -> None:
    path = os.path.join(
        dump_dir, f"{cfg.experiment}_{cfg.model}_g{gi:02d}_t{ti:04d}_{name}.csv"
    )
    write_matrix_csv(path, matrix)


def _response_blocks(rng, mean_y: np.ndarray, scale: float, draws: int):
    """A trial's responses ``mean_y + scale * z`` as blocks of at most ``_DRAW_BLOCK`` rows.

    Consecutive ``standard_normal(rng, (k, n))`` calls continue one stream,
    so row ``j`` overall is the ``j``-th sequential draw whatever the block
    size; memory stays O(_DRAW_BLOCK * n) for any ``draws``.
    """
    n = mean_y.size
    for start in range(0, draws, _DRAW_BLOCK):
        k = min(_DRAW_BLOCK, draws - start)
        yield mean_y + scale * standard_normal(rng, (k, n))


def _sim_trial(cfg: ExperimentConfig, gi: int, ti: int, dump_dir=None):
    """One design draw plus its response draws; returns per-estimator mean biases."""
    rng = Seed(cfg.seed).rng(gi * _STREAM_STRIDE + ti)
    n, p, sigma, beta0 = _sim_parameters(cfg.experiment, cfg.grid[gi])
    q = p - 1
    cov = CovariateConfig(model=cfg.model, n=n, q=q, **cfg.covariate)
    w_svd = gen_covariates(cov, rng)
    w = w_svd.a
    if dump_dir is not None:
        _dump(dump_dir, cfg, gi, ti, "w", w)
    part = DesignPartition(w_svd, np.ones((n, 1)))
    ops = {est: residual_operator(est, part) for est in cfg.estimators}
    beta1 = np.full(q, p**-0.5)
    mean_y = w @ beta1 + beta0
    sums = {est: 0.0 for est in cfg.estimators}
    for ys in _response_blocks(rng, mean_y, sigma, cfg.draws_per_trial):
        for est, op in ops.items():
            sums[est] += float(np.sum(op.estimates(ys) - sigma**2))
    return {est: s / cfg.draws_per_trial for est, s in sums.items()}


def _treatment_rows(part: DesignPartition) -> tuple[np.ndarray, np.ndarray]:
    """Rows mapping ``y`` to the treatment coefficient of the full and the split fit.

    ``T = [d, 1]``.  The full fit's is row q of ``X^+ = X^T G_X``, that is
    ``G_X d`` with ``G_X`` from :meth:`DesignPartition.full_gram_inverse`; the
    split fit's is the first row of :meth:`DesignPartition.tau_map`.
    """
    return part.full_gram_inverse() @ part.t[:, 0], part.tau_map()[0]


def _ate_trial(cfg: ExperimentConfig, gi: int, ti: int, dump_dir=None):
    """One (covariates, treatment) draw; mean treatment-coefficient error per fit."""
    rng = Seed(cfg.seed).rng(gi * _STREAM_STRIDE + ti)
    tau = cfg.grid[gi]
    n, q = _ATE_N, _ATE_Q
    w_svd, dvec = gen_ate_design(n, q, rng)
    w = w_svd.a
    if dump_dir is not None:
        _dump(dump_dir, cfg, gi, ti, "w", w)
        _dump(dump_dir, cfg, gi, ti, "d", dvec.reshape(-1, 1))
    part = DesignPartition(w_svd, np.column_stack([dvec, np.ones(n)]))
    full_row, partial_row = _treatment_rows(part)
    alpha = np.full(q, (q + 2) ** -0.5)
    mean_y = w @ alpha + tau * dvec + 1.0
    sums = {"full": 0.0, "partial": 0.0}
    for ys in _response_blocks(rng, mean_y, 1.0, cfg.draws_per_trial):
        sums["full"] += float(np.sum(ys @ full_row - tau))
        sums["partial"] += float(np.sum(ys @ partial_row - tau))
    return {est: s / cfg.draws_per_trial for est, s in sums.items()}


def _collect_trials(cfg: ExperimentConfig, trial_fn, dump_dir):
    """Run every (grid, trial) task in fixed order; a rank failure is kept as its reason."""
    by_cell: list[list] = [[] for _ in cfg.grid]
    for gi in range(len(cfg.grid)):
        for ti in range(cfg.trials):
            try:
                by_cell[gi].append(trial_fn(cfg, gi, ti, dump_dir))
            except RankAssumptionError as exc:
                by_cell[gi].append(str(exc))
    return by_cell


def _failure_summary(outcomes) -> str:
    """Every distinct failure reason with its count, most frequent first."""
    counts = Counter(o for o in outcomes if isinstance(o, str))
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    return "; ".join(f"{reason} (x{n})" for reason, n in ranked)


def _aggregate(cfg: ExperimentConfig, by_cell, estimators) -> ExperimentReport:
    cells = []
    for gi, outcomes in enumerate(by_cell):
        means = [o for o in outcomes if isinstance(o, dict)]
        failures = len(outcomes) - len(means)
        if failures > _MAX_FAILURE_FRACTION * cfg.trials:
            raise ExperimentAbortedError(
                f"{failures}/{cfg.trials} trials failed at grid value "
                f"{cfg.grid[gi]} of {cfg.experiment}: {_failure_summary(outcomes)}"
            )
        for est in estimators:
            vals = np.array([m[est] for m in means])
            se = (
                float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
            )
            cells.append(
                CellResult(
                    grid_value=cfg.grid[gi],
                    estimator=est,
                    mean_bias=float(vals.mean()),
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
    if cfg.experiment == "ate":
        return _aggregate(cfg, _collect_trials(cfg, _ate_trial, dump_dir), _ATE_ESTIMATORS)
    return _aggregate(cfg, _collect_trials(cfg, _sim_trial, dump_dir), cfg.estimators)


# --------------------------------------------------------------------------
# report emission
# --------------------------------------------------------------------------

_CSV_HEADER = (
    "experiment,model,grid_value,estimator,mean_bias,std_error,trials,draws,failures,seed"
)

_COLORS = {
    "full": "#d62728",
    "partial": "#2ca02c",
    "wc": "#1f77b4",
    "w": "#9467bd",
}

_X_LABELS = {
    "sim1": "sample size n",
    "sim2": "covariate dimension p",
    "sim3": "noise standard deviation",
    "sim4": "intercept magnitude",
    "ate": "true treatment effect",
}


def _csv_rows(report: ExperimentReport):
    cfg = report.config
    for c in report.cells:
        yield (
            f"{cfg.experiment},{cfg.model},{c.grid_value!r},{c.estimator},"
            f"{c.mean_bias!r},{c.std_error!r},{c.trials},{c.draws},{c.failures},"
            f"{cfg.seed}"
        )


def write_report(reports, out_dir, include_w: bool = False) -> list[str]:
    """Emit ``report.csv`` (plus ``supplementary.csv``) and one SVG per report.

    The ``w`` estimator's rows go to ``supplementary.csv`` unless
    ``include_w`` merges them into the main table: its bias is larger by
    orders of magnitude and would dominate any shared axis.  Output is
    byte-identical across reruns of the same seed.
    """
    if isinstance(reports, ExperimentReport):
        reports = [reports]
    os.makedirs(out_dir, exist_ok=True)
    main_rows, supp_rows = [], []
    for report in reports:
        for row in _csv_rows(report):
            is_w = row.split(",")[3] == "w"
            (supp_rows if (is_w and not include_w) else main_rows).append(row)
    written = []
    main_path = os.path.join(out_dir, "report.csv")
    with open(main_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(_CSV_HEADER + "\n")
        fh.writelines(r + "\n" for r in main_rows)
    written.append(main_path)
    if supp_rows:
        supp_path = os.path.join(out_dir, "supplementary.csv")
        with open(supp_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_CSV_HEADER + "\n")
            fh.writelines(r + "\n" for r in supp_rows)
        written.append(supp_path)
    for report in reports:
        svg_path = os.path.join(
            out_dir, f"{report.experiment}_{report.model}.svg"
        )
        with open(svg_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_render_svg(report))
        written.append(svg_path)
    return written


def _render_svg(report: ExperimentReport, width: int = 800, height: int = 600) -> str:
    """Static line chart with shaded +/- one-standard-error bands."""
    left, right, top, bottom = 75.0, 25.0, 45.0, 65.0
    plot_w, plot_h = width - left - right, height - top - bottom
    grid = sorted({c.grid_value for c in report.cells})
    estimators = []
    for c in report.cells:
        if c.estimator not in estimators:
            estimators.append(c.estimator)
    series = {
        est: (
            [report.cell(g, est).mean_bias for g in grid],
            [report.cell(g, est).std_error for g in grid],
        )
        for est in estimators
    }
    lo = min(min(m - s for m, s in zip(*sv)) for sv in series.values())
    hi = max(max(m + s for m, s in zip(*sv)) for sv in series.values())
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
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.2f}" y="25" text-anchor="middle" font-family="sans-serif" '
        f'font-size="16">{report.experiment} bias profile ({report.model} model)</text>',
    ]
    # axes
    out.append(
        f'<line x1="{left:.2f}" y1="{top + plot_h:.2f}" x2="{left + plot_w:.2f}" '
        f'y2="{top + plot_h:.2f}" stroke="black"/>'
    )
    out.append(
        f'<line x1="{left:.2f}" y1="{top:.2f}" x2="{left:.2f}" '
        f'y2="{top + plot_h:.2f}" stroke="black"/>'
    )
    if lo < 0.0 < hi:
        out.append(
            f'<line x1="{left:.2f}" y1="{sy(0):.2f}" x2="{left + plot_w:.2f}" '
            f'y2="{sy(0):.2f}" stroke="#bbbbbb" stroke-dasharray="4,3"/>'
        )
    for g in grid:
        out.append(
            f'<line x1="{sx(g):.2f}" y1="{top + plot_h:.2f}" x2="{sx(g):.2f}" '
            f'y2="{top + plot_h + 5:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{sx(g):.2f}" y="{top + plot_h + 20:.2f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{g:g}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        out.append(
            f'<line x1="{left - 5:.2f}" y1="{sy(v):.2f}" x2="{left:.2f}" '
            f'y2="{sy(v):.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{left - 9:.2f}" y="{sy(v) + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{v:.3g}</text>'
        )
    out.append(
        f'<text x="{left + plot_w / 2:.2f}" y="{height - 15:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_X_LABELS[report.experiment]}</text>'
    )
    out.append(
        f'<text x="20" y="{top + plot_h / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.2f})">mean bias</text>'
    )
    for est in estimators:
        means, ses = series[est]
        color = _COLORS.get(est, "#333333")
        band = [(sx(g), sy(m + s)) for g, m, s in zip(grid, means, ses)]
        band += [(sx(g), sy(m - s)) for g, m, s in zip(reversed(grid), reversed(means), reversed(ses))]
        pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in band)
        out.append(f'<polygon points="{pts}" fill="{color}" fill-opacity="0.18"/>')
        pts = " ".join(f"{sx(g):.2f},{sy(m):.2f}" for g, m in zip(grid, means))
        out.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="2"/>'
        )
    for idx, est in enumerate(estimators):
        color = _COLORS.get(est, "#333333")
        ly = top + 12 + 18 * idx
        lx = left + plot_w - 130
        out.append(
            f'<line x1="{lx:.2f}" y1="{ly:.2f}" x2="{lx + 24:.2f}" y2="{ly:.2f}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        out.append(
            f'<text x="{lx + 30:.2f}" y="{ly + 4:.2f}" font-family="sans-serif" '
            f'font-size="12">{est}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
