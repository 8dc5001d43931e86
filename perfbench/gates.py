"""Correctness gates: every pass the benchmark times is checked by one of these.

Each gate returns a list of problems; an empty list means the output is
correct.  Nothing here calls into ``pregols``: the CLI expectations are
recomputed with numpy alone when the inputs are generated.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

#: Reference report values may drift by reordered sums, nothing more.
REPORT_RTOL = 1e-12
#: Relative agreement between a CLI fit and the numpy recomputation.
FIT_RTOL = 1e-8
#: Largest acceptable Cochran identity gap and OVB product mismatch.
COCHRAN_TOL = 1e-8

_FLOAT_FIELDS = ("mean_bias", "std_error")
_INT_FIELDS = ("trials", "failures")


def read_report_cells(paths) -> dict:
    """``{(grid_value, estimator): {field: value}}`` from report CSV files."""
    cells = {}
    for path in paths:
        with open(path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                key = (float(row["grid_value"]), row["estimator"])
                if key in cells:
                    raise ValueError(f"duplicate report cell {key} in {path}")
                cells[key] = {f: float(row[f]) for f in _FLOAT_FIELDS}
                cells[key].update({f: int(row[f]) for f in _INT_FIELDS})
    return cells


def compare_cells(got: dict, ref: dict, rtol: float = REPORT_RTOL) -> list[str]:
    """Cell-by-cell comparison: floats within ``rtol * (1 + |ref|)``, counts exactly."""
    problems = []
    if set(got) != set(ref):
        missing = sorted(set(ref) - set(got))
        extra = sorted(set(got) - set(ref))
        return [f"report cells differ: missing {missing}, unexpected {extra}"]
    for key in sorted(ref):
        for field in _FLOAT_FIELDS:
            g, r = got[key][field], ref[key][field]
            if not abs(g - r) <= rtol * (1.0 + abs(r)):
                problems.append(f"{key} {field}: {g!r} vs reference {r!r}")
        for field in _INT_FIELDS:
            if got[key][field] != ref[key][field]:
                problems.append(
                    f"{key} {field}: {got[key][field]} vs reference {ref[key][field]}"
                )
    return problems


def total_failures(cells: dict) -> int:
    """Failed trials in a report: counted once per grid value, not per estimator."""
    per_grid = {}
    for (grid_value, _est), cell in cells.items():
        per_grid[grid_value] = cell["failures"]
    return sum(per_grid.values())


@dataclass(frozen=True)
class DesignExpectation:
    """What the CLI must print for one design, recomputed with numpy."""

    w: np.ndarray
    t: np.ndarray
    y: np.ndarray
    lambda_hat: np.ndarray
    tau_hat: np.ndarray
    loo: dict  # index -> leave-one-out residual from a brute-force refit
    sigma2_w: float  # ||P_T y||^2 / rank(T)


def expected_fit(w: np.ndarray, t: np.ndarray, y: np.ndarray):
    """``(lambda_hat, tau_hat)`` of the partially regularized interpolator via numpy.

    ``tau_hat = (W^+ T)^+ W^+ y`` and ``lambda_hat = W^+ (y - T tau_hat)``,
    the minimum-norm W-block that interpolates what T leaves.  Every solve
    is a least-squares problem of full rank; the equivalent
    ``(P W)^+ P y`` is not used because ``P W`` is rank-deficient by
    construction, and ``numpy.linalg.pinv``'s default cutoff does not
    always drop its spurious singular values.
    """
    wp_ty = np.linalg.lstsq(w, np.column_stack([t, y]), rcond=None)[0]
    tau = np.linalg.lstsq(wp_ty[:, :-1], wp_ty[:, -1], rcond=None)[0]
    lam = np.linalg.lstsq(w, y - t @ tau, rcond=None)[0]
    return lam, tau


def expected_sigma2_w(t: np.ndarray, y: np.ndarray) -> float:
    coef, _res, rank, _sv = np.linalg.lstsq(t, y, rcond=None)
    fitted = t @ coef
    return float(fitted @ fitted) / rank


def _rel_err(got: np.ndarray, ref: np.ndarray) -> float:
    return float(np.linalg.norm(got - ref) / max(np.linalg.norm(ref), 1e-300))


def _floats(line: str) -> np.ndarray:
    return np.array([float(v) for v in line.split(",")])


def check_fit(out: str, exp: DesignExpectation) -> list[str]:
    lines = out.strip().splitlines()
    if len(lines) != 2:
        return [f"fit printed {len(lines)} lines, expected 2"]
    lam, tau = _floats(lines[0]), _floats(lines[1])
    if lam.shape != exp.lambda_hat.shape or tau.shape != exp.tau_hat.shape:
        return [f"fit shapes {lam.shape}, {tau.shape} do not match the design"]
    problems = []
    gap = float(np.max(np.abs(exp.w @ lam + exp.t @ tau - exp.y)))
    if not gap <= FIT_RTOL * (1.0 + float(np.max(np.abs(exp.y)))):
        problems.append(f"fit does not reproduce y: sup gap {gap:.3e}")
    for label, got, ref in (("lambda", lam, exp.lambda_hat), ("tau", tau, exp.tau_hat)):
        err = _rel_err(got, ref)
        if not err <= FIT_RTOL:
            problems.append(f"fit {label} differs from numpy by {err:.3e} relative")
    return problems


def check_loo(out: str, exp: DesignExpectation) -> list[str]:
    lines = out.strip().splitlines()
    n = exp.y.size
    if len(lines) != n:
        return [f"loo printed {len(lines)} lines, expected {n}"]
    resid = {}
    for line in lines:
        idx, value = line.split(",")
        resid[int(idx)] = float(value)
    if sorted(resid) != list(range(n)):
        return ["loo indices are not 0..n-1"]
    tol = FIT_RTOL * (1.0 + float(np.max(np.abs(exp.y))))
    return [
        f"loo residual {i}: {resid[i]!r} vs refit {ref!r}"
        for i, ref in exp.loo.items()
        if not abs(resid[i] - ref) <= tol
    ]


def check_cochran(out: str, exp: DesignExpectation) -> list[str]:
    payload = json.loads(out)
    problems = [
        f"cochran {key} {payload[key]!r} exceeds {COCHRAN_TOL}"
        for key in ("image_gap", "coeff_gap")
        if not payload[key] <= COCHRAN_TOL
    ]
    ovb = payload["ovb"]
    if ovb is None:
        return problems + ["cochran printed no OVB decomposition for T = [D, 1]"]
    product = float(np.dot(ovb["imbalance"], ovb["impact"]))
    if not abs(ovb["bias"] - product) <= COCHRAN_TOL * (1.0 + abs(ovb["bias"])):
        problems.append(f"OVB bias {ovb['bias']!r} != imbalance.impact {product!r}")
    return problems


def check_variance(out: str, exp: DesignExpectation) -> list[str]:
    payload = json.loads(out)
    by_id = {r["estimator_id"]: r for r in payload}
    if sorted(by_id) != ["full", "partial", "w", "wc"]:
        return [f"variance printed estimators {sorted(by_id)}"]
    problems = [
        f"variance {k}: non-finite estimate or bias"
        for k, r in by_id.items()
        if not (np.isfinite(r["estimate"]) and np.isfinite(r["expected_bias"]))
    ]
    got = by_id["w"]["estimate"]
    if not abs(got - exp.sigma2_w) <= FIT_RTOL * abs(exp.sigma2_w):
        problems.append(f"variance w {got!r} != ||P_T y||^2/rank(T) {exp.sigma2_w!r}")
    return problems


CHECKS = {
    "fit": check_fit,
    "loo": check_loo,
    "cochran": check_cochran,
    "variance": check_variance,
}


def check_command(kind: str, code: int, out: str, exp: DesignExpectation) -> list[str]:
    """Gate one CLI command: exit code 0 and an output that passes its check."""
    if code != 0:
        return [f"{kind} exited with code {code}"]
    try:
        return CHECKS[kind](out, exp)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"{kind} output could not be parsed: {exc!r}"]
