"""Command-line entry point: fit, loo, cochran, variance, simulate.

Matrices travel as headerless CSV; structured results print as JSON on
stdout.  Exit codes: 0 success, 1 I/O or usage errors, 2 violated rank
preconditions (the message names the failed condition).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

import numpy as np

# cochran_check and ovb_decompose are not called here; perfbench/workloads.py
# traces the Cochran layers under these names on this module.
from .cochran import CochranDesign, _cochran_report, cochran_check, ovb_decompose  # noqa: F401
from .exceptions import InvalidInputError, PregolsError, RankAssumptionError
from .interpolators import PARTIAL_VARIANTS, DesignPartition, fit_partial_variant
from .linalg import RankTolerance, read_matrix_csv
from .loo import PartialLooSolver, brute_force_refit
from .simharness import EXPERIMENTS, ExperimentConfig, run_experiment, write_report
from .variance import ESTIMATOR_IDS, GaussMarkovTruth, sigma2

_MODEL_ALIASES = {
    "normal": "standard_normal",
    "spiked": "spiked",
    "geometric": "geometric",
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with code 2; we use 1
        raise _UsageError(message)


def _read_vector(path) -> np.ndarray:
    return read_matrix_csv(path).reshape(-1)


def _load_partition(args) -> DesignPartition:
    return DesignPartition(read_matrix_csv(args.w), read_matrix_csv(args.t), tol=args.tol)


def _csv_line(values) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(values).reshape(-1))


def _cmd_fit(args) -> int:
    part = _load_partition(args)
    fit = fit_partial_variant(part, _read_vector(args.y), args.variant)
    print(_csv_line(fit.lambda_hat))
    print(_csv_line(fit.tau_hat))
    return 0


def _cmd_loo(args) -> int:
    part = _load_partition(args)
    y = _read_vector(args.y)
    solver = PartialLooSolver(part)
    residuals = solver.residuals(y)
    for i, r in enumerate(residuals):
        print(f"{i},{float(r)!r}")
    if args.check_oracle:
        worst = 0.0
        for i in range(part.n):
            lam, tau = brute_force_refit(part, y, i)
            refit_pred = float(part.w[i] @ lam + part.t[i] @ tau)
            worst = max(worst, float(abs(residuals[i] - (y[i] - refit_pred))))
        print(f"oracle_max_deviation,{worst!r}")
    return 0


def _cmd_cochran(args) -> int:
    design = CochranDesign(
        read_matrix_csv(args.z), read_matrix_csv(args.u), read_matrix_csv(args.t), tol=args.tol
    )
    gaps, ovb = _cochran_report(design, _read_vector(args.y))
    _print_json({**gaps._asdict(), "ovb": None if ovb is None else asdict(ovb)})
    return 0


def _print_json(payload) -> None:
    """The records' fields in order; ndarray fields (the OVB vectors) print as lists."""
    print(json.dumps(payload, indent=2, default=list))


def _cmd_variance(args) -> int:
    if args.truth is not None and args.sigma2 is None:
        raise InvalidInputError("--truth requires --sigma2")
    if args.sigma2 is not None and args.truth is None:
        raise InvalidInputError("--sigma2 requires --truth")
    part = _load_partition(args)
    y = _read_vector(args.y)
    truth = None
    if args.truth is not None:
        truth = GaussMarkovTruth(beta=_read_vector(args.truth), sigma2=args.sigma2)
    ests = ESTIMATOR_IDS if args.estimator == "all" else (args.estimator,)
    payload = [asdict(sigma2(e, part, y, truth)) for e in ests]
    _print_json(payload if args.estimator == "all" else payload[0])
    return 0


def _cmd_simulate(args) -> int:
    if args.config is not None:
        if args.experiment is not None or args.model is not None or args.paper_scale:
            raise InvalidInputError("--config replaces --experiment/--model/--paper-scale")
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                data = json.load(fh)
            except json.JSONDecodeError as exc:
                raise InvalidInputError(f"could not parse {args.config}: {exc}") from exc
        if isinstance(data, dict):  # from_dict refuses any other document
            flags = {"seed": args.seed, "rank_tol": args.rank_tol}
            data.update({k: v for k, v in flags.items() if v is not None})  # a flag wins
        cfg = ExperimentConfig.from_dict(data)
    else:
        if args.experiment is None or args.model is None:
            raise InvalidInputError(
                "simulate needs --experiment and --model (or --config)"
            )
        cfg = ExperimentConfig.default(
            args.experiment,
            model=_MODEL_ALIASES[args.model],
            seed=args.seed if args.seed is not None else 0,
            paper_scale=args.paper_scale,
            rank_tol=args.rank_tol,
        )
    report = run_experiment(cfg, dump_dir=args.dump_dir)
    written = write_report(report, args.out, include_w=args.include_w)
    for path in written:
        print(path)
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="pregols", description=__doc__)
    parser.add_argument(
        "--rank-tol",
        type=float,
        default=None,
        metavar="REL",
        help="relative singular-value cutoff applied to every rank decision "
        "(simulate records it in its config)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    design = _Parser(add_help=False)
    design.add_argument("--w", required=True, help="penalized block, CSV")
    design.add_argument("--t", required=True, help="unpenalized block, CSV")
    design.add_argument("--y", required=True, help="response vector, CSV")

    p = sub.add_parser("fit", parents=[design], help="partially regularized interpolating fit")
    p.add_argument("--variant", choices=PARTIAL_VARIANTS, default="direct")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("loo", parents=[design], help="leave-one-out prediction residuals")
    p.add_argument(
        "--check-oracle",
        action="store_true",
        help="also report the worst deviation from brute-force refits",
    )
    p.set_defaults(func=_cmd_loo)

    p = sub.add_parser("cochran", help="long/short/auxiliary identity check and OVB")
    p.add_argument("--z", required=True, help="retained penalized block, CSV")
    p.add_argument("--u", required=True, help="omitted penalized block, CSV")
    p.add_argument("--t", required=True, help="unpenalized block, CSV")
    p.add_argument("--y", required=True)
    p.set_defaults(func=_cmd_cochran)

    p = sub.add_parser("variance", parents=[design], help="noise-variance estimators")
    p.add_argument(
        "--estimator", choices=(*ESTIMATOR_IDS, "all"), default="all"
    )
    p.add_argument("--truth", default=None, help="true coefficients, CSV")
    p.add_argument("--sigma2", type=float, default=None, help="true noise variance, "
                   "checked positive and finite; the exact bias does not depend on it")
    p.set_defaults(func=_cmd_variance)

    p = sub.add_parser("simulate", help="run a bias experiment")
    p.add_argument("--experiment", choices=EXPERIMENTS)
    p.add_argument("--model", choices=tuple(_MODEL_ALIASES))
    p.add_argument("--seed", type=int, default=None, metavar="U64")
    p.add_argument("--paper-scale", action="store_true", help="100 trials x 100 draws")
    p.add_argument(
        "--include-w",
        action="store_true",
        help="merge the w estimator into report.csv instead of supplementary.csv",
    )
    p.add_argument("--config", default=None, help="JSON experiment config")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--dump-dir", default=None, help="also dump generated matrices as CSV here"
    )
    p.set_defaults(func=_cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"pregols: error: {exc}", file=sys.stderr)
        return 1
    try:
        args.tol = RankTolerance(args.rank_tol)  # the one cutoff of every rank decision
        return args.func(args)
    except RankAssumptionError as exc:
        print(f"pregols: {exc}", file=sys.stderr)
        return 2
    except (PregolsError, OSError, ValueError) as exc:
        print(f"pregols: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
