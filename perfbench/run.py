"""pregols benchmark: three workloads, end-to-end metrics and a traced per-layer run.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload sim-paper --seed 314 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another

``--trace 0`` reports the end-to-end metrics from untraced passes;
``--trace 1`` reports the per-layer metrics from traced passes.  Timed and
traced passes run with ``PREGOLS_THREADS=1`` (see below).  Human-readable
lines (environment, every metric with its unit and sample count) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import os

# BLAS threads are pinned before numpy is imported: on a small machine the
# program's thread pool times BLAS's own threads oversubscribes the cores and
# the run measures the scheduler.  The timed passes also run the harness on
# one thread: its default pool of one thread per core contends for the
# interpreter lock, and on 2 CPUs a pass then varied by 25% within a run and
# its median by up to 28% between runs, against 3-5% serial.  The default
# pool is still run: once per run to check that it gives the serial result,
# and in the traced run as ``simharness.pool_run_s``.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "PREGOLS_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

from measure import percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("sim-paper", "ate-paper", "cli-oneshot")
DEFAULT_SEED = 314
#: Set-up runs this many times; ``setup_s`` adds the median to the import time.
SETUP_REPEATS = 5
#: cli-oneshot keeps going until p90 has ten commands beyond it.
MIN_COMMANDS = 100


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git; ``unknown`` outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(args, samples: dict) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "PREGOLS_THREADS": os.environ.get("PREGOLS_THREADS"),
        "pregols_default_pool_threads": os.cpu_count(),
        "git_commit": _git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "samples": samples,
    }


def _line(name, value, unit, note="") -> str:
    return f"{name:<40} {value:>14.6g} {unit:<6} {note}"


def _measure(wl, args):
    """Timed passes until ``--seconds`` have elapsed.

    Returns ``(passes, serial, pool)``: the passes whose numbers are
    reported (traced ones under ``--trace 1``) and, when tracing, the
    untraced passes on one thread and on the program's default pool.
    """
    import workloads

    passes, serial, pool = [], [], []
    deadline = time.perf_counter() + args.seconds
    index = 0
    while True:
        if args.trace:
            serial.append(wl.run_pass(index))
            passes.append(workloads.run_traced(wl.run_pass, index))
            with workloads.pool_threads(None):
                pool.append(wl.run_pass(index))
        else:
            passes.append(wl.run_pass(index))
        index += 1
        commands = sum(len(p.latencies) for p in passes)
        enough = args.trace or not passes[0].latencies or commands >= MIN_COMMANDS
        if time.perf_counter() >= deadline and enough:
            return passes, serial, pool


def run_workload(args, import_s: float) -> int:
    import workloads

    workdir = HERE / ".work" / str(os.getpid())
    try:
        wl = workloads.make_workload(args.workload, args.seed, workdir)
        setups = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl.setup()
            setups.append(time.perf_counter() - start)
        setup_s = import_s + median(setups)
        passes, serial, pool = _measure(wl, args)
        wl.check(passes + serial + pool, pool[0] if pool else None)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    everything = passes + serial + pool
    attempted = sum(p.attempted for p in everything)
    failed = sum(p.failed for p in everything)
    problems = [msg for p in everything for msg in p.problems]
    lines = [
        _line("setup_s", setup_s, "s",
              f"import {import_s:.4f} s + median of {len(setups)} set-ups"),
        _line("error_rate", failed / attempted, "ratio",
              f"failed={failed} attempted={attempted}"),
    ]
    samples = {"setups": len(setups), "passes": len(passes), "serial_passes": len(serial),
               "pool_passes": len(pool), "operations": attempted}
    if args.trace:
        units = workloads.PER_LAYER_UNITS
        metrics = _layer_metrics(passes, serial, pool, units)
        lines += [_line(k, v, units[k]) for k, v in metrics.items()]
        lines.append(f"{'':<40} per-layer values are medians over {len(passes)} traced passes")
    else:
        run_s = median([p.seconds for p in passes])
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = workloads.END_TO_END_UNITS
        metrics = {"setup_s": setup_s, "run_s": run_s, "peak_rss_mb": rss_mb}
        times = sorted(p.seconds for p in passes)
        lines.append(_line("run_s", run_s, "s", f"median of {len(passes)} passes, "
                           f"min {times[0]:.4f} max {times[-1]:.4f}"))
        lines.append(_line("peak_rss_mb", rss_mb, "MB", "whole process"))
        latencies = [t for p in passes for t in p.latencies]
        if latencies:
            samples["commands"] = len(latencies)
            lines.append(_line("cmd_p50_ms", 1e3 * median(latencies), "ms",
                               f"samples={len(latencies)}"))
            lines.append(_line("cmd_p90_ms", 1e3 * percentile(latencies, 90), "ms",
                               f"samples={len(latencies)}"))
        if getattr(wl, "parallel", None) is not None:
            lines.append(_line("pool_check_pass_s", wl.parallel.seconds, "s",
                               "PREGOLS_THREADS unset, checked against the timed passes"))
    print("env " + json.dumps(_environment(args, samples), sort_keys=True))
    print("\n".join(lines))
    for msg in problems[:10]:
        print(f"perfbench: {msg}", file=sys.stderr)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def _layer_metrics(passes, serial, pool, units) -> dict:
    serial_s = median([p.seconds for p in serial])
    metrics = {}
    for key in units:
        if key == "simharness.serial_run_s":
            metrics[key] = serial_s
        elif key == "simharness.pool_run_s":
            metrics[key] = median([p.seconds for p in pool])
        elif key == "trace.overhead":
            metrics[key] = median([p.seconds for p in passes]) / serial_s
        else:
            metrics[key] = median([p.layers[key] for p in passes])
    return metrics


def run_all(args) -> int:
    """Run every workload in its own process, so each reports its own peak memory."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        done = subprocess.run(cmd, cwd=ROOT, check=False)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "pregols" / "__init__.py").is_file():
        print(f"perfbench: no package source at {src / 'pregols'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import workloads  # noqa: F401  numpy, scipy and the package under test
    import_s = time.perf_counter() - start
    return run_workload(args, import_s)


if __name__ == "__main__":
    sys.exit(main())
