"""Benchmark of the microlcoe package, measured from outside.

Run from the root of a checkout:

    python3 bench/run.py --workload optimize_ga --seed 1 --seconds 20 --trace 0

Workloads: optimize_ga, sa_chain, study_cli, grid_scan (see README.md).
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it reports the per-layer metrics from traced ops. Human-readable
lines and a ``report`` JSON line come first; the last line of stdout is the
result: ``{"correct", "attempted", "failed", "metrics"}``.

The package is imported from ``src/`` of the checkout this file sits in,
never from an installed copy; without it the run exits with code 1 and
prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = Path(".bench_work")  # relative to ROOT, so outputs match across checkouts
WORKLOAD_NAMES = ("optimize_ga", "sa_chain", "study_cli", "grid_scan")


def import_package() -> None:
    """Put the checkout's ``src`` first on the path and import microlcoe from it."""
    if not (SRC / "microlcoe" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'microlcoe'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import microlcoe

    if Path(microlcoe.__file__).resolve().parent != (SRC / "microlcoe").resolve():
        sys.exit(f"bench: microlcoe imported from {microlcoe.__file__}, not {SRC}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", dest="setup_only",
                        help="build the workload, print 'ready' and exit (times setup_s)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def print_result(result) -> None:
    report = result.report
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"seconds {report['seconds']}  trace {report['trace']}")
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<44} {value:>16.6g} {unit}")
    print(f"  {'failed_ratio':<44} {report['failed_ratio']:>16.6g} ratio "
          f"({result.failed}/{result.attempted})")
    for failure in result.failures:
        print(f"  FAILED {failure}")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result.result_line(), allow_nan=False))


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    import_package()
    os.chdir(ROOT)
    import harness

    work_dir = WORK_DIR / args.workload
    if args.setup_only:
        setup_dir = work_dir / f"setup-{os.getpid()}"
        harness.build(args.workload, args.seed, setup_dir)
        print("ready", flush=True)
        shutil.rmtree(setup_dir, ignore_errors=True)
        return 0
    result = harness.run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                   work_dir)
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
