"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 timebench/run.py --workload tracking --seed 1 --seconds 12 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every correctness check passed.  See ``timebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Hard limit of one run; a hang becomes a failed run, not a stray process.
TIME_LIMIT_S = 170

#: Thread pools of the numeric libraries, pinned before NumPy is imported.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class RunTimeout(Exception):
    pass


def _timeout(signum, frame):
    raise RunTimeout(f"run exceeded {TIME_LIMIT_S} s")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_report(name: str, seed: int, trace: bool, report: dict) -> None:
    samples = report["samples"]
    print(f"timebench {name} seed={seed} trace={int(trace)} "
          f"passes={samples['passes']} traced_passes={samples['traced_passes']} "
          f"cold_samples={samples['colds']} period_samples={samples['periods']} "
          f"setups={samples['setups']}")
    for key, metric in report["result"]["metrics"].items():
        print(f"  {key:<28} {metric['value']:.6g} {metric['unit']}")
    for key, value in report["unbounded"].items():
        print(f"  {key:<28} {value:.6g} s (unbounded)")
    quality = report["quality"]
    print(f"  {'objective_gap':<28} {quality['objective_gap']:.3g} (relative)")
    print(f"  {'max_violation':<28} {quality['max_violation']:.3g} p.u.")
    print(f"  {'failed_share':<28} {quality['failed_share']:.3g}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from timebench.bench import run_workload
    from timebench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(TIME_LIMIT_S)
    try:
        report = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), out_dir=out_dir)
    except RunTimeout as exc:
        print(f"timebench: {exc}", file=sys.stderr)
        return 3
    finally:
        signal.alarm(0)
    children = multiprocessing.active_children()
    if children:
        for child in children:
            child.terminate()
            child.join(5)
        print(f"timebench: {len(children)} child process(es) outlived the run",
              file=sys.stderr)
        return 4
    print_report(args.workload, args.seed, bool(args.trace), report)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    sys.exit(main())
