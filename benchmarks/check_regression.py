#!/usr/bin/env python
"""CI performance-regression gate: compare fresh BENCH_*.json to baselines.

Every throughput benchmark writes a ``BENCH_*.json`` artifact into the
git-ignored ``benchmarks/out/``; blessed
copies of those artifacts live in ``benchmarks/baselines/``.  This script
compares the *gated metric* of each fresh artifact against its baseline and
fails (exit 1) when the fresh value has dropped by more than the tolerance
(default 25 %).

The gated metrics are all **speedup ratios** (compacted vs full sweep,
batched vs sequential, pooled makespan at N workers vs 1), not absolute
wall-clock numbers — ratios compare a machine to itself, so the gate is
meaningful on CI runners of any speed.  Baselines are recorded at smoke
sizes (``REPRO_BENCH_SMOKE=1``) because that is what the PR-gating job
runs; a fresh artifact whose ``smoke_mode`` disagrees with its baseline is
skipped with a warning rather than compared apples-to-oranges (the weekly
full-size workflow uploads artifacts without gating).

Updating a baseline (see EXPERIMENTS.md for the full workflow)::

    REPRO_BENCH_SMOKE=1 PYTHONPATH=src python -m pytest \
        benchmarks/test_compaction_throughput.py \
        benchmarks/test_batch_throughput.py \
        benchmarks/test_pool_throughput.py \
        benchmarks/test_tracking_throughput.py \
        "benchmarks/test_ablation_penalty.py::test_ablation_adaptive_rho_tracking" -q
    cp benchmarks/out/BENCH_compaction.json benchmarks/out/BENCH_batch.json \
        benchmarks/out/BENCH_pool.json benchmarks/out/BENCH_tracking.json \
        benchmarks/baselines/

then bless each gated value in each copied file: move the measured
``speedup`` into ``speedup_measured`` and set ``speedup`` slightly below
it, so run-to-run noise at smoke sizes doesn't trip the gate (same for
``iteration_speedup`` and ``adaptive_iteration_speedup`` in
``BENCH_tracking.json``).  A gated metric that is **absent from the
committed baseline** is reported and skipped rather than failed — that is
how a new gate rolls out before its first baseline refresh.

Usage::

    python benchmarks/check_regression.py [--results-dir benchmarks/out] \
        [--baseline-dir benchmarks/baselines] [--tolerance 0.25] [--require-all]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

#: file name -> ((dotted metric path, per-metric tolerance or None), ...)
GATED_METRICS: dict[str, tuple[tuple[str, float | None], ...]] = {
    "BENCH_compaction.json": (("speedup", None),),
    "BENCH_batch.json": (("speedup", None),),
    "BENCH_pool.json": (("speedup", None),),
    # warm-start tracking: cold/warm total-ADMM-iteration ratio, plus the
    # fixed-ρ/adaptive-ρ ratio of the penalty ablation — iteration counts
    # are deterministic, so both gates are noise-free by construction
    "BENCH_tracking.json": (("iteration_speedup", None),
                            ("adaptive_iteration_speedup", None)),
}


def extract(payload: dict, dotted: str):
    value = payload
    for key in dotted.split("."):
        if not isinstance(value, dict) or key not in value:
            raise KeyError(dotted)
        value = value[key]
    return float(value)


def check_file(name: str, results_dir: Path, baseline_dir: Path,
               default_tolerance: float, require_all: bool) -> tuple[bool, str]:
    """Returns ``(ok, message)`` for one artifact/baseline pair."""
    metrics = GATED_METRICS[name]
    baseline_path = baseline_dir / name
    fresh_path = results_dir / name

    if not baseline_path.exists():
        return True, f"SKIP {name}: no baseline committed"
    if not fresh_path.exists():
        message = f"{name}: baseline exists but no fresh artifact was produced"
        return (not require_all), ("FAIL " if require_all else "SKIP ") + message

    try:
        baseline = json.loads(baseline_path.read_text())
        fresh = json.loads(fresh_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        # a truncated / corrupt artifact must fail loudly, not crash the gate
        return False, f"FAIL {name}: malformed JSON ({exc})"
    if not isinstance(baseline, dict) or not isinstance(fresh, dict):
        return False, f"FAIL {name}: artifact is not a JSON object"
    if bool(baseline.get("smoke_mode")) != bool(fresh.get("smoke_mode")):
        return True, (f"SKIP {name}: smoke_mode mismatch "
                      f"(baseline={baseline.get('smoke_mode')}, "
                      f"fresh={fresh.get('smoke_mode')}) — not comparable")
    if baseline.get("worker_count") != fresh.get("worker_count"):
        # e.g. a local REPRO_BENCH_POOL_WORKERS=1,2 run vs the committed
        # 4-worker baseline: a 2-worker speedup is not a regression
        return True, (f"SKIP {name}: worker_count mismatch "
                      f"(baseline={baseline.get('worker_count')}, "
                      f"fresh={fresh.get('worker_count')}) — not comparable")
    # artifacts predating the backend stamp were all NumPy-produced
    baseline_backend = baseline.get("backend") or "numpy"
    fresh_backend = fresh.get("backend") or "numpy"
    if baseline_backend != fresh_backend:
        # e.g. a REPRO_BACKEND=numba run vs the committed NumPy baseline: a
        # different kernel implementation is a different machine, not a
        # regression of this one
        return True, (f"SKIP {name}: kernel-backend mismatch "
                      f"(baseline={baseline_backend}, "
                      f"fresh={fresh_backend}) — not comparable")

    ok = True
    compared = False
    details = []
    for metric, tolerance in metrics:
        tolerance = default_tolerance if tolerance is None else tolerance
        try:
            baseline_value = extract(baseline, metric)
        except KeyError:
            # metric not blessed in the committed baseline yet (staged
            # rollout of a new gate): note it, keep gating the others
            details.append(f"{metric} not in baseline (not yet blessed)")
            continue
        except (TypeError, ValueError):
            ok = False
            details.append(f"gated metric {metric!r} is not numeric in baseline")
            continue
        try:
            fresh_value = extract(fresh, metric)
        except KeyError:
            # a renamed / missing gated key is a harness bug, not a skip: it
            # would otherwise silently disarm the gate
            ok = False
            details.append(f"gated metric {metric!r} missing from artifact")
            continue
        except (TypeError, ValueError):
            ok = False
            details.append(f"gated metric {metric!r} is not numeric")
            continue
        compared = True
        floor = baseline_value * (1.0 - tolerance)
        detail = (f"{metric} fresh={fresh_value:.3f} "
                  f"baseline={baseline_value:.3f} "
                  f"(floor={floor:.3f}, tolerance={tolerance:.0%}, "
                  f"baseline sha={baseline.get('git_sha', 'unknown')[:8]})")
        if fresh_value < floor:
            ok = False
        details.append(detail)
    joined = f"{name}: " + "; ".join(details)
    if not ok:
        return False, f"FAIL {joined}"
    if not compared:
        return True, f"SKIP {joined}"
    return True, f"OK   {joined}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--results-dir", type=Path,
                        default=Path(__file__).resolve().parent / "out",
                        help="directory holding the fresh BENCH_*.json files")
    parser.add_argument("--baseline-dir", type=Path,
                        default=Path(__file__).resolve().parent / "baselines")
    parser.add_argument("--tolerance", type=float, default=0.25,
                        help="allowed fractional drop before failing "
                             "(default 0.25 = 25%%)")
    parser.add_argument("--require-all", action="store_true",
                        help="fail when a committed baseline has no fresh "
                             "artifact (CI: every gated benchmark must run)")
    args = parser.parse_args(argv)

    failed = False
    for name in sorted(GATED_METRICS):
        ok, message = check_file(name, args.results_dir, args.baseline_dir,
                                 args.tolerance, args.require_all)
        print(message)
        failed = failed or not ok

    if failed:
        print("\nperformance regression gate FAILED — if the drop is expected "
              "(e.g. a deliberate trade-off), refresh the baselines per "
              "EXPERIMENTS.md and commit them with the change")
        return 1
    print("\nperformance regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
