"""Benchmark: multi-device scenario sharding scales the batch across a pool.

The workload is the same 8-scenario heterogeneous N-1 batch of
``pegase118_like`` the compaction benchmark uses (each outage screened at
its own operating point, so per-scenario solve times differ by design).  A
``DevicePool`` shards it across 1 / 2 / 4 workers with cost-aware placement
and work-stealing rebalance; per-scenario solutions are asserted identical
— same iterates — to the single-device batched solve at every width.

**What is timed.**  Each chunk's solve runs on its own simulated device and
is timed inside the worker; a worker's busy time is the sum of its chunks
and the pool's *makespan* (max per-worker busy time) is the wall-clock a
fleet of real devices would need.  The scaling assertion uses the
sequential executor, which runs chunks one at a time so the per-chunk
timings are contention-free — on a single-core CI host, concurrent worker
processes merely timeshare the core and real wall-clock cannot improve, so
asserting on it would measure the host, not the scheduler.  A 2-worker
``multiprocessing`` run is still executed to verify the default executor
end-to-end (identical solutions through real process boundaries) and its
wall-clock is recorded for multi-core machines.

Shape asserted: ≥ 2× makespan speedup at 4 workers vs 1 (the batch's
heterogeneity caps the ideal 4× — the hardest scenario bounds the makespan
from below; stealing is what keeps the remaining workers busy).  Results,
including the per-worker chunk log and merged device metrics, go to
``BENCH_pool.json``.

``REPRO_BENCH_POOL_WORKERS`` overrides the worker-count sweep (the CI
pool-smoke leg runs ``1,2``); ``REPRO_BENCH_SMOKE=1`` shrinks iteration
budgets and relaxes the bar accordingly.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np
from test_compaction_throughput import CASE, heterogeneous_n1_batch

from repro.admm import solve_acopf_admm_batch
from repro.admm.parameters import parameters_for_case
from repro.analysis.reporting import render_table
from repro.grid.cases import load_case
from repro.parallel import DevicePool, SimulatedDevice

RESULT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_pool.json"


def pool_worker_counts() -> list[int]:
    """Worker-count sweep (``REPRO_BENCH_POOL_WORKERS``, default ``1,2,4``).

    1 is always included: the speedup metric is "makespan at N workers vs
    1", so the sweep needs its baseline even when the env var omits it.
    """
    raw = os.environ.get("REPRO_BENCH_POOL_WORKERS", "1,2,4")
    counts = {max(1, int(item)) for item in raw.split(",") if item.strip()}
    return sorted(counts | {1}) if counts else [1, 2, 4]


def assert_identical(pooled, reference) -> None:
    for a, b in zip(pooled, reference):
        assert a.inner_iterations == b.inner_iterations
        assert a.outer_iterations == b.outer_iterations
        assert np.array_equal(a.vm, b.vm)
        assert np.array_equal(a.va, b.va)
        assert np.array_equal(a.pg, b.pg)
        assert np.array_equal(a.qg, b.qg)


def test_pool_scaling_on_heterogeneous_n1_batch(benchmark, smoke, bench_merger):
    scenario_set = heterogeneous_n1_batch()
    if smoke:
        params = parameters_for_case(load_case(CASE), max_outer=2, max_inner=12,
                                     outer_tol=1e-2)
    else:
        params = parameters_for_case(load_case(CASE), max_outer=3, max_inner=40,
                                     outer_tol=1e-2)
    worker_counts = pool_worker_counts()

    reference_device = SimulatedDevice(name="single-device")
    reference = solve_acopf_admm_batch(scenario_set, params=params,
                                       device=reference_device)

    # chunk_scenarios=1 keeps the dispatched unit identical at every pool
    # width, so the sweep isolates scheduling (placement + stealing) from
    # within-chunk batching effects.
    reports = {}
    for workers in worker_counts:
        pool = DevicePool(n_workers=workers, executor="sequential",
                          chunk_scenarios=1)
        if workers == worker_counts[-1]:
            report = benchmark.pedantic(pool.solve, args=(scenario_set,),
                                        kwargs=dict(params=params),
                                        rounds=1, iterations=1)
        else:
            report = pool.solve(scenario_set, params=params)
        assert_identical(report.solutions, reference)
        reports[workers] = report

    max_workers = worker_counts[-1]
    base = reports[worker_counts[0]]
    top = reports[max_workers]
    speedup = base.makespan_seconds / top.makespan_seconds

    process_pool = DevicePool(n_workers=min(2, max_workers), executor="process",
                              chunk_scenarios=1)
    process_report = process_pool.solve(scenario_set, params=params)
    assert_identical(process_report.solutions, reference)

    print()
    print(render_table(
        ["workers", "makespan (s)", "total busy (s)", "speedup", "steals"],
        [[w, reports[w].makespan_seconds, reports[w].total_busy_seconds,
          base.makespan_seconds / reports[w].makespan_seconds,
          reports[w].n_steals] for w in worker_counts],
        title=f"DevicePool scaling, 8-scenario heterogeneous N-1 x {CASE}"))
    print(f"\nmakespan speedup at {max_workers} workers: {speedup:.2f}x")
    print(f"process executor ({process_report.n_workers} workers): "
          f"wall {process_report.wall_seconds:.2f}s, "
          f"makespan {process_report.makespan_seconds:.2f}s")

    if max_workers >= 4:
        required = 1.3 if smoke else 2.0
    elif max_workers >= 2:
        required = 1.2
    else:
        required = 1.0
    assert speedup >= required, (
        f"{max_workers}-worker makespan {top.makespan_seconds:.2f}s vs "
        f"1-worker {base.makespan_seconds:.2f}s "
        f"({speedup:.2f}x, required ≥ {required}x)")

    bench_merger(RESULT_PATH, {
        "benchmark": "pool_throughput",
        "case": CASE,
        "scenarios": [s.name for s in scenario_set.scenarios],
        "params": {"max_outer": params.max_outer, "max_inner": params.max_inner,
                   "outer_tol": params.outer_tol},
        "worker_counts": worker_counts,
        "speedup": speedup,
        "single_device_seconds": reference[-1].solve_seconds,
        "sweep": {str(w): reports[w].as_dict() for w in worker_counts},
        "process_executor": process_report.as_dict(),
    }, workers=max_workers)
    print(f"wrote {RESULT_PATH}")
