"""Benchmark: recovery overhead of the fault-tolerant DevicePool.

The workload is the same 8-scenario heterogeneous N-1 batch the pool
throughput benchmark shards.  Two 2-worker **process-executor** runs are
compared: a failure-free one, and one where a scripted
:class:`~repro.parallel.faults.FaultPlan` kills worker 1 on its second
chunk (``os._exit`` inside the worker — a real process death, detected by
the liveness poll, recovered by replaying the lost chunk and respawning the
worker).  The recovered run must return bitwise-identical solutions; what
the benchmark *records* is the price of that recovery — the makespan and
wall-clock overhead versus the clean run, which is dominated by one
re-solved chunk plus the respawn backoff.

Results merge into ``BENCH_pool.json`` under ``fault_tolerance`` (the
throughput sweep owns the rest of the file; `merge_bench_json` keeps both
contributions regardless of which benchmark ran last).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
from test_compaction_throughput import CASE, heterogeneous_n1_batch

from repro.admm import solve_acopf_admm_batch
from repro.admm.parameters import parameters_for_case
from repro.grid.cases import load_case
from repro.parallel import DevicePool, FaultPlan, FaultSpec

RESULT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_pool.json"


def assert_identical(pooled, reference) -> None:
    for a, b in zip(pooled, reference):
        assert a.inner_iterations == b.inner_iterations
        assert np.array_equal(a.vm, b.vm)
        assert np.array_equal(a.va, b.va)
        assert np.array_equal(a.pg, b.pg)
        assert np.array_equal(a.qg, b.qg)


def make_pool(fault_plan=None) -> DevicePool:
    return DevicePool(n_workers=2, executor="process", chunk_scenarios=1,
                      on_failure="retry", respawn_backoff=0.05,
                      fault_plan=fault_plan)


def test_recovery_overhead_of_one_worker_crash(smoke, bench_merger):
    scenario_set = heterogeneous_n1_batch()
    if smoke:
        params = parameters_for_case(load_case(CASE), max_outer=2, max_inner=12,
                                     outer_tol=1e-2)
    else:
        params = parameters_for_case(load_case(CASE), max_outer=3, max_inner=40,
                                     outer_tol=1e-2)
    reference = solve_acopf_admm_batch(scenario_set, params=params)

    clean = make_pool().solve(scenario_set, params=params)
    assert_identical(clean.solutions, reference)
    assert clean.retries == 0 and clean.respawns == 0

    plan = FaultPlan([FaultSpec("crash", worker=1, chunk=2)])
    faulty = make_pool(plan).solve(scenario_set, params=params)
    assert_identical(faulty.solutions, reference)
    assert faulty.respawns == 1
    assert faulty.retries >= 1
    assert faulty.failed_scenarios == ()

    makespan_overhead = faulty.makespan_seconds - clean.makespan_seconds
    wall_overhead = faulty.wall_seconds - clean.wall_seconds
    print(f"\nclean run:     makespan {clean.makespan_seconds:.3f}s, "
          f"wall {clean.wall_seconds:.3f}s")
    print(f"crash + replay: makespan {faulty.makespan_seconds:.3f}s, "
          f"wall {faulty.wall_seconds:.3f}s "
          f"({faulty.retries} retries, {faulty.respawns} respawn)")
    print(f"recovery overhead: makespan {makespan_overhead:+.3f}s, "
          f"wall {wall_overhead:+.3f}s")

    bench_merger(RESULT_PATH, {
        "fault_tolerance": {
            "benchmark": "pool_fault_tolerance",
            "case": CASE,
            "fault": "crash(worker=1,chunk=2)",
            "clean": {"makespan_seconds": clean.makespan_seconds,
                      "wall_seconds": clean.wall_seconds},
            "recovered": {"makespan_seconds": faulty.makespan_seconds,
                          "wall_seconds": faulty.wall_seconds,
                          "retries": faulty.retries,
                          "respawns": faulty.respawns,
                          "replayed_scenarios": list(faulty.replayed_scenarios),
                          "failures": [f.as_dict() for f in faulty.failures]},
            "makespan_overhead_seconds": makespan_overhead,
            "wall_overhead_seconds": wall_overhead,
            "solutions_identical": True,
        },
    }, workers=2)
    print(f"merged fault_tolerance into {RESULT_PATH}")
