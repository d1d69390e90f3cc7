"""Benchmark: stream compaction sweeps only active work, for real speedups.

The workload is the heterogeneous case the paper's execution model suffers
on: an 8-scenario N-1 contingency batch of ``pegase118_like`` in which each
outage is screened at its own operating point (load factors 0.2–1.05), so
easy scenarios freeze after 2 outer rounds while the hardest runs 5.  A
plain batched sweep keeps processing every row regardless — frozen
scenarios *and* branch TRON subproblems that converged in their first
iterations.  The compaction engine gathers only the active rows (TRON
working-set windows inside every ``branch_update``, scenario packing once
batch members freeze) and scatters results back, bitwise identically.

Shape asserted: the compacted stream beats the ``REPRO_COMPACTION=0``
full-sweep baseline by ≥ 2× wall-clock with *identical* per-scenario
solutions and iteration counts, and the baseline's kernel occupancy is
below 1 while the compacted stream's is 1.  Results (timings, speedup,
per-kernel occupancy/throughput) are written to ``BENCH_compaction.json``.

``REPRO_BENCH_SMOKE=1`` switches to a reduced iteration budget for CI smoke
runs: the bitwise-equivalence assertions stay, the 2× bar relaxes to >1
(tiny budgets leave too little converged work to reclaim for a stable 2×).
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.admm import solve_acopf_admm_batch
from repro.admm.parameters import parameters_for_case
from repro.analysis.reporting import render_table
from repro.grid.cases import load_case
from repro.parallel.device import SimulatedDevice
from repro.scenarios import ScenarioSet, contingency_scenarios

CASE = "pegase118_like"
LOAD_FACTORS = (0.20, 0.30, 0.40, 0.55, 0.70, 0.85, 1.00, 1.05)
OUTAGES = (0, 20, 41, 61, 123, 143, 164, 185)

RESULT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_compaction.json"


def heterogeneous_n1_batch() -> ScenarioSet:
    """8 N-1 outage scenarios, each screened at its own operating point."""
    network = load_case(CASE)
    scenarios = []
    for factor, outage in zip(LOAD_FACTORS, OUTAGES):
        scaled = network.with_scaled_loads(factor, name=f"{CASE}@x{factor:g}")
        scenarios.append(contingency_scenarios(scaled, branch_indices=[outage])
                         .scenarios[0])
    return ScenarioSet(scenarios=tuple(scenarios), name=f"{CASE}-n1-heterogeneous")


def test_compaction_speedup_on_heterogeneous_n1_batch(benchmark, monkeypatch, smoke,
                                                      bench_writer):
    scenario_set = heterogeneous_n1_batch()
    if smoke:
        params = parameters_for_case(load_case(CASE), max_outer=2, max_inner=12,
                                     outer_tol=1e-2)
    else:
        params = parameters_for_case(load_case(CASE), max_outer=5, max_inner=60,
                                     outer_tol=1e-2)

    monkeypatch.setenv("REPRO_COMPACTION", "1")
    compacted_device = SimulatedDevice(name="compacted")
    start = time.perf_counter()
    compacted = benchmark.pedantic(
        solve_acopf_admm_batch, args=(scenario_set,),
        kwargs=dict(params=params, device=compacted_device),
        rounds=1, iterations=1)
    compacted_seconds = time.perf_counter() - start

    monkeypatch.setenv("REPRO_COMPACTION", "0")
    full_device = SimulatedDevice(name="full-sweep")
    start = time.perf_counter()
    full = solve_acopf_admm_batch(scenario_set, params=params, device=full_device)
    full_seconds = time.perf_counter() - start

    speedup = full_seconds / compacted_seconds
    print()
    print(render_table(
        ["mode", "wall-clock (s)", "branch occupancy", "kernel sweeps"],
        [["compacted", compacted_seconds,
          compacted_device.kernels["branch_update"].occupancy,
          compacted_device.kernels["branch_update"].launches],
         ["full sweep", full_seconds,
          full_device.kernels["branch_update"].occupancy,
          full_device.kernels["branch_update"].launches]],
        title=f"Stream compaction, 8-scenario heterogeneous N-1 x {CASE}"))
    print(f"\nspeedup: {speedup:.2f}x")
    print(compacted_device.report())
    print(full_device.report())

    # Identical work, bit for bit: compaction only removes retired rows.
    for a, b in zip(compacted, full):
        assert a.inner_iterations == b.inner_iterations
        assert a.outer_iterations == b.outer_iterations
        assert np.array_equal(a.vm, b.vm)
        assert np.array_equal(a.va, b.va)
        assert np.array_equal(a.pg, b.pg)
        assert np.array_equal(a.qg, b.qg)

    if not smoke:
        # The batch is genuinely heterogeneous: easy scenarios freeze in a
        # fraction of the hardest scenario's iterations...
        inner = [s.inner_iterations for s in compacted]
        assert min(inner) < max(inner)
        # ...so the full sweep wastes width that compaction reclaims.
        assert compacted_device.kernels["branch_update"].occupancy == 1.0
        assert full_device.kernels["branch_update"].occupancy < 1.0

    required = 1.0 if smoke else 2.0
    assert speedup >= required, (
        f"compacted {compacted_seconds:.2f}s vs full sweep {full_seconds:.2f}s "
        f"({speedup:.2f}x, required ≥ {required}x)")

    bench_writer(RESULT_PATH, {
        "benchmark": "compaction_throughput",
        "case": CASE,
        "scenarios": [s.name for s in scenario_set.scenarios],
        "smoke_mode": smoke,
        "params": {"max_outer": params.max_outer, "max_inner": params.max_inner,
                   "outer_tol": params.outer_tol,
                   "compaction_threshold": params.compaction_threshold,
                   "tron_compaction_threshold": params.tron.compaction_threshold},
        "compacted_seconds": compacted_seconds,
        "full_sweep_seconds": full_seconds,
        "speedup": speedup,
        "per_scenario": [
            {"name": s.network_name, "inner_iterations": s.inner_iterations,
             "outer_iterations": s.outer_iterations, "converged": s.converged}
            for s in compacted],
        "compacted_device": compacted_device.as_dict(),
        "full_sweep_device": full_device.as_dict(),
    })
    print(f"wrote {RESULT_PATH}")
