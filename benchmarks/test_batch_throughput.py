"""Benchmark: scenario batching beats sequential solves on wall-clock.

The paper's thesis is that thousands of tiny independent subproblems
saturate a device.  A small case leaves our batch axis nearly empty, so the
scenario-batched driver stacks S independent scenarios into one kernel
stream.  Per scenario the iteration trajectories are identical to
sequential solves (see ``tests/test_admm_batch.py``), so the comparison is
pure launch-overhead amortisation: the batched run performs
``max_s(iterations_s)`` kernel sweeps over S-times-wider arrays instead of
``sum_s(iterations_s)`` sweeps over narrow ones.

Shape asserted: batched wall-clock strictly beats sequential for S=8
scenarios of case9, and the batched branch-update kernel sustains higher
element throughput (occupancy) than the sequential one.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.admm import AdmmParameters, scenario_parameters, solve_acopf_admm, solve_acopf_admm_batch
from repro.analysis.reporting import render_table
from repro.grid.cases import load_case
from repro.parallel.device import SimulatedDevice
from repro.scenarios import load_scaling_scenarios

RESULT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_batch.json"

#: Shared iteration budget — both arms run exactly the same trajectories,
#: so capping it changes benchmark time, not the comparison.  The CI smoke
#: job (``REPRO_BENCH_SMOKE=1``, the ``smoke`` fixture) shrinks it further;
#: the batched-beats-sequential shape holds at any budget.
PARAMS = dict(max_outer=3, max_inner=100)
SMOKE_PARAMS = dict(max_outer=2, max_inner=25)

N_SCENARIOS = 8


def test_batched_beats_sequential_wallclock(benchmark, smoke, bench_writer):
    network = load_case("case9")
    factors = [0.75 + 0.05 * k for k in range(N_SCENARIOS)]
    scenario_set = load_scaling_scenarios(network, factors)
    params = AdmmParameters(**(SMOKE_PARAMS if smoke else PARAMS))

    batched_device = SimulatedDevice(name="batched")
    start = time.perf_counter()
    batched = benchmark.pedantic(
        solve_acopf_admm_batch, args=(scenario_set,),
        kwargs=dict(params=params, device=batched_device),
        rounds=1, iterations=1)
    batched_seconds = time.perf_counter() - start

    sequential_device = SimulatedDevice(name="sequential")
    start = time.perf_counter()
    sequential = [
        solve_acopf_admm(scenario.network,
                         params=scenario_parameters(scenario, params),
                         device=sequential_device)
        for scenario in scenario_set]
    sequential_seconds = time.perf_counter() - start

    print()
    print(render_table(
        ["mode", "wall-clock (s)", "total inner iters", "kernel sweeps"],
        [["batched", batched_seconds,
          sum(s.inner_iterations for s in batched),
          batched_device.kernels["branch_update"].launches],
         ["sequential", sequential_seconds,
          sum(s.inner_iterations for s in sequential),
          sequential_device.kernels["branch_update"].launches]],
        title=f"Scenario batching, S={N_SCENARIOS} x case9"))
    print()
    print(batched_device.report())
    print(sequential_device.report())

    # Identical per-scenario work...
    for b, s in zip(batched, sequential):
        assert b.inner_iterations == s.inner_iterations
        assert abs(b.objective - s.objective) <= 1e-6
    # ...but the batched stream amortises every launch across S scenarios.
    assert batched_seconds < sequential_seconds, (
        f"batched {batched_seconds:.2f}s should beat sequential "
        f"{sequential_seconds:.2f}s")
    batched_stats = batched_device.as_dict()["kernels"]
    sequential_stats = sequential_device.as_dict()["kernels"]
    for kernel in ("branch_update", "bus_update"):
        assert (batched_stats[kernel]["elements_per_second"]
                > sequential_stats[kernel]["elements_per_second"]), (
            f"{kernel}: batched occupancy should beat sequential")

    bench_writer(RESULT_PATH, {
        "benchmark": "batch_throughput",
        "case": "case9",
        "n_scenarios": N_SCENARIOS,
        "batched_seconds": batched_seconds,
        "sequential_seconds": sequential_seconds,
        "speedup": sequential_seconds / batched_seconds,
        "batched_device": batched_device.as_dict(),
        "sequential_device": sequential_device.as_dict(),
    })
    print(f"wrote {RESULT_PATH}")
