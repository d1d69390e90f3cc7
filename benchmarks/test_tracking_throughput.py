"""Benchmark: batched rolling-horizon tracking — warm start vs. cold ablation.

The paper's tracking experiment warm-starts every period from the previous
solution; this benchmark runs it the way the execution stack now runs
everything: the whole fleet per period, in one stacked stream, with the
:class:`~repro.tracking.pipeline.WarmStartCache` threading each scenario's
state across periods.  An 8-scenario load-scaled fleet of the tracking case
follows a 12-period demand profile twice — warm-started and the cold-start
ablation — and the headline metric is the **total-ADMM-iteration ratio**
between the two runs (iteration counts are deterministic, so the gated
metric is noise-free on any host).

Tolerances are loosened the way the other throughput benchmarks loosen
their budgets (``outer_tol=1e-2`` with matching inner tolerances) so the
cold ablation actually converges in benchmark time; at that stopping
criterion the warm and cold objectives agree to the corresponding band
(asserted ≤ 10× the outer tolerance — the tight-tolerance agreement, down
to bitwise identity for S=1, lives in ``tests/test_tracking_pipeline.py``).

A warm run is additionally repeated through a 2-worker ``DevicePool`` with
shard affinity; its per-period solutions are asserted identical to the
single-device stream and its makespan and steal count are recorded.

Shape asserted: ≥ 2× fewer total inner iterations warm vs. cold, every
period converged in both runs, and a ≥ 1.5× makespan advantage.  Results
go to ``BENCH_tracking.json``.  ``REPRO_BENCH_SMOKE=1`` shrinks the run to
2 scenarios × 4 periods (the CI tracking-smoke leg).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.admm.parameters import parameters_for_case
from repro.analysis.experiments import (
    bench_tracking_case,
    bench_tracking_periods,
    render_tracking_table,
    tracking_rows,
)
from repro.grid.cases import load_case
from repro.parallel import DevicePool
from repro.scenarios import tracking_fleet
from repro.tracking import make_load_profile, track_horizon_batch
from repro.tracking.horizon import relative_gap_series

RESULT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_tracking.json"


def assert_identical_per_period(pooled, reference) -> None:
    for period_a, period_b in zip(pooled.periods, reference.periods):
        for a, b in zip(period_a.solutions, period_b.solutions):
            assert a.inner_iterations == b.inner_iterations
            assert np.array_equal(a.pg, b.pg)
            assert np.array_equal(a.vm, b.vm)
            assert np.array_equal(a.va, b.va)


def test_tracking_warm_start_iteration_ratio(benchmark, smoke, bench_merger):
    case = bench_tracking_case()
    network = load_case(case)
    n_scenarios = 2 if smoke else 8
    n_periods = 4 if smoke else bench_tracking_periods()
    # Loose-but-converging budgets: the cold ablation must actually converge
    # (capped runs would make the iteration ratio meaningless).
    params = parameters_for_case(network, outer_tol=1e-2,
                                 inner_tol_primal=1e-3, inner_tol_dual=1e-2)
    fleet = tracking_fleet(network, kind="load", n_scenarios=n_scenarios,
                           spread=0.06)
    profile = make_load_profile(n_periods=n_periods, seed=0)

    warm = benchmark.pedantic(
        track_horizon_batch, args=(fleet, profile),
        kwargs=dict(params=params, warm_start=True), rounds=1, iterations=1)
    cold = track_horizon_batch(fleet, profile, params=params, warm_start=False)

    assert all(p.converged.all() for p in warm.periods)
    assert all(p.converged.all() for p in cold.periods)

    iteration_speedup = cold.total_inner_iterations / warm.total_inner_iterations
    makespan_speedup = cold.total_seconds / warm.total_seconds
    gaps = relative_gap_series(warm.objectives, cold.objectives)
    # Periods beyond the (identical) cold start agree to the band the loose
    # stopping criterion determines objectives to.
    assert gaps.max() <= 10 * params.outer_tol, (
        f"warm-vs-cold objective gap {gaps.max():.3f} exceeds the "
        f"solver-tolerance band {10 * params.outer_tol:.3f}")

    # The same warm horizon through a DevicePool with shard affinity: the
    # re-merged per-period results must be identical to the stream's.
    pool = DevicePool(n_workers=2, executor="sequential",
                      chunk_scenarios=max(1, n_scenarios // 4))
    pooled = track_horizon_batch(fleet, profile, params=params,
                                 warm_start=True, pool=pool)
    assert_identical_per_period(pooled, warm)

    print()
    print(render_tracking_table(
        tracking_rows(warm, cold),
        title=f"Rolling-horizon tracking, {n_scenarios} scenarios x "
              f"{n_periods} periods ({case})"))
    print(f"\niteration speedup (cold/warm): {iteration_speedup:.2f}x, "
          f"makespan speedup: {makespan_speedup:.2f}x")
    print(f"pooled warm run: makespan {pooled.total_seconds:.2f}s, "
          f"{pooled.n_steals} steals over {pooled.n_workers} workers")

    assert iteration_speedup >= 2.0, (
        f"warm start saved only {iteration_speedup:.2f}x iterations "
        f"({warm.total_inner_iterations} warm vs "
        f"{cold.total_inner_iterations} cold)")
    assert makespan_speedup >= 1.5

    bench_merger(RESULT_PATH, {
        "benchmark": "tracking_throughput",
        "case": case,
        "scenarios": [s.name for s in fleet.scenarios],
        "n_scenarios": n_scenarios,
        "n_periods": n_periods,
        "params": {"outer_tol": params.outer_tol,
                   "inner_tol_primal": params.inner_tol_primal,
                   "inner_tol_dual": params.inner_tol_dual,
                   "max_outer": params.max_outer,
                   "max_inner": params.max_inner},
        "iteration_speedup": iteration_speedup,
        "makespan_speedup": makespan_speedup,
        "max_objective_gap": float(gaps.max()),
        "warm": {
            "total_inner_iterations": warm.total_inner_iterations,
            "makespan_seconds": warm.total_seconds,
            "per_period_iterations": [int(p.iterations.sum())
                                      for p in warm.periods],
        },
        "cold": {
            "total_inner_iterations": cold.total_inner_iterations,
            "makespan_seconds": cold.total_seconds,
            "per_period_iterations": [int(p.iterations.sum())
                                      for p in cold.periods],
        },
        "pool": {
            "n_workers": pooled.n_workers,
            "executor": pooled.executor,
            "makespan_seconds": pooled.total_seconds,
            "n_steals": pooled.n_steals,
        },
    }, workers=pooled.n_workers)
    print(f"wrote {RESULT_PATH}")
