"""Ablation benchmarks: sensitivity to the consensus penalty parameters.

The paper fixes (rho_pq, rho_va) per case (Table I) and highlights automatic
penalty selection as future work.  Two ablations live here:

* ``test_ablation_penalty_tradeoff`` quantifies the fixed-ρ trade-off on one
  small case — larger penalties enforce consensus more aggressively (fewer
  iterations, smaller violation) at the price of a larger objective gap;
* ``test_ablation_adaptive_rho_tracking`` runs the smoke tracking workload
  with the opt-in residual-balancing adaptation (``adaptive_rho=True``)
  against the fixed-ρ warm run and records the **fixed/adaptive
  total-inner-iteration ratio** into ``BENCH_tracking.json`` as
  ``adaptive_iteration_speedup`` (deterministic, noise-free, gated by
  ``check_regression.py``).  The adaptive run's ρ-cache seeds each period
  from the previous period's converged penalties, and a pooled adaptive run
  is asserted bitwise identical to the single-device stream.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.admm import AdmmParameters, solve_acopf_admm
from repro.admm.parameters import parameters_for_case
from repro.analysis.experiments import bench_tracking_case, bench_tracking_periods
from repro.analysis.metrics import relative_objective_gap
from repro.analysis.reporting import render_table
from repro.baseline import solve_acopf_ipm
from repro.grid.cases import load_case
from repro.parallel import DevicePool
from repro.scenarios import tracking_fleet
from repro.tracking import make_load_profile, track_horizon_batch
from repro.tracking.horizon import relative_gap_series

CASE = "pegase30_like"
SWEEP = [(1e2, 1e4), (4e2, 4e4), (2e3, 2e5)]
RESULT_PATH = Path(__file__).resolve().parent / "out" / "BENCH_tracking.json"


def run_sweep():
    network = load_case(CASE)
    baseline = solve_acopf_ipm(network)
    rows = []
    for rho_pq, rho_va in SWEEP:
        params = AdmmParameters(rho_pq=rho_pq, rho_va=rho_va)
        solution = solve_acopf_admm(network, params=params)
        rows.append({
            "rho_pq": rho_pq,
            "rho_va": rho_va,
            "iterations": solution.inner_iterations,
            "seconds": solution.solve_seconds,
            "violation": solution.max_constraint_violation,
            "gap": relative_objective_gap(solution.objective, baseline.objective),
        })
    return rows


def test_ablation_penalty_tradeoff(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print()
    print(render_table(
        ["rho_pq", "rho_va", "iterations", "time (s)", "||c(x)||inf", "gap"],
        [[r["rho_pq"], r["rho_va"], r["iterations"], r["seconds"], r["violation"], r["gap"]]
         for r in rows],
        title=f"Penalty ablation on {CASE}"))

    # Every configuration must still produce a usable solution.
    for row in rows:
        assert row["violation"] < 5e-2
        assert row["gap"] < 0.10
    # The largest penalty must not be the best on objective gap — i.e. the
    # trade-off the paper describes is visible.
    gaps = np.array([r["gap"] for r in rows])
    assert gaps[-1] >= gaps.min() - 1e-12


def assert_identical_per_period(pooled, reference) -> None:
    for period_a, period_b in zip(pooled.periods, reference.periods):
        for a, b in zip(period_a.solutions, period_b.solutions):
            assert a.inner_iterations == b.inner_iterations
            assert a.rho_pq == b.rho_pq and a.rho_va == b.rho_va
            assert np.array_equal(a.pg, b.pg)
            assert np.array_equal(a.vm, b.vm)
            assert np.array_equal(a.va, b.va)


def test_ablation_adaptive_rho_tracking(benchmark, smoke, bench_merger):
    """Fixed-ρ vs adaptive-ρ warm tracking: the paper's named future work.

    Same workload and budgets as ``test_tracking_warm_start_iteration_ratio``
    so the two contributions to ``BENCH_tracking.json`` stay comparable.
    """
    case = bench_tracking_case()
    network = load_case(case)
    n_scenarios = 2 if smoke else 8
    n_periods = 4 if smoke else bench_tracking_periods()
    fixed_params = parameters_for_case(network, outer_tol=1e-2,
                                       inner_tol_primal=1e-3,
                                       inner_tol_dual=1e-2)
    adaptive_params = replace(fixed_params, adaptive_rho=True)
    fleet = tracking_fleet(network, kind="load", n_scenarios=n_scenarios,
                           spread=0.06)
    profile = make_load_profile(n_periods=n_periods, seed=0)

    adaptive = benchmark.pedantic(
        track_horizon_batch, args=(fleet, profile),
        kwargs=dict(params=adaptive_params, warm_start=True),
        rounds=1, iterations=1)
    fixed = track_horizon_batch(fleet, profile, params=fixed_params,
                                warm_start=True)

    assert all(p.converged.all() for p in fixed.periods)
    assert all(p.converged.all() for p in adaptive.periods)

    # Residual balancing must not trade iterations for solution quality:
    # both runs stop at the same criterion, so objectives agree to the band
    # the loose tolerance determines them to.
    gaps = relative_gap_series(adaptive.objectives, fixed.objectives)
    assert gaps.max() <= 10 * fixed_params.outer_tol, (
        f"adaptive-vs-fixed objective gap {gaps.max():.3f} exceeds the "
        f"solver-tolerance band {10 * fixed_params.outer_tol:.3f}")

    ratio = fixed.total_inner_iterations / adaptive.total_inner_iterations
    print(f"\nadaptive-rho iteration speedup (fixed/adaptive): {ratio:.2f}x "
          f"({fixed.total_inner_iterations} fixed vs "
          f"{adaptive.total_inner_iterations} adaptive)")

    # The adaptive horizon through a 2-worker DevicePool: ShardTasks carry
    # each scenario's cached penalties, so pooled == single-device bitwise.
    pool = DevicePool(n_workers=2, executor="sequential",
                      chunk_scenarios=max(1, n_scenarios // 4))
    pooled = track_horizon_batch(fleet, profile, params=adaptive_params,
                                 warm_start=True, pool=pool)
    assert_identical_per_period(pooled, adaptive)

    assert ratio > 1.0, (
        f"adaptive rho used MORE iterations than fixed "
        f"({adaptive.total_inner_iterations} vs "
        f"{fixed.total_inner_iterations})")

    bench_merger(RESULT_PATH, {
        "adaptive_iteration_speedup": ratio,
        "adaptive_max_objective_gap": float(gaps.max()),
        "adaptive_params": {
            "adaptive_rho_ratio": adaptive_params.adaptive_rho_ratio,
            "adaptive_rho_factor": adaptive_params.adaptive_rho_factor,
            "adaptive_rho_interval": adaptive_params.adaptive_rho_interval,
        },
        "adaptive": {
            "total_inner_iterations": adaptive.total_inner_iterations,
            "per_period_iterations": [int(p.iterations.sum())
                                      for p in adaptive.periods],
        },
        "fixed_warm": {
            "total_inner_iterations": fixed.total_inner_iterations,
            "per_period_iterations": [int(p.iterations.sum())
                                      for p in fixed.periods],
        },
    }, workers=pooled.n_workers)
    print(f"merged adaptive ablation into {RESULT_PATH}")
