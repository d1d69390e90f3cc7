"""Tests of the benchmark's own code; they run in seconds at tiny sizes.

Run with ``PYTHONPATH=src python -m pytest timebench -q``.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

import repro
from timebench.bench import END_TO_END, PER_LAYER, end_to_end_metrics, run_workload
from timebench.tracer import Span, Tracer, layer_wrappers, self_times
from timebench.workloads import (FULL, TINY, WORKLOADS, PassResult, Tracking,
                                 tracking_inputs, wide_grids)

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: Names of metrics and workloads: letters, digits, ``_``, ``.`` and ``-``.
NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def describe_inputs(name: str, seed: int) -> str:
    """A fingerprint of every seeded input of a workload."""
    h = hashlib.sha256()
    if name == "wide_cold":
        for grid in wide_grids(seed, FULL):
            for values in (grid.bus_pd, grid.bus_qd, grid.branch_from,
                           grid.branch_to, grid.gen_pmax, grid.gen_cost_c1):
                h.update(np.asarray(values, dtype=float).tobytes())
    else:
        fleet, profile = tracking_inputs(repro.load_case(FULL.case), seed, FULL)
        h.update("|".join(fleet.names).encode())
        h.update(profile.multipliers.tobytes())
    return h.hexdigest()


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, "pass", 0.0, 10.0, None),
        Span(1, "admm.loop", 1.0, 9.0, 0),
        Span(2, "device.branch_update", 2.0, 6.0, 1),
        Span(3, "tron.driver", 2.5, 5.5, 2),
        Span(4, "tron.evaluate", 3.0, 4.0, 3),
        Span(5, "tron.evaluate", 4.0, 4.5, 3),
        Span(6, "admm.residuals", 7.0, 8.0, 1),
    ]
    own = self_times(spans)
    assert own == pytest.approx({
        "pass": 2.0, "admm.loop": 3.0, "device.branch_update": 1.0,
        "tron.driver": 1.5, "tron.evaluate": 1.5, "admm.residuals": 1.0})
    assert sum(own.values()) == pytest.approx(10.0)


def test_metrics_scale_each_pass_by_its_host_speed():
    class Solved:
        converged = True

    passes = [PassResult(wall=2.0, iterations=10, solutions=[[Solved()]],
                         cold=1.0, periods=[0.5, 0.5], scale=0.5),
              PassResult(wall=4.0, iterations=10, solutions=[[Solved()]],
                         cold=2.0, periods=[1.0, 1.0], scale=0.25)]
    metrics = end_to_end_metrics(Tracking(TINY), [0.1, 0.3, 0.2], passes)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["wall_s"] == pytest.approx(1.0)
    assert metrics["iter_per_s"] == pytest.approx(10.0)
    assert metrics["scenarios_per_s"] == pytest.approx(1.0)
    assert metrics["cold_start_s"] == pytest.approx(0.5)
    assert metrics["period_p50_s"] == pytest.approx(0.25)


def test_tracer_nests_spans_and_shares_one_trace_id(tmp_path):
    tracer = Tracer()
    with tracer.span("pass"):
        with tracer.span("admm.loop"):
            pass
        with tracer.span("admm.extract"):
            pass
    parents = {s.name: s.parent for s in tracer.spans}
    assert parents == {"pass": None, "admm.loop": 0, "admm.extract": 0}
    path = tmp_path / "trace.jsonl"
    tracer.write_jsonl(path)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert {r["trace"] for r in records} == {tracer.trace_id}


def test_metric_names_follow_the_pattern_and_match_benchmark_json():
    for name in [*END_TO_END, *PER_LAYER, *WORKLOADS]:
        assert NAME_PATTERN.fullmatch(name), name
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    assert describe_inputs(name, 7) == describe_inputs(name, 7)
    assert describe_inputs(name, 7) != describe_inputs(name, 8)


def test_layer_wrappers_restore_the_library():
    from repro.admm import batch_solver
    from repro.admm.data import ComponentData

    before = (batch_solver.update_branches, batch_solver.BatchAdmmSolver.solve,
              ComponentData.__dict__["from_scenarios"])
    with layer_wrappers(Tracer()):
        assert batch_solver.update_branches is not before[0]
    after = (batch_solver.update_branches, batch_solver.BatchAdmmSolver.solve,
             ComponentData.__dict__["from_scenarios"])
    assert after == before


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_untraced_run_passes_its_checks(name):
    report = run_workload(name, seed=0, seconds=0.0, trace=False, sizes=TINY)
    result = report["result"]
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["wide_cold", "tracking_pool"])
def test_tiny_traced_run_reports_every_layer(name, tmp_path):
    report = run_workload(name, seed=0, seconds=0.0, trace=True, sizes=TINY,
                          out_dir=tmp_path)
    metrics = {k: m["value"] for k, m in report["result"]["metrics"].items()}
    assert report["result"]["correct"], report["failures"]
    assert set(metrics) == set(PER_LAYER)
    assert metrics["device.launches"] > 0 and metrics["tron.calls"] > 0
    assert 0 <= metrics["trace.unattributed_share"] < 0.05
    if name == "tracking_pool":
        assert metrics["pool.chunks"] > 0 and metrics["tracking.cache_s"] > 0
    assert (tmp_path / f"trace-{name}-0.jsonl").exists()
