"""In-memory span tracer and the layer-boundary wrappers of the traced run.

The benchmark never edits the library: a traced run replaces, for its own
duration, the module attributes the library's callers look up (for example
``repro.admm.batch_solver.update_branches``) with thin wrappers that open a
span around the original.  Every span records its name, start, end and
parent; all spans of one workload run share one trace id.  Spans stay in
memory and are written out as JSON lines when the run ends.

A layer's *self time* is its span's duration minus the time its direct
child spans cover.  Because the process is single-threaded, child spans
never overlap, so the self times of all spans under a root add up to the
root's duration exactly.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
import uuid
from collections import defaultdict
from dataclasses import dataclass


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Collects nested spans and counters for one workload run."""

    def __init__(self, trace_id: str | None = None) -> None:
        self.trace_id = trace_id or uuid.uuid4().hex
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        # True between a batched solve's entry and its first kernel launch:
        # a state scatter there is the warm-start copy, not compaction.
        self.in_solve_entry = False

    @contextlib.contextmanager
    def span(self, name: str):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = Span(span_id, name, time.perf_counter(), 0.0, parent)
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] += amount

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for s in self.spans:
                handle.write(json.dumps({
                    "trace": self.trace_id, "id": s.span_id, "name": s.name,
                    "start": s.start, "end": s.end, "parent": s.parent}) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name (duration minus direct children)."""
    child_time = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += (s.end - s.start) - child_time[s.span_id]
    return dict(totals)


# --------------------------------------------------------------------- #
# Layer-boundary wrappers                                                 #
# --------------------------------------------------------------------- #
#: Kernel function name (as looked up in ``repro.admm.batch_solver``) →
#: span name; the span names follow the names the solver launches them by.
KERNELS = {
    "update_generators": "device.generator_update",
    "update_branches": "device.branch_update",
    "update_buses": "device.bus_update",
    "update_artificial_variables": "device.z_update",
    "update_multipliers": "device.multiplier_update",
}


def _wrap(tracer: Tracer, name, fn, after=None, before=None):
    """``fn`` inside a span; ``name`` is a string or picks one per call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args, kwargs)
        with tracer.span(name if isinstance(name, str) else name()):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result
    return wrapper


@contextlib.contextmanager
def layer_wrappers(tracer: Tracer):
    """Install span wrappers at every layer boundary; restore on exit."""
    from repro.admm import batch_solver, branch_update
    from repro.admm.branch_update import BranchObjective
    from repro.admm.data import ComponentData
    from repro.grid.network import Network
    from repro.parallel.device import SimulatedDevice
    from repro.parallel.pool import DevicePool
    from repro.tracking import pipeline
    from repro.tracking.pipeline import WarmStartCache
    from repro.tron import driver

    saved: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, replacement) -> None:
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap_attr(owner, attr: str, name, **hooks) -> None:
        patch(owner, attr, _wrap(tracer, name, getattr(owner, attr), **hooks))

    def kernel_entered(args, kwargs) -> None:
        tracer.in_solve_entry = False

    # --- parallel.device: kernels, launches and occupancy --------------
    for attr, name in KERNELS.items():
        wrap_attr(batch_solver, attr, name, before=kernel_entered)
    launch = SimulatedDevice.launch

    @functools.wraps(launch)
    def counted_launch(self, kernel_name, fn, *args, elements=None,
                       active_elements=None, **kwargs):
        tracer.count("device.launches")
        if elements is not None:
            tracer.count("device.elements", elements)
            tracer.count("device.active_elements",
                         elements if active_elements is None
                         else min(active_elements, elements))
        return launch(self, kernel_name, fn, *args, elements=elements,
                      active_elements=active_elements, **kwargs)
    patch(SimulatedDevice, "launch", counted_launch)

    # --- tron -------------------------------------------------------------
    def tron_done(args, kwargs, result) -> None:
        tracer.count("tron.calls")
        tracer.count("tron.iterations", int(result.iterations.sum()))

    wrap_attr(branch_update, "solve_batch", "tron.driver", after=tron_done)
    wrap_attr(branch_update, "build_branch_objective", "tron.build")
    for attr in ("objective", "gradient", "hessian"):
        wrap_attr(BranchObjective, attr, "tron.evaluate",
                  before=lambda args, kwargs: tracer.count("tron.evals"))
    wrap_attr(driver, "cauchy_point", "tron.cauchy")
    wrap_attr(driver, "steihaug_cg", "tron.cg")

    # --- admm loop ------------------------------------------------------
    def residuals_entered(args, kwargs) -> None:
        data = args[0]
        active = kwargs.get("active")
        resident = data.scenario_layout.n_scenarios
        tracer.count("admm.lockstep_slots", resident)
        tracer.count("admm.inner_iterations",
                     resident if active is None else int(active.sum()))

    def solve_entered(args, kwargs) -> None:
        tracer.in_solve_entry = True

    wrap_attr(batch_solver, "compute_residuals", "admm.residuals",
              before=residuals_entered)
    wrap_attr(batch_solver, "update_outer_level", "admm.outer_update")
    wrap_attr(batch_solver, "cold_start_state", "admm.entry")
    wrap_attr(batch_solver.BatchAdmmSolver, "solve", "admm.loop",
              before=solve_entered)
    wrap_attr(batch_solver.BatchAdmmSolver, "_extract_solution", "admm.extract")
    stack = ComponentData.__dict__["from_scenarios"].__func__
    patch(ComponentData, "from_scenarios",
          classmethod(_wrap(tracer, "admm.stack", stack)))

    # --- parallel.compaction ------------------------------------------
    wrap_attr(ComponentData, "select_scenarios", "compaction.gather",
              before=lambda args, kwargs: tracer.count("compaction.events"))
    wrap_attr(batch_solver, "select_state_scenarios", "compaction.gather")
    wrap_attr(batch_solver, "scatter_state_scenarios",
              lambda: ("admm.entry" if tracer.in_solve_entry
                       else "compaction.scatter"))

    # --- tracking -------------------------------------------------------
    wrap_attr(batch_solver.BatchAdmmSolver, "update_scenario_data",
              "tracking.update")
    wrap_attr(Network, "with_array_overrides", "tracking.expand")
    wrap_attr(pipeline, "ramp_window", "tracking.expand")
    for attr in ("store", "states", "previous_pg", "affinity", "penalties"):
        wrap_attr(WarmStartCache, attr, "tracking.cache")

    # --- parallel.pool --------------------------------------------------
    wrap_attr(DevicePool, "solve", "pool.dispatch",
              after=lambda args, kwargs, report: tracer.count(
                  "pool.steals", report.n_steals))
    wrap_attr(batch_solver, "solve_scenario_shard", "pool.chunk_solve",
              before=lambda args, kwargs: tracer.count("pool.chunks"))

    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
