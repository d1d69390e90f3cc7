"""Measurement: set-up, timed phase, correctness verdict and metrics.

End-to-end metrics come from untraced passes only.  A traced run alternates
untraced and traced passes, so the tracing overhead is measured in the same
process, and reports the per-layer metrics of the traced passes.

Times are normalised to the host's current speed.  On a host whose cores
are shared with other machines, the same code runs up to 2x slower while
the rest of the host is busy, and that load drifts over seconds to tens of
minutes, so raw times of runs made minutes apart spread far more than any
change worth measuring.  Next to every timed pass and set-up (and, in
horizon passes, after every solve call) the run times the fixed reference
loop of :mod:`timebench.reference`, which no change to the library can make
faster or slower, and scales each sample by ``REFERENCE_S`` over the loop's
time measured around it: every time is reported in seconds on a host where
the loop takes ``REFERENCE_S``.  Raw medians and the measured loop time are
printed too, unbounded.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

from timebench.reference import (REFERENCE_MIN_S, REFERENCE_S,
                                 REFERENCE_SHARE, reference_block)
from timebench.tracer import KERNELS, Tracer, layer_wrappers, self_times
from timebench.workloads import FULL, WORKLOADS, Sizes

#: End-to-end metrics (untraced runs): name → unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "iter_per_s": "1/s",
    "scenarios_per_s": "1/s",
    "cold_start_s": "s",
    "period_p50_s": "s",
    "period_p90_s": "s",
    "peak_rss_mb": "MB",
}

#: Span name → per-layer self-time metric (seconds per traced pass).
SELF_TIME_LAYERS = [
    *KERNELS.values(),
    "tron.evaluate", "tron.cg", "tron.cauchy", "tron.driver", "tron.build",
    "admm.residuals", "admm.outer_update", "admm.entry", "admm.extract",
    "admm.stack", "admm.loop",
    "compaction.gather", "compaction.scatter",
    "tracking.expand", "tracking.update", "tracking.cache", "tracking.driver",
    "pool.dispatch", "pool.chunk_solve",
]

#: Counters reported per traced pass.
COUNTERS = ["device.launches", "tron.calls", "tron.iterations", "tron.evals",
            "admm.inner_iterations", "compaction.events", "pool.chunks",
            "pool.steals"]

#: Per-layer metrics (traced runs): name → unit.
PER_LAYER = {
    **{name: "count" for name in COUNTERS},
    "device.occupancy": "ratio",
    "admm.lockstep_efficiency": "ratio",
    **{f"{name}_s": "s" for name in SELF_TIME_LAYERS},
    "grid.build_s": "s",
    "scenarios.generate_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}

#: Upper limit on the set-ups of one run.
MAX_SETUPS = 2000


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def normalised_calls(p) -> tuple[float | None, list[float]]:
    """A pass's cold latency (or None) and period latencies, normalised."""
    calls = ([p.cold] if p.cold is not None else []) + p.periods
    scales = p.call_scales or [p.scale] * len(calls)
    calls = [t * k for t, k in zip(calls, scales)]
    return (calls[0], calls[1:]) if p.cold is not None else (None, calls)


def end_to_end_metrics(workload, setup_times, passes) -> dict[str, float]:
    """Medians of host-normalised times (see the module docstring)."""
    calls = [normalised_calls(p) for p in passes]
    periods = [t for _, latencies in calls for t in latencies]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall * p.scale for p in passes),
        "iter_per_s": statistics.median(p.iterations / (p.wall * p.scale)
                                        for p in passes),
        "scenarios_per_s": statistics.median(
            sum(workload.met_target(s) for call in p.solutions for s in call)
            / (p.wall * p.scale) for p in passes),
        "cold_start_s": statistics.median(cold for cold, _ in calls
                                          if cold is not None),
        "period_p50_s": float(np.percentile(periods, 50)),
        "period_p90_s": float(np.percentile(periods, 90)),
        "peak_rss_mb": peak_rss_mb(),
    }


def raw_medians(passes, references) -> dict[str, float]:
    """Medians of the untraced samples as measured, printed but not bounded."""
    return {
        "raw_wall_p50_s": statistics.median(p.wall for p in passes),
        "raw_cold_start_p50_s": statistics.median(
            p.cold for p in passes if p.cold is not None),
        "raw_period_p50_s": statistics.median(t for p in passes for t in p.periods),
        "reference_loop_s": statistics.median(references)}


def layer_metrics(tracer: Tracer, traced, untraced) -> dict[str, float]:
    """Per-layer metrics of the traced passes (per-pass averages)."""
    n = len(traced)
    own = self_times(tracer.spans)
    counters = tracer.counters
    metrics = {name: counters.get(name, 0.0) / n for name in COUNTERS}
    metrics["device.occupancy"] = _ratio(counters.get("device.active_elements", 0.0),
                                         counters.get("device.elements", 0.0))
    metrics["admm.lockstep_efficiency"] = _ratio(
        counters.get("admm.inner_iterations", 0.0),
        counters.get("admm.lockstep_slots", 0.0))
    for name in SELF_TIME_LAYERS:
        metrics[f"{name}_s"] = own.get(name, 0.0) / n
    metrics["grid.build_s"] = own.get("grid.build", 0.0)
    metrics["scenarios.generate_s"] = own.get("scenarios.generate", 0.0)
    roots = [s for s in tracer.roots() if s.name == "pass"]
    metrics["trace.unattributed_share"] = _ratio(
        own.get("pass", 0.0), sum(s.end - s.start for s in roots))
    metrics["trace.overhead_share"] = (
        statistics.median(p.wall * p.scale for p in traced)
        / statistics.median(p.wall * p.scale for p in untraced) - 1.0)
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 sizes: Sizes = FULL, out_dir=None) -> dict:
    """Set up, time, verify and measure one workload run."""
    workload = WORKLOADS[name](sizes, out_dir=out_dir)
    setup_times: list[float] = []
    references = [reference_block(REFERENCE_MIN_S)]

    def time_setup():
        start = time.perf_counter()
        result = workload.setup(seed)
        elapsed = time.perf_counter() - start
        setup_times.append(elapsed * REFERENCE_S / references[-1])
        return result, elapsed

    for _ in range(sizes.setups):
        state, _ = time_setup()
    # More set-ups run between the timed passes, so setup_s samples the
    # host over the whole run, not only its first seconds.
    setup_debt = 0.0

    tracer = Tracer() if trace else None
    if tracer is not None:
        with layer_wrappers(tracer), tracer.span("setup"):
            workload.setup(seed, tracer=tracer)
    workload.prepare(state)

    # A traced run needs untraced passes only for trace.overhead_share.
    min_untraced = 1 if tracer is not None else workload.min_passes
    untraced, traced = [], []
    references.append(reference_block(REFERENCE_MIN_S))
    start = time.perf_counter()
    while True:
        tracing = tracer is not None and len(traced) < len(untraced)
        if tracing:
            with layer_wrappers(tracer), tracer.span("pass"):
                state["tracer"] = tracer
                result = workload.run_pass(state)
            state["tracer"] = None
            traced.append(result)
        else:
            result = workload.run_pass(state)
            untraced.append(result)
        before = references[-1]
        references.append(reference_block(
            max(REFERENCE_MIN_S, REFERENCE_SHARE * result.wall)))
        if result.scale is None:
            result.scale = REFERENCE_S / ((before + references[-1]) / 2)
        if not tracing:
            setup_debt += sizes.setup_share * result.wall
            while setup_debt > 0 and len(setup_times) < MAX_SETUPS:
                setup_debt -= time_setup()[1]
        done = (time.perf_counter() - start >= seconds
                and len(untraced) >= min_untraced)
        if done and (tracer is None or traced):
            break

    passes = untraced + traced
    verdict = workload.verify(state, passes)
    if tracer is not None:
        metrics = layer_metrics(tracer, traced, untraced)
        units = PER_LAYER
        if out_dir is not None:
            tracer.write_jsonl(out_dir / f"trace-{name}-{seed}.jsonl")
    else:
        metrics = end_to_end_metrics(workload, setup_times, untraced)
        units = END_TO_END
    attempted = sum(p.attempted for p in passes)
    return {
        "result": {
            "correct": not verdict.failures,
            "attempted": attempted,
            "failed": len(verdict.failed_solves),
            "metrics": {key: {"value": float(metrics[key]), "unit": unit}
                        for key, unit in units.items()},
        },
        "failures": verdict.failures,
        "quality": {"objective_gap": verdict.objective_gap,
                    "max_violation": verdict.max_violation,
                    "failed_share": len(verdict.failed_solves) / attempted},
        "samples": {"passes": len(untraced), "traced_passes": len(traced),
                    "periods": sum(len(p.periods) for p in untraced),
                    "colds": sum(p.cold is not None for p in untraced),
                    "setups": len(setup_times)},
        "unbounded": raw_medians(untraced, references) if tracer is None else {},
    }
