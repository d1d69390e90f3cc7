"""The benchmark's seeded workloads, driven through the public API.

Each workload has three parts:

* ``setup(seed)`` builds every input from the seed (grid, scenarios, load
  profile) and the solver or pool.  It is what ``setup_s`` times.
* ``run_pass(state)`` is one pass of the timed phase.  It returns a
  :class:`PassResult` holding the pass wall-clock, the latency samples and
  the solutions.
* ``verify(state, passes)`` checks every returned solution and is untimed.
  Interior-point references and single-device replays are made here.

A *solve call* is one return of ``BatchAdmmSolver.solve`` or
``DevicePool.solve``.  Each workload names its cold solve calls
(``cold_start_s``); the calls after them give the ``period_*`` samples:
warm periods when tracking, later budgeted solves on ``wide_cold``.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.admm.batch_solver import BatchAdmmSolver
from repro.parallel.pool import DevicePool
from repro.tracking import LoadProfile
from timebench.reference import REFERENCE_MIN_S, REFERENCE_S, reference_block

#: Stated tolerance of the workloads solved to convergence.
TOLERANCE = dict(outer_tol=1e-2, inner_tol_primal=1e-3, inner_tol_dual=1e-2)

#: Correctness gates on solution quality (relative objective gap to the
#: interior-point baseline, constraint violation in p.u.).
GAP_LIMIT = 0.05
VIOLATION_LIMIT = 0.05

#: Width of the tracking_pool device pool.
POOL_WORKERS = 2


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; :data:`FULL` is the benchmark, :data:`TINY` the smoke test."""

    grid: tuple[int, int, int] = (1354, 260, 1991)  # wide_cold buses/gens/branches
    grids: int = 4              # wide_cold grids per run, solved in turn
    budget: int = 12            # inner ADMM iterations per wide_cold solve
    case: str = "case9"         # grid of the tracking fleet
    fleet: int = 8              # tracking fleet size
    warm_periods: int = 50      # warm periods after the cold one (tracking)
    pool_warm_periods: int = 5  # pooled warm periods per tracking_pool pass
    ipm_periods: int = 4        # periods per interior-point reference horizon
    setups: int = 5             # set-ups before the timed phase; setup_s is the median
    setup_share: float = 0.07   # ... plus set-ups between passes, this share of pass time


FULL = Sizes()
TINY = Sizes(grid=(30, 6, 41), grids=2, budget=3, case="case3", fleet=2,
             warm_periods=3, pool_warm_periods=2, ipm_periods=2, setups=2,
             setup_share=0.0)


@dataclass
class PassResult:
    wall: float
    iterations: int             # per-scenario inner iterations, summed
    solutions: list[list]       # per solve call (or period): the AdmmSolutions
    cold: float | None = None   # latency of the cold solve call, if any
    periods: list[float] = field(default_factory=list)
    inputs: int = 0             # which of the run's inputs the pass solved
    # Host-speed normalisation (see ``bench``): of ``wall``, and of each solve
    # call (cold first, if any, then periods).  A pass that probes the host
    # speed between its solve calls sets both; otherwise ``bench`` sets
    # ``scale`` from probes around the pass and uses it for every call.
    scale: float | None = None
    call_scales: list[float] | None = None

    @property
    def attempted(self) -> int:
        return sum(len(call) for call in self.solutions)


@dataclass
class CallStamps:
    """When each solve call returned, and its host-speed probe."""

    returns: list[float] = field(default_factory=list)
    resumes: list[float] = field(default_factory=list)  # after the probe
    references: list[float] = field(default_factory=list)


@contextlib.contextmanager
def return_stamps(owner, attr: str, probe=None):
    """Record the instant every call of ``owner.attr`` returns.

    With a ``probe``, each return is followed by one probe of the host speed
    before control goes back to the library; the probe's time is left out
    of every latency.
    """
    original = owner.__dict__[attr]
    stamps = CallStamps()

    def stamped(*args, **kwargs):
        result = original(*args, **kwargs)
        stamps.returns.append(time.perf_counter())
        if probe is not None:
            stamps.references.append(probe())
        stamps.resumes.append(time.perf_counter())
        return result

    setattr(owner, attr, stamped)
    try:
        yield stamps
    finally:
        setattr(owner, attr, original)


def digest(solutions) -> str:
    """Bitwise fingerprint of the ``pg``/``vm``/``va`` of a list of solutions."""
    h = hashlib.sha256()
    for s in solutions:
        for values in (s.pg, s.vm, s.va):
            h.update(np.ascontiguousarray(values, dtype=float).tobytes())
    return h.hexdigest()


def _finite(solution) -> bool:
    return bool(np.isfinite(solution.objective)
                and all(np.isfinite(v).all() for v in
                        (solution.pg, solution.qg, solution.vm, solution.va)))


class Verdict:
    """Accumulates per-solve failures and quality figures for one run."""

    def __init__(self) -> None:
        self.failures: list[str] = []
        self.failed_solves: set[tuple] = set()
        self.objective_gap = 0.0
        self.max_violation = 0.0

    def fail(self, key: tuple, reason: str) -> None:
        self.failed_solves.add(key)
        self.failures.append(f"{key}: {reason}")

    def check_solution(self, key: tuple, solution, converge: bool) -> None:
        if not _finite(solution):
            self.fail(key, "non-finite solution")
            return
        self.max_violation = max(self.max_violation,
                                 solution.max_constraint_violation)
        if converge and not solution.converged:
            self.fail(key, "did not meet the tolerance")
        if converge and solution.max_constraint_violation > VIOLATION_LIMIT:
            self.fail(key, f"violation {solution.max_constraint_violation:.3g} "
                           f"> {VIOLATION_LIMIT}")

    def check_gap(self, key: tuple, value: float, reference: float) -> None:
        gap = float(repro.relative_objective_gap(value, reference))
        self.objective_gap = max(self.objective_gap, gap)
        if not gap <= GAP_LIMIT:  # also fails a nan gap
            self.fail(key, f"objective gap {gap:.3g} > {GAP_LIMIT}")

    def check_identical_passes(self, passes: list[PassResult]) -> None:
        """The same inputs must give bitwise the same solutions every pass."""
        first: dict[int, list[str]] = {}
        for p, result in enumerate(passes):
            digests = [digest(call) for call in result.solutions]
            reference = first.setdefault(result.inputs, digests)
            if digests != reference:
                self.fail(("pass", p), "differs from an earlier pass on the "
                                       "same inputs")


# --------------------------------------------------------------------- #
# Seeded inputs                                                           #
# --------------------------------------------------------------------- #
def wide_grids(seed: int, sizes: Sizes) -> list:
    """``sizes.grids`` synthetic grids of the paper's 1354-bus size."""
    n_bus, n_gen, n_branch = sizes.grid
    grid_seeds = np.random.default_rng(seed).integers(2**31, size=sizes.grids)
    return [repro.make_synthetic_grid(n_bus=n_bus, n_gen=n_gen, n_branch=n_branch,
                                      style="pegase", seed=int(grid_seed),
                                      name=f"{n_bus}pegase_like")
            for grid_seed in grid_seeds]


def tracking_inputs(base, seed: int, sizes: Sizes):
    fleet = repro.tracking_fleet(base, kind="load", n_scenarios=sizes.fleet)
    profile = repro.make_load_profile(n_periods=1 + sizes.warm_periods, seed=seed)
    return fleet, profile


def tolerance_params() -> repro.AdmmParameters:
    return repro.AdmmParameters(**TOLERANCE)


# --------------------------------------------------------------------- #
# Workloads                                                               #
# --------------------------------------------------------------------- #
class Workload:
    name = ""

    #: untraced passes a run makes at least, however long they take
    min_passes = 1

    def __init__(self, sizes: Sizes = FULL, out_dir=None) -> None:
        self.sizes = sizes
        self.out_dir = out_dir

    def setup(self, seed: int, tracer=None):
        raise NotImplementedError

    def prepare(self, state) -> None:
        """Untimed work between set-up and the timed phase."""

    def run_pass(self, state) -> PassResult:
        raise NotImplementedError

    def met_target(self, solution) -> bool:
        """Whether a returned solve counts towards ``scenarios_per_s``."""
        return bool(solution.converged)

    def verify(self, state, passes: list[PassResult]) -> Verdict:
        raise NotImplementedError


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class WideCold(Workload):
    """Wide synthetic grids (S=1) solved cold under a fixed iteration budget.

    Per-iteration cost depends on the grid, so a run cycles through several
    seeded grids of the same size, solving each twice in a row.  Each visit
    to a grid builds a fresh solver (untimed; construction is lazy and takes
    milliseconds) whose first solve is a cold-start sample, so cold starts
    recur over the whole timed phase instead of only its first seconds.
    """

    name = "wide_cold"

    @property
    def min_passes(self) -> int:
        # every grid's cold solve plus one more solve of each
        return 2 * self.sizes.grids

    def setup(self, seed, tracer=None):
        with _span(tracer, "grid.build"):
            grids = wide_grids(seed, self.sizes)
        params = [repro.parameters_for_case(grid, max_outer=1,
                                            max_inner=self.sizes.budget,
                                            outer_tol=1e-12)
                  for grid in grids]
        solvers = [BatchAdmmSolver([grid], params=p)
                   for grid, p in zip(grids, params)]
        return {"grids": grids, "params": params, "solvers": solvers, "calls": 0}

    def met_target(self, solution):
        return solution.inner_iterations == self.sizes.budget

    def run_pass(self, state):
        solvers = state["solvers"]
        calls = state["calls"]
        first = calls % 2 == 0
        index = (calls // 2) % len(solvers)
        state["calls"] += 1
        if first and calls >= len(solvers) * 2:
            solvers[index] = BatchAdmmSolver([state["grids"][index]],
                                             params=state["params"][index])
        start = time.perf_counter()
        solutions = solvers[index].solve()
        wall = time.perf_counter() - start
        return PassResult(wall=wall, iterations=solutions[0].inner_iterations,
                          solutions=[solutions], cold=wall if first else None,
                          periods=[] if first else [wall], inputs=index)

    def verify(self, state, passes):
        verdict = Verdict()
        for p, result in enumerate(passes):
            solution = result.solutions[0][0]
            verdict.check_solution((p, 0), solution, converge=False)
            if solution.inner_iterations != self.sizes.budget:
                verdict.fail((p, 0), f"{solution.inner_iterations} inner "
                                     f"iterations, budget {self.sizes.budget}")
        verdict.check_identical_passes(passes)
        return verdict


class Tracking(Workload):
    """A load-scaled fleet following a load profile on one device."""

    name = "tracking"

    #: three horizons at least: three cold-start samples, and with
    #: ``warm_periods`` = 50 at least 150 warm-period samples
    min_passes = 3

    def setup(self, seed, tracer=None):
        with _span(tracer, "grid.build"):
            base = repro.load_case(self.sizes.case)
        with _span(tracer, "scenarios.generate"):
            fleet, profile = tracking_inputs(base, seed, self.sizes)
        return {"seed": seed, "fleet": fleet, "profile": profile,
                "params": tolerance_params()}

    def _horizon(self, state, profile, **kwargs):
        tracer = state.get("tracer")
        with _span(tracer, "tracking.driver"):
            return repro.track_horizon_batch(state["fleet"], profile,
                                             params=state["params"], **kwargs)

    def run_pass(self, state):
        probe = _probe(state)
        before = probe() if probe is not None else None
        with return_stamps(BatchAdmmSolver, "solve", probe) as stamps:
            start = time.perf_counter()
            result = self._horizon(state, state["profile"])
            end = time.perf_counter()
        return _horizon_pass(result, start, end, stamps, before)

    def reference_objectives(self, state, first: int, count: int):
        """Interior-point objectives of periods ``first..first+count-1``.

        The baseline tracks the same profile from period 0 with its own ramp
        coupling, for the first and the last scenario of the fleet.  Entry
        ``k`` lines up with solve call ``k`` of a pass that starts at period
        ``first``.
        """
        profile = LoadProfile(multipliers=state["profile"].multipliers[:first + count])
        picks = sorted({0, len(state["fleet"]) - 1})
        return {s: repro.track_horizon(state["fleet"][s].network, profile,
                                       method="ipm").objectives[first:]
                for s in picks}

    @staticmethod
    def _check_horizon(verdict, passes, references) -> None:
        for p, result in enumerate(passes):
            for t, period in enumerate(result.solutions):
                for s, solution in enumerate(period):
                    verdict.check_solution((p, t, s), solution, converge=True)
            for s, objectives in references.items():
                for t, objective in enumerate(objectives):
                    verdict.check_gap((p, t, s), result.solutions[t][s].objective,
                                      objective)

    def digest_path(self, state):
        if self.out_dir is None:
            return None
        return os.path.join(self.out_dir, f"digests-tracking-{state['seed']}"
                                          f"-{self.sizes.fleet}"
                                          f"-{1 + self.sizes.warm_periods}.json")

    def verify(self, state, passes):
        verdict = Verdict()
        references = self.reference_objectives(
            state, 0, min(self.sizes.ipm_periods, len(passes[0].solutions)))
        self._check_horizon(verdict, passes, references)
        verdict.check_identical_passes(passes)
        path = self.digest_path(state)
        if path is not None and not verdict.failures:
            tmp = f"{path}.{os.getpid()}.tmp"
            with open(tmp, "w", encoding="utf-8") as handle:
                json.dump([digest(period) for period in passes[0].solutions], handle)
            os.replace(tmp, path)
        return verdict


class TrackingPool(Tracking):
    """The tracking fleet and profile through a sequential two-worker pool.

    The pooled horizon resumes from a warm-start cache that an untimed
    single-device cold solve of period 0 fills, so a pass times warm periods
    ``1..pool_warm_periods``.  The first pooled call of a pass has no
    placement history.
    """

    name = "tracking_pool"
    min_passes = 2

    def setup(self, seed, tracer=None):
        state = super().setup(seed, tracer)
        state["pool"] = DevicePool(n_workers=POOL_WORKERS,
                                   executor="sequential")
        multipliers = state["profile"].multipliers
        state["rest"] = LoadProfile(
            multipliers=multipliers[1:1 + self.sizes.pool_warm_periods])
        return state

    def prepare(self, state) -> None:
        """Untimed: solve period 0 cold on one device to fill the cache."""
        cache = repro.WarmStartCache()
        first = LoadProfile(multipliers=state["profile"].multipliers[:1])
        repro.track_horizon_batch(state["fleet"], first, params=state["params"],
                                  cache=cache)
        state["seed_cache"] = cache

    def cache_copy(self, state):
        copy = repro.WarmStartCache()
        for name in state["fleet"].names:
            record = state["seed_cache"].get(name)
            copy.store(name, record.state, record.pg, worker=record.worker,
                       period=record.period, rho_pq=record.rho_pq,
                       rho_va=record.rho_va)
        return copy

    def run_pass(self, state):
        cache = self.cache_copy(state)
        probe = _probe(state)
        before = probe() if probe is not None else None
        with return_stamps(DevicePool, "solve", probe) as stamps:
            start = time.perf_counter()
            result = self._horizon(state, state["rest"], pool=state["pool"],
                                   cache=cache)
            end = time.perf_counter()
        return _horizon_pass(result, start, end, stamps, before)

    def verify(self, state, passes):
        verdict = Verdict()
        count = min(self.sizes.ipm_periods, len(passes[0].solutions))
        references = self.reference_objectives(state, 1, count)
        self._check_horizon(verdict, passes, references)
        verdict.check_identical_passes(passes)
        # The bitwise invariant: pooled periods equal single-device ones.
        single = repro.track_horizon_batch(state["fleet"], state["rest"],
                                           params=state["params"],
                                           cache=self.cache_copy(state))
        expected = [digest(period.solutions) for period in single.periods]
        path = self.digest_path(state)
        if path is not None and os.path.exists(path):
            with open(path, encoding="utf-8") as handle:
                recorded = json.load(handle)[1:1 + len(expected)]
            if recorded != expected[:len(recorded)]:
                verdict.fail(("tracking",), "single-device replay differs "
                                            "from the recorded tracking run")
        for p, result in enumerate(passes):
            for t, period in enumerate(result.solutions):
                if digest(period) != expected[t]:
                    verdict.fail((p, t), "pooled period differs bitwise from "
                                         "the single-device period")
        return verdict


def _probe(state):
    """The host-speed probe of an untraced horizon pass (none when traced:
    its time would land in the spans of the library's callers)."""
    if state.get("tracer") is not None:
        return None
    return lambda: reference_block(REFERENCE_MIN_S)


def _horizon_pass(result, start: float, end: float, stamps: CallStamps,
                  before: float | None) -> PassResult:
    """Latencies between consecutive solve-call returns, probes left out.

    A probed call's scale comes from the probes just before and just after
    it, so a host-speed change within a long horizon is followed call by
    call.
    """
    latencies = [ret - resume for ret, resume in
                 zip(stamps.returns, [start] + stamps.resumes[:-1])]
    wall = end - start - sum(r - s for s, r in zip(stamps.returns, stamps.resumes))
    scales = None
    scale = None
    if before is not None:
        probes = [before] + stamps.references
        scales = [REFERENCE_S / ((a + b) / 2) for a, b in zip(probes, probes[1:])]
        scale = sum(t * k for t, k in zip(latencies, scales)) / sum(latencies)
    return PassResult(wall=wall, iterations=result.total_inner_iterations,
                      solutions=[period.solutions for period in result.periods],
                      cold=latencies[0], periods=latencies[1:],
                      scale=scale, call_scales=scales)


WORKLOADS = {cls.name: cls for cls in (WideCold, Tracking, TrackingPool)}
