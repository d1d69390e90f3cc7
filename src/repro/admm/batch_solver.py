"""Scenario-batched two-level ADMM: many independent ACOPFs, one kernel stream.

The paper saturates its GPU by giving every component of one large network
its own thread (block).  Small cases leave the batch axis — our proxy for
the device — mostly empty, so this driver fills it with *scenarios*: load
scalings, N-1 contingencies, penalty sweeps, or entirely different networks.
Because the ADMM subproblems are component-separable and scenarios never
couple, a batch of S scenarios is just the disjoint union of S component
sets; every kernel launch sweeps the stacked arrays exactly as it sweeps a
single network's, only wider.

Control flow is per scenario, in lockstep: each global step is one inner
ADMM iteration for every live scenario; a scenario whose inner residuals
meet *its* tolerance advances its own outer level (``λ``, ``β``) under a
mask; a scenario whose ``‖z‖_∞`` passes the outer tolerance is **frozen** —
its solution is snapshotted and it drops out of the stopping test while the
shared kernels keep running on the full arrays (idle thread blocks, exactly
like a GPU).  Scenario blocks are contiguous and every reduction is
per-scenario, so each scenario's trajectory is bit-for-bit the one a
standalone :func:`~repro.admm.solver.solve_acopf_admm` call would produce.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.admm.artificial import (
    update_artificial_variables,
    update_multipliers,
    update_outer_level,
)
from repro.admm.branch_update import update_branches
from repro.admm.bus_update import update_buses
from repro.admm.data import COUPLING_GROUPS, ComponentData
from repro.admm.generator_update import update_generators
from repro.admm.parameters import AdmmParameters, suggest_penalties
from repro.admm.penalty import (
    apply_residual_balancing,
    flush_scenario_penalties,
    scenario_penalties,
    seed_penalties,
)
from repro.admm.residuals import check_constant_penalties, compute_residuals
from repro.admm.solver import AdmmIterationLog, AdmmSolution
from repro.admm.state import (
    AdmmState,
    cold_start_state,
    scatter_state_scenarios,
    select_state_scenarios,
)
from repro.analysis.metrics import constraint_violation
from repro.exceptions import ConfigurationError
from repro.logging_utils import get_logger
from repro.parallel.backends import get_backend
from repro.parallel.compaction import compaction_enabled
from repro.parallel.device import SimulatedDevice
from repro.scenarios import Scenario, ScenarioSet, as_scenario_set

LOGGER = get_logger("admm.batch")


def scenario_parameters(scenario: Scenario,
                        params: AdmmParameters | None = None) -> AdmmParameters:
    """The parameters a standalone solve of ``scenario`` would use.

    Penalty resolution order: the scenario's own ``rho_pq`` / ``rho_va``
    overrides, then the shared ``params``, then the per-case Table I
    heuristic.  All other knobs come from ``params`` (or the defaults).
    This is the exact contract of the batched solver, so sequential runs
    built from these parameters reproduce the batched per-scenario results.
    """
    base = params if params is not None else AdmmParameters()
    if params is not None:
        default_pq, default_va = params.rho_pq, params.rho_va
    else:
        default_pq, default_va = suggest_penalties(scenario.network)
    rho_pq = scenario.rho_pq if scenario.rho_pq is not None else default_pq
    rho_va = scenario.rho_va if scenario.rho_va is not None else default_va
    return replace(base, rho_pq=rho_pq, rho_va=rho_va)


class BatchAdmmSolver:
    """Two-level ADMM over a stacked batch of independent scenarios."""

    def __init__(self, scenarios, params: AdmmParameters | None = None,
                 device: SimulatedDevice | None = None) -> None:
        self.scenarios: ScenarioSet = as_scenario_set(scenarios)
        self.params = params if params is not None else AdmmParameters()
        self.params.validate()
        per_scenario = [scenario_parameters(s, params) for s in self.scenarios]
        #: Construction-time (rho_pq, rho_va) per scenario — the fixed values
        #: the adaptive path restarts from when no seeds are supplied.
        self.initial_penalties: list[tuple[float, float]] = [
            (p.rho_pq, p.rho_va) for p in per_scenario]
        self.data = ComponentData.from_scenarios(
            networks=self.scenarios.networks,
            params=self.params,
            penalties=list(self.initial_penalties),
            names=self.scenarios.names)
        self.backend = get_backend(self.params.kernel_backend)
        self.device = device or SimulatedDevice()
        self.device.backend = self.backend.name
        self.last_state: AdmmState | None = None

    # ------------------------------------------------------------------ #
    def update_scenario_data(self, *, bus_pd: np.ndarray | None = None,
                             bus_qd: np.ndarray | None = None,
                             gen_pmin: np.ndarray | None = None,
                             gen_pmax: np.ndarray | None = None,
                             networks: Sequence | None = None) -> None:
        """Swap per-period loads / generator bounds on the stacked arrays.

        The rolling-horizon tracking pipeline re-solves the same fleet every
        period with nothing changed but bus loads (the demand profile) and
        generator dispatch windows (ramp limits around the previous period's
        set points).  Rebuilding :class:`ComponentData` from scratch would
        recompute branch quantities and re-concatenate every component axis;
        this hook overwrites just the affected stacked arrays in place, so
        the next :meth:`solve` runs on data bitwise identical to a fresh
        :meth:`ComponentData.from_scenarios` stack of the updated networks.

        Each array must cover the full stacked axis (``n_bus`` for loads,
        ``n_gen`` — active generators only, scenario-major — for bounds), in
        per unit.  ``networks`` optionally supplies the per-scenario
        effective networks (e.g. :meth:`Network.with_array_overrides` views)
        so extracted solutions evaluate their constraint-violation metrics
        against the period's grid rather than the construction-time one.
        """
        data = self.data
        for attr, value in (("bus_pd", bus_pd), ("bus_qd", bus_qd),
                            ("gen_pmin", gen_pmin), ("gen_pmax", gen_pmax)):
            if value is None:
                continue
            value = np.asarray(value, dtype=float)
            current = getattr(data, attr)
            if value.shape != current.shape:
                raise ConfigurationError(
                    f"{attr} update has shape {value.shape}, "
                    f"expected the stacked {current.shape}")
            setattr(data, attr, value.copy())
        if networks is not None:
            layout = data.scenario_layout
            if len(networks) != layout.n_scenarios:
                raise ConfigurationError(
                    f"{len(networks)} networks for {layout.n_scenarios} "
                    "scenarios")
            data.layout = replace(layout, networks=tuple(networks))

    # ------------------------------------------------------------------ #
    def solve(self, time_limit: float | None = None,
              warm_start: Sequence[AdmmState | None] | None = None,
              penalties: Sequence[tuple[float, float] | None] | None = None,
              ) -> list[AdmmSolution]:
        """Run the stacked two-level loop; one solution per scenario.

        ``warm_start`` optionally supplies one per-scenario
        :class:`~repro.admm.state.AdmmState` (or ``None`` for a cold start of
        that scenario) — the shapes a previous solve's
        :func:`extract_scenario_state` snapshots have.  This is what makes a
        shard *resumable*: a pool worker (or a tracking driver) can re-enter
        the loop from where a previous solve of the same scenarios stopped.
        As with the single-network solver's warm start, the outer level
        restarts (``β`` back to ``beta_init``, outer iteration 1).

        ``penalties`` optionally seeds per-scenario ``(rho_pq, rho_va)``
        starting points (``None`` entries keep that scenario's
        construction-time values) — the tracking pipeline's ρ-cache hands a
        scenario's previously *converged* penalties back in here, alongside
        its warm state.  Under ``params.adaptive_rho`` the penalties then
        keep adapting from that seed; with adaptation off the seeds simply
        pin the fixed penalties of this solve.  When ``adaptive_rho`` is on
        and no seeds are given, the construction-time penalties are
        rewritten first, so a reused solver never inherits the previous
        solve's adapted values (each solve starts from a defined point).

        **Stream compaction.**  A frozen scenario's kernels are pure waste
        (idle thread blocks on the paper's GPU, dead vector width here), so
        once the fraction of still-running scenarios among the *resident*
        ones drops to ``params.compaction_threshold`` or below, the solver
        derives a compacted :class:`~repro.scenarios.layout.ScenarioLayout`
        over the survivors, packs their blocks of ``ComponentData`` and
        ``AdmmState``, and continues the very same loop on the narrower
        arrays.  Per-scenario trajectories are unaffected (kernels are
        component-separable and reductions per-scenario), so results remain
        bit-for-bit those of the full sweep; the kernel occupancy column of
        :meth:`SimulatedDevice.report` shows the reclaimed width.  After the
        last scenario freezes, the packed blocks are scattered back so
        :attr:`last_state` covers the full stacked layout.
        """
        params = self.params
        device = self.device
        data_full = self.data
        n_scenarios = data_full.scenario_layout.n_scenarios
        start = time.perf_counter()

        if penalties is not None:
            if len(penalties) != n_scenarios:
                raise ConfigurationError(
                    f"penalties has {len(penalties)} seeds for "
                    f"{n_scenarios} scenarios")
            seed = [pair if pair is not None else self.initial_penalties[s]
                    for s, pair in enumerate(penalties)]
            seed_penalties(data_full, seed)
        elif params.adaptive_rho:
            seed_penalties(data_full, self.initial_penalties)
        check_constant_penalties(data_full)

        state_full = cold_start_state(data_full)
        if warm_start is not None:
            if len(warm_start) != n_scenarios:
                raise ConfigurationError(
                    f"warm_start has {len(warm_start)} states for "
                    f"{n_scenarios} scenarios")
            for s, scenario_state in enumerate(warm_start):
                if scenario_state is not None:
                    scatter_state_scenarios(data_full, state_full,
                                            scenario_state, [s])
        state_full.beta = np.full(n_scenarios, params.beta_init)

        outer = np.ones(n_scenarios, dtype=int)
        inner_in_round = np.zeros(n_scenarios, dtype=int)
        total_inner = np.zeros(n_scenarios, dtype=int)
        z_norm_prev = np.ones(n_scenarios)  # max(‖z‖, 1) at cold start
        frozen = np.zeros(n_scenarios, dtype=bool)
        logs: list[list[AdmmIterationLog]] = [[] for _ in range(n_scenarios)]
        solutions: list[AdmmSolution | None] = [None] * n_scenarios

        compact = compaction_enabled() and params.compaction_threshold > 0
        live = np.arange(n_scenarios)  # global ids of the resident scenarios
        data, state = data_full, state_full

        while not frozen.all():
            active_live = ~frozen[live]
            n_active = int(active_live.sum())
            if (compact and 0 < n_active < live.size
                    and n_active <= params.compaction_threshold * live.size):
                # Compact: pack the surviving scenarios' blocks and continue
                # the loop on the narrower arrays.  The resident state is
                # flushed first; a block stops evolving once compacted away
                # (its reported solution is always the freeze-time snapshot).
                # Adapted penalties live in the packed data's rho blocks and
                # must flush with it, or re-selecting from the full arrays
                # would silently revert every adaptation since the previous
                # compaction.
                if state is not state_full:
                    scatter_state_scenarios(data_full, state_full, state, live)
                    if params.adaptive_rho:
                        flush_scenario_penalties(data, data_full, live)
                live = live[active_live]
                data = data_full.select_scenarios(live)
                state = select_state_scenarios(data_full, state_full, live)
                active_live = np.ones(live.size, dtype=bool)

            layout = data.scenario_layout
            active_gen = int(layout.counts("gen")[active_live].sum())
            active_branch = int(layout.counts("branch")[active_live].sum())
            active_bus = int(layout.counts("bus")[active_live].sum())
            active_coupling = 2 * active_gen + 8 * active_branch

            device.launch("generator_update", update_generators, data, state,
                          elements=data.n_gen, active_elements=active_gen,
                          backend=self.backend)
            device.launch("branch_update", update_branches, data, state, params.tron,
                          elements=data.n_branch, active_elements=active_branch,
                          backend=self.backend)
            device.launch("bus_update", update_buses, data, state,
                          elements=data.n_bus, active_elements=active_bus,
                          backend=self.backend)
            device.launch("z_update", update_artificial_variables, data, state,
                          elements=data.n_coupling, active_elements=active_coupling)
            primal = device.launch("multiplier_update", update_multipliers, data, state,
                                   elements=data.n_coupling, active_elements=active_coupling)
            residual = compute_residuals(data, state, primal,
                                         active=active_live if compact else None)

            idx_active = live[active_live]
            inner_in_round[idx_active] += 1
            total_inner[idx_active] += 1
            time_up = (time_limit is not None
                       and time.perf_counter() - start > time_limit)

            tol_inner = np.array([params.inner_tolerance(int(k)) for k in outer[live]])
            converged_inner = residual.converged_mask(
                np.maximum(tol_inner, params.inner_tol_primal),
                np.maximum(tol_inner, params.inner_tol_dual))
            round_done = active_live & (
                ((inner_in_round[live] >= params.min_inner_iterations) & converged_inner)
                | (inner_in_round[live] >= params.max_inner))
            if time_up:
                round_done = active_live.copy()
            if params.adaptive_rho:
                # A scenario whose round continues gets one residual-balancing
                # step every ``adaptive_rho_interval`` inner iterations — the
                # same point in the iteration where the sequential solver
                # adapts, so trajectories stay bitwise sequential.
                adapt = (active_live & ~round_done
                         & (inner_in_round[live]
                            % params.adaptive_rho_interval == 0))
                if adapt.any():
                    idx = np.flatnonzero(adapt)
                    apply_residual_balancing(
                        data, state, idx, residual.primal_norms[idx],
                        residual.dual_norms[idx], params)
            if not round_done.any():
                continue

            z_norm_new = update_outer_level(data, state, z_norm_prev[live],
                                            active=round_done, backend=self.backend)
            beta = np.asarray(state.beta)
            for s in np.flatnonzero(round_done):
                g = int(live[s])
                logs[g].append(AdmmIterationLog(
                    outer_iteration=int(outer[g]),
                    inner_iterations=int(inner_in_round[g]),
                    primal_residual=float(residual.primal_norms[s]),
                    dual_residual=float(residual.dual_norms[s]),
                    z_norm=float(z_norm_new[s]),
                    beta=float(beta[s])))
            if params.verbose:
                for s in np.flatnonzero(round_done):
                    g = int(live[s])
                    LOGGER.info("%s outer %2d: inner=%4d primal=%.3e dual=%.3e "
                                "|z|=%.3e beta=%.1e", layout.names[s], outer[g],
                                inner_in_round[g], residual.primal_norms[s],
                                residual.dual_norms[s], z_norm_new[s], beta[s])
            z_norm_prev[live] = z_norm_new

            newly_converged = round_done & (z_norm_new <= params.outer_tol)
            exhausted = round_done & ~newly_converged & (outer[live] >= params.max_outer)
            to_freeze = newly_converged | exhausted
            if time_up:
                to_freeze = active_live  # deadline: freeze everything still running
            elapsed = time.perf_counter() - start
            for s in np.flatnonzero(to_freeze & active_live):
                g = int(live[s])
                solutions[g] = self._extract_solution(
                    data, state, s, bool(newly_converged[s]), int(outer[g]),
                    int(total_inner[g]), elapsed, logs[g])
            frozen[live[to_freeze]] = True

            advancing = round_done & ~to_freeze
            adv = live[advancing]
            outer[adv] += 1
            inner_in_round[adv] = 0

        if state is not state_full:
            scatter_state_scenarios(data_full, state_full, state, live)
            if params.adaptive_rho:
                flush_scenario_penalties(data, data_full, live)
        self.last_state = state_full
        return solutions

    # ------------------------------------------------------------------ #
    def _extract_solution(self, data: ComponentData, state: AdmmState, s: int,
                          converged: bool, outer_iterations: int,
                          inner_iterations: int, elapsed: float,
                          log: list[AdmmIterationLog]) -> AdmmSolution:
        """Snapshot one scenario's slice of a (possibly compacted) state.

        ``s`` indexes the scenario inside ``data``'s own layout, which may
        be a compacted subset of :attr:`self.data`; the layout carries the
        scenario's name and network either way.
        """
        layout = data.scenario_layout
        network = layout.network(s)
        scenario_state = extract_scenario_state(data, state, s)
        scenario_state.outer_iteration = outer_iterations
        scenario_state.total_inner_iterations = inner_iterations

        vm = np.sqrt(np.maximum(scenario_state.w, 1e-12))
        va = scenario_state.theta - scenario_state.theta[network.ref_bus]

        gen_block = layout.block("gen", s)
        pg_full = np.zeros(network.n_gen)
        qg_full = np.zeros(network.n_gen)
        pg_full[data.gen_index[gen_block]] = scenario_state.pg
        qg_full[data.gen_index[gen_block]] = scenario_state.qg

        metrics = constraint_violation(network, vm, va, pg_full, qg_full)
        rho_pq, rho_va = scenario_penalties(data, s)
        return AdmmSolution(
            network_name=layout.names[s], vm=vm, va=va, pg=pg_full, qg=qg_full,
            objective=metrics.objective, metrics=metrics, converged=converged,
            outer_iterations=outer_iterations, inner_iterations=inner_iterations,
            solve_seconds=elapsed, state=scenario_state, iteration_log=list(log),
            rho_pq=rho_pq, rho_va=rho_va)


def extract_scenario_state(data: ComponentData, state: AdmmState, s: int) -> AdmmState:
    """Copy one scenario's block out of a stacked :class:`AdmmState`.

    The result is a standalone state of that scenario's network (bus indices
    are block-local because scenarios are stacked scenario-major), usable to
    warm start a classic single-network solve.
    """
    layout = data.scenario_layout
    gens = layout.block("gen", s)
    branches = layout.block("branch", s)
    buses = layout.block("bus", s)

    def per_group(values: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        return {group: values[group][data.group_block(group, s)].copy()
                for group in COUPLING_GROUPS}

    beta = state.beta
    if isinstance(beta, np.ndarray) and beta.ndim > 0:
        beta = float(beta[s])
    return AdmmState(
        pg=state.pg[gens].copy(), qg=state.qg[gens].copy(),
        vi=state.vi[branches].copy(), vj=state.vj[branches].copy(),
        ti=state.ti[branches].copy(), tj=state.tj[branches].copy(),
        sij=state.sij[branches].copy(), sji=state.sji[branches].copy(),
        pij=state.pij[branches].copy(), qij=state.qij[branches].copy(),
        pji=state.pji[branches].copy(), qji=state.qji[branches].copy(),
        w=state.w[buses].copy(), theta=state.theta[buses].copy(),
        pg_copy=state.pg_copy[gens].copy(), qg_copy=state.qg_copy[gens].copy(),
        pij_copy=state.pij_copy[branches].copy(), qij_copy=state.qij_copy[branches].copy(),
        pji_copy=state.pji_copy[branches].copy(), qji_copy=state.qji_copy[branches].copy(),
        y=per_group(state.y), z=per_group(state.z), lz=per_group(state.lz),
        lam_sij=state.lam_sij[branches].copy(), lam_sji=state.lam_sji[branches].copy(),
        rho_tilde=state.rho_tilde[branches].copy(),
        beta=beta, outer_iteration=state.outer_iteration,
        total_inner_iterations=state.total_inner_iterations,
        previous_bus_values={
            group: state.previous_bus_values[group][data.value_block(group, s)].copy()
            for group in state.previous_bus_values},
    )


def solve_acopf_admm_batch(scenarios, params: AdmmParameters | None = None,
                           device: SimulatedDevice | None = None,
                           time_limit: float | None = None) -> list[AdmmSolution]:
    """Solve a batch of independent scenarios in one stacked ADMM run.

    ``scenarios`` may be a :class:`~repro.scenarios.ScenarioSet`, a sequence
    of :class:`~repro.scenarios.Scenario`, or a sequence of networks.
    Returns one :class:`~repro.admm.solver.AdmmSolution` per scenario, in
    order; each matches the solution a standalone
    :func:`~repro.admm.solver.solve_acopf_admm` call (with
    :func:`scenario_parameters`) would produce.
    """
    solver = BatchAdmmSolver(scenarios, params=params, device=device)
    return solver.solve(time_limit=time_limit)


# --------------------------------------------------------------------- #
# Multi-device sharding entry point                                      #
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardTask:
    """One unit of :class:`~repro.parallel.pool.DevicePool` work.

    Everything in here is picklable, so a task can cross a process boundary
    to a worker: the scenario sub-batch itself, the *global* positions those
    scenarios occupy in the pool's full batch (for stable re-merge), the
    shared solve knobs, and optional per-scenario warm-start states that make
    a shard resumable.  ``time_limit`` is the aggregate budget of this
    shard's stacked solve, exactly as in :meth:`BatchAdmmSolver.solve`.
    """

    indices: tuple[int, ...]
    scenarios: ScenarioSet
    params: AdmmParameters | None = None
    time_limit: float | None = None
    warm_states: tuple[AdmmState | None, ...] | None = None
    device_name: str = "shard"
    penalties: tuple[tuple[float, float] | None, ...] | None = None

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.scenarios):
            raise ConfigurationError(
                f"shard has {len(self.indices)} indices for "
                f"{len(self.scenarios)} scenarios")
        if (self.penalties is not None
                and len(self.penalties) != len(self.scenarios)):
            raise ConfigurationError(
                f"shard has {len(self.penalties)} penalty seeds for "
                f"{len(self.scenarios)} scenarios")


@dataclass
class ShardResult:
    """What a worker sends back: per-scenario solutions plus device metrics.

    ``indices`` mirror the task's global positions (``solutions[k]`` is the
    solution of global scenario ``indices[k]``); ``device`` is the worker's
    :meth:`~repro.parallel.device.SimulatedDevice.as_dict` snapshot for this
    shard and ``seconds`` the worker-side wall-clock of the solve — the
    quantity the pool's makespan accounting is built from.
    """

    indices: tuple[int, ...]
    solutions: list[AdmmSolution]
    device: dict = field(default_factory=dict)
    seconds: float = 0.0


def solve_scenario_shard(task: ShardTask) -> ShardResult:
    """Solve one shard on its own simulated device (the pool worker body).

    A module-level function so it pickles under every multiprocessing start
    method; per-scenario results are bit-for-bit those of the full-batch
    (and of the standalone sequential) solve because scenarios never couple.
    """
    device = SimulatedDevice(name=task.device_name)
    solver = BatchAdmmSolver(task.scenarios, params=task.params, device=device)
    start = time.perf_counter()
    solutions = solver.solve(time_limit=task.time_limit,
                             warm_start=task.warm_states,
                             penalties=task.penalties)
    seconds = time.perf_counter() - start
    return ShardResult(indices=task.indices, solutions=solutions,
                       device=device.as_dict(), seconds=seconds)
