"""Two-level ADMM driver (Algorithm 1 of the paper).

``AdmmSolver`` holds the immutable component layout of one case and runs the
two-level loop:

* the **inner loop** is one ADMM pass over the component blocks — generators
  and branches (parallel, lines 3 of Algorithm 1), buses (line 4), the
  artificial variable ``z`` (line 5), and the multiplier ``y`` (line 6) —
  repeated until the ADMM residuals meet the (outer-iteration-dependent)
  inner tolerance;
* the **outer loop** updates the multiplier ``λ`` and penalty ``β`` on the
  ``z = 0`` constraint and stops once ``‖z‖_∞`` is small (line 9).

Warm starting (the paper's tracking mode) re-enters the same loop from the
final state of a previous solve instead of the cold-start state.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.admm.artificial import (
    update_artificial_variables,
    update_multipliers,
    update_outer_level,
)
from repro.admm.branch_update import update_branches
from repro.admm.bus_update import update_buses
from repro.admm.data import ComponentData
from repro.admm.generator_update import update_generators
from repro.admm.parameters import AdmmParameters, parameters_for_case
from repro.admm.penalty import apply_residual_balancing, scenario_penalties
from repro.admm.residuals import check_constant_penalties, compute_residuals
from repro.admm.state import AdmmState, cold_start_state
from repro.analysis.metrics import SolutionMetrics, constraint_violation
from repro.grid.network import Network
from repro.logging_utils import get_logger
from repro.parallel.backends import get_backend
from repro.parallel.device import SimulatedDevice

LOGGER = get_logger("admm")


@dataclass
class AdmmIterationLog:
    """Per-outer-iteration summary kept in the solution for inspection."""

    outer_iteration: int
    inner_iterations: int
    primal_residual: float
    dual_residual: float
    z_norm: float
    beta: float


@dataclass
class AdmmSolution:
    """Result of one ADMM solve."""

    network_name: str
    vm: np.ndarray
    va: np.ndarray
    pg: np.ndarray
    qg: np.ndarray
    objective: float
    metrics: SolutionMetrics
    converged: bool
    outer_iterations: int
    inner_iterations: int
    solve_seconds: float
    state: AdmmState
    iteration_log: list[AdmmIterationLog] = field(default_factory=list)
    #: The penalties in force when the solve stopped — the fixed Table-I
    #: values normally, the adapted ones under ``adaptive_rho`` (what the
    #: tracking pipeline's ρ-cache records to seed the next period).
    rho_pq: float | None = None
    rho_va: float | None = None

    @property
    def max_constraint_violation(self) -> float:
        """The paper's ‖c(x)‖∞ for the reported solution."""
        return self.metrics.max_violation


class AdmmSolver:
    """Reusable component-based two-level ADMM solver for one network."""

    def __init__(self, network: Network, params: AdmmParameters | None = None,
                 device: SimulatedDevice | None = None) -> None:
        self.network = network
        self.params = params if params is not None else parameters_for_case(network)
        self.params.validate()
        self.data = ComponentData.from_network(network, self.params)
        self.backend = get_backend(self.params.kernel_backend)
        self.device = device or SimulatedDevice()
        self.device.backend = self.backend.name
        self.last_state: AdmmState | None = None
        self._initial_rho = dict(self.data.rho)

    # ------------------------------------------------------------------ #
    def solve(self, warm_start: AdmmState | None = None,
              time_limit: float | None = None) -> AdmmSolution:
        """Run Algorithm 1 from cold start or from a warm-start state."""
        params = self.params
        data = self.data
        device = self.device
        start = time.perf_counter()

        if params.adaptive_rho:
            # Each solve adapts ρ from the configured starting point; without
            # this reset a reused solver would drift across repeated solves.
            data.rho = dict(self._initial_rho)
        check_constant_penalties(data)

        if warm_start is None:
            state = cold_start_state(data)
        else:
            state = warm_start.copy()
            state.outer_iteration = 0
            state.total_inner_iterations = 0
            state.beta = params.beta_init

        previous_z_norm = max(state.z_norm(), 1.0)
        iteration_log: list[AdmmIterationLog] = []
        converged = False
        total_inner = 0

        for outer in range(1, params.max_outer + 1):
            state.outer_iteration = outer
            inner_tol = params.inner_tolerance(outer)
            residual = None

            for inner in range(1, params.max_inner + 1):
                device.launch("generator_update", update_generators, data, state,
                              elements=data.n_gen, backend=self.backend)
                device.launch("branch_update", update_branches, data, state, params.tron,
                              elements=data.n_branch, backend=self.backend)
                device.launch("bus_update", update_buses, data, state,
                              elements=data.n_bus, backend=self.backend)
                device.launch("z_update", update_artificial_variables, data, state,
                              elements=data.n_coupling)
                primal = device.launch("multiplier_update", update_multipliers, data, state,
                                       elements=data.n_coupling)
                residual = compute_residuals(data, state, primal)
                total_inner += 1

                if (inner >= params.min_inner_iterations
                        and residual.converged(max(inner_tol, params.inner_tol_primal),
                                               max(inner_tol, params.inner_tol_dual))):
                    break
                if time_limit is not None and time.perf_counter() - start > time_limit:
                    break
                if (params.adaptive_rho and inner < params.max_inner
                        and inner % params.adaptive_rho_interval == 0):
                    apply_residual_balancing(
                        data, state, range(1), residual.primal_norms,
                        residual.dual_norms, params)

            previous_z_norm = update_outer_level(data, state, previous_z_norm,
                                                 backend=self.backend)
            iteration_log.append(AdmmIterationLog(
                outer_iteration=outer, inner_iterations=inner,
                primal_residual=residual.primal_norm if residual else float("nan"),
                dual_residual=residual.dual_norm if residual else float("nan"),
                z_norm=previous_z_norm, beta=state.beta))
            if params.verbose:
                LOGGER.info("outer %2d: inner=%4d primal=%.3e dual=%.3e |z|=%.3e beta=%.1e",
                            outer, inner, residual.primal_norm, residual.dual_norm,
                            previous_z_norm, state.beta)

            if previous_z_norm <= params.outer_tol:
                converged = True
                break
            if time_limit is not None and time.perf_counter() - start > time_limit:
                break

        state.total_inner_iterations = total_inner
        self.last_state = state
        elapsed = time.perf_counter() - start
        return self._build_solution(state, converged, total_inner, elapsed, iteration_log)

    # ------------------------------------------------------------------ #
    def _build_solution(self, state: AdmmState, converged: bool, total_inner: int,
                        elapsed: float, iteration_log: list[AdmmIterationLog]) -> AdmmSolution:
        """Extract the reported solution (paper Section IV-A conventions)."""
        network = self.network
        data = self.data

        vm = np.sqrt(np.maximum(state.w, 1e-12))
        va = state.theta - state.theta[network.ref_bus]

        pg_full = np.zeros(network.n_gen)
        qg_full = np.zeros(network.n_gen)
        pg_full[data.gen_index] = state.pg
        qg_full[data.gen_index] = state.qg

        metrics = constraint_violation(network, vm, va, pg_full, qg_full)
        rho_pq, rho_va = scenario_penalties(data, 0)
        return AdmmSolution(
            network_name=network.name, vm=vm, va=va, pg=pg_full, qg=qg_full,
            objective=metrics.objective, metrics=metrics, converged=converged,
            outer_iterations=state.outer_iteration, inner_iterations=total_inner,
            solve_seconds=elapsed, state=state, iteration_log=iteration_log,
            rho_pq=rho_pq, rho_va=rho_va)


def solve_acopf_admm(network: Network, params: AdmmParameters | None = None,
                     warm_start: AdmmState | None = None,
                     device: SimulatedDevice | None = None,
                     time_limit: float | None = None) -> AdmmSolution:
    """One-shot convenience wrapper around :class:`AdmmSolver`."""
    solver = AdmmSolver(network, params=params, device=device)
    return solver.solve(warm_start=warm_start, time_limit=time_limit)
