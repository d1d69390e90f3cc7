"""Branch subproblem update (eq. (4) of the paper), solved with batched TRON.

Each branch owns six local variables

``u = (v_i, v_j, θ_i(ij), θ_j(ij), s_ij, s_ji)``

and minimises the augmented-Lagrangian objective consisting of

* consensus terms tying the four implied power flows to the bus-side copies,
* consensus terms tying ``v²`` and ``θ`` to the bus-side ``w`` and ``θ``,
* augmented-Lagrangian terms for the line-limit constraints
  ``p² + q² + s = 0`` with slack bounds ``s ∈ [−rate², 0]`` (only for rated
  branches; the multipliers λ̃ and penalty ρ̃ persist across ADMM iterations
  and are updated by a classic LANCELOT-style rule).

Every term is ``φ(c) = a·c + (b/2)·c²`` of a constraint ``c``, so the
objective is evaluated in closed form over the whole batch at once:

* the coefficients, targets, multipliers and penalties of the eight
  consensus terms are stacked once per ADMM iteration as ``(8, B)`` arrays
  (structure of arrays: every elementwise operation streams contiguous
  branch rows) and sliced along the branch axis by
  :meth:`BranchObjective.select_rows`;
* one cos/sin of ``θ_i − θ_j`` yields all four flows;
* the gradient is one weighted contraction of the constraint gradients
  ``G`` (four flows and the two line limits, whose gradients are
  ``2p∇p + 2q∇q`` plus a slack unit vector), and the Hessian is
  ``Gᵀ diag(w) G`` plus the flows' own second derivatives — which need only
  ``Σ mₖ Tₖ``, ``Σ mₖ T′ₖ``, ``Σ mₖ K_i,ₖ`` and ``Σ mₖ K_j,ₖ`` — plus the
  diagonal ``v²``/``θ`` terms and the slack couplings, written directly.

The flows depend on ``θ_i − θ_j`` only, so ``G`` and the flow Hessians are
formed in the reduced variables ``(v_i, v_j, θ)`` and expanded to
``θ_i`` and ``θ_j`` (``∂/∂θ_j = −∂/∂θ_i``) when the ``(B, 6, 6)`` Hessian
is written.  Sums
over the terms are explicit elementwise additions in a fixed order, never
reductions whose association could depend on the batch width, so every
evaluation is row-separable bit for bit (stream compaction relies on it).

The TRON driver asks for the objective at trial points and for the
gradient and Hessian together (:meth:`BranchObjective.derivatives`) at
accepted points only; nothing is cached between calls.  The whole batch is
solved by :func:`repro.tron.batch.solve_batch` — one simulated "thread
block" per branch, exactly the paper's ExaTron usage.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.admm.data import ComponentData
from repro.admm.state import AdmmState
from repro.parallel.backends import KernelBackend, get_backend
from repro.powerflow.branch_derivatives import (
    FlowCoefficients,
    flow_value,
    quantity_value,
    trig_factors,
)
from repro.tron.batch import solve_batch
from repro.tron.options import TronOptions

#: Index of each local variable inside the branch state vector.
VI, VJ, TI, TJ, SIJ, SJI = range(6)

#: Angle bounds used by the paper's formulation (1h).
ANGLE_BOUND = 2.0 * np.pi

#: Rows of the stacked consensus arrays: the four flows (in the row order of
#: ``BranchQuantities.stacked``), then the bus-side copies ``(w_i, w_j,
#: θ_i, θ_j)`` in the order of the variables they constrain.
CONSENSUS = ("pij", "qij", "pji", "qji", "wi", "wj", "ti", "tj")

# Hessian entries of the reduced variables (v_i, v_j, θ), as rows of the
# stacked entry array: 0–5 the pairs (vi,vi) (vi,vj) (vi,θ) (vj,vj) (vj,θ)
# (θ,θ); 6–8 the couplings of (vi, vj, θ) with s_ij and 9–11 with s_ji; 12
# ρ̃ (the slack diagonals); 13 an exact zero.  _H_ENTRY places them in the
# 6×6 Hessian and _H_SIGN applies ∂/∂θ_j = −∂/∂θ_i.
_PAIR_I = np.array([0, 0, 0, 1, 1, 2])
_PAIR_J = np.array([0, 1, 2, 1, 2, 2])
_RED = [0, 1, 2, 2]
_H_ENTRY = np.array([
    # vi  vj  ti  tj sij sji
    [0, 1, 2, 2, 6, 9],        # vi
    [1, 3, 4, 4, 7, 10],       # vj
    [2, 4, 5, 5, 8, 11],       # ti
    [2, 4, 5, 5, 8, 11],       # tj
    [6, 7, 8, 8, 12, 13],      # s_ij
    [9, 10, 11, 11, 13, 12],   # s_ji
])
_THETA_SIGN = np.array([1.0, 1.0, 1.0, -1.0, 1.0, 1.0])
_H_SIGN = np.outer(_THETA_SIGN, _THETA_SIGN)[:, :, None]
_DIAG4 = np.arange(4)


def _row_sum(rows) -> np.ndarray:
    """``rows[0] + rows[1] + …`` as elementwise adds in a fixed order.

    A NumPy reduction may associate differently when the batch width is 1,
    which would break the bitwise row-separability of the evaluation.
    """
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    return total


@dataclass
class BranchObjective:
    """Batched objective of the branch subproblems for one ADMM iteration.

    Arrays are stacked term-major with the branch axis last.  The target of
    each consensus term is ``(bus-side value) − z`` so that the penalised
    quantity is exactly ``component value − bus value + z``.  Implements the
    :class:`repro.tron.batch.BatchProblem` protocol.
    """

    coeff: FlowCoefficients   # (4, B) flow coefficients, rows pij, qij, pji, qji
    target: np.ndarray        # (8, B) consensus targets, rows :data:`CONSENSUS`
    y: np.ndarray             # (8, B) consensus multipliers
    rho: np.ndarray           # (8, B) consensus penalties
    # line-limit augmented-Lagrangian state (zeroed for unrated branches)
    lam: np.ndarray           # (2, B) multipliers of the ij and ji limits
    rho_tilde: np.ndarray     # (B,) penalty shared by both limits
    limited: np.ndarray       # (B,) branch has a thermal rating
    # bounds
    lb: np.ndarray
    ub: np.ndarray

    # ------------------------------------------------------------------ #
    def _evaluate(self, u: np.ndarray, order: int) -> tuple:
        """``(f,)``, ``(f, grad)`` or ``(f, grad, hess)`` for ``order`` 0, 1, 2."""
        vi, vj, ti, tj, sij, sji = np.ascontiguousarray(u.T)
        k = self.coeff
        trig, dtrig = trig_factors(k, ti, tj, derivative=order >= 1)
        flows = flow_value(k, vi, vj, trig)                       # (4, B)
        c = np.vstack([flows, vi * vi, vj * vj, ti, tj]) - self.target
        sq = flows * flows
        c_lim = np.vstack([sq[0] + sq[1] + sij, sq[2] + sq[3] + sji])
        rt = self.rho_tilde
        f = (_row_sum((self.y + 0.5 * self.rho * c) * c)
             + _row_sum((self.lam + 0.5 * rt * c_lim) * c_lim))
        if order == 0:
            return (f,)

        phi = self.y + self.rho * c                  # φ′ of the consensus terms
        phi_lim = self.lam + rt * c_lim              # φ′ of the two limits
        phi_pair = phi_lim[[0, 0, 1, 1]]             # each flow's limit

        # Constraint gradients in (v_i, v_j, θ): four flows, then the limits.
        vv = vi * vj
        d = np.empty((3, 4) + vi.shape)
        d[0] = 2.0 * k.k_i * vi + vj * trig
        d[1] = 2.0 * k.k_j * vj + vi * trig
        d[2] = vv * dtrig
        pd = d * flows
        grads = np.concatenate([d, 2.0 * (pd[:, 0::2] + pd[:, 1::2])], axis=1)

        # Gradient: one φ′-weighted contraction, plus the slack and bus terms.
        dbus = np.ones((4,) + vi.shape)
        dbus[0] = 2.0 * vi
        dbus[1] = 2.0 * vj
        reduced = _row_sum((grads * np.vstack([phi[:4], phi_lim])).transpose(1, 0, 2))
        grad = np.ascontiguousarray(np.vstack([
            reduced[_RED, :] * _THETA_SIGN[:4, None] + phi[4:] * dbus, phi_lim]).T)
        if order == 1:
            return f, grad

        # Hessian: Gᵀ diag(w) G (w = ρ plus the limits' 2φ′ on the flow
        # outer products), the flow Hessians weighted by m, the slack
        # couplings ρ̃·∇c_lim, and the diagonal bus terms.
        w = np.vstack([self.rho[:4] + 2.0 * phi_pair, rt, rt])
        pairs = _row_sum((grads[_PAIR_I] * w * grads[_PAIR_J]).transpose(1, 0, 2))
        m = phi[:4] + 2.0 * phi_pair * flows
        m_trig = _row_sum(m * trig)
        m_dtrig = _row_sum(m * dtrig)
        pairs[0] += 2.0 * _row_sum(m * k.k_i)
        pairs[1] += m_trig
        pairs[2] += vj * m_dtrig
        pairs[3] += 2.0 * _row_sum(m * k.k_j)
        pairs[4] += vi * m_dtrig
        pairs[5] -= vv * m_trig
        entries = np.vstack([pairs, rt * grads[:, 4], rt * grads[:, 5], rt,
                             np.zeros_like(rt)])
        bus_diag = self.rho[4:] * dbus * dbus
        bus_diag[:2] += 2.0 * phi[4:6]
        hess = entries[_H_ENTRY]                          # (6, 6, B)
        hess *= _H_SIGN
        hess[_DIAG4, _DIAG4] += bus_diag
        return f, grad, np.ascontiguousarray(hess.transpose(2, 0, 1))

    # BatchProblem protocol -------------------------------------------------
    def objective(self, u: np.ndarray) -> np.ndarray:
        return self._evaluate(u, order=0)[0]

    def gradient(self, u: np.ndarray) -> np.ndarray:
        return self._evaluate(u, order=1)[1]

    def hessian(self, u: np.ndarray, with_gradient: bool = False):
        """Hessians ``(B, 6, 6)``; with ``with_gradient`` the pair (gradient, Hessian)."""
        _, grad, hess = self._evaluate(u, order=2)
        return (grad, hess) if with_gradient else hess

    def derivatives(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gradient and Hessian from one closed-form evaluation.

        Routed through :meth:`hessian`, so tooling that wraps the protocol
        callbacks (the timebench layer tracer) sees exactly one evaluation.
        """
        return self.hessian(u, with_gradient=True)

    def select(self, index: int) -> "BranchObjective":
        """One-branch view for the loop TRON backend's single-row evaluation."""
        return self.select_rows(np.array([index]))

    def select_rows(self, indices: np.ndarray) -> "BranchObjective":
        """Packed row-subset view (stream compaction in the TRON driver)."""
        indices = np.asarray(indices, dtype=int)
        k = self.coeff
        return BranchObjective(
            coeff=FlowCoefficients(k.k_i[:, indices], k.k_j[:, indices],
                                   k.a_c[:, indices], k.a_s[:, indices]),
            target=self.target[:, indices], y=self.y[:, indices],
            rho=self.rho[:, indices], lam=self.lam[:, indices],
            rho_tilde=self.rho_tilde[indices], limited=self.limited[indices],
            lb=self.lb[indices], ub=self.ub[indices])

    def limit_residuals(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Line-limit constraint residuals (zero for unrated branches)."""
        vi, vj, ti, tj, sij, sji = np.ascontiguousarray(u.T)
        sq = quantity_value(self.coeff, vi, vj, ti, tj) ** 2
        c_ij = np.where(self.limited, sq[0] + sq[1] + sij, 0.0)
        c_ji = np.where(self.limited, sq[2] + sq[3] + sji, 0.0)
        return c_ij, c_ji


def build_branch_objective(data: ComponentData, state: AdmmState) -> BranchObjective:
    """Assemble the batched branch objective for the current ADMM iteration."""
    f = data.branch_from
    t = data.branch_to
    n = data.n_branch
    limited = data.branch_has_limit
    on = limited.astype(float)

    rate_sq = np.where(limited, data.branch_rate_sq, 0.0)
    lb = np.column_stack([
        data.branch_vi_min, data.branch_vj_min,
        np.full(n, -ANGLE_BOUND), np.full(n, -ANGLE_BOUND), -rate_sq, -rate_sq])
    ub = np.column_stack([
        data.branch_vi_max, data.branch_vj_max,
        np.full(n, ANGLE_BOUND), np.full(n, ANGLE_BOUND), np.zeros(n), np.zeros(n)])

    bus_side = (state.pij_copy, state.qij_copy, state.pji_copy, state.qji_copy,
                state.w[f], state.w[t], state.theta[f], state.theta[t])
    return BranchObjective(
        coeff=data.quantities.stacked,
        target=np.stack([value - state.z[g] for g, value in zip(CONSENSUS, bus_side)]),
        y=np.stack([state.y[g] for g in CONSENSUS]),
        rho=np.stack([np.broadcast_to(data.rho[g], (n,)) for g in CONSENSUS]),
        lam=np.stack([state.lam_sij * on, state.lam_sji * on]),
        rho_tilde=state.rho_tilde * on, limited=limited, lb=lb, ub=ub)


def update_branches(data: ComponentData, state: AdmmState,
                    tron_options: TronOptions | None = None,
                    backend: KernelBackend | None = None) -> dict[str, float]:
    """Solve all branch subproblems and update the branch state in place.

    Returns a small info dictionary (TRON iterations, line-limit violation)
    used by the solver's logging.  ``backend`` selects the kernel backend
    for the TRON driver's dense products and the per-scenario reductions;
    ``None`` resolves the environment default.
    """
    params = data.params
    tron_options = tron_options or params.tron
    backend = get_backend(backend)
    segment_max = backend.segment_max
    objective = build_branch_objective(data, state)

    u = np.column_stack([state.vi, state.vj, state.ti, state.tj, state.sij, state.sji])
    limited = data.branch_has_limit
    segments = data.group_scenarios("pij")
    n_scenarios = data.n_scenarios
    max_violation = 0.0
    tron_iterations = 0

    previous_violation = np.full(data.n_branch, np.inf)
    done = np.zeros(n_scenarios, dtype=bool)
    for iteration in range(max(1, params.auglag_max_iter)):
        result = solve_batch(objective, u, options=tron_options,
                             backend=params.tron_backend,
                             kernel_backend=backend)
        u_new = result.x
        tron_iterations += int(result.iterations.max()) if result.iterations.size else 0
        if iteration > 0 and done.any():
            # A scenario whose own augmented-Lagrangian loop has finished is
            # frozen: a standalone solve would have broken out already, so
            # later re-solves (driven by scenarios still iterating) must not
            # move its branch variables.
            u_new = np.where(done[segments][:, None], u, u_new)
        u = u_new

        c_ij, c_ji = objective.limit_residuals(u)
        violation = np.maximum(np.abs(c_ij), np.abs(c_ji))
        max_violation = float(violation.max()) if violation.size else 0.0
        # Scenarios are independent problems: whether a scenario's line-limit
        # multipliers advance may only depend on *its own* worst violation,
        # never on another scenario's (a global test would couple otherwise
        # independent trajectories).
        scenario_violation = segment_max(violation, segments, n_scenarios)
        needs_update = ~done & (scenario_violation > params.auglag_tol)
        done |= ~needs_update
        if not limited.any() or not needs_update.any():
            break

        # LANCELOT-style multiplier / penalty update (per branch), masked to
        # the scenarios whose own augmented-Lagrangian loop is still running.
        updating = limited & needs_update[segments]
        improved = violation <= 0.25 * previous_violation
        objective.lam = np.where(
            updating, objective.lam + objective.rho_tilde * np.vstack([c_ij, c_ji]),
            objective.lam)
        increase = updating & ~improved
        objective.rho_tilde = np.where(
            increase,
            np.minimum(objective.rho_tilde * params.auglag_penalty_factor,
                       params.auglag_penalty_max),
            objective.rho_tilde)
        previous_violation = np.where(updating, violation, previous_violation)

    # Persist branch variables and the augmented-Lagrangian state.
    state.vi, state.vj = u[:, VI].copy(), u[:, VJ].copy()
    state.ti, state.tj = u[:, TI].copy(), u[:, TJ].copy()
    state.sij, state.sji = u[:, SIJ].copy(), u[:, SJI].copy()
    state.lam_sij = np.where(limited, objective.lam[0], state.lam_sij)
    state.lam_sji = np.where(limited, objective.lam[1], state.lam_sji)
    state.rho_tilde = np.where(limited, objective.rho_tilde, state.rho_tilde)
    state.refresh_flows(data)

    return {"tron_iterations": float(tron_iterations),
            "line_limit_residual": max_violation}
