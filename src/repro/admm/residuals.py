"""Primal / dual residuals and termination tests of the inner ADMM loop.

All residual summaries are computed *per scenario*: the stacked arrays of a
scenario batch are reduced over each scenario's contiguous block, so every
scenario carries its own convergence test and frozen scenarios can drop out
of the stopping logic while the shared kernels keep running on the full
arrays.  A classic single-network solve is simply the one-scenario special
case — its scalars are bitwise identical to the pre-batching implementation
because each per-scenario reduction runs on the same contiguous memory the
global reduction used to see.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.admm.data import COUPLING_GROUPS, GROUP_AXIS, VALUE_AXIS, ComponentData
from repro.admm.state import AdmmState
from repro.exceptions import ConfigurationError


@dataclass(frozen=True)
class ResidualInfo:
    """Residual summary of one inner iteration.

    The scalar fields summarise the whole batch (worst scenario); the
    ``*_norms`` arrays hold one entry per scenario and drive the batched
    solver's per-scenario convergence masks.
    """

    primal_norm: float
    dual_norm: float
    primal_max: float
    primal_norms: np.ndarray = field(default_factory=lambda: np.zeros(0))
    dual_norms: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def converged(self, tol_primal: float, tol_dual: float) -> bool:
        """Whether every scenario meets the tolerances."""
        return self.primal_norm <= tol_primal and self.dual_norm <= tol_dual

    def converged_mask(self, tol_primal, tol_dual) -> np.ndarray:
        """Per-scenario convergence mask (tolerances may be per-scenario)."""
        return ((self.primal_norms <= tol_primal)
                & (self.dual_norms <= tol_dual))


def _not_constant(group: str, scenario: int, block: np.ndarray) -> ConfigurationError:
    return ConfigurationError(
        f"data.rho[{group!r}] is not constant within scenario {scenario} "
        f"(spread [{float(np.min(block))}, {float(np.max(block))}]); "
        "per-scenario penalties must be written per whole scenario block")


def _scenario_rho(data: ComponentData, group: str, scenario: int) -> float:
    """One scenario's penalty for a group, read from ``data.rho`` itself.

    ``data.rho`` is the single source of truth (callers may hand-tune it);
    within a scenario the per-element arrays are constant by construction,
    so the block's first entry is the scenario's value.  A block that is
    *not* constant (a hand-tuned array written without scenario structure)
    would silently corrupt the dual-residual scale — and desynchronise the
    adaptive-ρ updater, which rewrites whole blocks — so it is rejected.
    Every penalty write site reads the old value through here first.
    """
    rho = data.rho[group]
    if np.ndim(rho) == 0:
        return float(rho)
    block = rho[data.group_block(group, scenario)]
    if not block.size:
        return 0.0
    first = float(block[0])
    if float(np.max(block)) != first or float(np.min(block)) != first:
        raise _not_constant(group, scenario, block)
    return first


def _block_firsts(data: ComponentData, group: str) -> np.ndarray:
    """Every scenario's penalty for a group: its block's first entry.

    Empty blocks read 0.0, like :func:`_scenario_rho`.
    """
    rho = data.rho[group]
    offsets = data.scenario_layout.offsets(GROUP_AXIS[group])
    if np.ndim(rho) == 0:
        return np.full(len(offsets) - 1, float(rho))
    starts = np.asarray(offsets[:-1], dtype=int)
    nonempty = np.asarray(offsets[1:], dtype=int) > starts
    firsts = np.zeros(starts.size)
    firsts[nonempty] = rho[starts[nonempty]]
    return firsts


def check_constant_penalties(data: ComponentData) -> None:
    """Reject any ``data.rho`` array that varies within a scenario block.

    One vectorised pass over every group; the solvers call it at solve
    entry, so the per-iteration residuals can read each block's first
    entry without re-checking it.
    """
    for group in COUPLING_GROUPS:
        rho = data.rho[group]
        if np.ndim(rho) == 0:
            continue
        segments = data.group_scenarios(group)
        bad = rho != _block_firsts(data, group)[segments]
        if bad.any():
            scenario = int(segments[np.argmax(bad)])
            raise _not_constant(group, scenario, rho[data.group_block(group, scenario)])


def compute_residuals(data: ComponentData, state: AdmmState,
                      primal: dict[str, np.ndarray],
                      active: np.ndarray | None = None) -> ResidualInfo:
    """Summarise the inner-iteration residuals per scenario.

    ``active`` optionally masks which scenarios need their reductions at
    all: a frozen scenario's residuals never feed a convergence decision or
    a log line again, so its per-scenario loop body is skipped (the norms
    report zero).  The batched solver passes its not-yet-frozen mask here
    when frozen scenarios are still resident (i.e. before stream compaction
    removes them from the stacked arrays).

    ``primal`` is the per-group ``r + z`` returned by the multiplier update.
    The dual residual follows the standard ADMM estimate: the change in the
    bus-side (second block) values between consecutive iterations scaled by
    the penalty of the constraints they appear in.  Both residuals are
    reported *relative* (Boyd et al., §3.3.1): the primal one relative to the
    magnitude of the coupled quantities, the dual one relative to the
    magnitude of the multipliers, so that the same tolerances work across the
    wide range of penalty values in Table I.

    Scenario blocks are contiguous, so each per-scenario accumulation is the
    exact reduction a standalone solve of that scenario would perform — the
    convergence decisions (and hence iteration trajectories) of a batched
    solve match the sequential ones bit for bit.
    """
    n_scenarios = data.n_scenarios
    bus_values = state.bus_side_values()
    previous_all = state.previous_bus_values
    layout = data.scenario_layout
    group_blocks = [layout.blocks(GROUP_AXIS[g]) for g in COUPLING_GROUPS]
    value_blocks = [layout.blocks(VALUE_AXIS[g]) for g in COUPLING_GROUPS]
    primal_arrays = [primal[g] for g in COUPLING_GROUPS]
    value_arrays = [bus_values[g] for g in COUPLING_GROUPS]
    y_arrays = [state.y[g] for g in COUPLING_GROUPS]
    # Dual-residual inputs of the groups with a comparable previous value:
    # (group position, current, previous, per-scenario penalty).  Penalties
    # are constant per block (checked at solve entry), so each scenario's is
    # its block's first entry.
    dual_terms = []
    for position, group in enumerate(COUPLING_GROUPS):
        previous = previous_all.get(group)
        if previous is not None and previous.shape == bus_values[group].shape:
            dual_terms.append((position, bus_values[group], previous,
                               _block_firsts(data, group)))

    primal_norms = np.zeros(n_scenarios)
    dual_norms = np.zeros(n_scenarios)
    primal_maxes = np.zeros(n_scenarios)

    # Per-scenario contiguous-slice reductions, not a segment_sum over the
    # stacked arrays: ``np.dot`` on a scenario's block performs the same
    # floating-point accumulation a standalone solve would, which is what
    # keeps batched convergence decisions bit-for-bit sequential.  The
    # Python loop costs about 50 small NumPy calls per scenario and
    # iteration: on many-scenario, few-iteration workloads (warm tracking
    # periods) that is a visible share of the solve, so everything that
    # does not depend on the scenario is hoisted out of it.
    for s in range(n_scenarios):
        if active is not None and not active[s]:
            continue
        n = 0
        primal_sq = 0.0
        primal_max = 0.0
        value_sq = 0.0
        dual_sq = 0.0
        y_sq = 0.0
        for array, blocks in zip(primal_arrays, group_blocks):
            v = array[blocks[s]]
            n += v.size
            primal_sq += float(np.dot(v, v))
            primal_max = max(primal_max, float(np.max(np.abs(v))) if v.size else 0.0)
        for array, blocks in zip(value_arrays, value_blocks):
            bv = array[blocks[s]]
            value_sq += float(np.dot(bv, bv))
        for array, blocks in zip(y_arrays, group_blocks):
            y = array[blocks[s]]
            y_sq += float(np.dot(y, y))
        for position, current, previous, rhos in dual_terms:
            block = value_blocks[position][s]
            diff = float(rhos[s]) * (current[block] - previous[block])
            dual_sq += float(np.dot(diff, diff))

        primal_scale = max(1.0, np.sqrt(value_sq / max(n, 1)))
        dual_scale = max(1.0, np.sqrt(y_sq / max(n, 1)))
        primal_norms[s] = np.sqrt(primal_sq / max(n, 1)) / primal_scale
        dual_norms[s] = np.sqrt(dual_sq / max(n, 1)) / dual_scale
        primal_maxes[s] = primal_max

    state.previous_bus_values = {k: v.copy() for k, v in bus_values.items()}
    return ResidualInfo(
        primal_norm=float(primal_norms.max()),
        dual_norm=float(dual_norms.max()),
        primal_max=float(primal_maxes.max()),
        primal_norms=primal_norms,
        dual_norms=dual_norms)
