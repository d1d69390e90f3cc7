"""Segment bookkeeping for scenario-stacked component arrays.

A batch of S scenarios is the disjoint union of S component sets: buses,
generators, and branches of every scenario are concatenated along their
component axes (scenario-major, so each scenario occupies one contiguous
block).  :class:`ScenarioLayout` records where each scenario's block lives —
offsets, per-element segment ids, per-scenario consensus penalties — and is
what the per-scenario reductions (residual norms, ``β``/``λ`` updates,
convergence masks) are computed against.

The layout is deliberately ignorant of the ADMM coupling-group names: it
knows the three component axes (``"gen"``, ``"branch"``, ``"bus"``) and the
solver maps its groups onto them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.network import Network

#: Component axes a layout keeps segment information for.
AXES = ("gen", "branch", "bus")

#: Per-axis weights of the cost model behind cost-aware scenario placement.
#: A scenario's estimated element count mirrors the coupling arithmetic of
#: the batch solver (2 coupling constraints per generator, 8 per branch) plus
#: one bus-update element per bus; branch weight dominates because the
#: batched TRON branch solve dominates kernel time.
DEFAULT_COST_WEIGHTS = {"gen": 2.0, "branch": 8.0, "bus": 1.0}


def partition_costs(costs: Sequence[float], n_parts: int) -> list[list[int]]:
    """Split item ids ``0..len(costs)-1`` into ``n_parts`` balanced parts.

    Greedy LPT (longest processing time first): items are visited in order of
    decreasing cost (stable, so equal-cost items keep their input order) and
    each goes to the currently lightest part.  Every part's ids are returned
    sorted ascending, so re-merging per-part results in id order is stable.
    Parts may be empty when ``n_parts`` exceeds the item count.
    """
    values = np.asarray(list(costs), dtype=float)
    n_parts = max(1, int(n_parts))
    parts: list[list[int]] = [[] for _ in range(n_parts)]
    loads = np.zeros(n_parts)
    for item in np.argsort(-values, kind="stable"):
        lightest = int(np.argmin(loads))
        parts[lightest].append(int(item))
        loads[lightest] += values[item]
    return [sorted(part) for part in parts]


@dataclass(frozen=True)
class ScenarioLayout:
    """Where each scenario lives inside scenario-stacked component arrays.

    ``*_offsets`` are length ``S + 1`` cumulative arrays (scenario ``s``
    occupies ``[offsets[s], offsets[s + 1])``); ``*_segments`` map each
    stacked element to its owning scenario.  ``rho_pq`` / ``rho_va`` hold the
    per-scenario consensus penalties so per-scenario reductions can use exact
    scalar values instead of per-element arrays.
    """

    names: tuple[str, ...]
    gen_offsets: np.ndarray
    branch_offsets: np.ndarray
    bus_offsets: np.ndarray
    rho_pq: np.ndarray
    rho_va: np.ndarray
    networks: tuple = ()
    gen_segments: np.ndarray = field(default=None, repr=False)
    branch_segments: np.ndarray = field(default=None, repr=False)
    bus_segments: np.ndarray = field(default=None, repr=False)

    def __post_init__(self) -> None:
        for axis in AXES:
            if getattr(self, f"{axis}_segments") is None:
                object.__setattr__(self, f"{axis}_segments",
                                   segments_from_offsets(getattr(self, f"{axis}_offsets")))

    # ------------------------------------------------------------------ #
    @property
    def n_scenarios(self) -> int:
        return len(self.names)

    def offsets(self, axis: str) -> np.ndarray:
        """Cumulative offsets of one component axis (length ``S + 1``)."""
        _check_axis(axis)
        return getattr(self, f"{axis}_offsets")

    def segments(self, axis: str) -> np.ndarray:
        """Owning-scenario id of every stacked element of one axis."""
        _check_axis(axis)
        return getattr(self, f"{axis}_segments")

    def block(self, axis: str, scenario: int) -> slice:
        """Contiguous slice of one scenario's block on one axis."""
        return self.blocks(axis)[scenario]

    def blocks(self, axis: str) -> tuple[slice, ...]:
        """Every scenario's block slice on one axis (built once per layout)."""
        _check_axis(axis)
        return self._blocks[axis]

    @cached_property
    def _blocks(self) -> dict[str, tuple[slice, ...]]:
        blocks = {}
        for axis in AXES:
            bounds = [int(o) for o in getattr(self, f"{axis}_offsets")]
            blocks[axis] = tuple(slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]))
        return blocks

    def counts(self, axis: str) -> np.ndarray:
        """Per-scenario element counts of one axis."""
        return np.diff(self.offsets(axis))

    def network(self, scenario: int):
        """The scenario's :class:`Network` (when the layout carries them)."""
        if not self.networks:
            raise ValueError("this layout does not carry per-scenario networks")
        return self.networks[scenario]

    # ------------------------------------------------------------------ #
    # Stream compaction                                                    #
    # ------------------------------------------------------------------ #
    def element_indices(self, axis: str, keep: Sequence[int]) -> np.ndarray:
        """Stacked element indices of the kept scenarios' blocks, in order.

        This is the gather map of a scenario compaction: indexing a stacked
        component array with it packs the surviving scenarios' contiguous
        blocks next to each other (scenario-major order is preserved).
        """
        offsets = self.offsets(axis)
        blocks = [np.arange(int(offsets[s]), int(offsets[s + 1])) for s in keep]
        if not blocks:
            return np.zeros(0, dtype=int)
        return np.concatenate(blocks)

    def select(self, keep: Sequence[int]) -> "ScenarioLayout":
        """Layout of the scenario subset ``keep``, re-based to offset zero.

        Used when converged scenarios are compacted away: the surviving
        segments keep their internal structure (so every per-scenario block
        of the packed arrays is bitwise identical to its resident block) but
        the offsets collapse onto the packed axes.
        """
        keep = list(keep)

        def sub_offsets(offsets: np.ndarray) -> np.ndarray:
            counts = np.diff(np.asarray(offsets, dtype=int))[keep]
            return np.concatenate([[0], np.cumsum(counts)])

        return ScenarioLayout(
            names=tuple(self.names[s] for s in keep),
            gen_offsets=sub_offsets(self.gen_offsets),
            branch_offsets=sub_offsets(self.branch_offsets),
            bus_offsets=sub_offsets(self.bus_offsets),
            rho_pq=self.rho_pq[keep],
            rho_va=self.rho_va[keep],
            networks=(tuple(self.networks[s] for s in keep)
                      if self.networks else ()),
        )

    # ------------------------------------------------------------------ #
    # Multi-device sharding                                                #
    # ------------------------------------------------------------------ #
    def scenario_costs(self, weights: dict[str, float] | None = None) -> np.ndarray:
        """Estimated element count of every scenario (placement cost model).

        The default weights mirror the batch solver's coupling arithmetic
        (:data:`DEFAULT_COST_WEIGHTS`); pass ``weights`` keyed by axis name
        to override, or an empty-ish dict entry to drop an axis.
        """
        weights = DEFAULT_COST_WEIGHTS if weights is None else weights
        costs = np.zeros(self.n_scenarios)
        for axis in AXES:
            weight = float(weights.get(axis, 0.0))
            if weight:
                costs += weight * self.counts(axis)
        return costs

    def partition(self, n_parts: int,
                  weights: dict[str, float] | None = None) -> list[list[int]]:
        """Cost-balanced scenario partition for multi-device sharding.

        Returns ``n_parts`` lists of scenario ids (some possibly empty when
        there are fewer scenarios than parts), balanced by estimated element
        count — not scenario count — so a shard of one huge network weighs as
        much as a shard of many small ones.  Each part's ids are ascending,
        which keeps per-part results stably re-mergeable into batch order.
        """
        return partition_costs(self.scenario_costs(weights), n_parts)

    # ------------------------------------------------------------------ #
    @classmethod
    def single(cls, name: str, n_gen: int, n_branch: int, n_bus: int,
               rho_pq: float, rho_va: float, network=None) -> "ScenarioLayout":
        """Trivial one-scenario layout (the classic single-network solve)."""
        return cls(
            names=(name,),
            gen_offsets=np.array([0, n_gen]),
            branch_offsets=np.array([0, n_branch]),
            bus_offsets=np.array([0, n_bus]),
            rho_pq=np.array([float(rho_pq)]),
            rho_va=np.array([float(rho_va)]),
            networks=(network,) if network is not None else (),
        )

    @classmethod
    def stack(cls, networks: Sequence["Network"], names: Sequence[str],
              rho_pq: Sequence[float], rho_va: Sequence[float],
              n_gen: Sequence[int]) -> "ScenarioLayout":
        """Layout of the disjoint union of ``networks`` (scenario-major).

        ``n_gen`` is the number of *active* generators per scenario (the
        solver drops out-of-service generators from its component axis, so
        the network's own generator count is not the stacked one).
        """
        def cumulative(counts: Sequence[int]) -> np.ndarray:
            return np.concatenate([[0], np.cumsum(np.asarray(counts, dtype=int))])

        return cls(
            names=tuple(names),
            gen_offsets=cumulative(n_gen),
            branch_offsets=cumulative([net.n_branch for net in networks]),
            bus_offsets=cumulative([net.n_bus for net in networks]),
            rho_pq=np.asarray(rho_pq, dtype=float),
            rho_va=np.asarray(rho_va, dtype=float),
            networks=tuple(networks),
        )


def segments_from_offsets(offsets: np.ndarray) -> np.ndarray:
    """Expand cumulative offsets into a per-element segment-id array."""
    counts = np.diff(np.asarray(offsets, dtype=int))
    return np.repeat(np.arange(counts.shape[0]), counts)


def _check_axis(axis: str) -> None:
    if axis not in AXES:
        raise ValueError(f"unknown component axis {axis!r}; choose from {AXES}")
