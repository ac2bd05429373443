"""Partitioning plans and their runtime flag representation.

An *actual partitioning* at an instant is the set of PSEs whose split flags
are set (paper section 2.1).  :class:`PartitioningPlan` is the immutable
description (what the Reconfiguration Unit computes and ships);
:class:`PlanRuntime` is the live flag table inside the modulator — applying
a plan "is as efficient as changing flag values".

Edges entering StopNodes are *forced* split points independent of flags:
if execution reaches a StopNode without an earlier PSE firing, the
modulator must hand over there, because StopNodes can only run at the
receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.core.convexcut import ConvexCutResult, PSE
from repro.errors import InvalidPlanError
from repro.ir.interpreter import Edge, SplitHook
from repro.ir.values import Var


@dataclass(frozen=True)
class PartitioningPlan:
    """An immutable set of activated PSE edges."""

    active: FrozenSet[Edge]
    name: str = ""

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Plan{label} active={sorted(self.active)}>"


def receiver_heavy_plan(cut: ConvexCutResult) -> PartitioningPlan:
    """Split as early as possible: ~all processing at the receiver.

    Activates, for each TargetPath, its earliest non-poisoned PSE.
    """
    active = set()
    for path, edges in cut.path_pse_edges:
        order = {e: i for i, e in enumerate(path.edges)}
        candidates = sorted(edges, key=lambda e: order.get(e, 1 << 30))
        if candidates:
            active.add(candidates[0])
    return PartitioningPlan(active=frozenset(active), name="receiver-heavy")


def sender_heavy_plan(cut: ConvexCutResult) -> PartitioningPlan:
    """Split as late as possible: ~all processing at the sender.

    Activates no optional PSEs at all — the forced terminal edges alone
    carry the hand-over right before each StopNode.
    """
    return PartitioningPlan(active=frozenset(), name="sender-heavy")


def static_optimal_plan(cut: ConvexCutResult) -> PartitioningPlan:
    """Activate, per path, the PSE with the lowest *static* cost.

    Non-determinable costs compare by lower bound; this is the best plan
    knowable before any profiling and is the deployment-time default.
    """
    active = set()
    for path, edges in cut.path_pse_edges:
        if not edges:
            continue
        best = min(
            edges,
            key=lambda e: (
                cut.pses[e].static_cost.lower_bound
                if e in cut.pses
                else float("inf")
            ),
        )
        active.add(best)
    return PartitioningPlan(active=frozenset(active), name="static-optimal")


def union_plan(
    plans: Iterable[PartitioningPlan], name: str = "union"
) -> PartitioningPlan:
    """The *deepest common split* plan for a fan-out of subscribers.

    A modulator serving N peers, each on its own plan, can share one
    run per message only up to the earliest split any peer wants: under
    the union of all active edge sets the interpreter stops at the
    first edge that is active for *any* peer — exactly the deepest
    point to which every peer's sender-side work agrees.  Peers whose
    own plan splits there ship the shared continuation as-is; peers
    wanting a deeper split resume (fork) from it under their own flag
    table.  The union of valid plans is valid: activating more known,
    non-poisoned PSE edges cannot introduce an unknown or poisoned one.
    """
    active: FrozenSet[Edge] = frozenset()
    for plan in plans:
        active = active | plan.active
    return PartitioningPlan(active=active, name=name)


def validate_plan(cut: ConvexCutResult, plan: PartitioningPlan) -> None:
    """Raise :class:`InvalidPlanError` unless *plan* is usable with *cut*.

    Checks: every activated edge is a known PSE; none is poisoned.  (Path
    coverage is not required — forced terminal edges guarantee a split on
    every execution.)
    """
    unknown = plan.active - cut.pse_edges
    if unknown:
        raise InvalidPlanError(
            f"plan activates non-PSE edges: {sorted(unknown)}"
        )
    bad = plan.active & cut.poisoned
    if bad:
        raise InvalidPlanError(
            f"plan activates convexity-poisoned edges: {sorted(bad)}"
        )


class PlanRuntime(SplitHook):
    """The modulator's live flag table; a :class:`SplitHook` for the
    interpreter.

    ``switch_count`` tracks plan applications so experiments can report
    adaptation-actuation counts; each application is O(#PSE) flag writes.
    """

    def __init__(self, cut: ConvexCutResult) -> None:
        self._cut = cut
        self._flags: Dict[Edge, bool] = {e: False for e in cut.pses}
        self._forced: FrozenSet[Edge] = cut.terminal_edges()
        self._inter: Dict[Edge, FrozenSet[Var]] = {
            e: p.inter for e, p in cut.pses.items()
        }
        # Codegen fast path: the current split set as one frozenset (the
        # generated code inlines a split at exactly these edges) and
        # per-edge capture specs as sorted name tuples, the order of the
        # continuation schema's values.
        self._split_set: FrozenSet[Edge] = self._forced
        self._capture_specs: Dict[Edge, Tuple[str, ...]] = {
            e: tuple(sorted(v.name for v in inter))
            for e, inter in self._inter.items()
        }
        self.switch_count = 0
        self.current_plan: Optional[PartitioningPlan] = None

    # -- SplitHook interface -------------------------------------------------

    def should_split(self, edge: Edge) -> bool:
        return self._flags.get(edge, False) or edge in self._forced

    def live_vars(self, edge: Edge) -> FrozenSet[Var]:
        # forced edges are terminal PSEs: every split edge has a PSE
        return self._inter[edge]

    def split_edge_set(self) -> FrozenSet[Edge]:
        return self._split_set

    def capture_specs(self) -> Dict[Edge, Tuple[str, ...]]:
        return self._capture_specs

    # -- plan application -------------------------------------------------------

    def apply_plan(self, plan: PartitioningPlan) -> None:
        validate_plan(self._cut, plan)
        for edge in self._flags:
            self._flags[edge] = edge in plan.active
        self._split_set = plan.active | self._forced
        self.current_plan = plan
        self.switch_count += 1

    def active_edges(self) -> FrozenSet[Edge]:
        return frozenset(e for e, on in self._flags.items() if on)
