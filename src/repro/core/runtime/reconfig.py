"""Runtime Reconfiguration Unit (paper section 2.5).

Collects profiling feedback from the modulator and demodulator sides,
converts profiled PSE statistics into min-cut edge weights via the cost
model, and re-selects the optimal partitioning by solving a max-flow /
min-cut problem over the Unit Graph:

* the flow source is the handler's StartNode;
* every StopNode connects to a virtual sink with infinite capacity;
* PSE edges carry their runtime costs as capacities;
* every other edge (including convexity-poisoned PSE candidates) is
  uncuttable (infinite capacity).

The min cut is then exactly the cheapest valid convex partition, and its
edge set becomes the new plan's active flags.

The unit's *location* is variable — modulator side, demodulator side, or a
third party (paper: appropriate "when repartitioning requires large
amounts of computation").  The location only affects where the computation
runs (and, under simulation, which host pays its cycles); the algorithm is
identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.core.convexcut import ConvexCutResult
from repro.core.costmodels.base import CostModel
from repro.core.plan import PartitioningPlan
from repro.core.runtime.maxflow import INF, FlowNetwork
from repro.core.runtime.plancost import explain_edge_costs
from repro.core.runtime.profiling import ProfilingUnit, PSEStats
from repro.core.runtime.triggers import FeedbackTrigger, RateTrigger
from repro.ir.interpreter import Edge
from repro.obs.trace import PlanRecomputed, TriggerFired

#: Minimum capacity assigned to a PSE so the min cut stays well defined
#: even when a profiled cost is zero.
_EPSILON = 1e-9

_SINK = "$sink"


@dataclass
class ReconfigurationRecord:
    """One reconfiguration event, for experiment logs."""

    at_message: int
    plan: PartitioningPlan
    cut_value: float


class ReconfigurationUnit:
    """Selects partitioning plans from profiled costs."""

    def __init__(
        self,
        cut: ConvexCutResult,
        *,
        trigger: Optional[FeedbackTrigger] = None,
        location: str = "receiver",
        obs=None,
        quality=None,
    ) -> None:
        if location not in ("sender", "receiver", "third-party"):
            raise ValueError(
                "location must be 'sender', 'receiver' or 'third-party'"
            )
        self.cut = cut
        self.cost_model: CostModel = cut.cost_model
        self.trigger = trigger or RateTrigger()
        self.location = location
        #: optional AdaptationQuality — told about each recompute so the
        #: drift detector can re-baseline the model's predictions
        self.quality = quality
        self.history: list = []
        #: trace context ``(trace_id, span_id)`` of the last recompute's
        #: "plan.recompute" span — the parent for plan-update shipping
        self.last_trace_ctx: Optional[Tuple[int, int]] = None
        self.obs = obs
        if obs is not None:
            self._c_fires = obs.metrics.counter("reconfig.trigger_fires")
            self._c_recomputes = obs.metrics.counter("reconfig.recomputes")
        else:
            self._c_fires = None
            self._c_recomputes = None

    # -- plan selection ---------------------------------------------------------

    def select_plan(
        self, stats: Dict[Edge, PSEStats]
    ) -> Tuple[PartitioningPlan, float]:
        """Solve min-cut over the PSE graph under profiled costs."""
        graph = self.cut.ctx.graph
        start = graph.start_node
        network = FlowNetwork()
        pse_edges = self.cut.pse_edges
        poisoned = self.cut.poisoned
        stop_nodes = self.cut.ctx.stops.nodes

        for edge in graph.edges():
            if edge in pse_edges and edge not in poisoned:
                stat = stats.get(edge)
                if stat is not None:
                    weight = self.cost_model.runtime_edge_cost(stat)
                else:
                    pse = self.cut.pses[edge]
                    weight = pse.static_cost.lower_bound
                network.add_edge(edge[0], edge[1], max(weight, _EPSILON))
            else:
                network.add_edge(edge[0], edge[1], INF)
        for node in stop_nodes:
            network.add_edge(node, _SINK, INF)

        if not network.has_node(start) or not network.has_node(_SINK):
            return PartitioningPlan(active=frozenset(), name="min-cut"), 0.0

        value, cut_keys, _source_side = network.min_cut(start, _SINK)
        active = frozenset(
            key for key in cut_keys if key in pse_edges
        )
        return PartitioningPlan(active=active, name="min-cut"), value

    # -- the feedback loop ----------------------------------------------------------

    def consider(
        self, profiling: ProfilingUnit
    ) -> Optional[PartitioningPlan]:
        """Run the trigger; when it fires, recompute and return a new plan.

        Returns None when the trigger stays quiet — the common, zero-cost
        case ("adaptations simply involve changes to a few flag values",
        and most messages involve not even that).
        """
        if not self.trigger.should_fire(profiling):
            return None
        obs = self.obs
        tracer = obs.tracing if obs is not None else None
        trigger_span = None
        if obs is not None:
            self._c_fires.inc()
            obs.trace.record(
                TriggerFired(
                    at_message=profiling.messages_seen,
                    trigger=type(self.trigger).__name__,
                    reason=getattr(self.trigger, "last_reason", None),
                )
            )
        if tracer is not None:
            # Control-plane traces bypass sampling: a reconfiguration is
            # rare and always worth explaining.
            trace_id = tracer.start_trace(force=True)
            trigger_span = tracer.begin(
                "trigger",
                trace_id=trace_id,
                attrs={
                    "trigger": type(self.trigger).__name__,
                    "at_message": profiling.messages_seen,
                    "reason": getattr(self.trigger, "last_reason", None),
                },
            )
        self.trigger.fired(profiling)
        snapshot = profiling.snapshot()
        if tracer is not None:
            recompute_span = tracer.begin(
                "plan.recompute",
                trace_id=trigger_span.trace_id,
                parent_id=trigger_span.span_id,
            )
        plan, value = self.select_plan(snapshot)
        if tracer is not None:
            recompute_span.attrs = {
                "cut_value": value,
                "pses": list(self.cut.pse_ids(plan.active)),
            }
            tracer.end(recompute_span)
            tracer.end(trigger_span)
            self.last_trace_ctx = (
                recompute_span.trace_id,
                recompute_span.span_id,
            )
        if obs is not None:
            self._c_recomputes.inc()
            obs.trace.record(
                PlanRecomputed(
                    at_message=profiling.messages_seen,
                    cut_value=value,
                    pse_ids=self.cut.pse_ids(plan.active),
                    breakdown=tuple(
                        explain_edge_costs(self.cut, snapshot, plan.active)
                    ),
                )
            )
        if self.quality is not None:
            self.quality.on_plan_recomputed(
                profiling.messages_seen, plan, snapshot
            )
        self.history.append(
            ReconfigurationRecord(
                at_message=profiling.messages_seen,
                plan=plan,
                cut_value=value,
            )
        )
        return plan

    @property
    def reconfiguration_count(self) -> int:
        return len(self.history)
