"""The modulator/demodulator pair generated from a partitioned handler.

Static analysis "generates the modulator/demodulator pair from the handling
method" (paper section 2.1).  In this reproduction both halves execute the
*same* IR program under the interpreter; the difference is where execution
starts and stops:

* the :class:`Modulator` (inside the message **sender**) runs the handler
  from the top under the plan's split hook, so it stops at the first active
  or forced PSE and emits a :class:`ContinuationMessage`;
* the :class:`Demodulator` (inside the **receiver**) resumes the handler at
  the continuation's PSE with the handed-over variables restored.

Profiling code "inserted along each PSE" is realized by the hooks around
the split/resume boundary, gated by the Profiling Unit's per-PSE flags.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Tuple

from repro.core.continuation import ContinuationCodec, ContinuationMessage
from repro.core.convexcut import ConvexCutResult, PSE
from repro.core.plan import PartitioningPlan, PlanRuntime, static_optimal_plan
from repro.core.runtime.profiling import ProfilingUnit
from repro.core.runtime.reconfig import ReconfigurationUnit
from repro.core.runtime.triggers import FeedbackTrigger
from repro.errors import PartitionError
from repro.ir.function import IRFunction
from repro.ir.interpreter import CycleMeter, Edge, Interpreter, Outcome
from repro.ir.registry import FunctionRegistry
from repro.serialization import SerializerRegistry, measure_size


@dataclass
class ModulatorResult:
    """Outcome of pushing one message through a modulator."""

    #: True when the handler ran to completion inside the sender (possible
    #: only for handlers without StopNodes on the executed path).
    completed: bool
    value: object = None
    #: the continuation to ship; None when completed or elided
    message: Optional[ContinuationMessage] = None
    #: PSE edge where the split happened (None when completed)
    edge: Optional[Edge] = None
    #: abstract cycles consumed on the sender
    cycles: float = 0.0
    #: True when the continuation was a no-op and was dropped (filtering)
    elided: bool = False
    #: the "modulate" span, when tracing sampled this message
    span: Optional[object] = None


@dataclass
class DemodulatorResult:
    """Outcome of resuming one continuation in a demodulator."""

    value: object
    edge: Edge
    cycles: float = 0.0
    #: the "demodulate" span, when the message carried a trace context
    span: Optional[object] = None


class Modulator:
    """The sender-side half of a partitioned handler.

    When a profiling unit is attached, the modulator observes every PSE
    edge it traverses — not only the one it splits at — recording the
    work done up to that edge and (flag-gated, sampled) the serialized
    size of the edge's INTER set from the live environment.  That is the
    modulator half of the paper's "profiling information from both the
    modulator and demodulator sides".

    ``record_rates=False`` lets an external harness (e.g. the simulation
    pipeline) supply its own seconds-per-cycle rate measurements instead of
    the modulator's wall-clock/cycle ones.
    """

    def __init__(
        self,
        partitioned: "PartitionedMethod",
        *,
        plan: Optional[PartitioningPlan] = None,
        profiling: Optional[ProfilingUnit] = None,
        wall_clock: bool = False,
        record_rates: bool = True,
        obs=None,
    ) -> None:
        self.partitioned = partitioned
        self.plan_runtime = PlanRuntime(partitioned.cut)
        self.plan_runtime.apply_plan(plan or static_optimal_plan(partitioned.cut))
        self.profiling = profiling
        self.wall_clock = wall_clock
        self.record_rates = record_rates
        self._interp = partitioned.interpreter
        self._codec = partitioned.codec
        self.obs = obs
        if obs is not None:
            self._c_switches = obs.metrics.counter("modulator.plan_switches")
        else:
            self._c_switches = None

    def _pse_id_str(self, edge: Edge) -> str:
        pse = self.partitioned.cut.pses.get(edge)
        return str(pse.pse_id) if pse is not None else f"forced{edge}"

    def apply_plan(self, plan: PartitioningPlan) -> None:
        """Adaptation actuation: flip the flag values (paper section 2.6)."""
        old_active = self.plan_runtime.active_edges()
        self.plan_runtime.apply_plan(plan)
        if self.obs is not None and plan.active != old_active:
            cut = self.partitioned.cut
            self._c_switches.inc()
            self.obs.flight.record(
                "SplitSwitched",
                old_pse_ids=cut.pse_ids(old_active),
                new_pse_ids=cut.pse_ids(plan.active),
                old_edges=tuple(sorted(old_active)),
                new_edges=tuple(sorted(plan.active)),
            )

    @property
    def switch_count(self) -> int:
        return self.plan_runtime.switch_count

    def process(
        self,
        *args: object,
        trace_ctx: Optional[Tuple[int, int]] = None,
    ) -> ModulatorResult:
        """Run the handler on *args* until it splits (or completes).

        ``trace_ctx`` continues an existing trace (relay hops: a broker
        re-modulating a received event); without it the tracer decides —
        by sampling — whether this message starts a new trace.
        """
        profiling = self.profiling
        if profiling is not None:
            profiling.record_message()
        obs = self.obs
        tracer = obs.tracing if obs is not None else None
        span = None
        run_ctx: Optional[Tuple[int, int]] = None
        traced_edges: Optional[list] = None
        if tracer is not None:
            trace_id = (
                trace_ctx[0]
                if trace_ctx is not None
                else tracer.start_trace()
            )
            if trace_id is not None:
                span = tracer.begin(
                    "modulate",
                    trace_id=trace_id,
                    parent_id=(
                        trace_ctx[1] if trace_ctx is not None else None
                    ),
                )
                run_ctx = (trace_id, span.span_id)
        meter = CycleMeter()
        observations: list = []
        observer = None
        if profiling is not None:
            # The interpreter filters to PSE edges via observe_edges, so the
            # observer body never sees (or re-checks) a non-PSE edge.
            def observer(edge: Edge, env: Dict[str, object]) -> None:
                size: Optional[float] = None
                if profiling.should_measure(edge):
                    size = self.partitioned.measure_inter(edge, env)
                observations.append((edge, meter.cycles, size))

        elif span is not None:
            # Tracing without profiling still wants the traversed PSE
            # edges for the span attributes.
            traced_edges = []

            def observer(edge: Edge, env: Dict[str, object]) -> None:
                traced_edges.append(edge)

        started = time.perf_counter() if self.wall_clock else 0.0
        outcome = self._interp.run(
            self.partitioned.function,
            args,
            split_hook=self.plan_runtime,
            edge_observer=observer,
            observe_edges=self.partitioned.pse_edges,
            meter=meter,
            trace_ctx=run_ctx,
        )
        elapsed = (
            time.perf_counter() - started if self.wall_clock else meter.cycles
        )

        split_edge: Optional[Edge] = (
            outcome.continuation.edge if outcome.split else None
        )
        if profiling is not None:
            for edge, work_before, size in observations:
                profiling.record_edge_observation(
                    edge,
                    data_size=size,
                    work_before=work_before,
                    is_split=(edge == split_edge),
                )
            if self.record_rates:
                profiling.record_sender_rate(elapsed, meter.cycles)

        if outcome.returned:
            if profiling is not None:
                profiling.record_local_completion()
            if span is not None:
                self._finish_span(
                    span, observations, traced_edges, meter, "completed"
                )
            return ModulatorResult(
                completed=True,
                value=outcome.value,
                cycles=meter.cycles,
                span=span,
            )

        continuation = outcome.continuation
        pse = self.partitioned.cut.pses.get(split_edge)
        pse_id = pse.pse_id if pse is not None else f"forced{split_edge}"
        message = ContinuationMessage.from_continuation(continuation, pse_id)
        elided = (
            pse is not None and pse.noop_resume and not message.variables
        )
        if profiling is not None:
            if elided:
                profiling.record_local_completion()
            else:
                # Pair this message's modulator cycles with the
                # demodulator's (FIFO) so total per-message work is known.
                profiling.record_mod_total(meter.cycles)
        if span is not None:
            self._finish_span(
                span,
                observations,
                traced_edges,
                meter,
                "elided" if elided else "split",
                pse_id=str(pse_id),
                edge=split_edge,
            )
        return ModulatorResult(
            completed=False,
            message=None if elided else message,
            edge=split_edge,
            cycles=meter.cycles,
            elided=elided,
            span=span,
        )

    def _finish_span(
        self,
        span,
        observations,
        traced_edges,
        meter: CycleMeter,
        outcome: str,
        *,
        pse_id: Optional[str] = None,
        edge: Optional[Edge] = None,
    ) -> None:
        edges = (
            [o[0] for o in observations]
            if traced_edges is None
            else traced_edges
        )
        attrs: Dict[str, object] = {
            "pses": [self._pse_id_str(e) for e in edges],
            "cycles": meter.cycles,
            "outcome": outcome,
        }
        if pse_id is not None:
            attrs["pse"] = pse_id
            attrs["edge"] = list(edge)
        span.attrs = attrs
        self.obs.tracing.end(span)


class Demodulator:
    """The receiver-side half of a partitioned handler.

    Observes every PSE edge downstream of the resume point, recording the
    residual work after each edge and (flag-gated) INTER-set sizes — the
    demodulator half of two-sided profiling.
    """

    def __init__(
        self,
        partitioned: "PartitionedMethod",
        *,
        profiling: Optional[ProfilingUnit] = None,
        wall_clock: bool = False,
        record_rates: bool = True,
        obs=None,
    ) -> None:
        self.partitioned = partitioned
        self.profiling = profiling
        self.wall_clock = wall_clock
        self.record_rates = record_rates
        self._interp = partitioned.interpreter
        self.obs = obs

    def process(self, message: ContinuationMessage) -> DemodulatorResult:
        """Restore the live variables, jump to the PSE, continue processing."""
        profiling = self.profiling
        obs = self.obs
        tracer = obs.tracing if obs is not None else None
        span = None
        traced_edges: Optional[list] = None
        if tracer is not None and message.trace is not None:
            span = tracer.begin(
                "demodulate",
                trace_id=message.trace[0],
                parent_id=message.trace[1],
            )
        meter = CycleMeter()
        observations: list = []
        observer = None
        if profiling is not None:

            def observer(edge: Edge, env: Dict[str, object]) -> None:
                size: Optional[float] = None
                if profiling.should_measure(edge):
                    size = self.partitioned.measure_inter(edge, env)
                observations.append((edge, meter.cycles, size))

        elif span is not None:
            traced_edges = []

            def observer(edge: Edge, env: Dict[str, object]) -> None:
                traced_edges.append(edge)

        started = time.perf_counter() if self.wall_clock else 0.0
        outcome = self._interp.resume(
            self.partitioned.function,
            message.to_continuation(),
            edge_observer=observer,
            observe_edges=self.partitioned.pse_edges,
            meter=meter,
        )
        elapsed = (
            time.perf_counter() - started if self.wall_clock else meter.cycles
        )
        if not outcome.returned:
            raise PartitionError(
                f"{self.partitioned.function.name}: demodulator split again "
                f"at {outcome.continuation.edge}; nested partitioning is not "
                f"supported (paper section 7)"
            )
        if profiling is not None:
            total = meter.cycles
            for edge, work_at_edge, size in observations:
                profiling.record_edge_observation(
                    edge, data_size=size, work_after=total - work_at_edge
                )
            # The resume edge itself: everything this side did is its
            # residual.  Do not re-count the traversal — the modulator
            # already counted it when it split here.
            profiling.record_edge_observation(
                message.edge, work_after=total, count_traversal=False
            )
            profiling.record_demod_total(total)
            if self.record_rates:
                profiling.record_receiver_rate(elapsed, total)
        if span is not None:
            pses = self.partitioned.cut.pses
            edges = (
                [o[0] for o in observations]
                if traced_edges is None
                else traced_edges
            )
            span.attrs = {
                "pse": str(message.pse_id),
                "edge": list(message.edge),
                "pses": [
                    str(pses[e].pse_id) if e in pses else str(e)
                    for e in edges
                ],
                "cycles": meter.cycles,
            }
            tracer.end(span)
        return DemodulatorResult(
            value=outcome.value,
            edge=message.edge,
            cycles=meter.cycles,
            span=span,
        )


@dataclass
class PartitionedMethod:
    """A handler after static analysis: PSEs plus runtime factories."""

    function: IRFunction
    cut: ConvexCutResult
    registry: FunctionRegistry
    serializer_registry: SerializerRegistry
    interpreter: Interpreter
    codec: ContinuationCodec

    def __post_init__(self) -> None:
        # Hot-path precomputation: the PSE edge set (so the interpreter
        # only consults edge observers on PSE edges) and per-PSE INTER
        # name tuples (so sizing a hand-over never iterates Var objects).
        pses = self.cut.pses
        self.pse_edges: FrozenSet[Edge] = frozenset(pses)
        self._inter_names = {
            e: tuple(v.name for v in p.inter) for e, p in pses.items()
        }

    @property
    def pses(self) -> Dict[Edge, PSE]:
        return self.cut.pses

    def measure_inter(self, edge: Edge, env: Dict[str, object]) -> float:
        """Size-calculation tool: wire size of INTER(edge) from a live env.

        The one sizing rule for every side that profiles a traversed PSE
        — modulator, demodulator and the net broker's shared and forked
        runs."""
        payload = {
            name: env[name] for name in self._inter_names[edge] if name in env
        }
        return float(
            measure_size(
                payload, self.serializer_registry, use_self_sizing=True
            )
        )

    def make_profiling_unit(
        self,
        *,
        ewma_alpha: float = 0.3,
        sample_period: int = 1,
        obs=None,
    ) -> ProfilingUnit:
        return ProfilingUnit(
            self.cut,
            ewma_alpha=ewma_alpha,
            sample_period=sample_period,
            obs=obs,
        )

    def make_modulator(
        self,
        *,
        plan: Optional[PartitioningPlan] = None,
        profiling: Optional[ProfilingUnit] = None,
        wall_clock: bool = False,
        record_rates: bool = True,
        obs=None,
    ) -> Modulator:
        return Modulator(
            self,
            plan=plan,
            profiling=profiling,
            wall_clock=wall_clock,
            record_rates=record_rates,
            obs=obs,
        )

    def make_demodulator(
        self,
        *,
        profiling: Optional[ProfilingUnit] = None,
        wall_clock: bool = False,
        record_rates: bool = True,
        obs=None,
    ) -> Demodulator:
        return Demodulator(
            self,
            profiling=profiling,
            wall_clock=wall_clock,
            record_rates=record_rates,
            obs=obs,
        )

    def make_reconfiguration_unit(
        self,
        *,
        trigger: Optional[FeedbackTrigger] = None,
        location: str = "receiver",
        obs=None,
        quality=None,
    ) -> ReconfigurationUnit:
        return ReconfigurationUnit(
            self.cut,
            trigger=trigger,
            location=location,
            obs=obs,
            quality=quality,
        )

    def make_quality(self, obs):
        """Build the adaptation-quality layer when *obs* opted in.

        Returns an :class:`~repro.obs.quality.AdaptationQuality` bound
        to this handler's cut when ``obs.quality_config`` is set, else
        None — so harnesses can write ``quality=partitioned.make_quality(obs)``
        and stay zero-cost by default.
        """
        config = getattr(obs, "quality_config", None) if obs else None
        if config is None:
            return None
        from repro.obs.quality import AdaptationQuality

        quality = AdaptationQuality(self.cut, config, obs)
        obs.quality = quality
        return quality

    def run_reference(self, *args: object) -> Outcome:
        """Execute the whole handler locally, without any partitioning.

        Used by the test suite to check the semantic-equivalence invariant:
        modulator + demodulator must compute exactly what the original
        handler computes.
        """
        return self.interpreter.run(self.function, args)

    def describe(self) -> str:
        return self.cut.describe()
