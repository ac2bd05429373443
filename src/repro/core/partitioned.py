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

Both halves, and the net broker's shared run and forks, execute through
one primitive, :meth:`PartitionedMethod.run`.  Profiling code "inserted
along each PSE" is its one edge observer, gated by the Profiling Unit's
per-PSE flags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.continuation import (
    ContinuationCodec,
    ContinuationMessage,
    ContinuationSchema,
)
from repro.core.convexcut import ConvexCutResult, PSE
from repro.core.plan import PartitioningPlan, PlanRuntime, static_optimal_plan
from repro.core.runtime.profiling import ProfilingUnit
from repro.core.runtime.reconfig import ReconfigurationUnit
from repro.errors import PartitionError
from repro.ir.function import IRFunction
from repro.ir.interpreter import (
    CycleMeter,
    Edge,
    Interpreter,
    Outcome,
    SplitHook,
)
from repro.ir.registry import FunctionRegistry
from repro.serialization import SerializerRegistry, measure_size


#: one traversed PSE edge of a run: (edge, cycles before it, INTER size,
#: or None when the measurement gate skipped it)
Observation = Tuple[Edge, float, Optional[float]]


def record_sender_run(
    unit,
    observations: List[Observation],
    split_edge: Optional[Edge],
) -> None:
    """Feed one sender-side run's edge observations into *unit*.

    The one sender-side recording rule, shared by the modulator, each
    subscriber's copy of the broker's shared run, and each fork.
    *split_edge* is where *unit*'s message split (a deep subscriber
    traverses the shared split edge without splitting there).
    """
    record = unit.record_edge_observation
    for edge, cycles, size in observations:
        record(
            edge,
            data_size=size,
            work_before=cycles,
            is_split=(edge == split_edge),
        )


def open_span(
    tracer,
    name: str,
    parent: Optional[Tuple[int, int]],
    *,
    new_trace: bool = False,
):
    """Begin span *name* of a run: a child of the trace context *parent*
    or, with *new_trace* and no parent, the root of a trace the tracer
    samples in.  Returns ``(span, trace context for the run)``, or
    ``(None, None)`` when there is nothing to trace."""
    if parent is not None:
        span = tracer.begin(name, trace_id=parent[0], parent_id=parent[1])
    else:
        trace_id = tracer.start_trace() if new_trace else None
        if trace_id is None:
            return None, None
        span = tracer.begin(name, trace_id=trace_id)
    return span, (span.trace_id, span.span_id)


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
    the modulator's cycle-count ones.
    """

    def __init__(
        self,
        partitioned: "PartitionedMethod",
        *,
        plan: Optional[PartitioningPlan] = None,
        profiling: Optional[ProfilingUnit] = None,
        record_rates: bool = True,
        obs=None,
    ) -> None:
        self.partitioned = partitioned
        self.plan_runtime = PlanRuntime(partitioned.cut)
        self.plan_runtime.apply_plan(plan or static_optimal_plan(partitioned.cut))
        self.profiling = profiling
        self.record_rates = record_rates
        self.obs = obs
        if obs is not None:
            self._c_switches = obs.metrics.counter("modulator.plan_switches")
        else:
            self._c_switches = None

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
        span = run_ctx = None
        if tracer is not None:
            span, run_ctx = open_span(
                tracer, "modulate", trace_ctx, new_trace=True
            )
        partitioned = self.partitioned
        outcome, message, observations, cycles = partitioned.run(
            args,
            self.plan_runtime,
            profiling.should_measure if profiling is not None else None,
            run_ctx,
        )
        elided = message is not None and partitioned.elides(message)
        if profiling is not None:
            record_sender_run(
                profiling,
                observations,
                None if message is None else message.edge,
            )
            if self.record_rates:
                profiling.record_sender_rate(cycles, cycles)
            if message is None or elided:
                profiling.record_local_completion()
            else:
                # Pair this message's modulator cycles with the
                # demodulator's (FIFO) so total per-message work is known.
                profiling.record_mod_total(cycles)
        if span is not None:
            partitioned.end_span(
                tracer,
                span,
                observations,
                cycles,
                "completed"
                if message is None
                else "elided" if elided else "split",
                message,
            )
        return ModulatorResult(
            completed=message is None,
            value=outcome.value,
            message=None if elided else message,
            edge=None if message is None else message.edge,
            cycles=cycles,
            elided=elided,
            span=span,
        )


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
        record_rates: bool = True,
        obs=None,
    ) -> None:
        self.partitioned = partitioned
        self.profiling = profiling
        self.record_rates = record_rates
        self.obs = obs

    def process(self, message: ContinuationMessage) -> DemodulatorResult:
        """Restore the live variables, jump to the PSE, continue processing."""
        profiling = self.profiling
        obs = self.obs
        tracer = obs.tracing if obs is not None else None
        span = run_ctx = None
        if tracer is not None:
            span, run_ctx = open_span(tracer, "demodulate", message.trace)
        partitioned = self.partitioned
        outcome, nested, observations, cycles = partitioned.run(
            message,
            None,
            profiling.should_measure if profiling is not None else None,
            run_ctx,
        )
        if nested is not None:
            raise PartitionError(
                f"{partitioned.function.name}: demodulator split again "
                f"at {nested.edge}; nested partitioning is not "
                f"supported (paper section 7)"
            )
        if profiling is not None:
            for edge, work_at_edge, size in observations:
                profiling.record_edge_observation(
                    edge, data_size=size, work_after=cycles - work_at_edge
                )
            # The resume edge itself: everything this side did is its
            # residual.  Do not re-count the traversal — the modulator
            # already counted it when it split here.
            profiling.record_edge_observation(
                message.edge, work_after=cycles, count_traversal=False
            )
            profiling.record_demod_total(cycles)
            if self.record_rates:
                profiling.record_receiver_rate(cycles, cycles)
        if span is not None:
            partitioned.end_span(
                tracer, span, observations, cycles, "completed", message
            )
        return DemodulatorResult(
            value=outcome.value, edge=message.edge, cycles=cycles, span=span
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
        # The schema numbers the split points for the wire; the PSE edge
        # set lets the interpreter observe PSE edges only.
        self.schema = ContinuationSchema.from_cut(self.function.name, self.cut)
        self.codec.schema = self.schema
        self.pse_edges: FrozenSet[Edge] = frozenset(self.cut.pses)

    @property
    def pses(self) -> Dict[Edge, PSE]:
        return self.cut.pses

    def run(
        self,
        entry,
        split_hook: Optional[SplitHook] = None,
        gate: Optional[Callable[[Edge], bool]] = None,
        trace_ctx: Optional[Tuple[int, int]] = None,
        cycles: float = 0.0,
    ) -> Tuple[
        Outcome, Optional[ContinuationMessage], List[Observation], float
    ]:
        """Start or resume the handler once: the only code that runs a half.

        *entry* is the event's argument tuple (a modulator, the broker's
        shared run) or a :class:`ContinuationMessage` to resume (a
        demodulator, a fork, a continuation completed at the sender).
        *split_hook* decides where the run stops.  *gate* is a profiling
        unit's or proxy's ``should_measure``: it picks the traversed PSE
        edges whose INTER set is sized from the live environment — the
        profiling code "along each PSE" (paper section 2.5).  The edge
        observer exists only when *gate* or *trace_ctx* wants the edges,
        so an unprofiled, untraced run takes generated code's
        observer-free variant; it always watches the PSE edges only.
        *cycles* is the work done before this run: a fork continues the
        shared run's meter, so its cycle counts add up exactly as a
        dedicated modulator's would.

        Returns ``(outcome, message, observations, cycles)``: *message*
        is the continuation to ship when the run split (None when it
        returned), and *observations* holds one :data:`Observation` per
        PSE edge traversed.
        """
        meter = CycleMeter(cycles=cycles)
        observations: List[Observation] = []
        observer = None
        if gate is not None or trace_ctx is not None:
            slots = self.schema.by_edge
            registry = self.serializer_registry

            def observer(edge: Edge, env: Dict[str, object]) -> None:
                size: Optional[float] = None
                if gate is not None and gate(edge):
                    size = float(
                        measure_size(
                            {
                                name: env[name]
                                for name in slots[edge].names
                                if name in env
                            },
                            registry,
                            use_self_sizing=True,
                        )
                    )
                observations.append((edge, meter.cycles, size))

        interpreter = self.interpreter
        if isinstance(entry, ContinuationMessage):
            start = interpreter.resume
        else:
            start = interpreter.run
        outcome = start(
            self.function,
            entry,
            split_hook=split_hook,
            edge_observer=observer,
            observe_edges=self.pse_edges,
            meter=meter,
            trace_ctx=trace_ctx,
        )
        continuation = outcome.continuation
        if continuation is None:
            return outcome, None, observations, meter.cycles
        message = self.schema.by_edge[continuation.edge].pack(
            continuation.variables, continuation.trace
        )
        return outcome, message, observations, meter.cycles

    def elides(self, message: ContinuationMessage) -> bool:
        """Whether *message* is dropped instead of shipped: a no-op resume
        with nothing to hand over (the paper's filtered events)."""
        nothing = message.absent == (1 << len(message.values)) - 1
        return message.slot.noop_resume and nothing

    def clone(self, message: ContinuationMessage) -> ContinuationMessage:
        """*message* through the codec and back: what its receiver would
        deserialize, sharing no mutable state with the original."""
        codec = self.codec
        return codec.decode(codec.encode(message))

    def end_span(
        self,
        tracer,
        span,
        observations: List[Observation],
        cycles: float,
        outcome: str,
        message: Optional[ContinuationMessage] = None,
        **extra: object,
    ) -> None:
        """Close a run's span with the attributes every run span carries:
        the traversed PSE ids, the cycles, the outcome and, for a run
        that split or resumed, the PSE and edge of *message*."""
        pses = self.cut.pses
        attrs: Dict[str, object] = {
            "pses": [str(pses[edge].pse_id) for edge, _, _ in observations],
            "cycles": cycles,
            "outcome": outcome,
            **extra,
        }
        if message is not None:
            attrs["pse"] = message.slot.pse_id
            attrs["edge"] = list(message.edge)
        span.attrs = attrs
        tracer.end(span)

    # The factories bind this handler (or its cut) and pass the keyword
    # options through to the class they build.

    def make_profiling_unit(self, **options) -> ProfilingUnit:
        return ProfilingUnit(self.cut, **options)

    def make_modulator(self, **options) -> Modulator:
        return Modulator(self, **options)

    def make_demodulator(self, **options) -> Demodulator:
        return Demodulator(self, **options)

    def make_reconfiguration_unit(self, **options) -> ReconfigurationUnit:
        return ReconfigurationUnit(self.cut, **options)

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
