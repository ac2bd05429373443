"""JECho-style event channels with Method Partitioning subscriptions.

A channel connects event *sources* (senders) to *sinks* (receivers), in
the many-to-many shape of paper Figure 1: "a receiver can apply handlers
to messages received from multiple remote components, and a single method
handler can be used to handle messages from multiple senders ... multiple
modulators (some of which may be derived from the same handling methods)
may reside in a single sender."

Two subscription styles exist:

* **plain** — the baseline: the full event ships to the receiver, whose
  handler runs there (the manual versions of the paper's evaluation are
  built from plain subscriptions);
* **partitioned** — Method Partitioning: subscribing deploys the
  receiver's *modulator* into **every** sender — one modulator instance,
  with its own flags, profiling and reconfiguration state, per
  (sender, subscription) pair, because different pairs see different data
  and resources and therefore settle on different splits.

The channel is transport-agnostic: a :class:`LocalTransport` gives a real
in-process system (examples, tests); a :class:`SimLinkTransport` pays for
every byte on a simulated link (experiment harnesses).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.core.continuation import ContinuationMessage
from repro.core.partitioned import Demodulator, Modulator, PartitionedMethod
from repro.core.plan import PartitioningPlan
from repro.core.runtime.profiling import ProfilingUnit
from repro.core.runtime.reconfig import ReconfigurationUnit
from repro.core.runtime.triggers import FeedbackTrigger
from repro.errors import ChannelError
from repro.jecho.events import (
    ContinuationEnvelope,
    EventEnvelope,
    PlanEnvelope,
)
from repro.jecho.transport import LocalTransport, Transport
from repro.serialization import SerializerRegistry, measure_size

_sub_ids = itertools.count(1)
_source_ids = itertools.count(1)

#: Called at the receiver with each completed handler result.
ResultCallback = Callable[[object], None]


@dataclass
class SubscriptionStats:
    """Per-subscription traffic/outcome counters (summed over pairs)."""

    events_published: int = 0
    continuations_sent: int = 0
    events_filtered: int = 0
    results_delivered: int = 0
    plan_updates: int = 0


class EventSource:
    """One sender endpoint: where deployed modulators live."""

    def __init__(self, channel: "EventChannel", name: str) -> None:
        self.id = next(_source_ids)
        self.channel = channel
        self.name = name

    def publish(self, event: object) -> None:
        """Submit one event from this sender to every subscription."""
        for sub in list(self.channel.subscriptions):
            sub.push(event, self)

    def __repr__(self) -> str:
        return f"<EventSource {self.name!r}>"


class PairState:
    """Method Partitioning state of one (sender, subscription) pair.

    Each pair owns a modulator instance (its flags are the pair's current
    partitioning), a profiling unit, and optionally a Reconfiguration
    Unit — "different sender/receiver pairs may choose different cost
    models" (paper section 2.2); here each pair at least profiles and
    adapts independently.
    """

    def __init__(
        self,
        subscription: "Subscription",
        source: EventSource,
    ) -> None:
        self.subscription = subscription
        self.source = source
        partitioned = subscription.partitioned
        obs = subscription.channel.obs
        if obs is not None:
            partitioned.interpreter.attach_observability(obs)
        self.profiling: ProfilingUnit = partitioned.make_profiling_unit(
            sample_period=subscription.sample_period, obs=obs
        )
        self.modulator: Modulator = partitioned.make_modulator(
            plan=subscription.initial_plan, profiling=self.profiling, obs=obs
        )
        # One demodulator per pair so concurrent continuations from
        # different senders never share profiling state mid-flight.
        self.demodulator: Demodulator = partitioned.make_demodulator(
            profiling=self.profiling, obs=obs
        )
        self.reconfig: Optional[ReconfigurationUnit] = None
        if subscription.trigger_factory is not None:
            self.reconfig = partitioned.make_reconfiguration_unit(
                trigger=subscription.trigger_factory(),
                location="receiver",
                obs=obs,
            )
        self.plan_updates = 0


class Subscription:
    """One sink's attachment to a channel."""

    def __init__(
        self,
        channel: "EventChannel",
        *,
        partitioned: Optional[PartitionedMethod] = None,
        plain_handler: Optional[Callable[[object], object]] = None,
        plan: Optional[PartitioningPlan] = None,
        trigger_factory: Optional[Callable[[], FeedbackTrigger]] = None,
        sample_period: int = 1,
        on_result: Optional[ResultCallback] = None,
    ) -> None:
        if (partitioned is None) == (plain_handler is None):
            raise ChannelError(
                "a subscription is either partitioned or plain, not both"
            )
        self.id = next(_sub_ids)
        self.channel = channel
        self.partitioned = partitioned
        self.plain_handler = plain_handler
        self.initial_plan = plan
        self.trigger_factory = trigger_factory
        self.sample_period = sample_period
        self.on_result = on_result
        self.stats = SubscriptionStats()

        self._pairs: Dict[int, PairState] = {}
        if partitioned is not None:
            for source in channel.sources:
                self._deploy(source)

    # -- deployment ---------------------------------------------------------

    def _deploy(self, source: EventSource) -> PairState:
        """Install this sink's modulator into *source* (paper Figure 1)."""
        pair = PairState(self, source)
        self._pairs[source.id] = pair
        return pair

    def pair_for(self, source: EventSource) -> PairState:
        pair = self._pairs.get(source.id)
        if pair is None:
            raise ChannelError(
                f"source {source.name!r} has no modulator for "
                f"subscription {self.id}"
            )
        return pair

    @property
    def pairs(self) -> List[PairState]:
        return list(self._pairs.values())

    # -- back-compat single-sender views ------------------------------------

    @property
    def modulator(self) -> Modulator:
        """The default source's modulator (single-sender convenience)."""
        return self.pair_for(self.channel.default_source).modulator

    @property
    def profiling(self) -> ProfilingUnit:
        return self.pair_for(self.channel.default_source).profiling

    @property
    def demodulator(self) -> Demodulator:
        return self.pair_for(self.channel.default_source).demodulator

    @property
    def reconfig(self) -> Optional[ReconfigurationUnit]:
        return self.pair_for(self.channel.default_source).reconfig

    # -- sender side ------------------------------------------------------------

    def push(self, event: object, source: EventSource) -> None:
        """Run the sender-side share for one published event."""
        self.stats.events_published += 1
        if self.partitioned is None:
            size = measure_size(
                event, self.channel.serializer_registry, use_self_sizing=True
            )
            envelope = EventEnvelope(payload=event)
            obs = self.channel.obs
            tracer = obs.tracing if obs is not None else None
            if tracer is not None:
                trace_id = tracer.start_trace()
                if trace_id is not None:
                    envelope.trace = (trace_id, None)
            self.channel.transport.send(self._receive_event, envelope, size)
            return

        pair = self.pair_for(source)
        result = pair.modulator.process(event)
        if result.completed:
            # Handler finished entirely in the sender (no StopNode hit).
            self._deliver_result(result.value)
            return
        if result.elided:
            self.stats.events_filtered += 1
            return
        envelope = ContinuationEnvelope(
            continuation=result.message, subscription_id=self.id
        )
        size = self.partitioned.codec.size(result.message)
        self.stats.continuations_sent += 1
        obs = self.channel.obs
        if obs is not None:
            obs.metrics.counter("channel.continuations_sent").inc()
        self.channel.transport.send(
            lambda env, p=pair: self._receive_continuation(env, p),
            envelope,
            size,
        )

    # -- receiver side --------------------------------------------------------------

    def _receive_event(self, envelope: EventEnvelope) -> None:
        obs = self.channel.obs
        tracer = obs.tracing if obs is not None else None
        if tracer is not None and envelope.trace is not None:
            span = tracer.begin(
                "handle",
                trace_id=envelope.trace[0],
                parent_id=envelope.trace[1],
            )
            value = self.plain_handler(envelope.payload)
            tracer.end(span)
        else:
            value = self.plain_handler(envelope.payload)
        self._deliver_result(value)

    def _receive_continuation(
        self, envelope: ContinuationEnvelope, pair: PairState
    ) -> None:
        outcome = pair.demodulator.process(envelope.continuation)
        self._deliver_result(outcome.value)
        self._maybe_reconfigure(pair)

    def _deliver_result(self, value: object) -> None:
        self.stats.results_delivered += 1
        if self.on_result is not None:
            self.on_result(value)

    def _maybe_reconfigure(self, pair: PairState) -> None:
        """Receiver-located Reconfiguration Unit: trigger → plan update."""
        if pair.reconfig is None:
            return
        plan = pair.reconfig.consider(pair.profiling)
        if plan is None:
            return
        envelope = PlanEnvelope(subscription_id=self.id, plan=plan)
        obs = self.channel.obs
        if obs is not None and obs.tracing is not None:
            # Chain the update under the recompute's control-plane span.
            envelope.trace = pair.reconfig.last_trace_ctx
        # Plan updates are tiny: a few flags.
        size = 16.0 + 8.0 * len(plan.active)
        self.channel.feedback_transport.send(
            lambda env, p=pair: self._apply_plan_update(env, p),
            envelope,
            size,
        )

    def _apply_plan_update(
        self, envelope: PlanEnvelope, pair: PairState
    ) -> None:
        obs = self.channel.obs
        tracer = obs.tracing if obs is not None else None
        if tracer is not None and envelope.trace is not None:
            span = tracer.begin(
                "plan.apply",
                trace_id=envelope.trace[0],
                parent_id=envelope.trace[1],
                attrs={"plan": envelope.plan.name},
            )
            pair.modulator.apply_plan(envelope.plan)
            tracer.end(span)
        else:
            pair.modulator.apply_plan(envelope.plan)
        pair.plan_updates += 1
        self.stats.plan_updates += 1


class EventChannel:
    """A named channel with any number of sources and subscriptions."""

    def __init__(
        self,
        name: str = "channel",
        *,
        transport: Optional[Transport] = None,
        feedback_transport: Optional[Transport] = None,
        serializer_registry: Optional[SerializerRegistry] = None,
        obs=None,
    ) -> None:
        self.name = name
        self.transport = transport or LocalTransport()
        self.feedback_transport = feedback_transport or LocalTransport()
        self.serializer_registry = serializer_registry or SerializerRegistry()
        self.obs = obs
        if obs is not None:
            self.transport.attach_observability(obs, name="transport.data")
            self.feedback_transport.attach_observability(
                obs, name="transport.feedback"
            )
        self.subscriptions: List[Subscription] = []
        self.sources: List[EventSource] = []
        self.default_source = self.add_source("default")

    # -- sources ------------------------------------------------------------

    def add_source(self, name: Optional[str] = None) -> EventSource:
        """Attach a sender; existing subscriptions deploy modulators to it."""
        source = EventSource(self, name or f"source{len(self.sources)}")
        self.sources.append(source)
        for sub in self.subscriptions:
            if sub.partitioned is not None:
                sub._deploy(source)
        return source

    # -- subscriptions ---------------------------------------------------------

    def subscribe_partitioned(
        self,
        partitioned: PartitionedMethod,
        *,
        plan: Optional[PartitioningPlan] = None,
        trigger: Optional[FeedbackTrigger] = None,
        trigger_factory: Optional[Callable[[], FeedbackTrigger]] = None,
        sample_period: int = 1,
        on_result: Optional[ResultCallback] = None,
    ) -> Subscription:
        """Attach a Method Partitioning sink; deploys modulators to every
        source.

        ``trigger`` is the single-sender convenience (it becomes the
        default source's trigger and other pairs share its construction via
        ``trigger_factory`` when given).  With multiple sources, pass
        ``trigger_factory`` so each pair adapts independently.
        """
        if trigger is not None and trigger_factory is not None:
            raise ChannelError("pass either trigger or trigger_factory")
        factory = trigger_factory
        if trigger is not None:
            first = [trigger]

            def factory():  # first pair gets the given instance
                if first:
                    return first.pop()
                raise ChannelError(
                    "a single trigger instance cannot serve multiple "
                    "sources; pass trigger_factory instead"
                )

        sub = Subscription(
            self,
            partitioned=partitioned,
            plan=plan,
            trigger_factory=factory,
            sample_period=sample_period,
            on_result=on_result,
        )
        self.subscriptions.append(sub)
        return sub

    def subscribe_plain(
        self,
        handler: Callable[[object], object],
        *,
        on_result: Optional[ResultCallback] = None,
    ) -> Subscription:
        """Attach a conventional sink: full events ship, handler runs there."""
        sub = Subscription(self, plain_handler=handler, on_result=on_result)
        self.subscriptions.append(sub)
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        try:
            self.subscriptions.remove(sub)
        except ValueError:
            raise ChannelError(f"subscription {sub.id} not on channel") from None

    def publish(self, event: object) -> None:
        """Submit one event from the default source (single-sender use)."""
        self.default_source.publish(event)
