"""Third-party modulator placement: the Active-Broker extension.

The paper's section 7: "Future work conducted in our group is integrating
Third Party Derivation [28] with Method Partitioning, which allows a
modulator to operate inside a 'third party'."  This module implements that
extension over the event-channel substrate:

* the *sender* ships raw events over an **uplink** to a broker;
* the **broker** hosts the receiver's modulator (and, being a third party
  with cycles to spare, the Reconfiguration Unit — paper section 2.5
  notes third-party placement is "appropriate when repartitioning requires
  large amounts of computation");
* the broker's modulator filters/transforms and ships continuations over
  the **downlink** to the receiver's demodulator.

This wins when the sender is too weak to run the modulator itself (a bare
sensor) while the expensive network segment is the downlink: the broker
then plays the modulator's traffic-reduction role without burdening the
device.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.partitioned import PartitionedMethod
from repro.core.plan import PartitioningPlan
from repro.core.runtime.triggers import FeedbackTrigger
from repro.errors import ChannelError
from repro.jecho.events import ContinuationEnvelope, EventEnvelope
from repro.jecho.transport import LocalTransport, Transport
from repro.serialization import SerializerRegistry, measure_size

_sub_ids = itertools.count(1000)


@dataclass
class BrokerStats:
    events_published: int = 0
    events_relayed: int = 0
    events_filtered_at_broker: int = 0
    continuations_sent: int = 0
    results_delivered: int = 0
    plan_updates: int = 0


class BrokerSubscription:
    """One receiver attached through the broker."""

    def __init__(
        self,
        channel: "BrokerChannel",
        partitioned: PartitionedMethod,
        *,
        plan: Optional[PartitioningPlan] = None,
        trigger: Optional[FeedbackTrigger] = None,
        sample_period: int = 1,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> None:
        self.id = next(_sub_ids)
        self.channel = channel
        self.partitioned = partitioned
        self.on_result = on_result
        self.stats = BrokerStats()
        obs = channel.obs
        if obs is not None:
            partitioned.interpreter.attach_observability(obs)
        self.profiling = partitioned.make_profiling_unit(
            sample_period=sample_period, obs=obs
        )
        # The modulator is DEPLOYED AT THE BROKER, not the sender.
        self.modulator = partitioned.make_modulator(
            plan=plan, profiling=self.profiling, obs=obs
        )
        self.demodulator = partitioned.make_demodulator(
            profiling=self.profiling, obs=obs
        )
        # Reconfiguration Unit co-located with the broker's modulator.
        self.reconfig = (
            partitioned.make_reconfiguration_unit(
                trigger=trigger, location="third-party", obs=obs
            )
            if trigger is not None
            else None
        )

    # -- broker side -------------------------------------------------------

    def _broker_receive(self, envelope: EventEnvelope) -> None:
        """The broker runs the modulator on the relayed raw event."""
        self.stats.events_relayed += 1
        # Continue the uplink's trace through the relay hop: the broker's
        # modulate span parents under the uplink ship span.
        result = self.modulator.process(
            envelope.payload, trace_ctx=envelope.trace
        )
        if result.completed:
            self._deliver(result.value)
            self._maybe_reconfigure()
            return
        if result.message is None:
            self.stats.events_filtered_at_broker += 1
            self._maybe_reconfigure()
            return
        out = ContinuationEnvelope(
            continuation=result.message, subscription_id=self.id
        )
        size = self.partitioned.codec.size(result.message)
        self.stats.continuations_sent += 1
        obs = self.channel.obs
        if obs is not None:
            obs.metrics.counter("broker.continuations_sent").inc()
        self.channel.downlink.send(self._receiver_receive, out, size)
        self._maybe_reconfigure()

    def _maybe_reconfigure(self) -> None:
        if self.reconfig is None:
            return
        plan = self.reconfig.consider(self.profiling)
        if plan is not None:
            # Co-located with the modulator: direct flag flips.
            self.modulator.apply_plan(plan)
            self.stats.plan_updates += 1

    # -- receiver side -------------------------------------------------------

    def _receiver_receive(self, envelope: ContinuationEnvelope) -> None:
        outcome = self.demodulator.process(envelope.continuation)
        self._deliver(outcome.value)

    def _deliver(self, value: object) -> None:
        self.stats.results_delivered += 1
        if self.on_result is not None:
            self.on_result(value)


class BrokerChannel:
    """An event channel whose modulators run inside a broker."""

    def __init__(
        self,
        name: str = "broker-channel",
        *,
        uplink: Optional[Transport] = None,
        downlink: Optional[Transport] = None,
        serializer_registry: Optional[SerializerRegistry] = None,
        obs=None,
    ) -> None:
        self.name = name
        self.uplink = uplink or LocalTransport()
        self.downlink = downlink or LocalTransport()
        self.serializer_registry = serializer_registry or SerializerRegistry()
        self.obs = obs
        if obs is not None:
            self.uplink.attach_observability(obs, name="transport.uplink")
            self.downlink.attach_observability(obs, name="transport.downlink")
        self.subscriptions: List[BrokerSubscription] = []

    def subscribe_partitioned(
        self,
        partitioned: PartitionedMethod,
        *,
        plan: Optional[PartitioningPlan] = None,
        trigger: Optional[FeedbackTrigger] = None,
        sample_period: int = 1,
        on_result: Optional[Callable[[object], None]] = None,
    ) -> BrokerSubscription:
        sub = BrokerSubscription(
            self,
            partitioned,
            plan=plan,
            trigger=trigger,
            sample_period=sample_period,
            on_result=on_result,
        )
        self.subscriptions.append(sub)
        return sub

    def unsubscribe(self, sub: BrokerSubscription) -> None:
        try:
            self.subscriptions.remove(sub)
        except ValueError:
            raise ChannelError(
                f"subscription {sub.id} not on channel"
            ) from None

    def publish(self, event: object) -> None:
        """The sender relays the raw event to the broker — no handler code
        runs on the sender at all."""
        tracer = self.obs.tracing if self.obs is not None else None
        for sub in list(self.subscriptions):
            sub.stats.events_published += 1
            size = measure_size(
                event, self.serializer_registry, use_self_sizing=True
            )
            envelope = EventEnvelope(event)
            if tracer is not None:
                trace_id = tracer.start_trace()
                if trace_id is not None:
                    envelope.trace = (trace_id, None)
            self.uplink.send(sub._broker_receive, envelope, size)
