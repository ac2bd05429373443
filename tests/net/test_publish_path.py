"""The one publish path: a sender is the broker with one subscriber.

* a differential oracle: the sender's CONT and FEEDBACK frames are
  byte-identical to those of a reference rebuilt from the classic
  sender parts (a ``Modulator`` with a ``RemoteProfilingProxy``,
  ``codec.size`` and ``NetEnvelopeCodec``), across a PLAN switch and a
  trip → retract → re-split;
* a hot-path budget: Python-level calls per publish;
* the rules the broker now applies to every publisher: a failed send
  completes the message here, and plan switches and feedback flushes
  show in ``obs``.
"""

from __future__ import annotations

import sys

from repro.apps.sensor.data import make_reading
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.api import MethodPartitioner
from repro.core.costmodels import DataSizeCostModel
from repro.core.plan import (
    PartitioningPlan,
    receiver_heavy_plan,
    sender_heavy_plan,
)
from repro.core.runtime.feedback import RemoteProfilingProxy
from repro.errors import TransportError
from repro.ir.registry import default_registry
from repro.jecho.events import (
    ContinuationEnvelope,
    FeedbackEnvelope,
    PlanEnvelope,
)
from repro.net.broker import NetBrokerEndpoint
from repro.net.endpoint import NetSenderEndpoint
from repro.net.framing import NetEnvelopeCodec
from repro.net.resilience import BREAKER_CLOSED, BreakerConfig
from repro.obs import Observability
from repro.serialization import SerializerRegistry

from tests.net.test_resilience import FakeClock
from tests.net.test_session import FakePeer, FakeTransport

#: fixed seconds-per-cycle: recorded sender rates, and so FEEDBACK
#: bytes, follow from cycle counts, not from this host's wall clock
RATE = 2e-8
SAMPLES = 16


class RecordingTransport:
    """Encodes every CONT and FEEDBACK frame it is handed.

    Envelope sequence numbers come from a process-wide counter, so they
    are zeroed before encoding: two streams then compare on content.
    """

    inbound_handler = None

    def __init__(self, codec: NetEnvelopeCodec, fail_for=()) -> None:
        self.codec = codec
        self.fail_for = set(fail_for)
        self.frames = []

    def peer(self, host, port, *, name=None, queue_limit=None):
        peer = FakePeer()
        peer.name = name
        return peer

    def send(self, peer, envelope, size) -> None:
        if isinstance(envelope, ContinuationEnvelope):
            if peer.name in self.fail_for:
                raise TransportError("injected send failure")
        elif not isinstance(envelope, FeedbackEnvelope):
            return
        envelope.seq = 0
        kind, payload = self.codec.encode(envelope)
        self.frames.append((peer.name, kind, bytes(payload), size))


class ReferenceSender:
    """The classic two-process sender, rebuilt from its parts.

    The modulator profiles into the proxy (split edge, modulator cycles,
    local completions); the publisher adds the calibrated sender rate,
    ships the continuation sized by ``codec.size`` and flushes the proxy
    every ``feedback_period`` publishes.  While ``absorbing``, the
    continuation is completed in-process instead of shipped, which puts
    no bytes on the wire.
    """

    def __init__(self, partitioned, plan, transport, peer, period=8):
        self.partitioned = partitioned
        self.proxy = RemoteProfilingProxy(partitioned.cut)
        self.modulator = partitioned.make_modulator(
            plan=plan, profiling=self.proxy, record_rates=False
        )
        self.transport = transport
        self.peer = peer
        self.period = period
        self.published = 0
        self.absorbing = False

    def publish(self, event) -> None:
        result = self.modulator.process(event)
        if result.cycles > 0:
            self.proxy.record_sender_rate(
                result.cycles * RATE, result.cycles
            )
        self.published += 1
        if result.message is not None and not self.absorbing:
            self.transport.send(
                self.peer,
                ContinuationEnvelope(
                    continuation=result.message, subscription_id=1
                ),
                float(self.partitioned.codec.size(result.message)),
            )
        if self.published % self.period == 0 and self.proxy.pending > 0:
            payload, size = self.proxy.flush()
            self.transport.send(
                self.peer,
                FeedbackEnvelope(subscription_id=1, demod_stats=payload),
                size,
            )


def _middle_plan(cut) -> PartitioningPlan:
    """Per TargetPath, the middle one of its PSEs."""
    active = set()
    for path, edges in cut.path_pse_edges:
        order = {e: i for i, e in enumerate(path.edges)}
        ranked = sorted(edges, key=lambda e: order.get(e, 1 << 30))
        if ranked:
            active.add(ranked[len(ranked) // 2])
    return PartitioningPlan(active=frozenset(active), name="middle")


def test_sender_frames_match_the_classic_sender_byte_for_byte():
    partitioned, _ = build_partitioned_process(n_stages=8)
    ref_partitioned, _ = build_partitioned_process(n_stages=8)
    cut = partitioned.cut
    start, middle = receiver_heavy_plan(cut), _middle_plan(cut)
    assert middle.active != start.active
    codec = NetEnvelopeCodec(partitioned.serializer_registry)
    transport = RecordingTransport(codec)
    reference_wire = RecordingTransport(codec)
    clock = FakeClock()
    peer = FakePeer()
    sender = NetSenderEndpoint(
        partitioned,
        transport,
        peer,
        plan=start,
        rate_override=RATE,
        recalibrate=lambda: RATE,
        breaker_config=BreakerConfig(
            success_threshold=1, probe_backoff_base=0.5
        ),
    )
    sender.session.clock = clock
    reference = ReferenceSender(
        ref_partitioned, start, reference_wire, peer
    )
    seq = iter(range(10**6))

    def publish(n):
        for _ in range(n):
            i = next(seq)
            sender.publish(make_reading(i, SAMPLES))
            reference.publish(make_reading(i, SAMPLES))

    publish(20)
    sender._on_inbound(
        PlanEnvelope(subscription_id=1, plan=middle, version=1), peer
    )
    reference.modulator.apply_plan(middle)
    publish(20)
    with sender.lock:
        sender.session.breaker.trip("test")
    assert sender.session.retracted
    reference.modulator.apply_plan(sender_heavy_plan(cut))
    reference.absorbing = True
    publish(10)
    assert sender.absorbed == 10
    # past the probe backoff the next publish ships as the probe under
    # the retracted plan; its tick closes the breaker and re-splits
    clock.advance(1.0)
    peer.last_heard = clock.now
    reference.absorbing = False
    publish(1)
    assert sender.session.breaker.state == BREAKER_CLOSED
    assert sender.session.plan is middle
    reference.modulator.apply_plan(middle)
    publish(21)

    kinds = {kind for _, kind, _, _ in transport.frames}
    assert len(kinds) == 2  # CONT and FEEDBACK both flowed
    assert transport.frames == reference_wire.frames


# -- hot-path budget ----------------------------------------------------------------

#: Python-level calls per publish of the classic sender (its own
#: modulator, ship and session tick) on the stream below, measured on
#: CPython 3.11 before the sender became a one-subscriber broker
CLASSIC_SENDER_CALLS_PER_PUBLISH = 68.75

#: the small_flood pipeline workload's handler: a near-empty loop
ARITH_SOURCE = """
def handle(x):
    acc = 0
    i = 0
    while i < 2:
        a = i * 3 + x
        b = a % 7
        acc = acc + a - b
        i = i + 1
    emit(acc)
"""


def test_publish_costs_no_more_calls_than_the_classic_sender():
    registry = default_registry()
    registry.register_function(
        "emit", lambda value: None, receiver_only=True, pure=False
    )
    partitioned = MethodPartitioner(
        registry, SerializerRegistry()
    ).partition(ARITH_SOURCE, DataSizeCostModel())
    sender = NetSenderEndpoint(
        partitioned,
        FakeTransport(),
        FakePeer(),
        plan=receiver_heavy_plan(partitioned.cut),
    )
    events = [(i * 7919) % (1 << 20) for i in range(256)]
    for event in events[:64]:
        sender.publish(event)
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    sys.setprofile(count)
    try:
        for event in events:
            sender.publish(event)
    finally:
        sys.setprofile(None)
    assert calls[0] / len(events) <= CLASSIC_SENDER_CALLS_PER_PUBLISH


# -- rules every publisher shares -----------------------------------------------------


def _two_subscriber_broker(transport, **kwargs):
    partitioned, sink = build_partitioned_process(n_stages=6)
    broker = NetBrokerEndpoint(
        partitioned,
        transport,
        plan=receiver_heavy_plan(partitioned.cut),
        rate_override=RATE,
        recalibrate=lambda: RATE,
        **kwargs,
    )
    subs = [broker.subscribe("h", port, name=f"p{port}") for port in (1, 2)]
    return broker, subs, sink


def test_failed_send_completes_here_and_the_next_peer_still_ships():
    partitioned, _ = build_partitioned_process(n_stages=6)
    transport = RecordingTransport(
        NetEnvelopeCodec(partitioned.serializer_registry), fail_for={"p1"}
    )
    broker, (first, second), sink = _two_subscriber_broker(transport)
    broker.publish(make_reading(0, SAMPLES))
    assert first.shipped == 0
    assert first.completed_locally == first.absorbed == 1
    assert len(sink.results) == 1  # peer 1's copy ran to the end here
    assert first.breaker.failure_streak == 1
    assert second.shipped == 1
    assert [name for name, *_ in transport.frames] == ["p2"]


def test_plan_switches_and_feedback_flushes_show_in_obs():
    partitioned, _ = build_partitioned_process(n_stages=6)
    obs = Observability()
    transport = RecordingTransport(
        NetEnvelopeCodec(partitioned.serializer_registry)
    )
    broker, (first, _second), _sink = _two_subscriber_broker(
        transport, obs=obs, feedback_period=1
    )
    broker._on_inbound(
        PlanEnvelope(
            subscription_id=1,
            plan=sender_heavy_plan(broker.partitioned.cut),
            version=1,
        ),
        first.peer,
    )
    broker.publish(make_reading(0, SAMPLES))
    assert obs.flight.count("SplitSwitched") == 1
    assert obs.metrics.counter("feedback.flushes").value >= 1
    assert obs.metrics.counter("feedback.bytes").value > 0


def test_retracted_peer_beside_a_healthy_one_loses_nothing():
    """The healthy peer keeps the shared run splitting early, so the
    retracted peer's continuation, resumed under the sender-heavy plan,
    reaches the forced terminal edge: it must still run to the end here
    rather than be dropped at the open breaker."""
    partitioned, _ = build_partitioned_process(n_stages=6)
    transport = RecordingTransport(
        NetEnvelopeCodec(partitioned.serializer_registry)
    )
    broker, (tripped, healthy), sink = _two_subscriber_broker(transport)
    with broker.lock:
        tripped.breaker.trip("test")
    for i in range(4):
        broker.publish(make_reading(i, SAMPLES))
    assert tripped.completed_locally == tripped.absorbed == 4
    assert tripped.ships_suppressed == 0
    assert len(sink.results) == 4
    assert healthy.shipped == 4
