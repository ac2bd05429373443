"""The one publish path: a sender is the broker with one subscriber.

* a differential oracle: the sender's CONT and FEEDBACK frames are
  byte-identical to those of a reference rebuilt from the classic
  sender parts (a ``Modulator`` with a ``RemoteProfilingProxy``,
  ``codec.size`` and ``NetEnvelopeCodec``), across a PLAN switch and a
  trip → retract → re-split;
* a hot-path budget: Python-level calls per publish, and what an attached
  ``obs`` may add to it; at fan-out, one fork per distinct deeper split;
* the rules the broker now applies to every publisher: a failed send
  completes the message here, and plan switches and feedback flushes
  show in ``obs``.
"""

from __future__ import annotations

import gc
import sys

import pytest

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
from repro.obs.health import HealthConfig
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
    no bytes on the wire and profiles as a local completion, not as a
    shipped modulator total.
    """

    def __init__(
        self, partitioned, plan, transport, peer, period=8, subscription_id=1
    ):
        self.partitioned = partitioned
        self.proxy = RemoteProfilingProxy(partitioned.cut)
        self.modulator = partitioned.make_modulator(
            plan=plan, profiling=self.proxy, record_rates=False
        )
        self.transport = transport
        self.peer = peer
        self.period = period
        self.subscription_id = subscription_id
        self.published = 0
        self.absorbing = False

    def publish(self, event) -> None:
        result = self.modulator.process(event)
        if result.cycles > 0:
            self.proxy.record_sender_rate(
                result.cycles * RATE, result.cycles
            )
        self.published += 1
        if result.message is not None and self.absorbing:
            # never reaches the peer: no modulator total to pair there
            self.proxy._mod_totals.pop()
            self.proxy.record_local_completion()
        elif result.message is not None:
            self.transport.send(
                self.peer,
                ContinuationEnvelope(
                    continuation=result.message,
                    subscription_id=self.subscription_id,
                ),
                float(self.partitioned.codec.size(result.message)),
            )
        if self.published % self.period == 0 and self.proxy.pending > 0:
            payload, size = self.proxy.flush()
            self.transport.send(
                self.peer,
                FeedbackEnvelope(
                    subscription_id=self.subscription_id,
                    demod_stats=payload,
                ),
                size,
            )


def _path_plan(cut, position) -> PartitioningPlan:
    """Per TargetPath, its middle or its last PSE; "first" is the
    receiver-heavy plan."""
    if position == "first":
        return receiver_heavy_plan(cut)
    active = set()
    for path, edges in cut.path_pse_edges:
        order = {e: i for i, e in enumerate(path.edges)}
        ranked = sorted(edges, key=lambda e: order.get(e, 1 << 30))
        if ranked:
            pick = len(ranked) // 2 if position == "middle" else -1
            active.add(ranked[pick])
    return PartitioningPlan(active=frozenset(active), name=position)


def test_sender_frames_match_the_classic_sender_byte_for_byte():
    partitioned, _ = build_partitioned_process(n_stages=8)
    ref_partitioned, _ = build_partitioned_process(n_stages=8)
    cut = partitioned.cut
    start, middle = receiver_heavy_plan(cut), _path_plan(cut, "middle")
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


#: split positions on every path, shallowest first
DEPTHS = ("first", "middle", "last")

#: the pipeline benchmark's fan-out: 20 sensor stages, 64 samples, two
#: peers on the middle PSE of each path and two on the last
FANOUT4_MIXED = ("middle", "middle", "last", "last")


@pytest.mark.parametrize(
    "n_stages, positions",
    [
        pytest.param(6, ("middle", "first"), id="6"),
        pytest.param(8, ("middle", "first"), id="8"),
        pytest.param(20, FANOUT4_MIXED, id="fanout4_mixed"),
    ],
)
def test_each_forked_peer_sees_the_frames_of_a_dedicated_sender(
    n_stages, positions
):
    """A fork's feedback is the execution a dedicated modulator would
    have seen: beside the shallow peers that ship the shared run, the
    deep peers fork every message — once for all of them, since they
    share a plan — and each peer's CONT and FEEDBACK frames equal those
    of a reference on its plan alone."""
    partitioned, _ = build_partitioned_process(n_stages=n_stages)
    cut = partitioned.cut
    deep = max(positions, key=DEPTHS.index)
    codec = NetEnvelopeCodec(partitioned.serializer_registry)
    transport = RecordingTransport(codec)
    broker = NetBrokerEndpoint(
        partitioned, transport, rate_override=RATE, recalibrate=lambda: RATE
    )
    references = {}
    subs = {}
    for subscription_id, position in enumerate(positions, 1):
        name = f"{position}{subscription_id}"
        plan = _path_plan(cut, position)
        subs[name] = broker.subscribe(
            "h", subscription_id, name=name, plan=plan
        )
        peer = FakePeer()
        peer.name = name
        references[name] = ReferenceSender(
            build_partitioned_process(n_stages=n_stages)[0],
            plan,
            RecordingTransport(codec),
            peer,
            subscription_id=subscription_id,
        )
    messages = 40
    for i in range(messages):
        broker.publish(make_reading(i, SAMPLES))
        for reference in references.values():
            reference.publish(make_reading(i, SAMPLES))
    assert broker.forks == messages
    for name, reference in references.items():
        frames = [frame for frame in transport.frames if frame[0] == name]
        assert len({kind for _, kind, _, _ in frames}) == 2
        assert frames == reference.transport.frames
        forked = name.startswith(deep)
        assert subs[name].forks == (messages if forked else 0)
        assert subs[name].shared_ships == (0 if forked else messages)


# -- hot-path budget ----------------------------------------------------------------

#: Python-level calls per publish of the classic sender (its own
#: modulator, ship and session tick) on the stream below, measured on
#: CPython 3.11 after generated code became the default backend
CLASSIC_SENDER_CALLS_PER_PUBLISH = 65.75

#: Python-level calls per ``Demodulator.process`` of the handler below:
#: generated code runs the whole loop in one frame, so the count does
#: not grow with ``N_ITERS`` (15 on CPython 3.11; the retired closure
#: backend made 73 at 2 iterations and 3 033 at 150)
DEMODULATE_CALLS = 16

#: the pipeline workloads' arithmetic handler: small_flood runs it with
#: N_ITERS = 2 (a near-empty loop), dispatch_bound with 150
ARITH_SOURCE = """
def handle(x):
    acc = 0
    i = 0
    while i < N_ITERS:
        a = i * 3 + x
        b = a % 7
        acc = acc + a - b
        i = i + 1
    emit(acc)
"""

#: 64 warm-up events, then the 256 that are counted
EVENTS = [(i * 7919) % (1 << 20) for i in range(256)]
WARM_UP = EVENTS[:64]


#: Python-level calls an attached ``obs`` may add per publish: the
#: modulate and ship phase timers (2.0 ``Histogram.observe``) and the
#: profiling proxy's feedback-flush counters (0.5 ``Counter.inc``,
#: 0.125 ``FeedbackSummary.records``) measure 2.625 on CPython 3.11
WATCHING_CALLS_PER_PUBLISH = 3.0


def _arith(n_iters=2):
    registry = default_registry()
    registry.register_function(
        "emit", lambda value: None, receiver_only=True, pure=False
    )
    return MethodPartitioner(registry, SerializerRegistry()).partition(
        ARITH_SOURCE, DataSizeCostModel(), constants={"N_ITERS": n_iters}
    )


def _calls_per_item(process, items) -> float:
    """Python-level calls per ``process(item)`` over *items*.

    The cyclic collector is off while counting: a collection runs every
    ``gc.callbacks`` entry (Hypothesis installs one once its tests have
    run), calls that belong to no item.
    """
    calls = [0]

    def count(frame, event, arg):
        if event == "call":
            calls[0] += 1

    gc.collect()
    gc.disable()
    sys.setprofile(count)
    try:
        for item in items:
            process(item)
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls[0] / len(items)


def _calls_per_publish(obs=None) -> float:
    partitioned = _arith()
    sender = NetSenderEndpoint(
        partitioned,
        FakeTransport(),
        FakePeer(),
        plan=receiver_heavy_plan(partitioned.cut),
        obs=obs,
        # The health machine re-evaluates once its state is min_dwell
        # (0.1 s) old, so on a slow run the count would follow the wall
        # clock; an hour's dwell keeps it a count of the publish path.
        health_config=HealthConfig(min_dwell=3600.0),
    )
    for event in WARM_UP:
        sender.publish(event)
    return _calls_per_item(sender.publish, EVENTS)


def test_publish_costs_no_more_calls_than_the_classic_sender():
    assert _calls_per_publish() <= CLASSIC_SENDER_CALLS_PER_PUBLISH


def test_watching_the_publish_path_costs_few_calls():
    """Counts are read when dumped, so an attached ``obs`` adds only the
    distributions it times, not a shadow instrument per count."""
    watched = _calls_per_publish(Observability())
    assert watched <= _calls_per_publish() + WATCHING_CALLS_PER_PUBLISH


def _fanout_broker(positions, n_stages=20):
    """A broker on the sensor chain with one subscriber per position,
    shipping through an encoding transport."""
    partitioned, _ = build_partitioned_process(n_stages=n_stages)
    broker = NetBrokerEndpoint(
        partitioned,
        RecordingTransport(NetEnvelopeCodec(partitioned.serializer_registry)),
        rate_override=RATE,
        recalibrate=lambda: RATE,
        health_config=HealthConfig(min_dwell=3600.0),
    )
    for port, position in enumerate(positions, 1):
        broker.subscribe(
            "h", port, plan=_path_plan(partitioned.cut, position)
        )
    return broker


#: Python-level calls per publish at ``fanout4_mixed``'s shape (20
#: stages, 64 samples, four subscribers): 1 126.75 on CPython 3.11 while
#: every deep subscriber forked on its own; one fork per distinct deeper
#: split and one size per distinct message bring it to 909.75, and
#: packing FEEDBACK bodies by their schema, not through the recursive
#: serializer, to 803.5; the flat continuation body and a feedback flush
#: that visits only the PSEs recorded since the last bring it to 754.25
FANOUT4_CALLS_PER_PUBLISH = 780


def test_fanout_publish_stays_within_its_call_budget():
    broker = _fanout_broker(FANOUT4_MIXED)
    readings = [make_reading(i, 64) for i in range(48)]
    for reading in readings[:16]:
        broker.publish(reading)
    assert (
        _calls_per_item(broker.publish, readings[16:])
        <= FANOUT4_CALLS_PER_PUBLISH
    )


@pytest.mark.parametrize(
    "positions, groups",
    [
        pytest.param(("first",), 0, id="one-peer"),
        pytest.param(("middle", "middle"), 0, id="one-plan"),
        pytest.param(FANOUT4_MIXED, 1, id="fanout4_mixed"),
        pytest.param(
            ("first", "last", "middle", "last", "middle"), 2, id="two-deeper"
        ),
    ],
)
def test_forks_per_publish_count_distinct_deeper_splits(positions, groups):
    broker = _fanout_broker(positions, n_stages=8)
    for i in range(8):
        broker.publish(make_reading(i, SAMPLES))
    assert broker.forks == 8 * groups
    # every subscriber deeper than the shared split still counts its own
    shallowest = min(positions, key=DEPTHS.index)
    deep = sum(position != shallowest for position in positions)
    assert sum(sub.forks for sub in broker.subscribers) == 8 * deep


@pytest.mark.parametrize("n_iters", [2, 150])
def test_demodulate_calls_do_not_grow_with_the_loop(n_iters):
    partitioned = _arith(n_iters)
    modulator = partitioned.make_modulator(
        plan=receiver_heavy_plan(partitioned.cut)
    )
    demodulator = partitioned.make_demodulator()
    warm_up, counted = (
        [modulator.process(event).message for event in events]
        for events in (WARM_UP, EVENTS)
    )
    for message in warm_up:
        demodulator.process(message)
    assert _calls_per_item(demodulator.process, counted) <= DEMODULATE_CALLS


#: ``small_flood``'s CONT payload at its PSE: 112 B while the frame named
#: the handler, the PSE and its edge and keyed the values by name; 59 B
#: as the flat body ``(sub, seq, sent_at, code, acc, x)``
SMALL_FLOOD_CONT_BYTES = 64

#: Python-level calls per ``NetEnvelopeCodec.decode`` of that frame, the
#: counting helper's own call included: 20 on CPython 3.11 for the named
#: form, 12 for the flat body
CONT_DECODE_CALLS = 12


def _small_flood_frames():
    """``small_flood``'s handler and plan, and its CONT frames for the
    counted events."""
    partitioned = _arith()
    modulator = partitioned.make_modulator(
        plan=receiver_heavy_plan(partitioned.cut)
    )
    codec = NetEnvelopeCodec(partitioned.serializer_registry)
    frames = [
        codec.encode(
            ContinuationEnvelope(modulator.process(event).message, 1),
            sent_at=1.7e9,
        )
        for event in EVENTS
    ]
    return partitioned, frames


def test_small_flood_cont_payload_stays_within_its_byte_budget():
    _partitioned, frames = _small_flood_frames()
    assert max(len(payload) for _, payload in frames) <= SMALL_FLOOD_CONT_BYTES


def test_cont_decode_stays_within_its_call_budget():
    partitioned, frames = _small_flood_frames()
    codec = NetEnvelopeCodec(partitioned.serializer_registry).bind(
        partitioned.schema
    )
    for frame in frames[:64]:
        codec.decode(*frame)
    calls = _calls_per_item(lambda frame: codec.decode(*frame), frames[64:])
    assert calls <= CONT_DECODE_CALLS


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


def test_an_absorbed_continuation_is_profiled_as_a_local_completion():
    """A continuation completed here never reaches its peer's
    demodulator, so it must not leave a modulator total for the peer's
    FIFO to pair with a later message's demodulator total."""
    partitioned, _ = build_partitioned_process(n_stages=6)
    transport = RecordingTransport(
        NetEnvelopeCodec(partitioned.serializer_registry), fail_for={"p1"}
    )
    broker, (first, second), _sink = _two_subscriber_broker(
        transport, feedback_period=64
    )
    for i in range(20):
        broker.publish(make_reading(i, SAMPLES))
    assert first.shipped == 0
    assert first.absorbed == 20
    summary, _size = first.proxy.flush()
    assert summary.mod_totals == []
    assert summary.local_completions == 20
    shipped, _size = second.proxy.flush()
    assert len(shipped.mod_totals) == second.shipped == 20
    assert shipped.local_completions == 0


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
