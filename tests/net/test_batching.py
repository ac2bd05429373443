"""Wire batching: run formation, ordering, reconnects, dedupe interop.

The batched send path is driven deterministically: a helper enqueues a
group of frames inside a single event-loop callback, so the write loop
wakes to the whole backlog at once and the run/batch structure is a
function of the queue contents and flush thresholds, not of timing.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.apps.sensor.data import make_reading
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.plan import PartitioningPlan, receiver_heavy_plan
from repro.core.runtime.triggers import RateTrigger
from repro.jecho.events import (
    ContinuationEnvelope,
    EventEnvelope,
    PlanEnvelope,
)
from repro.net.endpoint import NetReceiverEndpoint
from repro.net.framing import (
    KIND_EVENT,
    KIND_HELLO,
    FrameDecoder,
    NetEnvelopeCodec,
)
from repro.net.live import _calibrate
from repro.net.tcp import FrameServer, TcpTransport

SAMPLES = 64

IDLE = RateTrigger(period=10**9)


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class ServerHarness:
    """A FrameServer on its own event-loop thread, recording envelopes."""

    def __init__(self, **kwargs):
        self.server = FrameServer(**kwargs)
        self.received = []
        self.server.handler = (
            lambda envelope, sent_at, conn: self.received.append(envelope)
        )
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        self.host, self.port = asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(5.0)

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(5.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5.0)
        self.loop.close()


@pytest.fixture
def harness():
    server = ServerHarness()
    yield server
    server.stop()


@pytest.fixture
def transport():
    created = []

    def factory(**kwargs):
        kwargs.setdefault("backoff_base", 0.01)
        kwargs.setdefault("backoff_cap", 0.1)
        instance = TcpTransport(**kwargs).start()
        created.append(instance)
        return instance

    yield factory
    for instance in created:
        instance.close()


def _connected_peer(instance, harness):
    """A peer whose connection is open."""
    peer = instance.peer(harness.host, harness.port)
    assert _wait_until(lambda: peer.connected)
    return peer


def _enqueue_group(instance, peer, envelopes):
    """Queue *envelopes* inside one loop callback.

    The write loop only wakes after the callback returns, so it sees
    the whole group as one backlog — batch formation is deterministic.
    """
    done = threading.Event()

    def _do():
        for envelope in envelopes:
            peer._enqueue(
                instance.codec.encode_frame_parts(
                    envelope, sent_at=time.time()
                )
            )
        done.set()

    instance._require_loop().call_soon_threadsafe(_do)
    assert done.wait(5.0)


# -- run formation --------------------------------------------------------------


def test_backlog_forms_batches_and_preserves_order(transport, harness):
    instance = transport()
    peer = _connected_peer(instance, harness)
    events = [EventEnvelope(payload={"i": i}, seq=i) for i in range(50)]
    _enqueue_group(instance, peer, events)
    assert instance.drain(5.0)
    assert _wait_until(lambda: len(harness.received) == 50)
    assert [e.seq for e in harness.received] == list(range(50))
    # 50 batchable frames against flush_max_count=32: two batches
    assert peer.batches_sent == 2
    assert peer.batched_frames_sent == 50
    assert peer.frames_sent >= 51  # hello + 50 logical frames
    # the wire carried fewer bytes than 50 plain frames would have
    # (one 8-byte header per batch, 5-byte sub-headers inside)
    assert peer.frame_bytes_sent > 0


def test_flush_max_count_caps_run_length(transport, harness):
    instance = transport(flush_max_count=8)
    peer = _connected_peer(instance, harness)
    events = [EventEnvelope(payload=i, seq=i) for i in range(20)]
    _enqueue_group(instance, peer, events)
    assert instance.drain(5.0)
    assert _wait_until(lambda: len(harness.received) == 20)
    assert peer.batches_sent == 3  # 8 + 8 + 4
    assert peer.batched_frames_sent == 20


def test_flush_max_bytes_caps_run_size(transport, harness):
    # Payloads of ~1KiB against a 2.5KiB budget: two per batch.
    instance = transport(flush_max_bytes=2560)
    peer = _connected_peer(instance, harness)
    events = [
        EventEnvelope(payload="x" * 1024, seq=i) for i in range(6)
    ]
    _enqueue_group(instance, peer, events)
    assert instance.drain(5.0)
    assert _wait_until(lambda: len(harness.received) == 6)
    assert peer.batches_sent == 3
    assert peer.batched_frames_sent == 6


def test_control_frame_splits_the_run(transport, harness):
    """A plan frame in the middle of a backlog is never batched and
    never reordered: the run stops in front of it, the plan ships as
    its own frame, and the tail forms a fresh batch behind it."""
    instance = transport()
    peer = _connected_peer(instance, harness)
    plan = PartitioningPlan(active=frozenset({(1, 2)}), name="mid")
    group = (
        [EventEnvelope(payload=i, seq=i) for i in range(10)]
        + [PlanEnvelope(subscription_id=1, plan=plan, seq=99, version=1)]
        + [EventEnvelope(payload=i, seq=i) for i in range(10, 20)]
    )
    _enqueue_group(instance, peer, group)
    assert instance.drain(5.0)
    assert _wait_until(lambda: len(harness.received) == 21)
    kinds = [type(e).__name__ for e in harness.received]
    assert kinds[10] == "PlanEnvelope"  # exactly where it was queued
    assert peer.batches_sent == 2  # the runs on either side
    assert peer.batched_frames_sent == 20


# -- nothing is negotiated ------------------------------------------------------


def test_silent_server_still_receives_batches(transport):
    """Batching waits for no reply: a raw-socket server that never sends
    a byte back still receives a backlog as one BATCH frame."""
    listener = socket.socket()
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    listener.settimeout(5.0)
    try:
        instance = transport()
        peer = instance.peer(*listener.getsockname())
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5.0)
            _enqueue_group(
                instance,
                peer,
                [EventEnvelope(payload=i, seq=i) for i in range(10)],
            )
            decoder = FrameDecoder()
            frames = []
            while len(frames) < 11:
                data = conn.recv(65536)
                assert data, "the peer closed before the backlog arrived"
                frames.extend(decoder.feed(data))
        assert [kind for kind, _ in frames] == [KIND_HELLO] + [KIND_EVENT] * 10
        assert decoder.batches_decoded == 1
        assert _wait_until(lambda: peer.batches_sent == 1)
        assert peer.batched_frames_sent == 10
    finally:
        listener.close()


def test_batching_master_switch(transport, harness):
    """``batching=False`` keeps the wire plain."""
    instance = transport(batching=False)
    peer = _connected_peer(instance, harness)
    events = [EventEnvelope(payload=i, seq=i) for i in range(20)]
    _enqueue_group(instance, peer, events)
    assert instance.drain(5.0)
    assert _wait_until(lambda: len(harness.received) == 20)
    assert peer.batches_sent == 0


def test_batching_resumes_after_reconnect(transport, harness):
    instance = transport()
    peer = _connected_peer(instance, harness)
    # ``peer.connected`` is the client's view: the server may not have
    # registered the connection yet, and aborting an empty list would
    # leave nothing to reconnect from.
    assert _wait_until(lambda: harness.server.connections)
    harness.loop.call_soon_threadsafe(
        lambda: [c.abort() for c in list(harness.server.connections)]
    )
    assert _wait_until(lambda: peer.reconnects >= 1 and peer.connected)
    _enqueue_group(
        instance, peer, [EventEnvelope(payload=i, seq=i) for i in range(5)]
    )
    assert instance.drain(5.0)
    assert _wait_until(
        lambda: len([e for e in harness.received if e.seq < 5]) == 5
    )
    assert peer.batches_sent == 1
    assert peer.batched_frames_sent == 5


# -- latency guard --------------------------------------------------------------


def test_lone_frame_with_flush_interval_still_ships(transport, harness):
    """``flush_interval`` lingers hoping for company, but a lone frame
    must still leave once the window expires."""
    instance = transport(flush_interval=0.02)
    peer = _connected_peer(instance, harness)
    instance.send(peer, EventEnvelope(payload="solo", seq=1), 8.0)
    assert _wait_until(lambda: len(harness.received) == 1, timeout=5.0)
    assert harness.received[0].payload == "solo"


def test_heartbeats_flow_alongside_batches(transport, harness):
    instance = transport(heartbeat_interval=0.05)
    peer = _connected_peer(instance, harness)
    for burst in range(3):
        _enqueue_group(
            instance,
            peer,
            [EventEnvelope(payload=i, seq=burst * 10 + i) for i in range(10)],
        )
        time.sleep(0.06)
    assert instance.drain(5.0)
    assert _wait_until(lambda: peer.heartbeats_seen >= 1)
    assert _wait_until(lambda: len(harness.received) == 30)


# -- receiver dedupe across batch boundaries ------------------------------------


class ReceiverHarness:
    """A NetReceiverEndpoint served from a dedicated event-loop thread."""

    def __init__(self, **kwargs):
        self.partitioned, self.sink = build_partitioned_process(n_stages=20)
        self.plan = receiver_heavy_plan(self.partitioned.cut)
        rate = _calibrate(self.partitioned, self.sink, SAMPLES)
        self.endpoint = NetReceiverEndpoint(
            self.partitioned,
            plan=self.plan,
            rate_override=rate,
            codec=NetEnvelopeCodec(self.partitioned.serializer_registry),
            **kwargs,
        )
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        self.host, self.port = asyncio.run_coroutine_threadsafe(
            self.endpoint.start(), self.loop
        ).result(5.0)

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.endpoint.stop(), self.loop
        ).result(5.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5.0)
        self.loop.close()


def test_dedupe_high_water_spans_batch_boundaries():
    """A whole batch retransmits after a connection loss (at-least-once),
    so the receiver sees overlapping sequence runs arriving in separate
    batches.  The per-source high-water mark must absorb the overlap:
    every continuation demodulated exactly once."""
    receiver_side = ReceiverHarness(trigger=IDLE)
    partitioned, _sink = build_partitioned_process(n_stages=20)
    plan = receiver_heavy_plan(partitioned.cut)
    modulator = partitioned.make_modulator(plan=plan)
    messages = []
    i = 0
    while len(messages) < 9:
        result = modulator.process(make_reading(i, SAMPLES))
        if result.message is not None:
            messages.append(result.message)
        i += 1
    instance = TcpTransport(
        NetEnvelopeCodec(partitioned.serializer_registry),
        backoff_base=0.01,
        backoff_cap=0.1,
    ).start()
    try:
        peer = instance.peer(receiver_side.host, receiver_side.port)
        assert _wait_until(lambda: peer.connected)

        def _batch_of(seqs):
            _enqueue_group(
                instance,
                peer,
                [
                    ContinuationEnvelope(
                        continuation=messages[s],
                        subscription_id=1,
                        seq=s,
                    )
                    for s in seqs
                ],
            )
            assert instance.drain(5.0)

        _batch_of(range(0, 6))  # one batch: seqs 0..5
        _batch_of(range(3, 9))  # "retransmit" overlap: seqs 3..8
        assert peer.batches_sent == 2
        receiver = receiver_side.endpoint
        assert _wait_until(
            lambda: receiver.demodulated + receiver.duplicates_skipped >= 12
        )
        assert receiver.demodulated == 9  # seqs 0..8, each once
        assert receiver.duplicates_skipped == 3  # the 3..5 overlap
        assert len(receiver_side.sink.results) == 9
    finally:
        instance.close()
        receiver_side.stop()
