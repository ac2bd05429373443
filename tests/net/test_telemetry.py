"""TELEMETRY frames: codec, push targets, end-to-end push."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.apps.sensor.pipeline import build_partitioned_process
from repro.errors import ProtocolError
from repro.net.endpoint import NetReceiverEndpoint
from repro.net.framing import (
    BATCHABLE_KINDS,
    KIND_TELEMETRY,
    Hello,
    NetEnvelopeCodec,
    Telemetry,
)
from repro.net.tcp import TcpTransport
from repro.obs import Observability
from repro.obs.flight import FlightRecorder


def _wait_until(predicate, timeout=10.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# -- codec ---------------------------------------------------------------------


def test_telemetry_codec_round_trip():
    codec = NetEnvelopeCodec()
    payload = {
        "counters": {"demodulated": 42, "duplicates_skipped": 1},
        "health": "healthy",
        "drift_events": 2,
    }
    envelope = Telemetry(
        source="receiver1",
        instance="abc123",
        seq=7,
        sent_at=1234.5,
        payload=payload,
    )
    kind, encoded = codec.encode(envelope)
    assert kind == KIND_TELEMETRY
    decoded, sent_at = codec.decode(kind, encoded)
    assert isinstance(decoded, Telemetry)
    assert decoded.source == "receiver1"
    assert decoded.instance == "abc123"
    assert decoded.seq == 7
    assert decoded.payload == payload
    assert sent_at == 1234.5


def test_telemetry_payload_must_be_mapping():
    codec = NetEnvelopeCodec()
    # Bypass the keyword constructor's intent: a non-dict payload
    # encodes, but the decoder must reject it.
    envelope = Telemetry(source="r", seq=1, sent_at=1.0)
    envelope.payload = ["not", "a", "mapping"]
    kind, encoded = codec.encode(envelope)
    with pytest.raises(ProtocolError, match="mapping"):
        codec.decode(kind, encoded)


def test_telemetry_is_control_adjacent():
    # Staleness is itself a health signal: telemetry must never wait
    # behind an accumulating data batch.
    assert KIND_TELEMETRY not in BATCHABLE_KINDS


# -- push targets (stubbed connections) ----------------------------------------


class _StubConn:
    def __init__(self, closed=False):
        self.hello = Hello(role="sender", name="stub")
        self.closed = closed
        self.sent = []

    async def send(self, envelope):
        self.sent.append(envelope)


@pytest.fixture()
def receiver_endpoint():
    partitioned, _sink = build_partitioned_process(n_stages=4)
    endpoint = NetReceiverEndpoint(
        partitioned,
        codec=NetEnvelopeCodec(partitioned.serializer_registry),
    )
    return endpoint


def test_push_goes_to_every_open_connection_that_said_hello(
    receiver_endpoint,
):
    endpoint = receiver_endpoint
    first = _StubConn()
    second = _StubConn()
    handshaking = _StubConn()
    handshaking.hello = None  # no hello yet
    dead = _StubConn(closed=True)
    endpoint.server.connections.extend([first, second, handshaking, dead])

    sent = asyncio.run(endpoint.push_telemetry())
    assert sent == 2
    assert len(first.sent) == len(second.sent) == 1
    assert handshaking.sent == []
    assert dead.sent == []

    envelope = first.sent[0]
    assert isinstance(envelope, Telemetry)
    assert envelope.source == endpoint.name
    assert envelope.instance == endpoint.instance
    assert envelope.seq == 1
    assert envelope.payload["health"] == "healthy"
    assert envelope.payload["counters"]["demodulated"] == 0

    # Sequence numbers burn per push, so the aggregator can spot gaps.
    asyncio.run(endpoint.push_telemetry())
    assert first.sent[1].seq == 2


def test_push_without_a_greeted_connection_is_free(receiver_endpoint):
    endpoint = receiver_endpoint
    handshaking = _StubConn()
    handshaking.hello = None
    endpoint.server.connections.extend([handshaking, _StubConn(closed=True)])
    assert asyncio.run(endpoint.push_telemetry()) == 0
    assert endpoint.telemetry_pushes == 0
    assert endpoint.telemetry_sent == 0


def test_drift_events_count_past_ring_eviction():
    """The pushed ``drift_events`` is a lifetime total, so the broker's
    session never sees it rewind when the event ring evicts."""
    obs = Observability(host="r")
    obs.flight = FlightRecorder(maxlen=4, host="r")
    partitioned, _sink = build_partitioned_process(n_stages=4)
    endpoint = NetReceiverEndpoint(
        partitioned,
        codec=NetEnvelopeCodec(partitioned.serializer_registry),
        obs=obs,
    )
    seen = []
    for i in range(10):
        obs.flight.record("DriftDetected", at_message=i, pse_id="s1",
                          channel="bytes")
        seen.append(endpoint._telemetry_payload()["drift_events"])
    assert seen == list(range(1, 11))
    assert obs.flight.count("DriftDetected") == 10
    assert len(obs.flight.to_list()) == 4


# -- end-to-end over a real socket ---------------------------------------------


def test_telemetry_pushes_reach_subscribed_client():
    partitioned, _sink = build_partitioned_process(n_stages=4)
    endpoint = NetReceiverEndpoint(
        partitioned,
        codec=NetEnvelopeCodec(partitioned.serializer_registry),
        telemetry_interval=0.05,
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    transport = None
    try:
        host, port = asyncio.run_coroutine_threadsafe(
            endpoint.start(), loop
        ).result(5.0)

        received = []
        transport = TcpTransport(
            NetEnvelopeCodec(partitioned.serializer_registry),
            backoff_base=0.01,
            backoff_cap=0.1,
        ).start()
        transport.inbound_handler = (
            lambda envelope, peer: received.append(envelope)
        )
        peer = transport.peer(host, port)

        assert _wait_until(lambda: peer.telemetry_frames_seen >= 2)
        frames = [e for e in received if isinstance(e, Telemetry)]
        assert len(frames) >= 2
        assert frames[0].instance == endpoint.instance
        assert frames[0].payload["health"] == "healthy"
        assert "codegen_fallbacks" in frames[0].payload
        # Per-process push counter: strictly increasing, gap-free here.
        seqs = [f.seq for f in frames[:2]]
        assert seqs == sorted(seqs)
        # Counted after ``await conn.send``: the client can read the
        # frame before the push loop resumes to count it.
        assert _wait_until(lambda: endpoint.telemetry_sent >= 2)
    finally:
        if transport is not None:
            transport.close()
        asyncio.run_coroutine_threadsafe(endpoint.stop(), loop).result(5.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5.0)
        loop.close()


def test_stop_never_strands_the_telemetry_loop():
    """On 3.11 the ``wait_for`` inside ``ServerConnection.send`` can
    swallow ``stop()``'s cancel; the push loop must end anyway.  The
    near-zero interval keeps the loop inside a push at almost every
    instant, which is where the cancel gets lost."""
    partitioned, _sink = build_partitioned_process(n_stages=4)
    codec = NetEnvelopeCodec(partitioned.serializer_registry)
    endpoint = NetReceiverEndpoint(
        partitioned, codec=codec, telemetry_interval=1e-6
    )
    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()

    def run(coro):
        return asyncio.run_coroutine_threadsafe(coro, loop).result(5.0)

    transport = TcpTransport(
        codec, backoff_base=0.005, backoff_cap=0.01
    ).start()
    try:
        host, port = run(endpoint.start())
        peer = transport.peer(host, port)
        for _ in range(100):
            seen = peer.telemetry_frames_seen
            assert _wait_until(lambda: peer.telemetry_frames_seen > seen)
            started = time.monotonic()
            run(endpoint.stop())
            assert time.monotonic() - started < 1.0
            run(endpoint.start(host, port))
    finally:
        transport.close()
        run(endpoint.stop())
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5.0)
        loop.close()
