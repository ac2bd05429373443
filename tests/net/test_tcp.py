"""TCP transport: pooling, backpressure, reconnect, heartbeats, errors."""

from __future__ import annotations

import asyncio
import socket
import threading
import time
import warnings

import pytest

from repro.errors import ConnectionLostError, TransportError
from repro.jecho.events import EventEnvelope
from repro.net.framing import (
    PROTOCOL_VERSION,
    Hello,
    NetEnvelopeCodec,
    encode_frame,
)
from repro.net.tcp import FrameServer, TcpPeer, TcpTransport
from repro.obs import Observability


def _wait_until(predicate, timeout=8.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServerHarness:
    """A FrameServer on its own event-loop thread, recording envelopes."""

    def __init__(self, **kwargs):
        self.server = FrameServer(**kwargs)
        self.received = []
        self.server.handler = self._on_envelope
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        )
        self.host, self.port = future.result(5.0)

    def _on_envelope(self, envelope, sent_at, conn):
        self.received.append((envelope, sent_at, conn))

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(5.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5.0)


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


# -- construction and destination validation -----------------------------------


def test_ctor_validation():
    with pytest.raises(TransportError):
        TcpTransport(queue_limit=0)
    with pytest.raises(TransportError):
        TcpTransport(connect_timeout=0.0)
    with pytest.raises(TransportError):
        TcpTransport(send_timeout=-1.0)
    with pytest.raises(TransportError):
        TcpTransport(backoff_base=0.5, backoff_cap=0.1)
    with pytest.raises(TransportError):
        TcpTransport(backoff_jitter=1.5)


def test_send_before_start_raises():
    transport = TcpTransport()
    with pytest.raises(TransportError):
        transport.send(("127.0.0.1", 1), EventEnvelope(payload=1), 8.0)


def test_resolve_rejects_foreign_destination(transport):
    instance = transport()
    with pytest.raises(TransportError):
        instance.send(12345, EventEnvelope(payload=1), 8.0)


def test_closed_transport_rejects_send_and_peer(transport):
    instance = transport()
    instance.close()
    with pytest.raises(ConnectionLostError):
        instance.send(("127.0.0.1", 1), EventEnvelope(payload=1), 8.0)
    with pytest.raises(ConnectionLostError):
        instance.peer("127.0.0.1", 1)


def test_peer_pooling(transport, harness):
    instance = transport()
    first = instance.peer(harness.host, harness.port)
    second = instance.peer(harness.host, harness.port)
    assert first is second
    assert instance.peers == [first]


# -- delivery ------------------------------------------------------------------


def test_send_reaches_server(transport, harness):
    instance = transport()
    envelope = EventEnvelope(payload={"n": 7}, seq=3)
    instance.send((harness.host, harness.port), envelope, 16.0)
    assert _wait_until(lambda: len(harness.received) == 1)
    received, sent_at, _ = harness.received[0]
    assert isinstance(received, EventEnvelope)
    assert received.payload == {"n": 7}
    assert received.seq == 3
    assert sent_at > 0
    # inherited Transport accounting still applies
    assert instance.messages_sent == 1
    assert instance.bytes_sent == 16.0
    peer = instance.peers[0]
    assert peer.frames_sent >= 2  # hello + event
    assert instance.drain(5.0)
    assert peer.queued == 0


def test_server_sees_hello_before_data(transport, harness):
    instance = transport()
    instance.send((harness.host, harness.port), EventEnvelope(payload=0), 8.0)
    assert _wait_until(lambda: len(harness.received) == 1)
    conn = harness.received[0][2]
    assert conn.hello is not None
    assert conn.hello.name == instance.name


def test_heartbeat_echo_measures_rtt(transport, harness):
    instance = transport(heartbeat_interval=0.05)
    instance.peer(harness.host, harness.port)
    peer = instance.peers[0]
    assert _wait_until(lambda: peer.heartbeats_seen >= 2)
    assert peer.last_rtt is not None and peer.last_rtt >= 0.0
    assert peer.heartbeats_sent >= peer.heartbeats_seen
    assert harness.server.heartbeats_seen >= 2
    assert peer.is_alive(5.0)


# -- backpressure --------------------------------------------------------------


def test_bounded_queue_drops_oldest():
    obs = Observability()
    port = _free_port()  # nothing listening: frames pile up
    instance = TcpTransport(
        queue_limit=3, backoff_base=0.05, backoff_cap=0.2
    )
    instance.attach_observability(obs, name="transport.tcp")
    instance.start()
    try:
        for i in range(8):
            instance.send(
                ("127.0.0.1", port), EventEnvelope(payload=i, seq=i), 8.0
            )
        peer = instance.peers[0]
        assert _wait_until(lambda: peer.dropped_frames == 5)
        assert peer.queued == 3
        dropped = next(
            c
            for c in obs.metrics.counters()
            if c.name == "transport.tcp.dropped_frames"
        )
        assert dropped.value == 5
    finally:
        instance.close()


def test_first_shed_warns_once_and_the_burst_is_sampled():
    """Drop-oldest is loud exactly once per peer: 200 sheds raise one
    RuntimeWarning naming the peer and its queue_limit, while the flight
    ring still samples the burst at sheds 1, 64, 128 and 192."""
    obs = Observability(host="test")
    instance = TcpTransport(queue_limit=4)
    instance.attach_observability(obs, name="transport.tcp")
    peer = TcpPeer(instance, "127.0.0.1", 1, name="wedged-peer")
    frame = instance.codec.encode_frame_parts(EventEnvelope(payload=0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(4 + 200):
            peer._enqueue(frame)
    assert peer.dropped_frames == 200
    assert len(caught) == 1
    assert caught[0].category is RuntimeWarning
    assert "wedged-peer" in str(caught[0].message)
    assert "queue_limit=4" in str(caught[0].message)
    sheds = [e for e in obs.flight.to_list() if e["kind"] == "net.shed"]
    assert [e["dropped_total"] for e in sheds] == [1, 64, 128, 192]
    assert {e["peer"] for e in sheds} == {"wedged-peer"}


# -- reconnect with backoff ----------------------------------------------------


def test_reconnect_after_server_side_abort(transport, harness):
    instance = transport()
    instance.send((harness.host, harness.port), EventEnvelope(payload=0), 8.0)
    assert _wait_until(lambda: len(harness.received) == 1)
    peer = instance.peers[0]
    assert peer.connections == 1

    harness.received[0][2].abort()  # fault injection, foreign thread
    assert _wait_until(lambda: peer.reconnects >= 1)

    instance.send(
        (harness.host, harness.port), EventEnvelope(payload=1, seq=1), 8.0
    )
    assert _wait_until(
        lambda: any(
            getattr(e, "seq", None) == 1 for e, _, _ in harness.received
        )
    )
    assert peer.connections >= 2


def test_backoff_delay_grows_and_caps():
    instance = TcpTransport(
        backoff_base=0.01, backoff_cap=0.5, backoff_jitter=0.2
    )
    peer = TcpPeer(instance, "127.0.0.1", 1)
    delays = [peer._backoff_delay(attempt) for attempt in range(1, 12)]
    assert delays[0] >= 0.01
    # doubles until the cap, modulo jitter
    assert delays[3] > delays[0]
    assert max(delays) <= 0.5 * 1.2 + 1e-9
    # deterministic per (host, port, seed)
    twin = TcpPeer(instance, "127.0.0.1", 1)
    assert [twin._backoff_delay(a) for a in range(1, 12)] == delays


def test_connect_failures_counted():
    obs = Observability()
    instance = TcpTransport(backoff_base=0.01, backoff_cap=0.05)
    instance.attach_observability(obs, name="transport.tcp")
    instance.start()
    try:
        instance.peer("127.0.0.1", _free_port())
        failures = next(
            c
            for c in obs.metrics.counters()
            if c.name == "transport.tcp.connect_failures"
        )
        assert _wait_until(lambda: failures.value >= 2)
    finally:
        instance.close()


# -- server-side protocol handling ---------------------------------------------


def test_server_rejects_version_mismatch(harness):
    """The frame header's version byte is the only version: a frame of
    another version — the hello included — is a framing error."""
    codec = NetEnvelopeCodec()
    hello = bytearray(encode_frame(*codec.encode(Hello(name="future"))))
    event = bytearray(encode_frame(*codec.encode(EventEnvelope(payload=1))))
    hello[2] = event[2] = PROTOCOL_VERSION + 1
    with socket.create_connection(
        (harness.host, harness.port), timeout=5.0
    ) as sock:
        sock.sendall(bytes(hello + event))
        # server closes the connection on the first frame
        sock.settimeout(5.0)
        assert sock.recv(1) == b""
    assert _wait_until(lambda: harness.server.framing_errors == 1)
    assert harness.server.frames_received == 0
    assert harness.received == []


def test_server_counts_framing_errors(harness):
    with socket.create_connection(
        (harness.host, harness.port), timeout=5.0
    ) as sock:
        sock.sendall(b"NOTAFRAME" + bytes(16))
        sock.settimeout(5.0)
        assert sock.recv(1) == b""
    assert _wait_until(lambda: harness.server.framing_errors == 1)


def test_heartbeat_rtt_histogram_survives_reattach_and_exposes(
    transport, harness
):
    """Re-attaching observability must not wipe accumulated RTT samples
    (the registry is get-or-create), and the histogram must come out of
    the OpenMetrics exposition as a well-formed family."""
    from repro.obs.exposition import parse_openmetrics, render_openmetrics

    obs = Observability()
    instance = transport(heartbeat_interval=0.05)
    instance.attach_observability(obs, name="transport.tcp")
    instance.peer(harness.host, harness.port)
    peer = instance.peers[0]
    assert _wait_until(lambda: peer.heartbeats_seen >= 2)

    hist = obs.metrics.histogram("transport.tcp.heartbeat_rtt")
    seen = hist.count
    assert seen >= 2

    # Endpoint restart paths re-attach to the same Observability.
    instance.attach_observability(obs, name="transport.tcp")
    assert obs.metrics.histogram("transport.tcp.heartbeat_rtt") is hist
    assert hist.count >= seen  # samples survived, none lost
    assert _wait_until(lambda: hist.count > seen)  # and new ones land

    families = parse_openmetrics(render_openmetrics(obs.to_dict()))
    rtt = families["transport_tcp_heartbeat_rtt"]
    assert rtt["type"] == "histogram"
    count_sample = next(
        s
        for s in rtt["samples"]
        if s["name"] == "transport_tcp_heartbeat_rtt_count"
    )
    assert count_sample["value"] == hist.count
    inf_bucket = next(
        s
        for s in rtt["samples"]
        if s["name"] == "transport_tcp_heartbeat_rtt_bucket"
        and s["labels"]["le"] == "+Inf"
    )
    assert inf_bucket["value"] == count_sample["value"]
