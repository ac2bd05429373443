"""TCP transport: pooling, backpressure, reconnect, heartbeats, errors."""

from __future__ import annotations

import asyncio
import gc
import socket
import sys
import threading
import time
import warnings

import pytest

from repro.core.continuation import ContinuationSchema
from repro.errors import ConnectionLostError, TransportError
from repro.jecho.events import EventEnvelope
from repro.net.framing import (
    KIND_CONT,
    KIND_FEEDBACK,
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
    # earlier tests' garbage must not warn in here when it is collected
    gc.collect()
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
        # the series is read from the peer's count whenever it is dumped
        assert _wait_until(
            lambda: obs.metrics.to_dict()["counters"][
                "transport.tcp.connect_failures"
            ]
            >= 2
        )
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


@pytest.mark.parametrize(
    "kind, body",
    [
        pytest.param(KIND_FEEDBACK, (1, 0, None, bytes(5)), id="feedback"),
        pytest.param(KIND_CONT, (1, 0, 1.0, 7, "v"), id="unknown-code"),
        pytest.param(KIND_CONT, (1, 0, 1.0, 0), id="wrong-arity"),
    ],
)
def test_a_refused_frame_is_skipped_and_its_connection_kept(kind, body):
    """A frame whose payload does not decode is counted, recorded and
    skipped: the next frame on the same connection still arrives."""
    obs = Observability()
    schema = ContinuationSchema("f", [((1, 2), "pse0", ("v",), False)])
    harness = ServerHarness(codec=NetEnvelopeCodec().bind(schema), obs=obs)
    codec = harness.server.codec
    try:
        with socket.create_connection(
            (harness.host, harness.port), timeout=5.0
        ) as sock:
            sock.sendall(
                encode_frame(kind, codec._serializer.serialize(body))
                + codec.encode_frame(EventEnvelope(payload="after", seq=3))
            )
            assert _wait_until(lambda: len(harness.received) == 1)
        assert harness.received[0][0].payload == "after"
        assert harness.server.decode_errors == 1
        assert harness.server.framing_errors == 0
        assert obs.flight.count("net.decode_error") == 1
    finally:
        harness.stop()


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

    # Heartbeats keep landing: compare the exposition with the snapshot
    # it was rendered from, never with the live histogram.
    snapshot = obs.to_dict()
    families = parse_openmetrics(render_openmetrics(snapshot))
    rtt = families["transport_tcp_heartbeat_rtt"]
    assert rtt["type"] == "histogram"
    count_sample = next(
        s
        for s in rtt["samples"]
        if s["name"] == "transport_tcp_heartbeat_rtt_count"
    )
    histograms = snapshot["metrics"]["histograms"]
    assert (
        count_sample["value"]
        == histograms["transport.tcp.heartbeat_rtt"]["count"]
    )
    inf_bucket = next(
        s
        for s in rtt["samples"]
        if s["name"] == "transport_tcp_heartbeat_rtt_bucket"
        and s["labels"]["le"] == "+Inf"
    )
    assert inf_bucket["value"] == count_sample["value"]


# -- the send hand-off ---------------------------------------------------------


def test_a_burst_of_sends_wakes_the_loop_once():
    loop = asyncio.new_event_loop()
    try:
        instance = TcpTransport(loop=loop, queue_limit=2000)
        peer = TcpPeer(instance, "127.0.0.1", 1)
        wakeups = []
        schedule = loop.call_soon_threadsafe

        def counted(callback, *args):
            wakeups.append(callback)
            return schedule(callback, *args)

        loop.call_soon_threadsafe = counted
        for i in range(1000):
            instance.send(peer, EventEnvelope(payload=i, seq=i), 8.0)
        assert len(wakeups) == 1
        assert peer.queued == 0  # still handed off, not yet queued
        loop.run_until_complete(asyncio.sleep(0))
        assert peer.queued == 1000
        # the next burst owes one more wake-up
        instance.send(peer, EventEnvelope(payload=0), 8.0)
        assert len(wakeups) == 2
    finally:
        loop.close()


def test_interleaved_sends_stay_fifo_per_peer():
    loop = asyncio.new_event_loop()
    try:
        instance = TcpTransport(loop=loop)
        peers = [TcpPeer(instance, "127.0.0.1", port) for port in (1, 2)]
        for i in range(40):
            instance.send(peers[i % 3 == 0], EventEnvelope(payload=i), 8.0)
            if i % 7 == 0:  # the loop takes the list mid-stream
                loop.run_until_complete(asyncio.sleep(0))
        loop.run_until_complete(asyncio.sleep(0))
        for index, peer in enumerate(peers):
            payloads = [
                instance.codec.decode(kind, payload)[0].payload
                for kind, _header, payload in peer._outbound
            ]
            assert payloads == [i for i in range(40) if (i % 3 == 0) == index]
    finally:
        loop.close()


def test_concurrent_senders_lose_no_frame_and_keep_their_order():
    """Senders on more threads than cores race the loop thread for the
    pending list; every frame must reach its peer's queue once, in its
    sender's order."""
    senders, per_sender = 4, 300
    instance = TcpTransport(queue_limit=senders * per_sender).start()
    peers = [TcpPeer(instance, "127.0.0.1", port) for port in range(1, 5)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(
                target=lambda peer=peer: [
                    instance.send(peer, EventEnvelope(payload=i), 8.0)
                    for i in range(per_sender)
                ]
            )
            for peer in peers
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    try:
        # the last wake-up was scheduled before this no-op
        asyncio.run_coroutine_threadsafe(
            asyncio.sleep(0), instance._loop
        ).result(5.0)
        for peer in peers:
            payloads = [
                instance.codec.decode(kind, payload)[0].payload
                for kind, _header, payload in peer._outbound
            ]
            assert payloads == list(range(per_sender))
    finally:
        instance.close()


def test_drain_right_after_send_covers_the_handed_off_frames(harness):
    async def send_then_drain():
        instance = TcpTransport(loop=asyncio.get_running_loop())
        peer = instance.peer(harness.host, harness.port)
        for i in range(5):
            instance.send(peer, EventEnvelope(payload=i, seq=i), 8.0)
        # no await between the sends and the drain: every frame is still
        # on the pending list, none on the peer's queue
        assert peer.queued == 0
        drained = await instance.adrain(5.0)
        sent = peer.frames_sent
        await instance.aclose()
        return drained, sent

    drained, sent = asyncio.run(send_then_drain())
    assert drained
    assert sent == 6  # hello + 5 events
    assert _wait_until(lambda: len(harness.received) == 5)


def test_rejected_sends_leave_nothing_handed_off():
    unstarted = TcpTransport()
    with pytest.raises(TransportError):
        unstarted.send(
            TcpPeer(unstarted, "127.0.0.1", 1), EventEnvelope(payload=1), 8.0
        )
    assert unstarted._pending == []
    loop = asyncio.new_event_loop()
    try:
        closed = TcpTransport(loop=loop)
        loop.run_until_complete(closed.aclose())
        with pytest.raises(ConnectionLostError):
            closed.send(
                TcpPeer(closed, "127.0.0.1", 1), EventEnvelope(payload=1), 8.0
            )
        assert closed._pending == []
    finally:
        loop.close()


# -- shutdown ------------------------------------------------------------------


def test_start_stop_cycles_log_no_asyncio_error():
    """Stopping a server lets its connection handlers end, and closing a
    transport awaits its peers' tasks: nothing is left for the loop's
    shutdown to cancel or for the collector to find pending, in either
    stop order, embedded or threaded."""
    errors = []

    def record(_loop, context):
        errors.append(context["message"])

    async def embedded(server_first):
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(record)
        server = FrameServer()
        got = asyncio.Event()
        server.handler = lambda *_args: got.set()
        host, port = await server.start()
        instance = TcpTransport(loop=loop)
        instance.send((host, port), EventEnvelope(payload=1), 8.0)
        await asyncio.wait_for(got.wait(), 5.0)
        if server_first:
            await server.stop()
            await instance.aclose()
        else:
            await instance.aclose()
            await server.stop()

    def threaded(server_first):
        loop = asyncio.new_event_loop()
        loop.set_exception_handler(record)
        thread = threading.Thread(target=loop.run_forever, daemon=True)
        thread.start()
        server = FrameServer()
        got = threading.Event()
        server.handler = lambda *_args: got.set()
        host, port = asyncio.run_coroutine_threadsafe(
            server.start(), loop
        ).result(5.0)
        instance = TcpTransport().start()
        instance._loop.set_exception_handler(record)
        instance.send((host, port), EventEnvelope(payload=1), 8.0)
        assert got.wait(5.0)
        stop_server = asyncio.run_coroutine_threadsafe(server.stop(), loop)
        if server_first:
            stop_server.result(5.0)
            instance.close()
        else:
            instance.close()
            stop_server.result(5.0)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(5.0)
        loop.close()

    for cycle in range(50):
        asyncio.run(embedded(server_first=cycle % 2 == 0))
        threaded(server_first=cycle % 2 == 0)
    gc.collect()  # a pending task left behind reports when collected
    assert errors == []


def test_stop_closes_a_connection_whose_handler_starts_late():
    """A connection the listener accepted before ``stop`` but whose
    handler registers only once ``stop`` has listed the connections
    aborts itself, not left open on the loop."""

    async def scenario():
        server = FrameServer()
        entered, release = asyncio.Event(), asyncio.Event()
        handle = server._handle_client

        async def late(reader, writer):
            entered.set()
            await release.wait()
            await handle(reader, writer)

        server._handle_client = late
        host, port = await server.start()
        reader, writer = await asyncio.open_connection(host, port)
        await entered.wait()
        stopping = asyncio.ensure_future(server.stop())
        for _ in range(10):  # well past stop's listing of the connections
            await asyncio.sleep(0)
        release.set()
        await asyncio.wait_for(stopping, 5.0)
        try:
            closed = await asyncio.wait_for(reader.read(), 2.0) == b""
        except ConnectionResetError:
            closed = True
        except asyncio.TimeoutError:
            closed = False
        writer.close()
        await writer.wait_closed()
        return closed, server.connections

    assert asyncio.run(scenario()) == (True, [])


def test_stop_closes_a_connection_accepted_just_before_it():
    """``stop`` called while an accepted socket's transport is still being
    built: the connection is closed, and nothing is logged or leaked
    (closing the listener under that accept used to do both)."""

    async def scenario():
        errors = []
        loop = asyncio.get_running_loop()
        loop.set_exception_handler(lambda _loop, ctx: errors.append(ctx))
        server = FrameServer()
        host, port = await server.start()
        before = asyncio.all_tasks()
        client = socket.create_connection((host, port))
        # the listener's accept has run once it spawned the task that
        # builds the connection's transport
        while not asyncio.all_tasks() - before:
            await asyncio.sleep(0)
        await server.stop()
        client.settimeout(2.0)
        try:
            closed = client.recv(1) == b""
        except ConnectionResetError:
            closed = True
        except socket.timeout:
            closed = False
        finally:
            client.close()
        return closed, [ctx["message"] for ctx in errors]

    assert asyncio.run(scenario()) == (True, [])
