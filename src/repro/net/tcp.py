"""Asyncio TCP transport and frame server.

:class:`TcpTransport` implements the synchronous
:class:`~repro.jecho.transport.Transport` interface over real sockets:
``send(destination, envelope, size)`` encodes the envelope as one frame
on the caller's thread and hands it to an asyncio machinery (either a
background thread owning its own event loop — the default, so ordinary
synchronous code can use it — or an externally provided running loop),
which moves it onto the destination peer's bounded outbound queue and
drains the queues onto sockets.  The hand-off is one transport-wide
pending list: the loop is woken only when that list goes from empty to
non-empty, so a burst of sends costs one wake-up, not one per frame,
and every peer's frames keep their send order.

Reliability model, chosen to match what the adaptation loop needs:

* **Per-peer connection pooling** — one pooled connection per
  ``(host, port)``, created lazily by :meth:`TcpTransport.peer` and
  reused by every send to that peer.
* **Reconnect with exponential backoff + jitter** — a lost or refused
  connection is retried at ``base * 2^attempt`` seconds, capped, with
  deterministic per-peer jitter so herds of senders do not thunder.
  Queued frames survive the outage; the frame being written when the
  connection died is retransmitted first (at-least-once for the head
  frame, at-most-once for everything behind it).
* **Bounded queues with drop-oldest backpressure** — when the outbound
  queue is full the *oldest* frame is dropped (freshest data wins, the
  right call for sensor streams) and counted in the peer's
  ``dropped_frames`` (summed into ``<name>.dropped_frames``).
* **Connect/send timeouts** — a peer that accepts but never reads must
  not wedge the writer; a timed-out send raises
  :class:`~repro.errors.SendTimeoutError` internally and is treated as
  a lost connection.
* **Heartbeats** — each pooled connection emits a heartbeat frame every
  ``heartbeat_interval`` seconds; the server echoes it back with the
  original timestamp, giving both sides liveness (``last_heard``) and
  the client an RTT sample.
* **Frame batching** — with ``batching`` on (the default), the write
  loop gathers the run of batchable frames (events, continuations,
  feedback) at the head of the queue into one ``KIND_BATCH`` frame
  that every decoder of this build expands, paying a single
  write+drain event-loop round trip for many logical frames.  Control
  frames (hello, heartbeat, plan, bye) are never batched and never
  wait behind one: a run stops at the first non-batchable frame.
  Batching is *opportunistic* by default (``flush_interval=0``): a
  lone frame ships immediately, batches only form from genuine
  backlog, so an idle stream sees no added latency.  The whole batch
  is popped only after a successful drain, so a connection loss
  retransmits it intact (at-least-once; the receiver's dedupe
  high-water marks absorb the duplicates).

:class:`FrameServer` is the listening side: it accepts connections,
runs the handshake, decodes frames incrementally (a frame of another
wire version is a framing error that closes the connection), and
hands every application envelope to a router callback.  It exposes
per-connection ``send`` for the reverse control plane (plan-ship) and
``abort`` for fault injection in tests.
"""

from __future__ import annotations

import asyncio
import itertools
import random
import threading
import time
import uuid
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import (
    ConnectionLostError,
    FramingError,
    ReproError,
    SendTimeoutError,
    TransportError,
)
from repro.jecho.transport import Destination, Transport
from repro.net.framing import (
    BATCHABLE_KINDS,
    DEFAULT_MAX_FRAME,
    KIND_NAMES,
    SUB_HEADER_SIZE,
    BufferPool,
    FrameDecoder,
    Bye,
    Heartbeat,
    Hello,
    NetEnvelopeCodec,
    Telemetry,
    encode_batch_parts,
)
from repro.obs.flight import wide_event
from repro.obs.metrics import counts, zero_counts

__all__ = ["TcpPeer", "TcpTransport", "FrameServer", "ServerConnection"]

_READ_CHUNK = 65536

#: decode-side payload pool geometry: most envelopes (continuations,
#: events, telemetry) fit a few KB; oversized payloads fall back to
#: plain bytes inside the decoder.  One pool per connection — the pool
#: is only touched from that connection's read loop, so no locking.
_PAYLOAD_POOL_SIZE = 4096
_PAYLOAD_POOL_CAPACITY = 64

#: a queued frame: (kind, header bytes, payload bytes) — kept apart so
#: the write loop can gather them into batches without re-encoding
_QueuedFrame = Tuple[int, bytes, bytes]

#: per-connection :class:`FrameDecoder` stats, kept as ``decoder_<stat>``
_DECODER_STATS = ("compactions", "batches_decoded", "pooled_payloads")


def _add_decoder_stats(owner, decoder: FrameDecoder, seen: List[int]) -> None:
    """Add *decoder*'s stat growth since *seen* into ``owner.decoder_*``.

    A decoder covers one connection; the owner's ints cover every one.
    """
    for i, stat in enumerate(_DECODER_STATS):
        value = getattr(decoder, stat)
        field = "decoder_" + stat
        setattr(owner, field, getattr(owner, field) + value - seen[i])
        seen[i] = value


class TcpPeer:
    """One pooled connection to a remote endpoint.

    All mutable state is owned by the transport's event loop; frames
    from other threads arrive through the transport's pending list (see
    :meth:`TcpTransport._take_pending`).
    """

    #: the connection's counts, plain ints: :meth:`to_dict` reports them
    #: and the transport sums each into a ``<name>.<count>`` series
    COUNTS = (
        "connections", "reconnects", "connect_failures", "dropped_frames",
        "frames_sent", "frame_bytes_sent", "batches_sent",
        "batched_frames_sent", "heartbeats_sent", "heartbeats_seen",
        "send_timeouts", "telemetry_frames_seen", "framing_errors",
        "decode_errors", "decoder_compactions", "decoder_batches_decoded",
        "decoder_pooled_payloads",
    )

    def __init__(
        self,
        transport: "TcpTransport",
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        queue_limit: Optional[int] = None,
    ) -> None:
        if queue_limit is not None and queue_limit < 1:
            raise TransportError("queue_limit must be >= 1")
        self.transport = transport
        self.host = host
        self.port = port
        self.name = name or f"{host}:{port}"
        #: per-peer outbound bound; None inherits the transport's limit.
        #: A fan-out broker caps each subscriber independently so one
        #: slow peer sheds its own backlog without shrinking the others'.
        self.queue_limit = queue_limit
        zero_counts(self)
        self.last_heard: Optional[float] = None
        self.last_rtt: Optional[float] = None
        self.connected = False
        self._subpool = BufferPool()
        self._outbound: Deque[_QueuedFrame] = deque()
        self._wake = asyncio.Event()
        self._conn_lost = asyncio.Event()
        self._drained = asyncio.Event()
        self._drained.set()
        self._closed = False
        self._task: Optional[asyncio.Task] = None
        # Deterministic per-peer jitter stream: reproducible backoff
        # schedules in tests, decorrelated schedules across peers.
        self._jitter_rng = random.Random(
            (hash((host, port)) ^ transport.jitter_seed) & 0xFFFFFFFF
        )

    def is_alive(self, timeout: float) -> bool:
        """True when the peer answered within the last *timeout* seconds."""
        return (
            self.last_heard is not None
            and (time.monotonic() - self.last_heard) < timeout
        )

    @property
    def queued(self) -> int:
        return len(self._outbound)

    def to_dict(self) -> Dict[str, object]:
        """The connection's counters, as every dump reports them."""
        return {
            "queued": self.queued,
            **counts(self),
            "last_rtt": self.last_rtt,
        }

    # -- loop-side internals ---------------------------------------------------

    def _enqueue(self, frame: _QueuedFrame) -> None:
        if self._closed:
            return
        limit = (
            self.queue_limit
            if self.queue_limit is not None
            else self.transport.queue_limit
        )
        if len(self._outbound) >= limit:
            self._outbound.popleft()
            self.dropped_frames += 1
            # Sheds happen at line rate when a peer wedges; record the
            # first of every 64 so the flight ring shows the burst
            # without being flooded by it, and warn on the first.
            dropped = self.dropped_frames
            if dropped == 1 or dropped % 64 == 0:
                first = dropped == 1
                wide_event(
                    "net.shed",
                    recorder=getattr(self.transport.obs, "flight", None),
                    dedupe=(
                        f"{self.transport.instance}/{self.name}"
                        if first
                        else None
                    ),
                    warn=(
                        f"peer {self.name}: outbound queue full "
                        f"(queue_limit={limit}), dropping oldest frames"
                        if first
                        else None
                    ),
                    peer=self.name,
                    dropped_total=dropped,
                    queue_limit=limit,
                )
        self._outbound.append(frame)
        self._drained.clear()
        self._wake.set()

    def _backoff_delay(self, attempt: int) -> float:
        base = self.transport.backoff_base * (2 ** min(attempt, 16))
        delay = min(base, self.transport.backoff_cap)
        jitter = 1.0 + self.transport.backoff_jitter * self._jitter_rng.random()
        return delay * jitter

    async def _run(self) -> None:
        """Connect/reconnect loop: lives for the peer's whole lifetime."""
        attempt = 0
        while not self._closed:
            try:
                reader, writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    self.transport.connect_timeout,
                )
            except (OSError, asyncio.TimeoutError):
                self.connect_failures += 1
                attempt += 1
                await asyncio.sleep(self._backoff_delay(attempt))
                continue
            self.connections += 1
            if self.connections > 1:
                self.reconnects += 1
                wide_event(
                    "net.reconnect",
                    recorder=getattr(self.transport.obs, "flight", None),
                    peer=self.name,
                    reconnects=self.reconnects,
                    queued=len(self._outbound),
                )
            self.connected = True
            self._conn_lost.clear()
            reader_task = asyncio.ensure_future(self._read_loop(reader))
            heartbeat_task = (
                asyncio.ensure_future(self._heartbeat_loop())
                if self.transport.heartbeat_interval
                else None
            )
            try:
                # Handshake first: the hello names this process (its
                # dedupe identity) before any data frame.
                self._outbound.appendleft(
                    self.transport.codec.encode_frame_parts(
                        Hello(
                            role="sender",
                            name=self.transport.name,
                            instance=self.transport.instance,
                        )
                    )
                )
                await self._write_loop(writer)
                attempt = 0
            except (
                ConnectionLostError,
                SendTimeoutError,
                OSError,
                asyncio.TimeoutError,
            ):
                attempt += 1
            finally:
                self.connected = False
                for task in (reader_task, heartbeat_task):
                    if task is not None:
                        task.cancel()
                writer.close()
                try:
                    await writer.wait_closed()
                except (OSError, asyncio.CancelledError):
                    pass
            if self._closed:
                break
            await asyncio.sleep(self._backoff_delay(max(attempt, 1)))

    def _collect_run(self) -> List[_QueuedFrame]:
        """The prefix of the queue that ships as one wire write.

        With batching off (or with a non-batchable head) the run is
        just the head frame.  Otherwise it is the contiguous run of
        batchable frames, capped by the transport's
        ``flush_max_count`` / ``flush_max_bytes`` thresholds.
        """
        head = self._outbound[0]
        if not self.transport.batching or head[0] not in BATCHABLE_KINDS:
            return [head]
        run = [head]
        total = SUB_HEADER_SIZE + len(head[2])
        for entry in itertools.islice(
            self._outbound, 1, self.transport.flush_max_count
        ):
            if entry[0] not in BATCHABLE_KINDS:
                break
            cost = SUB_HEADER_SIZE + len(entry[2])
            if total + cost > self.transport.flush_max_bytes:
                break
            run.append(entry)
            total += cost
        return run

    def _wire_parts(
        self, run: List[_QueuedFrame]
    ) -> Tuple[List[bytes], List[bytes]]:
        """(buffers to write, pooled buffers to release afterwards)."""
        if len(run) == 1:
            _, header, payload = run[0]
            return [header, payload], []
        parts = encode_batch_parts(
            [(kind, payload) for kind, _, payload in run],
            pool=self._subpool,
        )
        return parts, parts[1::2]

    async def _linger(self) -> None:
        """Wait up to ``flush_interval`` for company before flushing."""
        self._wake.clear()
        wake = asyncio.ensure_future(self._wake.wait())
        lost = asyncio.ensure_future(self._conn_lost.wait())
        _, pending = await asyncio.wait(
            (wake, lost),
            timeout=self.transport.flush_interval,
            return_when=asyncio.FIRST_COMPLETED,
        )
        for task in pending:
            task.cancel()

    async def _write_loop(self, writer: asyncio.StreamWriter) -> None:
        while not self._closed:
            while self._outbound:
                if self._conn_lost.is_set():
                    raise ConnectionLostError(
                        f"peer {self.name} closed the connection"
                    )
                run = self._collect_run()
                if (
                    len(run) == 1
                    and len(self._outbound) == 1
                    and self.transport.batching
                    and run[0][0] in BATCHABLE_KINDS
                    and self.transport.flush_interval > 0
                ):
                    # A lone batchable frame may be joined by more
                    # within the flush window; control frames and
                    # deeper queues never wait.
                    await self._linger()
                    if self._conn_lost.is_set():
                        raise ConnectionLostError(
                            f"peer {self.name} closed the connection"
                        )
                    run = self._collect_run()
                buffers, pooled = self._wire_parts(run)
                wire_bytes = sum(len(b) for b in buffers)
                try:
                    writer.writelines(buffers)
                    await asyncio.wait_for(
                        writer.drain(), self.transport.send_timeout
                    )
                except asyncio.TimeoutError:
                    self.send_timeouts += 1
                    raise SendTimeoutError(
                        f"send to {self.name} exceeded "
                        f"{self.transport.send_timeout}s"
                    ) from None
                except (ConnectionError, OSError) as exc:
                    raise ConnectionLostError(
                        f"connection to {self.name} lost: {exc}"
                    ) from exc
                finally:
                    # asyncio copies buffers before write returns, so
                    # the pooled sub-headers recycle even on failure.
                    for buf in pooled:
                        self._subpool.release(buf)
                # Popped only after a successful drain, so a run that
                # was mid-write when the link died is retransmitted
                # whole (receiver dedupe absorbs the duplicates).
                for _ in run:
                    self._outbound.popleft()
                self.frames_sent += len(run)
                self.frame_bytes_sent += wire_bytes
                if len(run) > 1:
                    self.batches_sent += 1
                    self.batched_frames_sent += len(run)
            if not self._outbound:
                self._drained.set()
            self._wake.clear()
            if self._conn_lost.is_set():
                raise ConnectionLostError(
                    f"peer {self.name} closed the connection"
                )
            wake = asyncio.ensure_future(self._wake.wait())
            lost = asyncio.ensure_future(self._conn_lost.wait())
            done, pending = await asyncio.wait(
                (wake, lost), return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        decoder = FrameDecoder(
            max_frame=self.transport.max_frame,
            payload_pool=BufferPool(
                size=_PAYLOAD_POOL_SIZE,
                capacity=_PAYLOAD_POOL_CAPACITY,
            ),
        )
        seen = [0] * len(_DECODER_STATS)
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except FramingError:
                    self.framing_errors += 1
                    break
                finally:
                    _add_decoder_stats(self, decoder, seen)
                for kind, payload in frames:
                    self.last_heard = time.monotonic()
                    try:
                        envelope, _ = self.transport.codec.decode(
                            kind, payload
                        )
                    except ReproError:
                        self.decode_errors += 1
                        continue
                    if isinstance(envelope, Heartbeat):
                        self.heartbeats_seen += 1
                        rtt = time.time() - envelope.sent_at
                        self.last_rtt = rtt
                        if self.transport._h_rtt is not None and rtt >= 0:
                            self.transport._h_rtt.observe(rtt)
                        continue
                    if isinstance(envelope, (Hello, Bye)):
                        continue
                    if isinstance(envelope, Telemetry):
                        self.telemetry_frames_seen += 1
                    handler = self.transport.inbound_handler
                    if handler is not None:
                        handler(envelope, self)
                # Envelopes own their decoded values; the raw payload
                # buffers can go back to the pool.
                decoder.recycle(frames)
        finally:
            self._conn_lost.set()

    async def _heartbeat_loop(self) -> None:
        interval = self.transport.heartbeat_interval
        while not self._closed:
            await asyncio.sleep(interval)
            self._enqueue(
                self.transport.codec.encode_frame_parts(
                    Heartbeat(sent_at=time.time())
                )
            )
            self.heartbeats_sent += 1

    async def _wait_drained(self) -> None:
        await self._drained.wait()

    def _close(self) -> None:
        self._closed = True
        self._conn_lost.set()
        self._wake.set()
        if self._task is not None:
            self._task.cancel()


class TcpTransport(Transport):
    """A :class:`Transport` whose destinations are TCP peers.

    ``send(destination, envelope, size)`` accepts a :class:`TcpPeer`
    (from :meth:`peer`) or a ``(host, port)`` tuple.  Inherited traffic
    accounting and ship-span tracing apply unchanged; the bytes then
    cross a real socket instead of a simulated link.
    """

    def __init__(
        self,
        codec: Optional[NetEnvelopeCodec] = None,
        *,
        name: str = "tcp",
        connect_timeout: float = 5.0,
        send_timeout: float = 5.0,
        queue_limit: int = 1024,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        backoff_jitter: float = 0.2,
        heartbeat_interval: Optional[float] = None,
        max_frame: int = DEFAULT_MAX_FRAME,
        jitter_seed: int = 0,
        batching: bool = True,
        flush_max_bytes: int = 64 * 1024,
        flush_max_count: int = 32,
        flush_interval: float = 0.0,
        loop: Optional[asyncio.AbstractEventLoop] = None,
    ) -> None:
        super().__init__()
        if queue_limit < 1:
            raise TransportError("queue_limit must be >= 1")
        if connect_timeout <= 0 or send_timeout <= 0:
            raise TransportError("timeouts must be positive")
        if flush_max_count < 1:
            raise TransportError("flush_max_count must be >= 1")
        if flush_max_bytes < SUB_HEADER_SIZE + 1:
            raise TransportError(
                f"flush_max_bytes must be > {SUB_HEADER_SIZE}"
            )
        if flush_interval < 0:
            raise TransportError("flush_interval must be >= 0")
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise TransportError(
                "backoff_base must be positive and <= backoff_cap"
            )
        if not (0.0 <= backoff_jitter <= 1.0):
            raise TransportError("backoff_jitter must be in [0, 1]")
        self.codec = codec or NetEnvelopeCodec()
        self.name = name
        self.connect_timeout = connect_timeout
        self.send_timeout = send_timeout
        self.queue_limit = queue_limit
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.backoff_jitter = backoff_jitter
        self.heartbeat_interval = heartbeat_interval
        self.max_frame = max_frame
        self.jitter_seed = jitter_seed
        #: master switch for wire batching (every decoder expands batches)
        self.batching = batching
        self.flush_max_bytes = flush_max_bytes
        self.flush_max_count = flush_max_count
        self.flush_interval = flush_interval
        # One token per transport lifetime: reconnects present the same
        # identity, a restarted process a fresh one (see Hello.instance).
        self.instance = uuid.uuid4().hex
        self.inbound_handler: Optional[Callable[[object, TcpPeer], None]] = None
        self._trace_host = name
        self._peers: Dict[Tuple[str, int], TcpPeer] = {}
        self._loop = loop
        self._own_loop = loop is None
        self._thread: Optional[threading.Thread] = None
        #: frames handed off by ``send`` and not yet on a peer's queue,
        #: in send order; the loop takes them all at once
        self._pending: List[Tuple[TcpPeer, _QueuedFrame]] = []
        self._pending_lock = threading.Lock()
        self._h_rtt = None
        self._h_phase_encode = None
        self._h_phase_enqueue = None
        self._obs_name = "transport.tcp"

    # -- observability ---------------------------------------------------------

    def attach_observability(self, obs, *, name: str = "transport.tcp") -> None:
        super().attach_observability(obs, name=name)
        metrics = obs.metrics
        self._h_rtt = metrics.histogram(f"{name}.heartbeat_rtt")
        # Publish-path phase timers (same family as the broker's
        # modulate/fork/ship phases): the caller-thread encode and the
        # threadsafe handoff to the loop, the two halves of _deliver.
        self._h_phase_encode = metrics.histogram(
            'net.publish.phase_seconds{phase="encode"}'
        )
        self._h_phase_enqueue = metrics.histogram(
            'net.publish.phase_seconds{phase="enqueue"}'
        )

    def _read_metrics(self) -> Dict[str, Dict[str, float]]:
        metrics = super()._read_metrics()
        name, totals, peers = self._obs_name, metrics["counters"], self.peers
        for count in TcpPeer.COUNTS:
            totals[f"{name}.{count}"] = sum(getattr(p, count) for p in peers)
        # the wire-bytes series is older than the peer count's name
        totals[f"{name}.frame_bytes"] = totals.pop(f"{name}.frame_bytes_sent")
        return metrics

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "TcpTransport":
        """Spin up the background event-loop thread (no-op when an
        external loop was provided or the thread already runs)."""
        if self._loop is not None:
            return self
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever,
            name=f"tcp-transport-{self.name}",
            daemon=True,
        )
        self._thread.start()
        return self

    def _require_loop(self) -> asyncio.AbstractEventLoop:
        if self._loop is None:
            raise TransportError(
                "TcpTransport not started: call start() (threaded) or "
                "pass loop= (embedded)"
            )
        return self._loop

    def peer(
        self,
        host: str,
        port: int,
        *,
        name: Optional[str] = None,
        queue_limit: Optional[int] = None,
    ) -> TcpPeer:
        """The pooled peer for ``(host, port)``, connecting it if new."""
        if self.closed:
            raise ConnectionLostError("transport is closed")
        loop = self._require_loop()
        key = (host, int(port))
        existing = self._peers.get(key)
        if existing is not None:
            return existing
        peer = TcpPeer(
            self, host, int(port), name=name, queue_limit=queue_limit
        )
        self._peers[key] = peer

        def start_task() -> None:
            peer._task = loop.create_task(peer._run())

        loop.call_soon_threadsafe(start_task)
        return peer

    @property
    def peers(self) -> List[TcpPeer]:
        return list(self._peers.values())

    # -- Transport interface ---------------------------------------------------

    def _resolve(self, destination: Destination) -> TcpPeer:
        if isinstance(destination, TcpPeer):
            return destination
        if (
            isinstance(destination, tuple)
            and len(destination) == 2
            and isinstance(destination[0], str)
        ):
            return self.peer(destination[0], destination[1])
        raise TransportError(
            f"TcpTransport destinations are TcpPeer or (host, port), "
            f"got {type(destination).__name__}"
        )

    def _deliver(
        self, destination: Destination, envelope: object, size: float
    ) -> None:
        peer = self._resolve(destination)
        loop = self._loop or self._require_loop()
        # Encoding happens on the caller's thread (after the base class
        # restamped the trace context) so the loop thread only does IO;
        # header and payload stay separate so the write loop can gather
        # runs of frames into one batch without re-encoding.
        h_encode = self._h_phase_encode
        if h_encode is not None:
            t0 = time.perf_counter()
        parts = self.codec.encode_frame_parts(envelope, sent_at=time.time())
        if h_encode is not None:
            t1 = time.perf_counter()
            h_encode.observe(t1 - t0)
        with self._pending_lock:
            pending = self._pending
            pending.append((peer, parts))
            if len(pending) == 1:
                loop.call_soon_threadsafe(self._take_pending)
        if h_encode is not None:
            self._h_phase_enqueue.observe(time.perf_counter() - t1)

    def _take_pending(self) -> None:
        """Move every handed-off frame onto its peer's queue (loop side).

        One call per burst: ``_deliver`` wakes the loop only when the
        pending list goes from empty to non-empty, so a burst of sends
        costs one self-pipe wake-up, and per-peer order is send order.
        """
        with self._pending_lock:
            pending, self._pending = self._pending, []
        for peer, parts in pending:
            peer._enqueue(parts)

    # -- draining / shutdown ---------------------------------------------------

    async def adrain(self, timeout: float = 10.0) -> bool:
        """Await every peer queue empty; False on timeout.

        Frames still on the pending list are covered: the wake-up that
        moves them was scheduled before this coroutine's waits."""
        try:
            await asyncio.wait_for(
                asyncio.gather(
                    *(p._wait_drained() for p in self._peers.values())
                ),
                timeout,
            )
        except asyncio.TimeoutError:
            return False
        return True

    def drain(self, timeout: float = 10.0) -> bool:
        """Block until every queue is flushed (threaded mode only)."""
        if self.closed:
            return False
        loop = self._require_loop()
        future = asyncio.run_coroutine_threadsafe(
            self.adrain(timeout), loop
        )
        try:
            return future.result(timeout + 1.0)
        except Exception:  # noqa: BLE001 - timeout or loop shutdown
            return False

    async def aclose(self) -> None:
        """Stop every peer and await its connection task's end."""
        for peer in self._peers.values():
            peer._close()
        # one turn for a peer whose task is still being scheduled: it
        # starts, sees the peer closed and ends
        await asyncio.sleep(0)
        await asyncio.gather(
            *(p._task for p in self._peers.values() if p._task is not None),
            return_exceptions=True,
        )
        self.closed = True

    def close(self, timeout: float = 5.0) -> None:
        """Stop every peer, the loop thread and its loop (if owned), and
        the transport."""
        if self.closed:
            return
        loop = self._loop
        if loop is not None and self._thread is not None:
            future = asyncio.run_coroutine_threadsafe(self.aclose(), loop)
            try:
                future.result(timeout)
            except Exception:  # noqa: BLE001 - shutdown is best-effort
                pass
            loop.call_soon_threadsafe(loop.stop)
            self._thread.join(timeout)
            if not self._thread.is_alive():
                loop.close()
        super().close()


class ServerConnection:
    """One accepted connection inside a :class:`FrameServer`."""

    def __init__(
        self,
        server: "FrameServer",
        writer: asyncio.StreamWriter,
        peername: str,
    ) -> None:
        self.server = server
        self.writer = writer
        self.peername = peername
        self.hello: Optional[Hello] = None
        self.closed = False

    async def send(self, envelope: object) -> None:
        """Ship an envelope back to this connection's client."""
        if self.closed:
            raise ConnectionLostError(
                f"connection from {self.peername} is closed"
            )
        frame = self.server.codec.encode_frame(
            envelope, sent_at=time.time()
        )
        try:
            self.writer.write(frame)
            await asyncio.wait_for(
                self.writer.drain(), self.server.send_timeout
            )
        except asyncio.TimeoutError:
            raise SendTimeoutError(
                f"send to {self.peername} exceeded "
                f"{self.server.send_timeout}s"
            ) from None
        except (ConnectionError, OSError) as exc:
            raise ConnectionLostError(
                f"connection from {self.peername} lost: {exc}"
            ) from exc
        self.server.frames_sent += 1

    def abort(self) -> None:
        """Hard-drop the connection (fault injection).

        Safe to call from any thread: asyncio transports are not
        thread-safe, so the abort is marshalled onto the server's loop.
        """
        self.closed = True
        transport = self.writer.transport
        if transport is None:
            return
        loop = self.server._loop
        if loop is not None:
            loop.call_soon_threadsafe(transport.abort)
        else:
            transport.abort()


class FrameServer:
    """Listening side: accept, handshake, decode, route.

    ``handler(envelope, sent_at, connection)`` is called for every
    application envelope (data, continuation, feedback, plan, bye);
    hello and heartbeat frames are handled by the server itself
    (identity, echo).  The handler may be a plain function or a
    coroutine function.  A frame whose payload the codec refuses is
    counted in ``decode_errors`` and skipped; its connection stays up.
    """

    #: the server's counts, plain ints, each read as ``<name>.<count>``
    COUNTS = (
        "accepted", "frames_received", "frames_sent", "heartbeats_seen",
        "framing_errors", "decode_errors", "decoder_compactions",
        "decoder_batches_decoded", "decoder_pooled_payloads",
    )

    def __init__(
        self,
        codec: Optional[NetEnvelopeCodec] = None,
        *,
        name: str = "server",
        send_timeout: float = 5.0,
        max_frame: int = DEFAULT_MAX_FRAME,
        obs=None,
    ) -> None:
        self.codec = codec or NetEnvelopeCodec()
        self.name = name
        self.send_timeout = send_timeout
        self.max_frame = max_frame
        self.handler: Optional[Callable] = None
        self.connections: List[ServerConnection] = []
        #: the running ``_handle_client`` tasks, awaited by ``stop``
        self._clients: Set[asyncio.Task] = set()
        zero_counts(self)
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stopping = False
        self.obs = obs
        if obs is not None:
            obs.metrics.add_reader(self._read_metrics)

    def _read_metrics(self) -> Dict[str, Dict[str, float]]:
        totals = counts(self)
        return {"counters": {f"{self.name}.{c}": totals[c] for c in totals}}

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind and listen; returns the actual ``(host, port)``."""
        self._loop = asyncio.get_running_loop()
        self._stopping = False
        self._server = await asyncio.start_server(
            self._handle_client, host, port
        )
        sock = self._server.sockets[0]
        bound = sock.getsockname()
        return bound[0], bound[1]

    async def stop(self) -> None:
        """Close the listener, drop every connection and await the end of
        each connection's handler, so none is left for the loop's
        shutdown to cancel.  A connection accepted before the listener
        closed but registered only while ``stop`` runs aborts itself."""
        self._stopping = True
        server, self._server = self._server, None
        if server is not None:
            # Stop accepting, and let an accept in flight reach
            # _handle_client (accept task, connection_made, first step)
            # before the close: 3.11 leaks a socket accepted after it.
            for sock in server.sockets:
                self._loop.remove_reader(sock.fileno())
            for _ in range(3):
                await asyncio.sleep(0)
            server.close()
        for conn in list(self.connections):
            try:
                conn.abort()
            except Exception:  # noqa: BLE001 - already gone
                pass
        if self._clients:
            await asyncio.wait(set(self._clients), timeout=self.send_timeout)
        if server is not None:  # 3.12 waits here for open connections
            await server.wait_closed()

    async def _handle_client(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        peername = str(writer.get_extra_info("peername"))
        conn = ServerConnection(self, writer, peername)
        task = asyncio.current_task()
        self._clients.add(task)
        self.connections.append(conn)
        self.accepted += 1
        if self._stopping:
            conn.abort()
        decoder = FrameDecoder(
            max_frame=self.max_frame,
            payload_pool=BufferPool(
                size=_PAYLOAD_POOL_SIZE,
                capacity=_PAYLOAD_POOL_CAPACITY,
            ),
        )
        seen = [0] * len(_DECODER_STATS)
        try:
            while True:
                data = await reader.read(_READ_CHUNK)
                if not data:
                    break
                try:
                    frames = decoder.feed(data)
                except FramingError:
                    self.framing_errors += 1
                    break
                finally:
                    _add_decoder_stats(self, decoder, seen)
                for kind, payload in frames:
                    self.frames_received += 1
                    try:
                        envelope, sent_at = self.codec.decode(kind, payload)
                    except ReproError as exc:
                        # the frame is refused, the stream is intact
                        self.decode_errors += 1
                        wide_event(
                            "net.decode_error",
                            recorder=getattr(self.obs, "flight", None),
                            server=self.name,
                            peer=peername,
                            frame=KIND_NAMES[kind],
                            reason=str(exc),
                        )
                        continue
                    if isinstance(envelope, Hello):
                        conn.hello = envelope
                        # The reply is the first frame the client hears
                        # on a new connection: proof the server is up.
                        try:
                            await conn.send(
                                Hello(role="server", name=self.name)
                            )
                        except (SendTimeoutError, ConnectionLostError):
                            return
                        continue
                    if isinstance(envelope, Heartbeat):
                        self.heartbeats_seen += 1
                        try:
                            await conn.send(envelope)  # echo, same stamp
                        except (SendTimeoutError, ConnectionLostError):
                            return
                        continue
                    if self.handler is not None:
                        result = self.handler(envelope, sent_at, conn)
                        if asyncio.iscoroutine(result):
                            await result
                decoder.recycle(frames)
        finally:
            conn.closed = True
            if conn in self.connections:
                self.connections.remove(conn)
            writer.close()
            try:
                await writer.wait_closed()
            except (OSError, asyncio.CancelledError):
                pass
            self._clients.discard(task)
