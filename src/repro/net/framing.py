"""Length-prefixed framing over the repro serialization wire format.

A TCP stream has no message boundaries, so every message travels as a
*frame*::

    offset  size  field
    0       2     magic  b"MP"
    2       1     protocol version (PROTOCOL_VERSION)
    3       1     frame kind (KIND_*)
    4       4     payload length, big-endian unsigned
    8       n     payload bytes

The payload of every application frame is one tuple encoded with
:class:`repro.serialization.Serializer` — the exact wire format whose
sizes the cost models optimize, so what the profiler *measures* is what
the socket *carries*.  A CONT frame is ``(subscription_id, seq,
sent_at, *body)``, *body* the flat continuation body of
:mod:`repro.core.continuation`; decoding it needs the receiving
handler's schema (:meth:`NetEnvelopeCodec.bind`).  A FEEDBACK frame's
summary rides in its tuple as one opaque bytes field, packed by
:func:`repro.core.runtime.feedback.pack_summary` in a fixed layout of
its own.  The header's :data:`PROTOCOL_VERSION` is the only wire
version: peers of another build fail at their first frame, and nothing
is negotiated.

:class:`FrameDecoder` is an incremental parser: feed it whatever chunk
``data_received`` produced — half a header, three frames and a half,
one byte — and it returns the completed frames.  Violations raise
:class:`~repro.errors.FramingError` (bad magic, unknown version or
kind, oversized frame): a framing error is unrecoverable for the
connection, since the stream position is lost.

Two wire-efficiency layers live here as well:

* **Batch frames** — a :data:`KIND_BATCH` frame carries many data
  sub-frames (``[1-byte kind][4-byte length][payload]`` each) under a
  single 8-byte header, so a backlogged writer pays one header and one
  syscall for a whole run of continuations.  The decoder expands
  batches transparently: read loops see the constituent frames and
  need no batch handling of their own, so a sender may batch toward
  any peer.  Only data kinds (event/continuation/feedback) may ride in
  a batch; control frames (hello, heartbeat, bye, plan) always travel
  alone so liveness and plan actuation are never queued behind a
  partially accumulated batch.
* **Scatter-gather encoding** — :func:`encode_frame_parts` and
  :func:`encode_batch_parts` return header and payload buffers
  *separately* (headers packed into :class:`BufferPool` scratch
  buffers) so the send path never copies payload bytes into a joined
  frame; the socket layer gathers the parts.
"""

from __future__ import annotations

import copy
import struct
from typing import List, Optional, Tuple

from repro.core.continuation import ContinuationSchema
from repro.core.plan import PartitioningPlan
from repro.core.runtime.feedback import pack_summary, unpack_summary
from repro.errors import FramingError, ProtocolError
from repro.jecho.events import (
    ContinuationEnvelope,
    EventEnvelope,
    FeedbackEnvelope,
    PlanEnvelope,
)
from repro.serialization import Serializer, SerializerRegistry

__all__ = [
    "PROTOCOL_VERSION",
    "MAGIC",
    "HEADER_SIZE",
    "SUB_HEADER_SIZE",
    "DEFAULT_MAX_FRAME",
    "KIND_HELLO",
    "KIND_EVENT",
    "KIND_CONT",
    "KIND_FEEDBACK",
    "KIND_PLAN",
    "KIND_HEARTBEAT",
    "KIND_BYE",
    "KIND_BATCH",
    "KIND_TELEMETRY",
    "KIND_NAMES",
    "BATCHABLE_KINDS",
    "encode_frame",
    "encode_frame_parts",
    "encode_batch_parts",
    "BufferPool",
    "FrameDecoder",
    "NetEnvelopeCodec",
    "Hello",
    "Heartbeat",
    "Bye",
    "Telemetry",
]

#: two magic bytes opening every frame
MAGIC = b"MP"
#: the one wire version: the frame layout plus every envelope shape
#: below.  Bump it whenever any envelope shape changes; the decoder
#: refuses frames of any other version, the hello included.
PROTOCOL_VERSION = 4
#: frame header bytes (magic + version + kind + length)
HEADER_SIZE = 8
#: default ceiling on payload size — a corrupt length prefix must not
#: make the decoder buffer gigabytes
DEFAULT_MAX_FRAME = 16 * 1024 * 1024

# Frame kinds (1 byte). Control plane of the transport itself:
KIND_HELLO = 0x01
KIND_HEARTBEAT = 0x02
KIND_BYE = 0x03
# JECho envelope kinds:
KIND_EVENT = 0x10
KIND_CONT = 0x11
KIND_FEEDBACK = 0x12
KIND_PLAN = 0x13
# Aggregate frame: many data sub-frames under one header.
KIND_BATCH = 0x20
# Fleet telemetry: a receiver pushing its metrics/health deltas
# upstream (see Telemetry below).
KIND_TELEMETRY = 0x21

KIND_NAMES = {
    KIND_HELLO: "hello",
    KIND_HEARTBEAT: "heartbeat",
    KIND_BYE: "bye",
    KIND_EVENT: "event",
    KIND_CONT: "continuation",
    KIND_FEEDBACK: "feedback",
    KIND_PLAN: "plan",
    KIND_BATCH: "batch",
    KIND_TELEMETRY: "telemetry",
}

#: kinds that may ride inside a KIND_BATCH frame.  Control frames are
#: deliberately excluded: heartbeats and plan updates must never wait
#: behind a partially accumulated batch.
BATCHABLE_KINDS = frozenset({KIND_EVENT, KIND_CONT, KIND_FEEDBACK})

_HEADER = struct.Struct(">2sBBI")
#: batch sub-frame header: [1-byte kind][4-byte payload length]
_SUB_HEADER = struct.Struct(">BI")
SUB_HEADER_SIZE = _SUB_HEADER.size


def frame_header(kind: int, length: int) -> bytes:
    """The 8-byte wire header for a *length*-byte payload of *kind*."""
    if kind not in KIND_NAMES:
        raise FramingError(f"unknown frame kind 0x{kind:02x}")
    return _HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, length)


def encode_frame(kind: int, payload: bytes) -> bytes:
    """One wire frame for *payload* under *kind*."""
    return frame_header(kind, len(payload)) + payload


def encode_frame_parts(
    kind: int, payload: bytes
) -> Tuple[bytes, bytes]:
    """``(header, payload)`` buffers for one frame — no payload copy.

    The send path writes the two buffers with scatter-gather
    (``writelines``); the payload bytes the serializer produced are
    handed to the socket layer as-is.
    """
    return frame_header(kind, len(payload)), payload


def encode_batch_parts(
    entries: "List[Tuple[int, bytes]]",
    *,
    pool: "Optional[BufferPool]" = None,
) -> List[bytes]:
    """Scatter-gather buffer list for one KIND_BATCH frame.

    ``entries`` is a list of ``(kind, payload)`` pairs, every kind in
    :data:`BATCHABLE_KINDS`.  Returns ``[batch_header, sub_header_0,
    payload_0, sub_header_1, payload_1, ...]`` — payload buffers are
    included by reference, never copied.  With *pool*, sub-headers are
    packed into pooled scratch buffers (release them after the write).
    """
    if not entries:
        raise FramingError("a batch frame needs at least one sub-frame")
    parts: List[bytes] = [b""]  # batch header, patched below
    total = 0
    for kind, payload in entries:
        if kind not in BATCHABLE_KINDS:
            raise FramingError(
                f"frame kind {KIND_NAMES.get(kind, hex(kind))!r} "
                f"cannot ride in a batch"
            )
        if pool is not None:
            sub = pool.acquire()
            _SUB_HEADER.pack_into(sub, 0, kind, len(payload))
            parts.append(memoryview(sub)[:SUB_HEADER_SIZE])
        else:
            parts.append(_SUB_HEADER.pack(kind, len(payload)))
        parts.append(payload)
        total += SUB_HEADER_SIZE + len(payload)
    parts[0] = frame_header(KIND_BATCH, total)
    return parts


class BufferPool:
    """Reusable scratch buffers for header packing.

    The batched send path packs one sub-header per frame; a small pool
    of fixed-size bytearrays turns those per-frame allocations into
    reuse of warm buffers.  Release is explicit (after the write has
    drained); an unreleased buffer is simply garbage-collected, so a
    failed write leaks nothing.
    """

    def __init__(self, size: int = SUB_HEADER_SIZE, capacity: int = 256):
        if size < 1 or capacity < 1:
            raise ValueError("size and capacity must be >= 1")
        self.size = size
        self.capacity = capacity
        self._free: List[bytearray] = []
        self.allocated = 0
        self.reused = 0

    def acquire(self) -> bytearray:
        if self._free:
            self.reused += 1
            return self._free.pop()
        self.allocated += 1
        return bytearray(self.size)

    def release(self, buf) -> None:
        if isinstance(buf, memoryview):
            obj = buf.obj
            buf.release()
            buf = obj
        if (
            isinstance(buf, bytearray)
            and len(buf) == self.size
            and len(self._free) < self.capacity
        ):
            self._free.append(buf)


#: leftover size below which a partial-frame tail is shifted eagerly —
#: moving a few hundred bytes is cheaper than carrying a dead prefix
_COMPACT_EAGER = 4096


class FrameDecoder:
    """Incremental frame parser for a byte stream.

    ``feed`` accepts arbitrary chunk boundaries and returns every frame
    completed so far as ``(kind, payload)`` pairs.  :data:`KIND_BATCH`
    frames are expanded in place — callers receive the constituent
    data frames and never see the batch container.  After a
    :class:`~repro.errors.FramingError` the decoder is poisoned: the
    stream offset is unknowable, so every further feed re-raises.

    Consumed bytes are tracked as a read *offset* into the buffer
    rather than deleted per frame (the old ``del buffer[:n]`` shifted
    every remaining byte once per frame — quadratic on a chunk holding
    many frames).  The dead prefix is dropped at most once per feed:
    free when the buffer emptied, one counted shift
    (:attr:`compactions`) when a partial frame remains.

    With a *payload_pool*, large payloads that still fit the pool's
    buffer size are copied into pooled bytearrays and returned as
    exact-length memoryviews instead of fresh ``bytes`` objects — the
    decode-side mirror of the pooled sub-header encodes.  The copy
    itself is unavoidable (the frame bytes must outlive the stream
    buffer, whose compaction shift would be forbidden under a live
    export), but the *allocation* is recycled: call :meth:`recycle`
    with the frames once their payloads are decoded and the buffers
    return to the pool.

    Pooling is gated on ``pool_min`` (default: 3/4 of the pool's
    buffer size): for small payloads ``bytes(view)`` is a single C
    allocate-and-copy that pure-Python pooling cannot beat — measured
    ~4x slower on 50-byte event frames — so the hot path keeps it.
    Only near-pool-size payloads, where the memcpy dominates and the
    recycled allocation is the one that matters for GC pressure, take
    the pooled path.  Payloads larger than the pool's buffers fall
    back to plain ``bytes`` either way.
    """

    def __init__(
        self,
        *,
        max_frame: int = DEFAULT_MAX_FRAME,
        payload_pool: "Optional[BufferPool]" = None,
        pool_min: Optional[int] = None,
    ) -> None:
        if max_frame < 1:
            raise ValueError("max_frame must be >= 1")
        self.max_frame = max_frame
        self.payload_pool = payload_pool
        if pool_min is not None:
            self.pool_min = pool_min
        else:
            self.pool_min = (
                max(1, payload_pool.size * 3 // 4)
                if payload_pool is not None
                else 0
            )
        self._buffer = bytearray()
        self._pos = 0
        self._error: Optional[FramingError] = None
        self.frames_decoded = 0
        self.batches_decoded = 0
        self.bytes_consumed = 0
        #: payloads served from the pool (vs. fresh bytes objects)
        self.pooled_payloads = 0
        #: partial-frame buffer shifts — the only copies of buffered
        #: bytes the decoder ever performs besides the payload
        #: extraction itself; bounded by feed calls, not by frame count
        #: (the fuzz test asserts this)
        self.compactions = 0

    def _payload(self, view: memoryview, start: int, end: int):
        """Extract one payload — pooled memoryview when it's worth it."""
        pool = self.payload_pool
        length = end - start
        if pool is not None and self.pool_min <= length <= pool.size:
            buf = pool.acquire()
            buf[:length] = view[start:end]
            self.pooled_payloads += 1
            return memoryview(buf)[:length]
        return bytes(view[start:end])

    def recycle(self, frames: "List[Tuple[int, object]]") -> None:
        """Return pooled payload buffers from *frames* to the pool.

        Call after the payloads have been decoded (a deserialized
        envelope shares no state with the raw payload — the serializer
        copies every value out).  Frames whose payloads were plain
        ``bytes`` are ignored, so callers may pass every decoded frame
        back unconditionally.
        """
        pool = self.payload_pool
        if pool is None:
            return
        for _kind, payload in frames:
            if type(payload) is memoryview:
                pool.release(payload)

    def _expand_batch(
        self,
        view: memoryview,
        start: int,
        end: int,
        frames: List[Tuple[int, bytes]],
    ) -> None:
        """Append a batch frame's sub-frames to *frames* (or raise)."""
        pos = start
        count = 0
        while pos < end:
            if end - pos < SUB_HEADER_SIZE:
                raise FramingError(
                    f"truncated batch sub-header ({end - pos} bytes)"
                )
            kind, length = _SUB_HEADER.unpack_from(view, pos)
            if kind not in BATCHABLE_KINDS:
                raise FramingError(
                    f"frame kind 0x{kind:02x} is not allowed in a batch"
                )
            pos += SUB_HEADER_SIZE
            if end - pos < length:
                raise FramingError(
                    f"batch sub-frame of {length} bytes overruns its "
                    f"batch ({end - pos} left)"
                )
            frames.append((kind, self._payload(view, pos, pos + length)))
            pos += length
            count += 1
        if count == 0:
            raise FramingError("empty batch frame")
        self.frames_decoded += count

    def feed(self, data: bytes) -> List[Tuple[int, bytes]]:
        if self._error is not None:
            raise self._error
        buffer = self._buffer
        buffer += data
        pos = self._pos
        frames: List[Tuple[int, bytes]] = []
        view = memoryview(buffer)
        try:
            while len(buffer) - pos >= HEADER_SIZE:
                magic, version, kind, length = _HEADER.unpack_from(
                    buffer, pos
                )
                if magic != MAGIC:
                    raise FramingError(
                        f"bad frame magic {bytes(magic)!r}"
                    )
                if version != PROTOCOL_VERSION:
                    raise FramingError(
                        f"unsupported frame protocol version {version} "
                        f"(this build speaks {PROTOCOL_VERSION})"
                    )
                if kind not in KIND_NAMES:
                    raise FramingError(f"unknown frame kind 0x{kind:02x}")
                if length > self.max_frame:
                    raise FramingError(
                        f"frame of {length} bytes exceeds the "
                        f"{self.max_frame}-byte limit"
                    )
                if len(buffer) - pos < HEADER_SIZE + length:
                    break
                start = pos + HEADER_SIZE
                end = start + length
                if kind == KIND_BATCH:
                    self._expand_batch(view, start, end, frames)
                    self.batches_decoded += 1
                else:
                    frames.append((kind, self._payload(view, start, end)))
                    self.frames_decoded += 1
                pos = end
                self.bytes_consumed += HEADER_SIZE + length
        except FramingError as exc:
            self._error = exc
            raise
        finally:
            view.release()
            if pos:
                if pos == len(buffer):
                    del buffer[:]
                    pos = 0
                elif (
                    len(buffer) - pos <= _COMPACT_EAGER
                    or pos >= len(buffer) - pos
                ):
                    # Shift the partial tail at most once per feed.
                    del buffer[:pos]
                    pos = 0
                    self.compactions += 1
            self._pos = pos
        return frames

    @property
    def buffered(self) -> int:
        """Bytes awaiting a complete frame."""
        return len(self._buffer) - self._pos


class Hello:
    """Handshake: first frame on every connection, either direction.

    A hello carries identity only; the version is the frame header's.

    ``instance`` identifies the sending *process* (one random token per
    transport lifetime), not the connection: a reconnect from the same
    process presents the same token, a restarted process presents a
    fresh one.  Receivers key per-peer state that must survive
    reconnects — most importantly sequence-dedupe windows — on
    ``(instance, subscription)``, so a restarted sender whose sequence
    numbers begin again is never confused with a resumed one.
    """

    __slots__ = ("role", "name", "instance")

    def __init__(
        self, *, role: str = "peer", name: str = "", instance: str = ""
    ) -> None:
        self.role = role
        self.name = name
        self.instance = instance


class Heartbeat:
    """Liveness probe; ``sent_at`` is the sender's wall clock."""

    __slots__ = ("sent_at",)

    def __init__(self, sent_at: float = 0.0) -> None:
        self.sent_at = sent_at


class Bye:
    """Orderly end-of-stream: the sender is done after *sent* messages."""

    __slots__ = ("sent",)

    def __init__(self, sent: int = 0) -> None:
        self.sent = sent


class Telemetry:
    """One pushed fleet-telemetry report (receiver → broker/sender).

    ``payload`` is a nested plain-value mapping (the serializer's
    primitive types only): a ``MetricsRegistry.snapshot_delta`` since
    the previous push plus gauges, drift/fallback/ring-drop counts and
    the pusher's own health state.  ``source``/``instance`` identify the
    pushing process (same semantics as :class:`Hello`), ``seq`` is a
    per-process push counter so the aggregator can spot gaps, and
    ``sent_at`` is the pusher's wall clock for staleness accounting.

    Telemetry is a control-adjacent frame: deliberately *not* batchable
    (it must not wait behind an accumulating data batch — staleness is
    itself a health signal).
    """

    __slots__ = ("source", "instance", "seq", "sent_at", "payload")

    def __init__(
        self,
        *,
        source: str = "",
        instance: str = "",
        seq: int = 0,
        sent_at: float = 0.0,
        payload: Optional[dict] = None,
    ) -> None:
        self.source = source
        self.instance = instance
        self.seq = seq
        self.sent_at = sent_at
        self.payload = payload if payload is not None else {}


class NetEnvelopeCodec:
    """Map JECho envelopes (and control frames) to/from frame payloads.

    Bound to the application's :class:`SerializerRegistry` so event
    payloads and continuation variables of registered classes cross the
    wire exactly as the simulator costs them, and, on a receiver, to its
    handler's continuation schema (:meth:`bind`).  ``sent_at`` departure
    timestamps ride along on data frames so the receiving process can
    report real one-way latency (same-machine clocks in the harness).
    """

    def __init__(
        self, registry: Optional[SerializerRegistry] = None
    ) -> None:
        self.registry = registry or SerializerRegistry()
        self._serializer = Serializer(self.registry)
        #: resolves CONT frames' codes; unbound, it knows none
        self.schema = ContinuationSchema("unbound", ())

    def bind(self, schema: ContinuationSchema) -> "NetEnvelopeCodec":
        """A copy of this codec that decodes CONT frames against
        *schema*, the receiving handler's."""
        bound = copy.copy(self)
        bound.schema = schema
        return bound

    # -- encoding --------------------------------------------------------------

    def encode(self, envelope: object, *, sent_at: float = 0.0) -> Tuple[int, bytes]:
        """``(kind, payload)`` for any envelope/control object."""
        ser = self._serializer.serialize
        if isinstance(envelope, ContinuationEnvelope):
            return KIND_CONT, ser(
                (
                    envelope.subscription_id,
                    envelope.seq,
                    sent_at,
                    *envelope.continuation.body(),
                )
            )
        if isinstance(envelope, EventEnvelope):
            return KIND_EVENT, ser(
                (
                    envelope.seq,
                    sent_at,
                    envelope.trace,
                    envelope.payload,
                )
            )
        if isinstance(envelope, FeedbackEnvelope):
            try:
                body = pack_summary(envelope.demod_stats)
            except (struct.error, TypeError, ValueError, IndexError) as exc:
                raise ProtocolError(f"unencodable feedback: {exc!r}") from exc
            return KIND_FEEDBACK, ser(
                (envelope.subscription_id, envelope.seq, envelope.trace, body)
            )
        if isinstance(envelope, PlanEnvelope):
            plan = envelope.plan
            return KIND_PLAN, ser(
                (
                    envelope.subscription_id,
                    envelope.seq,
                    envelope.trace,
                    plan.name,
                    tuple(sorted((e[0], e[1]) for e in plan.active)),
                    envelope.version,
                )
            )
        if isinstance(envelope, Hello):
            return KIND_HELLO, ser(
                (envelope.role, envelope.name, envelope.instance)
            )
        if isinstance(envelope, Heartbeat):
            return KIND_HEARTBEAT, ser((envelope.sent_at,))
        if isinstance(envelope, Bye):
            return KIND_BYE, ser((envelope.sent,))
        if isinstance(envelope, Telemetry):
            return KIND_TELEMETRY, ser(
                (
                    envelope.source,
                    envelope.instance,
                    envelope.seq,
                    envelope.sent_at if sent_at == 0.0 else sent_at,
                    envelope.payload,
                )
            )
        raise ProtocolError(
            f"cannot encode {type(envelope).__name__} as a net frame"
        )

    def encode_frame(self, envelope: object, *, sent_at: float = 0.0) -> bytes:
        kind, payload = self.encode(envelope, sent_at=sent_at)
        return encode_frame(kind, payload)

    def encode_frame_parts(
        self, envelope: object, *, sent_at: float = 0.0
    ) -> Tuple[int, bytes, bytes]:
        """``(kind, header, payload)`` — the scatter-gather send shape.

        The payload buffer the serializer produced goes to the socket
        layer by reference; batching-capable writers also need the kind
        to decide whether the frame may ride in a batch.
        """
        kind, payload = self.encode(envelope, sent_at=sent_at)
        return kind, frame_header(kind, len(payload)), payload

    # -- decoding --------------------------------------------------------------

    def decode(self, kind: int, payload: bytes) -> Tuple[object, float]:
        """``(envelope, sent_at)``; control frames report ``sent_at=0``."""
        value = self._serializer.deserialize(payload)
        try:
            if kind == KIND_CONT:
                env = ContinuationEnvelope(
                    self.schema.read(value, 3), value[0], value[1]
                )
                return env, value[2]
            if kind == KIND_EVENT:
                seq, sent_at, trace, app_payload = value
                env = EventEnvelope(payload=app_payload, seq=seq)
                env.trace = None if trace is None else (trace[0], trace[1])
                return env, sent_at
            if kind == KIND_FEEDBACK:
                sub_id, seq, trace, body = value
                env = FeedbackEnvelope(
                    subscription_id=sub_id,
                    demod_stats=unpack_summary(body),
                    seq=seq,
                )
                env.trace = None if trace is None else (trace[0], trace[1])
                return env, 0.0
            if kind == KIND_PLAN:
                sub_id, seq, trace, name, edges, version = value
                if type(version) is not int or version < 1:
                    raise ProtocolError(
                        f"PLAN version must be an int >= 1, got {version!r}"
                    )
                plan = PartitioningPlan(
                    active=frozenset((e[0], e[1]) for e in edges),
                    name=name,
                )
                env = PlanEnvelope(
                    subscription_id=sub_id,
                    plan=plan,
                    seq=seq,
                    version=version,
                )
                env.trace = None if trace is None else (trace[0], trace[1])
                return env, 0.0
            if kind == KIND_HELLO:
                role, name, instance = value
                return Hello(role=role, name=name, instance=instance), 0.0
            if kind == KIND_HEARTBEAT:
                (sent_at,) = value
                return Heartbeat(sent_at=sent_at), 0.0
            if kind == KIND_BYE:
                (sent,) = value
                return Bye(sent=sent), 0.0
            if kind == KIND_TELEMETRY:
                source, instance, seq, sent_at, payload = value
                if not isinstance(payload, dict):
                    raise ProtocolError(
                        "telemetry payload must be a mapping"
                    )
                return (
                    Telemetry(
                        source=source,
                        instance=instance,
                        seq=seq,
                        sent_at=sent_at,
                        payload=payload,
                    ),
                    sent_at,
                )
        except ProtocolError:
            raise
        except (struct.error, TypeError, ValueError, LookupError) as exc:
            raise ProtocolError(
                f"malformed {KIND_NAMES.get(kind, hex(kind))} frame: "
                f"{type(exc).__name__}: {exc}"
            ) from exc
        raise FramingError(f"unknown frame kind 0x{kind:02x}")
