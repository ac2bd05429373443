"""Framing codec: round-trips, incremental decoding, fuzzed boundaries."""

from __future__ import annotations

import random

import pytest

from repro.core.continuation import ContinuationSchema
from repro.core.plan import PartitioningPlan
from repro.core.runtime.feedback import RemoteProfilingProxy, pack_summary
from repro.core.runtime.profiling import FeedbackSummary
from repro.errors import (
    ContinuationError,
    FramingError,
    ProtocolError,
    SerializationError,
)
from repro.jecho.events import (
    ContinuationEnvelope,
    EventEnvelope,
    FeedbackEnvelope,
    PlanEnvelope,
)
from repro.net.framing import (
    DEFAULT_MAX_FRAME,
    HEADER_SIZE,
    KIND_BATCH,
    KIND_BYE,
    KIND_CONT,
    KIND_EVENT,
    KIND_FEEDBACK,
    KIND_HEARTBEAT,
    KIND_HELLO,
    KIND_PLAN,
    MAGIC,
    PROTOCOL_VERSION,
    SUB_HEADER_SIZE,
    BufferPool,
    Bye,
    FrameDecoder,
    Heartbeat,
    Hello,
    NetEnvelopeCodec,
    encode_batch_parts,
    encode_frame,
    encode_frame_parts,
)


#: the continuation schema of a handler "f" with two split points
SCHEMA = ContinuationSchema(
    "f",
    [((4, 5), "pse3", ("x", "n"), False), ((1, 2), "p", ("v",), False)],
)


def _message(edge, variables, trace=None):
    return SCHEMA.by_edge[edge].pack(variables, trace)


def _roundtrip(codec, envelope, *, sent_at=0.0):
    kind, payload = codec.encode(envelope, sent_at=sent_at)
    frames = FrameDecoder().feed(encode_frame(kind, payload))
    assert len(frames) == 1
    assert frames[0][0] == kind
    return codec.decode(*frames[0])


# -- envelope round-trips -------------------------------------------------------


def test_event_envelope_roundtrip_with_trace_and_timestamp():
    codec = NetEnvelopeCodec()
    env = EventEnvelope(payload={"k": [1, 2.5, "s"]}, seq=9)
    env.trace = (7, 13)
    out, sent_at = _roundtrip(codec, env, sent_at=42.25)
    assert isinstance(out, EventEnvelope)
    assert out.payload == {"k": [1, 2.5, "s"]}
    assert out.seq == 9
    assert out.trace == (7, 13)
    assert sent_at == 42.25


def test_continuation_v2_traced_roundtrip():
    codec = NetEnvelopeCodec().bind(SCHEMA)
    message = _message(
        (4, 5), {"x": [1.0, 2.0], "n": 3}, trace=(100, 200)
    )
    env = ContinuationEnvelope(
        continuation=message, subscription_id=2, seq=17
    )
    out, sent_at = _roundtrip(codec, env, sent_at=5.5)
    decoded = out.continuation
    assert decoded.function == "f"
    assert decoded.pse_id == "pse3"
    assert decoded.edge == (4, 5)
    assert decoded.variables == {"x": [1.0, 2.0], "n": 3}
    assert decoded.trace == (100, 200)
    assert out.subscription_id == 2
    assert out.seq == 17
    assert sent_at == 5.5


def test_continuation_v1_untraced_roundtrip():
    codec = NetEnvelopeCodec().bind(SCHEMA)
    message = _message((1, 2), {})
    env = ContinuationEnvelope(
        continuation=message, subscription_id=1, seq=0
    )
    kind, payload = codec.encode(env)
    # the three envelope fields, the code, v's placeholder, v's absence
    assert codec._serializer.deserialize(payload) == (1, 0, 0.0, 0, None, 1)
    out, _ = _roundtrip(codec, env)
    assert out.continuation.trace is None
    assert out.continuation.edge == (1, 2)
    assert out.continuation.variables == {}


def test_continuation_unknown_pse_code_rejected():
    # A code outside the receiver's schema means the peers built
    # different cuts: it must fail loudly, through the net codec as
    # well; so must a body of the wrong length, and any CONT frame on a
    # codec no handler bound, which knows no split point.
    codec = NetEnvelopeCodec().bind(SCHEMA)
    ser = codec._serializer.serialize
    with pytest.raises(SerializationError):
        codec.decode(KIND_CONT, ser((1, 0, 1.0, 2, "x")))
    with pytest.raises(ContinuationError):
        codec.decode(KIND_CONT, ser((1, 0, 1.0, 1, 3)))
    with pytest.raises(SerializationError):
        NetEnvelopeCodec().decode(KIND_CONT, ser((1, 0, 1.0, 0, "v")))


def _summary(alpha=0.3):
    """Two entries: every stat's k implied, and one explicit k."""
    return FeedbackSummary(
        alpha,
        observations=7,
        messages=4,
        local_completions=1,
        sender_rate=(4, 2.5e-8, 1.5e-8),
        mod_totals=[120.0, 130.0, 125.0],
        entries=(
            (3, 4, 4, 3, 4, 88.0, 61.5, 5, 10.0, 7.25),
            (7, 8, 3, 0, 0, 1, 40.0, 40.0, 5, 55.0, 38.0),
        ),
    )


def test_feedback_summary_roundtrip():
    codec = NetEnvelopeCodec()
    env = FeedbackEnvelope(subscription_id=5, demod_stats=_summary(), seq=2)
    env.trace = (11, 12)
    out, _ = _roundtrip(codec, env)
    assert isinstance(out.demod_stats, FeedbackSummary)
    assert out.demod_stats == _summary()
    assert out.demod_stats.records == 7 + 4 + 1 + 4 + 3
    assert (out.subscription_id, out.seq, out.trace) == (5, 2, (11, 12))


def test_feedback_of_any_other_shape_is_a_protocol_error():
    """One feedback shape, ``(sub_id, seq, trace, packed body)``: any
    other arity, a body that is not the packed layout — the pre-packing
    summary tuple included — or a body the layout does not end at fails
    at decode, loudly."""
    codec = NetEnvelopeCodec()
    ser = codec._serializer.serialize
    body = pack_summary(_summary())
    # the first entry's mask sits after the 48-byte head, 3 mod totals
    # and the entry's four u32 counts
    mask_at = 48 + 3 * 8 + 16
    reserved = bytearray(body)
    reserved[mask_at + 1] |= 0x80
    absent = bytearray(body)
    absent[mask_at] = 0b010  # k implied, but the stat is not present
    for payload in (
        (1, 2, None),
        (1, 2, None, body, 0),
        (1, 2, None, None),
        (1, 2, None, tuple(_summary())),
        (1, 2, None, body[:-1]),
        (1, 2, None, body[:10]),
        (1, 2, None, body + b"\0"),
        (1, 2, None, bytes(reserved)),
        (1, 2, None, bytes(absent)),
    ):
        with pytest.raises(ProtocolError):
            codec.decode(KIND_FEEDBACK, ser(payload))
    env, _ = codec.decode(KIND_FEEDBACK, ser((1, 2, None, body)))
    assert env.demod_stats == _summary()


def test_feedback_the_layout_cannot_carry_is_a_protocol_error_at_encode():
    codec = NetEnvelopeCodec()
    entry = _summary().entries[0]
    for summary in (
        _summary()._replace(observations=1 << 32),
        _summary()._replace(messages=-1),
        _summary()._replace(entries=(entry[:-1],)),
        # a stat tag out of range, and one repeated
        _summary()._replace(entries=(entry[:4] + (3, 1, 2.0, 2.0),)),
        _summary()._replace(entries=(entry + entry[4:7],)),
    ):
        with pytest.raises(ProtocolError):
            codec.encode(
                FeedbackEnvelope(subscription_id=1, demod_stats=summary)
            )


def test_unmergeable_summary_is_counted_and_never_half_applied():
    """A summary folded with another α, or naming an edge that is not a
    PSE here, decodes — the codec knows neither the unit's α nor its cut
    — so the receiver rejects it whole and counts it."""
    from repro.apps.sensor.pipeline import build_partitioned_process
    from repro.net.endpoint import NetReceiverEndpoint

    partitioned, _ = build_partitioned_process(n_stages=4)
    receiver = NetReceiverEndpoint(partitioned)
    edge = next(iter(partitioned.cut.pses))
    codec = NetEnvelopeCodec()

    def deliver(alpha, mangle=lambda summary: summary):
        proxy = RemoteProfilingProxy(partitioned.cut, ewma_alpha=alpha)
        proxy.record_message()
        proxy.record_edge_observation(edge, work_before=9.0, is_split=True)
        env = FeedbackEnvelope(
            subscription_id=1, demod_stats=mangle(proxy.flush()[0])
        )
        receiver._handle_feedback(_roundtrip(codec, env)[0])
        return (
            receiver.feedback_rejected,
            receiver.feedback_batches,
            receiver.profiling.messages_seen,
            receiver.profiling.stats[edge].splits,
        )

    alpha = receiver.profiling.ewma_alpha
    assert deliver(alpha / 2) == (1, 0, 0, 0)
    assert deliver(
        alpha,
        lambda s: s._replace(entries=s.entries + ((90, 91, 1, 1),)),
    ) == (2, 0, 0, 0)
    assert deliver(alpha) == (2, 1, 1, 1)


def test_plan_envelope_roundtrip():
    codec = NetEnvelopeCodec()
    plan = PartitioningPlan(
        active=frozenset({(2, 3), (9, 10)}), name="min-cut"
    )
    env = PlanEnvelope(subscription_id=1, plan=plan, seq=6, version=1)
    env.trace = (1, 2)
    out, _ = _roundtrip(codec, env)
    assert out.plan.active == plan.active
    assert out.plan.name == "min-cut"
    assert out.trace == (1, 2)


def test_plan_envelope_version_roundtrip():
    codec = NetEnvelopeCodec()
    plan = PartitioningPlan(active=frozenset({(2, 3)}), name="v")
    env = PlanEnvelope(subscription_id=1, plan=plan, seq=1, version=7)
    out, _ = _roundtrip(codec, env)
    assert out.version == 7


def test_plan_of_any_other_shape_or_version_is_a_protocol_error():
    """One PLAN shape, always versioned: the unversioned 5-tuple and a
    version that is not an int >= 1 fail at decode."""
    codec = NetEnvelopeCodec()
    ser = codec._serializer.serialize
    good, _ = codec.decode(KIND_PLAN, ser((1, 3, None, "p", ((2, 3),), 1)))
    assert (good.version, good.plan.active) == (1, frozenset({(2, 3)}))
    for payload in (
        (1, 3, None, "old", ((2, 3),)),
        (1, 3, None, "p", ((2, 3),), 0),
        (1, 3, None, "p", ((2, 3),), -4),
        (1, 3, None, "p", ((2, 3),), 2.0),
        (1, 3, None, "p", ((2, 3),), True),
        (1, 3, None, "p", ((2, 3),), 1, 0),
    ):
        with pytest.raises(ProtocolError):
            codec.decode(KIND_PLAN, ser(payload))


def test_hello_instance_roundtrip_and_legacy_decode():
    """A hello carries identity only; the version lives in the frame
    header.  The 4-tuple, 5-tuple (instance) and 6-tuple (feature)
    hellos of the negotiated wire fail at decode."""
    codec = NetEnvelopeCodec()
    hello, _ = _roundtrip(
        codec, Hello(role="sender", name="a", instance="tok123")
    )
    assert (hello.role, hello.name, hello.instance) == (
        "sender",
        "a",
        "tok123",
    )
    assert Hello.__slots__ == ("role", "name", "instance")
    ser = codec._serializer.serialize
    for payload in (
        (1, 2, "sender", "a"),
        (1, 2, "sender", "a", "tok"),
        (1, 2, "sender", "a", "tok", ("batch", "telemetry")),
        ("sender", "a"),
    ):
        with pytest.raises(ProtocolError):
            codec.decode(KIND_HELLO, ser(payload))


def test_control_frames_roundtrip():
    codec = NetEnvelopeCodec()
    hello, _ = _roundtrip(
        codec, Hello(role="sender", name="host-a")
    )
    assert (hello.role, hello.name, hello.instance) == (
        "sender",
        "host-a",
        "",
    )
    beat, _ = _roundtrip(codec, Heartbeat(sent_at=123.5))
    assert beat.sent_at == 123.5
    bye, _ = _roundtrip(codec, Bye(sent=42))
    assert bye.sent == 42


def test_unencodable_object_raises_protocol_error():
    with pytest.raises(ProtocolError):
        NetEnvelopeCodec().encode(object())


def test_malformed_payload_raises_protocol_error():
    codec = NetEnvelopeCodec().bind(SCHEMA)
    short = codec._serializer.serialize((1,))  # CONT needs 4 fields
    with pytest.raises(ProtocolError):
        codec.decode(KIND_CONT, short)


# -- incremental decoding -------------------------------------------------------


def _sample_frames():
    codec = NetEnvelopeCodec().bind(SCHEMA)
    envelopes = [
        Hello(role="sender", name="fuzz"),
        EventEnvelope(payload=[1, 2, 3], seq=0),
        ContinuationEnvelope(
            continuation=_message(
                (1, 2), {"v": list(range(20))}, trace=(9, 9)
            ),
            subscription_id=1,
            seq=1,
        ),
        FeedbackEnvelope(
            subscription_id=1,
            demod_stats=_summary(),
            seq=2,
        ),
        PlanEnvelope(
            subscription_id=1,
            plan=PartitioningPlan(active=frozenset({(5, 6)})),
            seq=3,
            version=1,
        ),
        Heartbeat(sent_at=1.0),
        Bye(sent=3),
    ]
    frames = [codec.encode(e, sent_at=2.0) for e in envelopes]
    stream = b"".join(encode_frame(k, p) for k, p in frames)
    return codec, frames, stream


def test_byte_at_a_time_feed():
    codec, frames, stream = _sample_frames()
    decoder = FrameDecoder()
    collected = []
    for i in range(len(stream)):
        collected.extend(decoder.feed(stream[i : i + 1]))
    assert [k for k, _ in collected] == [k for k, _ in frames]
    assert [p for _, p in collected] == [p for _, p in frames]
    assert decoder.buffered == 0
    assert decoder.frames_decoded == len(frames)
    assert decoder.bytes_consumed == len(stream)


def test_fuzzed_chunk_boundaries_preserve_frames():
    codec, frames, stream = _sample_frames()
    rng = random.Random(20030604)
    for _ in range(50):
        decoder = FrameDecoder()
        collected = []
        position = 0
        while position < len(stream):
            step = rng.randint(1, 64)
            collected.extend(
                decoder.feed(stream[position : position + step])
            )
            position += step
        assert [k for k, _ in collected] == [k for k, _ in frames]
        assert [p for _, p in collected] == [p for _, p in frames]
        # every decoded payload still parses to a valid envelope
        for kind, payload in collected:
            codec.decode(kind, payload)


def test_interleaved_garbage_poisons_decoder():
    decoder = FrameDecoder()
    with pytest.raises(FramingError):
        decoder.feed(b"XX" + bytes(10))
    # poisoned: the stream offset is lost, every further feed re-raises
    with pytest.raises(FramingError):
        decoder.feed(b"")


def test_unknown_version_and_kind_rejected():
    with pytest.raises(FramingError):
        FrameDecoder().feed(
            MAGIC + bytes([PROTOCOL_VERSION + 1, KIND_HELLO]) + bytes(4)
        )
    with pytest.raises(FramingError):
        FrameDecoder().feed(
            MAGIC + bytes([PROTOCOL_VERSION, 0x7F]) + bytes(4)
        )


def test_a_version_2_frame_is_refused():
    """Version 2 shipped FEEDBACK summaries as generic tuples and
    version 3 continuations with names on the wire; a peer of either
    build fails at its first frame, whatever the kind."""
    assert PROTOCOL_VERSION == 4
    for version in (2, 3):
        for kind in (KIND_HELLO, KIND_FEEDBACK, KIND_CONT):
            with pytest.raises(FramingError, match="version"):
                FrameDecoder().feed(MAGIC + bytes([version, kind]) + bytes(4))


def test_oversized_frame_rejected_before_buffering():
    decoder = FrameDecoder(max_frame=100)
    header = MAGIC + bytes([PROTOCOL_VERSION, KIND_EVENT])
    header += (101).to_bytes(4, "big")
    with pytest.raises(FramingError):
        decoder.feed(header)
    # default limit admits large frames up to the ceiling
    assert DEFAULT_MAX_FRAME == 16 * 1024 * 1024


def test_encode_frame_rejects_unknown_kind():
    with pytest.raises(FramingError):
        encode_frame(0x7F, b"")


def test_partial_header_is_not_an_error():
    decoder = FrameDecoder()
    assert decoder.feed(MAGIC) == []
    assert decoder.buffered == len(MAGIC)
    rest = bytes([PROTOCOL_VERSION, KIND_HEARTBEAT]) + (0).to_bytes(4, "big")
    frames = decoder.feed(rest)
    assert frames == [(KIND_HEARTBEAT, b"")]


def test_header_size_matches_layout():
    frame = encode_frame(KIND_BYE, b"xyz")
    assert len(frame) == HEADER_SIZE + 3
    assert frame[:2] == MAGIC
    assert frame[2] == PROTOCOL_VERSION
    assert frame[3] == KIND_BYE
    assert int.from_bytes(frame[4:8], "big") == 3


def test_encode_frame_parts_shares_payload_buffer():
    payload = b"p" * 64
    header, out = encode_frame_parts(KIND_EVENT, payload)
    assert out is payload  # by reference — the send path never copies
    assert header == frame_bytes_header(KIND_EVENT, 64)


def frame_bytes_header(kind, length):
    return MAGIC + bytes([PROTOCOL_VERSION, kind]) + length.to_bytes(4, "big")


# -- batch frames ---------------------------------------------------------------


def _data_frames():
    codec = NetEnvelopeCodec().bind(SCHEMA)
    envelopes = [
        EventEnvelope(payload=[1, 2, 3], seq=0),
        ContinuationEnvelope(
            continuation=_message((1, 2), {"v": list(range(8))}),
            subscription_id=1,
            seq=1,
        ),
        FeedbackEnvelope(
            subscription_id=1,
            demod_stats=_summary(),
            seq=2,
        ),
    ]
    return codec, [codec.encode(e, sent_at=1.0) for e in envelopes]


def test_batch_roundtrip_expands_to_constituent_frames():
    codec, frames = _data_frames()
    parts = encode_batch_parts(frames)
    wire = b"".join(parts)
    decoder = FrameDecoder()
    out = decoder.feed(wire)
    assert out == frames
    assert decoder.batches_decoded == 1
    assert decoder.frames_decoded == len(frames)
    # every expanded payload decodes as a valid envelope
    for kind, payload in out:
        codec.decode(kind, payload)


def test_batch_parts_share_payload_buffers():
    _, frames = _data_frames()
    parts = encode_batch_parts(frames)
    # [batch_header, sub0, payload0, sub1, payload1, ...]
    assert len(parts) == 1 + 2 * len(frames)
    for (kind, payload), sub, out in zip(
        frames, parts[1::2], parts[2::2]
    ):
        assert out is payload
        assert bytes(sub) == bytes([kind]) + len(payload).to_bytes(4, "big")
    declared = int.from_bytes(parts[0][4:8], "big")
    assert declared == sum(len(b) for b in parts[1:])


def test_batch_split_across_chunk_boundaries():
    _, frames = _data_frames()
    wire = b"".join(encode_batch_parts(frames))
    rng = random.Random(7)
    for _ in range(20):
        decoder = FrameDecoder()
        collected = []
        position = 0
        while position < len(wire):
            step = rng.randint(1, 16)
            collected.extend(decoder.feed(wire[position : position + step]))
            position += step
        assert collected == frames


def test_empty_batch_rejected_on_encode_and_decode():
    with pytest.raises(FramingError):
        encode_batch_parts([])
    with pytest.raises(FramingError):
        FrameDecoder().feed(encode_frame(KIND_BATCH, b""))


def test_non_batchable_kind_rejected_on_encode():
    with pytest.raises(FramingError, match="cannot ride in a batch"):
        encode_batch_parts([(KIND_HEARTBEAT, b"")])
    with pytest.raises(FramingError, match="cannot ride in a batch"):
        encode_batch_parts([(KIND_PLAN, b"x")])


def test_nested_or_control_sub_frame_rejected_on_decode():
    sub = bytes([KIND_BATCH]) + (0).to_bytes(4, "big")
    with pytest.raises(FramingError, match="not allowed in a batch"):
        FrameDecoder().feed(encode_frame(KIND_BATCH, sub))
    sub = bytes([KIND_HELLO]) + (0).to_bytes(4, "big")
    with pytest.raises(FramingError, match="not allowed in a batch"):
        FrameDecoder().feed(encode_frame(KIND_BATCH, sub))


def test_truncated_sub_header_rejected():
    payload = bytes([KIND_EVENT]) + (1).to_bytes(4, "big") + b"x" + b"\x10"
    with pytest.raises(FramingError, match="truncated batch sub-header"):
        FrameDecoder().feed(encode_frame(KIND_BATCH, payload))


def test_overrunning_sub_frame_rejected():
    payload = bytes([KIND_EVENT]) + (99).to_bytes(4, "big") + b"short"
    with pytest.raises(FramingError, match="overruns"):
        FrameDecoder().feed(encode_frame(KIND_BATCH, payload))


def test_batch_sub_frames_count_toward_decoder_stats():
    _, frames = _data_frames()
    wire = b"".join(encode_batch_parts(frames)) + encode_frame(
        KIND_HEARTBEAT, b""
    )
    decoder = FrameDecoder()
    out = decoder.feed(wire)
    assert len(out) == len(frames) + 1
    assert decoder.frames_decoded == len(frames) + 1
    assert decoder.bytes_consumed == len(wire)


# -- buffer pool ----------------------------------------------------------------


def test_buffer_pool_reuses_released_buffers():
    pool = BufferPool(capacity=4)
    first = pool.acquire()
    pool.release(first)
    second = pool.acquire()
    assert second is first
    assert pool.allocated == 1
    assert pool.reused == 1


def test_buffer_pool_release_accepts_memoryviews():
    pool = BufferPool()
    buf = pool.acquire()
    view = memoryview(buf)[:SUB_HEADER_SIZE]
    pool.release(view)
    assert pool.acquire() is buf


def test_pooled_batch_sub_headers_match_unpooled():
    _, frames = _data_frames()
    pool = BufferPool()
    pooled = encode_batch_parts(frames, pool=pool)
    plain = encode_batch_parts(frames)
    assert [bytes(b) for b in pooled] == [bytes(b) for b in plain]
    for sub in pooled[1::2]:
        pool.release(sub)
    again = encode_batch_parts(frames, pool=pool)
    assert [bytes(b) for b in again] == [bytes(b) for b in plain]
    assert pool.reused == len(frames)


# -- decoder copy behavior ------------------------------------------------------


def test_single_feed_of_many_frames_never_compacts():
    # The quadratic-shift regression test: a chunk holding N complete
    # frames must decode with zero buffer compactions (the old decoder
    # shifted the buffer once per frame).
    frame = encode_frame(KIND_EVENT, b"e" * 20)
    decoder = FrameDecoder()
    out = decoder.feed(frame * 2000)
    assert len(out) == 2000
    assert decoder.compactions == 0
    assert decoder.buffered == 0


def test_compactions_bounded_by_feeds_not_frames():
    codec, frames, stream = _sample_frames()
    rng = random.Random(99)
    for _ in range(10):
        decoder = FrameDecoder()
        feeds = 0
        position = 0
        collected = []
        while position < len(stream):
            step = rng.randint(1, 48)
            collected.extend(decoder.feed(stream[position : position + step]))
            position += step
            feeds += 1
        assert [k for k, _ in collected] == [k for k, _ in frames]
        # at most one compaction per feed call, regardless of frames
        assert decoder.compactions <= feeds


# -- decode-side payload pooling ------------------------------------------------


def test_pooled_decoder_decodes_identically_and_reuses_buffers():
    # Payload pooling must be allocation reuse, never value corruption:
    # decoded envelopes from a pooled decoder match the plain decoder's
    # byte for byte, and recycling hands the same bytearray objects
    # back to the next frames (zero fresh payload allocations in steady
    # state).
    codec, frames, stream = _sample_frames()
    pool = BufferPool(size=4096, capacity=8)
    decoder = FrameDecoder(payload_pool=pool, pool_min=1)
    out = decoder.feed(stream)
    assert [k for k, _ in out] == [k for k, _ in frames]
    assert decoder.pooled_payloads == len(frames)
    decoded = [codec.decode(k, p) for k, p in out]
    plain = [
        codec.decode(k, p) for k, p in FrameDecoder().feed(stream)
    ]
    assert len(decoded) == len(plain)
    for got, want in zip(decoded, plain):
        assert type(got[0]) is type(want[0])
    # Recycle, then feed again: the pool must serve the same buffers.
    first_ids = {
        id(p.obj) for _, p in out if type(p) is memoryview
    }
    decoder.recycle(out)
    out2 = decoder.feed(stream)
    second_ids = {
        id(p.obj) for _, p in out2 if type(p) is memoryview
    }
    assert first_ids & second_ids, "recycled buffers were not reused"


def test_pooled_payloads_are_exact_length_views():
    # deserialize() rejects trailing bytes, so a pooled payload must be
    # an exact-length view of the oversized pooled buffer.
    pool = BufferPool(size=4096, capacity=4)
    decoder = FrameDecoder(payload_pool=pool, pool_min=1)
    payload = b"x" * 33
    (kind, view), = decoder.feed(encode_frame(KIND_EVENT, payload))
    assert type(view) is memoryview
    assert len(view) == 33
    assert bytes(view) == payload


def test_payloads_larger_than_pool_fall_back_to_bytes():
    pool = BufferPool(size=64, capacity=4)
    decoder = FrameDecoder(payload_pool=pool, pool_min=1)
    big = b"y" * 200
    (kind, payload), = decoder.feed(encode_frame(KIND_EVENT, big))
    assert type(payload) is bytes
    assert payload == big
    assert decoder.pooled_payloads == 0


def test_small_payloads_skip_the_pool_by_default():
    # pool_min defaults to 3/4 of the pool buffer: small hot-path
    # frames must keep the single-C-call bytes() extraction (pooling
    # them measures ~4x slower), while near-pool-size payloads pool.
    pool = BufferPool(size=4096, capacity=4)
    decoder = FrameDecoder(payload_pool=pool)
    assert decoder.pool_min == 3072
    (kind, small), = decoder.feed(encode_frame(KIND_EVENT, b"x" * 64))
    assert type(small) is bytes
    assert decoder.pooled_payloads == 0
    (kind, big), = decoder.feed(encode_frame(KIND_EVENT, b"y" * 3500))
    assert type(big) is memoryview
    assert decoder.pooled_payloads == 1


def test_recycled_buffer_mutation_cannot_alias_decoded_values():
    # A decoded envelope must not share storage with the pool: after
    # recycling and decoding a second frame into the same buffer, the
    # first envelope's values must be unchanged.
    codec = NetEnvelopeCodec()
    pool = BufferPool(size=4096, capacity=2)
    decoder = FrameDecoder(payload_pool=pool, pool_min=1)
    env_a = EventEnvelope(payload={"blob": b"A" * 50, "tag": "aa"}, seq=1)
    env_b = EventEnvelope(payload={"blob": b"B" * 50, "tag": "bb"}, seq=2)
    ka, pa = codec.encode(env_a, sent_at=1.0)
    kb, pb = codec.encode(env_b, sent_at=1.0)
    (frame_a,) = decoder.feed(encode_frame(ka, pa))
    decoded_a = codec.decode(*frame_a)[0]
    decoder.recycle([frame_a])
    (frame_b,) = decoder.feed(encode_frame(kb, pb))
    codec.decode(*frame_b)
    assert decoded_a.payload["blob"] == b"A" * 50
    assert decoded_a.payload["tag"] == "aa"


# -- retired kinds ---------------------------------------------------------------


def test_retired_election_kind_is_refused():
    """0x22 carried the receiver election, which is gone: a frame of
    that kind is an unknown kind on every path."""
    serializer = NetEnvelopeCodec()._serializer
    payload = serializer.serialize(("coordinator", 1, "m", 1, 0.0))
    header = MAGIC + bytes([PROTOCOL_VERSION, 0x22])
    with pytest.raises(FramingError, match="unknown frame kind 0x22"):
        FrameDecoder().feed(header + len(payload).to_bytes(4, "big") + payload)
    with pytest.raises(FramingError, match="unknown frame kind 0x22"):
        NetEnvelopeCodec().decode(0x22, payload)
    with pytest.raises(FramingError, match="unknown frame kind 0x22"):
        encode_frame(0x22, payload)
