"""Mutation fuzz of CONT frames: a damaged frame is refused, never misread.

Valid CONT frames of three handlers' schemas (the sensor chain, the
arithmetic loop, the imagestream push) — untraced and traced, with and
without an absence mask — are truncated, bit-flipped, given a rewritten
length field, followed by junk, or spliced with a second frame, then fed
through ``FrameDecoder.feed`` and the bound ``NetEnvelopeCodec.decode``,
the path ``FrameServer`` takes.  Each decoded frame must re-encode to the
bytes it was decoded from; everything else must be one of the errors
``FrameServer`` counts (``framing_errors``, ``decode_errors``).
"""

from __future__ import annotations

import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.imagestream.app import build_partitioned_push
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.api import MethodPartitioner
from repro.core.costmodels import DataSizeCostModel
from repro.errors import (
    ContinuationError,
    FramingError,
    ProtocolError,
    SerializationError,
)
from repro.ir.registry import default_registry
from repro.jecho.events import ContinuationEnvelope
from repro.net.framing import (
    KIND_CONT,
    FrameDecoder,
    NetEnvelopeCodec,
    encode_frame,
)
from repro.serialization import SerializerRegistry
from repro.serialization import format as wf

#: what ``FrameServer`` counts instead of dying on a frame
REFUSALS = (FramingError, ProtocolError, SerializationError, ContinuationError)

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


def _arith():
    registry = default_registry()
    registry.register_function(
        "emit", lambda value: None, receiver_only=True, pure=False
    )
    return MethodPartitioner(registry, SerializerRegistry()).partition(
        ARITH_SOURCE, DataSizeCostModel(), constants={"N_ITERS": 2}
    )


HANDLERS = {
    "sensor": build_partitioned_process(n_stages=6)[0],
    "arith": _arith(),
    "imagestream": build_partitioned_push()[0],
}

CODECS = {
    name: NetEnvelopeCodec(partitioned.serializer_registry).bind(
        partitioned.schema
    )
    for name, partitioned in HANDLERS.items()
}

VALUES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63 - 1)
    | st.floats()
    | st.text(max_size=8)
    | st.binary(max_size=8)
    | st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=4)
    | st.lists(st.floats(allow_nan=False), max_size=4)
    | st.tuples(st.integers(-1000, 1000), st.text(max_size=4))
)

TRACES = st.none() | st.tuples(
    st.integers(min_value=0, max_value=2**40),
    st.integers(min_value=0, max_value=2**40),
)


@st.composite
def cont_frames(draw, handler=None):
    """``(handler, frame bytes)`` of one valid CONT frame."""
    if handler is None:
        handler = draw(st.sampled_from(sorted(HANDLERS)))
    slot = draw(st.sampled_from(HANDLERS[handler].schema.slots))
    env = {n: draw(VALUES) for n in slot.names if draw(st.booleans())}
    message = slot.pack(env, draw(TRACES))
    envelope = ContinuationEnvelope(
        message,
        draw(st.integers(min_value=0, max_value=2**31)),
        draw(st.integers(min_value=0, max_value=2**31)),
    )
    sent_at = draw(st.floats(min_value=0, max_value=2e9))
    return handler, CODECS[handler].encode_frame(envelope, sent_at=sent_at)


@st.composite
def mutated_frames(draw):
    """``(handler, bytes)``: a valid CONT frame, damaged one way."""
    handler, frame = draw(cont_frames())
    how = draw(
        st.sampled_from(["truncate", "flip", "length", "junk", "splice"])
    )
    if how == "truncate":
        return handler, frame[: draw(st.integers(0, len(frame) - 1))]
    if how == "flip":
        data = bytearray(frame)
        for _ in range(draw(st.integers(1, 4))):
            data[draw(st.integers(0, len(data) - 1))] ^= draw(
                st.integers(1, 255)
            )
        return handler, bytes(data)
    if how == "length":
        length = draw(
            st.integers(0, len(frame) + 64) | st.integers(0, 2**32 - 1)
        )
        return handler, frame[:4] + struct.pack(">I", length) + frame[8:]
    if how == "junk":
        return handler, frame + draw(st.binary(min_size=1, max_size=24))
    _, other = draw(cont_frames(handler))
    cut = draw(st.integers(0, len(frame)))
    resume = draw(st.integers(0, len(other)))
    return handler, frame[:cut] + other[resume:]


def _receive(codec, data):
    """Feed *data* as one read and decode every frame: the list of
    ``(kind, payload, decoded envelope and sent_at)``, or the refusal."""
    try:
        frames = FrameDecoder().feed(data)
    except FramingError as exc:
        return exc
    out = []
    for kind, payload in frames:
        try:
            out.append((kind, payload, codec.decode(kind, payload)))
        except REFUSALS as exc:
            out.append((kind, payload, exc))
    return out


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_frames())
def test_a_damaged_cont_frame_is_refused_or_reads_back_exactly(mutated):
    handler, data = mutated
    codec = CODECS[handler]
    received = _receive(codec, data)
    if isinstance(received, FramingError):
        return
    for kind, payload, decoded in received:
        if isinstance(decoded, REFUSALS):
            continue
        envelope, sent_at = decoded
        assert codec.encode(envelope, sent_at=sent_at) == (
            kind,
            bytes(payload),
        )


@settings(max_examples=50, deadline=None)
@given(cont_frames())
def test_an_undamaged_cont_frame_reads_back_exactly(frame):
    handler, data = frame
    codec = CODECS[handler]
    ((kind, payload, (envelope, sent_at)),) = _receive(codec, data)
    assert kind == KIND_CONT
    assert codec.encode(envelope, sent_at=sent_at) == (kind, payload)


# -- what the fuzz found --------------------------------------------------------


def _arith_frame(value):
    """A valid arith CONT frame's payload handing over *value* as the
    split's first name, and the codec that reads it."""
    codec = CODECS["arith"]
    slot = HANDLERS["arith"].schema.slots[0]
    message = slot.pack({name: value for name in slot.names})
    _, payload = codec.encode(ContinuationEnvelope(message, 1, 2))
    return codec, payload


def test_a_cont_body_sent_as_a_list_is_refused():
    # Flipping the body's tuple tag to the list tag (0x09 -> 0x08) used to
    # decode, with the values as a list, and re-encode to other bytes.
    codec, payload = _arith_frame(5)
    assert payload[0] == wf.TAG_TUPLE
    damaged = bytes([wf.TAG_LIST]) + payload[1:]
    with pytest.raises(ProtocolError, match="a list body, not a tuple"):
        codec.decode(KIND_CONT, damaged)


def test_a_back_reference_into_the_body_being_decoded_is_refused():
    # A value rewritten as a back-reference to the body tuple itself
    # (memo slot 0, still being decoded) used to read back as None.
    codec, payload = _arith_frame(5)
    value = bytes([wf.TAG_INT]) + struct.pack(">q", 5)
    reference = bytes([wf.TAG_REF]) + struct.pack(">I", 0)
    assert payload.count(value) >= 1
    damaged = payload.replace(value, reference, 1)
    frames = FrameDecoder().feed(encode_frame(KIND_CONT, damaged))
    with pytest.raises(SerializationError, match="still being decoded"):
        codec.decode(*frames[0])
