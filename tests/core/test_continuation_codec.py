"""Unit tests for continuation messages and their flat wire body."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.imagestream.app import build_partitioned_push
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.api import MethodPartitioner
from repro.core.continuation import ContinuationCodec, ContinuationSchema
from repro.core.costmodels import DataSizeCostModel
from repro.errors import ContinuationError, SerializationError
from repro.ir.interpreter import Continuation
from repro.ir.registry import default_registry
from repro.jecho.events import ContinuationEnvelope
from repro.net.framing import KIND_CONT, NetEnvelopeCodec
from repro.serialization import Serializer, SerializerRegistry


class Payload:
    def __init__(self, tag, blob):
        self.tag = tag
        self.blob = blob


#: a handler "h" with three split points, listed out of edge order
SCHEMA = ContinuationSchema(
    "h",
    [
        ((5, 6), "pse2", ("n",), False),
        ((4, 7), "pse1", ("obj", "n"), False),
        ((1, 2), "pse0", ("b", "a"), False),
    ],
)


@pytest.fixture
def codec():
    registry = SerializerRegistry()
    registry.register(Payload, fields=("tag", "blob"))
    return ContinuationCodec(registry, SCHEMA)


def pack(edge, variables, trace=None):
    return SCHEMA.by_edge[edge].pack(variables, trace)


def roundtrip(codec, message):
    return codec.decode(codec.encode(message))


def test_codes_follow_sorted_edges_and_values_sorted_names():
    assert [(s.code, s.edge, s.pse_id) for s in SCHEMA.slots] == [
        (0, (1, 2), "pse0"),
        (1, (4, 7), "pse1"),
        (2, (5, 6), "pse2"),
    ]
    assert SCHEMA.by_edge[(1, 2)].names == ("a", "b")
    message = pack((1, 2), {"b": "text", "a": 1})
    assert message.values == (1, "text")
    assert message.body() == (0, 1, "text")


def test_roundtrip_with_app_object(codec):
    message = pack((4, 7), {"obj": Payload("x", b"\x00" * 64), "n": 9})
    back = roundtrip(codec, message)
    assert back.function == "h"
    assert back.pse_id == "pse1"
    assert back.edge == (4, 7)
    assert back.variables["n"] == 9
    assert isinstance(back.variables["obj"], Payload)
    assert back.variables["obj"].blob == b"\x00" * 64


def test_size_matches_encoding_exactly(codec):
    message = pack((1, 2), {"a": [1.0] * 50, "b": "text"})
    assert codec.size(message) == len(codec.encode(message))


def test_payload_size_excludes_envelope(codec):
    small = pack((1, 2), {})
    assert codec.payload_size(small) < codec.size(small)


def test_from_and_to_continuation():
    continuation = Continuation(function="h", edge=(5, 6), variables={"n": 1})
    message = pack(continuation.edge, continuation.variables)
    assert message.pse_id == "pse2"
    back = message.variables
    assert back == {"n": 1}
    # independent copies: mutating one does not leak
    back["n"] = 99
    assert message.variables["n"] == 1


def test_absent_names_roundtrip_exactly(codec):
    """A name unbound when the run split is absent on the other side too,
    not bound to None."""
    message = pack((1, 2), {"b": None})
    assert message.absent == 0b01
    assert message.body() == (0, None, None, 0b01)
    back = roundtrip(codec, message)
    assert back.variables == {"b": None}
    assert back.absent == 0b01
    assert codec.size(message) == len(codec.encode(message))


# -- trace context and refusals --------------------------------------------------


def test_traced_message_roundtrips_trace_context(codec):
    message = pack((5, 6), {"n": 1}, trace=(17, 42))
    back = roundtrip(codec, message)
    assert back.trace == (17, 42)
    assert back.variables == {"n": 1}
    assert codec.size(message) == len(codec.encode(message))


def test_untraced_message_encodes_the_flat_body(codec):
    """No handler name, PSE id, edge or variable names on the wire: the
    code, then the values in name order."""
    message = pack((5, 6), {"n": 1})
    serializer = Serializer(codec.registry)
    assert codec.encode(message) == serializer.serialize((2, 1))


def test_unknown_pse_code_raises_serialization_error(codec):
    serializer = Serializer(codec.registry)
    for code in (3, -1, "pse0", 1.0):
        with pytest.raises(SerializationError, match="split points"):
            codec.decode(serializer.serialize((code, 1, 2)))


def test_wrong_arity_payload_raises(codec):
    serializer = Serializer(codec.registry)
    # pse1 has two names: 0 to 5 fields follow its code, 2 and 3 are
    # untraced, 4 and 5 traced; 3 and 5 carry an absence mask
    for fields in ((), (1,), (1, 2, 3, 4, 5, 6), (1, 2, 0), (1, 2, 4)):
        with pytest.raises(ContinuationError):
            codec.decode(serializer.serialize((1, *fields)))
    with pytest.raises(ContinuationError):
        codec.decode(serializer.serialize([1, 2]))


def test_trace_survives_continuation_conversion():
    continuation = Continuation(
        function="h", edge=(5, 6), variables={"n": 1}, trace=(5, 9)
    )
    message = pack(
        continuation.edge, continuation.variables, continuation.trace
    )
    assert message.trace == (5, 9)
    assert message.body() == (2, 1, 5, 9)


VALUES = (
    st.none()
    | st.integers(min_value=-(2**40), max_value=2**40)
    | st.floats(allow_nan=False)
    | st.text(max_size=16)
    | st.lists(st.integers(min_value=0, max_value=255), max_size=8)
)


@settings(max_examples=60, deadline=None)
@given(
    variables=st.dictionaries(
        st.text(
            alphabet=st.characters(min_codepoint=97, max_codepoint=122),
            min_size=1,
            max_size=8,
        ),
        VALUES,
        max_size=5,
    ),
    out_node=st.integers(min_value=0, max_value=500),
    in_node=st.integers(min_value=0, max_value=500),
)
def test_roundtrip_property(variables, out_node, in_node):
    schema = ContinuationSchema(
        "f", [((out_node, in_node), "pse1", variables, False)]
    )
    codec = ContinuationCodec(SerializerRegistry(), schema)
    message = schema.slots[0].pack(variables)
    back = roundtrip(codec, message)
    assert back.edge == message.edge
    assert back.variables == variables
    assert codec.size(message) == len(codec.encode(message))


# -- every split point of the shipped handlers ------------------------------------

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


def test_the_schema_covers_every_pse_and_terminal_edge():
    for partitioned in HANDLERS.values():
        cut = partitioned.cut
        edges = [slot.edge for slot in partitioned.schema.slots]
        assert edges == sorted(cut.pses)
        assert cut.terminal_edges() <= set(edges)
        for slot in partitioned.schema.slots:
            inter = cut.pses[slot.edge].inter
            assert slot.names == tuple(sorted(v.name for v in inter))


@st.composite
def _hand_overs(draw):
    """A handler, one of its split points, a subset of the point's names
    bound (some sharing one object), and maybe a trace context."""
    handler = draw(st.sampled_from(sorted(HANDLERS)))
    slot = draw(st.sampled_from(HANDLERS[handler].schema.slots))
    shared = [draw(st.integers(min_value=0, max_value=2**40))]
    variables = {}
    for name in slot.names:
        if draw(st.booleans()):
            variables[name] = shared if draw(st.booleans()) else draw(VALUES)
    trace = draw(
        st.none()
        | st.tuples(
            st.integers(min_value=0, max_value=2**40),
            st.integers(min_value=0, max_value=2**40),
        )
    )
    return handler, slot, variables, trace


@settings(max_examples=150, deadline=None)
@given(_hand_overs())
def test_every_split_point_roundtrips_through_both_codecs(hand_over):
    handler, slot, variables, trace = hand_over
    partitioned = HANDLERS[handler]
    message = slot.pack(variables, trace)
    net = NetEnvelopeCodec(partitioned.serializer_registry).bind(
        partitioned.schema
    )
    kind, payload = net.encode(
        ContinuationEnvelope(message, 3, 8), sent_at=1.5
    )
    assert kind == KIND_CONT
    envelope, sent_at = net.decode(kind, payload)
    assert (envelope.subscription_id, envelope.seq, sent_at) == (3, 8, 1.5)
    codec = partitioned.codec
    for back in (envelope.continuation, codec.decode(codec.encode(message))):
        assert back.slot is slot
        assert back.trace == trace
        assert back.variables == variables
        assert back.body() == message.body()
        # a list bound to two names arrives as one list, as it left
        decoded = back.variables
        for name, value in variables.items():
            for other, peer in variables.items():
                if isinstance(value, list) and value is peer:
                    assert decoded[name] is decoded[other]
    assert codec.size(message) == len(codec.encode(message))
