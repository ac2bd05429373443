"""Robustness: malformed wire data must fail cleanly, never crash or hang.

The continuation path crosses a network; the decoder and the demodulator
must survive corruption, truncation, and garbage without taking the
process down with anything other than the library's own exceptions.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.continuation import (
    ContinuationCodec,
    ContinuationMessage,
    Slot,
)
from repro.errors import ContinuationError, ReproError, SerializationError
from repro.serialization import Serializer, SerializerRegistry


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=64))
def test_decoder_survives_random_bytes(data):
    serializer = Serializer(SerializerRegistry())
    try:
        serializer.deserialize(data)
    except ReproError:
        pass  # clean, library-typed failure
    except Exception as exc:
        pytest.fail(
            f"non-library exception escaped the decoder: "
            f"{type(exc).__name__}: {exc}"
        )


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_decoder_survives_truncation(data):
    serializer = Serializer(SerializerRegistry())
    value = data.draw(
        st.lists(
            st.integers(min_value=-100, max_value=100) | st.text(max_size=8),
            max_size=6,
        )
    )
    wire = serializer.serialize(value)
    if len(wire) < 2:
        return
    cut = data.draw(st.integers(min_value=1, max_value=len(wire) - 1))
    try:
        serializer.deserialize(wire[:cut])
    except ReproError:
        pass
    except Exception as exc:
        # IndexError from slicing short buffers etc. must be wrapped
        import struct

        assert not isinstance(
            exc, (struct.error, MemoryError)
        ), exc


@settings(max_examples=100, deadline=None)
@given(st.binary(min_size=1, max_size=40))
def test_codec_survives_garbage(data):
    codec = ContinuationCodec(SerializerRegistry())
    try:
        codec.decode(data)
    except ReproError:
        pass
    except Exception as exc:
        import struct

        assert not isinstance(exc, struct.error), exc


def test_codec_rejects_wrong_payload_shape():
    registry = SerializerRegistry()
    codec = ContinuationCodec(registry)
    serializer = Serializer(registry)
    not_a_continuation = serializer.serialize([1, 2, 3])
    with pytest.raises(ContinuationError):
        codec.decode(not_a_continuation)


def test_demodulator_rejects_corrupt_edge(push_partitioned, image_data_cls):
    modulator = push_partitioned.make_modulator()
    result = modulator.process(image_data_cls(None, 30, 30))
    message = result.message
    slot = message.slot
    corrupt = ContinuationMessage(
        Slot(
            slot.code,
            (message.edge[0], 9999),
            slot.names,
            slot.pse_id,
            slot.function,
        ),
        message.values,
    )
    demodulator = push_partitioned.make_demodulator()
    with pytest.raises(ReproError):
        demodulator.process(corrupt)


def test_demodulator_rejects_wrong_function(push_partitioned, image_data_cls):
    modulator = push_partitioned.make_modulator()
    result = modulator.process(image_data_cls(None, 30, 30))
    message = result.message
    slot = message.slot
    wrong = ContinuationMessage(
        Slot(slot.code, slot.edge, slot.names, slot.pse_id, "somebody_else"),
        message.values,
    )
    demodulator = push_partitioned.make_demodulator()
    with pytest.raises(ReproError):
        demodulator.process(wrong)


def test_demodulator_missing_variables_fail_cleanly(
    push_partitioned, image_data_cls
):
    modulator = push_partitioned.make_modulator()
    result = modulator.process(image_data_cls(None, 30, 30))
    names = result.message.slot.names
    stripped = ContinuationMessage(  # live variables lost in transit
        result.message.slot, (None,) * len(names), (1 << len(names)) - 1
    )
    assert stripped.variables == {}
    demodulator = push_partitioned.make_demodulator()
    with pytest.raises(ReproError, match="before assignment"):
        demodulator.process(stripped)
