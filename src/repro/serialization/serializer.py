"""Binary serializer for continuation messages and events.

A from-scratch encoder/decoder with:

* a tag-prefixed compact format (see :mod:`repro.serialization.format`),
* back-references for shared/duplicated objects, so the encoded size
  matches the paper's cost definition ("unique objects ... plus the total
  number of duplicated references", section 4.1),
* a fast path for primitive arrays (``bytes``/``bytearray`` and homogeneous
  int/float lists registered as arrays).

Cycles through containers are supported via the same back-reference
mechanism.
"""

from __future__ import annotations

import array
import struct
from typing import Dict, List, Optional, Tuple

from repro.errors import SerializationError
from repro.serialization import format as wf
from repro.serialization.registry import SerializerRegistry

_INT_PACK = struct.Struct(">q")
_FLOAT_PACK = struct.Struct(">d")
_LEN_PACK = struct.Struct(">I")

#: the memo slot of a tuple or set whose items are still being decoded
_PENDING = object()


class Serializer:
    """Encode/decode Python values against a :class:`SerializerRegistry`."""

    def __init__(self, registry: Optional[SerializerRegistry] = None) -> None:
        self.registry = registry or SerializerRegistry()

    # -- encoding ---------------------------------------------------------

    def serialize(self, value: object) -> bytes:
        out: List[bytes] = []
        memo: Dict[int, int] = {}
        self._encode(value, out, memo)
        return b"".join(out)

    def _encode(self, value: object, out: List[bytes], memo: Dict[int, int]) -> None:
        if value is None:
            out.append(bytes((wf.TAG_NONE,)))
            return
        if value is True:
            out.append(bytes((wf.TAG_TRUE,)))
            return
        if value is False:
            out.append(bytes((wf.TAG_FALSE,)))
            return
        if isinstance(value, int):
            out.append(bytes((wf.TAG_INT,)))
            try:
                out.append(_INT_PACK.pack(value))
            except struct.error:
                raise SerializationError(
                    f"integer {value} exceeds 64-bit wire range"
                ) from None
            return
        if isinstance(value, float):
            out.append(bytes((wf.TAG_FLOAT,)))
            out.append(_FLOAT_PACK.pack(value))
            return
        if isinstance(value, str):
            data = value.encode("utf-8")
            out.append(bytes((wf.TAG_STR,)))
            out.append(_LEN_PACK.pack(len(data)))
            out.append(data)
            return

        # Shared-object handling from here down.
        oid = id(value)
        if oid in memo:
            out.append(bytes((wf.TAG_REF,)))
            out.append(_LEN_PACK.pack(memo[oid]))
            return

        if isinstance(value, array.array):
            memo[oid] = len(memo)
            out.append(_pack_typed_array(value))
            return
        if isinstance(value, bytes):
            memo[oid] = len(memo)
            out.append(bytes((wf.TAG_BYTES,)))
            out.append(_LEN_PACK.pack(len(value)))
            out.append(value)
            return
        if isinstance(value, bytearray):
            memo[oid] = len(memo)
            out.append(bytes((wf.TAG_BYTEARRAY,)))
            out.append(_LEN_PACK.pack(len(value)))
            out.append(bytes(value))
            return
        if isinstance(value, list):
            memo[oid] = len(memo)
            packed = _pack_primitive_array(value)
            if packed is not None:
                out.append(packed)
                return
            out.append(bytes((wf.TAG_LIST,)))
            out.append(_LEN_PACK.pack(len(value)))
            for item in value:
                self._encode(item, out, memo)
            return
        if isinstance(value, tuple):
            memo[oid] = len(memo)
            out.append(bytes((wf.TAG_TUPLE,)))
            out.append(_LEN_PACK.pack(len(value)))
            for item in value:
                self._encode(item, out, memo)
            return
        if isinstance(value, dict):
            memo[oid] = len(memo)
            out.append(bytes((wf.TAG_DICT,)))
            out.append(_LEN_PACK.pack(len(value)))
            for k, v in value.items():
                self._encode(k, out, memo)
                self._encode(v, out, memo)
            return
        if isinstance(value, (set, frozenset)):
            memo[oid] = len(memo)
            out.append(bytes((wf.TAG_SET,)))
            out.append(_LEN_PACK.pack(len(value)))
            for item in sorted(value, key=repr):
                self._encode(item, out, memo)
            return

        # Registered application object.
        entry = self.registry.by_class(type(value))
        memo[oid] = len(memo)
        fields = self.registry.fields_of(value)
        name = entry.name.encode("utf-8")
        out.append(bytes((wf.TAG_OBJ,)))
        out.append(_LEN_PACK.pack(len(name)))
        out.append(name)
        out.append(_LEN_PACK.pack(len(fields)))
        for f in fields:
            fname = f.encode("utf-8")
            out.append(_LEN_PACK.pack(len(fname)))
            out.append(fname)
            try:
                attr = getattr(value, f)
            except AttributeError:
                raise SerializationError(
                    f"{entry.name}.{f} missing on instance during serialization"
                ) from None
            self._encode(attr, out, memo)

    # -- decoding ---------------------------------------------------------

    def deserialize(self, data: bytes) -> object:
        try:
            value, offset = self._decode(data, 0, [])
        except SerializationError:
            raise
        except (
            struct.error,
            IndexError,
            UnicodeDecodeError,
            OverflowError,
            ValueError,
            TypeError,
            RecursionError,
        ) as exc:
            # Corrupt or truncated wire data must surface as the library's
            # own error type, never a low-level decoding exception.
            raise SerializationError(
                f"malformed wire data: {type(exc).__name__}: {exc}"
            ) from exc
        if offset != len(data):
            raise SerializationError(
                f"{len(data) - offset} trailing bytes after deserialization"
            )
        return value

    def _decode(self, data: bytes, offset: int, memo: List[object]) -> Tuple[object, int]:
        try:
            tag = data[offset]
        except IndexError:
            raise SerializationError("truncated wire data") from None
        offset += 1
        if tag == wf.TAG_NONE:
            return None, offset
        if tag == wf.TAG_TRUE:
            return True, offset
        if tag == wf.TAG_FALSE:
            return False, offset
        if tag == wf.TAG_INT:
            (value,) = _INT_PACK.unpack_from(data, offset)
            return value, offset + wf.INT_SIZE
        if tag == wf.TAG_FLOAT:
            (value,) = _FLOAT_PACK.unpack_from(data, offset)
            return value, offset + wf.FLOAT_SIZE
        if tag == wf.TAG_STR:
            (n,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            # str() decodes any buffer-protocol object (bytes,
            # bytearray, pooled memoryview payloads) identically.
            return str(data[offset : offset + n], "utf-8"), offset + n
        if tag == wf.TAG_REF:
            (idx,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.REF_SIZE
            try:
                value = memo[idx]
            except IndexError:
                raise SerializationError(
                    f"dangling back-reference {idx}"
                ) from None
            if value is _PENDING:
                raise SerializationError(
                    f"back-reference {idx} into a tuple or set that is "
                    f"still being decoded (a cycle through it)"
                )
            return value, offset
        if tag == wf.TAG_BYTES:
            (n,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            value = data[offset : offset + n]
            if type(value) is not bytes:
                # Slicing a memoryview (pooled frame payload) yields a
                # view that would alias the recycled buffer; decoded
                # values must own their bytes.
                value = bytes(value)
            memo.append(value)
            return value, offset + n
        if tag == wf.TAG_BYTEARRAY:
            (n,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            value = bytearray(data[offset : offset + n])
            memo.append(value)
            return value, offset + n
        if tag == wf.TAG_TYPED_INT_ARRAY:
            (n,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            value = array.array(
                "q", struct.unpack_from(f">{n}q", data, offset)
            )
            memo.append(value)
            return value, offset + n * wf.INT_SIZE
        if tag == wf.TAG_TYPED_FLOAT_ARRAY:
            (n,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            value = array.array(
                "d", struct.unpack_from(f">{n}d", data, offset)
            )
            memo.append(value)
            return value, offset + n * wf.FLOAT_SIZE
        if tag == wf.TAG_INT_ARRAY:
            (n,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            value = list(struct.unpack_from(f">{n}q", data, offset))
            memo.append(value)
            return value, offset + n * wf.INT_SIZE
        if tag == wf.TAG_FLOAT_ARRAY:
            (n,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            value = list(struct.unpack_from(f">{n}d", data, offset))
            memo.append(value)
            return value, offset + n * wf.FLOAT_SIZE
        if tag == wf.TAG_LIST:
            (n,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            value: List[object] = []
            memo.append(value)
            for _ in range(n):
                item, offset = self._decode(data, offset, memo)
                value.append(item)
            return value, offset
        if tag == wf.TAG_TUPLE:
            (n,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            # Tuples are immutable: decode into a list first.  A cycle
            # through a tuple cannot be reconstructed; reject it.
            slot = len(memo)
            memo.append(_PENDING)
            items: List[object] = []
            for _ in range(n):
                item, offset = self._decode(data, offset, memo)
                items.append(item)
            value_t = tuple(items)
            memo[slot] = value_t
            return value_t, offset
        if tag == wf.TAG_DICT:
            (n,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            value_d: Dict[object, object] = {}
            memo.append(value_d)
            for _ in range(n):
                k, offset = self._decode(data, offset, memo)
                v, offset = self._decode(data, offset, memo)
                value_d[k] = v
            return value_d, offset
        if tag == wf.TAG_SET:
            (n,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            items = []
            slot = len(memo)
            memo.append(_PENDING)
            for _ in range(n):
                item, offset = self._decode(data, offset, memo)
                items.append(item)
            value_s = set(items)
            memo[slot] = value_s
            return value_s, offset
        if tag == wf.TAG_OBJ:
            (n,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            name = str(data[offset : offset + n], "utf-8")
            offset += n
            entry = self.registry.by_name(name)
            obj = entry.cls.__new__(entry.cls)
            memo.append(obj)
            (nfields,) = _LEN_PACK.unpack_from(data, offset)
            offset += wf.LEN_SIZE
            for _ in range(nfields):
                (fn,) = _LEN_PACK.unpack_from(data, offset)
                offset += wf.LEN_SIZE
                fname = str(data[offset : offset + fn], "utf-8")
                offset += fn
                fval, offset = self._decode(data, offset, memo)
                object.__setattr__(obj, fname, fval)
            return obj, offset
        raise SerializationError(f"unknown wire tag 0x{tag:02x}")


def _pack_typed_array(value: "array.array") -> bytes:
    """Encode a typed numeric array; integer codes widen to 64-bit."""
    code = value.typecode
    n = len(value)
    if code in ("b", "B", "h", "H", "i", "I", "l", "L", "q"):
        body = struct.pack(f">{n}q", *value)
        return (
            bytes((wf.TAG_TYPED_INT_ARRAY,)) + _LEN_PACK.pack(n) + body
        )
    if code in ("f", "d"):
        body = struct.pack(f">{n}d", *value)
        return (
            bytes((wf.TAG_TYPED_FLOAT_ARRAY,)) + _LEN_PACK.pack(n) + body
        )
    raise SerializationError(
        f"unsupported array typecode {code!r}"
    )


def _pack_primitive_array(value: list) -> Optional[bytes]:
    """Fast-path encoding for homogeneous int/float lists; None if mixed."""
    if not value:
        return None
    kinds = set(map(type, value))
    if kinds == {int}:
        try:
            body = struct.pack(f">{len(value)}q", *value)
        except struct.error:
            return None
        return (
            bytes((wf.TAG_INT_ARRAY,)) + _LEN_PACK.pack(len(value)) + body
        )
    if kinds == {float}:
        body = struct.pack(f">{len(value)}d", *value)
        return (
            bytes((wf.TAG_FLOAT_ARRAY,)) + _LEN_PACK.pack(len(value)) + body
        )
    return None
