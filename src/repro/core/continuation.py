"""Remote Continuation messages (paper section 2.4).

When an active PSE fires, the modulator packs the live variables of the
edge (the INTER set) plus the PSE's unique ID into a *continuation
message* and hands it to the runtime system for delivery.  The demodulator
restores the variables, jumps to the PSE, and continues processing.

Both sides build the same cut from the same program text, so the ID is
the PSE's index in the handler's :class:`ContinuationSchema` and the
variables travel by position.  Codes follow the sorted PSE edges (the
forced terminal edges among them) and values each PSE's sorted INTER
names: neither may depend on the hash seed, which orders sets anew in
every process.  The wire body is one flat tuple::

    (code, *values[, absent][, trace_id, parent_span_id])

*absent* is present only when some name was unbound at the split: bit
*i* marks name *i*, whose value is then None.  The slot's arity tells
the four lengths apart.  A code the schema does not know raises
:class:`~repro.errors.SerializationError` (the peers built different
cuts, which must not be silently mis-parsed); a body of the wrong length
raises :class:`~repro.errors.ContinuationError`.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from repro.errors import ContinuationError, SerializationError
from repro.ir.interpreter import Edge
from repro.serialization import Serializer, SerializerRegistry, measure_size


class Slot(NamedTuple):
    """One split point of a :class:`ContinuationSchema`."""

    code: int
    edge: Edge
    #: the INTER names, sorted: the order of a message's values
    names: Tuple[str, ...]
    pse_id: str
    function: str
    #: resuming here does nothing, so an empty hand-over is elided
    noop_resume: bool = False

    def pack(
        self, env: Dict[str, object], trace: Optional[Tuple] = None
    ) -> "ContinuationMessage":
        """The message handing over this split's names from *env*, the
        run's environment at the split; a name *env* lacks is absent."""
        names = self.names
        absent = 0
        if not all(map(env.__contains__, names)):
            for i, name in enumerate(names):
                if name not in env:
                    absent |= 1 << i
        values = tuple(map(env.get, names))
        return ContinuationMessage(self, values, absent, trace)


class ContinuationSchema:
    """Every split point of one handler, numbered in sorted edge order."""

    def __init__(self, function: str, slots) -> None:
        """*slots*: one ``(edge, pse_id, names, noop_resume)`` per split
        point, in any order."""
        self.function = function
        self.slots = tuple(
            Slot(code, edge, tuple(sorted(names)), pse_id, function, noop)
            for code, (edge, pse_id, names, noop) in enumerate(sorted(slots))
        )
        self.by_edge: Dict[Edge, Slot] = {s.edge: s for s in self.slots}

    @classmethod
    def from_cut(cls, function: str, cut) -> "ContinuationSchema":
        return cls(
            function,
            [
                (e, p.pse_id, [v.name for v in p.inter], p.noop_resume)
                for e, p in cut.pses.items()
            ],
        )

    def read(self, body: tuple, start: int = 0) -> "ContinuationMessage":
        """The message whose wire body is ``body[start:]``."""
        code = body[start]
        if type(code) is not int or not 0 <= code < len(self.slots):
            raise SerializationError(
                f"{self.function}: continuation code {code!r} is not one "
                f"of its {len(self.slots)} split points (the peers built "
                f"different cuts)"
            )
        slot = self.slots[code]
        first = start + 1
        end = first + len(slot.names)
        extra = len(body) - end
        absent = body[end] if extra in (1, 3) else 0
        if not 0 <= extra <= 3 or extra & 1 and not (
            type(absent) is int and 0 < absent < 1 << end - first
        ):
            raise ContinuationError(
                f"malformed continuation message: {len(body) - first} "
                f"fields after the code of {slot.pse_id}, which has "
                f"{end - first} names"
            )
        message = _new(ContinuationMessage)  # no __init__ call per frame
        message.slot, message.edge = slot, slot.edge
        message.values, message.absent = body[first:end], absent
        message.trace = (body[-2], body[-1]) if extra & 2 else None
        return message


class ContinuationMessage:
    """A serializable remote continuation: its :class:`Slot` (the PSE),
    the handed-over values in the slot's name order (None where the
    ``absent`` mask has the name's bit) and the optional causal trace
    context ``(trace_id, parent_span_id)`` carried across hosts.  It
    reads like the :class:`~repro.ir.interpreter.Continuation` it was
    captured as (``function``, ``edge``, ``variables``), so
    ``Interpreter.resume`` takes it as is."""

    __slots__ = ("slot", "edge", "values", "absent", "trace")

    def __init__(
        self,
        slot: Slot,
        values: tuple,
        absent: int = 0,
        trace: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.slot, self.edge = slot, slot.edge
        self.values, self.absent, self.trace = values, absent, trace

    @property
    def function(self) -> str:
        return self.slot.function

    @property
    def pse_id(self) -> str:
        return self.slot.pse_id

    @property
    def variables(self) -> Dict[str, object]:
        """The hand-over as a fresh name → value dict."""
        pairs = zip(self.slot.names, self.values)
        if not self.absent:
            return dict(pairs)
        return {
            n: v for i, (n, v) in enumerate(pairs) if not self.absent >> i & 1
        }

    def body(self) -> tuple:
        """The flat wire body (see the module docstring)."""
        body = (self.slot.code, *self.values)
        if self.absent:
            body += (self.absent,)
        return body if self.trace is None else body + self.trace


_new = object.__new__


class ContinuationCodec:
    """Wire encoding of continuation messages via the custom serializer,
    so their size can both be measured (profiling) and paid (simulated
    network).  Decoding resolves codes against ``schema``, which the
    owning :class:`~repro.core.partitioned.PartitionedMethod` binds."""

    def __init__(
        self,
        registry: Optional[SerializerRegistry] = None,
        schema: Optional[ContinuationSchema] = None,
    ) -> None:
        self.registry = registry or SerializerRegistry()
        self.schema = schema or ContinuationSchema("unbound", ())
        self._serializer = Serializer(self.registry)

    def encode(self, message: ContinuationMessage) -> bytes:
        return self._serializer.serialize(message.body())

    def decode(self, data: bytes) -> ContinuationMessage:
        body = self._serializer.deserialize(data)
        if type(body) is not tuple or not body:
            raise ContinuationError("malformed continuation message")
        return self.schema.read(body)

    def size(self, message: ContinuationMessage) -> int:
        """Wire size without serializing (the profiling fast path)."""
        return measure_size(
            message.body(), self.registry, use_self_sizing=True
        )

    def payload_size(self, message: ContinuationMessage) -> int:
        """Wire size of the variables alone (the cost-model quantity)."""
        return measure_size(
            message.variables, self.registry, use_self_sizing=True
        )
