"""Exception hierarchy for the Method Partitioning reproduction.

Every error raised by this library derives from :class:`ReproError`, so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class IRError(ReproError):
    """Base class for errors in the IR substrate."""


class LoweringError(IRError):
    """A Python handler uses a construct outside the supported subset."""


class IRValidationError(IRError):
    """An :class:`~repro.ir.function.IRFunction` is structurally invalid."""


class InterpreterError(IRError):
    """A runtime failure while interpreting IR."""


class UnknownFunctionError(InterpreterError):
    """A handler calls a function that was never registered."""


class AnalysisError(ReproError):
    """Base class for static-analysis failures."""


class PartitionError(ReproError):
    """Base class for failures in partition-plan construction or use."""


class InvalidPlanError(PartitionError):
    """A partitioning plan does not form a valid convex cut."""


class ContinuationError(ReproError):
    """A remote continuation could not be captured or restored."""


class SerializationError(ReproError):
    """An object could not be serialized or deserialized."""


class UnsizedObjectError(SerializationError):
    """An object's size could not be computed."""


class SimulationError(ReproError):
    """Base class for discrete-event-simulation failures."""


class ChannelError(ReproError):
    """Base class for event-channel (JECho substrate) failures."""


class TransportError(ChannelError):
    """Base class for transport-layer failures (any Transport kind)."""


class ConnectionLostError(TransportError):
    """The peer went away: closed transport, dropped or refused
    connection.  Reconnecting transports raise this only when retry is
    impossible (the transport was closed) or exhausted."""


class SendTimeoutError(TransportError):
    """A send did not complete within the transport's send timeout."""


class FramingError(TransportError):
    """A byte stream violates the network frame layout (bad magic,
    unknown version or frame kind, oversized frame, corrupt length)."""


class ProtocolError(TransportError):
    """A frame's payload is not the shape this build's protocol
    defines for its kind (wrong arity, out-of-range field)."""


class CostModelError(ReproError):
    """A cost model was asked for a cost it cannot produce."""
