"""Message envelopes of the event system.

Four message kinds travel between a sender and a receiver:

* :class:`EventEnvelope` — an *unmodulated* application event (used by
  subscriptions without Method Partitioning, i.e. the manual baselines);
* :class:`ContinuationEnvelope` — a modulated event: the PSE id plus the
  handed-over live variables (paper Figure 2);
* :class:`FeedbackEnvelope` — folded profiling feedback from the side
  away from the Profiling Unit to the side that hosts it;
* :class:`PlanEnvelope` — a new partitioning plan pushed to the modulator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.continuation import ContinuationMessage
from repro.core.plan import PartitioningPlan
from repro.core.runtime.profiling import FeedbackSummary

_seq = itertools.count()


def next_sequence() -> int:
    return next(_seq)


@dataclass
class EventEnvelope:
    """A raw application event on the wire."""

    payload: object
    seq: int = field(default_factory=next_sequence)
    #: causal trace context ``(trace_id, parent_span_id)``, when traced
    trace: Optional[Tuple[int, int]] = None


@dataclass
class ContinuationEnvelope:
    """A modulated event: continuation message plus bookkeeping."""

    continuation: ContinuationMessage
    subscription_id: int
    seq: int = field(default_factory=next_sequence)


@dataclass
class FeedbackEnvelope:
    """Profiling feedback: one proxy flush, toward the Profiling Unit."""

    subscription_id: int
    #: what the proxy folded since its last flush (the field name predates
    #: the proxy; the harness and dumps read it)
    demod_stats: FeedbackSummary
    seq: int = field(default_factory=next_sequence)
    trace: Optional[Tuple[int, int]] = None


@dataclass
class PlanEnvelope:
    """A plan update, reconfigurator → modulator.

    ``version`` is the idempotency key: the reconfigurator assigns a
    per-subscription monotonically increasing number to every plan it
    ships, and the modulator ignores any PLAN frame whose version it has
    already applied.  A duplicated or retransmitted frame (at-least-once
    delivery of the head frame across a reconnect) therefore cannot
    re-run the apply path.  Versions start at 1: the net codec refuses
    a PLAN frame without one, so ``version=0`` only appears in-process
    (the simulated channel, which never re-delivers).
    """

    subscription_id: int
    plan: PartitioningPlan
    seq: int = field(default_factory=next_sequence)
    trace: Optional[Tuple[int, int]] = None
    version: int = 0


def envelope_trace(envelope: object) -> Optional[Tuple[int, int]]:
    """The trace context an envelope carries, wherever it lives.

    Continuation envelopes carry it *inside the continuation wire
    format* (it survives serialization); the other kinds carry it as
    delivery metadata on the envelope itself.
    """
    if isinstance(envelope, ContinuationEnvelope):
        return envelope.continuation.trace
    return getattr(envelope, "trace", None)


def set_envelope_trace(
    envelope: object, ctx: Optional[Tuple[int, int]]
) -> None:
    """Restamp an envelope's trace context (e.g. to parent under a ship
    span recorded mid-flight)."""
    if isinstance(envelope, ContinuationEnvelope):
        envelope.continuation.trace = ctx
    elif hasattr(envelope, "trace"):
        envelope.trace = ctx
