"""Structured decision trace for the runtime adaptation loop.

The paper's feedback cycle — profile → trigger → re-select plan → flip
flags — leaves no record of *why* a reconfiguration happened.  The trace
log captures each step as a typed event so experiments (and operators)
can answer "which comparison fired the trigger?", "what did the plan
change from and to?", and "how many bytes did feedback cost?" after the
fact.

Events are immutable dataclasses; the log is a bounded ring buffer (old
events are dropped, with a drop counter) so long streams cannot grow
memory without bound.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Deque, Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = [
    "TraceEvent",
    "TriggerFired",
    "PlanRecomputed",
    "SplitSwitched",
    "FeedbackSent",
    "FeedbackIngested",
    "ContinuationShipped",
    "RegretWindow",
    "DriftDetected",
    "TraceLog",
]


@dataclass(frozen=True)
class TraceEvent:
    """Base class; ``kind`` is the event's type name."""

    @property
    def kind(self) -> str:
        return type(self).__name__

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["kind"] = self.kind
        return data


@dataclass(frozen=True)
class TriggerFired(TraceEvent):
    """A feedback trigger decided to fire.

    ``reason`` carries the comparison that tripped — for a diff trigger
    the subject (PSE stat or side rate), its current value and the
    reported baseline; for a rate trigger the message count vs period.
    """

    at_message: int
    trigger: str
    reason: Optional[Mapping[str, object]] = None


@dataclass(frozen=True)
class PlanRecomputed(TraceEvent):
    """The Reconfiguration Unit re-solved min-cut.

    ``breakdown``, when present, is the per-candidate-PSE cost table
    behind the decision (see
    :func:`repro.core.runtime.plancost.explain_edge_costs`): each row
    names a candidate edge, its runtime cost, whether the new plan chose
    it, and the profile observations that priced it.
    """

    at_message: int
    cut_value: float
    pse_ids: Tuple[str, ...]
    breakdown: Optional[Tuple[Mapping[str, object], ...]] = None


@dataclass(frozen=True)
class SplitSwitched(TraceEvent):
    """A modulator's flag table changed: the split moved."""

    old_pse_ids: Tuple[str, ...]
    new_pse_ids: Tuple[str, ...]
    old_edges: Tuple[Tuple[int, int], ...]
    new_edges: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class FeedbackSent(TraceEvent):
    """A RemoteProfilingProxy flushed a feedback payload."""

    records: int
    bytes: float


@dataclass(frozen=True)
class FeedbackIngested(TraceEvent):
    """A feedback summary was merged into the authoritative unit."""

    records: int


@dataclass(frozen=True)
class ContinuationShipped(TraceEvent):
    """A continuation message left the modulator for the wire.

    ``bytes`` is the serialized size of the edge's INTER set plus the
    continuation envelope — what the link actually pays.
    """

    pse_id: str
    bytes: float


@dataclass(frozen=True)
class RegretWindow(TraceEvent):
    """A counterfactual-regret window closed.

    Each sampled message prices every candidate PSE under the active
    cost model; regret is the actual split's cost minus the cheapest
    candidate's.  ``per_pse`` maps the pse_ids the window actually
    split at to their mean regret; ``transition`` is the message index
    of the most recent ``PlanRecomputed`` before the window closed (or
    ``None`` if the plan never changed), so windows can be lined up
    against reconfiguration decisions.
    """

    index: int
    start_message: int
    end_message: int
    count: int
    total_regret: float
    mean_regret: float
    rel_mean_regret: float
    per_pse: Mapping[str, float]
    transition: Optional[int] = None


@dataclass(frozen=True)
class DriftDetected(TraceEvent):
    """A cost-model prediction stopped tracking observed reality.

    ``channel`` is one of ``bytes`` (predicted INTER(e) size vs. the
    shipped continuation's wire size), ``t_mod`` or ``t_demod``
    (predicted per-side times vs. observed service times).  ``residual``
    is the EWMA of the relative error at detection time.
    """

    at_message: int
    pse_id: str
    channel: str
    predicted: float
    observed: float
    residual: float
    threshold: float


class TraceLog:
    """Bounded, ordered log of :class:`TraceEvent` instances."""

    def __init__(self, maxlen: int = 10_000) -> None:
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        self._events: Deque[TraceEvent] = deque(maxlen=maxlen)
        self._counts: Dict[str, int] = {}
        self.dropped = 0

    def record(self, event: TraceEvent) -> None:
        if len(self._events) == self._events.maxlen:
            self.dropped += 1
        self._events.append(event)
        kind = event.kind
        self._counts[kind] = self._counts.get(kind, 0) + 1

    @property
    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def count(self, kind: str) -> int:
        """Total events of *kind* ever recorded (including dropped ones)."""
        return self._counts.get(kind, 0)

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self._events if e.kind == kind]

    def counts(self) -> Dict[str, int]:
        return dict(sorted(self._counts.items()))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def to_dicts(self) -> List[Dict[str, object]]:
        return [event.to_dict() for event in self._events]
