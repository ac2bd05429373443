"""The one bounded event ring: decisions and incidents.

A :class:`FlightRecorder` is a fixed-size ring of timestamped dict
events, cheap enough to leave on in production.  Every
:class:`~repro.obs.Observability` owns one from construction, and two
families of events share it:

* the adaptation loop's **decisions** — ``TriggerFired``,
  ``PlanRecomputed`` (with its per-candidate cost ``breakdown``),
  ``SplitSwitched``, ``RegretWindow`` and ``DriftDetected``;
* process-level **incidents** — plan ships, reconnects, queue sheds,
  health and breaker transitions, fault injections.

Each family keeps its own last ``maxlen`` events, so neither can evict
the other: a live receiver records a decision every few messages, and
without the split a long run would push an early wedge or reconnect out
of the crash dump.  Per-message and per-flush happenings (continuation
ships, feedback flushes) are deliberately *not* events: counters already
hold them, and at message rate they would push the rare decisions out.
Per-kind totals survive eviction (:meth:`FlightRecorder.count`), and the
ring is dumped to JSON on abort, wedge, or SIGTERM so the last events
survive a crash.

``liveexp`` merges the per-process dumps (each event carries the
recorder's ``host`` tag), so a fleet run leaves one joined record of
*what happened where* — and ``python -m repro.tools.obs explain`` on it
answers why each host is on its split.

The module also hosts the :func:`wide_event` helper that replaces
scattered one-shot ``warnings.warn`` / ``print`` call sites: it records
into the process-global recorder (when one is installed) and optionally
emits a deduplicated ``RuntimeWarning`` — at most once per
``(kind, dedupe)`` key.
"""

from __future__ import annotations

import heapq
import json
import signal
import socket
import threading
import time
import warnings
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

__all__ = [
    "DECISION_KINDS",
    "FlightRecorder",
    "get_global_recorder",
    "merge_flight_dumps",
    "reset_wide_event_dedupe",
    "set_global_recorder",
    "wide_event",
]

#: events kept per family (decisions, incidents) by every recorder
DEFAULT_MAXLEN = 10_000

#: the adaptation loop's event kinds; every other kind is an incident
DECISION_KINDS = frozenset(
    {"TriggerFired", "PlanRecomputed", "SplitSwitched", "RegretWindow",
     "DriftDetected"}
)


class FlightRecorder:
    """Bounded ring of structured wide events.

    Thread-safe: events are recorded from asyncio loop threads, writer
    threads and signal handlers alike.  Decisions and incidents each
    keep their last ``maxlen`` events (one family never evicts the
    other); the ``dropped`` counter records how many events fell off
    either head, and the per-kind totals keep counting past them.
    """

    def __init__(
        self,
        *,
        maxlen: int = DEFAULT_MAXLEN,
        host: Optional[str] = None,
        clock: Callable[[], float] = time.time,
        mono_clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if maxlen <= 0:
            raise ValueError(f"maxlen must be positive, got {maxlen}")
        self.host = host if host is not None else socket.gethostname()
        self.clock = clock
        self.mono_clock = mono_clock
        #: (sequence number, event) per family; ``to_list`` interleaves
        self._decisions: Deque[Tuple[int, dict]] = deque(maxlen=maxlen)
        self._incidents: Deque[Tuple[int, dict]] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self.maxlen = maxlen
        self.recorded = 0
        self.dropped = 0
        self._counts: Dict[str, int] = {}
        #: seconds spent inside :meth:`record` — same self-accounting
        #: idiom as ``Tracer.overhead_seconds``, surfaced by
        #: ``Observability.refresh_overhead`` as ``obs.overhead.*``.
        self.overhead_seconds = 0.0
        self._dump_path: Optional[str] = None
        self._prev_handlers: Dict[int, object] = {}

    def record(self, kind: str, **fields: object) -> dict:
        """Append one wide event; returns the stored dict.

        Each event carries a (wall, monotonic) clock pair: ``t`` for
        humans and cross-host alignment, ``mono`` so the merge can keep
        one host's events in true order even when its wall clock steps
        mid-run (see :func:`merge_flight_dumps`).
        """
        started = time.perf_counter()
        event = {
            "t": self.clock(),
            "mono": self.mono_clock(),
            "host": self.host,
            "kind": kind,
        }
        event.update(fields)
        ring = self._ring(kind)
        with self._lock:
            if len(ring) == self.maxlen:
                self.dropped += 1
            ring.append((self.recorded, event))
            self.recorded += 1
            self._counts[kind] = self._counts.get(kind, 0) + 1
        self.overhead_seconds += time.perf_counter() - started
        return event

    def _ring(self, kind: str) -> Deque[Tuple[int, dict]]:
        return self._decisions if kind in DECISION_KINDS else self._incidents

    def _kept(self) -> List[dict]:
        return [
            event
            for _, event in heapq.merge(
                self._decisions, self._incidents, key=lambda item: item[0]
            )
        ]

    def to_list(self) -> List[dict]:
        """Every kept event, both families, oldest first."""
        with self._lock:
            return self._kept()

    def of_kind(self, kind: str) -> List[dict]:
        """The kept events of ``kind``, oldest first."""
        with self._lock:
            return [e for _, e in self._ring(kind) if e["kind"] == kind]

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "host": self.host,
                "maxlen": self.maxlen,
                "recorded": self.recorded,
                "dropped": self.dropped,
                "counts": dict(sorted(self._counts.items())),
                "overhead_seconds": self.overhead_seconds,
                "events": self._kept(),
            }

    def count(self, kind: str) -> int:
        """Events of ``kind`` ever recorded, evicted ones included."""
        with self._lock:
            return self._counts.get(kind, 0)

    def dump_json(self, path: str) -> None:
        """Write the full recorder state to ``path`` as JSON."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, default=str)
            handle.write("\n")

    # -- crash dumping -------------------------------------------------

    def install_signal_dump(
        self,
        path: str,
        signals: Tuple[int, ...] = (signal.SIGTERM, signal.SIGINT),
    ) -> None:
        """Dump the ring to ``path`` when one of ``signals`` arrives.

        Chains any previously installed handler — for SIGINT that is
        Python's ``default_int_handler``, so a ctrl-C'd chaos run still
        raises ``KeyboardInterrupt`` *after* the ring has hit disk
        (default SIGTERM disposition is re-raised so the process still
        dies).  Must be called from the main thread — signal.signal
        requires it; callers on other threads should use
        :meth:`dump_json` at shutdown instead.
        """
        self._dump_path = path
        for signum in signals:
            prev = signal.getsignal(signum)
            self._prev_handlers[signum] = prev
            signal.signal(signum, self._on_signal)

    def _on_signal(self, signum, frame) -> None:
        self.record("signal", signum=int(signum))
        try:
            if self._dump_path:
                self.dump_json(self._dump_path)
        except OSError:
            pass
        prev = self._prev_handlers.get(signum)
        if callable(prev):
            prev(signum, frame)
        elif prev == signal.SIG_DFL:
            # restore and re-raise so the default disposition applies
            signal.signal(signum, signal.SIG_DFL)
            signal.raise_signal(signum)


# -- process-global recorder + wide-event helper -----------------------

_global_recorder: Optional[FlightRecorder] = None
_emitted: Set[Tuple[str, str]] = set()
_emitted_lock = threading.Lock()


def set_global_recorder(recorder: Optional[FlightRecorder]) -> None:
    """Install (or clear, with None) the process-global recorder."""
    global _global_recorder
    _global_recorder = recorder


def get_global_recorder() -> Optional[FlightRecorder]:
    return _global_recorder


def reset_wide_event_dedupe(kind: Optional[str] = None) -> None:
    """Forget dedupe keys — all of them, or just one event kind's."""
    with _emitted_lock:
        if kind is None:
            _emitted.clear()
        else:
            for key in [k for k in _emitted if k[0] == kind]:
                _emitted.discard(key)


def wide_event(
    kind: str,
    *,
    recorder: Optional[FlightRecorder] = None,
    dedupe: Optional[str] = None,
    warn: Optional[str] = None,
    stacklevel: int = 2,
    **fields: object,
) -> Optional[dict]:
    """Record a structured wide event; optionally warn once.

    With ``dedupe`` set, only the first event per ``(kind, dedupe)``
    key is recorded (and warned about) — later occurrences are silent
    no-ops, matching the old one-``warnings.warn``-per-site behaviour.
    Without it, every call records.  ``warn`` additionally raises a
    ``RuntimeWarning`` with the given message (once per dedupe key, or
    every time when undeduplicated).
    """
    if dedupe is not None:
        key = (kind, dedupe)
        with _emitted_lock:
            if key in _emitted:
                return None
            _emitted.add(key)
    rec = recorder if recorder is not None else _global_recorder
    event = rec.record(kind, **fields) if rec is not None else None
    if warn is not None:
        warnings.warn(warn, RuntimeWarning, stacklevel=stacklevel)
    return event


def _merge_key_offset(events: List[dict]) -> Optional[float]:
    """Median wall-minus-monotonic offset of one dump's events.

    The median (rather than the first event's offset) keeps the anchor
    honest when the wall clock *steps* partway through a run — the
    majority of events vote, so a single NTP jump cannot drag the whole
    host's timeline with it.
    """
    diffs = sorted(
        float(e["t"]) - float(e["mono"])
        for e in events
        if "mono" in e and "t" in e
    )
    if not diffs:
        return None
    return diffs[len(diffs) // 2]


def merge_flight_dumps(dumps: List[dict]) -> dict:
    """Merge per-process flight dumps into one time-ordered record.

    Each input is one process's :meth:`FlightRecorder.to_dict` mapping
    (merged dumps are not re-merged: the median offset below is only
    valid for events that share one monotonic clock); events already
    carry their recorder's ``host`` tag.  When events carry
    the (wall, monotonic) clock pair the sort key is the *corrected*
    wall time — each dump's median ``t - mono`` offset re-bases its
    monotonic clock onto the shared wall timeline, so one host's
    events keep their true relative order even when its wall clock
    steps mid-run, while cross-host alignment still follows wall
    time.  Events without ``mono`` (older dumps) fall back to raw
    ``t``, and ties break on host and then within-dump position — the
    merge is deterministic and never reorders one process's own
    events relative to each other.
    """
    decorated: List[Tuple[float, str, int, dict]] = []
    hosts: List[str] = []
    recorded = 0
    dropped = 0
    counts: Dict[str, int] = {}
    for dump in dumps:
        if not dump:
            continue
        host = dump.get("host", "?")
        hosts.append(host)
        recorded += int(dump.get("recorded", 0))
        dropped += int(dump.get("dropped", 0))
        for kind, n in (dump.get("counts") or {}).items():
            counts[kind] = counts.get(kind, 0) + int(n)
        events = list(dump.get("events", []))
        offset = _merge_key_offset(events)
        for index, event in enumerate(events):
            if offset is not None and "mono" in event:
                key_t = offset + float(event["mono"])
            else:
                key_t = event.get("t", 0.0)
            decorated.append((key_t, host, index, event))
    decorated.sort(key=lambda item: item[:3])
    events = [item[3] for item in decorated]
    return {
        "hosts": hosts,
        "recorded": recorded,
        "dropped": dropped,
        "counts": dict(sorted(counts.items())),
        "events": events,
    }
