"""Span recorder and seam wrappers for the traced run.

The benchmark measures each layer from outside: it replaces a public
callable on a live object (``endpoint.publish``, ``transport.send``,
``demodulator.process`` ...) with a wrapper that records one span per
call, and puts the original back when the traced phase ends.  Nothing
under ``src/`` changes.

A span is ``(name, start, end, parent, trace_id)``.  Self time is the
span's duration minus the part its child spans cover, computed as spans
close, so a root's self times sum to the root's duration exactly.
Totals are kept for every span; the raw records only for the first
``keep_traces`` trace ids, which is what the trace file holds.
"""

from __future__ import annotations

import functools
import time
from typing import Callable, Dict, List, Optional, Tuple


class SpanStats:
    """Per-name totals over every closed span."""

    __slots__ = ("count", "total", "self_total")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.self_total = 0.0

    def to_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total_s": self.total,
            "self_s": self.self_total,
        }


class SpanRecorder:
    """Stack-based recorder for one thread.

    ``begin``/``end`` nest: a span opened while another is open is its
    child.  The recorder is not thread-safe; each process records the
    one thread its spans run on (the publisher, the receiver's loop).
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep_traces: int = 500,
    ) -> None:
        self.clock = clock
        self.keep_traces = keep_traces
        self.stats: Dict[str, SpanStats] = {}
        #: raw records of the first ``keep_traces`` traces:
        #: [name, start, end, parent index or -1, trace id]
        self.records: List[list] = []
        self.trace_id = 0
        #: seconds covered by spans that had no parent
        self.root_total = 0.0
        self._traces_seen = 0
        # open spans: [name, start, child seconds, record index or -1]
        self._stack: List[list] = []

    def next_trace(self) -> None:
        """Start a new trace: the spans that follow share its id."""
        self.trace_id += 1
        self._traces_seen += 1

    def begin(self, name: str) -> None:
        index = -1
        if self._traces_seen <= self.keep_traces:
            parent = self._stack[-1][3] if self._stack else -1
            index = len(self.records)
            self.records.append([name, 0.0, 0.0, parent, self.trace_id])
        frame = [name, 0.0, 0.0, index]
        self._stack.append(frame)
        frame[1] = self.clock()

    def end(self) -> float:
        """Close the innermost span; returns its duration."""
        now = self.clock()
        name, start, children, index = self._stack.pop()
        duration = now - start
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        stats.count += 1
        stats.total += duration
        stats.self_total += duration - children
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_total += duration
        if index >= 0:
            record = self.records[index]
            record[1] = start
            record[2] = now
        return duration

    # -- reading ---------------------------------------------------------------

    def total(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.total if stats is not None else 0.0

    def self_time(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.self_total if stats is not None else 0.0

    def count(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.count if stats is not None else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "root_total_s": self.root_total,
            "stats": {k: v.to_dict() for k, v in sorted(self.stats.items())},
            "spans": self.records,
            "span_fields": ["name", "start", "end", "parent", "trace_id"],
        }


def self_times(records: List[list]) -> Dict[str, float]:
    """Self time per name from raw span records (the trace-file view)."""
    child_seconds = [0.0] * len(records)
    for _name, start, end, parent, _trace in records:
        if parent >= 0:
            child_seconds[parent] += end - start
    out: Dict[str, float] = {}
    for (name, start, end, _parent, _trace), covered in zip(
        records, child_seconds
    ):
        out[name] = out.get(name, 0.0) + (end - start) - covered
    return out


class Seams:
    """Installs span wrappers on live objects and takes them off again."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, bool, object]] = []

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    @staticmethod
    def _take(owner: object, attr: str) -> Tuple[Callable, tuple]:
        """The callable to wrap and how to put it back.

        What is put back is the owner's own raw attribute (so a
        ``classmethod`` returns as one); a patch that only shadowed a
        class attribute is deleted instead.
        """
        own = vars(owner)
        return getattr(owner, attr), (attr in own, own.get(attr))

    def wrap(
        self,
        owner: object,
        attr: str,
        name: Optional[str] = None,
        *,
        namer: Optional[Callable[..., str]] = None,
        root: bool = False,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``namer(*args)`` picks the span name per call (e.g. by envelope
        type); ``root`` starts a new trace per call; ``after(result,
        duration, *args)`` runs once the span closed, outside it.
        """
        original, restore = self._take(owner, attr)
        recorder = self.recorder
        label = name or attr

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if root:
                recorder.next_trace()
            recorder.begin(namer(*args) if namer is not None else label)
            try:
                result = original(*args, **kwargs)
            finally:
                duration = recorder.end()
            if after is not None:
                after(result, duration, *args)
            return result

        self._undo.append((owner, attr) + restore)
        setattr(owner, attr, wrapper)

    def wrap_async(
        self,
        owner: object,
        attr: str,
        name: str,
        *,
        root: bool = False,
        before: Optional[Callable[..., None]] = None,
    ) -> None:
        """As :meth:`wrap` for a coroutine function."""
        original, restore = self._take(owner, attr)
        recorder = self.recorder

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            if root:
                recorder.next_trace()
            recorder.begin(name)
            try:
                return await original(*args, **kwargs)
            finally:
                recorder.end()

        self._undo.append((owner, attr) + restore)
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Put every original back (a patch that shadowed a class
        attribute is deleted, so the class attribute shows again)."""
        while self._undo:
            owner, attr, had_own, raw = self._undo.pop()
            if had_own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
