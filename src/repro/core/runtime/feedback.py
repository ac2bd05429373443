"""Distributed profiling feedback (paper section 2.5).

"The exchange of such [profiling] information between the modulator and
demodulator sides of an interacting component is activated by
application-defined triggers" — feedback is a *message*, not shared
memory.  This module makes that explicit:

* :class:`RemoteProfilingProxy` — stands in for the Profiling Unit on the
  modulator side, away from it.  The recording calls the modulator makes
  land in a private :class:`ProfilingUnit` that holds one *flush window*:
  same code, same flag/sampling gating, and every (edge, stat) folds into
  a :class:`RunningStat` that started empty.
* :meth:`RemoteProfilingProxy.flush` — empties the window into a
  :class:`FeedbackSummary` (what the FeedbackEnvelope carries) and reports
  its wire size: one entry per PSE traversed since the last flush,
  however many messages traversed it.
* :func:`pack_summary` / :func:`unpack_summary` — the FEEDBACK frame's
  body, lossless: a summary crosses the wire bit for bit.
* :func:`ingest` — merges a summary into the authoritative unit on the
  other side (:meth:`ProfilingUnit.merge`).

Invariant (tested): recording through a proxy and ingesting every flush
yields the statistics of recording into the unit directly, equal to
floating-point rounding (1e-9 relative — the merge sums the same
weighted terms in another association).  The only difference
distribution introduces is *staleness* between flushes, which is exactly
the paper's sampling-vs-timeliness trade.

The packed body is a head, an f64 per mod total, and per entry its
counts, a stat mask and per present stat ``[u32 k] f64 first [f64
mean]`` (docs/architecture.md has the layout).
"""

from __future__ import annotations

import itertools
import struct
from typing import Dict, List, Tuple

from repro.core.convexcut import ConvexCutResult
from repro.core.runtime.profiling import FeedbackSummary, ProfilingUnit
from repro.core.runtime.profiling import K_IS_TRAVERSALS, STAT_NAMES
from repro.serialization import format as wf

#: alpha, observations, messages, local_completions, the sender-rate
#: fold (k, first, mean), the counts of mod totals and of entries
_HEAD = struct.Struct("<dIIIIddII")
#: src, dst, traversals, splits, mask
_ENTRY = struct.Struct("<IIIIH")
_F64 = struct.Struct("<d").pack
#: a stat's mask bits, 3 per STAT_NAMES tag; the other bits are reserved:
#: k implied is the ``+K_IS_TRAVERSALS`` tag, constant ships one float
#: for a ``first`` and ``mean`` that are bit-identical
_PRESENT, _IMPLIED, _CONSTANT = 1, 2, 4
#: serializer bytes around the body of an untraced FEEDBACK payload
#: ``(sub_id, seq, None, body)``: tuple header, two ints, None, bytes header
_FRAME_BYTES = 2 * wf.ARRAY_HEADER_SIZE + 2 * wf.INT_VALUE_SIZE + wf.TAG_SIZE


def _layouts() -> Dict[int, Tuple[struct.Struct, tuple]]:
    """Every valid mask → (the struct of its stats, ``(entry tag,
    implied, constant)`` per present stat)."""
    layouts = {}
    # a stat is absent, or present with any mix of implied and constant
    states = [0] + [_PRESENT | flags for flags in range(0, 8, 2)]
    for bits in itertools.product(states, repeat=len(STAT_NAMES)):
        stats = tuple(
            (tag + (K_IS_TRAVERSALS if b & _IMPLIED else 0), b & _IMPLIED,
             b & _CONSTANT)
            for tag, b in enumerate(bits)
            if b
        )
        fmt = "".join(
            ("d" if k else "Id") + ("" if c else "d") for _, k, c in stats
        )
        mask = sum(b << 3 * tag for tag, b in enumerate(bits))
        layouts[mask] = (struct.Struct("<" + fmt), stats)
    return layouts


_LAYOUTS = _layouts()


class RemoteProfilingProxy:
    """Profiling recorder for the side away from the Profiling Unit.

    Mirrors the unit's gating configuration (per-PSE profile flags and the
    sampling period) so the expensive measurements are skipped in the same
    pattern, and its ``ewma_alpha`` so the window folds values the way the
    unit would; everything recorded accumulates until :meth:`flush`.
    """

    def __init__(
        self,
        cut: ConvexCutResult,
        *,
        ewma_alpha: float = 0.3,
        sample_period: int = 1,
        obs=None,
    ) -> None:
        window = self._window = ProfilingUnit(
            cut, ewma_alpha=ewma_alpha, sample_period=sample_period
        )
        self.cut = cut
        self.ewma_alpha = ewma_alpha
        self.profile_flags = window.profile_flags
        # The recording interface the modulator calls is the window's own.
        self.record_message = window.record_message
        self.should_measure = window.should_measure
        self.record_edge_observation = window.record_edge_observation
        self.record_sender_rate = window.record_sender_rate
        self.record_local_completion = window.record_local_completion
        self._mod_totals: List[float] = []
        self._messages_flushed = 0
        self.flushes = 0
        self.bytes_flushed = 0.0
        self.obs = obs
        if obs is not None:
            self._c_flushes = obs.metrics.counter("feedback.flushes")
            self._c_bytes = obs.metrics.counter("feedback.bytes")
            self._c_records = obs.metrics.counter("feedback.records")
            self._c_entries = obs.metrics.counter("feedback.entries")

    @property
    def messages_seen(self) -> int:
        return self._window.messages_seen

    def record_mod_total(self, cycles: float) -> None:
        self._mod_totals.append(float(cycles))

    # -- shipping -------------------------------------------------------------

    @property
    def pending(self) -> int:
        """Observations recorded since the last flush."""
        window = self._window
        return (
            window.messages_seen
            - self._messages_flushed
            + window.executions_completed
            + window.observations_taken
            + window.sender_rate.count
            + len(self._mod_totals)
        )

    def flush(self) -> Tuple[FeedbackSummary, int]:
        """Empty the window; returns (summary, wire bytes)."""
        window = self._window
        entries = window.take_entries()
        rate = window.sender_rate
        summary = FeedbackSummary(
            self.ewma_alpha,
            window.observations_taken,
            window.messages_seen - self._messages_flushed,
            window.executions_completed,
            (rate.count, rate.first, rate.mean),
            self._mod_totals,
            tuple(entries),
        )
        size = packed_size(summary)
        rate.reset()
        self._mod_totals = []
        self._messages_flushed = window.messages_seen
        window.executions_completed = window.observations_taken = 0
        self.flushes += 1
        self.bytes_flushed += size
        if self.obs is not None:
            self._c_flushes.inc()
            self._c_bytes.inc(size)
            self._c_records.inc(summary.records)
            self._c_entries.inc(len(entries))
        return summary, size


def pack_summary(summary: FeedbackSummary) -> bytes:
    """The FEEDBACK body of *summary*.  Raises ValueError, TypeError,
    IndexError or struct.error when the layout cannot carry it (a count
    outside u32, a stat tag out of range or order, a truncated group)."""
    mod_totals, entries = summary.mod_totals, summary.entries
    parts = [
        _HEAD.pack(
            *summary[:4], *summary.sender_rate, len(mod_totals), len(entries)
        ),
        struct.pack(f"<{len(mod_totals)}d", *mod_totals),
    ]
    for entry in entries:
        mask, values, last, at, end = 0, [], -1, 4, len(entry)
        while at < end:
            tag, bits = entry[at], _PRESENT
            if tag >= K_IS_TRAVERSALS:
                tag -= K_IS_TRAVERSALS
                bits |= _IMPLIED
            else:
                at += 1
                values.append(entry[at])
            if not last < tag < len(STAT_NAMES):
                raise ValueError(f"bad or repeated feedback stat tag {tag}")
            first, mean = entry[at + 1], entry[at + 2]
            values.append(first)
            if _F64(first) == _F64(mean):
                bits |= _CONSTANT
            else:
                values.append(mean)
            mask |= bits << 3 * tag
            last, at = tag, at + 3
        parts.append(_ENTRY.pack(*entry[:4], mask))
        parts.append(_LAYOUTS[mask][0].pack(*values))
    return b"".join(parts)


def packed_size(summary: FeedbackSummary) -> int:
    """Payload bytes of *summary*'s untraced FEEDBACK frame, from the
    layout alone: the fields around the body plus its packed length."""
    size = _FRAME_BYTES + _HEAD.size + 8 * len(summary.mod_totals)
    for entry in summary.entries:
        at, end, size = 4, len(entry), size + _ENTRY.size
        while at < end:
            if entry[at] < K_IS_TRAVERSALS:
                at, size = at + 1, size + 4
            size += 8 if _F64(entry[at + 1]) == _F64(entry[at + 2]) else 16
            at += 3
    return size


def unpack_summary(body: bytes) -> FeedbackSummary:
    """The summary :func:`pack_summary` packed into *body*.  Raises
    struct.error when it is short, ValueError for reserved mask bits or
    trailing bytes."""
    head = _HEAD.unpack_from(body)
    n_mod, n_entries = head[7:]
    mod_totals = list(struct.unpack_from(f"<{n_mod}d", body, _HEAD.size))
    at, entries = _HEAD.size + 8 * n_mod, []
    for _ in range(n_entries):
        *entry, mask = _ENTRY.unpack_from(body, at)
        if mask not in _LAYOUTS:
            raise ValueError(f"feedback stat mask {mask:#x} is reserved")
        stats, layout = _LAYOUTS[mask]
        values = stats.unpack_from(body, at + _ENTRY.size)
        at += _ENTRY.size + stats.size
        i = 0
        for tag, implied, constant in layout:
            entry.append(tag)
            if not implied:
                entry.append(values[i])
                i += 1
            entry += (values[i], values[i if constant else i + 1])
            i += 1 if constant else 2
        entries.append(tuple(entry))
    if at != len(body):
        raise ValueError(f"{len(body) - at} trailing bytes after feedback")
    return FeedbackSummary(*head[:4], head[4:7], mod_totals, tuple(entries))


def ingest(unit: ProfilingUnit, summary: FeedbackSummary) -> None:
    """Merge a flushed summary into the authoritative unit.

    Raises ValueError or TypeError, before touching the unit, for a
    summary it cannot apply (see :meth:`ProfilingUnit.merge`).
    """
    unit.merge(summary)
    obs = getattr(unit, "obs", None)
    if obs is not None:
        obs.metrics.counter("feedback.ingested_records").inc(summary.records)
