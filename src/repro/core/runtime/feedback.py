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
* :func:`ingest` — merges a summary into the authoritative unit on the
  other side (:meth:`ProfilingUnit.merge`).

Invariant (tested): recording through a proxy and ingesting every flush
yields the statistics of recording into the unit directly, equal to
floating-point rounding (1e-9 relative — the merge sums the same
weighted terms in another association).  The only difference
distribution introduces is *staleness* between flushes, which is exactly
the paper's sampling-vs-timeliness trade.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.convexcut import ConvexCutResult
from repro.core.runtime.profiling import FeedbackSummary, ProfilingUnit
from repro.obs.trace import FeedbackIngested, FeedbackSent
from repro.serialization import format as wf

#: bytes of a FEEDBACK payload with no mod totals and no entries: five
#: sequence headers, nine numbers and the absent trace context
_ENVELOPE_BYTES = float(
    5 * wf.ARRAY_HEADER_SIZE + 9 * wf.FLOAT_VALUE_SIZE + wf.NONE_VALUE_SIZE
)


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

    def flush(self) -> Tuple[FeedbackSummary, float]:
        """Empty the window; returns (summary, wire bytes)."""
        window = self._window
        entries = []
        size = _ENVELOPE_BYTES + wf.FLOAT_SIZE * len(self._mod_totals)
        for stats in window.stats.values():
            entry = stats.take_entry()
            if entry is not None:
                entries.append(entry)
                size += wf.ARRAY_HEADER_SIZE + wf.FLOAT_VALUE_SIZE * len(entry)
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
            self.obs.trace.record(
                FeedbackSent(records=summary.records, bytes=size)
            )
        return summary, size


def ingest(unit: ProfilingUnit, summary: FeedbackSummary) -> None:
    """Merge a flushed summary into the authoritative unit.

    Raises ValueError or TypeError, before touching the unit, for a
    summary it cannot apply (see :meth:`ProfilingUnit.merge`).
    """
    unit.merge(summary)
    obs = getattr(unit, "obs", None)
    if obs is not None:
        obs.metrics.counter("feedback.ingested_records").inc(summary.records)
        obs.trace.record(FeedbackIngested(records=summary.records))
