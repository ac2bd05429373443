"""Span-based causal tracing for the message lifecycle.

Counters and the event ring (``repro.obs.metrics`` /
``repro.obs.flight``) answer *how much* and *what was decided*; they
cannot answer *which message paid which cost where*.  This module adds
the third leg: a :class:`Tracer` that records :class:`Span` objects —
named intervals with a trace id and a parent span id — into a bounded
ring of its own (sampled and per-message, so it would evict the rare
decisions from a shared one).  A trace context ``(trace_id, parent_span_id)`` is stamped into
each captured :class:`~repro.ir.interpreter.Continuation` and carried
inside the continuation wire format and JECho envelopes, so one trace
stitches ``modulate`` → ``ship`` → ``demodulate`` across hosts and
relay hops, plus the control-plane (trigger → plan recompute → plan
ship/apply, feedback flush/ingest).

Design constraints, in order:

* **Zero cost when disabled.**  The tracer lives on
  :class:`~repro.obs.Observability` as ``obs.tracing`` (default
  ``None``); hot paths fetch it with one attribute read and one
  ``is None`` check, exactly like the metrics idiom.
* **Deterministic.**  Trace and span ids are monotone counters and
  sampling uses a credit accumulator, never randomness — so the tree
  walker and the compiled backend produce *identical* span sequences
  for identical inputs (asserted by the backend-equivalence suite).
* **Simulated-time aware.**  ``clock`` is pluggable;
  :meth:`~repro.simnet.simulator.Simulator.attach_observability`
  rebinds it to virtual ``sim.now`` so spans align with the discrete
  event timeline, and :meth:`Tracer.retime` lets the harness snap a
  span to the host-execution window once the simulator has served it.
* **Honest about its own cost.**  Recording operations are self-timed
  into :attr:`Tracer.overhead_seconds`, surfaced by the trace summary.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Callable, Deque, Dict, List, Mapping, Optional

from repro.obs.metrics import DEFAULT_BUCKETS, Histogram

__all__ = ["Span", "Tracer"]


class Span:
    """One named interval within a trace.

    Mutable on purpose: the simulation harness records a span when the
    work is *scheduled* and retimes it once the simulator has assigned
    the actual host-execution window.
    """

    __slots__ = (
        "trace_id",
        "span_id",
        "parent_id",
        "name",
        "start",
        "end",
        "host",
        "attrs",
    )

    def __init__(
        self,
        *,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        end: Optional[float] = None,
        host: Optional[str] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.start = start
        self.end = end
        self.host = host
        self.attrs = attrs

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "host": self.host,
            "attrs": dict(self.attrs) if self.attrs else {},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Span {self.name} trace={self.trace_id} span={self.span_id} "
            f"parent={self.parent_id} [{self.start}, {self.end}]>"
        )


class Tracer:
    """Bounded ring of spans plus per-PSE latency/size histograms.

    ``sampling_rate`` gates *new message traces* deterministically: a
    credit accumulator admits exactly ``rate`` of ``start_trace`` calls
    (``rate=0.25`` → every 4th message).  Control-plane traces pass
    ``force=True`` and bypass sampling — a plan recomputation is rare
    and always worth keeping.  Spans for an already-admitted trace are
    never re-sampled; the whole causal chain survives or none of it.
    """

    def __init__(
        self,
        *,
        maxlen: int = 50_000,
        sampling_rate: float = 1.0,
        clock: Optional[Callable[[], float]] = None,
        host: Optional[str] = None,
        id_base: int = 0,
    ) -> None:
        """``id_base`` offsets this tracer's trace AND span id counters.

        Cooperating processes (the live network harness) give each
        process a disjoint base (e.g. ``k << 40``) so ids allocated
        independently never collide when their dumps are merged into one
        causal tree — while trace contexts carried on the wire keep
        joining, because the receiving side reuses the sender's ids
        verbatim instead of allocating.
        """
        if maxlen < 1:
            raise ValueError("maxlen must be >= 1")
        if not (0.0 < sampling_rate <= 1.0):
            raise ValueError("sampling_rate must be in (0, 1]")
        if id_base < 0:
            raise ValueError("id_base must be >= 0")
        self.sampling_rate = float(sampling_rate)
        self.clock: Callable[[], float] = clock or time.perf_counter
        self.host = host
        self._spans: Deque[Span] = deque(maxlen=maxlen)
        self._maxlen = maxlen
        self.dropped = 0
        self.recorded = 0
        self.overhead_seconds = 0.0
        self._credit = 0.0
        self._next_trace = id_base
        self._next_span = id_base
        self._pse_latency: Dict[str, Histogram] = {}
        self._pse_bytes: Dict[str, Histogram] = {}

    # -- trace admission ------------------------------------------------------

    def start_trace(self, *, force: bool = False) -> Optional[int]:
        """Allocate a trace id, or None when sampled out.

        ``force=True`` (control-plane traces) bypasses the sampling
        accumulator entirely — it neither spends nor earns credit, so
        forced traces do not skew the message sampling cadence.
        """
        if not force:
            self._credit += self.sampling_rate
            if self._credit < 1.0:
                return None
            self._credit -= 1.0
        trace_id = self._next_trace
        self._next_trace += 1
        return trace_id

    # -- span recording -------------------------------------------------------

    def begin(
        self,
        name: str,
        *,
        trace_id: int,
        parent_id: Optional[int] = None,
        host: Optional[str] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        """Open a span at ``clock()`` now; close it with :meth:`end`."""
        t0 = time.perf_counter()
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span,
            parent_id=parent_id,
            name=name,
            start=self.clock(),
            host=host if host is not None else self.host,
            attrs=attrs,
        )
        self._next_span += 1
        self.overhead_seconds += time.perf_counter() - t0
        return span

    def end(self, span: Span, *, end: Optional[float] = None) -> Span:
        """Close *span* (at ``clock()`` unless *end* given) and ring it."""
        t0 = time.perf_counter()
        span.end = end if end is not None else self.clock()
        self._ring(span)
        self.overhead_seconds += time.perf_counter() - t0
        return span

    def record(
        self,
        name: str,
        *,
        trace_id: int,
        parent_id: Optional[int] = None,
        start: float,
        end: float,
        host: Optional[str] = None,
        attrs: Optional[Dict[str, object]] = None,
    ) -> Span:
        """One-shot: record a span with explicit start/end timestamps."""
        t0 = time.perf_counter()
        span = Span(
            trace_id=trace_id,
            span_id=self._next_span,
            parent_id=parent_id,
            name=name,
            start=start,
            end=end,
            host=host if host is not None else self.host,
            attrs=attrs,
        )
        self._next_span += 1
        self._ring(span)
        self.overhead_seconds += time.perf_counter() - t0
        return span

    def retime(
        self,
        span: Span,
        start: float,
        end: float,
        *,
        host: Optional[str] = None,
    ) -> Span:
        """Snap an already-ringed span to its actual execution window."""
        span.start = start
        span.end = end
        if host is not None:
            span.host = host
        return span

    def _ring(self, span: Span) -> None:
        if len(self._spans) == self._maxlen:
            self.dropped += 1
        self._spans.append(span)
        self.recorded += 1

    # -- per-PSE quantile substrate -------------------------------------------

    def observe_pse(
        self,
        pse_id: str,
        *,
        latency: Optional[float] = None,
        size: Optional[float] = None,
    ) -> None:
        """Feed a PSE's latency (seconds) / shipped size (bytes) sample."""
        if latency is not None:
            hist = self._pse_latency.get(pse_id)
            if hist is None:
                hist = self._pse_latency[pse_id] = Histogram(
                    f"pse.{pse_id}.latency", DEFAULT_BUCKETS
                )
            hist.observe(latency)
        if size is not None:
            hist = self._pse_bytes.get(pse_id)
            if hist is None:
                hist = self._pse_bytes[pse_id] = Histogram(
                    f"pse.{pse_id}.bytes", DEFAULT_BUCKETS
                )
            hist.observe(size)

    # -- export ---------------------------------------------------------------

    @property
    def spans(self) -> List[Span]:
        return list(self._spans)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable dump consumed by export and ``obs trace``."""

        def _hist(h: Histogram) -> Mapping[str, object]:
            return {
                "bounds": list(h.bounds),
                "counts": list(h.counts),
                "total": h.total,
                "count": h.count,
            }

        return {
            "sampling_rate": self.sampling_rate,
            "maxlen": self._maxlen,
            "recorded": self.recorded,
            "dropped": self.dropped,
            "overhead_seconds": self.overhead_seconds,
            "spans": [s.to_dict() for s in self._spans],
            "pse": {
                pid: {
                    "latency": _hist(self._pse_latency[pid])
                    if pid in self._pse_latency
                    else None,
                    "bytes": _hist(self._pse_bytes[pid])
                    if pid in self._pse_bytes
                    else None,
                }
                for pid in sorted(
                    set(self._pse_latency) | set(self._pse_bytes)
                )
            },
        }
