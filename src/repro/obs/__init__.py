"""Observability for the Method Partitioning runtime (``repro.obs``).

The paper's premise is *runtime* adaptation, which is impossible to tune
blind: profiling feeds triggers, triggers feed the Reconfiguration Unit,
the unit flips split flags — and none of it used to leave a record.  This
package provides the measurement substrate:

* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges and
  fixed-bucket histograms with no external dependencies;
* :class:`~repro.obs.flight.FlightRecorder` — the one bounded event
  ring: the adaptation loop's decisions (``TriggerFired``,
  ``PlanRecomputed``, ``SplitSwitched``, ``RegretWindow``,
  ``DriftDetected``) next to process incidents (plan ships, sheds,
  health and breaker transitions), with per-kind totals that survive
  eviction;
* :class:`~repro.obs.tracing.Tracer` — sampled spans with causal ids,
  kept apart from the ring because at message rate they would evict the
  rare decisions;
* :class:`Observability` — all of them, threaded through the
  interpreter, the runtime units, the event channels and the simulator
  as an optional ``obs`` argument.

Everything is opt-in: with no :class:`Observability` attached (the
default) the instrumented hot paths pay a single ``is None`` check and
produce byte-identical results to uninstrumented code.  Render a
collected dump with ``python -m repro.tools.obs``.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bucket_quantile,
)
from repro.obs.flight import FlightRecorder, wide_event
from repro.obs.health import HealthConfig, HealthMonitor, PeerHealth
from repro.obs.prof import SamplingProfiler
from repro.obs.quality import QualityConfig
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Observability",
    "MetricsRegistry",
    "Counter",
    "Gauge",
    "Histogram",
    "DEFAULT_BUCKETS",
    "bucket_quantile",
    "Span",
    "Tracer",
    "QualityConfig",
    "FlightRecorder",
    "SamplingProfiler",
    "HealthConfig",
    "HealthMonitor",
    "PeerHealth",
    "wide_event",
]


class Observability:
    """One metrics registry plus one event ring.

    A single instance is shared by every component of one experiment run
    (interpreter, profiling/feedback/trigger/reconfiguration units,
    transports, simulator), so the report covers the whole adaptation
    loop in one place.  ``host`` stamps every ring event (the machine's
    hostname when omitted); live runs name each OS process.
    """

    def __init__(
        self,
        *,
        host: Optional[str] = None,
        tracing: Optional[Tracer] = None,
    ) -> None:
        self.metrics = MetricsRegistry()
        #: the one event ring: adaptation decisions and process
        #: incidents, recorded as ``flight.record(kind, **fields)``
        self.flight = FlightRecorder(host=host)
        self.tracing = tracing
        #: when set, quality-aware harnesses build an
        #: :class:`~repro.obs.quality.AdaptationQuality` (regret + drift)
        #: for their handler and park it on :attr:`quality`; None (the
        #: default) keeps both accounted paths at a single ``is None``
        #: check, like every other instrument here.
        self.quality_config: Optional[QualityConfig] = None
        self.quality = None
        #: continuous sampling profiler; None until
        #: :meth:`enable_profiler`, and even then nothing samples until
        #: its ``start()`` — same opt-in shape as the other instruments.
        self.profiler: Optional[SamplingProfiler] = None
        #: extra named sections merged into :meth:`to_dict` — e.g. the
        #: broker parks its fleet health view here so one ``/metrics.json``
        #: scrape (or result dump) carries the whole fleet state.
        self._sections: Dict[str, Callable[[], object]] = {}

    def enable_tracing(
        self,
        *,
        sampling_rate: float = 1.0,
        maxlen: int = 50_000,
        clock: Optional[Callable[[], float]] = None,
        host: Optional[str] = None,
        id_base: int = 0,
    ) -> Tracer:
        """Attach (or return the existing) span :class:`Tracer`.

        Spans are only recorded once this is called; until then every
        instrumented path sees ``obs.tracing is None`` and skips.
        ``host`` labels spans with no explicit host (one lane per OS
        process in live runs); ``id_base`` keeps ids disjoint across
        cooperating processes (see :class:`Tracer`).
        """
        if self.tracing is None:
            self.tracing = Tracer(
                sampling_rate=sampling_rate,
                maxlen=maxlen,
                clock=clock,
                host=host,
                id_base=id_base,
            )
        return self.tracing

    def enable_quality(
        self, config: Optional[QualityConfig] = None, **kwargs
    ) -> QualityConfig:
        """Opt in to adaptation-quality accounting (regret + drift).

        Sets :attr:`quality_config`; keyword arguments build a
        :class:`~repro.obs.quality.QualityConfig` when no explicit one
        is given.  Harnesses constructed *after* this call attach an
        :class:`~repro.obs.quality.AdaptationQuality` to their handler.
        """
        self.quality_config = config or QualityConfig(**kwargs)
        return self.quality_config

    def enable_profiler(
        self,
        *,
        interval: Optional[float] = None,
        host: Optional[str] = None,
        autostart: bool = False,
        **kwargs,
    ) -> SamplingProfiler:
        """Attach (or return the existing) :class:`SamplingProfiler`.

        ``autostart=True`` begins sampling immediately; otherwise the
        caller starts/stops it around the region of interest.  Extra
        keyword arguments pass through to the profiler constructor
        (``rules``, ``thread_ids``, ``max_stacks``).
        """
        if self.profiler is None:
            from repro.obs.prof import DEFAULT_INTERVAL

            self.profiler = SamplingProfiler(
                interval=interval if interval is not None else (
                    DEFAULT_INTERVAL
                ),
                host=host,
                **kwargs,
            )
            if autostart:
                self.profiler.start()
        return self.profiler

    def add_section(self, name: str, supplier: Callable[[], object]) -> None:
        """Merge ``supplier()`` into :meth:`to_dict` under ``name``.

        Reserved keys (``metrics``, ``tracing``, ``quality``, ``flight``,
        ``profile``) are rejected.  Suppliers run on every dump — keep
        them cheap and thread-safe; the HTTP exposer calls ``to_dict``
        from its serving thread.
        """
        if name in ("metrics", "tracing", "quality", "flight", "profile"):
            raise ValueError(f"section name {name!r} is reserved")
        self._sections[name] = supplier

    def refresh_overhead(self) -> None:
        """Publish observability's own cost as ``obs.overhead.*`` gauges.

        Gauges appear only for instruments enabled (for the ring: once
        it recorded something), so the metric set of an untouched
        Observability stays empty, and are refreshed on every
        :meth:`to_dict` — scrapes and dumps always carry current numbers.
        """
        if self.tracing is not None:
            self.metrics.gauge("obs.overhead.tracer_seconds").set(
                self.tracing.overhead_seconds
            )
        if self.profiler is not None:
            self.metrics.gauge("obs.overhead.profiler_self_seconds").set(
                self.profiler.self_seconds
            )
        if self.flight.recorded:
            self.metrics.gauge("obs.overhead.flight_seconds").set(
                self.flight.overhead_seconds
            )

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable dump consumed by ``python -m repro.tools.obs``."""
        self.refresh_overhead()
        data: Dict[str, object] = {
            "metrics": self.metrics.to_dict(),
            "flight": self.flight.to_dict(),
        }
        if self.tracing is not None:
            data["tracing"] = self.tracing.to_dict()
        if self.quality is not None:
            data["quality"] = self.quality.report()
        if self.profiler is not None:
            data["profile"] = self.profiler.to_dict()
        for name, supplier in self._sections.items():
            data[name] = supplier()
        return data
