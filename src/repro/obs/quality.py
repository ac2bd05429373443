"""Adaptation-quality accounting: was the chosen split the *right* one?

The observability stack so far shows what the adaptation loop did —
which trigger fired, which plan the min cut selected, when the split
moved.  This module judges those decisions:

* :class:`RegretAccounting` — **counterfactual regret**.  Per sampled
  message it prices every split that could have replaced the one the
  message actually took (path-local candidates at the cost model's raw
  per-execution prices, via
  :func:`repro.core.runtime.plancost.counterfactual_edge_costs`) and
  records ``actual_cost − min(candidate costs)``: how much the message
  paid over the best split in hindsight.  Regret aggregates into
  fixed-size windows; each closing window records a ``RegretWindow``
  event in the obs event ring, stamped with the most
  recent ``PlanRecomputed``, so plan decisions can be judged after the
  fact.  On a single-chain handler the path-local candidate set is the
  whole candidate set and the min cut is the argmin of the same
  prices, so regret collapses to ~0 within one window of a recompute —
  the acceptance signal the quality-smoke CI job asserts.  On
  multi-path handlers the candidates shrink to the splits provably on
  the message's path, so regret stays a per-message quantity rather
  than comparing against unreachable branches.

* :class:`DriftDetector` — **cost-model drift**.  At each plan
  recompute it snapshots the model's predictions per PSE — INTER(e)
  wire bytes, ``t_mod``, ``t_demod`` — and thereafter compares them
  against observed continuation sizes and service times, maintaining an
  EWMA of the *relative* residual per (PSE, channel).  A residual that
  stays beyond the threshold records a ``DriftDetected`` event (once
  per excursion, with hysteresis), and can feed a
  :class:`~repro.core.runtime.triggers.DriftTrigger` so a stale model
  forces a recompute.  ``prediction_scale`` deliberately miscalibrates
  the stored predictions — the fault-injection knob the integration
  tests use to prove detection works.

Everything is flag-gated and off by default: constructing a plain
:class:`~repro.obs.Observability` never builds these; a harness only
does when ``obs.quality_config`` is set (see
:meth:`Observability.enable_quality`).

The report keeps only the last :data:`REPORT_TAIL` windows, drift
events and plan transitions: a live receiver closes windows for its
whole life and every scrape serializes the report.  The full history
is the ``quality.*`` counters plus the event ring.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

__all__ = [
    "QualityConfig",
    "RegretAccounting",
    "DriftDetector",
    "AdaptationQuality",
    "REPORT_TAIL",
    "keep_tail",
]

#: drift channels and the prediction each one checks
DRIFT_CHANNELS = ("bytes", "t_mod", "t_demod")

#: records kept by every bounded log: closed windows, drift events and
#: plan transitions in the report, and the per-peer logs of applied
#: plans and health and breaker transitions
REPORT_TAIL = 32

_EPS = 1e-12


def keep_tail(items: List, item: object) -> None:
    """Append ``item``, keeping only the newest :data:`REPORT_TAIL`.

    A log bounded this way sits beside an integer total of every
    append, which is what dumps and dashboards count.
    """
    items.append(item)
    del items[:-REPORT_TAIL]


@dataclass(frozen=True)
class QualityConfig:
    """Tuning knobs for the adaptation-quality layer.

    ``regret_sample_rate`` reuses the tracer's credit-accumulator
    sampling (deterministic, no RNG): a rate of 0.25 prices every
    fourth message.  ``prediction_scale`` multiplies the predictions the
    drift detector baselines at each recompute — 1.0 is honest; any
    other value injects a calibration fault that detection must catch.
    ``feed_trigger`` asks the harness to OR a ``DriftTrigger`` into the
    reconfiguration trigger so detected drift forces a recompute.
    """

    regret_window: int = 32
    regret_sample_rate: float = 1.0
    drift_alpha: float = 0.3
    drift_threshold: float = 0.5
    drift_min_samples: int = 5
    prediction_scale: float = 1.0
    feed_trigger: bool = False

    def __post_init__(self) -> None:
        if self.regret_window < 1:
            raise ValueError("regret_window must be >= 1")
        if not 0.0 < self.regret_sample_rate <= 1.0:
            raise ValueError("regret_sample_rate must be in (0, 1]")
        if not 0.0 < self.drift_alpha <= 1.0:
            raise ValueError("drift_alpha must be in (0, 1]")
        if self.drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        if self.drift_min_samples < 1:
            raise ValueError("drift_min_samples must be >= 1")
        if self.prediction_scale <= 0:
            raise ValueError("prediction_scale must be positive")


class RegretAccounting:
    """Windowed counterfactual regret over candidate-PSE prices."""

    def __init__(self, cut, config: QualityConfig, obs) -> None:
        self.cut = cut
        self.config = config
        self.obs = obs
        self.messages = 0  #: observe() calls, sampled or not
        self.sampled = 0
        self.unpriced = 0  #: actual split had no candidate price
        self.windows: List[Dict[str, object]] = []
        #: raw (message stamp, pse_id, regret) trail for determinism checks
        self.sequence: Deque[Tuple[int, str, float]] = deque(maxlen=10_000)
        self.last_transition: Optional[int] = None
        self._credit = 0.0
        self._reset_window()
        self._first_stamp: Optional[int] = None
        metrics = obs.metrics
        self._c_sampled = metrics.counter("quality.regret.sampled")
        self._c_unpriced = metrics.counter("quality.regret.unpriced")
        self._c_windows = metrics.counter("quality.regret.windows")
        self._g_mean = metrics.gauge("quality.regret.window_mean")
        self._g_rel = metrics.gauge("quality.regret.window_rel_mean")

    def _reset_window(self) -> None:
        self._w_count = 0
        self._w_total = 0.0
        self._w_rel_total = 0.0
        self._w_per_pse: Dict[str, List[float]] = {}
        self._first_stamp = None

    def note_transition(self, at_message: int) -> None:
        self.last_transition = at_message

    def observe(self, edge, profiling) -> Optional[float]:
        """Price one shipped message's split against all candidates.

        ``edge`` is the split the message actually took; the snapshot
        comes from *profiling* only after the sampling gate passes, so a
        sampled-out message costs one float add.  Returns the regret, or
        None when sampled out / the split edge carries no candidate
        price (poisoned or forced-terminal splits).
        """
        self.messages += 1
        self._credit += self.config.regret_sample_rate
        if self._credit < 1.0:
            return None
        self._credit -= 1.0
        from repro.core.runtime.plancost import counterfactual_edge_costs

        stamp = profiling.messages_seen
        costs = counterfactual_edge_costs(
            self.cut, profiling.snapshot(), edge
        )
        priced = costs.get(edge)
        if priced is None or not costs:
            self.unpriced += 1
            self._c_unpriced.inc()
            return None
        self.sampled += 1
        self._c_sampled.inc()
        actual = priced[0]
        best = min(cost for cost, _source in costs.values())
        regret = actual - best
        # Relative to what the message actually paid: the avoidable
        # fraction, bounded in [0, 1) even when the best price is ~0.
        rel = regret / max(actual, _EPS)
        pse_id = str(self.cut.pses[edge].pse_id)
        self.sequence.append((stamp, pse_id, regret))
        if self._first_stamp is None:
            self._first_stamp = stamp
        self._w_count += 1
        self._w_total += regret
        self._w_rel_total += rel
        bucket = self._w_per_pse.setdefault(pse_id, [0.0, 0.0])
        bucket[0] += 1.0
        bucket[1] += regret
        self.obs.metrics.gauge(f'quality.regret{{pse="{pse_id}"}}').set(regret)
        if self._w_count >= self.config.regret_window:
            self._close_window(stamp)
        return regret

    def _close_window(self, end_stamp: int) -> None:
        mean = self._w_total / self._w_count
        rel_mean = self._w_rel_total / self._w_count
        per_pse = {
            pid: total / count
            for pid, (count, total) in sorted(self._w_per_pse.items())
        }
        window = {
            "index": int(self._c_windows.value),
            "start_message": self._first_stamp or 0,
            "end_message": end_stamp,
            "count": self._w_count,
            "total_regret": self._w_total,
            "mean_regret": mean,
            "rel_mean_regret": rel_mean,
            "per_pse": per_pse,
            "transition": self.last_transition,
        }
        self.obs.flight.record("RegretWindow", **window)
        keep_tail(self.windows, window)
        self._c_windows.inc()
        self._g_mean.set(mean)
        self._g_rel.set(rel_mean)
        self._reset_window()

    def to_dict(self) -> Dict[str, object]:
        return {
            "messages": self.messages,
            "sampled": self.sampled,
            "unpriced": self.unpriced,
            "sample_rate": self.config.regret_sample_rate,
            "window": self.config.regret_window,
            "windows": list(self.windows),
            "open_window_count": self._w_count,
            "last_transition": self.last_transition,
        }


@dataclass
class _Residual:
    """EWMA of one (PSE, channel) relative prediction error."""

    alpha: float
    mean: float = 0.0
    count: int = 0
    flagged: bool = False

    def update(self, value: float) -> None:
        if self.count == 0:
            self.mean = value
        else:
            self.mean += self.alpha * (value - self.mean)
        self.count += 1


class DriftDetector:
    """EWMA residuals of cost-model predictions vs. observed reality."""

    def __init__(self, cut, config: QualityConfig, obs) -> None:
        self.cut = cut
        self.config = config
        self.obs = obs
        #: per-edge predicted {channel: value}, set at each rebaseline
        self.predictions: Dict[object, Dict[str, float]] = {}
        self.residuals: Dict[Tuple[object, str], _Residual] = {}
        self.events: List[Dict[str, object]] = []
        self.rebaselines = 0
        #: un-consumed detection, for DriftTrigger
        self.pending = False
        self._c_events = obs.metrics.counter("quality.drift.events")
        self._c_observations = obs.metrics.counter(
            "quality.drift.observations"
        )

    def rebaseline(self, snapshot) -> None:
        """Capture the model's current predictions as the new baseline.

        Called at each ``PlanRecomputed``: the plan was chosen from
        these numbers, so they are exactly the predictions whose decay
        matters.  Residual EWMAs restart — drift is judged against the
        *latest* calibration, not an average over stale ones.
        ``prediction_scale`` multiplies every stored prediction (fault
        injection; 1.0 in honest operation).
        """
        scale = self.config.prediction_scale
        self.rebaselines += 1
        self.predictions = {}
        for edge, snap in snapshot.items():
            per_channel: Dict[str, float] = {}
            if snap.data_size is not None:
                per_channel["bytes"] = snap.data_size * scale
            if snap.t_mod is not None:
                per_channel["t_mod"] = snap.t_mod * scale
            if snap.t_demod is not None:
                per_channel["t_demod"] = snap.t_demod * scale
            if per_channel:
                self.predictions[edge] = per_channel
        self.residuals = {}

    def observe(self, edge, channel: str, observed: float,
                at_message: int) -> Optional[float]:
        """Compare one observation against the baselined prediction.

        Returns the updated EWMA residual, or None when the channel was
        never predicted for this edge (no baseline yet, or the snapshot
        had no data for it).
        """
        predicted = self.predictions.get(edge, {}).get(channel)
        if predicted is None or predicted <= 0:
            return None
        self._c_observations.inc()
        residual = (observed - predicted) / max(abs(predicted), _EPS)
        key = (edge, channel)
        stat = self.residuals.get(key)
        if stat is None:
            stat = self.residuals[key] = _Residual(
                alpha=self.config.drift_alpha
            )
        stat.update(residual)
        pse_id = str(self.cut.pses[edge].pse_id)
        self.obs.metrics.gauge(
            f'quality.drift.residual{{pse="{pse_id}",channel="{channel}"}}'
        ).set(stat.mean)
        threshold = self.config.drift_threshold
        excursion = abs(stat.mean) > threshold
        if (
            excursion
            and not stat.flagged
            and stat.count >= self.config.drift_min_samples
        ):
            stat.flagged = True
            self.pending = True
            self._c_events.inc()
            event = {
                "at_message": at_message,
                "pse_id": pse_id,
                "channel": channel,
                "predicted": predicted,
                "observed": observed,
                "residual": stat.mean,
                "threshold": threshold,
            }
            self.obs.flight.record("DriftDetected", **event)
            keep_tail(self.events, event)
        elif stat.flagged and abs(stat.mean) < threshold / 2:
            # Hysteresis: re-arm only once the residual clearly recovers,
            # so a value oscillating around the threshold fires once.
            stat.flagged = False
        return stat.mean

    def to_dict(self) -> Dict[str, object]:
        residuals = []
        for (edge, channel), stat in sorted(
            self.residuals.items(), key=lambda item: (item[0][0], item[0][1])
        ):
            residuals.append(
                {
                    "pse_id": str(self.cut.pses[edge].pse_id),
                    "edge": list(edge),
                    "channel": channel,
                    "residual": stat.mean,
                    "count": stat.count,
                    "flagged": stat.flagged,
                }
            )
        return {
            "rebaselines": self.rebaselines,
            "threshold": self.config.drift_threshold,
            "prediction_scale": self.config.prediction_scale,
            "residuals": residuals,
            "events": list(self.events),
        }


class AdaptationQuality:
    """Facade wiring regret + drift into one harness-facing object.

    One instance per partitioned handler (it holds the handler's cut);
    the harness calls the ``observe_*`` hooks from its message path and
    the :class:`~repro.core.runtime.reconfig.ReconfigurationUnit` calls
    :meth:`on_plan_recomputed` from its decision path.
    """

    def __init__(self, cut, config: QualityConfig, obs) -> None:
        self.cut = cut
        self.config = config
        self.obs = obs
        self.regret = RegretAccounting(cut, config, obs)
        self.drift = DriftDetector(cut, config, obs)
        self.transitions: List[Dict[str, object]] = []
        self.active_pses: Tuple[str, ...] = ()

    def on_plan_recomputed(self, at_message: int, plan, snapshot) -> None:
        self.active_pses = tuple(
            sorted(
                str(self.cut.pses[e].pse_id)
                for e in plan.active
                if e in self.cut.pses
            )
        )
        keep_tail(
            self.transitions,
            {"at_message": at_message, "pse_ids": list(self.active_pses)},
        )
        self.regret.note_transition(at_message)
        self.drift.rebaseline(snapshot)

    # -- message-path hooks ---------------------------------------------------

    def observe_message(self, edge, profiling) -> Optional[float]:
        """Regret-price one shipped message split at *edge*."""
        return self.regret.observe(edge, profiling)

    def observe_ship_bytes(self, edge, nbytes: float,
                           at_message: int) -> None:
        self.drift.observe(edge, "bytes", nbytes, at_message)

    def observe_mod_time(self, edge, seconds: float,
                         at_message: int) -> None:
        self.drift.observe(edge, "t_mod", seconds, at_message)

    def observe_demod_time(self, edge, seconds: float,
                           at_message: int) -> None:
        self.drift.observe(edge, "t_demod", seconds, at_message)

    def report(self) -> Dict[str, object]:
        """JSON-serializable quality report (also ``obs.to_dict()['quality']``)."""
        return {
            "config": {
                "regret_window": self.config.regret_window,
                "regret_sample_rate": self.config.regret_sample_rate,
                "drift_alpha": self.config.drift_alpha,
                "drift_threshold": self.config.drift_threshold,
                "drift_min_samples": self.config.drift_min_samples,
                "prediction_scale": self.config.prediction_scale,
                "feed_trigger": self.config.feed_trigger,
            },
            "active_pses": list(self.active_pses),
            "transitions": list(self.transitions),
            "regret": self.regret.to_dict(),
            "drift": self.drift.to_dict(),
        }

    to_dict = report
