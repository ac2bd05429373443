"""Unit tests for the adaptation-quality layer (regret + drift)."""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Dict, Optional, Tuple

import pytest

from repro.core.runtime.plancost import counterfactual_edge_costs
from repro.core.runtime.triggers import DriftTrigger
from repro.obs import Observability
from repro.obs.quality import (
    REPORT_TAIL,
    AdaptationQuality,
    DriftDetector,
    QualityConfig,
    RegretAccounting,
)

E1, E2, E3 = (1, 2), (2, 3), (3, 4)


@dataclass
class _Snap:
    data_size: Optional[float] = None
    t_mod: Optional[float] = None
    t_demod: Optional[float] = None


class _Model:
    """Raw per-execution price = the snapshot's data_size."""

    def runtime_edge_cost_raw(self, snap) -> float:
        return float(snap.data_size)


def _pse(pse_id: str, lower_bound: float = 1.0):
    return SimpleNamespace(
        pse_id=pse_id,
        static_cost=SimpleNamespace(lower_bound=lower_bound),
    )


def _chain_cut(poisoned=frozenset()):
    """A three-candidate single chain: every path sees every edge."""
    pses = {E1: _pse("s1"), E2: _pse("s2"), E3: _pse("s3")}
    return SimpleNamespace(
        pses=pses,
        poisoned=frozenset(poisoned),
        path_pse_edges=((None, (E1, E2, E3)),),
        cost_model=_Model(),
    )


def _branch_cut():
    """Two paths sharing E1; E2 and E3 live on different branches."""
    pses = {E1: _pse("s1"), E2: _pse("s2"), E3: _pse("s3")}
    return SimpleNamespace(
        pses=pses,
        poisoned=frozenset(),
        path_pse_edges=((None, (E1, E2)), (None, (E1, E3))),
        cost_model=_Model(),
    )


@dataclass
class _Profiling:
    messages_seen: int = 0
    snaps: Dict[Tuple[int, int], _Snap] = field(default_factory=dict)

    def snapshot(self):
        return dict(self.snaps)


# -- QualityConfig -------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"regret_window": 0}, "regret_window"),
        ({"regret_sample_rate": 0.0}, "regret_sample_rate"),
        ({"regret_sample_rate": 1.5}, "regret_sample_rate"),
        ({"drift_alpha": 0.0}, "drift_alpha"),
        ({"drift_alpha": 1.5}, "drift_alpha"),
        ({"drift_threshold": 0.0}, "drift_threshold"),
        ({"drift_min_samples": 0}, "drift_min_samples"),
        ({"prediction_scale": 0.0}, "prediction_scale"),
    ],
)
def test_config_validation(kwargs, match):
    with pytest.raises(ValueError, match=match):
        QualityConfig(**kwargs)


def test_config_defaults_are_valid():
    config = QualityConfig()
    assert config.regret_sample_rate == 1.0
    assert config.prediction_scale == 1.0
    assert config.feed_trigger is False


# -- counterfactual pricing ----------------------------------------------------


def test_counterfactual_chain_prices_all_candidates():
    cut = _chain_cut()
    stats = {E1: _Snap(data_size=10.0), E2: _Snap(data_size=2.0)}
    costs = counterfactual_edge_costs(cut, stats, E1)
    assert costs[E1] == (10.0, "profiled")
    assert costs[E2] == (2.0, "profiled")
    assert costs[E3] == (1.0, "static")  # lower bound fallback


def test_counterfactual_branches_intersect_paths():
    cut = _branch_cut()
    stats = {e: _Snap(data_size=5.0) for e in (E1, E2, E3)}
    # E2 lives only on path 1 — its counterfactuals are E1 and E2, never
    # the other branch's E3.
    assert set(counterfactual_edge_costs(cut, stats, E2)) == {E1, E2}
    # E1 is on both paths, so only it is guaranteed on the message's path.
    assert set(counterfactual_edge_costs(cut, stats, E1)) == {E1}


def test_counterfactual_poisoned_or_unknown_edge_is_empty():
    cut = _chain_cut(poisoned={E2})
    stats = {e: _Snap(data_size=5.0) for e in (E1, E3)}
    assert E2 not in counterfactual_edge_costs(cut, stats, E1)
    assert counterfactual_edge_costs(cut, stats, (9, 9)) == {}


# -- RegretAccounting ----------------------------------------------------------


def _regret(config=None, cut=None):
    obs = Observability()
    return (
        RegretAccounting(
            cut or _chain_cut(), config or QualityConfig(), obs
        ),
        obs,
    )


def test_regret_is_actual_minus_best():
    accounting, _obs = _regret()
    profiling = _Profiling(
        messages_seen=1,
        snaps={E1: _Snap(data_size=10.0), E2: _Snap(data_size=2.0),
               E3: _Snap(data_size=7.0)},
    )
    assert accounting.observe(E1, profiling) == pytest.approx(8.0)
    assert accounting.observe(E2, profiling) == pytest.approx(0.0)
    assert accounting.sampled == 2


def test_regret_window_closes_and_emits_event():
    config = QualityConfig(regret_window=3)
    accounting, obs = _regret(config)
    accounting.note_transition(7)
    snaps = {E1: _Snap(data_size=10.0), E2: _Snap(data_size=2.0),
             E3: _Snap(data_size=4.0)}
    for i, edge in enumerate((E1, E2, E3), start=1):
        accounting.observe(edge, _Profiling(messages_seen=i, snaps=snaps))
    events = obs.flight.of_kind("RegretWindow")
    assert len(events) == 1
    window = events[0]
    assert window["index"] == 0
    assert window["count"] == 3
    assert window["start_message"] == 1 and window["end_message"] == 3
    # regrets: 8 (E1), 0 (E2), 2 (E3)
    assert window["total_regret"] == pytest.approx(10.0)
    assert window["mean_regret"] == pytest.approx(10.0 / 3)
    assert window["per_pse"] == {"s1": 8.0, "s2": 0.0, "s3": 2.0}
    assert window["transition"] == 7
    assert 0.0 <= window["rel_mean_regret"] < 1.0
    counters = obs.metrics.to_dict()["counters"]
    assert counters["quality.regret.windows"] == 1
    assert counters["quality.regret.sampled"] == 3


def test_regret_sampling_is_deterministic_credit():
    config = QualityConfig(regret_sample_rate=0.5)
    accounting, _obs = _regret(config)
    snaps = {e: _Snap(data_size=5.0) for e in (E1, E2, E3)}
    for i in range(10):
        accounting.observe(E1, _Profiling(messages_seen=i + 1, snaps=snaps))
    assert accounting.messages == 10
    assert accounting.sampled == 5


def test_regret_unpriced_when_edge_has_no_candidates():
    accounting, obs = _regret(cut=_chain_cut(poisoned={E1}))
    snaps = {e: _Snap(data_size=5.0) for e in (E2, E3)}
    assert accounting.observe(E1, _Profiling(1, snaps)) is None
    assert accounting.unpriced == 1
    assert accounting.sampled == 0
    assert obs.metrics.to_dict()["counters"]["quality.regret.unpriced"] == 1


def test_regret_rel_bounded_when_best_is_zero():
    accounting, _obs = _regret()
    snaps = {E1: _Snap(data_size=10.0), E2: _Snap(data_size=0.0)}
    accounting.observe(E1, _Profiling(1, snaps))
    assert accounting._w_rel_total == pytest.approx(1.0)  # 10/10, not 10/eps


# -- DriftDetector -------------------------------------------------------------


def _detector(config=None):
    obs = Observability()
    return DriftDetector(_chain_cut(), config or QualityConfig(), obs), obs


def test_drift_needs_a_baseline():
    detector, _obs = _detector()
    assert detector.observe(E1, "bytes", 100.0, at_message=1) is None
    detector.rebaseline({E1: _Snap(data_size=100.0)})
    assert detector.observe(E1, "bytes", 100.0, at_message=2) == pytest.approx(
        0.0
    )


def test_drift_prediction_scale_injects_miscalibration():
    detector, _obs = _detector(QualityConfig(prediction_scale=2.0))
    detector.rebaseline({E1: _Snap(data_size=100.0)})
    # Reality is 100, the (scaled) prediction 200: residual -0.5.
    assert detector.observe(E1, "bytes", 100.0, at_message=1) == pytest.approx(
        -0.5
    )


def test_drift_fires_once_per_excursion_with_hysteresis():
    config = QualityConfig(
        drift_threshold=0.5, drift_min_samples=3, drift_alpha=1.0
    )
    detector, obs = _detector(config)
    detector.rebaseline({E1: _Snap(data_size=100.0)})
    # Three over-threshold observations: flags exactly at min_samples.
    for i in range(3):
        detector.observe(E1, "bytes", 200.0, at_message=i + 1)
    assert detector.pending is True
    assert len(detector.events) == 1
    event = obs.flight.of_kind("DriftDetected")[0]
    assert event["pse_id"] == "s1" and event["channel"] == "bytes"
    assert event["residual"] == pytest.approx(1.0)
    # Still over threshold: no second event.
    detector.observe(E1, "bytes", 200.0, at_message=4)
    assert len(detector.events) == 1
    # Back near the prediction but above threshold/2: still armed off.
    detector.observe(E1, "bytes", 140.0, at_message=5)
    assert len(detector.events) == 1
    # Clear recovery (alpha=1 ⇒ mean = last residual) re-arms ...
    detector.observe(E1, "bytes", 100.0, at_message=6)
    # ... so a new excursion fires a second event.
    detector.observe(E1, "bytes", 200.0, at_message=7)
    assert len(detector.events) == 2


def test_drift_rebaseline_resets_residuals():
    detector, _obs = _detector(QualityConfig(drift_alpha=1.0))
    detector.rebaseline({E1: _Snap(data_size=100.0)})
    detector.observe(E1, "bytes", 200.0, at_message=1)
    assert detector.residuals
    detector.rebaseline({E1: _Snap(data_size=200.0)})
    assert detector.rebaselines == 2
    assert not detector.residuals
    assert detector.observe(E1, "bytes", 200.0, at_message=2) == pytest.approx(
        0.0
    )


def test_drift_trigger_consumes_pending():
    detector, _obs = _detector(
        QualityConfig(drift_threshold=0.5, drift_min_samples=1)
    )
    trigger = DriftTrigger(detector)
    profiling = _Profiling(1, {})
    assert trigger.should_fire(profiling) is False
    detector.rebaseline({E1: _Snap(data_size=100.0)})
    detector.observe(E1, "bytes", 300.0, at_message=1)
    assert detector.pending is True
    assert trigger.should_fire(profiling) is True
    assert trigger.last_reason["cause"] == "model-drift"
    trigger.fired(profiling)
    assert detector.pending is False
    assert trigger.should_fire(profiling) is False


# -- AdaptationQuality facade --------------------------------------------------


def test_facade_recompute_rebaselines_and_stamps_transitions():
    obs = Observability()
    quality = AdaptationQuality(_chain_cut(), QualityConfig(), obs)
    snapshot = {E1: _Snap(data_size=10.0), E2: _Snap(data_size=2.0)}
    plan = SimpleNamespace(active=frozenset({E2}))
    quality.on_plan_recomputed(5, plan, snapshot)
    assert quality.active_pses == ("s2",)
    assert quality.transitions == [{"at_message": 5, "pse_ids": ["s2"]}]
    assert quality.regret.last_transition == 5
    assert quality.drift.predictions[E1]["bytes"] == 10.0
    report = quality.report()
    assert report["active_pses"] == ["s2"]
    assert report["regret"]["windows"] == []
    assert report["drift"]["rebaselines"] == 1


def test_facade_observe_hooks_route_to_channels():
    obs = Observability()
    quality = AdaptationQuality(_chain_cut(), QualityConfig(), obs)
    quality.drift.rebaseline(
        {E1: _Snap(data_size=100.0, t_mod=1.0, t_demod=2.0)}
    )
    quality.observe_ship_bytes(E1, 100.0, at_message=1)
    quality.observe_mod_time(E1, 1.0, at_message=1)
    quality.observe_demod_time(E1, 2.0, at_message=1)
    assert {(e, c) for e, c in quality.drift.residuals} == {
        (E1, "bytes"), (E1, "t_mod"), (E1, "t_demod")
    }
    regret = quality.observe_message(
        E1, _Profiling(1, {E1: _Snap(data_size=3.0)})
    )
    # E2/E3 are unprofiled, priced at their static lower bound of 1.0.
    assert regret == pytest.approx(2.0)


# -- bounded report ------------------------------------------------------------


def _churn(n: int):
    """A facade after ``n`` closed windows, drift events and recomputes."""
    obs = Observability()
    config = QualityConfig(
        regret_window=1, drift_alpha=1.0, drift_min_samples=1
    )
    quality = AdaptationQuality(_chain_cut(), config, obs)
    obs.quality = quality
    snaps = {E1: _Snap(data_size=10.0), E2: _Snap(data_size=2.0)}
    plan = SimpleNamespace(active=frozenset({E2}))
    for i in range(n):
        quality.on_plan_recomputed(i, plan, {E1: _Snap(data_size=100.0)})
        quality.observe_message(E1, _Profiling(i, snaps))
        quality.observe_ship_bytes(E1, 200.0, at_message=i)
    return obs, quality


def _shape(obs) -> int:
    """Length of the serialized report with every number one digit wide."""
    text = json.dumps(obs.to_dict()["quality"])
    return len(re.sub(r"-?\d+(\.\d+)?(e[-+]?\d+)?", "0", text))


def test_report_keeps_a_fixed_tail_of_windows_drift_and_transitions():
    small, _ = _churn(1_000)
    obs, quality = _churn(10_000)
    report = quality.report()
    windows = report["regret"]["windows"]
    assert obs.metrics.counter("quality.regret.windows").value == 10_000
    assert obs.flight.count("DriftDetected") == 10_000
    for tail in (windows, report["drift"]["events"], report["transitions"]):
        assert len(tail) <= REPORT_TAIL
    assert windows[-1]["index"] == 9_999
    # Every scrape serializes the report: its size no longer grows with
    # the receiver's age (numbers only gain digits).
    assert _shape(small) == _shape(obs)
