"""The adaptation-quality layer against the real figure-7 loop.

Acceptance scenarios for the regret/drift accounting:

* windowed counterfactual regret collapses to ~0 within one window of a
  plan recompute (the min cut and the per-message counterfactual agree
  on the sensor chain);
* an injected miscalibration (``prediction_scale``) raises
  ``DriftDetected``, and with ``feed_trigger`` forces a recompute;
* everything is flag-gated off by default.
"""

from __future__ import annotations

import pytest

from repro.apps.harness import run_pipeline
from repro.apps.sensor.data import reading_stream
from repro.apps.sensor.versions import make_mp_sensor_version
from repro.obs import Observability
from repro.simnet.cluster import intel_pair
from repro.simnet.perturbation import PerturbationSpec
from repro.simnet.simulator import Simulator


def _run(obs, n_messages=90, seed=1, backend="codegen"):
    sim = Simulator()
    testbed = intel_pair(
        sim,
        consumer_load=PerturbationSpec(
            plen=(0.0, 2.0), aprob=0.8, lindex=0.8
        ),
        seed=seed,
    )
    version = make_mp_sensor_version(obs=obs, backend=backend)
    run_pipeline(testbed, version, reading_stream(n_messages))
    return version


def test_quality_off_by_default():
    obs = Observability()
    version = _run(obs, n_messages=40)
    assert version.quality is None
    assert "quality" not in obs.to_dict()
    assert obs.flight.count("RegretWindow") == 0
    counters = obs.to_dict()["metrics"]["counters"]
    assert not any(name.startswith("quality.") for name in counters)


def test_regret_collapses_after_recompute():
    obs = Observability()
    obs.enable_quality(regret_window=16)
    version = _run(obs)
    assert version.quality is obs.quality

    recomputes = obs.flight.of_kind("PlanRecomputed")
    windows = obs.flight.of_kind("RegretWindow")
    assert recomputes and windows

    # A settled window started after the transition it is stamped with:
    # the whole window ran under one plan, within one window's distance
    # of the recompute that installed it.
    settled = [
        w
        for w in windows
        if w["transition"] is not None
        and w["start_message"] > w["transition"]
    ]
    assert settled, "no window closed entirely after a recompute"
    for window in settled:
        # ~0 within one window of the recompute: the plan's split is the
        # argmin of the same counterfactual prices.
        assert window["rel_mean_regret"] < 0.10
    # A settled window ran under one plan whose splits are the argmin of
    # the counterfactual prices, so its per-split regret is essentially 0.
    for window in settled:
        for regret in window["per_pse"].values():
            assert regret == pytest.approx(0.0, abs=1e-6)

    report = obs.to_dict()["quality"]
    assert report["regret"]["sampled"] > 0
    assert report["regret"]["unpriced"] == 0
    assert report["transitions"]


def test_honest_predictions_raise_no_drift():
    # Honest (unscaled) predictions track reality to well within 100%;
    # the default 0.5 threshold may catch genuine load drift, so the
    # false-positive check runs at 1.0.
    obs = Observability()
    obs.enable_quality(regret_window=16, drift_threshold=1.0)
    version = _run(obs)
    assert version.quality.drift.rebaselines >= 1
    assert obs.flight.count("DriftDetected") == 0
    assert version.quality.drift.events == []
    residuals = version.quality.drift.to_dict()["residuals"]
    assert residuals  # the channels were observed, just not out of range
    assert all(abs(r["residual"]) < 1.0 for r in residuals)


def test_injected_miscalibration_is_detected():
    obs = Observability()
    # Predictions 4x too small: relative residual ~ +3, far beyond any
    # honest excursion (over-predictions saturate at -1, so the
    # under-prediction direction is the sharper probe).
    obs.enable_quality(
        regret_window=16,
        prediction_scale=0.25,
        drift_threshold=1.0,
        drift_min_samples=3,
    )
    version = _run(obs)
    events = obs.flight.of_kind("DriftDetected")
    assert events, "4x-under-scaled predictions must be flagged"
    event = events[0]
    assert event["residual"] > 1.0
    assert event["channel"] in ("bytes", "t_mod", "t_demod")
    assert event["pse_id"] in {p.pse_id for p in version.partitioned.cut.pses.values()}
    report = version.quality.report()
    assert report["drift"]["events"]
    assert any(r["flagged"] for r in report["drift"]["residuals"])


def test_drift_feeds_trigger_and_forces_recompute():
    from repro.core.runtime.triggers import RateTrigger

    obs = Observability()
    obs.enable_quality(
        prediction_scale=0.25,
        drift_threshold=1.0,
        drift_min_samples=3,
        feed_trigger=True,
    )
    sim = Simulator()
    testbed = intel_pair(
        sim,
        consumer_load=PerturbationSpec(
            plen=(0.0, 2.0), aprob=0.8, lindex=0.8
        ),
        seed=1,
    )
    partitioned_version = make_mp_sensor_version(obs=obs)
    # Replace the default diff/rate composite with a slow rate trigger so
    # a mid-period recompute can only come from the drift path.
    from repro.apps.mp_version import MethodPartitioningVersion

    version = MethodPartitioningVersion(
        partitioned_version.partitioned,
        trigger=RateTrigger(period=40),
        adaptive=True,
        location="receiver",
        obs=obs,
    )
    version.sink = partitioned_version.sink
    run_pipeline(testbed, version, reading_stream(120))

    fired = obs.flight.of_kind("TriggerFired")
    drift_fires = [
        e
        for e in fired
        if (e["reason"] or {}).get("trigger") == "drift"
    ]
    assert drift_fires, "pending drift must fire the DriftTrigger"
    assert obs.flight.count("DriftDetected") >= 1
    # One excursion buys one recompute: the pending flag was consumed.
    assert version.quality.drift.pending is False


def test_regret_sequence_identical_across_backends():
    """Backend equivalence extends to the quality layer: the tree walker
    and the codegen backend must produce the same regret trail."""
    sequences = {}
    for backend in ("tree", "codegen"):
        obs = Observability()
        obs.enable_quality(regret_window=16)
        version = _run(obs, n_messages=60, backend=backend)
        sequences[backend] = list(version.quality.regret.sequence)
    assert sequences["tree"], "regret trail must not be empty"
    assert sequences["tree"] == sequences["codegen"]
