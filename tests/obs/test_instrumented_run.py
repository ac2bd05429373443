"""End-to-end observability: instrumented runs trace the adaptation loop
and — with observability disabled — results are byte-identical."""

import pytest

from repro.obs import Observability
from tests.conftest import ImageData


def test_channel_run_populates_metrics_and_trace(
    push_partitioned, push_serializer_registry, display_log
):
    from repro.core.runtime.triggers import DiffTrigger
    from repro.jecho import EventChannel

    obs = Observability()
    channel = EventChannel(
        serializer_registry=push_serializer_registry, obs=obs
    )
    channel.subscribe_partitioned(
        push_partitioned, trigger=DiffTrigger(threshold=0.2, min_interval=1)
    )
    for size in (30, 30, 200, 200, 200, 30):
        channel.publish(ImageData(None, size, size))
    assert len(display_log) == 6

    counters = obs.to_dict()["metrics"]["counters"]
    assert counters["interp.executions"] >= 6
    assert counters["interp.instructions"] > 0
    assert counters["interp.continuations_captured"] >= 1
    assert counters["interp.continuations_restored"] >= 1
    assert counters["profiling.observations"] > 0
    assert counters["channel.continuations_sent"] >= 1
    assert counters["transport.data.messages"] >= 1
    assert counters["transport.data.bytes"] > 0
    # Per-message ships are counters, never ring events: at message
    # rate they would evict the rare decisions.
    assert set(obs.flight.to_dict()["counts"]) <= {
        "TriggerFired", "PlanRecomputed", "SplitSwitched"
    }


def _run_sensor_mp(obs, n_messages=60, seed=1):
    from repro.apps.harness import run_pipeline
    from repro.apps.sensor.data import reading_stream
    from repro.apps.sensor.versions import make_mp_sensor_version
    from repro.simnet.cluster import intel_pair
    from repro.simnet.perturbation import PerturbationSpec
    from repro.simnet.simulator import Simulator

    sim = Simulator()
    testbed = intel_pair(
        sim,
        consumer_load=PerturbationSpec(
            plen=(0.0, 2.0), aprob=0.8, lindex=0.8
        ),
        seed=seed,
    )
    version = make_mp_sensor_version(obs=obs)
    return run_pipeline(testbed, version, reading_stream(n_messages))


def test_mp_sensor_run_traces_adaptation_decisions():
    """The acceptance scenario: a perturbed MP run must leave >= 1
    TriggerFired and >= 1 SplitSwitched (with old/new PSE ids) in the
    trace, and the report must render it."""
    obs = Observability()
    _run_sensor_mp(obs)

    assert obs.flight.count("TriggerFired") >= 1
    assert obs.flight.count("PlanRecomputed") >= 1
    assert obs.flight.count("SplitSwitched") >= 1
    switch = obs.flight.of_kind("SplitSwitched")[0]
    assert switch["old_pse_ids"] != switch["new_pse_ids"]
    assert all(isinstance(p, str) for p in switch["new_pse_ids"])
    fired = obs.flight.of_kind("TriggerFired")[0]
    assert fired["trigger"] in (
        "CompositeTrigger", "DiffTrigger", "RateTrigger"
    )
    assert fired["at_message"] >= 1

    counters = obs.to_dict()["metrics"]["counters"]
    assert counters["reconfig.trigger_fires"] == obs.flight.count(
        "TriggerFired"
    )
    assert counters["modulator.plan_switches"] == obs.flight.count(
        "SplitSwitched"
    )
    assert counters["sim.events"] > 0

    from repro.tools.obs import render_report

    report = render_report(obs.to_dict())
    assert "TriggerFired" in report
    assert "SplitSwitched" in report
    assert "sim.events" in report


def test_results_identical_with_and_without_observability():
    """Observability must be read-only: attaching it cannot change a
    single number the experiment produces."""
    plain = _run_sensor_mp(None)
    observed = _run_sensor_mp(Observability())
    assert observed.avg_processing_time == plain.avg_processing_time
    assert observed.bytes_sent == plain.bytes_sent
    assert observed.n_delivered == plain.n_delivered
