"""The adaptation loop's decisions in the one event ring."""

import json

import pytest

from repro.obs import Observability
from repro.obs.flight import FlightRecorder


def test_events_carry_kind_and_serialize():
    obs = Observability(host="h")
    fired = obs.flight.record(
        "TriggerFired", at_message=7, trigger="DiffTrigger",
        reason={"cause": "drift"},
    )
    assert fired["kind"] == "TriggerFired"
    assert fired["host"] == "h"
    assert fired["at_message"] == 7
    json.dumps(fired)

    switch = obs.flight.record(
        "SplitSwitched",
        old_pse_ids=("pse0",),
        new_pse_ids=("pse1",),
        old_edges=((0, 1),),
        new_edges=((2, 3),),
    )
    assert switch["new_pse_ids"] == ("pse1",)


def test_trace_log_records_in_order():
    ring = FlightRecorder(host="h")
    ring.record("TriggerFired", at_message=1, trigger="RateTrigger")
    ring.record("PlanRecomputed", at_message=1, cut_value=2.0, pse_ids=())
    ring.record("net.shed", peer="r0", dropped_total=1)
    assert [e["kind"] for e in ring.to_list()] == [
        "TriggerFired",
        "PlanRecomputed",
        "net.shed",
    ]
    assert [e["at_message"] for e in ring.of_kind("PlanRecomputed")] == [1]


def test_trace_log_ring_buffer_drops_and_keeps_lifetime_counts():
    ring = FlightRecorder(maxlen=3, host="h")
    for i in range(5):
        ring.record("PlanRecomputed", at_message=i, cut_value=1.0, pse_ids=())
    assert len(ring.to_list()) == 3
    assert ring.dropped == 2
    # count() is lifetime, including evicted events
    assert ring.count("PlanRecomputed") == 5
    assert ring.to_dict()["counts"] == {"PlanRecomputed": 5}
    assert [e["at_message"] for e in ring.to_list()] == [2, 3, 4]


def test_per_kind_totals_survive_eviction_of_that_kind():
    ring = FlightRecorder(maxlen=4, host="r")
    for i in range(10):
        ring.record("DriftDetected", at_message=i, pse_id="s1",
                    channel="bytes")
    assert ring.count("DriftDetected") == 10
    assert len(ring.of_kind("DriftDetected")) == 4


def test_trace_log_validates_maxlen():
    with pytest.raises(ValueError, match="maxlen must be positive"):
        FlightRecorder(maxlen=0)


def test_observability_to_dict_is_json_serializable():
    obs = Observability(host="h")
    obs.flight = FlightRecorder(maxlen=2, host="h")
    obs.metrics.counter("interp.executions").inc(4)
    for i in (1, 2, 3):
        obs.flight.record("TriggerFired", at_message=i, trigger="RateTrigger")
    data = obs.to_dict()
    json.dumps(data)
    assert data["metrics"]["counters"]["interp.executions"] == 4.0
    assert data["flight"]["counts"]["TriggerFired"] == 3
    assert data["flight"]["dropped"] == 1
    assert len(data["flight"]["events"]) == 2
    assert "trace" not in data


def test_untouched_observability_dumps_an_empty_ring_and_no_gauges():
    data = Observability().to_dict()
    assert data["flight"]["events"] == []
    assert data["flight"]["maxlen"] == 10_000
    assert data["metrics"]["gauges"] == {}
