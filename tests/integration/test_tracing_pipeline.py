"""End-to-end tracing through the simulated sensor pipeline.

The acceptance bar for the tracing subsystem: one quick adaptive run must
produce at least one *complete* causal chain ``modulate → ship →
demodulate`` spanning both simnet hosts with monotonically nested
simulated timestamps, control-plane traces for every plan recomputation,
a valid Chrome-trace export, and a cost breakdown behind every
``PlanRecomputed`` decision.
"""

import json

import pytest

from repro.apps.harness import run_pipeline
from repro.apps.sensor.data import reading_stream
from repro.apps.sensor.versions import make_mp_sensor_version
from repro.obs import Observability
from repro.obs.export import chrome_trace, render_trace_summary
from repro.simnet import Simulator, intel_pair
from repro.tools.obs import render_explain, render_trace_trees


@pytest.fixture(scope="module")
def traced_run():
    obs = Observability()
    obs.enable_tracing(sampling_rate=1.0)
    testbed = intel_pair(Simulator(), seed=3)
    version = make_mp_sensor_version(obs=obs)
    result = run_pipeline(testbed, version, reading_stream(50))
    return obs.to_dict(), result


def _spans(data):
    return data["tracing"]["spans"]


def _full_chains(data):
    by_id = {s["span"]: s for s in _spans(data)}
    chains = []
    for demod in _spans(data):
        if demod["name"] != "demodulate" or demod["parent"] not in by_id:
            continue
        ship = by_id[demod["parent"]]
        if ship["name"] != "ship" or ship["parent"] not in by_id:
            continue
        mod = by_id[ship["parent"]]
        if mod["name"] == "modulate":
            chains.append((mod, ship, demod))
    return chains


def test_all_delivered_messages_have_full_chains(traced_run):
    data, result = traced_run
    chains = _full_chains(data)
    assert result.n_delivered == 50
    assert len(chains) == 50


def test_chains_span_both_hosts_with_monotone_timestamps(traced_run):
    data, _ = traced_run
    for mod, ship, demod in _full_chains(data):
        assert mod["host"] == "intel-producer"
        assert ship["host"] == "ethernet"
        assert demod["host"] == "intel-consumer"
        seq = (
            mod["start"],
            mod["end"],
            ship["start"],
            ship["end"],
            demod["start"],
            demod["end"],
        )
        assert all(a <= b for a, b in zip(seq, seq[1:])), seq
        # one trace id stitches the whole chain
        assert mod["trace"] == ship["trace"] == demod["trace"]


def test_every_parent_child_pair_nests(traced_run):
    data, _ = traced_run
    by_id = {s["span"]: s for s in _spans(data)}
    for span in _spans(data):
        parent = by_id.get(span["parent"])
        if parent is not None:
            assert parent["start"] <= span["start"] <= span["end"]


def test_control_plane_traces_recorded(traced_run):
    data, _ = traced_run
    names = {s["name"] for s in _spans(data)}
    assert {"trigger", "plan.recompute", "plan.ship", "plan.apply"} <= names
    # recompute spans are children of their trigger span
    by_id = {s["span"]: s for s in _spans(data)}
    recomputes = [s for s in _spans(data) if s["name"] == "plan.recompute"]
    assert recomputes
    for span in recomputes:
        assert by_id[span["parent"]]["name"] == "trigger"


def test_plan_recomputed_events_carry_breakdowns(traced_run):
    data, _ = traced_run
    events = [
        e
        for e in data["flight"]["events"]
        if e["kind"] == "PlanRecomputed"
    ]
    assert events
    for event in events:
        assert event["breakdown"], "recompute without a cost breakdown"
        for row in event["breakdown"]:
            assert set(row) >= {"pse_id", "edge", "cost", "chosen", "source"}
        assert any(row["chosen"] for row in event["breakdown"])


def test_chrome_export_is_valid_trace_events(traced_run):
    data, _ = traced_run
    out = json.loads(json.dumps(chrome_trace(data["tracing"])))
    assert isinstance(out["traceEvents"], list)
    hosts = {
        e["args"]["name"] for e in out["traceEvents"] if e["ph"] == "M"
    }
    assert {"intel-producer", "intel-consumer", "ethernet"} <= hosts
    for event in out["traceEvents"]:
        if event["ph"] == "X":
            assert event["dur"] >= 0.0
            assert {"name", "ts", "pid", "tid"} <= set(event)


def test_pse_quantile_histograms_populated(traced_run):
    data, _ = traced_run
    pse = data["tracing"]["pse"]
    assert pse
    assert any(
        entry["latency"] and entry["latency"]["count"] > 0
        for entry in pse.values()
    )
    summary = render_trace_summary(data["tracing"])
    assert "per-PSE quantiles:" in summary


def test_tracereport_renderers_consume_the_dump(traced_run):
    data, _ = traced_run
    trees = render_trace_trees(data["tracing"], limit=3)
    assert "modulate" in trees and "demodulate" in trees
    explain = render_explain(data)
    assert "plan recomputation @ message" in explain
    assert "candidate costs:" in explain
    assert "<- chosen" in explain


def test_sampling_keeps_proportional_traces():
    obs = Observability()
    obs.enable_tracing(sampling_rate=0.25)
    testbed = intel_pair(Simulator(), seed=3)
    version = make_mp_sensor_version(obs=obs)
    run_pipeline(testbed, version, reading_stream(40))
    spans = obs.tracing.to_dict()["spans"]
    # 1 in 4 data messages traced; control-plane traces are forced
    assert sum(s["name"] == "modulate" for s in spans) == 10
    assert sum(s["name"] == "plan.recompute" for s in spans) >= 1
    # sampled-out messages must not leave dangling ship/demodulate spans
    assert sum(s["name"] == "ship" for s in spans) == 10
    assert sum(s["name"] == "demodulate" for s in spans) == 10
