"""Unit tests for the ``obs report`` view and the CLI around it."""

import json
from types import SimpleNamespace

from repro.obs import Observability
from repro.tools import obs as obs_cli


def _sample_obs():
    obs = Observability(host="unit")
    obs.metrics.counter("interp.executions").inc(12)
    obs.metrics.counter("transport.data.bytes").inc(4096)
    obs.metrics.gauge("pending").set(3)
    obs.metrics.histogram("transport.data.message_bytes").observe(512.0)
    obs.flight.record(
        "TriggerFired", at_message=5, trigger="DiffTrigger", reason=None
    )
    obs.flight.record("net.shed", peer="r1", dropped_total=64)
    return obs


def _render(obs, limit=None):
    return obs_cli.render_report(obs.to_dict(), limit)


def test_render_covers_all_sections():
    out = _render(_sample_obs())
    assert "== counters (2) ==" in out
    assert "interp.executions: 12" in out
    assert "== gauges (2) ==" in out  # pending + the ring's own cost
    assert "== histograms (1) ==" in out
    assert "count=1 total=512 mean=512" in out
    assert "== events (2 kept of 2 recorded, 0 dropped) ==" in out
    assert "TriggerFired: 1" in out
    assert "[unit] net.shed(peer=r1, dropped_total=64)" in out


def test_render_event_limit():
    obs = _sample_obs()
    limited = _render(obs, limit=1)
    assert "-- last 1:" in limited
    assert "TriggerFired(" not in limited.split("-- last")[1]
    assert "-- last 0:" in _render(obs, limit=0)


def test_cli_round_trip(tmp_path, capsys):
    dump = tmp_path / "run.obs.json"
    dump.write_text(json.dumps(_sample_obs().to_dict()))
    rc = obs_cli.main(["report", str(dump), "--limit", "10"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "interp.executions: 12" in out
    assert "TriggerFired" in out


def test_cli_unreadable_file(tmp_path, capsys):
    rc = obs_cli.main(["report", str(tmp_path / "missing.json")])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_cli_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = obs_cli.main(["report", str(bad)])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


# -- machine-readable output (--json) ------------------------------------------


def _quality_obs():
    obs = _sample_obs()
    obs.enable_quality(regret_window=4)
    # A harness normally attaches the AdaptationQuality instance; stub
    # the report shape here so the renderers see a populated section.
    report = {
        "config": {"regret_window": 4},
        "active_pses": [],
        "transitions": [],
        "regret": {"messages": 0, "sampled": 0, "unpriced": 0,
                   "windows": []},
        "drift": {"rebaselines": 0, "residuals": [], "events": []},
    }
    obs.quality = SimpleNamespace(report=lambda: report)
    obs.flight.record(
        "PlanRecomputed", at_message=10, cut_value=2.5, pse_ids=("s2",)
    )
    obs.flight.record(
        "RegretWindow", index=0, start_message=1, end_message=4, count=4,
        total_regret=2.0, mean_regret=0.5, rel_mean_regret=0.1,
        per_pse={"s2": 0.5}, transition=10,
    )
    return obs


def test_report_json_schema_and_round_trip(tmp_path, capsys):
    dump = tmp_path / "run.obs.json"
    dump.write_text(json.dumps(_sample_obs().to_dict()))
    rc = obs_cli.main(["report", str(dump), "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "mp.report.v1"
    assert report["source"] == str(dump)
    assert report["counters"]["interp.executions"] == 12.0
    assert report["gauges"]["pending"] == 3.0
    hist = report["histograms"]["transport.data.message_bytes"]
    assert hist["count"] == 1 and hist["mean"] == 512.0
    assert hist["p50"] > 0
    assert report["events"]["counts"]["TriggerFired"] == 1
    assert report["events"]["kept"] == 2
    assert report["tracing"] is None
    json.dumps(report)  # stable, serializable schema


def test_report_json_carries_quality_section(tmp_path, capsys):
    dump = tmp_path / "run.obs.json"
    dump.write_text(json.dumps(_quality_obs().to_dict()))
    rc = obs_cli.main(["report", str(dump), "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["quality"] is not None
    assert report["quality"]["regret"]["windows"] == []


# -- quality rendering ---------------------------------------------------------


def test_render_quality_section_in_text_report():
    out = _render(_quality_obs())
    assert "== adaptation quality ==" in out
    assert "no closed regret window" in out


def test_render_quality_regret_table():
    report = obs_cli.build_quality_report(_quality_obs())
    assert report["schema"] == "mp.quality.v1"
    assert report["transitions"] == [
        {"at_message": 10, "pse_ids": ["s2"]}
    ]
    assert report["regret_windows"] == [{
        "index": 0, "start_message": 1, "end_message": 4, "count": 4,
        "total_regret": 2.0, "mean_regret": 0.5, "rel_mean_regret": 0.1,
        "per_pse": {"s2": 0.5}, "transition": 10,
    }]
    text = obs_cli.render_quality(report)
    assert "plan transitions: 1" in text
    assert "s2=0.5" in text
    assert "10.00%" in text  # rel_mean_regret column
    assert "drift events: 0" in text


# -- profile + observability-cost sections -------------------------------------


def _profiled_obs():
    obs = _sample_obs()
    profiler = obs.enable_profiler(interval=0.005, host="unit")
    profiler.ingest(
        [("/x/src/repro/serialization/core.py", "dumps")], count=3
    )
    profiler.ingest([("/elsewhere.py", "main")])
    return obs


def test_render_profile_and_obs_cost_sections():
    out = _render(_profiled_obs())
    assert "== profile: 4 samples @ 200 Hz across unit ==" in out
    assert "serialization" in out
    assert "== observability cost ==" in out
    assert "profiler_self_seconds" in out
    assert "flight_seconds" in out


def test_render_without_profiler_omits_profile_section():
    out = _render(_sample_obs())
    assert "== profile" not in out


def test_report_json_carries_profile_and_overhead():
    report = obs_cli.report_json(_profiled_obs().to_dict())
    assert report["profile"]["samples"] == 4
    assert report["profile"]["components"] == {
        "other": 1,
        "serialization": 3,
    }
    assert "profiler_self_seconds" in report["obs_overhead"]
    json.dumps(report)


def test_report_json_without_profiler_has_null_profile():
    report = obs_cli.report_json(_sample_obs().to_dict())
    assert report["profile"] is None


def test_fmt_is_the_one_number_formatter():
    assert obs_cli.fmt(None) == "-"
    assert obs_cli.fmt(512.0) == "512"
    assert obs_cli.fmt(0.1234567) == "0.123457"
    assert obs_cli.fmt(float("inf")) == "inf"
    assert obs_cli.fmt((1, 2.5)) == "(1,2.5)"
    assert obs_cli.fmt(0.0042, "s") == "4.20ms"
    assert obs_cli.fmt(2.5e-6, "s") == "2.5us"
    assert obs_cli.fmt(0.1, "%") == "10.00%"
