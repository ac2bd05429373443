"""Unit tests for the CLI tools."""

import json

import pytest

from repro.tools import experiments as experiments_cli
from repro.tools import inspect as inspect_cli
from repro.tools import obs as obs_cli


def run_inspect(capsys, *argv):
    rc = inspect_cli.main(list(argv))
    assert rc == 0
    return capsys.readouterr().out


def test_inspect_push_report(capsys):
    out = run_inspect(capsys, "--app", "push")
    assert "== Listing ==" in out
    assert "instanceof ImageData" in out
    assert "== StopNodes ==" in out
    assert "== ConvexCut (data-size) ==" in out
    assert "ACTIVE SPLIT" in out
    assert "== Default plans ==" in out


def test_inspect_image_app(capsys):
    out = run_inspect(capsys, "--app", "image")
    assert "resample" in out
    assert "pse" in out


def test_inspect_sensor_app_exectime(capsys):
    out = run_inspect(capsys, "--app", "sensor", "--cost-model", "exectime")
    assert "ConvexCut (execution-time)" in out
    assert "stage" in out
    assert "PSE ordering" in out


def test_inspect_power_model(capsys):
    out = run_inspect(capsys, "--app", "push", "--cost-model", "power")
    assert "ConvexCut (power)" in out


def test_inspect_custom_file(tmp_path, capsys):
    setup = tmp_path / "setup.py"
    setup.write_text(
        "def get_setup():\n"
        "    from repro.ir.registry import default_registry\n"
        "    from repro.serialization import SerializerRegistry\n"
        "    from repro.core.costmodels import DataSizeCostModel\n"
        "    registry = default_registry()\n"
        "    registry.register_function('out', print, receiver_only=True,"
        " pure=False)\n"
        "    src = 'def h(a):\\n    b = a + 1\\n    out(b)\\n'\n"
        "    return src, registry, SerializerRegistry(),"
        " DataSizeCostModel()\n"
    )
    out = run_inspect(capsys, "--file", str(setup))
    assert "def h(a)" in out


def test_inspect_bad_file(tmp_path):
    empty = tmp_path / "nothing.py"
    empty.write_text("x = 1\n")
    with pytest.raises(SystemExit, match="get_setup"):
        inspect_cli.main(["--file", str(empty)])


def test_experiments_table3_quick(capsys):
    rc = experiments_cli.main(["table3", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "=== table3" in out
    assert "Method Partitioning" in out


def test_experiments_rejects_unknown():
    with pytest.raises(SystemExit):
        experiments_cli.main(["table99"])


def test_experiments_failure_exits_nonzero(capsys, monkeypatch):
    def boom(quick, obs=None, backend="compiled"):
        raise RuntimeError("synthetic failure")

    monkeypatch.setitem(experiments_cli._RUNNERS, "table3", boom)
    rc = experiments_cli.main(["table3", "--quick"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "experiment 'table3' failed" in err
    assert "synthetic failure" in err
    assert "failed experiments: table3" in err


def test_experiments_all_continues_past_failure(capsys, monkeypatch):
    ran = []

    def boom(quick, obs=None, backend="compiled"):
        raise RuntimeError("boom")

    def make_ok(name):
        def ok(quick, obs=None, backend="compiled"):
            ran.append(name)
            return f"{name} ok"

        return ok

    monkeypatch.setattr(
        experiments_cli,
        "_RUNNERS",
        {
            "table2": boom,
            **{
                name: make_ok(name)
                for name in ("table3", "table4", "figure7", "figure8")
            },
        },
    )
    rc = experiments_cli.main(["all", "--quick"])
    assert rc == 1
    captured = capsys.readouterr()
    assert ran == ["table3", "table4", "figure7", "figure8"]
    assert "experiment 'table2' failed" in captured.err
    assert "=== table3" in captured.out  # the rest still ran and printed


def test_experiments_figure7_quick_renders_chart(capsys):
    rc = experiments_cli.main(["figure7", "--quick"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "=== figure7" in out
    assert "Consumer AProb" in out
    assert "Method Partitioning" in out
    assert "overlapping series" in out  # the chart legend footer


# -- --trace-export and tracereport ------------------------------------------


@pytest.fixture(scope="module")
def traced_dumps(tmp_path_factory):
    """One quick traced run shared by the CLI tests below."""
    root = tmp_path_factory.mktemp("traces")
    obs_path = root / "run.obs.json"
    chrome_path = root / "run.trace.json"
    rc = experiments_cli.main(
        [
            "table3",
            "--quick",
            "--obs-report",
            str(obs_path),
            "--trace-export",
            str(chrome_path),
        ]
    )
    assert rc == 0
    return obs_path, chrome_path


def test_trace_export_writes_valid_chrome_trace(traced_dumps, capsys):
    obs_path, chrome_path = traced_dumps
    data = json.loads(chrome_path.read_text())
    events = data["traceEvents"]
    assert isinstance(events, list) and events
    assert any(e["ph"] == "X" and e["name"] == "modulate" for e in events)
    dump = json.loads(obs_path.read_text())
    assert dump["tracing"]["spans"]


def test_trace_export_unwritable_path_fails(capsys):
    rc = experiments_cli.main(
        [
            "table3",
            "--quick",
            "--trace-export",
            "/nonexistent-dir/trace.json",
        ]
    )
    assert rc == 1
    captured = capsys.readouterr()
    assert "cannot write trace export" in captured.err
    assert "failed experiments: trace-export" in captured.err
    # the tracing summary still printed before the write failed
    assert "=== tracing ===" in captured.out


def test_tracereport_renders_summary_and_trees(traced_dumps, capsys):
    obs_path, _ = traced_dumps
    rc = obs_cli.main(["trace", str(obs_path), "--limit", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "spans:" in out
    assert "span kinds:" in out
    assert "trace " in out
    assert "modulate" in out


def test_tracereport_explain(traced_dumps, capsys):
    obs_path, _ = traced_dumps
    rc = obs_cli.main(["explain", str(obs_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "plan recomputation @ message" in out
    assert "trigger:" in out
    assert "candidate costs:" in out
    assert "<- chosen" in out


def test_tracereport_chrome_reexport(traced_dumps, tmp_path, capsys):
    obs_path, _ = traced_dumps
    out_path = tmp_path / "re.trace.json"
    rc = obs_cli.main(["trace", str(obs_path), "--chrome", str(out_path)])
    assert rc == 0
    data = json.loads(out_path.read_text())
    assert data["traceEvents"]


def test_tracereport_unreadable_file(capsys):
    rc = obs_cli.main(["trace", "/no/such/file.json"])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_tracereport_rejects_dump_without_tracing(tmp_path, capsys):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"metrics": {}, "flight": {}}))
    rc = obs_cli.main(["trace", str(path)])
    assert rc == 1
    assert "no tracing section" in capsys.readouterr().err


def test_tracereport_json_schema(traced_dumps, capsys):
    obs_path, _ = traced_dumps
    rc = obs_cli.main(["trace", str(obs_path), "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "mp.trace.v1"
    assert report["summary"]["recorded"] > 0
    assert report["traces"]
    first = report["traces"][0]
    assert first["spans"] >= 1
    assert "modulate" in {n for t in report["traces"] for n in t["names"]}
    json.dumps(report)  # stable, serializable

    rc = obs_cli.main(["explain", str(obs_path), "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "mp.explain.v1"
    decision = report["decisions"][0]
    assert decision["pse_ids"]
    assert decision["trigger"]["name"]
    assert decision["breakdown"]


# -- --quality-report and --expose ---------------------------------------------


@pytest.fixture(scope="module")
def quality_run(tmp_path_factory):
    """One quick quality-accounted run shared by the tests below."""
    root = tmp_path_factory.mktemp("quality")
    report_path = root / "quality.json"
    rc = experiments_cli.main(
        ["table3", "--quick", "--quality-report", str(report_path)]
    )
    assert rc == 0
    return report_path


def test_experiments_quality_report_file(quality_run):
    report = json.loads(quality_run.read_text())
    assert report["schema"] == "mp.quality.v1"
    assert report["counters"]["quality.regret.sampled"] > 0
    assert report["transitions"]
    assert report["regret_windows"]
    # the adaptive run's plan settles: later windows show ~zero regret
    last = report["regret_windows"][-1]
    assert last["count"] > 0
    assert last["transition"] is not None


def test_experiments_expose_serves_openmetrics(capsys):
    import urllib.request

    from repro.obs.exposition import parse_openmetrics

    rc = experiments_cli.main(
        ["table3", "--quick", "--quality-report", "/dev/null",
         "--expose", "0"]
    )
    assert rc == 0
    out = capsys.readouterr().out
    port = next(
        int(line.split()[1])
        for line in out.splitlines()
        if line.startswith("EXPOSING ")
    )
    # The exposer has shut down by now; the announcement + the in-run
    # scrape are covered by the liveexp harness.  Here just check the
    # final report rendered a regret table.
    assert port > 0
    assert "=== adaptation quality ===" in out
    assert "per-PSE" in out


# -- watch (the dashboards) --------------------------------------------------


def test_monitor_fetch_dump_unwraps_result_files(tmp_path):
    obs = {"metrics": {"counters": {"x": 1.0}}}
    bare = tmp_path / "bare.json"
    bare.write_text(json.dumps(obs))
    wrapped = tmp_path / "result.json"
    wrapped.write_text(json.dumps({"role": "receiver", "obs": obs}))
    assert obs_cli.load(str(bare)) == obs
    assert obs_cli.load(str(wrapped)) == obs


def test_monitor_render_frame_sections(tmp_path, capsys, monkeypatch):
    dump = {
        "metrics": {
            "counters": {"transport.bytes": 100.0},
            "histograms": {},
        },
        "quality": {
            "active_pses": ["s2"],
            "transitions": [{"at_message": 5, "pse_ids": ["s2"]}],
            "regret": {
                "sampled": 8,
                "windows": [
                    {"index": 0, "start_message": 1, "end_message": 8,
                     "count": 8, "mean_regret": 0.25,
                     "rel_mean_regret": 0.05, "per_pse": {"s2": 0.25},
                     "transition": 5}
                ],
            },
            "drift": {
                "residuals": [
                    {"pse_id": "s2", "channel": "bytes",
                     "residual": 0.6, "flagged": True, "count": 9}
                ],
                "events": [
                    {"pse_id": "s2", "channel": "bytes", "residual": 0.6,
                     "at_message": 7, "predicted": 100.0, "observed": 160.0}
                ],
            },
        },
    }
    path = tmp_path / "src.json"
    path.write_text(json.dumps(dump))
    assert obs_cli.main(["watch", str(path), "--once"]) == 0
    frame = capsys.readouterr().out
    assert f"== {path}" in frame
    assert "active PSEs: s2" in frame
    assert "plan transitions: 1" in frame
    assert "s2=0.25" in frame and "5.00%" in frame  # the last window
    assert "s2       bytes    +0.600 (n=9)  FLAGGED" in frame
    assert "s2/bytes residual +0.600 at msg 7" in frame
    assert "counters (totals" in frame

    # Two polls of a moving counter turn totals into rates.
    moved = json.loads(json.dumps(dump))
    moved["metrics"]["counters"]["transport.bytes"] = 300.0
    frame = "\n".join(
        obs_cli._adaptation_lines(moved, obs_cli._rates(moved, dump, 2.0), 2.0)
    )
    assert "rates over the last 2.0s" in frame
    assert f"    {'transport.bytes':<40} 100" in frame  # 200 B over 2 s
    assert "counters (totals" not in frame

    # The poll loop itself: the counter moves between the two polls.
    def sleep_and_move(_seconds):
        path.write_text(json.dumps(moved))

    monkeypatch.setattr(obs_cli.time, "sleep", sleep_and_move)
    for extra in (["--json"], ["--no-clear"]):
        path.write_text(json.dumps(dump))
        assert obs_cli.main(
            ["watch", str(path), "--iterations", "2", *extra]
        ) == 0
        out = capsys.readouterr().out
        if extra == ["--json"]:
            frames = [json.loads(line) for line in out.splitlines() if line]
            assert frames[0]["sources"][str(path)]["rates"] == {}
            rates = frames[1]["sources"][str(path)]["rates"]
            assert set(rates) == {"transport.bytes"}
            assert rates["transport.bytes"] > 0
        else:
            first, second = out.split("-- repro obs watch @")[1:]
            assert "counters (totals" in first and "rates over" not in first
            assert "rates over the last" in second
            assert "transport.bytes" in second

    assert obs_cli.main(
        ["watch", str(tmp_path / "gone.json"), "--once", "--no-clear"]
    ) == 1
    assert "(unreachable, no data yet" in capsys.readouterr().out


def test_monitor_cli_once(tmp_path, capsys):
    dump = tmp_path / "d.json"
    dump.write_text(json.dumps({"metrics": {"counters": {"n": 2.0}}}))
    rc = obs_cli.main(["watch", str(dump), "--once"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "repro obs watch @" in out
    assert str(dump) in out


# -- prof ----------------------------------------------------------------


def _profile_dump(tmp_path, *, wrap=None):
    from repro.obs.prof import SamplingProfiler

    p = SamplingProfiler(interval=0.005, host="unit")
    p.ingest(
        [
            ("/x/src/repro/net/tcp.py", "_deliver"),
            ("/x/src/repro/serialization/core.py", "dumps"),
        ],
        count=6,
    )
    p.ingest([("/elsewhere.py", "main")], count=2)
    data = p.to_dict()
    if wrap == "obs":
        data = {"metrics": {"counters": {}, "gauges": {},
                            "histograms": {}}, "profile": data}
    elif wrap == "result":
        data = {"obs": {"profile": data}}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(data))
    return path


def test_profreport_renders_component_table(tmp_path, capsys):
    rc = obs_cli.main(["prof", str(_profile_dump(tmp_path))])
    assert rc == 0
    out = capsys.readouterr().out
    assert "8 samples" in out
    assert "serialization" in out
    assert "other" in out


def test_profreport_json_schema(tmp_path, capsys):
    rc = obs_cli.main(["prof", str(_profile_dump(tmp_path)), "--json"])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "mp.prof.v1"
    assert report["samples"] == 8
    comps = {
        row["component"]: row["samples"] for row in report["components"]
    }
    assert comps["serialization"] == 6
    assert report["attributed_share"] == pytest.approx(0.75)
    assert report["top_stacks"][0]["count"] == 6
    json.dumps(report)  # stable, serializable schema


def test_profreport_unwraps_obs_and_result_files(tmp_path, capsys):
    for wrap in ("obs", "result"):
        rc = obs_cli.main(
            ["prof", str(_profile_dump(tmp_path, wrap=wrap)), "--json"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["samples"] == 8


def test_profreport_writes_speedscope_and_collapsed(tmp_path, capsys):
    speedscope = tmp_path / "out.speedscope.json"
    collapsed = tmp_path / "out.collapsed.txt"
    rc = obs_cli.main([
        "prof",
        str(_profile_dump(tmp_path)),
        "--speedscope", str(speedscope),
        "--collapsed", str(collapsed),
    ])
    assert rc == 0
    doc = json.loads(speedscope.read_text())
    assert doc["$schema"] == (
        "https://www.speedscope.app/file-format-schema.json"
    )
    assert doc["profiles"][0]["type"] == "sampled"
    text = collapsed.read_text()
    assert text.splitlines()[0].endswith(" 6")


def test_profreport_rejects_dump_without_profile(tmp_path, capsys):
    path = tmp_path / "plain.json"
    path.write_text(json.dumps({"metrics": {}}))
    assert obs_cli.main(["prof", str(path)]) == 1
    assert "--profile" in capsys.readouterr().err


def test_profreport_unreadable_file(tmp_path, capsys):
    assert obs_cli.main(["prof", str(tmp_path / "missing.json")]) == 1


# -- watch --once on a fleet -----------------------------------------------------------


def _fleet_dump(tmp_path, name, state="healthy", breaker="closed"):
    dump = {
        "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
        "fleet": {
            "overall": "healthy" if state == "healthy" else "degraded",
            "peers": {
                "r0": {
                    "state": state,
                    "transitions": [],
                    "sheds_total": 0,
                }
            },
        },
        "resilience": {
            "leader": "r0",
            "peers": {"r0": {"breaker": {"state": breaker}}},
        },
    }
    path = tmp_path / name
    path.write_text(json.dumps(dump))
    return path


def test_fleetmon_once_healthy_fleet_exits_zero(tmp_path, capsys):
    path = _fleet_dump(tmp_path, "ok.json")
    rc = obs_cli.main(["watch", str(path), "--once", "--json"])
    assert rc == 0
    frame = json.loads(capsys.readouterr().out)
    view = frame["sources"][str(path)]["fleet"]
    assert view["unhealthy"] == []
    assert view["leader"] == "r0"


def test_fleetmon_once_unhealthy_peer_exits_nonzero(tmp_path, capsys):
    path = _fleet_dump(tmp_path, "bad.json", state="wedged")
    rc = obs_cli.main(["watch", str(path), "--once", "--json"])
    assert rc == 1
    frame = json.loads(capsys.readouterr().out)
    assert frame["sources"][str(path)]["fleet"]["unhealthy"] == ["r0"]


def test_fleetmon_once_open_breaker_exits_nonzero(tmp_path, capsys):
    path = _fleet_dump(tmp_path, "brk.json", breaker="open")
    rc = obs_cli.main(["watch", str(path), "--once", "--json"])
    assert rc == 1


def test_fleetmon_once_unreachable_source_exits_nonzero(tmp_path, capsys):
    rc = obs_cli.main(
        ["watch", str(tmp_path / "missing.json"), "--once", "--json"]
    )
    assert rc == 1


def test_report_renders_fleet_with_the_watch_table(tmp_path, capsys):
    path = _fleet_dump(tmp_path, "bad.json", state="wedged")
    dump = json.loads(path.read_text())
    dump["fleet"]["peers"]["r0"]["transitions"] = [
        {"from": "healthy", "to": "wedged", "reason": "no telemetry 2.0s"}
    ]
    path.write_text(json.dumps(dump))
    assert obs_cli.main(["report", str(path)]) == 0
    out = capsys.readouterr().out
    section = out[out.index("== fleet health =="):]
    assert "fleet: degraded" in section and "not healthy: r0" in section
    assert "r0             WEDGED" in section
    assert "r0: healthy -> wedged: no telemetry 2.0s" in section


def test_fleetmon_once_renders_tty_table(tmp_path, capsys):
    path = _fleet_dump(tmp_path, "ok.json")
    rc = obs_cli.main(["watch", str(path), "--once", "--no-clear"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fleet: healthy" in out
    assert "r0" in out


# -- every obs view against every dump shape -----------------------------------


def _full_obs():
    """A dump with every section: spans, decisions, profile, fleet."""
    from repro.obs import Observability

    obs = Observability(host="r0")
    tracer = obs.enable_tracing(host="r0")
    tracer.end(tracer.begin("modulate", trace_id=tracer.start_trace()))
    obs.flight.record("TriggerFired", at_message=3, trigger="RateTrigger",
                      reason={"cause": "period"})
    obs.flight.record(
        "PlanRecomputed", at_message=3, cut_value=4.0, pse_ids=["pse2"],
        breakdown=[{"pse_id": "pse2", "edge": [2, 3], "cost": 4.0,
                    "chosen": True, "source": "profiled"}],
    )
    obs.enable_profiler(interval=0.005, host="r0").ingest(
        [("/x/src/repro/serialization/core.py", "dumps")], count=2
    )
    return obs


_FLEET = {"overall": "healthy",
          "peers": {"r0": {"state": "healthy", "transitions": []}}}


@pytest.fixture(scope="module")
def dump_shapes(tmp_path_factory):
    """The four sources: bare dump, live result file, merged ring, URL."""
    from repro.obs.exposition import start_http_exposer
    from repro.obs.flight import merge_flight_dumps

    root = tmp_path_factory.mktemp("shapes")
    obs = _full_obs()
    dump = obs.to_dict()
    bare = root / "bare.json"
    bare.write_text(json.dumps(dump, default=str))
    # A live result file: the post-drain fleet rides at the top level.
    result = root / "receiver0.json"
    result.write_text(json.dumps({"role": "receiver", "obs": dump,
                                  "fleet": _FLEET}, default=str))
    merged = root / "merged_flight.json"
    merged.write_text(json.dumps(merge_flight_dumps([dump["flight"]])))
    exposer = start_http_exposer(obs.to_dict, port=0)
    yield {"bare": str(bare), "result": str(result),
           "merged": str(merged), "url": exposer.url}
    exposer.close()


# view -> shapes where the view has nothing to show (exit status 1)
_MISSING = {"trace": {"merged"}, "prof": {"merged"}}


@pytest.mark.parametrize("shape", ["bare", "result", "merged", "url"])
@pytest.mark.parametrize("view", ["report", "trace", "explain", "prof"])
def test_every_view_reads_every_dump_shape(dump_shapes, view, shape, capsys):
    rc = obs_cli.main([view, dump_shapes[shape], "--json"])
    out = capsys.readouterr()
    if shape in _MISSING.get(view, ()):
        assert rc == 1 and "section" in out.err
        return
    assert rc == 0, out.err
    report = json.loads(out.out)
    assert report["schema"] == f"mp.{view}.v1"
    if view == "explain":
        (decision,) = report["decisions"]
        assert decision["host"] == "r0"
        assert decision["trigger"]["name"] == "RateTrigger"
        assert decision["breakdown"][0]["chosen"]
    if view == "trace":
        assert report["traces"][0]["names"] == ["modulate"]
    if view == "prof":
        assert report["samples"] == 2


@pytest.mark.parametrize("shape", ["bare", "result", "merged", "url"])
def test_watch_reads_every_dump_shape(dump_shapes, shape, capsys):
    rc = obs_cli.main(["watch", dump_shapes[shape], "--once", "--json"])
    assert rc == 0
    frame = json.loads(capsys.readouterr().out)
    (source,) = frame["sources"].values()
    assert source["failed_polls"] == 0
    # Only the result file carries a (post-drain, top-level) fleet.
    assert (source["fleet"] is not None) == (shape == "result")
    if shape == "result":
        assert source["fleet"]["peers"][0]["peer"] == "r0"
