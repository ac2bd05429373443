"""Two real OS processes over localhost TCP: the full live experiment.

This is the repo's strongest end-to-end claim — publisher and receiver
in separate interpreters, a runtime PSE reconfiguration shipped over the
wire mid-stream, an injected connection drop survived — so it runs in
tier-1, sized small enough to stay fast.
"""

from __future__ import annotations

import json

from repro.tools.liveexp import run_experiment


def test_two_process_run_passes_every_check(tmp_path):
    summary, checks = run_experiment(
        receivers=1,
        faults={0: {"drop_after": 25}},
        messages=120,
        samples=64,
        rate_scale=4.0,
        trigger_period=10,
        feedback_period=8,
        interval=0.005,
        timeout=90.0,
        outdir=tmp_path,
    )
    failed = [(name, detail) for name, passed, detail in checks if not passed]
    assert not failed, f"live-run checks failed: {failed}"

    # artifacts written for post-mortem / CI upload
    for artifact in (
        "publisher.json",
        "receiver0.json",
        "merged_trace.json",
        "merged_chrome_trace.json",
        "summary.json",
    ):
        assert (tmp_path / artifact).exists(), artifact

    with open(tmp_path / "merged_chrome_trace.json") as handle:
        chrome = json.load(handle)
    process_names = {
        e["args"]["name"]
        for e in chrome["traceEvents"]
        if e.get("name") == "process_name"
    }
    assert {"publisher", "receiver0"} <= process_names

    (receiver,) = summary["receivers"]
    (subscriber,) = summary["publisher"]["subscribers"]
    assert receiver["demodulated"] > 25
    assert receiver["latency_by_pse"], "no per-PSE latency recorded"
    assert subscriber["plan_edges"] == receiver["final_plan_edges"]
