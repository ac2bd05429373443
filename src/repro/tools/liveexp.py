"""Live network experiment orchestrator (two-process and fan-out).

Launches the receiver and the sender halves of :mod:`repro.net.live` as
separate OS processes on localhost, runs the figure-7-style sensor
workload over real TCP, and collects:

* per-process JSON results (traffic counters, plan timeline, per-PSE
  latency quantiles);
* one **merged Chrome trace** — the per-process tracer dumps use
  disjoint span-id bases and a shared wall clock, so the sender's
  ``modulate``/``ship`` spans and the receiver's ``demodulate`` spans
  join into single causal trees across process boundaries;
* a pass/fail check report asserting the run exercised what it claims:
  nonzero cross-process traffic, at least one mid-stream plan shipped
  over the wire (and applied by the sender), and — when a drop is
  injected — a reconnect with deliveries resuming afterwards.

``--fanout N`` switches to the broker topology: one broker process
publishing to N receiver processes with *heterogeneous* emulated loads,
so their adaptation loops converge to different PSEs while the broker
shares each modulation up to the deepest common split.  One receiver
goes dark mid-stream (``--wedge-after``) to prove the broker's bounded
per-peer queues shed that peer's backlog without stalling the others.
The fan-out run additionally writes ``BENCH_net_fanout.json``
(aggregate delivered msg/s against N) for CI's benchmark artifacts.

Usage::

    python -m repro.tools.liveexp --quick --outdir live-results
    python -m repro.tools.liveexp --messages 300 --drop-after 40
    python -m repro.tools.liveexp --fanout 3 --quick

Exit status is nonzero when any check fails, so CI can gate on it.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.obs.export import chrome_trace, merge_tracer_dumps
from repro.obs.flight import merge_flight_dumps
from repro.obs.prof import merge_profile_dumps, speedscope_from_dump

__all__ = ["run_live_experiment", "run_fanout_experiment", "main"]

_SRC_ROOT = str(Path(__file__).resolve().parents[2])


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    parts = [_SRC_ROOT]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def _wait_for_ports(
    proc: subprocess.Popen, timeout: float, *, want_expose: bool
) -> Tuple[int, Optional[int]]:
    """Read the receiver's stdout for LISTENING (and EXPOSING) lines."""
    deadline = time.time() + timeout
    assert proc.stdout is not None
    port: Optional[int] = None
    expose: Optional[int] = None
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"receiver exited early with status {proc.returncode}"
            )
        line = proc.stdout.readline()
        if not line:
            time.sleep(0.02)
            continue
        text = line.strip()
        if text.startswith("LISTENING "):
            port = int(text.split()[1])
        elif text.startswith("EXPOSING "):
            expose = int(text.split()[1])
        if port is not None and (expose is not None or not want_expose):
            return port, expose
    raise RuntimeError("receiver never announced its port")


def _scrape_exposition(
    port: int, sender: subprocess.Popen, timeout: float
) -> Dict[str, object]:
    """Poll the receiver's /metrics while the stream runs.

    Keeps the last text that parsed as valid OpenMetrics; stops early
    once both a per-PSE regret sample and a drift-residual sample have
    shown up (they appear after the first mid-stream recompute).
    """
    import urllib.request

    from repro.obs.exposition import parse_openmetrics

    url = f"http://127.0.0.1:{port}/metrics"
    state: Dict[str, object] = {
        "text": None,
        "valid": False,
        "regret": False,
        "drift": False,
        "error": None,
    }
    deadline = time.time() + timeout
    sender_gone_attempts = 0
    while time.time() < deadline and sender_gone_attempts <= 2:
        if sender.poll() is not None:
            # The receiver lingers briefly after the sender exits; take
            # a couple of last-chance scrapes, then stop.
            sender_gone_attempts += 1
        try:
            with urllib.request.urlopen(url, timeout=2.0) as response:
                text = response.read().decode()
            families = parse_openmetrics(text)
        except Exception as exc:  # noqa: BLE001 - report the last failure
            state["error"] = repr(exc)
            time.sleep(0.2)
            continue
        state["text"] = text
        state["valid"] = True
        regret = families.get("quality_regret", {})
        state["regret"] = state["regret"] or any(
            "pse" in sample["labels"]
            for sample in regret.get("samples", [])
        )
        drift = families.get("quality_drift_residual", {})
        state["drift"] = state["drift"] or bool(drift.get("samples"))
        if state["regret"] and state["drift"]:
            break
        time.sleep(0.2)
    return state


def _merge_profiles(
    results: List[Dict[str, object]], outdir: Path
) -> Optional[Dict[str, object]]:
    """Merge per-process profiler dumps into one cross-host profile.

    Writes ``merged_profile.json`` (raw dump, the input format for
    ``repro.tools.profreport``) and ``profile.speedscope.json``
    alongside the trace/flight merges.  Returns the merged dump, or
    ``None`` when no process ran with ``--profile``.
    """
    dumps = [
        result["obs"]["profile"]
        for result in results
        if "profile" in result.get("obs", {})
    ]
    if not dumps:
        return None
    merged = merge_profile_dumps(dumps)
    with open(outdir / "merged_profile.json", "w") as handle:
        json.dump(merged, handle, indent=2)
    with open(outdir / "profile.speedscope.json", "w") as handle:
        json.dump(
            speedscope_from_dump(merged, name="liveexp"), handle
        )
    return merged


def _check(
    checks: List[Tuple[str, bool, str]],
    name: str,
    passed: bool,
    detail: str,
) -> None:
    checks.append((name, passed, detail))


def _verify(
    sender: Dict[str, object],
    receiver: Dict[str, object],
    merged: Dict[str, object],
    *,
    drop_after: int,
) -> List[Tuple[str, bool, str]]:
    checks: List[Tuple[str, bool, str]] = []
    shipped = int(sender["shipped"])
    demodulated = int(receiver["demodulated"])
    _check(
        checks,
        "cross-process traffic",
        shipped > 0 and demodulated > 0,
        f"sender shipped {shipped}, receiver demodulated {demodulated}",
    )
    published = int(sender["published"])
    accounted = {
        "shipped": shipped,
        "completed_locally": int(sender["completed_locally"]),
        "elided": int(sender["elided"]),
        "ships_suppressed": int(sender["resilience"]["ships_suppressed"]),
    }
    _check(
        checks,
        "every publish accounted for",
        published == sum(accounted.values()),
        f"published {published} = "
        + " + ".join(f"{n} {v}" for n, v in accounted.items()),
    )
    _check(
        checks,
        "deliveries complete",
        int(receiver["delivered"]) == demodulated,
        f"delivered {receiver['delivered']} of {demodulated} demodulated",
    )
    plan_ships = int(receiver["plan_ships"])
    plan_applied = int(sender["plan_updates_applied"])
    _check(
        checks,
        "plan shipped over TCP",
        plan_ships >= 1 and plan_applied >= 1,
        f"receiver shipped {plan_ships} plan(s), "
        f"sender applied {plan_applied}",
    )
    _check(
        checks,
        "plan actually moved",
        sender["final_plan_edges"] != sender["initial_plan_edges"],
        f"{sender['initial_plan_edges']} -> {sender['final_plan_edges']}",
    )
    _check(
        checks,
        "sender/receiver agree on final plan",
        sender["final_plan_edges"] == receiver["final_plan_edges"],
        f"sender {sender['final_plan_edges']}, "
        f"receiver {receiver['final_plan_edges']}",
    )
    if drop_after > 0:
        transport = sender["transport"]
        _check(
            checks,
            "drop injected",
            int(receiver["drops_injected"]) >= 1,
            f"{receiver['drops_injected']} drop(s)",
        )
        _check(
            checks,
            "sender reconnected",
            int(transport["reconnects"]) >= 1,
            f"{transport['reconnects']} reconnect(s), "
            f"{transport['connections']} connection(s)",
        )
        _check(
            checks,
            "deliveries resumed after drop",
            demodulated > drop_after,
            f"{demodulated} demodulated > drop point {drop_after}",
        )
    # Merged-trace smoke checks: both hosts present, and at least one
    # trace id with spans recorded by both processes (a causal chain
    # that crossed the socket).
    spans = merged.get("spans", [])
    hosts = {s.get("host") for s in spans}
    _check(
        checks,
        "merged trace has both hosts",
        "sender" in hosts and "receiver" in hosts,
        f"hosts: {sorted(h for h in hosts if h)}",
    )
    by_trace: Dict[object, set] = {}
    for span in spans:
        by_trace.setdefault(span["trace"], set()).add(span.get("host"))
    crossing = [
        t
        for t, h in by_trace.items()
        if "sender" in h and "receiver" in h
    ]
    _check(
        checks,
        "cross-process causal trees",
        len(crossing) >= 1,
        f"{len(crossing)} trace(s) span both processes",
    )
    names = {str(s["name"]) for s in spans}
    wanted = {"modulate", "ship", "demodulate"}
    _check(
        checks,
        "span kinds present",
        wanted <= names,
        f"have {sorted(names & (wanted | {'plan.ship', 'plan.apply'}))}",
    )
    seen = int(sender["transport"].get("telemetry_frames_seen", 0))
    _check(
        checks,
        "telemetry pushed",
        seen >= 1 and int(sender.get("telemetry_seen", 0)) >= 1,
        f"{seen} frame(s) on the wire, sender ingested "
        f"{sender.get('telemetry_seen', 0)} "
        f"of {receiver.get('telemetry_pushes', 0)} pushed",
    )
    return checks


def run_live_experiment(
    *,
    messages: int = 300,
    samples: int = 64,
    drop_after: int = 40,
    rate_scale: float = 4.0,
    trigger_period: int = 10,
    feedback_period: int = 8,
    interval: float = 0.005,
    timeout: float = 120.0,
    expose: bool = True,
    batching: bool = True,
    profile: bool = False,
    profile_interval: Optional[float] = None,
    outdir: Path = Path("live-results"),
) -> Tuple[Dict[str, object], List[Tuple[str, bool, str]]]:
    """Run the two processes; returns (summary, checks).

    ``expose=True`` (the default) turns on the receiver's adaptation-
    quality accounting and its live ``/metrics`` endpoint, scrapes it
    mid-stream and validates the OpenMetrics text — proving the
    telemetry a long-lived deployment would be monitored through.

    ``batching=False`` passes ``--no-batching`` to the sender, keeping
    the wire plain-framed — the baseline the batched benchmark sweep
    compares against.
    """
    outdir.mkdir(parents=True, exist_ok=True)
    recv_out = outdir / "receiver.json"
    send_out = outdir / "sender.json"
    env = _child_env()

    common = [
        "--messages", str(messages),
        "--samples", str(samples),
        "--timeout", str(timeout),
    ]
    if profile:
        common.append("--profile")
        if profile_interval is not None:
            common += ["--profile-interval", str(profile_interval)]
    receiver_cmd = [
        sys.executable, "-m", "repro.net.live", "receiver",
        *common,
        "--rate-scale", str(rate_scale),
        "--trigger-period", str(trigger_period),
        "--drop-after", str(drop_after),
        "--out", str(recv_out),
    ]
    if expose:
        receiver_cmd += ["--quality", "--expose", "0"]
    receiver = subprocess.Popen(
        receiver_cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    exposition: Optional[Dict[str, object]] = None
    try:
        port, expose_port = _wait_for_ports(
            receiver, timeout=min(30.0, timeout), want_expose=expose
        )
        sender_cmd = [
            sys.executable, "-m", "repro.net.live", "sender",
            *common,
            "--port", str(port),
            "--feedback-period", str(feedback_period),
            "--interval", str(interval),
            "--out", str(send_out),
        ]
        if not batching:
            sender_cmd.append("--no-batching")
        sender = subprocess.Popen(sender_cmd, env=env)
        try:
            if expose_port is not None:
                exposition = _scrape_exposition(
                    expose_port, sender, timeout=timeout
                )
            sender_status = sender.wait(timeout=timeout)
        finally:
            if sender.poll() is None:
                sender.kill()
                sender.wait()
        receiver_status = receiver.wait(timeout=timeout)
    finally:
        if receiver.poll() is None:
            receiver.kill()
            receiver.wait()
    if sender_status != 0:
        raise RuntimeError(f"sender exited with status {sender_status}")
    if receiver_status != 0:
        raise RuntimeError(
            f"receiver exited with status {receiver_status}"
        )

    with open(send_out) as handle:
        sender_result = json.load(handle)
    with open(recv_out) as handle:
        receiver_result = json.load(handle)

    dumps = [
        result["obs"]["tracing"]
        for result in (sender_result, receiver_result)
        if "tracing" in result.get("obs", {})
    ]
    merged = merge_tracer_dumps(dumps)
    merged_path = outdir / "merged_trace.json"
    with open(merged_path, "w") as handle:
        json.dump(merged, handle)
    chrome_path = outdir / "merged_chrome_trace.json"
    with open(chrome_path, "w") as handle:
        json.dump(chrome_trace(merged), handle)
    merged_flight = merge_flight_dumps([
        result.get("obs", {}).get("flight", {})
        for result in (sender_result, receiver_result)
    ])
    with open(outdir / "merged_flight.json", "w") as handle:
        json.dump(merged_flight, handle, indent=2, default=str)
    merged_profile = _merge_profiles(
        [sender_result, receiver_result], outdir
    )

    checks = _verify(
        sender_result, receiver_result, merged, drop_after=drop_after
    )
    if profile:
        hosts = (
            set(merged_profile.get("hosts", []))
            if merged_profile
            else set()
        )
        samples = (
            int(merged_profile["samples"]) if merged_profile else 0
        )
        _check(
            checks,
            "profiles captured on both hosts",
            {"sender", "receiver"} <= hosts and samples > 0,
            f"{samples} samples across hosts {sorted(hosts)}",
        )
    if exposition is not None:
        if exposition["text"]:
            with open(outdir / "metrics.txt", "w") as handle:
                handle.write(str(exposition["text"]))
        _check(
            checks,
            "exposition scraped & valid",
            bool(exposition["valid"]),
            "live /metrics parsed as OpenMetrics"
            if exposition["valid"]
            else f"scrape failed: {exposition['error']}",
        )
        # Fall back to rendering the receiver's final dump when the
        # mid-stream scrapes raced the series' first appearance.
        regret_seen = bool(exposition["regret"])
        drift_seen = bool(exposition["drift"])
        regret_how = drift_how = "live scrape"
        if not (regret_seen and drift_seen):
            from repro.obs.exposition import (
                parse_openmetrics,
                render_openmetrics,
            )

            families = parse_openmetrics(
                render_openmetrics(receiver_result["obs"]["metrics"])
            )
            if not regret_seen and any(
                "pse" in s["labels"]
                for s in families.get("quality_regret", {}).get(
                    "samples", []
                )
            ):
                regret_seen, regret_how = True, "final dump"
            if not drift_seen and families.get(
                "quality_drift_residual", {}
            ).get("samples"):
                drift_seen, drift_how = True, "final dump"
        _check(
            checks,
            "regret series exposed",
            regret_seen,
            f"per-PSE quality_regret present ({regret_how})"
            if regret_seen
            else "no per-PSE quality_regret sample",
        )
        _check(
            checks,
            "drift residual exposed",
            drift_seen,
            f"quality_drift_residual present ({drift_how})"
            if drift_seen
            else "no quality_drift_residual sample",
        )
    summary = {
        "messages": messages,
        "drop_after": drop_after,
        "rate_scale": rate_scale,
        "sender": {
            k: sender_result[k]
            for k in (
                "published",
                "shipped",
                "plan_updates_applied",
                "telemetry_seen",
                "initial_plan_edges",
                "final_plan_edges",
                "transport",
            )
        },
        "receiver": {
            k: receiver_result[k]
            for k in (
                "demodulated",
                "delivered",
                "plan_ships",
                "drops_injected",
                "duplicates_skipped",
                "telemetry_pushes",
                "msgs_per_second",
                "latency_by_pse",
                "final_plan_edges",
            )
        },
        "quality": receiver_result.get("quality"),
        "checks": [
            {"name": n, "passed": p, "detail": d} for n, p, d in checks
        ],
    }
    with open(outdir / "summary.json", "w") as handle:
        json.dump(summary, handle, indent=2)
    return summary, checks


def _wait_for_expose(proc: subprocess.Popen, timeout: float) -> int:
    """Read a process's stdout for its EXPOSING line."""
    deadline = time.time() + timeout
    assert proc.stdout is not None
    while time.time() < deadline:
        if proc.poll() is not None:
            raise RuntimeError(
                f"process exited early with status {proc.returncode}"
            )
        line = proc.stdout.readline()
        if not line:
            time.sleep(0.02)
            continue
        text = line.strip()
        if text.startswith("EXPOSING "):
            return int(text.split()[1])
    raise RuntimeError("process never announced its metrics port")


def _scrape_fanout_metrics(
    port: int,
    broker: subprocess.Popen,
    peers: List[str],
    timeout: float,
) -> Dict[str, object]:
    """Poll the broker's /metrics for the per-peer labeled series.

    Stops early once every subscriber shows up as a ``peer=...`` label
    on the broker's queue-depth gauge — the per-peer health the monitor
    dashboard keys on.
    """
    import urllib.request

    from repro.obs.exposition import parse_openmetrics

    url = f"http://127.0.0.1:{port}/metrics"
    state: Dict[str, object] = {
        "valid": False,
        "peers_seen": [],
        "error": None,
    }
    wanted = set(peers)
    deadline = time.time() + timeout
    broker_gone_attempts = 0
    while time.time() < deadline and broker_gone_attempts <= 2:
        if broker.poll() is not None:
            broker_gone_attempts += 1
        try:
            with urllib.request.urlopen(url, timeout=2.0) as response:
                text = response.read().decode()
            families = parse_openmetrics(text)
        except Exception as exc:  # noqa: BLE001 - report the last failure
            state["error"] = repr(exc)
            time.sleep(0.2)
            continue
        state["valid"] = True
        seen = {
            sample["labels"].get("peer")
            for family in families.values()
            for sample in family.get("samples", [])
            if sample["labels"].get("peer")
        }
        state["peers_seen"] = sorted(seen & wanted)
        if wanted <= seen:
            break
        time.sleep(0.2)
    return state


def _verify_fanout(
    broker: Dict[str, object],
    receivers: List[Dict[str, object]],
    merged: Dict[str, object],
    merged_flight: Dict[str, object],
    *,
    wedge_index: int,
) -> List[Tuple[str, bool, str]]:
    checks: List[Tuple[str, bool, str]] = []
    published = int(broker["published"])
    demod = {r["name"]: int(r["demodulated"]) for r in receivers}
    _check(
        checks,
        "all subscribers got traffic",
        published > 0 and all(count > 0 for count in demod.values()),
        f"broker published {published}, demodulated {demod}",
    )
    _check(
        checks,
        "modulation shared once per message",
        int(broker["shared_runs"]) == published,
        f"{broker['shared_runs']} shared runs for {published} publishes",
    )
    finals = {
        r["name"]: tuple(tuple(e) for e in r["final_plan_edges"])
        for r in receivers
    }
    distinct = len(set(finals.values()))
    _check(
        checks,
        "per-peer plans diverged",
        distinct >= 2,
        f"{distinct} distinct final plan(s) across {len(receivers)} "
        f"receivers: {finals}",
    )
    _check(
        checks,
        "plans applied per peer at broker",
        int(broker["plan_updates_applied"]) >= 1,
        f"broker applied {broker['plan_updates_applied']} plan update(s)",
    )
    subs = {s["name"]: s for s in broker["subscribers"]}
    if wedge_index >= 0:
        wedged = receivers[wedge_index]
        wedged_sub = subs[wedged["name"]]
        _check(
            checks,
            "wedge injected",
            int(wedged["wedges_injected"]) >= 1,
            f"{wedged['name']} went dark "
            f"{wedged['wedges_injected']} time(s)",
        )
        _check(
            checks,
            "wedged peer backlog shed (drop-oldest)",
            int(wedged_sub["transport"]["dropped_frames"]) > 0,
            f"broker dropped "
            f"{wedged_sub['transport']['dropped_frames']} frame(s) "
            f"for {wedged['name']}",
        )
        for i, receiver in enumerate(receivers):
            if i == wedge_index:
                continue
            sub = subs[receiver["name"]]
            shipped = int(sub["shipped"])
            count = int(receiver["demodulated"])
            _check(
                checks,
                f"{receiver['name']} unaffected by the wedge",
                shipped > 0 and count >= 0.9 * shipped,
                f"demodulated {count} of {shipped} shipped "
                f"(0 drops: {sub['transport']['dropped_frames'] == 0})",
            )
    spans = merged.get("spans", [])
    hosts = {s.get("host") for s in spans}
    wanted_hosts = {"broker"} | {r["name"] for r in receivers}
    _check(
        checks,
        "merged trace has every host",
        wanted_hosts <= hosts,
        f"hosts: {sorted(h for h in hosts if h)}",
    )
    names = {str(s["name"]) for s in spans}
    wanted = {"modulate", "demodulate"}
    if int(broker["forks"]) > 0:
        wanted = wanted | {"fork"}
    _check(
        checks,
        "span kinds present",
        wanted <= names,
        f"have {sorted(names & (wanted | {'fork', 'ship'}))}",
    )

    # -- fleet telemetry plane ------------------------------------------
    _check(
        checks,
        "telemetry pushed per peer",
        all(
            int(sub["transport"].get("telemetry_frames_seen", 0)) >= 1
            and int(sub.get("telemetry_frames", 0)) >= 1
            for sub in subs.values()
        ),
        "per-peer TELEMETRY frames at broker: "
        + ", ".join(
            f"{name}={subs[name].get('telemetry_frames', 0)}"
            for name in sorted(subs)
        ),
    )
    fleet_peers = broker.get("fleet", {}).get("peers", {})
    if wedge_index >= 0:
        wedged_name = receivers[wedge_index]["name"]
        ph = fleet_peers.get(wedged_name, {})
        transitions = ph.get("transitions", [])
        went_wedged = any(t.get("to") == "wedged" for t in transitions)
        recovered = any(
            t.get("from") == "wedged" and t.get("to") == "recovering"
            for t in transitions
        )
        _check(
            checks,
            "broker observed the wedge",
            went_wedged
            and recovered
            and ph.get("state") in ("recovering", "healthy"),
            f"{wedged_name} transitions "
            f"{[(t.get('from'), t.get('to')) for t in transitions]}, "
            f"final {ph.get('state')}",
        )
        live_states = {
            r["name"]: fleet_peers.get(r["name"], {}).get("state")
            for i, r in enumerate(receivers)
            if i != wedge_index
        }
        _check(
            checks,
            "live peers end healthy",
            all(state == "healthy" for state in live_states.values()),
            f"final states: {live_states}",
        )
        flight_events = merged_flight.get("events", [])
        flight_kinds = {e.get("kind") for e in flight_events}
        flight_wedged = any(
            e.get("kind") == "health.transition"
            and e.get("to") == "wedged"
            and e.get("peer") == wedged_name
            for e in flight_events
        )
        _check(
            checks,
            "flight recorder captured the wedge",
            "net.shed" in flight_kinds
            and "fault.wedge" in flight_kinds
            and flight_wedged,
            f"merged flight kinds: {sorted(k for k in flight_kinds if k)}",
        )
    return checks


def run_fanout_experiment(
    *,
    fanout: int = 3,
    messages: int = 300,
    samples: int = 64,
    trigger_period: int = 5,
    feedback_period: int = 8,
    interval: float = 0.005,
    timeout: float = 120.0,
    wedge_after: int = 20,
    wedge_seconds: float = 2.0,
    queue_limit: int = 64,
    profile: bool = False,
    profile_interval: Optional[float] = None,
    outdir: Path = Path("live-results"),
) -> Tuple[Dict[str, object], List[Tuple[str, bool, str]]]:
    """Run one broker against ``fanout`` receiver processes.

    Receiver ``i`` emulates a host ``6*i``× slower than receiver 0
    (``rate_scale``), so the per-peer adaptation loops converge to
    different PSEs.  Receiver 1 (when present) goes dark for
    ``wedge_seconds`` after its ``wedge_after``-th delivery, proving
    per-peer queue isolation.  Writes ``BENCH_net_fanout.json`` with
    the aggregate delivered msg/s.
    """
    if fanout < 2:
        raise ValueError("--fanout needs at least 2 receivers")
    outdir.mkdir(parents=True, exist_ok=True)
    env = _child_env()
    wedge_index = 1 if wedge_after > 0 else -1

    common = [
        "--messages", str(messages),
        "--samples", str(samples),
        "--timeout", str(timeout),
    ]
    if profile:
        common.append("--profile")
        if profile_interval is not None:
            common += ["--profile-interval", str(profile_interval)]
    receiver_procs: List[subprocess.Popen] = []
    receiver_outs: List[Path] = []
    broker_proc: Optional[subprocess.Popen] = None
    try:
        ports: List[int] = []
        for i in range(fanout):
            out = outdir / f"receiver{i}.json"
            receiver_outs.append(out)
            cmd = [
                sys.executable, "-m", "repro.net.live", "receiver",
                *common,
                "--name", f"receiver{i}",
                "--index", str(i),
                "--rate-scale", str(1.0 if i == 0 else 6.0 * i),
                "--trigger-period", str(trigger_period),
                "--out", str(out),
            ]
            if i == wedge_index:
                cmd += [
                    "--wedge-after", str(wedge_after),
                    "--wedge-seconds", str(wedge_seconds),
                ]
            proc = subprocess.Popen(
                cmd,
                stdout=subprocess.PIPE,
                stderr=subprocess.STDOUT,
                text=True,
                env=env,
            )
            receiver_procs.append(proc)
            port, _ = _wait_for_ports(
                proc, timeout=min(30.0, timeout), want_expose=False
            )
            ports.append(port)

        broker_out = outdir / "broker.json"
        broker_cmd = [
            sys.executable, "-m", "repro.net.live", "broker",
            *common,
            "--ports", ",".join(str(p) for p in ports),
            "--feedback-period", str(feedback_period),
            "--interval", str(interval),
            "--queue-limit", str(queue_limit),
            "--expose", "0",
            "--out", str(broker_out),
        ]
        broker_proc = subprocess.Popen(
            broker_cmd,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        expose_port = _wait_for_expose(
            broker_proc, timeout=min(30.0, timeout)
        )
        exposition = _scrape_fanout_metrics(
            expose_port,
            broker_proc,
            [f"receiver{i}" for i in range(fanout)],
            timeout=timeout,
        )
        broker_status = broker_proc.wait(timeout=timeout)
        receiver_statuses = [
            proc.wait(timeout=timeout) for proc in receiver_procs
        ]
    finally:
        for proc in [broker_proc, *receiver_procs]:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()
    if broker_status != 0:
        raise RuntimeError(f"broker exited with status {broker_status}")
    for i, status in enumerate(receiver_statuses):
        if status != 0:
            raise RuntimeError(
                f"receiver{i} exited with status {status}"
            )

    with open(broker_out) as handle:
        broker_result = json.load(handle)
    receiver_results = []
    for out in receiver_outs:
        with open(out) as handle:
            receiver_results.append(json.load(handle))

    dumps = [
        result["obs"]["tracing"]
        for result in (broker_result, *receiver_results)
        if "tracing" in result.get("obs", {})
    ]
    merged = merge_tracer_dumps(dumps)
    with open(outdir / "merged_trace.json", "w") as handle:
        json.dump(merged, handle)
    with open(outdir / "merged_chrome_trace.json", "w") as handle:
        json.dump(chrome_trace(merged), handle)
    merged_flight = merge_flight_dumps([
        result.get("obs", {}).get("flight", {})
        for result in (broker_result, *receiver_results)
    ])
    with open(outdir / "merged_flight.json", "w") as handle:
        json.dump(merged_flight, handle, indent=2, default=str)
    merged_profile = _merge_profiles(
        [broker_result, *receiver_results], outdir
    )

    checks = _verify_fanout(
        broker_result,
        receiver_results,
        merged,
        merged_flight,
        wedge_index=wedge_index,
    )
    _check(
        checks,
        "per-peer broker metrics exposed",
        bool(exposition["valid"])
        and len(exposition["peers_seen"]) == fanout,
        f"peer labels seen: {exposition['peers_seen']}"
        if exposition["valid"]
        else f"scrape failed: {exposition['error']}",
    )
    if profile:
        hosts = (
            set(merged_profile.get("hosts", []))
            if merged_profile
            else set()
        )
        samples = (
            int(merged_profile["samples"]) if merged_profile else 0
        )
        wanted_hosts = {"broker"} | {
            f"receiver{i}" for i in range(fanout)
        }
        _check(
            checks,
            "profiles captured on every host",
            wanted_hosts <= hosts and samples > 0,
            f"{samples} samples across hosts {sorted(hosts)}",
        )

    aggregate = sum(
        float(r["msgs_per_second"]) for r in receiver_results
    )
    bench = {
        "benchmark": "net_fanout",
        "n": fanout,
        "messages": messages,
        "aggregate_msgs_per_second": aggregate,
        "broker": {
            "published": broker_result["published"],
            "shared_runs": broker_result["shared_runs"],
            "forks": broker_result["forks"],
            "elapsed_seconds": broker_result["elapsed_seconds"],
            "plan_cache": broker_result["plan_cache"],
        },
        "per_receiver": [
            {
                "name": r["name"],
                "msgs_per_second": r["msgs_per_second"],
                "demodulated": r["demodulated"],
                "duplicates_skipped": r["duplicates_skipped"],
                "final_plan_edges": r["final_plan_edges"],
            }
            for r in receiver_results
        ],
    }
    with open(outdir / "BENCH_net_fanout.json", "w") as handle:
        json.dump(bench, handle, indent=2)

    summary = {
        "fanout": fanout,
        "messages": messages,
        "wedge_index": wedge_index,
        "wedge_after": wedge_after,
        "aggregate_msgs_per_second": aggregate,
        "broker": {
            k: broker_result[k]
            for k in (
                "published",
                "shared_runs",
                "forks",
                "plan_updates_applied",
                "recalibrations",
                "telemetry_frames",
                "fleet",
                "plan_cache",
                "subscribers",
            )
        },
        "receivers": [
            {
                k: r[k]
                for k in (
                    "name",
                    "demodulated",
                    "delivered",
                    "duplicates_skipped",
                    "wedges_injected",
                    "plan_ships",
                    "telemetry_pushes",
                    "self_health",
                    "msgs_per_second",
                    "final_plan_edges",
                )
            }
            for r in receiver_results
        ],
        "checks": [
            {"name": n, "passed": p, "detail": d} for n, p, d in checks
        ],
    }
    with open(outdir / "summary.json", "w") as handle:
        json.dump(summary, handle, indent=2)
    return summary, checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.liveexp",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--messages", type=int, default=300)
    parser.add_argument("--samples", type=int, default=64)
    parser.add_argument("--drop-after", type=int, default=40,
                        help="0 disables the injected connection drop")
    parser.add_argument("--rate-scale", type=float, default=4.0)
    parser.add_argument("--trigger-period", type=int, default=10)
    parser.add_argument("--feedback-period", type=int, default=8)
    parser.add_argument("--interval", type=float, default=0.005)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--outdir", type=Path,
                        default=Path("live-results"))
    parser.add_argument("--no-expose", action="store_true",
                        help="skip the live /metrics endpoint and the "
                        "quality accounting it exposes")
    parser.add_argument("--no-batching", action="store_true",
                        help="keep the sender's wire plain-framed "
                        "(baseline for the batching sweep)")
    parser.add_argument("--quick", action="store_true",
                        help="small workload for CI smoke runs")
    parser.add_argument("--profile", action="store_true",
                        help="run the continuous sampling profiler in "
                        "every process and merge the dumps into "
                        "merged_profile.json + profile.speedscope.json")
    parser.add_argument("--profile-interval", type=float, default=None,
                        help="seconds between profiler samples "
                        "(default 0.01 = 100 Hz)")
    parser.add_argument("--fanout", type=int, default=0, metavar="N",
                        help="broker topology: one modulator publishing "
                        "to N heterogeneous receiver processes")
    parser.add_argument("--wedge-after", type=int, default=20,
                        help="fan-out: receiver 1 goes dark after its "
                        "Nth delivery (0 disables)")
    parser.add_argument("--wedge-seconds", type=float, default=2.0)
    parser.add_argument("--queue-limit", type=int, default=64,
                        help="fan-out: per-subscriber outbound bound")
    parser.add_argument("--chaos", action="store_true",
                        help="run the chaos suite (see "
                        "repro.tools.chaos) instead of the standard "
                        "experiment; honors --quick and --outdir")
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME",
                        help="with --chaos: run only this scenario "
                        "(repeatable)")
    args = parser.parse_args(argv)

    if args.chaos:
        from repro.tools.chaos import run_chaos

        summary, checks = run_chaos(
            outdir=args.outdir,
            quick=args.quick,
            scenarios=args.scenario,
        )
        failed = int(summary["failed"])
        print(
            f"chaos: {len(checks) - failed}/{len(checks)} checks passed, "
            f"artifacts in {args.outdir}/"
        )
        return 1 if failed else 0

    if args.quick:
        args.messages = min(args.messages, 120)
        args.drop_after = min(args.drop_after, 25) if args.drop_after else 0
        args.wedge_after = (
            min(args.wedge_after, 10) if args.wedge_after else 0
        )

    if args.fanout:
        summary, checks = run_fanout_experiment(
            fanout=args.fanout,
            messages=args.messages,
            samples=args.samples,
            trigger_period=min(args.trigger_period, 5),
            feedback_period=args.feedback_period,
            interval=args.interval,
            timeout=args.timeout,
            wedge_after=args.wedge_after,
            wedge_seconds=args.wedge_seconds,
            queue_limit=args.queue_limit,
            profile=args.profile,
            profile_interval=args.profile_interval,
            outdir=args.outdir,
        )
        broker = summary["broker"]
        print(
            f"broker: published {broker['published']}, "
            f"shared runs {broker['shared_runs']}, "
            f"forks {broker['forks']}, "
            f"plans applied {broker['plan_updates_applied']}"
        )
        for receiver in summary["receivers"]:
            print(
                f"{receiver['name']}: "
                f"demodulated {receiver['demodulated']}, "
                f"{receiver['msgs_per_second']:.1f} msg/s, "
                f"plan ships {receiver['plan_ships']}, "
                f"wedges {receiver['wedges_injected']}"
            )
        print(
            f"aggregate: "
            f"{summary['aggregate_msgs_per_second']:.1f} msg/s "
            f"across {summary['fanout']} receivers"
        )
        failed = 0
        for name, passed, detail in checks:
            mark = "ok  " if passed else "FAIL"
            print(f"  [{mark}] {name}: {detail}")
            failed += 0 if passed else 1
        print(f"artifacts in {args.outdir}/")
        return 1 if failed else 0

    summary, checks = run_live_experiment(
        messages=args.messages,
        samples=args.samples,
        drop_after=args.drop_after,
        rate_scale=args.rate_scale,
        trigger_period=args.trigger_period,
        feedback_period=args.feedback_period,
        interval=args.interval,
        timeout=args.timeout,
        expose=not args.no_expose,
        batching=not args.no_batching,
        profile=args.profile,
        profile_interval=args.profile_interval,
        outdir=args.outdir,
    )
    sender = summary["sender"]
    receiver = summary["receiver"]
    print(
        f"sender: published {sender['published']}, "
        f"shipped {sender['shipped']}, "
        f"plans applied {sender['plan_updates_applied']}"
    )
    print(
        f"receiver: demodulated {receiver['demodulated']}, "
        f"delivered {receiver['delivered']}, "
        f"{receiver['msgs_per_second']:.1f} msg/s, "
        f"plan ships {receiver['plan_ships']}, "
        f"drops {receiver['drops_injected']}"
    )
    failed = 0
    for name, passed, detail in checks:
        mark = "ok  " if passed else "FAIL"
        print(f"  [{mark}] {name}: {detail}")
        failed += 0 if passed else 1
    print(f"artifacts in {args.outdir}/")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
