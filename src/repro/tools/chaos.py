"""Chaos suite: scripted faults gated on resilience invariants.

Each scenario injects one failure mode into a live topology (real OS
processes over localhost TCP, or a deterministic in-process script) and
asserts the resilience control plane's contract held:

* ``plan_storm`` — duplicated and reordered PLAN frames against a
  sender, including frames arriving *while the split is retracted*:
  exactly one apply per fresh version, duplicates ignored, deferred
  plans applied newest-first on re-split, absorbed continuations all
  complete locally (conservation holds with the breaker open).
* ``partition`` — the receiver stops its listener mid-stream without a
  Bye (a TCP partition, not a crash).  The sender's health monitor
  must wedge the silent peer, trip the breaker, retract the split and
  absorb the stream locally; on recovery the breaker must walk
  open → half-open → closed and re-split — with **zero message loss**
  (per-source dedupe high-water marks make redelivery effectively-once).
* ``kill_mid_apply`` — the receiver is SIGKILLed right after shipping a
  plan, so the sender takes the plan apply from a peer that no longer
  exists.  The sender must apply the plan, trip the breaker when the
  silence registers, retract, and finish the stream locally, exiting 0.
* ``leader_kill`` — three receivers share one broker and run the bully
  election; the highest-ranked member is SIGKILLed mid-stream.  The
  survivors must elect the next-highest rank within the timeout window
  while the broker retracts the dead peer's split and keeps the healthy
  peers streaming.

Every scenario merges its processes' dumps into its own directory
(``liveexp.write_merged``: span trees, event ring, profile), the per-process
event rings of all scenarios merge once into one time-ordered
suite-wide ``merged_flight.json``, and each scenario appends to
``chaos_summary.json``; the exit status is nonzero when any invariant
check fails, so CI gates on the suite directly::

    python -m repro.tools.chaos --quick --outdir chaos-results
    python -m repro.tools.liveexp --chaos --quick
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.flight import merge_flight_dumps, set_global_recorder
from repro.tools.liveexp import obs_sections, write_merged

__all__ = ["run_chaos", "main", "SCENARIOS"]

Check = Tuple[str, bool, str]


def _check(
    checks: List[Check], name: str, passed: bool, detail: str
) -> None:
    checks.append((name, bool(passed), detail))


def _load_json(path: Path) -> Optional[dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


def _transition_path(breaker: dict, *steps: str) -> bool:
    """Whether the breaker's transition log contains ``steps`` in order."""
    log = [t.get("to") for t in breaker.get("transitions", [])]
    i = 0
    for want in steps:
        try:
            i = log.index(want, i) + 1
        except ValueError:
            return False
    return True


# -- in-process scenario ------------------------------------------------------


def _scenario_plan_storm(
    outdir: Path, quick: bool
) -> Tuple[dict, List[Check], List[dict]]:
    """Duplicated / reordered / mid-retraction PLAN frames, scripted.

    No sockets: PLAN frames are fed straight into the sender's inbound
    path, which is exactly where wire frames land — so every ordering
    (duplicate, stale, deferred, superseded) is exercised
    deterministically instead of hoping the network misbehaves.
    """
    from repro.apps.sensor.data import make_reading
    from repro.apps.sensor.pipeline import build_partitioned_process
    from repro.core.plan import receiver_heavy_plan, sender_heavy_plan
    from repro.jecho.events import PlanEnvelope
    from repro.net.endpoint import NetSenderEndpoint
    from repro.net.framing import NetEnvelopeCodec
    from repro.net.resilience import BreakerConfig
    from repro.net.tcp import TcpTransport
    from repro.obs import Observability

    obs = Observability(host="plan-storm")
    set_global_recorder(obs.flight)
    partitioned, _sink = build_partitioned_process(n_stages=8)
    plan_recv = receiver_heavy_plan(partitioned.cut)
    plan_none = sender_heavy_plan(partitioned.cut)
    transport = TcpTransport(
        NetEnvelopeCodec(partitioned.serializer_registry),
        backoff_base=0.05,
        backoff_cap=0.2,
    ).start()
    # A peer nobody listens on: connects fail and retry in the
    # background, which is irrelevant — the scenario drives the inbound
    # path directly and publishes only while the breaker is open.
    peer = transport.peer("127.0.0.1", 1)
    checks: List[Check] = []
    try:
        sender = NetSenderEndpoint(
            partitioned,
            transport,
            peer,
            plan=plan_recv,
            rate_override=1e-7,
            obs=obs,
            breaker_config=BreakerConfig(success_threshold=1),
        )
        # A scripted clock makes the probe schedule deterministic: the
        # breaker stays firmly open through the absorb phase (no wall
        # time passes) and is walked to half-open by advancing the
        # clock past the backoff by hand.
        fake_now = [0.0]
        session = sender.session
        session.clock = lambda: fake_now[0]

        def plan_frame(version: int, plan) -> PlanEnvelope:
            return PlanEnvelope(
                subscription_id=1, plan=plan, version=version
            )

        # Fresh version applies once; its duplicate and a stale
        # reordered predecessor are both ignored.
        sender._on_inbound(plan_frame(2, plan_none), peer)
        sender._on_inbound(plan_frame(2, plan_none), peer)
        sender._on_inbound(plan_frame(1, plan_recv), peer)
        _check(
            checks,
            "duplicate and stale plans ignored",
            sender.plan_updates_applied == 1
            and session.plan_duplicates_ignored == 2,
            f"applied {sender.plan_updates_applied}, "
            f"ignored {session.plan_duplicates_ignored}",
        )

        # Scripted trip: retraction swaps to the sender-heavy plan and
        # every publish completes locally (the absorb path).
        with sender.lock:
            session.breaker.trip("chaos: scripted trip")
        _check(
            checks,
            "trip retracts the split",
            session.retracted and sender.retractions == 1,
            f"retracted={session.retracted} after trip",
        )
        for i in range(10):
            sender.publish(make_reading(i, 16))
        _check(
            checks,
            "open breaker absorbs the stream locally",
            sender.absorbed == 10
            and sender.published
            == session.shipped + session.completed_locally,
            f"absorbed {sender.absorbed}, published {sender.published}, "
            f"shipped {session.shipped}, "
            f"local {session.completed_locally}",
        )

        # Plans arriving mid-retraction are parked, newest version wins;
        # a reordered older frame cannot displace a parked newer one.
        sender._on_inbound(plan_frame(3, plan_recv), peer)
        sender._on_inbound(plan_frame(4, plan_none), peer)
        sender._on_inbound(plan_frame(3, plan_recv), peer)
        _check(
            checks,
            "plans deferred while retracted, newest wins",
            session.plans_deferred == 3
            and session.pending_plan is not None
            and session.pending_plan.version == 4,
            f"deferred {session.plans_deferred}, pending version "
            f"{session.pending_plan.version if session.pending_plan else None}",
        )

        # Walk the breaker closed by hand (probe + success) and confirm
        # the re-split applied the deferred version, not the saved one.
        fake_now[0] += 60.0
        with sender.lock:
            assert session.breaker.allow()
            session.breaker.record_success()
        _check(
            checks,
            "re-split applies the deferred plan",
            not session.retracted
            and session.plan_version_applied == 4
            and session.resplits == 1,
            f"version {session.plan_version_applied}, "
            f"resplits {session.resplits}",
        )
        _check(
            checks,
            "breaker walked open -> half-open -> closed",
            _transition_path(
                session.breaker.to_dict(), "open", "half_open", "closed"
            ),
            str(
                [
                    t["to"]
                    for t in session.breaker.to_dict()["transitions"]
                ]
            ),
        )
        summary = {
            "resilience": session.resilience_dump(),
            "plan_updates_applied": sender.plan_updates_applied,
            "plan_duplicates_ignored": session.plan_duplicates_ignored,
            "published": sender.published,
        }
    finally:
        transport.close()
    return summary, checks, [{"obs": obs.to_dict()}]


# -- subprocess scenarios -----------------------------------------------------


def _spawn(cmd: List[str], env: Dict[str, str]) -> subprocess.Popen:
    return subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )


def _receiver_cmd(
    out: Path,
    *,
    name: str = "receiver",
    index: int = 0,
    messages: int,
    timeout: float,
    extra: Optional[List[str]] = None,
) -> List[str]:
    return [
        sys.executable, "-m", "repro.net.live", "receiver",
        "--messages", str(messages),
        "--samples", "32",
        "--timeout", str(timeout),
        "--idle-timeout", str(timeout),
        "--name", name,
        "--index", str(index),
        "--telemetry-interval", "0.1",
        "--out", str(out),
        *(extra or []),
    ]


def _scenario_partition(
    outdir: Path, quick: bool
) -> Tuple[dict, List[Check], List[dict]]:
    """TCP partition: the receiver goes silent without a Bye, then returns."""
    from repro.tools.liveexp import _child_env, _wait_for_ports

    messages = 350 if quick else 500
    timeout = 30.0
    env = _child_env()
    recv_out = outdir / "receiver.json"
    send_out = outdir / "sender.json"
    checks: List[Check] = []
    receiver = _spawn(
        _receiver_cmd(
            recv_out,
            messages=messages,
            timeout=timeout,
            extra=[
                "--rate-scale", "2.0",
                "--trigger-period", "1000000",
                "--wedge-after", "25",
                "--wedge-seconds", "1.0",
            ],
        ),
        env,
    )
    sender = None
    try:
        port, _ = _wait_for_ports(receiver, timeout=20.0, want_expose=False)
        sender = _spawn(
            [
                sys.executable, "-m", "repro.net.live", "sender",
                "--port", str(port),
                "--messages", str(messages),
                "--samples", "32",
                "--interval", "0.01",
                "--heartbeat", "0.2",
                "--timeout", str(timeout),
                "--stale-degraded", "0.3",
                "--stale-wedged", "0.6",
                "--out", str(send_out),
            ],
            env,
        )
        sender_status = sender.wait(timeout=timeout + 30)
        receiver_status = receiver.wait(timeout=timeout + 30)
    finally:
        for proc in (sender, receiver):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()

    send_res = _load_json(send_out)
    recv_res = _load_json(recv_out)
    _check(
        checks,
        "both processes exited clean",
        sender_status == 0 and receiver_status == 0
        and send_res is not None and recv_res is not None,
        f"sender={sender_status} receiver={receiver_status}",
    )
    if send_res is None or recv_res is None:
        return {"error": "missing results"}, checks, []

    res = send_res["resilience"]
    breaker = res["breaker"]
    _check(
        checks,
        "partition tripped the breaker and retracted the split",
        breaker["trips"] >= 1 and res["retractions"] >= 1
        and res["absorbed"] > 0,
        f"trips {breaker['trips']}, retractions {res['retractions']}, "
        f"absorbed {res['absorbed']}",
    )
    _check(
        checks,
        "breaker walked open -> half-open -> closed",
        _transition_path(breaker, "open", "half_open", "closed")
        and breaker["state"] == "closed",
        f"state {breaker['state']}, "
        f"path {[t.get('to') for t in breaker.get('transitions', [])]}",
    )
    _check(
        checks,
        "recovery re-split the plan",
        res["resplits"] >= 1 and not res["retracted"],
        f"resplits {res['resplits']}, retracted {res['retracted']}",
    )
    shipped = int(send_res["shipped"])
    local = int(send_res["completed_locally"])
    published = int(send_res["published"])
    demod = int(recv_res["demodulated"])
    dropped = int(send_res["transport"]["dropped_frames"])
    _check(
        checks,
        "zero message loss across the partition",
        published == shipped + local
        and demod == shipped
        and dropped == 0,
        f"published {published} = shipped {shipped} + local {local}; "
        f"demodulated {demod} (dupes skipped "
        f"{recv_res['duplicates_skipped']}), dropped {dropped}",
    )
    summary = {
        "sender": {
            "published": published,
            "shipped": shipped,
            "completed_locally": local,
            "resilience": res,
        },
        "receiver": {
            "demodulated": demod,
            "duplicates_skipped": recv_res["duplicates_skipped"],
            "wedges_injected": recv_res["wedges_injected"],
        },
    }
    return summary, checks, [send_res, recv_res]


def _scenario_kill_mid_apply(
    outdir: Path, quick: bool
) -> Tuple[dict, List[Check], List[dict]]:
    """SIGKILL the receiver right after it ships a plan."""
    from repro.tools.liveexp import _child_env, _wait_for_ports

    messages = 250 if quick else 400
    timeout = 8.0
    env = _child_env()
    recv_out = outdir / "receiver.json"
    send_out = outdir / "sender.json"
    checks: List[Check] = []
    receiver = _spawn(
        _receiver_cmd(
            recv_out,
            messages=messages,
            timeout=timeout,
            extra=[
                "--rate-scale", "8.0",
                "--trigger-period", "3",
                "--kill-after-plan-ships", "1",
            ],
        ),
        env,
    )
    sender = None
    try:
        port, _ = _wait_for_ports(receiver, timeout=20.0, want_expose=False)
        sender = _spawn(
            [
                sys.executable, "-m", "repro.net.live", "sender",
                "--port", str(port),
                "--messages", str(messages),
                "--samples", "32",
                "--interval", "0.01",
                "--heartbeat", "0.2",
                "--timeout", str(timeout),
                "--stale-degraded", "0.3",
                "--stale-wedged", "0.6",
                "--out", str(send_out),
            ],
            env,
        )
        sender_status = sender.wait(timeout=timeout + 30)
        receiver_status = receiver.wait(timeout=timeout + 30)
    finally:
        for proc in (sender, receiver):
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()

    send_res = _load_json(send_out)
    _check(
        checks,
        "receiver died by SIGKILL as scripted",
        receiver_status == -signal.SIGKILL,
        f"receiver exit {receiver_status}",
    )
    _check(
        checks,
        "sender survived the kill and exited clean",
        sender_status == 0 and send_res is not None,
        f"sender exit {sender_status}",
    )
    if send_res is None:
        return {"error": "missing sender result"}, checks, []
    res = send_res["resilience"]
    breaker = res["breaker"]
    _check(
        checks,
        "the dying receiver's plan was applied before the silence",
        int(send_res["plan_updates_applied"]) >= 1,
        f"applied {send_res['plan_updates_applied']}",
    )
    _check(
        checks,
        "breaker tripped and stayed open on the vanished peer",
        breaker["trips"] >= 1 and breaker["state"] == "open"
        and res["retracted"],
        f"trips {breaker['trips']}, state {breaker['state']}",
    )
    published = int(send_res["published"])
    shipped = int(send_res["shipped"])
    local = int(send_res["completed_locally"])
    _check(
        checks,
        "stream completed locally after the kill, nothing lost",
        published == messages and published == shipped + local
        and res["absorbed"] > 0,
        f"published {published} = shipped {shipped} + local {local}, "
        f"absorbed {res['absorbed']}",
    )
    summary = {
        "receiver_exit": receiver_status,
        "sender": {
            "published": published,
            "shipped": shipped,
            "completed_locally": local,
            "plan_updates_applied": send_res["plan_updates_applied"],
            "resilience": res,
        },
    }
    return summary, checks, [send_res]


def _scenario_leader_kill(
    outdir: Path, quick: bool
) -> Tuple[dict, List[Check], List[dict]]:
    """Kill the elected leader out of three broker-relayed receivers."""
    from repro.tools.liveexp import _child_env, _wait_for_ports

    messages = 450 if quick else 650
    timeout = 10.0
    env = _child_env()
    checks: List[Check] = []
    fanout = 3
    kill_index = 2  # highest priority => the bootstrap leader
    receivers: List[subprocess.Popen] = []
    outs: List[Path] = []
    broker = None
    try:
        ports: List[int] = []
        for i in range(fanout):
            out = outdir / f"receiver{i}.json"
            outs.append(out)
            proc = _spawn(
                _receiver_cmd(
                    out,
                    name=f"receiver{i}",
                    index=i,
                    messages=messages,
                    timeout=timeout,
                    extra=[
                        "--rate-scale", str(1.0 + i),
                        "--trigger-period", "1000000",
                        "--election-priority", str(i + 1),
                    ],
                ),
                env,
            )
            receivers.append(proc)
            port, _ = _wait_for_ports(
                proc, timeout=20.0, want_expose=False
            )
            ports.append(port)
        broker_out = outdir / "broker.json"
        broker = _spawn(
            [
                sys.executable, "-m", "repro.net.live", "broker",
                "--ports", ",".join(str(p) for p in ports),
                "--messages", str(messages),
                "--samples", "32",
                "--interval", "0.01",
                "--heartbeat", "0.2",
                "--timeout", str(timeout),
                "--queue-limit", "256",
                "--stale-degraded", "0.3",
                "--stale-wedged", "0.6",
                "--out", str(broker_out),
            ],
            env,
        )
        # Let the bootstrap election settle, then decapitate.
        time.sleep(1.5)
        receivers[kill_index].send_signal(signal.SIGKILL)
        broker_status = broker.wait(timeout=timeout + 40)
        statuses = [
            proc.wait(timeout=timeout + 40) for proc in receivers
        ]
    finally:
        for proc in [broker, *receivers]:
            if proc is not None and proc.poll() is None:
                proc.kill()
                proc.wait()

    broker_res = _load_json(broker_out)
    survivor_res = [
        _load_json(outs[i]) for i in range(fanout) if i != kill_index
    ]
    _check(
        checks,
        "leader died by SIGKILL, broker and survivors exited clean",
        statuses[kill_index] == -signal.SIGKILL
        and broker_status == 0
        and all(
            statuses[i] == 0 for i in range(fanout) if i != kill_index
        )
        and broker_res is not None
        and all(r is not None for r in survivor_res),
        f"broker={broker_status} receivers={statuses}",
    )
    if broker_res is None or any(r is None for r in survivor_res):
        return {"error": "missing results"}, checks, []

    leaders = [r["name"] for r in survivor_res if r.get("leader")]
    _check(
        checks,
        "survivors re-elected exactly one leader: the next rank",
        leaders == ["receiver1"],
        f"leaders among survivors: {leaders}",
    )
    broker_leader = str(broker_res.get("leader") or "")
    _check(
        checks,
        "broker observed the new coordinator",
        broker_leader.startswith("receiver1#"),
        f"broker leader: {broker_leader!r}",
    )
    subs = {
        s["name"]: s for s in broker_res["subscribers"]
    }
    dead = subs.get(f"receiver{kill_index}", {})
    dead_breaker = dead.get("breaker") or {}
    _check(
        checks,
        "dead peer's breaker opened and its split retracted",
        dead_breaker.get("state") == "open"
        and dead.get("retracted"),
        f"state {dead_breaker.get('state')}, "
        f"retracted {dead.get('retracted')}",
    )
    floor = messages // 2
    healthy_ok = all(
        int(r["demodulated"]) > floor for r in survivor_res
    )
    _check(
        checks,
        "healthy peers kept streaming while one breaker was open",
        healthy_ok,
        ", ".join(
            f"{r['name']}: {r['demodulated']}/{messages}"
            for r in survivor_res
        ),
    )
    summary = {
        "killed": f"receiver{kill_index}",
        "broker_leader": broker_leader,
        "survivor_leaders": leaders,
        "broker": {
            "published": broker_res.get("published"),
            "retractions": broker_res.get("retractions"),
            "elections_relayed": broker_res.get("elections_relayed"),
        },
        "survivors": [
            {
                "name": r["name"],
                "demodulated": r["demodulated"],
                "leader": r["leader"],
                "election_frames": r["election_frames"],
            }
            for r in survivor_res
        ],
    }
    return summary, checks, [broker_res, *survivor_res]


SCENARIOS: Dict[
    str, Callable[[Path, bool], Tuple[dict, List[Check], List[dict]]]
] = {
    "plan_storm": _scenario_plan_storm,
    "partition": _scenario_partition,
    "kill_mid_apply": _scenario_kill_mid_apply,
    "leader_kill": _scenario_leader_kill,
}


def run_chaos(
    *,
    outdir: Path,
    quick: bool = False,
    scenarios: Optional[List[str]] = None,
) -> Tuple[dict, List[Check]]:
    """Run the suite; returns (summary, flat check list)."""
    outdir.mkdir(parents=True, exist_ok=True)
    names = scenarios or list(SCENARIOS)
    unknown = [n for n in names if n not in SCENARIOS]
    if unknown:
        raise ValueError(f"unknown scenario(s): {unknown}")
    all_checks: List[Check] = []
    all_flights: List[dict] = []
    per_scenario: Dict[str, dict] = {}
    for name in names:
        scenario_dir = outdir / name
        scenario_dir.mkdir(parents=True, exist_ok=True)
        started = time.time()
        print(f"== chaos: {name}", flush=True)
        try:
            summary, checks, results = SCENARIOS[name](
                scenario_dir, quick
            )
            write_merged(results, scenario_dir)
            all_flights.extend(obs_sections(results, "flight"))
        except Exception as exc:  # noqa: BLE001 - a scenario crashing IS a failure
            summary, checks = (
                {"error": repr(exc)},
                [(f"{name} ran to completion", False, repr(exc))],
            )
        elapsed = time.time() - started
        for check_name, passed, detail in checks:
            mark = "ok  " if passed else "FAIL"
            print(f"  [{mark}] {check_name}: {detail}", flush=True)
            all_checks.append((f"{name}: {check_name}", passed, detail))
        per_scenario[name] = {
            "elapsed_seconds": elapsed,
            "summary": summary,
            "checks": [
                {"name": n, "passed": p, "detail": d}
                for n, p, d in checks
            ],
        }
    merged = merge_flight_dumps(all_flights)
    with open(outdir / "merged_flight.json", "w") as handle:
        json.dump(merged, handle, default=str)
    summary = {
        "quick": quick,
        "scenarios": per_scenario,
        "failed": sum(1 for _, passed, _ in all_checks if not passed),
        "flight_events_merged": len(merged["events"]),
    }
    with open(outdir / "chaos_summary.json", "w") as handle:
        json.dump(summary, handle, indent=2, default=str)
    return summary, all_checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.chaos",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--outdir", type=Path,
                        default=Path("chaos-results"))
    parser.add_argument("--quick", action="store_true",
                        help="smaller streams for CI smoke runs")
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME", choices=sorted(SCENARIOS),
                        help="run only this scenario (repeatable); "
                        f"known: {', '.join(sorted(SCENARIOS))}")
    args = parser.parse_args(argv)
    summary, checks = run_chaos(
        outdir=args.outdir, quick=args.quick, scenarios=args.scenario
    )
    failed = summary["failed"]
    print(
        f"chaos: {len(checks) - failed}/{len(checks)} checks passed, "
        f"{summary['flight_events_merged']} flight events merged, "
        f"artifacts in {args.outdir}/"
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
