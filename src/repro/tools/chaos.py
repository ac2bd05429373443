"""Chaos suite: scripted faults gated on resilience invariants.

Each scenario injects one failure mode into a live topology (real OS
processes over localhost TCP, or a deterministic in-process script) and
asserts the resilience control plane's contract held:

* ``plan_storm`` — duplicated and reordered PLAN frames against a
  publisher's subscriber, including frames arriving *while the split
  is retracted*: exactly one apply per fresh version, duplicates
  ignored, deferred plans applied newest-first on re-split, absorbed
  continuations all complete locally (conservation holds with the
  breaker open).
* ``partition`` — the receiver stops its listener mid-stream without a
  Bye (a TCP partition, not a crash).  The publisher's health monitor
  must wedge the silent peer, trip the breaker, retract the split and
  absorb the stream locally; on recovery the breaker must walk
  open → half-open → closed and re-split — with **zero message loss**
  (per-source dedupe high-water marks make redelivery effectively-once).
* ``kill_mid_apply`` — the receiver is SIGKILLed right after shipping a
  plan, so the publisher takes the plan apply from a peer that no
  longer exists.  It must apply the plan, trip the breaker when the
  silence registers, retract, and finish the stream locally, exiting 0.
* ``leader_kill`` — three receivers share one publisher and run the
  bully election; the highest-ranked member is SIGKILLed mid-stream.
  The survivors must elect the next-highest rank within the timeout
  window while the publisher retracts the dead peer's split and keeps
  the healthy peers streaming.

The process scenarios launch the ``publisher`` and ``receiver`` roles
of :mod:`repro.net.live` through :func:`repro.tools.liveexp.launch`,
and their zero-loss checks read the live check table's conservation
row (:data:`repro.tools.liveexp.CONSERVATION`).  Every scenario
merges its processes' dumps into its own directory
(``liveexp.write_merged``: span trees, event ring, profile), the
per-process event rings of all scenarios merge once into one
time-ordered suite-wide ``merged_flight.json``, and each scenario
appends to
``chaos_summary.json``; the exit status is nonzero when any invariant
check fails, so CI gates on the suite directly::

    python -m repro.tools.chaos --quick --outdir chaos-results
    python -m repro.tools.liveexp --chaos --quick
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.obs.flight import merge_flight_dumps, set_global_recorder
from repro.tools.liveexp import (
    CONSERVATION,
    Fleet,
    launch,
    obs_sections,
    print_checks,
    without_obs,
    write_merged,
)

__all__ = ["run_chaos", "main", "SCENARIOS"]

Check = Tuple[str, bool, str]


def _check(
    checks: List[Check], name: str, passed: bool, detail: str
) -> None:
    checks.append((name, bool(passed), detail))


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

    No sockets: PLAN frames are fed straight into the publisher's inbound
    path, which is exactly where wire frames land — so every ordering
    (duplicate, stale, deferred, superseded) is exercised
    deterministically instead of hoping the network misbehaves.
    """
    from repro.apps.sensor.data import make_reading
    from repro.apps.sensor.pipeline import build_partitioned_process
    from repro.core.plan import receiver_heavy_plan, sender_heavy_plan
    from repro.jecho.events import PlanEnvelope
    from repro.net.broker import NetBrokerEndpoint
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
    checks: List[Check] = []
    try:
        publisher = NetBrokerEndpoint(
            partitioned,
            transport,
            plan=plan_recv,
            rate_override=1e-7,
            obs=obs,
            breaker_config=BreakerConfig(success_threshold=1),
        )
        # A peer nobody listens on: connects fail and retry in the
        # background, which is irrelevant — the scenario drives the
        # inbound path directly and publishes only while the breaker is
        # open.
        session = publisher.subscribe("127.0.0.1", 1)
        peer = session.peer
        # A scripted clock makes the probe schedule deterministic: the
        # breaker stays firmly open through the absorb phase (no wall
        # time passes) and is walked to half-open by advancing the
        # clock past the backoff by hand.
        fake_now = [0.0]
        session.clock = lambda: fake_now[0]

        def plan_frame(version: int, plan) -> PlanEnvelope:
            return PlanEnvelope(
                subscription_id=1, plan=plan, version=version
            )

        # Fresh version applies once; its duplicate and a stale
        # reordered predecessor are both ignored.
        publisher._on_inbound(plan_frame(2, plan_none), peer)
        publisher._on_inbound(plan_frame(2, plan_none), peer)
        publisher._on_inbound(plan_frame(1, plan_recv), peer)
        _check(
            checks,
            "duplicate and stale plans ignored",
            publisher.plan_updates_applied == 1
            and session.plan_duplicates_ignored == 2,
            f"applied {publisher.plan_updates_applied}, "
            f"ignored {session.plan_duplicates_ignored}",
        )

        # Scripted trip: retraction swaps to the sender-heavy plan and
        # every publish completes locally (the absorb path).
        with publisher.lock:
            session.breaker.trip("chaos: scripted trip")
        _check(
            checks,
            "trip retracts the split",
            session.retracted and publisher.retractions == 1,
            f"retracted={session.retracted} after trip",
        )
        for i in range(10):
            publisher.publish(make_reading(i, 16))
        _check(
            checks,
            "open breaker absorbs the stream locally",
            session.absorbed == 10
            and publisher.published
            == session.shipped + session.completed_locally,
            f"absorbed {session.absorbed}, published {publisher.published}, "
            f"shipped {session.shipped}, "
            f"local {session.completed_locally}",
        )

        # Plans arriving mid-retraction are parked, newest version wins;
        # a reordered older frame cannot displace a parked newer one.
        publisher._on_inbound(plan_frame(3, plan_recv), peer)
        publisher._on_inbound(plan_frame(4, plan_none), peer)
        publisher._on_inbound(plan_frame(3, plan_recv), peer)
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
        with publisher.lock:
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
            "plan_updates_applied": publisher.plan_updates_applied,
            "plan_duplicates_ignored": session.plan_duplicates_ignored,
            "published": publisher.published,
        }
    finally:
        transport.close()
    return summary, checks, [{"obs": obs.to_dict()}]


# -- process scenarios --------------------------------------------------------

#: every process scenario's receivers: small readings, telemetry often
_RECEIVER = {"samples": 32, "telemetry_interval": 0.1}
#: fast heartbeats and sub-second staleness, so a silent peer trips its
#: breaker well inside the scenario's window
_PUBLISHER = {
    "samples": 32,
    "interval": 0.01,
    "heartbeat": 0.2,
    "stale_degraded": 0.3,
    "stale_wedged": 0.6,
}


def _launch(
    outdir: Path,
    receivers: List[dict],
    *,
    messages: int,
    timeout: float,
    wait: float,
    publisher: Optional[dict] = None,
    during: Optional[Callable[[Fleet], object]] = None,
):
    """:func:`~repro.tools.liveexp.launch` plus the scenarios' options."""
    common = {"messages": messages, "timeout": timeout}
    return launch(
        outdir,
        [
            {**_RECEIVER, **common, "idle_timeout": timeout, **options}
            for options in receivers
        ],
        {**_PUBLISHER, **common, **(publisher or {})},
        wait=wait,
        during=during,
    )


def _outcome(
    statuses: Dict[str, Optional[int]],
    results: Dict[str, Optional[dict]],
    checks: List[Check],
) -> Tuple[dict, List[Check], List[dict]]:
    """A process scenario's (summary, checks, result files to merge).

    The summary is the exit statuses plus every result file the
    processes left, without its obs dump (the merged artifacts carry it).
    """
    left = {name: r for name, r in results.items() if r is not None}
    summary = {"exit_statuses": statuses}
    summary.update((name, without_obs(r)) for name, r in left.items())
    return summary, checks, list(left.values())


def _scenario_partition(
    outdir: Path, quick: bool
) -> Tuple[dict, List[Check], List[dict]]:
    """TCP partition: the receiver goes silent without a Bye, then returns."""
    messages = 350 if quick else 500
    timeout = 30.0
    statuses, results, _ = _launch(
        outdir,
        [{
            "rate_scale": 2.0,
            "trigger_period": 1000000,
            "wedge_after": 25,
            "wedge_seconds": 1.0,
        }],
        messages=messages,
        timeout=timeout,
        wait=timeout + 30,
    )
    checks: List[Check] = []
    pub, recv = results["publisher"], results["receiver0"]
    _check(
        checks,
        "both processes exited clean",
        all(status == 0 for status in statuses.values())
        and pub is not None and recv is not None,
        f"exit statuses {statuses}",
    )
    if pub is None or recv is None:
        return _outcome(statuses, results, checks)

    sub = pub["subscribers"][0]
    breaker = sub["breaker"]
    _check(
        checks,
        "partition tripped the breaker and retracted the split",
        breaker["trips"] >= 1 and sub["retractions"] >= 1
        and sub["absorbed"] > 0,
        f"trips {breaker['trips']}, retractions {sub['retractions']}, "
        f"absorbed {sub['absorbed']}",
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
        sub["resplits"] >= 1 and not sub["retracted"],
        f"resplits {sub['resplits']}, retracted {sub['retracted']}",
    )
    conserved, accounted = CONSERVATION.predicate({"publisher": pub})
    shipped = int(sub["shipped"])
    demod = int(recv["demodulated"])
    dropped = int(sub["transport"]["dropped_frames"])
    _check(
        checks,
        "zero message loss across the partition",
        conserved and demod == shipped and dropped == 0,
        f"{accounted}; demodulated {demod} (dupes skipped "
        f"{recv['duplicates_skipped']}), dropped {dropped}",
    )
    return _outcome(statuses, results, checks)


def _scenario_kill_mid_apply(
    outdir: Path, quick: bool
) -> Tuple[dict, List[Check], List[dict]]:
    """SIGKILL the receiver right after it ships a plan."""
    messages = 250 if quick else 400
    timeout = 8.0
    statuses, results, _ = _launch(
        outdir,
        [{
            "rate_scale": 8.0,
            "trigger_period": 3,
            "kill_after_plan_ships": 1,
        }],
        messages=messages,
        timeout=timeout,
        wait=timeout + 30,
    )
    checks: List[Check] = []
    pub = results["publisher"]
    _check(
        checks,
        "receiver died by SIGKILL as scripted",
        statuses["receiver0"] == -signal.SIGKILL,
        f"receiver exit {statuses['receiver0']}",
    )
    _check(
        checks,
        "publisher survived the kill and exited clean",
        statuses["publisher"] == 0 and pub is not None,
        f"publisher exit {statuses['publisher']}",
    )
    if pub is None:
        return _outcome(statuses, results, checks)
    sub = pub["subscribers"][0]
    breaker = sub["breaker"]
    _check(
        checks,
        "the dying receiver's plan was applied before the silence",
        int(sub["plan_updates_applied"]) >= 1,
        f"applied {sub['plan_updates_applied']}",
    )
    _check(
        checks,
        "breaker tripped and stayed open on the vanished peer",
        breaker["trips"] >= 1 and breaker["state"] == "open"
        and sub["retracted"],
        f"trips {breaker['trips']}, state {breaker['state']}",
    )
    conserved, accounted = CONSERVATION.predicate({"publisher": pub})
    _check(
        checks,
        "stream completed locally after the kill, nothing lost",
        pub["published"] == messages and conserved and sub["absorbed"] > 0,
        f"{accounted}, absorbed {sub['absorbed']}",
    )
    return _outcome(statuses, results, checks)


def _scenario_leader_kill(
    outdir: Path, quick: bool
) -> Tuple[dict, List[Check], List[dict]]:
    """Kill the elected leader out of three publisher-relayed receivers."""
    messages = 450 if quick else 650
    timeout = 10.0
    fanout = 3
    kill_index = 2  # highest priority => the bootstrap leader
    killed = f"receiver{kill_index}"

    def decapitate(fleet: Fleet) -> None:
        # Let the bootstrap election settle, then decapitate.
        time.sleep(1.5)
        fleet.receivers[kill_index].send_signal(signal.SIGKILL)

    statuses, results, _ = _launch(
        outdir,
        [
            {
                "rate_scale": 1.0 + i,
                "trigger_period": 1000000,
                "election_priority": i + 1,
            }
            for i in range(fanout)
        ],
        messages=messages,
        timeout=timeout,
        wait=timeout + 40,
        publisher={"queue_limit": 256},
        during=decapitate,
    )
    checks: List[Check] = []
    pub = results["publisher"]
    survivors = [
        results[f"receiver{i}"] for i in range(fanout) if i != kill_index
    ]
    _check(
        checks,
        "leader died by SIGKILL, publisher and survivors exited clean",
        statuses[killed] == -signal.SIGKILL
        and all(s == 0 for name, s in statuses.items() if name != killed)
        and pub is not None
        and all(r is not None for r in survivors),
        f"exit statuses {statuses}",
    )
    if pub is None or any(r is None for r in survivors):
        return _outcome(statuses, results, checks)

    leaders = [r["name"] for r in survivors if r.get("leader")]
    _check(
        checks,
        "survivors re-elected exactly one leader: the next rank",
        leaders == ["receiver1"],
        f"leaders among survivors: {leaders}",
    )
    pub_leader = str(pub.get("leader") or "")
    _check(
        checks,
        "publisher observed the new coordinator",
        pub_leader.startswith("receiver1#"),
        f"publisher leader: {pub_leader!r}",
    )
    dead = pub["subscribers"][kill_index]
    dead_breaker = dead.get("breaker") or {}
    _check(
        checks,
        "dead peer's breaker opened and its split retracted",
        dead_breaker.get("state") == "open" and dead.get("retracted"),
        f"state {dead_breaker.get('state')}, "
        f"retracted {dead.get('retracted')}",
    )
    floor = messages // 2
    _check(
        checks,
        "healthy peers kept streaming while one breaker was open",
        all(int(r["demodulated"]) > floor for r in survivors),
        ", ".join(
            f"{r['name']}: {r['demodulated']}/{messages}" for r in survivors
        ),
    )
    return _outcome(statuses, results, checks)


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
        print_checks(checks)
        all_checks += [(f"{name}: {n}", p, d) for n, p, d in checks]
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
