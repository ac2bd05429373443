"""Live network experiment orchestrator: one publisher, N receivers.

Launches the halves of :mod:`repro.net.live` as separate OS processes
on localhost — N receivers, then one publisher fanning the figure-7
sensor workload out to all of them over real TCP — and collects:

* per-process JSON results (``publisher.json``, ``receiverI.json``:
  traffic counters, plan timeline, per-PSE latency quantiles);
* one **merged Chrome trace** — the per-process tracer dumps use
  disjoint span-id bases and a shared wall clock, so the publisher's
  ``modulate``/``ship`` spans and the receivers' ``demodulate`` spans
  join into single causal trees across process boundaries;
* a pass/fail report from one check table (:data:`CHECKS`): each row
  names what it checks, when it applies to a run, and how it reads the
  run — nonzero traffic on every subscriber, every publish accounted
  for, plans shipped over the wire and applied, and the faults the run
  injected observed and survived.

A two-process run is the N = 1 fan-out.  By default it injects a
connection drop on its receiver (reconnect, deliveries resume); with
``--fanout N`` the receivers emulate *heterogeneous* loads, so their
adaptation loops converge to different PSEs while the publisher shares
each modulation up to the deepest common split, and receiver 1 goes
dark mid-stream (``--wedge-after``) to prove the bounded per-peer
queues shed that peer's backlog without stalling the others.

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
from typing import (
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.obs.export import chrome_trace, merge_tracer_dumps
from repro.obs.flight import merge_flight_dumps
from repro.obs.prof import merge_profile_dumps, speedscope_from_dump

__all__ = [
    "CHECKS", "CONSERVATION", "evaluate", "launch", "run_experiment",
    "obs_sections", "write_merged", "print_checks", "without_obs", "main"
]

_SRC_ROOT = str(Path(__file__).resolve().parents[2])

Run = Dict[str, object]
Outcome = Tuple[str, bool, str]


def _child_env() -> Dict[str, str]:
    env = dict(os.environ)
    parts = [_SRC_ROOT]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


def _flags(options: Mapping[str, object]) -> List[str]:
    """CLI flags from options: ``{"rate_scale": 4.0, "quality": True}``
    is ``--rate-scale 4.0 --quality``.

    ``None`` and ``False`` leave a flag out, ``True`` passes it bare.
    """
    flags: List[str] = []
    for key, value in options.items():
        if value is None or value is False:
            continue
        flags.append("--" + key.replace("_", "-"))
        if value is not True:
            flags.append(str(value))
    return flags


def _announced(
    proc: subprocess.Popen, name: str, want: Sequence[str], timeout: float
) -> Dict[str, int]:
    """Read a process's stdout until it announced every ``want`` port.

    Ports are announced one per line as ``LISTENING <port>`` and
    ``EXPOSING <port>``.
    """
    deadline = time.time() + timeout
    assert proc.stdout is not None
    ports: Dict[str, int] = {}
    while len(ports) < len(want):
        if time.time() > deadline:
            raise RuntimeError(f"{name} never announced {list(want)}")
        if proc.poll() is not None:
            raise RuntimeError(
                f"{name} exited early with status {proc.returncode}"
            )
        line = proc.stdout.readline()
        if not line:
            time.sleep(0.02)
            continue
        word, _, port = line.strip().partition(" ")
        if word in want:
            ports[word] = int(port)
    return ports


def _load_json(path: Path) -> Optional[dict]:
    try:
        with open(path) as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError):
        return None


class Fleet(NamedTuple):
    """The processes of one launched run, while it streams."""

    publisher: subprocess.Popen
    receivers: List[subprocess.Popen]
    #: host name → /metrics port, for every process started with expose
    expose: Dict[str, int]


def launch(
    outdir: Path,
    receivers: Sequence[Mapping[str, object]],
    publisher: Mapping[str, object],
    *,
    wait: float,
    during: Optional[Callable[[Fleet], object]] = None,
) -> Tuple[Dict[str, Optional[int]], Dict[str, Optional[dict]], object]:
    """Start N receivers and one publisher; wait for all of them.

    ``receivers[i]`` and ``publisher`` are each process's
    :mod:`repro.net.live` options (``{"rate_scale": 4.0}`` for
    ``--rate-scale 4.0``).  Receiver ``i`` is named ``receiverI`` and
    the publisher subscribes to the receivers in order, so its
    subscriber ``i`` is receiver ``i``.  ``during(fleet)`` runs while the
    stream flows (a scrape, a scripted kill).

    Returns ``(statuses, results, value of during)``, the first two
    keyed by host name: a status is nonzero when the process failed or
    died, a result None when it left no ``outdir/<host>.json``.
    """
    env = _child_env()
    procs: Dict[str, subprocess.Popen] = {}
    expose: Dict[str, int] = {}

    def spawn(name: str, role: str, options: Mapping[str, object]) -> int:
        options = {**options, "out": outdir / f"{name}.json"}
        procs[name] = proc = subprocess.Popen(
            [sys.executable, "-m", "repro.net.live", role, *_flags(options)],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        want = ["LISTENING"] if role == "receiver" else []
        if options.get("expose") is not None:
            want.append("EXPOSING")
        ports = _announced(proc, name, want, timeout=min(30.0, wait))
        if "EXPOSING" in ports:
            expose[name] = ports["EXPOSING"]
        return ports.get("LISTENING", 0)

    names = [f"receiver{i}" for i in range(len(receivers))]
    value = None
    try:
        ports = [
            spawn(name, "receiver", {"name": name, "index": i, **options})
            for i, (name, options) in enumerate(zip(names, receivers))
        ]
        spawn(
            "publisher",
            "publisher",
            {"ports": ",".join(str(p) for p in ports), **publisher},
        )
        if during is not None:
            value = during(
                Fleet(procs["publisher"], [procs[n] for n in names], expose)
            )
        statuses = {
            name: procs[name].wait(timeout=wait)
            for name in ["publisher", *names]
        }
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    results = {name: _load_json(outdir / f"{name}.json") for name in statuses}
    return statuses, results, value


def _series(families: Mapping[str, dict]) -> Dict[str, Set[str]]:
    """Each family with samples → the ``label=value`` pairs on them."""
    return {
        family: {
            f"{key}={value}"
            for sample in data["samples"]
            for key, value in sample["labels"].items()
        }
        for family, data in families.items()
        if data.get("samples")
    }


def _scrape(
    ports: Mapping[str, int],
    publisher: subprocess.Popen,
    timeout: float,
    outdir: Path,
) -> Dict[str, Dict[str, object]]:
    """Poll every exposing host's /metrics until the publisher exits.

    Per host: ``valid`` (some scrape parsed as OpenMetrics), the last
    ``error``, and ``series`` (see :func:`_series`) accumulated over all
    scrapes.  The last valid text lands in ``outdir/<host>.metrics.txt``.
    """
    import urllib.request

    from repro.obs.exposition import parse_openmetrics

    state = {
        name: {"valid": False, "error": None, "series": {}}
        for name in ports
    }
    deadline = time.time() + timeout
    last_chances = 3
    while ports and time.time() < deadline and last_chances > 0:
        if publisher.poll() is not None:
            # Receivers linger briefly after the publisher exits; take
            # a couple of last-chance scrapes, then stop.
            last_chances -= 1
        for name, port in ports.items():
            host = state[name]
            url = f"http://127.0.0.1:{port}/metrics"
            try:
                with urllib.request.urlopen(url, timeout=2.0) as response:
                    text = response.read().decode()
                families = parse_openmetrics(text)
            except Exception as exc:  # noqa: BLE001 - report the last failure
                host["error"] = repr(exc)
                continue
            host["valid"] = True
            for family, labels in _series(families).items():
                host["series"].setdefault(family, set()).update(labels)
            (outdir / f"{name}.metrics.txt").write_text(text)
        time.sleep(0.2)
    for host in state.values():
        host["series"] = {k: sorted(v) for k, v in host["series"].items()}
    return state


def obs_sections(
    results: List[Optional[Dict[str, object]]], name: str
) -> List[Dict[str, object]]:
    """The ``name`` section of each role process's obs dump, where present."""
    dumps = [r["obs"] for r in results if r and "obs" in r]
    return [d[name] for d in dumps if d.get(name)]


def write_merged(
    results: List[Optional[Dict[str, object]]], outdir: Path
) -> Dict[str, Optional[Dict[str, object]]]:
    """Merge one run's per-process obs dumps into ``outdir``.

    ``results`` are the role processes' result files (``None`` for a
    process that left none).  Writes ``merged_trace.json`` and
    ``merged_chrome_trace.json`` (the span rings joined across
    processes), ``merged_flight.json`` (the event rings on one
    timeline) and, when any process was profiled,
    ``merged_profile.json`` + ``profile.speedscope.json``.  Returns the
    merged ``trace``, ``flight`` and ``profile`` (None when unprofiled).
    """
    merged: Dict[str, Optional[Dict[str, object]]] = {
        "trace": merge_tracer_dumps(obs_sections(results, "tracing")),
        "flight": merge_flight_dumps(obs_sections(results, "flight")),
        "profile": None,
    }
    files = {
        "merged_trace.json": merged["trace"],
        "merged_chrome_trace.json": chrome_trace(merged["trace"]),
        "merged_flight.json": merged["flight"],
    }
    profiles = obs_sections(results, "profile")
    if profiles:
        merged["profile"] = merge_profile_dumps(profiles)
        files["merged_profile.json"] = merged["profile"]
        files["profile.speedscope.json"] = speedscope_from_dump(
            merged["profile"], name="liveexp"
        )
    for name, data in files.items():
        with open(outdir / name, "w") as handle:
            json.dump(data, handle, default=str)
    return merged


# -- the check table ----------------------------------------------------------
#
# A run is the dict :func:`run_experiment` assembles: ``n``, ``faults``
# (receiver index → that receiver's fault options), the ``publisher``
# and ``receivers`` result files, the merged ``trace`` and ``flight``
# dumps, the merged ``profile`` (None when unprofiled) and the
# ``exposition`` scrape state per exposing host.


class Check(NamedTuple):
    """One row: ``predicate(run)`` is (passed, detail) where it applies."""

    name: str
    applies: Callable[[Run], bool]
    predicate: Callable[[Run], Tuple[bool, str]]


def _always(run: Run) -> bool:
    return True


def _fault(run: Run, option: str) -> Optional[int]:
    """Index of the receiver injecting fault ``option``, if any."""
    for index, options in run["faults"].items():
        if options.get(option):
            return index
    return None


def _has_fault(option: str) -> Callable[[Run], bool]:
    return lambda run: _fault(run, option) is not None


def _subs(run: Run) -> List[dict]:
    return run["publisher"]["subscribers"]


def _hosts(run: Run) -> Set[str]:
    return {"publisher"} | {r["name"] for r in run["receivers"]}


def _traffic(run: Run) -> Tuple[bool, str]:
    published = int(run["publisher"]["published"])
    demod = {r["name"]: int(r["demodulated"]) for r in run["receivers"]}
    return (
        published > 0 and all(count > 0 for count in demod.values()),
        f"published {published}, demodulated {demod}",
    )


def _conservation(run: Run) -> Tuple[bool, str]:
    published = int(run["publisher"]["published"])
    parts = ("shipped", "completed_locally", "elided", "ships_suppressed")
    passed, details = True, []
    for sub in _subs(run):
        counts = [int(sub[part]) for part in parts]
        passed = passed and published == sum(counts)
        details.append(
            f"{sub['name']}: {published} = "
            + " + ".join(f"{n} {v}" for n, v in zip(parts, counts))
        )
    return passed, "; ".join(details)


def _deliveries(run: Run) -> Tuple[bool, str]:
    counts = {
        r["name"]: (int(r["delivered"]), int(r["demodulated"]))
        for r in run["receivers"]
    }
    return (
        all(d == m for d, m in counts.values()),
        ", ".join(
            f"{n}: delivered {d} of {m}" for n, (d, m) in counts.items()
        ),
    )


def _plans_shipped(run: Run) -> Tuple[bool, str]:
    ships = sum(int(r["plan_ships"]) for r in run["receivers"])
    applied = int(run["publisher"]["plan_updates_applied"])
    return (
        ships >= 1 and applied >= 1,
        f"receivers shipped {ships} plan(s), publisher applied {applied}",
    )


def _plan_moved(run: Run) -> Tuple[bool, str]:
    initial = run["publisher"]["initial_plan_edges"]
    finals = {sub["name"]: sub["plan_edges"] for sub in _subs(run)}
    return (
        any(edges != initial for edges in finals.values()),
        f"{initial} -> {finals}",
    )


def _plans_agree(run: Run) -> Tuple[bool, str]:
    pairs = {
        sub["name"]: (sub["plan_edges"], r["final_plan_edges"])
        for r, sub in _live(run)
    }
    return (
        all(mine == theirs for mine, theirs in pairs.values()),
        ", ".join(
            f"{name}: publisher {mine}, receiver {theirs}"
            for name, (mine, theirs) in pairs.items()
        ),
    )


def _shared_once(run: Run) -> Tuple[bool, str]:
    pub = run["publisher"]
    return (
        int(pub["shared_runs"]) == int(pub["published"]),
        f"{pub['shared_runs']} shared runs for {pub['published']} publishes",
    )


def _diverged(run: Run) -> Tuple[bool, str]:
    finals = {
        r["name"]: tuple(tuple(e) for e in r["final_plan_edges"])
        for r in run["receivers"]
    }
    distinct = len(set(finals.values()))
    return (
        distinct >= 2,
        f"{distinct} distinct final plan(s) across {len(finals)} "
        f"receivers: {finals}",
    )


def _drop_injected(run: Run) -> Tuple[bool, str]:
    drops = int(run["receivers"][_fault(run, "drop_after")]["drops_injected"])
    return drops >= 1, f"{drops} drop(s)"


def _reconnected(run: Run) -> Tuple[bool, str]:
    transport = _subs(run)[_fault(run, "drop_after")]["transport"]
    return (
        int(transport["reconnects"]) >= 1,
        f"{transport['reconnects']} reconnect(s), "
        f"{transport['connections']} connection(s)",
    )


def _resumed(run: Run) -> Tuple[bool, str]:
    index = _fault(run, "drop_after")
    drop_after = int(run["faults"][index]["drop_after"])
    demod = int(run["receivers"][index]["demodulated"])
    return (
        demod > drop_after,
        f"{demod} demodulated > drop point {drop_after}",
    )


def _wedged(run: Run) -> Tuple[dict, dict]:
    """(receiver result, publisher subscriber) of the wedged receiver."""
    index = _fault(run, "wedge_after")
    return run["receivers"][index], _subs(run)[index]


def _live(run: Run) -> List[Tuple[dict, dict]]:
    """(receiver result, subscriber) of every receiver not wedged."""
    index = _fault(run, "wedge_after")
    return [
        pair
        for i, pair in enumerate(zip(run["receivers"], _subs(run)))
        if i != index
    ]


def _wedge_injected(run: Run) -> Tuple[bool, str]:
    receiver, _ = _wedged(run)
    count = int(receiver["wedges_injected"])
    return count >= 1, f"{receiver['name']} went dark {count} time(s)"


def _wedge_shed(run: Run) -> Tuple[bool, str]:
    receiver, sub = _wedged(run)
    dropped = int(sub["transport"]["dropped_frames"])
    return (
        dropped > 0,
        f"publisher dropped {dropped} frame(s) for {receiver['name']}",
    )


def _unaffected(run: Run) -> Tuple[bool, str]:
    passed, details = True, []
    for receiver, sub in _live(run):
        shipped, count = int(sub["shipped"]), int(receiver["demodulated"])
        passed = passed and shipped > 0 and count >= 0.9 * shipped
        details.append(
            f"{receiver['name']}: demodulated {count} of {shipped} shipped "
            f"(0 drops: {sub['transport']['dropped_frames'] == 0})"
        )
    return passed, "; ".join(details)


def _fleet_peer(run: Run, name: str) -> dict:
    return run["publisher"].get("fleet", {}).get("peers", {}).get(name, {})


def _wedge_observed(run: Run) -> Tuple[bool, str]:
    name = _wedged(run)[0]["name"]
    peer = _fleet_peer(run, name)
    transitions = peer.get("transitions", [])
    went_wedged = any(t.get("to") == "wedged" for t in transitions)
    recovered = any(
        t.get("from") == "wedged" and t.get("to") == "recovering"
        for t in transitions
    )
    return (
        went_wedged
        and recovered
        and peer.get("state") in ("recovering", "healthy"),
        f"{name} transitions "
        f"{[(t.get('from'), t.get('to')) for t in transitions]}, "
        f"final {peer.get('state')}",
    )


def _live_healthy(run: Run) -> Tuple[bool, str]:
    states = {
        r["name"]: _fleet_peer(run, r["name"]).get("state")
        for r, _ in _live(run)
    }
    return (
        all(state == "healthy" for state in states.values()),
        f"final states: {states}",
    )


def _wedge_recorded(run: Run) -> Tuple[bool, str]:
    name = _wedged(run)[0]["name"]
    events = run["flight"].get("events", [])
    kinds = {e.get("kind") for e in events}
    wedged = any(
        e.get("kind") == "health.transition"
        and e.get("to") == "wedged"
        and e.get("peer") == name
        for e in events
    )
    return (
        {"net.shed", "fault.wedge"} <= kinds and wedged,
        f"merged flight kinds: {sorted(k for k in kinds if k)}",
    )


def _trace_hosts(run: Run) -> Tuple[bool, str]:
    hosts = {s.get("host") for s in run["trace"].get("spans", [])}
    return _hosts(run) <= hosts, f"hosts: {sorted(h for h in hosts if h)}"


def _causal_trees(run: Run) -> Tuple[bool, str]:
    by_trace: Dict[object, Set[str]] = {}
    for span in run["trace"].get("spans", []):
        by_trace.setdefault(span["trace"], set()).add(span.get("host"))
    receivers = _hosts(run) - {"publisher"}
    crossing = [
        t
        for t, hosts in by_trace.items()
        if "publisher" in hosts and hosts & receivers
    ]
    return (
        len(crossing) >= 1,
        f"{len(crossing)} trace(s) span publisher and a receiver",
    )


def _span_kinds(run: Run) -> Tuple[bool, str]:
    names = {str(s["name"]) for s in run["trace"].get("spans", [])}
    wanted = {"modulate", "ship", "demodulate"}
    if int(run["publisher"]["forks"]) > 0:
        wanted.add("fork")
    shown = wanted | {"fork", "plan.ship", "plan.apply"}
    return wanted <= names, f"have {sorted(names & shown)}"


def _telemetry(run: Run) -> Tuple[bool, str]:
    counts = {
        sub["name"]: (
            int(sub["transport"].get("telemetry_frames_seen", 0)),
            int(sub.get("telemetry_frames", 0)),
        )
        for sub in _subs(run)
    }
    return (
        all(wire >= 1 and ingested >= 1 for wire, ingested in counts.values()),
        "TELEMETRY frames on the wire/ingested per peer: "
        + ", ".join(f"{n}={w}/{i}" for n, (w, i) in sorted(counts.items())),
    )


def _profiles(run: Run) -> Tuple[bool, str]:
    profile = run["profile"]
    hosts = set(profile.get("hosts", []))
    samples = int(profile.get("samples", 0))
    return (
        _hosts(run) <= hosts and samples > 0,
        f"{samples} samples across hosts {sorted(hosts)}",
    )


def _exposes(host: str) -> Callable[[Run], bool]:
    return lambda run: host in run["exposition"]


def _scraped(run: Run) -> Tuple[bool, str]:
    failed = {
        name: host["error"]
        for name, host in run["exposition"].items()
        if not host["valid"]
    }
    return (
        not failed,
        f"scrape failed: {failed}"
        if failed
        else f"live /metrics of {sorted(run['exposition'])} parsed as "
        "OpenMetrics",
    )


def _quality_exposed(
    family: str, label: Optional[str]
) -> Callable[[Run], Tuple[bool, str]]:
    """Receiver 0 exposed ``family`` (on a ``label``-labelled sample).

    Falls back to rendering its final dump when the mid-stream scrapes
    raced the series' first appearance.
    """

    def has(series: Mapping[str, Sequence[str]]) -> bool:
        return family in series and (
            label is None
            or any(pair.startswith(label + "=") for pair in series[family])
        )

    def predicate(run: Run) -> Tuple[bool, str]:
        if has(run["exposition"]["receiver0"]["series"]):
            return True, f"{family} present (live scrape)"
        metrics = run["receivers"][0].get("obs", {}).get("metrics")
        if metrics:
            from repro.obs.exposition import (
                parse_openmetrics,
                render_openmetrics,
            )

            if has(_series(parse_openmetrics(render_openmetrics(metrics)))):
                return True, f"{family} present (final dump)"
        return False, f"no {family} sample"

    return predicate


def _peers_exposed(run: Run) -> Tuple[bool, str]:
    seen = {
        pair.split("=", 1)[1]
        for pairs in run["exposition"]["publisher"]["series"].values()
        for pair in pairs
        if pair.startswith("peer=")
    }
    wanted = _hosts(run) - {"publisher"}
    return wanted <= seen, f"peer labels seen: {sorted(seen & wanted)}"


#: published == shipped + completed_locally + elided + ships_suppressed,
#: on every subscriber — the publish path's conservation identity
CONSERVATION = Check("every publish accounted for", _always, _conservation)

#: the one verification table for every live run, any N, any fault
CHECKS: Tuple[Check, ...] = (
    Check("every subscriber got traffic", _always, _traffic),
    CONSERVATION,
    Check("deliveries complete", _always, _deliveries),
    Check("plan shipped over TCP and applied", _always, _plans_shipped),
    Check("plan actually moved", _always, _plan_moved),
    Check("publisher and live receivers agree on final plans", _always,
          _plans_agree),
    Check("modulation shared once per message", _always, _shared_once),
    Check("per-peer plans diverged", lambda run: run["n"] >= 2, _diverged),
    Check("drop injected", _has_fault("drop_after"), _drop_injected),
    Check("publisher reconnected", _has_fault("drop_after"), _reconnected),
    Check("deliveries resumed after drop", _has_fault("drop_after"),
          _resumed),
    Check("wedge injected", _has_fault("wedge_after"), _wedge_injected),
    Check("wedged peer backlog shed (drop-oldest)",
          _has_fault("wedge_after"), _wedge_shed),
    Check("live peers unaffected by the wedge", _has_fault("wedge_after"),
          _unaffected),
    Check("publisher observed the wedge", _has_fault("wedge_after"),
          _wedge_observed),
    Check("live peers end healthy", _has_fault("wedge_after"),
          _live_healthy),
    Check("flight recorder captured the wedge", _has_fault("wedge_after"),
          _wedge_recorded),
    Check("merged trace has every host", _always, _trace_hosts),
    Check("cross-process causal trees", _always, _causal_trees),
    Check("span kinds present", _always, _span_kinds),
    Check("telemetry pushed per peer", _always, _telemetry),
    Check("profiles captured on every host",
          lambda run: run["profile"] is not None, _profiles),
    Check("exposition scraped & valid", lambda run: bool(run["exposition"]),
          _scraped),
    Check("regret series exposed", _exposes("receiver0"),
          _quality_exposed("quality_regret", "pse")),
    Check("drift residual exposed", _exposes("receiver0"),
          _quality_exposed("quality_drift_residual", None)),
    Check("per-peer publisher metrics exposed", _exposes("publisher"),
          _peers_exposed),
)


def evaluate(run: Run) -> List[Outcome]:
    """Every row of :data:`CHECKS` that applies to ``run``, evaluated."""
    outcomes = []
    for check in CHECKS:
        if check.applies(run):
            passed, detail = check.predicate(run)
            outcomes.append((check.name, bool(passed), detail))
    return outcomes


def print_checks(checks: Sequence[Outcome]) -> int:
    """Print one ``[ok  ]``/``[FAIL]`` line per check; returns the failures."""
    failed = 0
    for name, passed, detail in checks:
        mark = "ok  " if passed else "FAIL"
        print(f"  [{mark}] {name}: {detail}", flush=True)
        failed += 0 if passed else 1
    return failed


def without_obs(result: Mapping[str, object]) -> Dict[str, object]:
    """A result file without its obs dump."""
    return {k: v for k, v in result.items() if k != "obs"}


def _rate_scales(n: int, rate_scale: float) -> List[float]:
    """Emulated slowdown per receiver.

    One receiver runs ``rate_scale``× slower.  A fleet is heterogeneous
    — receiver 0 unloaded, receiver ``i`` 6·i× slower — so the per-peer
    adaptation loops converge to different PSEs.
    """
    return [rate_scale] if n == 1 else [1.0] + [6.0 * i for i in range(1, n)]


def run_experiment(
    *,
    receivers: int = 1,
    faults: Optional[Mapping[int, Mapping[str, object]]] = None,
    messages: int = 300,
    samples: int = 64,
    rate_scale: float = 4.0,
    trigger_period: int = 10,
    feedback_period: int = 8,
    interval: float = 0.005,
    timeout: float = 120.0,
    expose: bool = True,
    batching: bool = True,
    queue_limit: Optional[int] = None,
    profile: bool = False,
    profile_interval: Optional[float] = None,
    outdir: Path = Path("live-results"),
) -> Tuple[Dict[str, object], List[Outcome]]:
    """Run a publisher and ``receivers`` receivers; returns (summary, checks).

    ``faults`` maps a receiver index to its fault options —
    ``{0: {"drop_after": 25}}`` resets receiver 0's connection after its
    25th delivery, ``{1: {"wedge_after": 10, "wedge_seconds": 2.0}}``
    takes receiver 1 dark for two seconds.

    ``expose=True`` (the default) turns on receiver 0's adaptation-
    quality accounting, serves /metrics from it and from the publisher,
    scrapes both mid-stream and validates the OpenMetrics text — the
    telemetry a long-lived deployment would be monitored through.
    ``batching=False`` keeps the publisher's wire plain-framed, the
    baseline the batched benchmark sweep compares against.
    ``queue_limit`` bounds each subscriber's outbound queue (None: the
    publisher's default).
    """
    outdir.mkdir(parents=True, exist_ok=True)
    faults = dict(faults or {})
    common = {
        "messages": messages,
        "samples": samples,
        "timeout": timeout,
        "profile": profile,
        "profile_interval": profile_interval,
    }
    receiver_options = [
        {
            **common,
            "rate_scale": scale,
            "trigger_period": trigger_period,
            **({"quality": True, "expose": 0} if expose and i == 0 else {}),
            **faults.get(i, {}),
        }
        for i, scale in enumerate(_rate_scales(receivers, rate_scale))
    ]
    publisher_options = {
        **common,
        "feedback_period": feedback_period,
        "interval": interval,
        "queue_limit": queue_limit,
        "no_batching": not batching,
        "expose": 0 if expose else None,
    }
    statuses, results, exposition = launch(
        outdir,
        receiver_options,
        publisher_options,
        wait=timeout,
        during=lambda fleet: _scrape(
            fleet.expose, fleet.publisher, timeout, outdir
        ),
    )
    for name, status in statuses.items():
        if status != 0:
            raise RuntimeError(f"{name} exited with status {status}")

    publisher = results["publisher"]
    receiver_results = [results[f"receiver{i}"] for i in range(receivers)]
    merged = write_merged([publisher, *receiver_results], outdir)
    run: Run = {
        "n": receivers,
        "faults": faults,
        "publisher": publisher,
        "receivers": receiver_results,
        "trace": merged["trace"],
        "flight": merged["flight"],
        "profile": (merged["profile"] or {}) if profile else None,
        "exposition": exposition,
    }
    checks = evaluate(run)
    summary = {
        "n": receivers,
        "messages": messages,
        "faults": faults,
        "aggregate_msgs_per_second": sum(
            float(r["msgs_per_second"]) for r in receiver_results
        ),
        # the result files without their obs dumps, which the merged
        # artifacts carry
        "publisher": without_obs(publisher),
        "receivers": [without_obs(r) for r in receiver_results],
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
                        help="one receiver: reset its connection after "
                        "the Nth delivery (0 disables)")
    parser.add_argument("--rate-scale", type=float, default=4.0,
                        help="one receiver: its emulated slowdown")
    parser.add_argument("--trigger-period", type=int, default=10)
    parser.add_argument("--feedback-period", type=int, default=8)
    parser.add_argument("--interval", type=float, default=0.005)
    parser.add_argument("--timeout", type=float, default=120.0)
    parser.add_argument("--outdir", type=Path,
                        default=Path("live-results"))
    parser.add_argument("--no-expose", action="store_true",
                        help="skip the live /metrics endpoints and the "
                        "quality accounting they expose")
    parser.add_argument("--no-batching", action="store_true",
                        help="keep the publisher's wire plain-framed "
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
    parser.add_argument("--fanout", type=int, default=1, metavar="N",
                        help="publish to N receiver processes with "
                        "heterogeneous loads (default 1)")
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

    # One receiver injects a connection drop; a fleet wedges receiver 1
    # behind a tight queue, so the wedge visibly sheds its backlog.
    fleet = args.fanout > 1
    summary, checks = run_experiment(
        receivers=max(args.fanout, 1),
        faults=(
            {1: {"wedge_after": args.wedge_after,
                 "wedge_seconds": args.wedge_seconds}}
            if fleet
            else {0: {"drop_after": args.drop_after}}
        ),
        messages=args.messages,
        samples=args.samples,
        rate_scale=args.rate_scale,
        trigger_period=(
            min(args.trigger_period, 5) if fleet else args.trigger_period
        ),
        feedback_period=args.feedback_period,
        interval=args.interval,
        timeout=args.timeout,
        expose=not args.no_expose,
        batching=not args.no_batching,
        queue_limit=args.queue_limit if fleet else None,
        profile=args.profile,
        profile_interval=args.profile_interval,
        outdir=args.outdir,
    )
    publisher = summary["publisher"]
    print(
        f"publisher: published {publisher['published']}, "
        f"shared runs {publisher['shared_runs']}, "
        f"forks {publisher['forks']}, "
        f"plans applied {publisher['plan_updates_applied']}"
    )
    for receiver in summary["receivers"]:
        print(
            f"{receiver['name']}: "
            f"demodulated {receiver['demodulated']}, "
            f"delivered {receiver['delivered']}, "
            f"{receiver['msgs_per_second']:.1f} msg/s, "
            f"plan ships {receiver['plan_ships']}, "
            f"drops {receiver['drops_injected']}, "
            f"wedges {receiver['wedges_injected']}"
        )
    print(
        f"aggregate: {summary['aggregate_msgs_per_second']:.1f} msg/s "
        f"across {summary['n']} receiver(s)"
    )
    failed = print_checks(checks)
    print(f"artifacts in {args.outdir}/")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
