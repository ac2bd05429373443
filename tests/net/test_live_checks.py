"""The live experiment's check table, on canned runs: no processes.

Each row of :data:`repro.tools.liveexp.CHECKS` reads a few fields of a
run.  Two canned runs — one receiver with a connection drop, /metrics
scrapes and profiles, and three receivers with one wedged — between
them make every row apply, and breaking the field a row reads must fail
that row and no other.
"""

from __future__ import annotations

import pytest

from repro.tools import liveexp
from repro.tools.liveexp import CHECKS, CONSERVATION, evaluate

MOVED = [[2, 26], [4, 5]]


def _subscriber(name, plan, **overrides):
    sub = {
        "name": name,
        "shipped": 120,
        "completed_locally": 0,
        "elided": 0,
        "ships_suppressed": 0,
        "plan_edges": plan,
        "telemetry_frames": 3,
        "transport": {
            "reconnects": 0,
            "connections": 1,
            "dropped_frames": 0,
            "telemetry_frames_seen": 3,
        },
    }
    sub.update(overrides)
    return sub


def _receiver(name, plan, demodulated=120, **overrides):
    receiver = {
        "name": name,
        "demodulated": demodulated,
        "delivered": demodulated,
        "plan_ships": 1,
        "final_plan_edges": plan,
        "drops_injected": 0,
        "wedges_injected": 0,
        "obs": {},
    }
    receiver.update(overrides)
    return receiver


def _spans(hosts, kinds=("modulate", "ship")):
    """One causal tree per receiver: publisher spans, then a demodulate."""
    spans = []
    for trace, host in enumerate(hosts):
        spans += [
            {"trace": trace, "host": "publisher", "name": k} for k in kinds
        ]
        spans.append({"trace": trace, "host": host, "name": "demodulate"})
    return {"spans": spans}


def one_receiver_run():
    sub = _subscriber("receiver0", MOVED)
    sub["transport"].update(reconnects=1, connections=2)
    return {
        "n": 1,
        "faults": {0: {"drop_after": 25}},
        "publisher": {
            "published": 120,
            "shared_runs": 120,
            "forks": 0,
            "plan_updates_applied": 1,
            "initial_plan_edges": [[1, 2]],
            "fleet": {"peers": {"receiver0": {"state": "healthy"}}},
            "subscribers": [sub],
        },
        "receivers": [_receiver("receiver0", MOVED, drops_injected=1)],
        "trace": _spans(["receiver0"]),
        "flight": {"events": []},
        "profile": {"hosts": ["publisher", "receiver0"], "samples": 40},
        "exposition": {
            "publisher": {
                "valid": True,
                "error": None,
                "series": {"broker_queue_depth": ["peer=receiver0"]},
            },
            "receiver0": {
                "valid": True,
                "error": None,
                "series": {
                    "quality_regret": ["pse=P3"],
                    "quality_drift_residual": ["channel=bytes"],
                },
            },
        },
    }


def wedged_fleet_run():
    plans = [[[2, 26], [16, 17]], [[2, 26], [14, 15]], [[2, 26], [19, 20]]]
    names = [f"receiver{i}" for i in range(3)]
    subs = [_subscriber(n, p) for n, p in zip(names, plans)]
    subs[1]["transport"]["dropped_frames"] = 53
    wedge = [("healthy", "degraded"), ("degraded", "wedged"),
             ("wedged", "recovering")]
    return {
        "n": 3,
        "faults": {1: {"wedge_after": 10, "wedge_seconds": 2.0}},
        "publisher": {
            "published": 120,
            "shared_runs": 120,
            "forks": 224,
            "plan_updates_applied": 3,
            "initial_plan_edges": [[1, 2]],
            "fleet": {
                "peers": {
                    "receiver0": {"state": "healthy"},
                    "receiver1": {
                        "state": "recovering",
                        "transitions": [
                            {"from": a, "to": b} for a, b in wedge
                        ],
                    },
                    "receiver2": {"state": "healthy"},
                }
            },
            "subscribers": subs,
        },
        "receivers": [
            _receiver("receiver0", plans[0]),
            _receiver("receiver1", plans[1], 73, wedges_injected=1),
            _receiver("receiver2", plans[2]),
        ],
        "trace": _spans(names, kinds=("modulate", "fork", "ship")),
        "flight": {
            "events": [
                {"kind": "fault.wedge"},
                {"kind": "net.shed"},
                {"kind": "health.transition", "to": "wedged",
                 "peer": "receiver1"},
            ]
        },
        "profile": None,
        "exposition": {},
    }


RUNS = {"one": one_receiver_run, "fleet": wedged_fleet_run}


def _set_plans(run, plan):
    subs = run["publisher"]["subscribers"]
    for sub, receiver in zip(subs, run["receivers"]):
        sub["plan_edges"] = receiver["final_plan_edges"] = plan


def _drop_host(run, host):
    run["trace"]["spans"] = [
        s for s in run["trace"]["spans"] if s["host"] != host
    ]


def _split_traces(run):
    for span in run["trace"]["spans"]:
        if span["host"] != "publisher":
            span["trace"] = 99


def _drop_kind(run, kind):
    run["trace"]["spans"] = [
        s for s in run["trace"]["spans"] if s["name"] != kind
    ]


#: row name → (canned run, how to break the field the row reads)
BREAKS = {
    "every subscriber got traffic": (
        "fleet", lambda r: r["receivers"][1].update(demodulated=0, delivered=0)
    ),
    "every publish accounted for": (
        "fleet", lambda r: r["publisher"]["subscribers"][2].update(elided=1)
    ),
    "deliveries complete": (
        "one", lambda r: r["receivers"][0].update(delivered=119)
    ),
    "plan shipped over TCP and applied": (
        "one", lambda r: r["publisher"].update(plan_updates_applied=0)
    ),
    "plan actually moved": (
        "one", lambda r: r["publisher"].update(initial_plan_edges=MOVED)
    ),
    "publisher and live receivers agree on final plans": (
        "one", lambda r: r["receivers"][0].update(final_plan_edges=[[1, 2]])
    ),
    "modulation shared once per message": (
        "one", lambda r: r["publisher"].update(shared_runs=119)
    ),
    "per-peer plans diverged": ("fleet", lambda r: _set_plans(r, MOVED)),
    "drop injected": (
        "one", lambda r: r["receivers"][0].update(drops_injected=0)
    ),
    "publisher reconnected": (
        "one",
        lambda r: r["publisher"]["subscribers"][0]["transport"].update(
            reconnects=0
        ),
    ),
    "deliveries resumed after drop": (
        "one", lambda r: r["faults"][0].update(drop_after=500)
    ),
    "wedge injected": (
        "fleet", lambda r: r["receivers"][1].update(wedges_injected=0)
    ),
    "wedged peer backlog shed (drop-oldest)": (
        "fleet",
        lambda r: r["publisher"]["subscribers"][1]["transport"].update(
            dropped_frames=0
        ),
    ),
    "live peers unaffected by the wedge": (
        "fleet",
        lambda r: r["receivers"][2].update(demodulated=90, delivered=90),
    ),
    "publisher observed the wedge": (
        "fleet",
        lambda r: r["publisher"]["fleet"]["peers"]["receiver1"].update(
            state="wedged"
        ),
    ),
    "live peers end healthy": (
        "fleet",
        lambda r: r["publisher"]["fleet"]["peers"]["receiver0"].update(
            state="degraded"
        ),
    ),
    "flight recorder captured the wedge": (
        "fleet", lambda r: r["flight"]["events"].pop(1)
    ),
    "merged trace has every host": (
        "fleet", lambda r: _drop_host(r, "receiver2")
    ),
    "cross-process causal trees": ("one", _split_traces),
    "span kinds present": ("one", lambda r: _drop_kind(r, "ship")),
    "telemetry pushed per peer": (
        "one",
        lambda r: r["publisher"]["subscribers"][0].update(telemetry_frames=0),
    ),
    "profiles captured on every host": (
        "one", lambda r: r["profile"].update(hosts=["publisher"])
    ),
    "exposition scraped & valid": (
        "one",
        lambda r: r["exposition"]["publisher"].update(
            valid=False, error="refused"
        ),
    ),
    "regret series exposed": (
        "one",
        lambda r: r["exposition"]["receiver0"]["series"].pop("quality_regret"),
    ),
    "drift residual exposed": (
        "one",
        lambda r: r["exposition"]["receiver0"]["series"].pop(
            "quality_drift_residual"
        ),
    ),
    "per-peer publisher metrics exposed": (
        "one", lambda r: r["exposition"]["publisher"].update(series={})
    ),
}


def _failed(run):
    return {name for name, passed, _ in evaluate(run) if not passed}


def test_canned_runs_pass_and_cover_every_row():
    evaluated = set()
    for make in RUNS.values():
        outcomes = evaluate(make())
        assert all(passed for _, passed, _ in outcomes), outcomes
        evaluated |= {name for name, _, _ in outcomes}
    assert evaluated == {check.name for check in CHECKS}
    assert set(BREAKS) == evaluated


@pytest.mark.parametrize("name", sorted(BREAKS))
def test_breaking_a_field_fails_exactly_its_row(name):
    which, mutate = BREAKS[name]
    run = RUNS[which]()
    mutate(run)
    assert _failed(run) == {name}


@pytest.mark.parametrize("index", range(3))
def test_a_receiver_that_exits_nonzero_fails_the_run(
    index, tmp_path, monkeypatch
):
    # A shape the generated code cannot run is refused when the
    # receiver builds it, so that receiver exits nonzero: the run fails
    # before any row is judged, whichever receiver it was.
    def launch(outdir, receivers, publisher, **_):
        statuses = {"publisher": 0}
        statuses.update(
            (f"receiver{i}", int(i == index)) for i in range(len(receivers))
        )
        return statuses, {}, None

    monkeypatch.setattr(liveexp, "launch", launch)
    with pytest.raises(
        RuntimeError, match=f"receiver{index} exited with status 1"
    ):
        liveexp.run_experiment(receivers=3, outdir=tmp_path)


@pytest.mark.parametrize("index", range(3))
@pytest.mark.parametrize(
    "part", ["shipped", "completed_locally", "elided", "ships_suppressed"]
)
def test_conservation_holds_on_every_subscriber(index, part):
    run = wedged_fleet_run()
    assert CONSERVATION.predicate(run)[0]
    run["publisher"]["subscribers"][index][part] += 1
    passed, detail = CONSERVATION.predicate(run)
    assert not passed
    assert f"receiver{index}: 120 = " in detail
