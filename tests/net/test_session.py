"""The per-peer session on an injected clock: no sockets, no sleeps.

One test per rule on which the sender endpoint and the broker used to
disagree, plus PLAN ordering and message conservation across a whole
trip → retract → re-split cycle.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.core.plan import PartitioningPlan
from repro.core.runtime.profiling import FeedbackSummary
from repro.jecho.events import FeedbackEnvelope, PlanEnvelope
from repro.net.framing import Telemetry
from repro.net.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerConfig,
)
from repro.net.session import CalibratedRate, PeerSession
from repro.obs.health import DEGRADED, HEALTHY, HealthMonitor

from tests.net.test_resilience import FakeClock

PLAN_A = PartitioningPlan(active=frozenset({(1, 2)}), name="a")
PLAN_B = PartitioningPlan(active=frozenset({(3, 4)}), name="b")
PLAN_C = PartitioningPlan(active=frozenset({(5, 6)}), name="c")
RETRACTED = PartitioningPlan(active=frozenset(), name="sender-heavy")
SUMMARY = FeedbackSummary(0.3, 0, 1, 0, (0, 0.0, 0.0), [5.0], ())


class FakePeer:
    """The transport state a session reads, settable by the test."""

    name = "p"

    def __init__(self) -> None:
        self.connected = True
        self.last_heard = None
        self.last_rtt = None
        self.dropped_frames = 0
        self.send_timeouts = 0
        self.queued = 0


def make_session(**breaker_kwargs):
    clock = FakeClock()
    peer = FakePeer()
    sent, applied = [], []
    session = PeerSession(
        "p",
        peer,
        1,
        PLAN_A,
        SimpleNamespace(flush=lambda: (SUMMARY, 115.0)),
        send=lambda envelope, size: sent.append((envelope, size)),
        monitor=HealthMonitor(clock=clock),
        rate=CalibratedRate(None, 1e-7, None),
        retraction_plan=RETRACTED,
        apply_plan=applied.append,
        breaker_config=BreakerConfig(**breaker_kwargs),
        clock=clock,
    )
    return session, peer, clock, sent, applied


def plan_frame(version: int, plan: PartitioningPlan) -> PlanEnvelope:
    return PlanEnvelope(subscription_id=1, plan=plan, version=version)


def telemetry(seq: int, **payload) -> Telemetry:
    return Telemetry(source="r", seq=seq, sent_at=0.0, payload=payload)


# -- the five reconciled rules ----------------------------------------------------


def test_equal_version_deferred_plan_keeps_the_parked_one():
    session, _peer, _clock, _sent, _applied = make_session()
    session.breaker.trip("test")
    session.on_plan(plan_frame(3, PLAN_B))
    session.on_plan(plan_frame(3, PLAN_C))
    assert session.pending_plan.plan is PLAN_B
    assert session.plans_deferred == 2


def test_send_timeouts_feed_the_breaker():
    session, peer, _clock, _sent, _applied = make_session(failure_threshold=3)
    peer.send_timeouts = 2
    session.resilience_tick()
    assert session.breaker.failure_streak == 2
    session.resilience_tick()  # no new timeouts: nothing is fed twice
    assert session.breaker.state == BREAKER_CLOSED
    peer.send_timeouts = 3
    session.resilience_tick()
    assert session.breaker.state == BREAKER_OPEN
    assert session.retracted


def test_open_breaker_advances_to_half_open_on_the_tick():
    session, peer, clock, _sent, _applied = make_session(
        probe_backoff_base=0.5
    )
    session.breaker.trip("test")
    session.resilience_tick()
    assert session.breaker.state == BREAKER_OPEN
    clock.advance(0.6)
    session.resilience_tick()  # no publish consulted allow() in between
    assert session.breaker.state == BREAKER_HALF_OPEN
    # a connected peer heard from recently is a probe success
    peer.last_heard = clock.now
    session.resilience_tick()
    session.resilience_tick()
    assert session.breaker.state == BREAKER_CLOSED
    assert not session.retracted and session.resplits == 1


def test_rewound_drift_counter_rebases():
    session, _peer, _clock, _sent, _applied = make_session()
    session.ingest_telemetry(telemetry(1, drift_events=5))
    assert session.health.drift_total == 5
    # the receiver restarted: its counter begins again below the old mark
    session.ingest_telemetry(telemetry(1, drift_events=1))
    assert session.health.drift_total == 5
    session.ingest_telemetry(telemetry(2, drift_events=3))
    assert session.health.drift_total == 7  # not deaf until 5 is passed
    assert session.telemetry_frames == 3
    assert session.last_telemetry["seq"] == 2


def test_retraction_drains_the_queue_before_the_swap():
    session, peer, clock, _sent, applied = make_session(drain_timeout=1.0)
    peer.queued = 4  # frames encoded toward the old split
    session.breaker.trip("test")
    assert session.retracting and not session.retracted
    assert session.plan is PLAN_A and applied == []
    assert not session.admits()  # absorbed meanwhile, nothing lost
    session.on_plan(plan_frame(2, PLAN_B))  # deferred from the trip on
    assert session.plans_deferred == 1
    clock.advance(0.5)
    session.resilience_tick()
    assert session.retracting
    peer.queued = 0
    session.resilience_tick()
    assert session.retracted and not session.retracting
    assert session.plan is RETRACTED and applied == [RETRACTED]
    assert session.saved_plan is PLAN_A
    assert session.retractions == 1


def test_retraction_swaps_anyway_at_the_drain_timeout():
    session, peer, clock, _sent, applied = make_session(
        drain_timeout=1.0, probe_backoff_base=8.0
    )
    peer.queued = 4
    session.breaker.trip("test")
    clock.advance(1.0)
    session.resilience_tick()
    assert session.retracted and applied == [RETRACTED]


def test_retraction_with_an_empty_queue_completes_in_the_same_call():
    session, _peer, _clock, _sent, applied = make_session()
    session.breaker.trip("test")
    assert session.retracted and applied == [RETRACTED]
    assert session.rate.stale


def test_breaker_closing_before_the_swap_changes_nothing():
    session, peer, clock, _sent, applied = make_session(
        success_threshold=1, probe_backoff_base=0.25
    )
    peer.queued = 4
    session.breaker.trip("test")
    clock.advance(0.3)
    peer.last_heard = clock.now
    session.resilience_tick()  # half-open, probe succeeds, closed
    assert session.breaker.state == BREAKER_CLOSED
    assert not session.retracting and not session.retracted
    assert session.plan is PLAN_A and applied == []
    assert session.retractions == 0 and session.resplits == 0


def test_wedged_health_trips_and_a_retired_peer_does_not():
    session, peer, clock, _sent, _applied = make_session()
    session.feed_health()
    assert session.health.state == HEALTHY
    clock.advance(2.0)  # silence past stale_wedged
    session.feed_health()
    assert session.breaker.state == BREAKER_OPEN and session.retracted

    retired, peer, clock, _sent, _applied = make_session()
    retired.bye_sent = True
    peer.connected = False
    clock.advance(2.0)
    retired.feed_health()
    assert retired.health.forced_reason == "retired (bye delivered)"
    assert retired.health.state == HEALTHY
    assert retired.breaker.state == BREAKER_CLOSED


def test_disconnected_peer_degrades():
    session, peer, clock, _sent, _applied = make_session()
    peer.connected = False
    clock.advance(0.2)
    session.feed_health()
    assert session.health.state == DEGRADED


# -- PLAN ordering ----------------------------------------------------------------


def test_plan_duplicate_defer_and_apply_on_resplit():
    session, peer, clock, _sent, applied = make_session(success_threshold=1)
    session.on_plan(plan_frame(2, PLAN_B))
    session.on_plan(plan_frame(2, PLAN_B))  # duplicate
    session.on_plan(plan_frame(1, PLAN_C))  # stale, reordered
    assert applied == [PLAN_B]
    assert session.plan_updates_applied == 1
    assert session.plan_duplicates_ignored == 2
    assert session.rate.stale

    session.breaker.trip("test")
    session.on_plan(plan_frame(3, PLAN_A))
    session.on_plan(plan_frame(5, PLAN_C))
    session.on_plan(plan_frame(4, PLAN_A))  # cannot displace the newer
    assert session.plans_deferred == 3
    assert session.pending_plan.version == 5
    assert applied == [PLAN_B, RETRACTED]
    assert session.plan_updates_applied == 1

    clock.advance(60.0)
    peer.last_heard = clock.now
    session.resilience_tick()
    assert session.breaker.state == BREAKER_CLOSED
    # the deferred plan wins over the saved pre-trip one, and counts
    assert applied == [PLAN_B, RETRACTED, PLAN_C]
    assert session.plan is PLAN_C and session.plan_version_applied == 5
    assert session.plan_updates_applied == 2
    assert session.pending_plan is None and session.saved_plan is None
    assert session.resplits == 1
    session.on_plan(plan_frame(5, PLAN_C))
    assert session.plan_duplicates_ignored == 3


def test_resplit_restores_the_saved_plan_when_nothing_newer_was_deferred():
    session, peer, clock, _sent, applied = make_session(success_threshold=1)
    session.on_plan(plan_frame(7, PLAN_B))
    session.breaker.trip("test")
    clock.advance(60.0)
    peer.last_heard = clock.now
    session.resilience_tick()
    assert applied == [PLAN_B, RETRACTED, PLAN_B]
    assert session.plan_version_applied == 7
    assert session.plan_updates_applied == 1


def test_session_without_a_breaker_applies_and_never_retracts():
    clock = FakeClock()
    applied = []
    session = PeerSession(
        "p",
        FakePeer(),
        1,
        PLAN_A,
        None,
        send=None,
        monitor=HealthMonitor(clock=clock),
        rate=CalibratedRate(None, None, None),
        retraction_plan=RETRACTED,
        apply_plan=applied.append,
        clock=clock,
    )
    clock.advance(5.0)
    session.feed_health()
    session.resilience_tick()
    assert session.admits() and not session.retracted
    session.on_plan(plan_frame(1, PLAN_B))
    session.on_plan(plan_frame(2, PLAN_A))
    assert applied == [PLAN_B, PLAN_A]
    assert not session.rate.stale  # raw wall clock needs no refresh


def test_flush_feedback_sends_one_frame():
    session, _peer, _clock, sent, _applied = make_session()
    session.flush_feedback()
    (envelope, size), = sent
    assert isinstance(envelope, FeedbackEnvelope)
    assert envelope.subscription_id == 1
    assert envelope.demod_stats is SUMMARY and size == 115.0
    assert session.feedback_flushes == 1


# -- conservation on the one publish path ----------------------------------------


class FakeTransport:
    inbound_handler = None

    def __init__(self) -> None:
        self.sent = []

    def peer(self, host, port, *, name=None, queue_limit=None):
        peer = FakePeer()
        peer.name = name
        return peer

    def send(self, peer, envelope, size) -> None:
        self.sent.append((peer, envelope))


def _sender(partitioned, transport, **kwargs):
    from repro.net.endpoint import NetSenderEndpoint

    return NetSenderEndpoint(partitioned, transport, FakePeer(), **kwargs)


def _two_subscriber_broker(partitioned, transport, **kwargs):
    """A second, deeper subscriber: its continuations fork."""
    from repro.core.plan import sender_heavy_plan
    from repro.net.broker import NetBrokerEndpoint

    broker = NetBrokerEndpoint(partitioned, transport, **kwargs)
    broker.subscribe("h", 1, name="tripped")
    broker.subscribe(
        "h", 2, name="deep", plan=sender_heavy_plan(partitioned.cut)
    )
    return broker


@pytest.mark.parametrize(
    "make_publisher",
    [_sender, _two_subscriber_broker],
    ids=["sender", "broker2"],
)
def test_conservation_across_trip_retract_resplit(make_publisher):
    from repro.apps.sensor.data import make_reading
    from repro.apps.sensor.pipeline import build_partitioned_process
    from repro.core.plan import receiver_heavy_plan
    from repro.jecho.events import ContinuationEnvelope

    partitioned, _sink = build_partitioned_process(n_stages=6)
    transport, clock = FakeTransport(), FakeClock()
    publisher = make_publisher(
        partitioned,
        transport,
        plan=receiver_heavy_plan(partitioned.cut),
        rate_override=1e-7,
        recalibrate=lambda: 1e-7,
        breaker_config=BreakerConfig(probe_backoff_base=0.5),
    )
    sessions = publisher.subscribers
    for sub in sessions:
        sub.clock = clock
    session = sessions[0]
    split = session.plan_edges

    def publish(n):
        for i in range(n):
            publisher.publish(make_reading(i, 8))
            for sub in sessions:
                assert publisher.published == (
                    sub.shipped
                    + sub.completed_locally
                    + sub.elided
                    + sub.ships_suppressed
                )

    def shipped(sub):
        return sum(
            peer is sub.peer and isinstance(e, ContinuationEnvelope)
            for peer, e in transport.sent
        )

    publish(5)
    assert session.shipped == shipped(session) == 5
    with publisher.lock:
        session.breaker.trip("test")
    assert session.retracted and session.plan_edges == ()
    publish(5)
    assert session.absorbed == 5 and shipped(session) == 5
    clock.advance(1.0)
    session.peer.last_heard = clock.now
    publish(3)  # the first ships as the probe, the second's tick closes
    assert session.breaker.state == BREAKER_CLOSED
    assert not session.retracted and session.resplits == 1
    assert session.plan_edges == split
    publish(5)
    assert publisher.published == 18
    for sub in sessions:
        assert sub.shipped == shipped(sub)
    assert session.completed_locally == session.absorbed
    assert publisher.retractions == 1
