"""Circuit breaker, bulkhead, and sender-side retraction semantics."""

from __future__ import annotations

import pytest

from repro.net.resilience import (
    BREAKER_CLOSED,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BreakerConfig,
    Bulkhead,
    CircuitBreaker,
)


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_breaker(**kwargs) -> tuple:
    clock = FakeClock()
    breaker = CircuitBreaker(
        "peer", BreakerConfig(**kwargs), clock=clock
    )
    return breaker, clock


# -- config validation ----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"failure_threshold": 0},
        {"probe_backoff_base": 0.0},
        {"probe_backoff_base": 2.0, "probe_backoff_cap": 1.0},
        {"probe_budget": 0},
        {"success_threshold": 0},
        {"bulkhead_limit": 0},
        {"drain_timeout": -1.0},
    ],
)
def test_breaker_config_rejects_invalid(kwargs):
    with pytest.raises(ValueError):
        BreakerConfig(**kwargs)


# -- closed -> open -------------------------------------------------------------


def test_failure_streak_trips_at_threshold():
    breaker, _ = make_breaker(failure_threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED
    breaker.record_failure()
    assert breaker.state == BREAKER_OPEN
    assert breaker.trips == 1


def test_success_resets_the_failure_streak():
    breaker, _ = make_breaker(failure_threshold=3)
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_success()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == BREAKER_CLOSED
    assert breaker.failure_streak == 2


def test_trip_while_open_is_idempotent():
    breaker, _ = make_breaker()
    breaker.trip("first")
    breaker.trip("second")
    assert breaker.trips == 1
    assert len(breaker.transitions) == 1


# -- open -> half-open probing --------------------------------------------------


def test_open_refuses_work_until_backoff_elapses():
    breaker, clock = make_breaker(probe_backoff_base=0.5)
    breaker.trip("wedged")
    assert not breaker.allow()
    clock.advance(0.49)
    assert not breaker.allow()
    clock.advance(0.02)
    assert breaker.allow()  # this call IS the half-open transition
    assert breaker.state == BREAKER_HALF_OPEN
    assert breaker.probes == 1


def test_half_open_probe_budget_bounds_admissions():
    breaker, clock = make_breaker(probe_backoff_base=0.1, probe_budget=2)
    breaker.trip("wedged")
    clock.advance(1.0)
    assert breaker.allow()  # probe 1 (the transition)
    assert breaker.allow()  # probe 2
    assert not breaker.allow()  # budget exhausted
    assert breaker.probes == 2


def test_probe_failure_reopens_with_doubled_backoff():
    breaker, clock = make_breaker(
        probe_backoff_base=0.25, probe_backoff_cap=8.0
    )
    breaker.trip("wedged")
    assert breaker.probe_backoff() == pytest.approx(0.25)
    clock.advance(1.0)
    assert breaker.allow()
    breaker.record_failure("probe bounced")
    assert breaker.state == BREAKER_OPEN
    assert breaker.reopens == 1
    assert breaker.probe_backoff() == pytest.approx(0.5)
    # and again: the exponent keeps climbing
    clock.advance(1.0)
    assert breaker.allow()
    breaker.record_failure("probe bounced")
    assert breaker.probe_backoff() == pytest.approx(1.0)


def test_probe_backoff_is_capped():
    breaker, clock = make_breaker(
        probe_backoff_base=0.25, probe_backoff_cap=1.0
    )
    for _ in range(6):
        breaker.trip("again")
        clock.advance(10.0)
        assert breaker.allow()
        breaker.record_failure()
    assert breaker.probe_backoff() == pytest.approx(1.0)


# -- half-open -> closed --------------------------------------------------------


def test_success_threshold_closes_and_resets_backoff():
    breaker, clock = make_breaker(
        probe_backoff_base=0.25, probe_budget=4, success_threshold=2
    )
    breaker.trip("wedged")
    clock.advance(1.0)
    assert breaker.allow()
    breaker.record_success()
    assert breaker.state == BREAKER_HALF_OPEN
    breaker.record_success()
    assert breaker.state == BREAKER_CLOSED
    assert breaker.closes == 1
    assert breaker.open_count == 0
    # after closing, a fresh trip starts from the base backoff again
    breaker.trip("later")
    assert breaker.probe_backoff() == pytest.approx(0.25)


def test_transition_records_carry_peer_and_reason():
    seen = []
    clock = FakeClock()
    breaker = CircuitBreaker(
        "sub-3",
        BreakerConfig(),
        clock=clock,
        on_transition=lambda b, record: seen.append(record),
    )
    breaker.trip("health wedged")
    assert seen[0]["peer"] == "sub-3"
    assert seen[0]["from"] == BREAKER_CLOSED
    assert seen[0]["to"] == BREAKER_OPEN
    assert "wedged" in seen[0]["reason"]
    dump = breaker.to_dict()
    assert dump["state"] == BREAKER_OPEN
    assert dump["state_code"] == 2
    assert dump["transitions"] == seen


# -- bulkhead -------------------------------------------------------------------


def test_bulkhead_permit_pair():
    bulkhead = Bulkhead(limit=2)
    assert bulkhead.try_acquire()
    assert bulkhead.try_acquire()
    assert not bulkhead.try_acquire()
    assert bulkhead.rejected == 1
    bulkhead.release()
    assert bulkhead.try_acquire()
    assert bulkhead.peak_in_flight == 2


def test_bulkhead_admit_mirrors_observed_depth():
    bulkhead = Bulkhead(limit=4)
    assert bulkhead.admit(3)
    assert not bulkhead.admit(4)
    assert bulkhead.rejected == 1
    assert bulkhead.peak_in_flight == 4
    assert bulkhead.admit(0)


def test_bulkhead_rejects_invalid_limit():
    with pytest.raises(ValueError):
        Bulkhead(limit=0)


# -- sender endpoint: absorb, retract, defer, re-split --------------------------


@pytest.fixture
def wired_sender():
    from repro.apps.sensor.pipeline import build_partitioned_process
    from repro.core.plan import receiver_heavy_plan
    from repro.net.endpoint import NetSenderEndpoint
    from repro.net.framing import NetEnvelopeCodec
    from repro.net.tcp import TcpTransport

    partitioned, _sink = build_partitioned_process(n_stages=6)
    transport = TcpTransport(
        NetEnvelopeCodec(partitioned.serializer_registry),
        backoff_base=0.05,
        backoff_cap=0.2,
    ).start()
    peer = transport.peer("127.0.0.1", 1)  # nobody listens here
    sender = NetSenderEndpoint(
        partitioned,
        transport,
        peer,
        plan=receiver_heavy_plan(partitioned.cut),
        rate_override=1e-7,
        breaker_config=BreakerConfig(success_threshold=1),
    )
    clock = FakeClock()
    sender.session.clock = clock
    try:
        yield partitioned, sender, peer, clock
    finally:
        transport.close()


def test_open_breaker_absorbs_publishes_locally(wired_sender):
    from repro.apps.sensor.data import make_reading

    partitioned, sender, peer, clock = wired_sender
    with sender.lock:
        sender.session.breaker.trip("test")
    assert sender.session.retracted
    assert sender.retractions == 1
    for i in range(5):
        sender.publish(make_reading(i, 8))
    assert sender.absorbed == 5
    assert sender.session.shipped == 0
    # conservation: nothing lost, everything completed somewhere
    assert sender.published == sender.session.shipped + sender.session.completed_locally


def test_plans_deferred_while_retracted_newest_wins(wired_sender):
    from repro.core.plan import receiver_heavy_plan, sender_heavy_plan
    from repro.jecho.events import PlanEnvelope

    partitioned, sender, peer, clock = wired_sender
    plan_recv = receiver_heavy_plan(partitioned.cut)
    plan_none = sender_heavy_plan(partitioned.cut)
    with sender.lock:
        sender.session.breaker.trip("test")
    sender._on_inbound(
        PlanEnvelope(subscription_id=1, plan=plan_recv, version=3), peer
    )
    sender._on_inbound(
        PlanEnvelope(subscription_id=1, plan=plan_none, version=5), peer
    )
    sender._on_inbound(
        PlanEnvelope(subscription_id=1, plan=plan_recv, version=4), peer
    )
    assert sender.session.plans_deferred == 3
    assert sender.session.pending_plan is not None
    assert sender.session.pending_plan.version == 5
    assert sender.plan_updates_applied == 0

    # closing the breaker re-splits onto the deferred (newest) plan
    clock.advance(60.0)
    with sender.lock:
        assert sender.session.breaker.allow()
        sender.session.breaker.record_success()
    assert not sender.session.retracted
    assert sender.session.resplits == 1
    assert sender.session.plan_version_applied == 5
    assert sender.session.pending_plan is None


def test_resplit_restores_saved_plan_when_nothing_deferred(wired_sender):
    partitioned, sender, peer, clock = wired_sender
    before = sender.session.plan
    with sender.lock:
        sender.session.breaker.trip("test")
    assert sender.session.plan.active != before.active  # sender-heavy now
    clock.advance(60.0)
    with sender.lock:
        assert sender.session.breaker.allow()
        sender.session.breaker.record_success()
    assert sender.session.plan is before
    assert sender.plan_updates_applied == 0  # restored, not re-applied
    assert not sender.session.retracted


def test_resilience_dump_shape(wired_sender):
    partitioned, sender, peer, clock = wired_sender
    dump = sender.session.resilience_dump()
    assert dump["breaker"]["state"] == BREAKER_CLOSED
    assert dump["retracted"] is False
    assert set(dump) >= {
        "breaker",
        "absorbed",
        "retracted",
        "retractions",
        "resplits",
        "plans_deferred",
    }
