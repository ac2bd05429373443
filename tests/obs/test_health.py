"""Per-peer health state machine: transitions, hysteresis, emission."""

import pytest

from repro.obs import Observability
from repro.obs.health import (
    DEGRADED,
    HEALTHY,
    RECOVERING,
    STATE_CODES,
    WEDGED,
    HealthConfig,
    HealthMonitor,
    PeerHealth,
)


class Clock:
    """Settable monotonic clock shared by peer and test."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds
        return self.now


@pytest.fixture()
def clock():
    return Clock()


def make_peer(clock, **overrides):
    return PeerHealth("r0", HealthConfig(**overrides), clock=clock)


class TestConfig:
    def test_rejects_bad_hysteresis(self):
        with pytest.raises(ValueError):
            HealthConfig(hysteresis=0.0)
        with pytest.raises(ValueError):
            HealthConfig(hysteresis=1.5)

    def test_rejects_inverted_staleness_thresholds(self):
        with pytest.raises(ValueError):
            HealthConfig(stale_degraded=2.0, stale_wedged=1.0)


class TestStaleness:
    def test_silence_degrades_then_wedges(self, clock):
        ph = make_peer(clock)
        assert ph.state == HEALTHY
        clock.advance(1.1)  # past stale_degraded=1.0
        rec = ph.evaluate()
        assert ph.state == DEGRADED
        assert "stale" in rec["reason"]
        clock.advance(0.5)  # total silence 1.6 > stale_wedged=1.5
        ph.evaluate()
        assert ph.state == WEDGED

    def test_wedged_exits_only_through_recovering(self, clock):
        ph = make_peer(clock)
        clock.advance(1.1)
        ph.evaluate()
        assert ph.state == DEGRADED
        clock.advance(0.9)
        ph.evaluate()
        assert ph.state == WEDGED
        # Fresh signal + connected: recovering, never straight to healthy.
        clock.advance(0.2)
        ph.note_signal()
        rec = ph.evaluate()
        assert ph.state == RECOVERING
        assert "signal" in rec["reason"]
        # The clean dwell (0.75s) starts at the first clean evaluation
        # and must elapse across later ones before the peer is healthy.
        for _ in range(3):
            clock.advance(0.4)
            ph.note_signal()
            ph.evaluate()
        assert ph.state == HEALTHY
        assert [t["to"] for t in ph.transitions] == [
            DEGRADED,
            WEDGED,
            RECOVERING,
            HEALTHY,
        ]

    def test_wedged_stays_wedged_while_disconnected(self, clock):
        ph = make_peer(clock)
        clock.advance(2.0)
        ph.evaluate()
        ph.note_connected(False)
        clock.advance(0.2)
        ph.note_signal()
        ph.evaluate()
        assert ph.state == WEDGED


class TestDwellAndForce:
    def test_min_dwell_guards_rapid_reevaluation(self, clock):
        ph = make_peer(clock)
        clock.advance(1.1)
        ph.evaluate()
        assert ph.state == DEGRADED
        # Within min_dwell (0.1s) of the transition nothing moves.
        clock.advance(0.05)
        assert ph.evaluate() is None
        assert ph.state == DEGRADED

    def test_force_pins_until_released(self, clock):
        ph = make_peer(clock)
        ph.force(WEDGED, "injected wedge")
        assert ph.state == WEDGED
        assert ph.forced_reason == "injected wedge"
        # Fresh signals cannot move a pinned peer.
        clock.advance(0.5)
        ph.note_signal()
        assert ph.evaluate() is None
        assert ph.state == WEDGED
        # Releasing resumes normal operation: wedged exits via recovering.
        ph.force(None)
        clock.advance(0.2)
        ph.note_signal()
        ph.evaluate()
        assert ph.state == RECOVERING

    def test_force_rejects_unknown_state(self, clock):
        ph = make_peer(clock)
        with pytest.raises(ValueError):
            ph.force("zombie")


class TestHysteresis:
    def test_noisy_rtt_does_not_flap(self, clock):
        """EWMA hovering between exit and enter thresholds: one transition."""
        ph = make_peer(clock)
        # Drive the EWMA over the 0.25s enter threshold.
        for _ in range(10):
            clock.advance(0.05)
            ph.note_rtt(0.4)
        ph.evaluate()
        assert ph.state == DEGRADED
        assert len(ph.transitions) == 1
        # Noisy samples keeping the EWMA between the exit threshold
        # (0.25 * 0.7 = 0.175) and the enter threshold: still degraded,
        # and crucially still only one transition.
        for rtt in (0.18, 0.22, 0.19, 0.24, 0.20, 0.23) * 3:
            clock.advance(0.11)
            ph.note_rtt(rtt)
            ph.evaluate()
        assert ph.state == DEGRADED
        assert len(ph.transitions) == 1
        # Sustained low RTT drags the EWMA under the exit threshold;
        # the clean dwell then restores healthy.
        for _ in range(20):
            clock.advance(0.11)
            ph.note_rtt(0.02)
            ph.evaluate()
        assert ph.state == HEALTHY
        assert [t["to"] for t in ph.transitions] == [DEGRADED, HEALTHY]

    def test_recovery_requires_full_dwell(self, clock):
        ph = make_peer(clock)
        for _ in range(10):
            clock.advance(0.05)
            ph.note_rtt(0.4)
        ph.evaluate()
        assert ph.state == DEGRADED
        # Clean for a while, but a relapse resets the dwell.
        for _ in range(5):
            clock.advance(0.11)
            ph.note_rtt(0.01)
            ph.evaluate()
        assert ph.state == DEGRADED  # dwell (0.75s) not yet elapsed
        clock.advance(0.11)
        ph.note_rtt(2.0)  # relapse spikes the EWMA again
        ph.evaluate()
        for _ in range(6):
            clock.advance(0.11)
            ph.note_rtt(0.01)
            ph.evaluate()
        # Six clean ticks after the relapse is < dwell again.
        assert ph.state == DEGRADED
        assert len(ph.transitions) == 1


class TestOtherSignals:
    def test_shed_rate_trips_degraded(self, clock):
        ph = make_peer(clock)
        ph.note_sheds(0)
        clock.advance(1.0)
        ph.note_signal()
        ph.note_sheds(50)  # 50 frames over 1s > 20/s threshold
        ph.evaluate()
        assert ph.state == DEGRADED
        assert ph.shed_rate == pytest.approx(50.0)

    def test_drift_burst_trips_degraded(self, clock):
        ph = make_peer(clock)
        clock.advance(0.2)
        ph.note_signal()
        ph.note_drift(3)  # drift_burst=3 within drift_window
        ph.evaluate()
        assert ph.state == DEGRADED
        assert "drift burst" in ph.transitions[-1]["reason"]

    def test_disconnect_trips_degraded(self, clock):
        ph = make_peer(clock)
        clock.advance(0.2)
        ph.note_signal()
        ph.note_connected(False)
        ph.evaluate()
        assert ph.state == DEGRADED
        assert "disconnected" in ph.transitions[-1]["reason"]

    def test_telemetry_counts_and_refreshes_signal(self, clock):
        ph = make_peer(clock)
        clock.advance(1.2)
        ph.note_telemetry()
        ph.evaluate()
        assert ph.state == HEALTHY
        assert ph.telemetry_frames == 1
        assert ph.staleness() == 0.0

    def test_to_dict_shape(self, clock):
        ph = make_peer(clock)
        data = ph.to_dict()
        assert data["name"] == "r0"
        assert data["state"] == HEALTHY
        assert data["state_code"] == STATE_CODES[HEALTHY]
        assert data["transitions"] == []


class TestHealthMonitor:
    def test_peer_is_memoized_and_overall_is_worst(self, clock):
        mon = HealthMonitor(clock=clock)
        a = mon.peer("a")
        assert mon.peer("a") is a
        mon.peer("b").force(DEGRADED, "test")
        mon.peer("c").force(WEDGED, "test")
        assert mon.overall() == WEDGED
        assert set(mon.to_dict()["peers"]) == {"a", "b", "c"}

    def test_evaluate_all_collects_transitions(self, clock):
        mon = HealthMonitor(clock=clock)
        mon.peer("a")
        mon.peer("b")
        clock.advance(1.1)
        recs = mon.evaluate_all()
        assert sorted(r["peer"] for r in recs) == ["a", "b"]
        assert all(r["to"] == DEGRADED for r in recs)

    def test_transitions_emit_metrics_span_and_flight(self, clock):
        obs = Observability(host="test")
        obs.enable_tracing(sampling_rate=0.5, host="test")
        mon = HealthMonitor(obs=obs, clock=clock)
        ph = mon.peer("r1")
        # Registration seeds the gauge at healthy.
        gauges = obs.metrics.to_dict()["gauges"]
        assert gauges['health.state{peer="r1"}'] == STATE_CODES[HEALTHY]

        clock.advance(2.0)
        ph.evaluate()
        assert ph.state == WEDGED

        dump = obs.metrics.to_dict()
        assert dump["gauges"]['health.state{peer="r1"}'] == (
            STATE_CODES[WEDGED]
        )
        assert dump["counters"][
            'health.transitions{peer="r1",to="wedged"}'
        ] == 1
        # Sampling-exempt span even at a 50% sampling rate.
        spans = [
            s for s in obs.tracing.spans if s.name == "health.transition"
        ]
        assert len(spans) == 1
        assert spans[0].attrs["peer"] == "r1"
        assert spans[0].attrs["to"] == "wedged"
        # Flight recorder wide event.
        events = [
            e
            for e in obs.flight.to_list()
            if e["kind"] == "health.transition"
        ]
        assert len(events) == 1
        assert events[0]["to"] == "wedged"
        assert events[0]["from"] == "healthy"


class TestForceEvaluatorRace:
    def test_pin_defeats_a_hammering_background_evaluator(self, clock):
        # The chaos suite pins known-injected wedges with force() while
        # the broker's background evaluator keeps calling evaluate():
        # once pinned, no amount of staleness-driven evaluation may
        # displace the forced state or append transitions.
        import threading

        monitor = HealthMonitor(config=HealthConfig(), clock=clock)
        peer = monitor.peer("r0")
        clock.advance(10.0)  # stale enough that evaluate() wants WEDGED
        peer.force(HEALTHY, "chaos: known-good injection")
        baseline = len(peer.transitions)

        stop = threading.Event()

        def evaluator():
            while not stop.is_set():
                monitor.evaluate_all()

        thread = threading.Thread(target=evaluator, daemon=True)
        thread.start()
        try:
            for _ in range(50):
                clock.advance(5.0)  # keep feeding wedge-worthy staleness
                assert peer.state == HEALTHY
        finally:
            stop.set()
            thread.join(timeout=5.0)
        assert peer.state == HEALTHY
        assert len(peer.transitions) == baseline
        assert peer.forced_reason == "chaos: known-good injection"

    def test_release_resumes_evaluation_from_pinned_state(self, clock):
        peer = make_peer(clock)
        clock.advance(10.0)
        peer.force(WEDGED, "injected")
        assert peer.evaluate() is None  # pinned: evaluation is a no-op
        peer.force(None)
        # a fresh signal after release exits through recovering, never
        # straight back to healthy
        peer.note_signal()
        peer.note_connected(True)
        clock.advance(peer.config.min_dwell + 0.01)
        record = peer.evaluate()
        assert record is not None
        assert record["to"] == RECOVERING
