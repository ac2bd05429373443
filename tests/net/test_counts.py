"""One count, one place: metric series are read from the counts at dump time.

* the per-peer ``broker.*{peer}`` gauges read the transport's live state,
  not the state of the last publish;
* over loopback, every ``broker.*``, ``transport.tcp.*`` and
  ``FrameServer`` series a dump carried before counts were read at dump
  time is still there, under the same kind, and equals the attribute it
  reads;
* the per-peer logs copied into every dump keep a bounded tail, beside
  an integer total of everything appended.
"""

from __future__ import annotations

from repro.apps.sensor.data import make_reading
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.plan import receiver_heavy_plan
from repro.net.broker import NetBrokerEndpoint
from repro.net.framing import Bye, NetEnvelopeCodec
from repro.net.resilience import (
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    BREAKER_STATE_CODES,
    BreakerConfig,
    CircuitBreaker,
)
from repro.net.tcp import TcpTransport
from repro.obs import Observability
from repro.obs.health import DEGRADED, HEALTHY, HealthMonitor
from repro.obs.quality import REPORT_TAIL
from repro.tools.obs import fleet_view

from tests.net.test_resilience import FakeClock
from tests.net.test_session import (
    PLAN_A,
    PLAN_B,
    FakeTransport,
    make_session,
    plan_frame,
)
from tests.net.test_tcp import ServerHarness, _wait_until

RATE = 2e-8


def _broker(transport, obs):
    partitioned, _ = build_partitioned_process(n_stages=6)
    return NetBrokerEndpoint(
        partitioned,
        transport,
        plan=receiver_heavy_plan(partitioned.cut),
        rate_override=RATE,
        recalibrate=lambda: RATE,
        obs=obs,
    )


def test_per_peer_gauges_read_the_transport_state_at_dump_time():
    obs = Observability()
    broker = _broker(FakeTransport(), obs)
    sub = broker.subscribe("h", 1, name="p1")
    broker.publish(make_reading(0, 8))
    # the transport moves on without another publish: a wedged peer's
    # queue drains or sheds while the publisher is quiet
    sub.peer.queued = 7
    sub.peer.dropped_frames = 5
    sub.peer.connected = False
    gauges = obs.to_dict()["metrics"]["gauges"]
    assert gauges['broker.queue_depth{peer="p1"}'] == 7
    assert gauges['broker.dropped_frames{peer="p1"}'] == 5
    assert gauges['broker.connected{peer="p1"}'] == 0.0


# -- series parity over loopback -------------------------------------------------

#: ``transport.tcp.<series>`` counters: the TcpPeer count each one sums
TRANSPORT_SERIES = {
    "dropped_frames": "dropped_frames",
    "reconnects": "reconnects",
    "connect_failures": "connect_failures",
    "send_timeouts": "send_timeouts",
    "heartbeats_sent": "heartbeats_sent",
    "frame_bytes": "frame_bytes_sent",
    "framing_errors": "framing_errors",
    "decode_errors": "decode_errors",
    "decoder_compactions": "decoder_compactions",
    "decoder_batches_decoded": "decoder_batches_decoded",
    "decoder_pooled_payloads": "decoder_pooled_payloads",
}
#: ``<server name>.<series>`` counters, each the FrameServer attribute
SERVER_SERIES = (
    "accepted",
    "frames_received",
    "heartbeats_seen",
    "decode_errors",
    "decoder_compactions",
    "decoder_batches_decoded",
    "decoder_pooled_payloads",
)
#: ``broker.<series>`` counters summed over the subscribers' sessions
SUMMED_SERIES = {
    "plan_updates": "plan_updates_applied",
    "retractions": "retractions",
    "resplits": "resplits",
    "telemetry_frames": "telemetry_frames",
    "absorbed": "absorbed",
    "ships_suppressed": "ships_suppressed",
}


def _expected(broker, transport, servers):
    """Every series the dump must carry: kind → name → value it reads."""
    subs, peers = broker.subscribers, transport.peers
    counters = {
        "broker.published": broker.published,
        "broker.forks": broker.forks,
        "transport.tcp.messages": transport.messages_sent,
        "transport.tcp.bytes": transport.bytes_sent,
    }
    for series, count in SUMMED_SERIES.items():
        counters[f"broker.{series}"] = sum(getattr(s, count) for s in subs)
    for series, count in TRANSPORT_SERIES.items():
        counters[f"transport.tcp.{series}"] = sum(
            getattr(p, count) for p in peers
        )
    for server in servers:
        for count in SERVER_SERIES:
            counters[f"{server.name}.{count}"] = getattr(server, count)
    gauges = {}
    for sub in subs:
        label = f'{{peer="{sub.name}"}}'
        counters[f"broker.plan_updates{label}"] = sub.plan_updates_applied
        counters[f"broker.shipped{label}"] = sub.shipped
        counters[f"broker.forks{label}"] = sub.forks
        peer = sub.peer
        gauges[f"broker.queue_depth{label}"] = peer.queued
        gauges[f"broker.dropped_frames{label}"] = peer.dropped_frames
        gauges[f"broker.heartbeat_rtt{label}"] = peer.last_rtt or 0.0
        gauges[f"broker.connected{label}"] = float(peer.connected)
        gauges[f"broker.breaker_state{label}"] = BREAKER_STATE_CODES[
            sub.breaker.state
        ]
    return {
        "counters": counters,
        "gauges": gauges,
        "histograms": {
            "transport.tcp.heartbeat_rtt": None,
            "transport.tcp.message_bytes": None,
        },
    }


def test_series_keep_their_names_and_kinds_and_equal_their_counts():
    partitioned, _ = build_partitioned_process(n_stages=6)
    codec = NetEnvelopeCodec(partitioned.serializer_registry).bind(
        partitioned.schema
    )
    obs = Observability()
    harnesses = [
        ServerHarness(codec=codec, name=f"server{i}", obs=obs)
        for i in range(2)
    ]
    transport = TcpTransport(
        NetEnvelopeCodec(partitioned.serializer_registry)
    ).start()
    transport.attach_observability(obs, name="transport.tcp")
    try:
        broker = _broker(transport, obs)
        for i, harness in enumerate(harnesses):
            broker.subscribe(harness.host, harness.port, name=f"r{i}")
        for i in range(20):
            broker.publish(make_reading(i, 16))
        broker.finish()
        assert transport.drain(10.0)
        for harness in harnesses:
            assert _wait_until(
                lambda h=harness: any(
                    isinstance(e, Bye) for e, _, _ in h.received
                )
            )
        dump = obs.to_dict()["metrics"]
        expected = _expected(
            broker, transport, [h.server for h in harnesses]
        )
        for kind, series in expected.items():
            missing = sorted(set(series) - set(dump[kind]))
            assert not missing, (kind, missing)
            if kind != "histograms":
                assert {n: dump[kind][n] for n in series} == series
        assert not any(
            name.startswith("transport.tcp.queue_depth")
            for name in dump["gauges"]
        )
        assert expected["counters"]["broker.published"] == 20
        assert expected["counters"]['broker.shipped{peer="r1"}'] == 20
    finally:
        transport.close()
        for harness in harnesses:
            harness.stop()


# -- bounded per-peer logs ---------------------------------------------------------

N = 10_000


def _assert_tail(log, newest):
    assert len(log) <= REPORT_TAIL
    assert log[-1] == newest


def test_applied_plans_keep_a_tail_and_count_every_apply():
    session, *_ = make_session()
    for version in range(1, N + 1):
        session.on_plan(plan_frame(version, PLAN_B if version % 2 else PLAN_A))
    assert session.plan_updates_applied == N
    _assert_tail(session.plans_seen, "(3, 4)" if N % 2 else "(1, 2)")


def test_health_transitions_keep_a_tail_and_count_every_transition():
    monitor = HealthMonitor(clock=FakeClock())
    ph = monitor.peer("p")
    for i in range(N):
        ph.force(DEGRADED if i % 2 == 0 else HEALTHY, f"flap {i}")
    assert ph.transitions_total == N
    _assert_tail([t["reason"] for t in ph.transitions], f"flap {N - 1}")
    (row,) = fleet_view({"fleet": monitor.to_dict()})["peers"]
    assert row["transitions"] == N


def test_breaker_transitions_keep_a_tail_and_count_every_transition():
    clock = FakeClock()
    breaker = CircuitBreaker("p", BreakerConfig(), clock=clock)
    for i in range(N):
        if breaker.state == BREAKER_OPEN:
            clock.advance(breaker.probe_backoff())
            assert breaker.allow()  # open → half-open
        else:
            breaker.trip(f"trip {i}")  # closed or half-open → open
    assert breaker.transitions_total == N
    dump = breaker.to_dict()
    assert dump["transitions_total"] == N
    # calls alternate trip / probe, so the newest trip is call N - 2
    _assert_tail([t["to"] for t in dump["transitions"]], BREAKER_HALF_OPEN)
    assert dump["transitions"][-2]["reason"] == f"trip {N - 2}"
