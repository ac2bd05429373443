"""Regression tests for the net/endpoint bugfix sweep.

Each test pins one fixed defect:

* stale ``rate_override`` surviving a plan transition (feedback priced
  with a calibration taken under the old split);
* the receiver's continuation dedupe state being global instead of
  per-source (a second sender's frames dropped as "duplicates");
* non-idempotent PLAN apply under the transport's at-least-once
  head-frame retransmit, and the receiver's optimistic ``sender_plan``
  update surviving a failed ship;
* the receiver's latency samples growing with every delivery.
"""

from __future__ import annotations

import asyncio
import threading
import time
from types import SimpleNamespace

import pytest

import repro.net.endpoint as endpoint_module
from repro.apps.sensor.data import make_reading
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.plan import receiver_heavy_plan, sender_heavy_plan
from repro.core.runtime.triggers import RateTrigger
from repro.errors import TransportError
from repro.jecho.events import ContinuationEnvelope, PlanEnvelope
from repro.net.endpoint import NetReceiverEndpoint, NetSenderEndpoint
from repro.net.framing import NetEnvelopeCodec
from repro.net.live import _calibrate
from repro.net.tcp import TcpTransport

SAMPLES = 64

IDLE = RateTrigger(period=10**9)


def _wait_until(predicate, timeout=20.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class ReceiverHarness:
    """A NetReceiverEndpoint served from a dedicated event-loop thread."""

    def __init__(self, **kwargs):
        self.partitioned, self.sink = build_partitioned_process(n_stages=20)
        self.plan = receiver_heavy_plan(self.partitioned.cut)
        rate = _calibrate(self.partitioned, self.sink, SAMPLES)
        self.endpoint = NetReceiverEndpoint(
            self.partitioned,
            plan=self.plan,
            rate_override=rate,
            codec=NetEnvelopeCodec(self.partitioned.serializer_registry),
            **kwargs,
        )
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        future = asyncio.run_coroutine_threadsafe(
            self.endpoint.start(), self.loop
        )
        self.host, self.port = future.result(5.0)

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.endpoint.stop(), self.loop
        ).result(5.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(5.0)
        self.loop.close()


def _sender(harness, **kwargs):
    partitioned, sink = build_partitioned_process(n_stages=20)
    plan = receiver_heavy_plan(partitioned.cut)
    rate = _calibrate(partitioned, sink, SAMPLES)
    transport = TcpTransport(
        NetEnvelopeCodec(partitioned.serializer_registry),
        backoff_base=0.01,
        backoff_cap=0.1,
    ).start()
    peer = transport.peer(harness.host, harness.port)
    sender = NetSenderEndpoint(
        partitioned,
        transport,
        peer,
        plan=plan,
        rate_override=rate,
        **kwargs,
    )
    return sender, transport


# -- satellite 1: rate recalibration after plan transitions ---------------------


def test_plan_apply_marks_rate_stale_and_next_publish_recalibrates():
    harness = ReceiverHarness(trigger=IDLE)
    sender, transport = _sender(harness, recalibrate=lambda: 1.25e-6)
    try:
        old_rate = sender.rate.override
        plan = sender_heavy_plan(sender.partitioned.cut)
        sender._on_inbound(
            PlanEnvelope(subscription_id=1, plan=plan, version=1),
            sender.peer,
        )
        # the apply itself only marks: no recalibration until an event
        # arrives to calibrate against
        assert sender.rate.stale
        assert sender.rate.override == old_rate
        assert sender.rate.recalibrations == 0
        sender.publish(make_reading(0, SAMPLES))
        assert sender.rate.override == 1.25e-6
        assert sender.rate.recalibrations == 1
        assert not sender.rate.stale
        # a second publish under the same plan does not thrash
        sender.publish(make_reading(1, SAMPLES))
        assert sender.rate.recalibrations == 1
    finally:
        transport.close()
        harness.stop()


def test_recalibration_within_noise_keeps_the_current_rate():
    """A fresh measurement within RATE_HYSTERESIS of the current rate
    is timer noise, not staleness: adopting it would rescale all
    subsequently profiled sender costs and flap knife-edge min-cuts."""
    harness = ReceiverHarness(trigger=IDLE)
    sender, transport = _sender(harness)
    try:
        old_rate = sender.rate.override
        sender.rate.recalibrate = lambda: old_rate * 1.05  # within the band
        plan = sender_heavy_plan(sender.partitioned.cut)
        sender._on_inbound(
            PlanEnvelope(subscription_id=1, plan=plan, version=1),
            sender.peer,
        )
        sender.publish(make_reading(0, SAMPLES))
        assert sender.rate.recalibrations == 1  # measured...
        assert sender.rate.override == old_rate  # ...but not adopted
    finally:
        transport.close()
        harness.stop()


def test_builtin_recalibration_times_the_full_handler():
    harness = ReceiverHarness(trigger=IDLE)
    sender, transport = _sender(harness)  # no recalibrate callable
    try:
        plan = sender_heavy_plan(sender.partitioned.cut)
        sender._on_inbound(
            PlanEnvelope(subscription_id=1, plan=plan, version=1),
            sender.peer,
        )
        sender.publish(make_reading(0, SAMPLES))
        assert sender.rate.recalibrations == 1
        # a plausible host rate, not a per-message-overhead artifact:
        # the sensor handler runs thousands of cycles in well under a
        # second, so seconds-per-cycle lands far below 1e-3
        assert 0.0 < sender.rate.override < 1e-3
    finally:
        transport.close()
        harness.stop()


def test_no_override_means_no_recalibration():
    harness = ReceiverHarness(trigger=IDLE)
    sender, transport = _sender(harness)
    try:
        sender.rate.override = None
        plan = sender_heavy_plan(sender.partitioned.cut)
        sender._on_inbound(
            PlanEnvelope(subscription_id=1, plan=plan, version=1),
            sender.peer,
        )
        assert not sender.rate.stale  # raw wall clock needs no refresh
        sender.publish(make_reading(0, SAMPLES))
        assert sender.rate.recalibrations == 0
    finally:
        transport.close()
        harness.stop()


# -- satellite 3: idempotent PLAN apply under duplicated frames -----------------


def test_duplicated_plan_frame_is_applied_once():
    harness = ReceiverHarness(trigger=IDLE)
    sender, transport = _sender(harness)
    try:
        plan = sender_heavy_plan(sender.partitioned.cut)
        envelope = PlanEnvelope(subscription_id=1, plan=plan, version=1)
        sender._on_inbound(envelope, sender.peer)
        assert sender.session.plan is plan
        # the at-least-once retransmit redelivers the same frame
        sender._on_inbound(envelope, sender.peer)
        assert sender.plan_updates_applied == 1
        assert sender.session.plan_duplicates_ignored == 1
        assert len(sender.session.plans_seen) == 1  # apply ran once
        # a stale lower version arriving late is also a duplicate
        sender._on_inbound(
            PlanEnvelope(
                subscription_id=1,
                plan=receiver_heavy_plan(sender.partitioned.cut),
                version=1,
            ),
            sender.peer,
        )
        assert sender.session.plan_duplicates_ignored == 2
        assert sender.current_plan_edges == tuple(sorted(plan.active))
    finally:
        transport.close()
        harness.stop()


class _StubReconfig:
    """Returns a queued plan once per consider() call."""

    def __init__(self):
        self.queued = []
        self.last_trace_ctx = None

    def consider(self, profiling):
        return self.queued.pop(0) if self.queued else None


class _StubConn:
    def __init__(self, fail=False, closed=False):
        self.fail = fail
        self.closed = closed
        self.sent = []

    async def send(self, envelope):
        if self.fail:
            raise TransportError("injected send failure")
        self.sent.append(envelope)


def test_failed_plan_ship_reverts_and_retry_uses_fresh_version():
    partitioned, _ = build_partitioned_process(n_stages=8)
    initial = receiver_heavy_plan(partitioned.cut)
    receiver = NetReceiverEndpoint(partitioned, plan=initial, trigger=IDLE)
    receiver.reconfig = _StubReconfig()
    new_plan = sender_heavy_plan(partitioned.cut)

    receiver.reconfig.queued.append(new_plan)
    asyncio.run(receiver._maybe_reconfigure(_StubConn(fail=True), 1))
    # optimistic update reverted, version burned anyway: the failed
    # attempt's bytes may still have reached the sender
    assert receiver.sender_plan is initial
    assert receiver.plan_version == 1
    assert receiver.plan_ships == 0

    receiver.reconfig.queued.append(new_plan)
    good = _StubConn()
    asyncio.run(receiver._maybe_reconfigure(good, 1))
    assert receiver.sender_plan is new_plan
    assert receiver.plan_ships == 1
    assert [e.version for e in good.sent] == [2]  # strictly fresher


def test_plan_ship_with_no_live_connection_reverts_without_burning_sends():
    partitioned, _ = build_partitioned_process(n_stages=8)
    initial = receiver_heavy_plan(partitioned.cut)
    receiver = NetReceiverEndpoint(partitioned, plan=initial, trigger=IDLE)
    receiver.reconfig = _StubReconfig()
    receiver.reconfig.queued.append(sender_heavy_plan(partitioned.cut))
    asyncio.run(receiver._maybe_reconfigure(_StubConn(closed=True), 1))
    assert receiver.sender_plan is initial
    assert receiver.plan_ships == 0


# -- satellite 2: per-source dedupe ---------------------------------------------


def test_two_senders_with_colliding_sequences_both_deliver():
    """Two independent sender processes start their sequence spaces at
    the same numbers.  A global seen-set would drop the second sender's
    frames as duplicates; per-(instance, subscription) high-water marks
    keep the spaces apart."""
    harness = ReceiverHarness(trigger=IDLE)
    sender_a, transport_a = _sender(harness)
    sender_b, transport_b = _sender(harness)
    try:
        assert transport_a.instance != transport_b.instance
        n = 5
        for i in range(n):
            sender_a.publish(make_reading(i, SAMPLES))
            sender_b.publish(make_reading(i, SAMPLES))
        assert transport_a.drain(10.0) and transport_b.drain(10.0)
        receiver = harness.endpoint
        assert _wait_until(
            lambda: receiver.demodulated
            >= sender_a.session.shipped + sender_b.session.shipped
        )
        assert receiver.duplicates_skipped == 0
        assert len(receiver._dedupe_high) == 2  # one mark per source
    finally:
        transport_a.close()
        transport_b.close()
        harness.stop()


def test_dedupe_survives_reconnect_effectively_once():
    """Fault injection: the receiver resets the connection after the 3rd
    continuation; the transport reconnects and retransmits the head
    frame (at-least-once).  The per-source high-water mark must carry
    across connections so nothing is processed twice — and must not
    block the fresh frames that follow."""
    harness = ReceiverHarness(trigger=IDLE, drop_after=3)
    sender, transport = _sender(harness)
    try:
        published = 12
        for i in range(published):
            sender.publish(make_reading(i, SAMPLES))
            time.sleep(0.01)  # give the drop/reconnect time to happen
        sender.finish()
        assert transport.drain(15.0)
        receiver = harness.endpoint
        assert receiver.drops_injected == 1
        assert _wait_until(
            lambda: receiver.demodulated + receiver.duplicates_skipped
            >= sender.session.shipped
        )
        # effectively-once: every shipped frame processed exactly once
        assert receiver.demodulated == sender.session.shipped
        assert len(harness.sink.results) == receiver.demodulated
    finally:
        transport.close()
        harness.stop()


# -- bounded latency samples ----------------------------------------------------


def test_latency_samples_keep_only_the_latest_window(monkeypatch):
    """Twice the window's worth of deliveries keeps one window of samples
    per PSE, and the quantiles describe the latest deliveries: each
    message is stamped one second fresher than the one before it."""
    window = 8
    monkeypatch.setattr(endpoint_module, "LATENCY_WINDOW", window)
    partitioned, _ = build_partitioned_process(n_stages=4)
    plan = receiver_heavy_plan(partitioned.cut)
    receiver = NetReceiverEndpoint(partitioned, plan=plan, trigger=IDLE)
    modulator = partitioned.make_modulator(plan=plan)
    conn = SimpleNamespace(hello=None, peername="stub", closed=False)
    total = 2 * window

    async def drive():
        seq, i = 0, 0
        now = time.time()
        while seq < total:
            message = modulator.process(make_reading(i, SAMPLES)).message
            i += 1
            if message is None:
                continue
            envelope = ContinuationEnvelope(
                continuation=message, subscription_id=1, seq=seq
            )
            await receiver._handle_continuation(
                envelope, now - (total - seq), conn
            )
            seq += 1

    asyncio.run(drive())
    assert receiver.demodulated == total
    assert [len(s) for s in receiver.latencies.values()] == [window]
    (stats,) = receiver.latency_quantiles().values()
    assert stats["count"] == window
    # the newest window was stamped 1..8 s stale, the evicted 9..16 s
    assert 1.0 <= stats["p50"] <= stats["p95"] < window + 1.0
