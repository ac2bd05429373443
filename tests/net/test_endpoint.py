"""Sender/receiver endpoints over a real socket, in one process."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.apps.sensor.data import make_reading
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.plan import receiver_heavy_plan
from repro.core.runtime.triggers import RateTrigger
from repro.net.endpoint import NetReceiverEndpoint, NetSenderEndpoint
from repro.net.framing import NetEnvelopeCodec
from repro.net.live import _calibrate
from repro.net.tcp import TcpTransport

SAMPLES = 64

#: a fixed seconds-per-cycle for both sides (the pipeline benchmark's):
#: the plan a test asserts on then follows from cycle counts and sizes,
#: not from how fast this host ran two timed calibrations
FIXED_RATE = 2e-8


def _wait_until(predicate, timeout=20.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class ReceiverHarness:
    """A NetReceiverEndpoint served from a dedicated event-loop thread."""

    def __init__(self, rate=None, **kwargs):
        self.partitioned, self.sink = build_partitioned_process(n_stages=20)
        self.plan = receiver_heavy_plan(self.partitioned.cut)
        if rate is None:
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


def test_ctor_validation():
    partitioned, _sink = build_partitioned_process(n_stages=4)
    with pytest.raises(ValueError):
        NetReceiverEndpoint(partitioned, rate_scale=0.0)
    transport = TcpTransport()
    try:
        with pytest.raises(ValueError):
            NetSenderEndpoint(
                partitioned, transport, None, feedback_period=0
            )
    finally:
        transport.close()


def test_live_subscription_ships_plan_and_delivers():
    """End-to-end adaptation loop over localhost TCP, single process.

    The receiver emulates a loaded host (rate_scale), so the min-cut
    must move the split sender-ward and ship the new plan back over
    the same socket — the paper's runtime reconfiguration, for real.
    """
    harness = ReceiverHarness(
        trigger=RateTrigger(period=5), rate_scale=4.0
    )
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
        feedback_period=4,
        rate_override=rate,
    )
    initial = sender.current_plan_edges
    try:
        published = 0
        # Stream until the plan round-trips (ship + apply), then a tail
        # of messages that run under the new split.
        for i in range(400):
            sender.publish(make_reading(i, SAMPLES))
            published += 1
            if sender.plan_updates_applied >= 1 and published >= 40:
                break
            time.sleep(0.002)
        for i in range(published, published + 10):
            sender.publish(make_reading(i, SAMPLES))
            published += 1
        sender.finish()
        assert transport.drain(10.0)
        assert harness.endpoint.done.wait(10.0)
        receiver = harness.endpoint

        assert sender.published == published
        assert sender.session.shipped >= 1
        assert _wait_until(
            lambda: receiver.demodulated + sender.session.completed_locally
            >= published
        )
        assert len(harness.sink.results) == receiver.demodulated
        assert receiver.sender_reported_sent == sender.session.shipped

        # the reconfiguration crossed the wire, both directions
        assert receiver.plan_ships >= 1
        assert sender.plan_updates_applied >= 1
        assert sender.current_plan_edges != initial
        assert (
            tuple(sorted(receiver.sender_plan.active))
            == sender.current_plan_edges
        )
        # the split genuinely moved off the receiver-heavy edge
        assert receiver.demodulated > 0
        assert receiver.duplicates_skipped == 0

        quantiles = receiver.latency_quantiles()
        assert quantiles, "no latency samples collected"
        for stats in quantiles.values():
            assert stats["count"] >= 1
            assert 0.0 <= stats["p50"] <= stats["p95"]
    finally:
        transport.close()
        harness.stop()


def test_identical_recomputes_ship_plan_once():
    """Recomputes that confirm the incumbent plan must not re-ship it:
    PLAN frames go out only on actual transitions."""
    harness = ReceiverHarness(
        rate=FIXED_RATE, trigger=RateTrigger(period=5), rate_scale=1.0
    )
    partitioned, _sink = build_partitioned_process(n_stages=20)
    plan = receiver_heavy_plan(partitioned.cut)
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
        feedback_period=4,
        rate_override=FIXED_RATE,
        recalibrate=lambda: FIXED_RATE,
    )
    try:
        for i in range(30):
            sender.publish(make_reading(i, SAMPLES))
            time.sleep(0.002)
        sender.finish()
        assert transport.drain(10.0)
        assert harness.endpoint.done.wait(10.0)
        receiver = harness.endpoint
        assert _wait_until(lambda: receiver.feedback_batches >= 1)
        assert len(receiver.reconfig.history) >= 2
        # one PLAN frame per *transition*, not per recompute
        transitions = 0
        current = plan.active
        for record in receiver.reconfig.history:
            if record.plan.active != current:
                transitions += 1
                current = record.plan.active
        assert transitions < len(receiver.reconfig.history)
        assert receiver.plan_ships == transitions
        assert _wait_until(
            lambda: sender.plan_updates_applied == transitions
        )
    finally:
        transport.close()
        harness.stop()
