"""Fan-out broker: N in-process receivers, heterogeneous costs."""

from __future__ import annotations

import asyncio
import socket
import threading
import time

import pytest

from repro.apps.sensor.data import make_reading
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.plan import (
    receiver_heavy_plan,
    sender_heavy_plan,
    union_plan,
)
from repro.core.runtime.triggers import RateTrigger
from repro.errors import TransportError
from repro.jecho.events import PlanEnvelope
from repro.net.broker import NetBrokerEndpoint, PlanRuntimeCache
from repro.net.endpoint import NetReceiverEndpoint
from repro.net.framing import NetEnvelopeCodec
from repro.net.live import _calibrate
from repro.net.tcp import TcpTransport

SAMPLES = 64


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


def _broker(transport_kwargs=None, **kwargs):
    partitioned, sink = build_partitioned_process(n_stages=20)
    plan = receiver_heavy_plan(partitioned.cut)
    rate = _calibrate(partitioned, sink, SAMPLES)
    transport = TcpTransport(
        NetEnvelopeCodec(partitioned.serializer_registry),
        backoff_base=0.01,
        backoff_cap=0.1,
        **(transport_kwargs or {}),
    ).start()
    broker = NetBrokerEndpoint(
        partitioned,
        transport,
        plan=plan,
        rate_override=rate,
        recalibrate=lambda: rate,
        **kwargs,
    )
    return broker, transport


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def test_union_plan_is_deepest_common_split():
    partitioned, _ = build_partitioned_process(n_stages=8)
    early = receiver_heavy_plan(partitioned.cut)
    late = sender_heavy_plan(partitioned.cut)
    merged = union_plan([early, late])
    assert merged.active == early.active | late.active
    assert union_plan([]).active == frozenset()


def test_plan_runtime_cache_hits_and_eviction():
    partitioned, _ = build_partitioned_process(n_stages=8)
    cache = PlanRuntimeCache(partitioned, maxsize=2)
    early = receiver_heavy_plan(partitioned.cut)
    late = sender_heavy_plan(partitioned.cut)
    first = cache.runtime(early)
    assert cache.runtime(early) is first
    assert (cache.hits, cache.misses) == (1, 1)
    # same active set, different version → distinct entry
    assert cache.runtime(early, version=2) is not first
    # third distinct key evicts the LRU entry (early@v0)
    cache.runtime(late)
    assert cache.misses == 3
    cache.runtime(early)
    assert cache.misses == 4


def test_fanout_delivers_to_all_and_modulates_once():
    """Three identical peers: one shared modulation per message, zero
    forks, every receiver gets every continuation exactly once."""
    harnesses = [
        ReceiverHarness(trigger=RateTrigger(period=10**9))
        for _ in range(3)
    ]
    broker, transport = _broker()
    try:
        for harness in harnesses:
            broker.subscribe(harness.host, harness.port)
        published = 25
        for i in range(published):
            broker.publish(make_reading(i, SAMPLES))
        broker.finish()
        assert transport.drain(10.0)
        for harness in harnesses:
            assert harness.endpoint.done.wait(10.0)
        assert broker.published == published
        # the deepest-common-split claim: one modulation per message,
        # not one per subscriber
        assert broker.shared_runs == published
        assert broker.forks == 0
        for harness in harnesses:
            endpoint = harness.endpoint
            assert _wait_until(
                lambda e=endpoint: e.demodulated >= published
            )
            assert endpoint.demodulated == published
            assert len(harness.sink.results) == published
            assert endpoint.duplicates_skipped == 0
        for sub in broker.subscribers:
            assert sub.shipped == published
            assert sub.shared_ships == published
            assert sub.forks == 0
    finally:
        transport.close()
        for harness in harnesses:
            harness.stop()


def test_per_peer_pse_divergence_and_forked_continuations():
    """A loaded peer's plan migrates sender-ward while a fast peer stays
    receiver-heavy; the broker then forks the shared continuation for
    the deep peer while still modulating once per message."""
    fast = ReceiverHarness(trigger=RateTrigger(period=5), rate_scale=1.0)
    slow = ReceiverHarness(trigger=RateTrigger(period=5), rate_scale=16.0)
    broker, transport = _broker()
    try:
        sub_fast = broker.subscribe(fast.host, fast.port, name="fast")
        sub_slow = broker.subscribe(slow.host, slow.port, name="slow")
        published = 0
        for i in range(400):
            broker.publish(make_reading(i, SAMPLES))
            published += 1
            if sub_slow.plan_updates_applied >= 1 and published >= 60:
                break
            time.sleep(0.002)
        for i in range(published, published + 20):
            broker.publish(make_reading(i, SAMPLES))
            published += 1
        broker.finish()
        assert transport.drain(10.0)
        assert fast.endpoint.done.wait(10.0)
        assert slow.endpoint.done.wait(10.0)

        # the slow peer's plan crossed the wire and was applied per peer
        assert sub_slow.plan_updates_applied >= 1
        assert sub_slow.plan_edges != tuple(sorted(broker.default_plan.active))
        # per-peer PSE divergence: the two subscribers run different splits
        assert sub_fast.plan_edges != sub_slow.plan_edges
        # modulation stayed shared: once per message, with the deep
        # peer's continuations forked off the shared run
        assert broker.shared_runs == published
        assert broker.forks > 0
        assert sub_slow.forks > 0
        assert broker.cache.hits > 0  # plan cache served the hot path
        # both receivers keep delivering under their own splits
        assert _wait_until(
            lambda: fast.endpoint.demodulated
            + fast.endpoint.duplicates_skipped
            >= sub_fast.shipped
        )
        assert _wait_until(
            lambda: slow.endpoint.demodulated
            + slow.endpoint.duplicates_skipped
            >= sub_slow.shipped
        )
        assert len(fast.sink.results) == fast.endpoint.demodulated
        assert len(slow.sink.results) == slow.endpoint.demodulated
    finally:
        transport.close()
        fast.stop()
        slow.stop()


def test_a_followers_subscription_replans_when_its_load_shifts():
    """Plans are per subscription: the broker applies a PLAN to the
    subscriber whose connection carried it, and each receiver profiles
    only its own stream.  A receiver whose host slows down must move its
    own subscription sender-ward, whoever else shares the sender."""
    first, second = (
        ReceiverHarness(trigger=RateTrigger(period=5), name=name)
        for name in ("first", "second")
    )
    broker, transport = _broker()
    try:
        broker.subscribe(first.host, first.port, name="first")
        sub = broker.subscribe(second.host, second.port, name="second")
        second.endpoint.rate_scale = 16.0
        for i in range(400):
            broker.publish(make_reading(i, SAMPLES))
            if sub.plan_updates_applied >= 1:
                break
            time.sleep(0.002)
        assert sub.plan_updates_applied >= 1
    finally:
        transport.close()
        first.stop()
        second.stop()


def test_plan_frames_name_the_subscription_they_replan():
    """A receiver subscribed as the broker's second subscriber profiles
    subscription 2, so its PLAN frames say 2."""
    idle = ReceiverHarness(trigger=RateTrigger(period=10**9))
    loaded = ReceiverHarness(trigger=RateTrigger(period=5), rate_scale=16.0)
    broker, transport = _broker()
    try:
        broker.subscribe(idle.host, idle.port, name="idle")
        sub = broker.subscribe(loaded.host, loaded.port, name="loaded")
        assert sub.subscription_id == 2
        frames = []
        on_plan = sub.on_plan

        def recording(envelope):
            frames.append(envelope.subscription_id)
            on_plan(envelope)

        sub.on_plan = recording
        for i in range(400):
            broker.publish(make_reading(i, SAMPLES))
            if sub.plan_updates_applied >= 1:
                break
            time.sleep(0.002)
        assert sub.plan_updates_applied >= 1
        assert frames and set(frames) == {2}
    finally:
        transport.close()
        idle.stop()
        loaded.stop()


def test_wedged_subscriber_does_not_stall_the_others():
    """Drop-policy isolation: one subscriber with no live receiver and a
    tiny bounded queue sheds its own backlog; the healthy subscribers
    deliver the full stream (within 10% of the no-wedge baseline, which
    for a loopback in-process run means all of it)."""
    live = [
        ReceiverHarness(trigger=RateTrigger(period=10**9))
        for _ in range(2)
    ]
    broker, transport = _broker()
    try:
        subs = [
            broker.subscribe(h.host, h.port, name=f"live{i}")
            for i, h in enumerate(live)
        ]
        wedged = broker.subscribe(
            "127.0.0.1", _free_port(), name="wedged", queue_limit=8
        )
        published = 60
        for i in range(published):
            broker.publish(make_reading(i, SAMPLES))
        broker.finish()
        # the wedged peer's queue can never drain — drain() would block
        # on it, so wait for the live peers' deliveries instead
        for harness in live:
            assert harness.endpoint.done.wait(10.0)
        assert wedged.peer.dropped_frames > 0
        assert wedged.peer.queued <= 8
        baseline = published  # every live subscriber was shipped everything
        for sub, harness in zip(subs, live):
            assert sub.shipped == published
            assert sub.peer.dropped_frames == 0
            assert _wait_until(
                lambda h=harness: h.endpoint.demodulated >= baseline
            )
            assert harness.endpoint.demodulated >= 0.9 * baseline
    finally:
        transport.close()
        for harness in live:
            harness.stop()


def test_plan_frames_route_to_their_peer_and_are_idempotent():
    broker, transport = _broker()
    try:
        sub_a = broker.subscribe("127.0.0.1", _free_port(), name="a")
        sub_b = broker.subscribe("127.0.0.1", _free_port(), name="b")
        new_plan = sender_heavy_plan(broker.partitioned.cut)
        envelope = PlanEnvelope(
            subscription_id=1, plan=new_plan, version=1
        )
        broker._on_inbound(envelope, sub_a.peer)
        assert sub_a.plan is new_plan
        assert sub_a.plan_updates_applied == 1
        assert sub_b.plan is broker.default_plan
        assert sub_b.plan_updates_applied == 0
        # duplicated frame (same version): ignored, not re-applied
        broker._on_inbound(envelope, sub_a.peer)
        assert sub_a.plan_updates_applied == 1
        assert sub_a.plan_duplicates_ignored == 1
        # stale lower version after a newer one: also ignored
        broker._on_inbound(
            PlanEnvelope(subscription_id=1, plan=new_plan, version=2),
            sub_a.peer,
        )
        broker._on_inbound(
            PlanEnvelope(
                subscription_id=1,
                plan=broker.default_plan,
                version=1,
            ),
            sub_a.peer,
        )
        assert sub_a.plan is new_plan
        assert sub_a.plan_duplicates_ignored == 2
        # a frame from an unknown peer is dropped, not misrouted
        rogue = transport.peer("127.0.0.1", _free_port())
        broker._on_inbound(envelope, rogue)
        assert broker.plan_updates_applied == 2
    finally:
        transport.close()


def test_publish_without_subscribers_raises():
    broker, transport = _broker()
    try:
        with pytest.raises(TransportError):
            broker.publish(make_reading(0, SAMPLES))
        with pytest.raises(TransportError):
            # double-subscribing one peer is a configuration error
            port = _free_port()
            broker.subscribe("127.0.0.1", port)
            broker.subscribe("127.0.0.1", port)
    finally:
        transport.close()


def test_union_dirty_plan_apply_reshapes_shared_split():
    """After a per-peer plan apply the union hook is rebuilt: a peer
    moving sender-ward turns its shared ships into forks."""
    harness = ReceiverHarness(trigger=RateTrigger(period=10**9))
    broker, transport = _broker()
    try:
        sub = broker.subscribe(harness.host, harness.port, name="only")
        broker.publish(make_reading(0, SAMPLES))
        assert sub.shared_ships == 1 and sub.forks == 0
        # ship a sender-heavy plan for this peer: with only one
        # subscriber the union follows it, so the shared run itself
        # now splits at the peer's (late, forced) edge — still shared
        broker._on_inbound(
            PlanEnvelope(
                subscription_id=1,
                plan=sender_heavy_plan(broker.partitioned.cut),
                version=1,
            ),
            sub.peer,
        )
        broker.publish(make_reading(1, SAMPLES))
        assert sub.shipped == 2
        assert sub.forks == 0  # union == the peer's own plan: no fork
        broker.finish()
        assert transport.drain(10.0)
        assert harness.endpoint.done.wait(10.0)
        assert _wait_until(lambda: harness.endpoint.demodulated == 2)
    finally:
        transport.close()
        harness.stop()
