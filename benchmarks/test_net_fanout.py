"""Fan-out broker benchmark: aggregate delivered msg/s against N.

One in-process broker publishes the figure-7 sensor workload to N
in-process receivers over loopback TCP (receivers on their own event
loops, so the sockets are real), sweeping N.  The headline number is
aggregate delivery throughput — N receivers each demodulating the full
stream — against the cost of the shared modulation plus per-peer forks.
Emits ``benchmarks/results/BENCH_net_fanout.json`` for CI artifact
upload (the multi-process ``liveexp --fanout`` run reports its aggregate
in ``summary.json``).

Marked ``bench``: not part of the tier-1 suite; run explicitly with
``pytest benchmarks/ -m bench``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.apps.sensor.data import make_reading
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.plan import receiver_heavy_plan
from repro.core.runtime.triggers import RateTrigger
from repro.net.broker import NetBrokerEndpoint
from repro.net.endpoint import NetReceiverEndpoint
from repro.net.framing import NetEnvelopeCodec
from repro.net.live import _calibrate
from repro.net.tcp import TcpTransport

pytestmark = pytest.mark.bench

N_MESSAGES = 200
SAMPLES = 64
FANOUTS = (1, 2, 4, 8)


class _Receiver:
    def __init__(self):
        self.partitioned, self.sink = build_partitioned_process(n_stages=20)
        rate = _calibrate(self.partitioned, self.sink, SAMPLES)
        self.endpoint = NetReceiverEndpoint(
            self.partitioned,
            plan=receiver_heavy_plan(self.partitioned.cut),
            trigger=RateTrigger(period=10**9),  # static plans: pure I/O
            rate_override=rate,
            codec=NetEnvelopeCodec(self.partitioned.serializer_registry),
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


def _run_fanout(n: int):
    receivers = [_Receiver() for _ in range(n)]
    partitioned, sink = build_partitioned_process(n_stages=20)
    rate = _calibrate(partitioned, sink, SAMPLES)
    transport = TcpTransport(
        NetEnvelopeCodec(partitioned.serializer_registry),
        backoff_base=0.01,
        backoff_cap=0.1,
    ).start()
    broker = NetBrokerEndpoint(
        partitioned,
        transport,
        plan=receiver_heavy_plan(partitioned.cut),
        rate_override=rate,
        recalibrate=lambda: rate,
    )
    try:
        for i, receiver in enumerate(receivers):
            broker.subscribe(
                receiver.host, receiver.port, name=f"receiver{i}"
            )
        started = time.perf_counter()
        for i in range(N_MESSAGES):
            broker.publish(make_reading(i, SAMPLES))
        broker.finish()
        assert transport.drain(30.0)
        for receiver in receivers:
            assert receiver.endpoint.done.wait(30.0)
        elapsed = time.perf_counter() - started
        delivered = sum(r.endpoint.demodulated for r in receivers)
        assert delivered == n * N_MESSAGES
        stats = broker.to_dict()
        return {
            "n": n,
            "publish_msgs_per_sec": N_MESSAGES / elapsed,
            "aggregate_delivered_per_sec": delivered / elapsed,
            "shared_runs": stats["shared_runs"],
            "forks": stats["forks"],
            "plan_cache_hits": stats["plan_cache"]["hits"],
        }
    finally:
        transport.close()
        for receiver in receivers:
            receiver.stop()


def test_fanout_throughput_sweep(results_dir, record_result):
    rows = [_run_fanout(n) for n in FANOUTS]
    # identical plans throughout: every message modulated exactly once
    for row in rows:
        assert row["shared_runs"] == N_MESSAGES
        assert row["forks"] == 0
    # fanning out must beat re-modulating per peer: some fan-out level
    # delivers more aggregate than N=1 (the largest N can saturate the
    # socket writes on a loaded machine, so don't insist it's the last)
    assert max(
        row["aggregate_delivered_per_sec"] for row in rows[1:]
    ) > rows[0]["aggregate_delivered_per_sec"]

    payload = {
        "benchmark": "net_fanout",
        "mode": "in-process sweep",
        "n_messages": N_MESSAGES,
        "samples_per_reading": SAMPLES,
        "sweep": rows,
    }
    (results_dir / "BENCH_net_fanout.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    lines = ["aggregate delivered msg/s vs fan-out N (shared modulation):"]
    for row in rows:
        lines.append(
            f"  N={row['n']:<2} publish={row['publish_msgs_per_sec']:8.1f}/s "
            f"delivered={row['aggregate_delivered_per_sec']:8.1f}/s "
            f"(shared runs {row['shared_runs']}, forks {row['forks']})"
        )
    record_result("net_fanout", "\n".join(lines))
