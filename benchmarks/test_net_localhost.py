"""Localhost TCP throughput/latency benchmarks for the net subsystem.

Two measurements, one artifact (``BENCH_net_localhost.json``):

* **Wire throughput sweep** — a raw envelope stream through
  ``TcpTransport`` → ``FrameServer`` on loopback, swept across flush
  thresholds: plain-framed (``batching=False``), then batch runs
  capped at 8 / 32 (the default) / 128 frames.  Unbatched, every frame
  pays its own write+drain event-loop round trip; batched, a backlog
  run ships under one header and one drain.  Asserts the default
  thresholds clear ``MIN_BATCH_SPEEDUP``× the plain-framed baseline —
  the wire-path overhaul's acceptance floor.
* **Live end-to-end gate** — the real two-process live experiment
  (one publisher, one receiver, separate interpreters, batching on)
  must pass every adaptation check (plan shipped mid-run, causal trace
  merged, metrics scraped),
  reporting end-to-end msg/s and per-PSE one-way latency.  End-to-end
  throughput is modulation/demodulation-bound, so the batching speedup
  is asserted on the wire sweep, not here; this run proves the batched
  wire carries the full adaptation loop unharmed.

Marked ``bench``: not part of the tier-1 suite (``testpaths`` covers
``tests/`` only); run explicitly with ``pytest benchmarks/ -m bench``.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time

import pytest

from repro.jecho.events import EventEnvelope
from repro.net.framing import NetEnvelopeCodec
from repro.net.tcp import FrameServer, TcpTransport
from repro.tools.liveexp import run_experiment

pytestmark = pytest.mark.bench

#: live end-to-end run
N_MESSAGES = 400
SAMPLES = 64
#: no pacing: stream as fast as the socket takes it
INTERVAL = 0.0
#: the receiver's emulated slowdown
RATE_SCALE = 4.0

#: wire sweep: frames per configuration
N_FRAMES = 5000
#: the default flush thresholds must at least double plain-framed msg/s
MIN_BATCH_SPEEDUP = 2.0
#: (label, transport kwargs) per sweep point; count=32 is the default
SWEEP = (
    ("unbatched", {"batching": False}),
    ("count=8", {"flush_max_count": 8}),
    ("count=32", {"flush_max_count": 32}),
    ("count=128", {"flush_max_count": 128}),
)


class _WireServer:
    """A FrameServer on its own loop thread, counting envelopes."""

    def __init__(self):
        self.server = FrameServer(NetEnvelopeCodec())
        self.count = 0
        self.server.handler = self._on_envelope
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(
            target=self.loop.run_forever, daemon=True
        )
        self.thread.start()
        self.host, self.port = asyncio.run_coroutine_threadsafe(
            self.server.start(), self.loop
        ).result(10.0)

    def _on_envelope(self, envelope, sent_at, conn):
        self.count += 1

    def stop(self):
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(10.0)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10.0)


def _measure_wire(**transport_kwargs):
    """msg/s and batch stats for N_FRAMES envelopes over loopback."""
    server = _WireServer()
    transport = TcpTransport(
        NetEnvelopeCodec(),
        queue_limit=N_FRAMES + 16,  # never shed: measure, don't drop
        backoff_base=0.01,
        backoff_cap=0.1,
        **transport_kwargs,
    ).start()
    try:
        peer = transport.peer(server.host, server.port)
        deadline = time.monotonic() + 10.0
        while not peer.connected and time.monotonic() < deadline:
            time.sleep(0.005)
        assert peer.connected, "peer never connected"
        started = time.perf_counter()
        for i in range(N_FRAMES):
            transport.send(
                peer, EventEnvelope(payload={"i": i}, seq=i), 16.0
            )
        assert transport.drain(60.0), "send queue never drained"
        deadline = time.monotonic() + 30.0
        while server.count < N_FRAMES and time.monotonic() < deadline:
            time.sleep(0.002)
        elapsed = time.perf_counter() - started
        assert server.count == N_FRAMES, (
            f"server saw {server.count} of {N_FRAMES} frames"
        )
        assert peer.dropped_frames == 0
        return {
            "msgs_per_sec": N_FRAMES / elapsed,
            "batches_sent": peer.batches_sent,
            "batched_frames_sent": peer.batched_frames_sent,
            "frames_sent": peer.frames_sent,
            "frame_bytes_sent": peer.frame_bytes_sent,
        }
    finally:
        transport.close()
        server.stop()


def test_wire_throughput_flush_threshold_sweep(results_dir, record_result):
    sweep = {}
    for label, kwargs in SWEEP:
        stats = _measure_wire(**kwargs)
        sweep[label] = stats
        if label == "unbatched":
            assert stats["batches_sent"] == 0
        else:
            assert stats["batches_sent"] > 0

    baseline = sweep["unbatched"]["msgs_per_sec"]
    default = sweep["count=32"]["msgs_per_sec"]
    speedup = default / baseline
    assert speedup >= MIN_BATCH_SPEEDUP, (
        f"default flush thresholds reach {default:.0f} msg/s, only "
        f"{speedup:.2f}x the plain-framed {baseline:.0f} msg/s "
        f"(need {MIN_BATCH_SPEEDUP}x)"
    )

    payload = {
        "benchmark": "net_localhost_wire",
        "n_frames": N_FRAMES,
        "min_batch_speedup": MIN_BATCH_SPEEDUP,
        "batch_speedup_at_default": round(speedup, 2),
        "sweep": {
            label: {
                "msgs_per_sec": round(stats["msgs_per_sec"], 1),
                "batches_sent": stats["batches_sent"],
                "batched_frames_sent": stats["batched_frames_sent"],
                "frame_bytes_sent": stats["frame_bytes_sent"],
            }
            for label, stats in sweep.items()
        },
    }
    _merge_results(results_dir, {"wire": payload})

    lines = [
        f"wire sweep ({N_FRAMES} event frames over loopback TCP):"
    ]
    for label, _ in SWEEP:
        stats = sweep[label]
        batches = stats["batches_sent"]
        per_batch = (
            f"{stats['batched_frames_sent'] / batches:6.1f} frames/batch"
            if batches
            else "  one frame per write+drain"
        )
        lines.append(
            f"  {label:<10} {stats['msgs_per_sec']:10.1f} msg/s "
            f"({per_batch})"
        )
    lines.append(
        f"default-threshold speedup: {speedup:.2f}x "
        f"(floor {MIN_BATCH_SPEEDUP}x)"
    )
    record_result("net_localhost_wire", "\n".join(lines))


def _merge_results(results_dir, update):
    """Fold a section into BENCH_net_localhost.json (both tests write)."""
    path = results_dir / "BENCH_net_localhost.json"
    data = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except ValueError:
            data = {}
    if "benchmark" in data:  # pre-sweep flat layout: start fresh
        data = {}
    data.update(update)
    path.write_text(json.dumps(data, indent=2) + "\n")


def test_localhost_live_gate_and_latency(
    results_dir, record_result, tmp_path
):
    summary, checks = run_experiment(
        receivers=1,
        faults={},  # clean run: measure the steady state, not recovery
        messages=N_MESSAGES,
        samples=SAMPLES,
        rate_scale=RATE_SCALE,
        trigger_period=10,
        feedback_period=8,
        interval=INTERVAL,
        timeout=180.0,
        batching=True,
        outdir=tmp_path,
    )
    failed = [(name, detail) for name, passed, detail in checks if not passed]
    assert not failed, f"live-run checks failed: {failed}"

    (receiver,) = summary["receivers"]
    (subscriber,) = summary["publisher"]["subscribers"]
    transport = subscriber["transport"]
    msgs_per_sec = float(receiver["msgs_per_second"])
    latency = receiver["latency_by_pse"]
    assert msgs_per_sec > 0
    assert latency, "no per-PSE latency samples"
    assert transport["batches_sent"] >= 1, "no batch frame on the wire"

    payload = {
        "n_messages": N_MESSAGES,
        "samples_per_reading": SAMPLES,
        "rate_scale": RATE_SCALE,
        "msgs_per_sec": round(msgs_per_sec, 1),
        "plan_ships": receiver["plan_ships"],
        "initial_plan_edges": summary["publisher"]["initial_plan_edges"],
        "final_plan_edges": subscriber["plan_edges"],
        "latency_by_pse": {
            pse: {
                "count": stats["count"],
                "p50_ms": round(stats["p50"] * 1e3, 3),
                "p95_ms": round(stats["p95"] * 1e3, 3),
            }
            for pse, stats in latency.items()
        },
        "transport": {
            "frames_sent": transport["frames_sent"],
            "frame_bytes_sent": transport["frame_bytes_sent"],
            "heartbeats_echoed": transport["heartbeats_seen"],
            "batches_sent": transport["batches_sent"],
            "batched_frames_sent": transport["batched_frames_sent"],
        },
    }
    _merge_results(results_dir, {"live_end_to_end": payload})

    lines = [
        f"throughput:  {msgs_per_sec:10.1f} msg/s "
        f"({N_MESSAGES} messages end-to-end, batching on)",
        f"plan:        {payload['initial_plan_edges']} -> "
        f"{payload['final_plan_edges']} "
        f"({payload['plan_ships']} ship(s) mid-run)",
        "one-way latency per active PSE:",
    ]
    for pse in sorted(payload["latency_by_pse"]):
        stats = payload["latency_by_pse"][pse]
        lines.append(
            f"  {pse:<10} n={stats['count']:<4} "
            f"p50={stats['p50_ms']:8.3f}ms p95={stats['p95_ms']:8.3f}ms"
        )
    record_result("net_localhost", "\n".join(lines))
