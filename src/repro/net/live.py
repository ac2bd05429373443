"""Per-process halves of the live network experiment.

Run each receiver first; it binds an ephemeral port and announces it::

    python -m repro.net.live receiver --messages 120 --out recv.json

    LISTENING 54321

then the publisher connects to every receiver and streams the figure-7
sensor workload::

    python -m repro.net.live publisher --ports 54321 --messages 120 \
        --out publisher.json

A two-process run is a fan-out of one: ``--ports 54321,54322,54323``
publishes the same stream to three receivers (each started with
``--name receiverI --index I`` so their trace dumps merge cleanly),
sharing modulation up to the deepest common split and applying each
receiver's shipped plans per peer.

Every process builds the *same* partitioned sensor handler (same source
→ same PSEs), starts from the same receiver-heavy plan, and runs the
paper's adaptation loop over the socket: a receiver's ``rate_scale``
emulates a loaded consumer host (figure 7's perturbation axis), the
min-cut moves the split toward the publisher, and the new plan ships
back as a PLAN frame mid-stream.  A receiver's faults exercise the
publisher's resilience plane: ``--drop-after N`` injects a TCP reset
after the Nth delivered continuation (reconnect-with-backoff while plan
and profiling history survive), ``--wedge-after`` goes dark mid-stream
(drop-oldest load leveling), and ``--kill-after-plan-ships`` dies by
SIGKILL right after a plan ships.

Each process writes one JSON result file: counters, per-PSE latency
quantiles, the plan timeline, transport statistics and a full
observability dump (whose tracer spans — allocated from disjoint
``id_base`` ranges, stamped with a shared wall clock — merge into one
causal tree; see :mod:`repro.tools.liveexp`).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import time
from typing import Dict, Optional

from repro.apps.sensor.data import make_reading
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.plan import receiver_heavy_plan
from repro.core.runtime.triggers import RateTrigger
from repro.ir import codegen
from repro.net.broker import NetBrokerEndpoint
from repro.net.endpoint import NetReceiverEndpoint
from repro.net.framing import NetEnvelopeCodec
from repro.net.tcp import TcpTransport
from repro.obs import Observability, wide_event
from repro.obs.flight import set_global_recorder
from repro.obs.health import WEDGED, HealthConfig
from repro.obs.metrics import counts

__all__ = ["run_publisher", "run_receiver", "main"]

#: disjoint tracer id ranges so merged dumps never collide
PUBLISHER_ID_BASE = 1 << 40
RECEIVER_ID_BASE = 2 << 40
#: per-receiver-index stride inside the receiver range (fan-out mode);
#: runs record a few thousand spans, so 2^38 ids of headroom is plenty
RECEIVER_ID_STRIDE = 1 << 38


def _calibrate(partitioned, sink, n_samples: int, repeats: int = 5) -> float:
    """Measure this host's seconds-per-cycle against the full handler.

    Per-message overhead (envelope handling, profiling observers,
    trace bookkeeping) amortizes over the handler's whole work here,
    so the rate characterizes the host rather than the split choice —
    a raw per-message measurement on the side holding a sliver of the
    work would be overhead-dominated and inflate that host's apparent
    slowness by orders of magnitude.  The reported rate is the
    *minimum* over the repeats (noise only inflates a run), matching
    the endpoints' post-transition recalibration so that an unchanged
    host re-measures inside the adoption hysteresis band.
    """
    from repro.ir.interpreter import CycleMeter

    # Warm up the generated-code cache before timing.
    partitioned.run_reference(make_reading(0, n_samples))
    best = None
    for i in range(repeats):
        meter = CycleMeter()
        started = time.perf_counter()
        partitioned.interpreter.run(
            partitioned.function,
            (make_reading(i, n_samples),),
            meter=meter,
        )
        elapsed = time.perf_counter() - started
        if meter.cycles > 0:
            rate = elapsed / meter.cycles
            best = rate if best is None else min(best, rate)
    sink.clear()  # calibration deliveries are not experiment results
    return best if best is not None else 1e-7


def _observability(
    host: str, id_base: int, args: argparse.Namespace
) -> Observability:
    obs = Observability(host=host)
    # Wall clock: every process runs on one machine, so timestamps are
    # directly comparable in the merged trace.
    obs.enable_tracing(clock=time.time, host=host, id_base=id_base)
    # The event ring rides along in the result JSON's obs dump, takes
    # this process's wide events, and a SIGTERM (the harness killing a
    # stuck process) still leaves a crash dump next to --out.
    set_global_recorder(obs.flight)
    if args.out:
        obs.flight.install_signal_dump(args.out + ".flight.json")
    if args.profile:
        # Continuous sampling profiler: the dump rides in the result
        # JSON's obs dump and liveexp merges the per-process profiles.
        obs.enable_profiler(
            interval=args.profile_interval, host=host, autostart=True
        )
    return obs


def _finish_profile(obs: Observability) -> None:
    """Stop sampling before the dump so the result JSON is stable."""
    if obs.profiler is not None:
        obs.profiler.stop()


def _health_config(args: argparse.Namespace) -> Optional[HealthConfig]:
    """Build a HealthConfig from ``--stale-*`` overrides, if any.

    The chaos harness shortens the staleness thresholds so a partition
    trips the breaker within a sub-second window instead of the
    production-paced defaults.
    """
    kwargs = {}
    if args.stale_degraded is not None:
        kwargs["stale_degraded"] = args.stale_degraded
    if args.stale_wedged is not None:
        kwargs["stale_wedged"] = args.stale_wedged
    return HealthConfig(**kwargs) if kwargs else None


def run_receiver(args: argparse.Namespace) -> Dict[str, object]:
    name = args.name
    obs = _observability(
        name, RECEIVER_ID_BASE + args.index * RECEIVER_ID_STRIDE, args
    )
    if args.quality:
        # Small window so regret windows close within a short stream.
        obs.enable_quality(regret_window=16)
    partitioned, sink = build_partitioned_process(n_stages=args.n_stages)
    plan = receiver_heavy_plan(partitioned.cut)
    rate = _calibrate(partitioned, sink, args.samples)
    endpoint = NetReceiverEndpoint(
        partitioned,
        plan=plan,
        trigger=RateTrigger(period=args.trigger_period),
        rate_scale=args.rate_scale,
        rate_override=rate,
        drop_after=args.drop_after if args.drop_after > 0 else None,
        codec=NetEnvelopeCodec(partitioned.serializer_registry),
        name=name,
        obs=obs,
        telemetry_interval=args.telemetry_interval,
    )
    wedge_state = {"injected": 0}

    async def amain() -> None:
        _, port = await endpoint.start(args.host, args.port)
        print(f"LISTENING {port}", flush=True)
        if args.expose is not None:
            exposer = endpoint.expose_metrics(args.host, args.expose)
            print(f"EXPOSING {exposer.port}", flush=True)
        started = time.time()
        last_progress = started
        last_count = -1
        while not endpoint.done.is_set():
            if (
                args.kill_after_plan_ships > 0
                and endpoint.plan_ships >= args.kill_after_plan_ships
            ):
                # Chaos fault: die without any goodbye, the hardest way,
                # right inside the plan-apply window — the just-shipped
                # PLAN frame is in flight toward the publisher when the
                # process vanishes.  No flight dump happens here; the
                # surviving processes' recorders are the evidence.
                wide_event(
                    "fault.kill", role=name, plan_ships=endpoint.plan_ships
                )
                sys.stdout.flush()
                os.kill(os.getpid(), signal.SIGKILL)
            if (
                args.wedge_after > 0
                and wedge_state["injected"] == 0
                and endpoint.demodulated >= args.wedge_after
            ):
                # Fault injection: go dark — stop the listener, drop the
                # connection, stay down.  The publisher's bounded
                # per-peer queue must shed this peer's backlog
                # (drop-oldest) while the other peers keep streaming
                # untouched.
                wedge_state["injected"] = 1
                endpoint.self_health.peer("self").force(
                    WEDGED, "injected wedge"
                )
                wide_event(
                    "fault.wedge",
                    role=name,
                    at_message=endpoint.demodulated,
                    seconds=args.wedge_seconds,
                )
                await endpoint.server.stop()
                await asyncio.sleep(args.wedge_seconds)
                await endpoint.server.start(args.host, port)
                endpoint.self_health.peer("self").force(None)
                wide_event(
                    "fault.wedge.clear",
                    role=name,
                    at_message=endpoint.demodulated,
                )
                last_progress = time.time()
            now = time.time()
            if endpoint.demodulated != last_count:
                last_count = endpoint.demodulated
                last_progress = now
            if now - last_progress > args.idle_timeout:
                print("IDLE TIMEOUT", file=sys.stderr, flush=True)
                wide_event(
                    "run.idle_timeout",
                    role=name,
                    demodulated=endpoint.demodulated,
                    idle_seconds=now - last_progress,
                )
                break
            if now - started > args.timeout:
                print("DEADLINE EXCEEDED", file=sys.stderr, flush=True)
                wide_event(
                    "run.deadline_exceeded",
                    role=name,
                    demodulated=endpoint.demodulated,
                    elapsed=now - started,
                )
                break
            await asyncio.sleep(0.05)
        # Report the final state while the publisher still listens: a
        # peer back from a wedge may otherwise hit Bye before its next
        # tick.  Then let a plan frame from the last messages flush out.
        if args.telemetry_interval > 0:
            await endpoint.push_telemetry()
        await asyncio.sleep(0.1)
        await endpoint.stop()

    asyncio.run(amain())
    _finish_profile(obs)

    window = (
        endpoint.last_demod_at - endpoint.first_demod_at
        if endpoint.first_demod_at is not None
        and endpoint.last_demod_at is not None
        else 0.0
    )
    return {
        "role": "receiver",
        "name": name,
        "index": args.index,
        "wedges_injected": wedge_state["injected"],
        **counts(endpoint),
        "delivered": len(sink.results),
        "self_health": endpoint.self_health.to_dict(),
        "sender_reported_sent": endpoint.sender_reported_sent,
        "initial_plan_edges": sorted(list(e) for e in plan.active),
        "final_plan_edges": (
            sorted(list(e) for e in endpoint.sender_plan.active)
            if endpoint.sender_plan is not None
            else []
        ),
        "reconfiguration_count": endpoint.reconfig.reconfiguration_count,
        # the newest recomputes only; the count above covers them all
        "reconfigurations": [
            {
                "at_message": record.at_message,
                "cut_value": record.cut_value,
                "edges": sorted(list(e) for e in record.plan.active),
            }
            for record in endpoint.reconfig.history
        ],
        "window_seconds": window,
        "msgs_per_second": (
            (endpoint.demodulated - 1) / window if window > 0 else 0.0
        ),
        "latency_by_pse": endpoint.latency_quantiles(),
        "server": counts(endpoint.server),
        "codegen_fallbacks": dict(codegen.fallback_counts),
        "quality": (
            endpoint.quality.report()
            if endpoint.quality is not None
            else None
        ),
        "obs": obs.to_dict(),
    }


def run_publisher(args: argparse.Namespace) -> Dict[str, object]:
    """One modulator publishing to every ``--ports`` receiver."""
    obs = _observability("publisher", PUBLISHER_ID_BASE, args)
    partitioned, sink = build_partitioned_process(n_stages=args.n_stages)
    plan = receiver_heavy_plan(partitioned.cut)
    rate = _calibrate(partitioned, sink, args.samples)
    transport = TcpTransport(
        NetEnvelopeCodec(partitioned.serializer_registry),
        name="publisher",
        heartbeat_interval=args.heartbeat,
        connect_timeout=args.timeout,
        send_timeout=5.0,
        # Snappy reconnect: a receiver back from a wedge or a dropped
        # connection should not wait out a long backoff before its
        # backlog drains.
        backoff_cap=0.5,
        queue_limit=args.queue_limit,
        batching=not args.no_batching,
        flush_max_bytes=args.flush_max_bytes,
        flush_max_count=args.flush_max_count,
        flush_interval=args.flush_interval,
    )
    transport.attach_observability(obs, name="transport.tcp")
    transport.start()
    endpoint = NetBrokerEndpoint(
        partitioned,
        transport,
        plan=plan,
        feedback_period=args.feedback_period,
        rate_override=rate,
        recalibrate=lambda: _calibrate(partitioned, sink, args.samples),
        obs=obs,
        health_interval=args.health_interval,
        health_config=_health_config(args),
    )
    ports = [int(p) for p in args.ports.split(",") if p.strip()]
    for i, port in enumerate(ports):
        endpoint.subscribe(args.host, port, name=f"receiver{i}")
    if args.expose is not None:
        exposer = endpoint.expose_metrics(args.host, args.expose)
        print(f"EXPOSING {exposer.port}", flush=True)
    started = time.time()
    for i in range(args.messages):
        endpoint.publish(make_reading(i, args.samples))
        if args.interval > 0:
            time.sleep(args.interval)
    endpoint.finish()
    drained = transport.drain(args.timeout)
    _finish_profile(obs)
    # Snapshot the fleet the instant the drain completes — the Bye
    # frames just delivered are about to tear every connection down,
    # and a "disconnected" wobble at exit would mask the states the
    # run actually produced.
    endpoint.close()
    with endpoint.lock:
        for sub in endpoint.subscribers:
            sub.feed_health()
        fleet_final = endpoint.health.to_dict()
    # Leave a window for PLAN frames racing the tail of the stream.
    time.sleep(0.3)
    elapsed = time.time() - started
    result = {
        "role": "publisher",
        "ports": ports,
        "initial_plan_edges": sorted(list(e) for e in plan.active),
        "elapsed_seconds": elapsed,
        "drained": drained,
        **endpoint.to_dict(),
        "fleet": fleet_final,
        "codegen_fallbacks": dict(codegen.fallback_counts),
        "transport_totals": {
            "messages_sent": transport.messages_sent,
            "bytes_sent": transport.bytes_sent,
        },
        "obs": obs.to_dict(),
    }
    endpoint.close_exposer()
    transport.close()
    return result


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--messages", type=int, default=120)
    parser.add_argument("--samples", type=int, default=64,
                        help="samples per sensor reading")
    parser.add_argument("--n-stages", type=int, default=20)
    parser.add_argument("--timeout", type=float, default=60.0,
                        help="overall per-process deadline (seconds)")
    parser.add_argument("--out", default=None,
                        help="write the JSON result here (default stdout)")
    parser.add_argument("--expose", type=int, default=None, metavar="PORT",
                        help="serve /metrics on this port (0 = ephemeral; "
                        "announced as 'EXPOSING <port>')")
    parser.add_argument("--profile", action="store_true",
                        help="run the continuous sampling profiler; the "
                        "dump rides in the result JSON's obs section")
    parser.add_argument("--profile-interval", type=float, default=None,
                        help="seconds between profiler samples (default "
                        "0.01 = 100 Hz)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.net.live",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="role", required=True)

    recv = sub.add_parser("receiver", help="listen and demodulate")
    _add_common(recv)
    recv.add_argument("--port", type=int, default=0,
                      help="0 binds an ephemeral port (announced on stdout)")
    recv.add_argument("--rate-scale", type=float, default=4.0,
                      help="receiver slowdown factor (emulated load)")
    recv.add_argument("--trigger-period", type=int, default=10)
    recv.add_argument("--drop-after", type=int, default=0,
                      help="inject a TCP reset after the Nth delivery")
    recv.add_argument("--idle-timeout", type=float, default=10.0)
    recv.add_argument("--quality", action="store_true",
                      help="enable regret/drift accounting on the "
                      "authoritative (receiver-side) adaptation loop")
    recv.add_argument("--name", default="receiver",
                      help="host label for this receiver's trace spans")
    recv.add_argument("--index", type=int, default=0,
                      help="fan-out slot: offsets the tracer id range so "
                      "N receiver dumps merge without span collisions")
    recv.add_argument("--wedge-after", type=int, default=0,
                      help="go dark (stop listening) after the Nth "
                      "delivery, for --wedge-seconds (0 disables)")
    recv.add_argument("--wedge-seconds", type=float, default=2.0)
    recv.add_argument("--telemetry-interval", type=float, default=0.25,
                      help="seconds between pushed TELEMETRY frames "
                      "(0 disables the push loop)")
    recv.add_argument("--kill-after-plan-ships", type=int, default=0,
                      help="chaos fault: SIGKILL this process right "
                      "after its Nth shipped plan (0 disables)")

    pub = sub.add_parser(
        "publisher", help="connect to every receiver and fan out"
    )
    _add_common(pub)
    pub.add_argument("--ports", required=True,
                     help="comma-separated receiver ports (one port = "
                     "the two-process run)")
    pub.add_argument("--feedback-period", type=int, default=8)
    pub.add_argument("--interval", type=float, default=0.005,
                     help="pause between published messages (seconds)")
    pub.add_argument("--heartbeat", type=float, default=0.5)
    pub.add_argument("--queue-limit", type=int, default=1024,
                     help="per-subscriber outbound frame bound "
                     "(drop-oldest beyond it)")
    pub.add_argument("--health-interval", type=float, default=0.1,
                     help="background health-evaluator cadence; keeps "
                     "staleness ticking through the drain phase "
                     "(0 disables the thread)")
    pub.add_argument("--stale-degraded", type=float, default=None,
                     help="seconds of peer silence before degraded "
                     "(default: HealthConfig's)")
    pub.add_argument("--stale-wedged", type=float, default=None,
                     help="seconds of peer silence before wedged — "
                     "the breaker's trip signal (default: "
                     "HealthConfig's)")
    pub.add_argument("--no-batching", action="store_true",
                     help="disable wire batching (baseline runs)")
    pub.add_argument("--flush-max-bytes", type=int, default=64 * 1024,
                     help="batch payload budget before a flush")
    pub.add_argument("--flush-max-count", type=int, default=32,
                     help="max frames gathered into one batch")
    pub.add_argument("--flush-interval", type=float, default=0.0,
                     help="seconds a lone frame lingers hoping for "
                     "company (0 = ship immediately)")

    args = parser.parse_args(argv)
    run = run_receiver if args.role == "receiver" else run_publisher
    text = json.dumps(run(args), indent=2, default=str)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
