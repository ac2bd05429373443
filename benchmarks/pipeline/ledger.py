"""Per-layer metrics of the traced run.

Layers are ``src/repro`` modules.  Times are microseconds of *self*
time per message unless a name says otherwise: sender rows are per
publish, receiver rows per delivery.  Sender self times sum to the
publish span exactly (see ``spans.py``); what process CPU the spans do
not cover is reported as the ``*_unattributed_us`` rows, never hidden.

A layer a workload does not exercise reports 0 for its rows, so every
run prints the same names.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence, Tuple

import stats
from spans import SpanRecorder

Metric = Tuple[float, str]

#: name -> unit, in print order; BENCHMARK.json's per_layer mirrors it
PER_LAYER_UNITS: Dict[str, str] = {
    "ir.execute_us": "us",
    "ir.lower_us": "us",
    "ir.first_call_us": "us",
    "ir.codegen_fallbacks": "count",
    "analysis.context_us": "us",
    "analysis.ug_nodes": "count",
    "analysis.target_paths": "count",
    "core.modulate_us": "us",
    "core.demodulate_us": "us",
    "core.cont_size_us": "us",
    "core.convexcut_us": "us",
    "core.pse_count": "count",
    "core.fork_us": "us",
    "core.forks_per_publish": "count",
    "core.split_overhead_ratio": "ratio",
    "core.runtime.feedback_flush_us": "us",
    "core.runtime.ingest_us": "us",
    "core.runtime.consider_us": "us",
    "core.runtime.consider_fired_us": "us",
    "core.runtime.feedback_bytes_per_msg": "B",
    "core.runtime.plan_switches": "count",
    "core.runtime.adapt_lag_msgs": "count",
    "serialization.serialize_us": "us",
    "serialization.deserialize_us": "us",
    "serialization.payload_bytes_per_msg": "B",
    "net.framing.encode_us": "us",
    "net.framing.feed_us": "us",
    "net.framing.decode_us": "us",
    "net.framing.frames_per_feed": "count",
    "net.framing.compactions": "count",
    "net.framing.overhead_bytes_per_msg": "B",
    "net.tcp.send_call_us": "us",
    "net.tcp.enqueue_us": "us",
    "net.tcp.transit_us_p50": "us",
    "net.tcp.queue_depth_p95": "count",
    "net.tcp.frames_per_batch": "count",
    "net.tcp.dropped_frames": "count",
    "net.tcp.reconnects": "count",
    "net.tcp.sender_unattributed_us": "us",
    "net.tcp.receiver_unattributed_us": "us",
    "net.endpoint.publish_self_us": "us",
    "net.endpoint.handle_self_us": "us",
    "net.endpoint.retractions": "count",
    "net.endpoint.absorbed": "count",
    "net.endpoint.duplicates_skipped": "count",
    "net.broker.publish_self_us": "us",
    "net.broker.ship_us": "us",
    "net.broker.shared_runs_per_publish": "count",
    "net.broker.plan_cache_hit_ratio": "ratio",
    "pipeline.publish_call_us_p50": "us",
    "pipeline.latency_p50_ms": "ms",
    "pipeline.latency_p95_ms": "ms",
    "harness.generator_late_p99_ms": "ms",
    "harness.window_stalls": "count",
    "harness.segment_rate_median": "msg/s",
    "harness.latency_p99_ms": "ms",
    "harness.publish_call_us_p99": "us",
    "harness.trace_overhead_fraction": "ratio",
}

#: per-layer rows where a larger number is the better one
HIGHER_IS_BETTER = frozenset(
    {
        "net.framing.frames_per_feed",
        "net.tcp.frames_per_batch",
        "net.broker.plan_cache_hit_ratio",
    }
)


class _Child:
    """Read-only view of the child's span totals."""

    def __init__(self, spans: Mapping[str, object]) -> None:
        self._stats = spans["stats"]
        self.root_total = spans["root_total_s"]

    def total(self, name: str) -> float:
        return self._stats.get(name, {}).get("total_s", 0.0)

    def self_time(self, name: str) -> float:
        return self._stats.get(name, {}).get("self_s", 0.0)

    def count(self, name: str) -> int:
        return self._stats.get(name, {}).get("count", 0)


def adapt_lags(
    shifts: Sequence[Sequence[float]], switches: Sequence[int]
) -> List[int]:
    """Messages from each rate shift to the first publish on a new plan.

    ``shifts`` holds the index of the first message demodulated at each
    new scale, ``switches`` the index of the first message published
    after each applied plan.  A shift the next shift overtakes before
    any plan arrives contributes nothing.
    """
    lags: List[int] = []
    for i, (at, _scale) in enumerate(shifts):
        until = shifts[i + 1][0] if i + 1 < len(shifts) else float("inf")
        answer = next((s for s in switches if at <= s < until), None)
        if answer is not None:
            lags.append(int(answer - at))
    return lags


def per_layer(
    *,
    sender: SpanRecorder,
    setup: SpanRecorder,
    child: Mapping[str, object],
    counters: Mapping[str, float],
) -> Dict[str, Metric]:
    """Every per-layer metric from the spans and the plain counters.

    ``counters`` carries what is not a span: bare-run time, byte
    tallies, transport and endpoint counters, CPU deltas of the traced
    phase, and the harness's own figures (see ``harness.run_traced``).
    """
    receiver = _Child(child["spans"])
    traced = child["traced"]
    n = max(sender.count("publish"), 1)
    d = max(receiver.count("demodulator.process"), 1)
    is_broker = bool(counters["is_broker"])

    def per_publish(seconds: float) -> float:
        return seconds / n * 1e6

    def per_delivery(seconds: float) -> float:
        return seconds / d * 1e6

    modulate = per_publish(
        sender.total("interp.run" if is_broker else "modulator.process")
    )
    demodulate = per_delivery(receiver.total("demodulator.process"))
    execute = counters["bare_execute_us"]
    considers = receiver.count("reconfig.consider")
    fired = int(traced.get("considers_fired", 0))
    fired_s = traced.get("consider_fired_s", 0.0)
    quiet = max(considers - fired, 1)
    cont_frames = max(counters["cont_frames"], 1)
    writes = (
        counters["frames_sent"]
        - counters["batched_frames_sent"]
        + counters["batches_sent"]
    )
    publish_self = per_publish(sender.self_time("publish"))
    values: Dict[str, float] = {
        "ir.execute_us": execute,
        "ir.lower_us": setup.total("setup.lower_function") * 1e6,
        "ir.first_call_us": counters["first_call_us"],
        "ir.codegen_fallbacks": counters["codegen_fallbacks"],
        "analysis.context_us": setup.total("setup.analysis_context") * 1e6,
        "analysis.ug_nodes": counters["ug_nodes"],
        "analysis.target_paths": counters["target_paths"],
        "core.modulate_us": modulate,
        "core.demodulate_us": demodulate,
        "core.cont_size_us": per_publish(sender.total("cont.size")),
        "core.convexcut_us": setup.total("setup.convex_cut") * 1e6,
        "core.pse_count": counters["pse_count"],
        "core.fork_us": per_publish(
            sender.total("fork.encode")
            + sender.total("fork.decode")
            + sender.total("interp.resume")
        ),
        "core.forks_per_publish": sender.count("interp.resume") / n,
        "core.split_overhead_ratio": (modulate + demodulate) / execute,
        "core.runtime.feedback_flush_us": per_publish(
            sender.total("proxy.flush") + sender.total("send.feedback")
        ),
        "core.runtime.ingest_us": per_delivery(
            receiver.total("runtime.ingest")
        ),
        "core.runtime.consider_us": (
            (receiver.total("reconfig.consider") - fired_s) / quiet * 1e6
        ),
        "core.runtime.consider_fired_us": (
            fired_s / fired * 1e6 if fired else 0.0
        ),
        "core.runtime.feedback_bytes_per_msg": (
            counters["feedback_frame_bytes"] / n
        ),
        "core.runtime.plan_switches": counters["plan_switches"],
        "core.runtime.adapt_lag_msgs": counters["adapt_lag_msgs"],
        "serialization.serialize_us": per_publish(
            sender.total("serialize.cont")
        ),
        "serialization.deserialize_us": per_delivery(
            receiver.total("serializer.deserialize")
        ),
        "serialization.payload_bytes_per_msg": (
            counters["cont_payload_bytes"] / cont_frames
        ),
        "net.framing.encode_us": per_publish(
            sender.self_time("encode.cont")
        ),
        "net.framing.feed_us": per_delivery(receiver.total("framing.feed")),
        "net.framing.decode_us": per_delivery(
            receiver.self_time("codec.decode")
        ),
        "net.framing.frames_per_feed": (
            traced["frames_fed"] / max(traced["feeds"], 1)
        ),
        "net.framing.compactions": traced.get("compactions", 0),
        "net.framing.overhead_bytes_per_msg": (
            counters["cont_frame_bytes"] / cont_frames
            - counters["cont_variables_bytes"]
        ),
        "net.tcp.send_call_us": per_publish(sender.total("send.cont")),
        "net.tcp.enqueue_us": per_publish(sender.self_time("send.cont")),
        "net.tcp.transit_us_p50": child["transit_us_p50"],
        "net.tcp.queue_depth_p95": counters["queue_depth_p95"],
        "net.tcp.frames_per_batch": (
            counters["frames_sent"] / writes if writes else 0.0
        ),
        "net.tcp.dropped_frames": counters["dropped_frames"],
        "net.tcp.reconnects": counters["reconnects"],
        "net.tcp.sender_unattributed_us": per_publish(
            counters["sender_cpu_s"] - sender.root_total
        ),
        "net.tcp.receiver_unattributed_us": per_delivery(
            counters["receiver_cpu_s"] - receiver.root_total
        ),
        "net.endpoint.publish_self_us": 0.0 if is_broker else publish_self,
        "net.endpoint.handle_self_us": per_delivery(
            receiver.self_time("handler")
        ),
        "net.endpoint.retractions": counters["retractions"],
        "net.endpoint.absorbed": counters["absorbed"],
        "net.endpoint.duplicates_skipped": sum(
            s["duplicates_skipped"] for s in child["subscribers"]
        ),
        "net.broker.publish_self_us": publish_self if is_broker else 0.0,
        "net.broker.ship_us": (
            per_publish(sender.total("send.cont")) if is_broker else 0.0
        ),
        "net.broker.shared_runs_per_publish": (
            sender.count("interp.run") / n if is_broker else 0.0
        ),
        "net.broker.plan_cache_hit_ratio": counters["plan_cache_hit_ratio"],
        "pipeline.publish_call_us_p50": counters["publish_call_us_p50"],
        "pipeline.latency_p50_ms": counters["latency_p50_ms"],
        "pipeline.latency_p95_ms": counters["latency_p95_ms"],
        "harness.generator_late_p99_ms": counters["generator_late_p99_ms"],
        "harness.window_stalls": counters["window_stalls"],
        "harness.segment_rate_median": counters["segment_rate_median"],
        "harness.latency_p99_ms": counters["latency_p99_ms"],
        "harness.publish_call_us_p99": counters["publish_call_us_p99"],
        "harness.trace_overhead_fraction": (
            counters["trace_overhead_fraction"]
        ),
    }
    missing = set(PER_LAYER_UNITS) ^ set(values)
    if missing:
        raise AssertionError(f"per-layer rows out of step: {sorted(missing)}")
    return {
        name: (float(values[name]), unit)
        for name, unit in PER_LAYER_UNITS.items()
    }


def sender_sum_check(sender: SpanRecorder) -> Tuple[float, float]:
    """(sum of sender self times, total of the publish spans), seconds."""
    self_sum = sum(s.self_total for s in sender.stats.values())
    return self_sum, sender.total("publish")


def median_or_zero(values: Sequence[float]) -> float:
    return stats.median(values) if values else 0.0

