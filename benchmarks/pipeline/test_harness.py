"""Tests of the benchmark harness itself (not of the program).

Outside tier-1 ``testpaths``; run with
``PYTHONPATH=src python -m pytest benchmarks/pipeline/test_harness.py -q``
(under five seconds, no sockets, no child process).
"""

from __future__ import annotations

import json
import math

import pytest

from paths import BENCHMARK_JSON, ensure_src_on_path

ensure_src_on_path()

import ledger  # noqa: E402
import reference  # noqa: E402
import stats  # noqa: E402
from spans import Seams, SpanRecorder, self_times  # noqa: E402
from workloads import (  # noqa: E402
    BY_NAME,
    SENSOR_STAGES,
    WORKLOADS,
    Sink,
    build_partitioned,
    count_wrong,
    make_pool,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# -- quantiles ----------------------------------------------------------------------


def test_quantile_interpolates_and_orders():
    values = [4.0, 1.0, 3.0, 2.0]
    assert stats.quantile(values, 0.0) == 1.0
    assert stats.quantile(values, 1.0) == 4.0
    assert stats.median(values) == 2.5
    assert stats.quantile(values, 0.75) == pytest.approx(3.25)
    assert stats.quantile([7.0], 0.95) == 7.0


def test_quantile_refuses_empty_and_out_of_range():
    with pytest.raises(ValueError):
        stats.quantile([], 0.5)
    with pytest.raises(ValueError):
        stats.quantile([1.0], 1.5)


# -- spans ------------------------------------------------------------------------------


def _synthetic_tree(recorder: SpanRecorder, clock: FakeClock) -> None:
    # publish [0, 10] ⊃ modulate [1, 5], send [6, 9] ⊃ encode [7, 8]
    recorder.next_trace()
    recorder.begin("publish")
    clock.now = 1.0
    recorder.begin("modulate")
    clock.now = 5.0
    recorder.end()
    clock.now = 6.0
    recorder.begin("send")
    clock.now = 7.0
    recorder.begin("encode")
    clock.now = 8.0
    recorder.end()
    clock.now = 9.0
    recorder.end()
    clock.now = 10.0
    recorder.end()


def test_self_time_is_span_minus_children_and_sums_to_root():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    _synthetic_tree(recorder, clock)
    assert recorder.self_time("publish") == pytest.approx(3.0)
    assert recorder.self_time("modulate") == pytest.approx(4.0)
    assert recorder.self_time("send") == pytest.approx(2.0)
    assert recorder.self_time("encode") == pytest.approx(1.0)
    total_self, publish_total = ledger.sender_sum_check(recorder)
    assert total_self == pytest.approx(publish_total) == pytest.approx(10.0)
    assert recorder.root_total == pytest.approx(10.0)
    # the raw records tell the same story
    assert self_times(recorder.records) == {
        name: pytest.approx(recorder.self_time(name))
        for name in ("publish", "modulate", "send", "encode")
    }
    parents = {r[0]: r[3] for r in recorder.records}
    assert parents["publish"] == -1
    assert recorder.records[parents["encode"]][0] == "send"
    assert {r[4] for r in recorder.records} == {1}


def test_raw_spans_are_kept_for_the_first_traces_only():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock, keep_traces=2)
    for _ in range(5):
        clock.now = 0.0
        _synthetic_tree(recorder, clock)
    assert recorder.count("publish") == 5
    assert len(recorder.records) == 2 * 4
    assert recorder.total("publish") == pytest.approx(50.0)


def test_seams_wrap_and_restore():
    class Codec:
        def size(self, value):
            return len(value)

        @classmethod
        def build(cls):
            return cls()

    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    seams = Seams(recorder)
    codec = Codec()
    seen = []
    seams.wrap(codec, "size", "codec.size",
               after=lambda result, _d, value: seen.append((result, value)))
    seams.wrap(Codec, "build", "codec.build")
    assert seams.installed
    assert codec.size("abc") == 3
    assert isinstance(Codec.build(), Codec)
    assert seen == [(3, "abc")]
    assert recorder.count("codec.size") == 1
    assert recorder.count("codec.build") == 1
    seams.remove()
    assert not seams.installed
    assert "size" not in vars(codec)
    assert isinstance(vars(Codec)["build"], classmethod)
    assert codec.size("abcd") == 4
    assert recorder.count("codec.size") == 1


# -- open loop --------------------------------------------------------------------------


def test_open_loop_keeps_schedule_when_sends_are_fast():
    clock = FakeClock()
    due = stats.due_times(1.0, 10.0, 5)
    assert due == pytest.approx([1.0, 1.1, 1.2, 1.3, 1.4])
    started = []

    def send(i):
        started.append(clock.now)
        clock.now += 0.01

    late = stats.run_open_loop(due, send, clock=clock, sleep=clock.sleep)
    assert started == pytest.approx(due)
    assert late == pytest.approx([0.0] * 5)


def test_open_loop_charges_a_stall_to_the_system_not_the_generator():
    clock = FakeClock()
    due = stats.due_times(0.0, 10.0, 4)
    started = []

    def send(i):
        started.append(clock.now)
        clock.now += 0.25 if i == 0 else 0.01  # first send stalls 250 ms

    late = stats.run_open_loop(due, send, clock=clock, sleep=clock.sleep)
    # messages 1 and 2 start behind schedule (latency from due time sees
    # it) but the generator itself was never the one waiting
    assert started[1] == pytest.approx(0.25)
    assert started[1] - due[1] == pytest.approx(0.15)
    assert late == pytest.approx([0.0] * 4)


def test_open_loop_reports_a_slow_generator():
    clock = FakeClock()
    due = stats.due_times(0.0, 10.0, 3)

    def oversleep(seconds):
        clock.now += seconds + 0.003

    late = stats.run_open_loop(
        due, lambda i: None, clock=clock, sleep=oversleep
    )
    assert late[0] == 0.0
    assert late[1:] == pytest.approx([0.003, 0.003])


# -- seeds and references ----------------------------------------------------------------------


def test_same_seed_same_stream_other_seed_other_stream():
    workload = BY_NAME["small_flood"]
    events_a, digests_a = make_pool(workload, 7)
    events_b, digests_b = make_pool(workload, 7)
    events_c, _ = make_pool(workload, 8)
    assert events_a == events_b and digests_a == digests_b
    assert events_a != events_c
    order = stats.event_order(7, workload.pool_size, 1000)
    assert order == stats.event_order(7, workload.pool_size, 1000)
    assert order != stats.event_order(8, workload.pool_size, 1000)
    sensor = BY_NAME["sensor_shift"]
    readings_a, _ = make_pool(sensor, 7)
    readings_b, _ = make_pool(sensor, 7)
    assert [r.samples for r in readings_a] == [r.samples for r in readings_b]
    frames_a, _ = make_pool(BY_NAME["bulk_frames"], 7)
    frames_b, _ = make_pool(BY_NAME["bulk_frames"], 7)
    assert [f.pixels for f in frames_a] == [f.pixels for f in frames_b]


class Keep:
    """A sink that keeps results, for comparing against the reference."""

    def __init__(self) -> None:
        self.results = []

    def __call__(self, result) -> None:
        self.results.append(result)


def test_sensor_reference_equals_run_reference():
    from repro.apps.sensor.pipeline import build_partitioned_process

    keep = Keep()
    partitioned, _ = build_partitioned_process(
        n_stages=SENSOR_STAGES, sink=keep
    )
    events, _ = make_pool(BY_NAME["sensor_shift"], 3)
    for event in events[:16]:
        partitioned.run_reference(event)
    assert keep.results == [
        reference.sensor_reference(e.samples, SENSOR_STAGES)
        for e in events[:16]
    ]


@pytest.mark.parametrize("name", ["small_flood", "dispatch_bound"])
def test_arith_reference_equals_run_reference(name):
    workload = BY_NAME[name]
    sink = Sink(workload.handler, lambda: 0.0)
    partitioned = build_partitioned(workload, sink)
    events, digests = make_pool(workload, 3)
    for event in events[:16]:
        partitioned.run_reference(event)
    assert list(sink.digests) == [
        reference.digest_int(reference.arith_reference(x, workload.n_iters))
        for x in events[:16]
    ]
    assert count_wrong(workload, sink.digests, range(16), digests) == 0


def test_image_reference_equals_run_reference():
    import random

    from repro.apps.imagestream.app import build_partitioned_push
    from repro.apps.imagestream.data import ImageFrame

    keep = Keep()
    partitioned, _ = build_partitioned_push(display_size=12, display=keep)
    rng = random.Random(5)
    frames = [
        ImageFrame(edge, edge, rng.randbytes(edge * edge))
        for edge in (6, 20, 12, 9) * 4
    ]
    for frame in frames:
        partitioned.run_reference(frame)
    assert len(keep.results) == 16
    for frame, got in zip(frames, keep.results):
        want = reference.image_reference(
            frame.width, frame.height, frame.pixels, 12
        )
        assert (got.width, got.height, got.pixels) == want


def test_digests_tell_results_apart_and_count_wrong_counts():
    workload = BY_NAME["bulk_frames"]
    a = bytes(range(256)) * 1024
    b = bytearray(a)
    b[5000] ^= 1
    assert reference.digest_frame(512, 512, a, True) != (
        reference.digest_frame(512, 512, bytes(b), True)
    )
    assert reference.digest_frame(512, 512, a, True) != (
        reference.digest_frame(512, 512, a, False)
    )
    pool = [(1, 2), (3, 4)]
    every = reference.FULL_FRAME_CHECK_EVERY
    order = [0, 1] * every
    good = [
        pool[k][1 if i % every == 0 else 0] for i, k in enumerate(order)
    ]
    assert count_wrong(workload, good, order, pool) == 0
    bad = list(good)
    bad[0], bad[3] = 1, 99
    assert count_wrong(workload, bad, order, pool) == 2


# -- quiet-quarter estimators ------------------------------------------------------------------------


def test_closed_phase_reads_the_segments_the_host_left_alone():
    from array import array

    import harness

    # 20 segments of 1 s; two are quiet (1000 msg/s, 100 us/msg of CPU,
    # 50 us publishes), the others slowed by the host to a varying degree
    publish = array("d")
    segments = []
    slowdowns = [1.0, 1.6, 1.3, 1.0, 1.5, 1.4, 1.9, 1.2, 1.1, 1.7] + [1.4] * 10
    for slow in slowdowns:
        first = len(publish)
        publish.extend([50e-6 * slow] * 10)
        segments.append(
            harness.Segment(
                seconds=1.0,
                delivered=int(1000 / slow),
                cpu_s=int(1000 / slow) * 100e-6 * slow,
                calls=(first, len(publish)),
            )
        )
    mark = harness.Mark(0, 0.0, 0.0, 0, 0)
    closed = harness.ClosedResult(segments, publish, 0, mark, mark)
    assert [s.rate for s in closed.quiet()] == [1000.0, 1000.0]
    assert closed.rate == pytest.approx(1000.0)
    assert closed.cpu_us_per_msg == pytest.approx(100.0)
    assert closed.publish_call_us_p50 == pytest.approx(50.0)


def test_paced_phase_latency_windows_and_quiet_pool():
    from array import array

    import harness

    rate = 100.0
    due = stats.due_times(10.0, rate, 400)  # 4 s -> 8 windows of 50
    # latency 1 ms, except windows 2-7 which the host disturbs (+4 ms)
    stamps = array("d", [0.0] * 5)  # five earlier deliveries
    for index, when in enumerate(due):
        disturbed = (index // 50) >= 2
        stamps.append(when + (0.005 if disturbed else 0.001))
    paced = harness.PacedResult(5, due, [0.0] * 400, rate, 0, [])
    windows = harness.latencies_ms(paced, {"deliveries": [(None, stamps)]})
    assert [len(w) for w in windows] == [50] * 8
    assert stats.median(windows[0]) == pytest.approx(1.0)
    assert stats.median(windows[5]) == pytest.approx(5.0)
    keep = harness.quiet_windows(windows)
    assert sorted(keep) == [0, 1]
    quiet = harness.pooled(windows, keep)
    assert len(quiet) == 100
    assert stats.quantile(quiet, 0.95) == pytest.approx(1.0)
    # lateness is cut into the same windows
    late = paced.windows([0.0] * 100 + [4.0] * 300)
    assert max(harness.pooled(late, keep)) == 0.0


# -- ledger ---------------------------------------------------------------------------------------


def test_adapt_lags_pairs_each_shift_with_the_next_switch():
    shifts = [[300, 0.25], [600, 4.0], [900, 0.25], [1200, 4.0]]
    switches = [313, 611, 1250]
    assert ledger.adapt_lags(shifts, switches) == [13, 11, 50]
    assert ledger.adapt_lags([], [5]) == []
    assert ledger.median_or_zero([]) == 0.0


def test_benchmark_json_matches_the_harness():
    contract = json.loads(BENCHMARK_JSON.read_text())
    assert contract["paths"] == ["benchmarks/pipeline"]
    assert [w["name"] for w in contract["workloads"]] == [
        w.name for w in WORKLOADS
    ]
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        w.name: w.why for w in WORKLOADS
    }
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == (
        ledger.PER_LAYER_UNITS
    )
    for metric in contract["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25 and math.isfinite(metric["bound"])
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
