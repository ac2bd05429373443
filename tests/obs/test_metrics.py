"""Unit tests for the metrics primitives."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_increments():
    c = Counter("x")
    assert c.value == 0.0
    c.inc()
    c.inc(2.5)
    assert c.value == 3.5


def test_counter_rejects_negative():
    c = Counter("x")
    with pytest.raises(ValueError, match="non-negative"):
        c.inc(-1.0)


def test_gauge_keeps_last_value():
    g = Gauge("depth")
    g.set(3)
    g.set(1.5)
    assert g.value == 1.5


def test_histogram_buckets_inclusive_upper_bounds():
    h = Histogram("sizes", bounds=(1.0, 10.0, 100.0))
    for value in (0.5, 1.0, 5.0, 10.0, 99.0, 1000.0):
        h.observe(value)
    assert h.counts == [2, 2, 1, 1]  # 1000.0 overflows
    assert h.count == 6
    assert h.total == pytest.approx(1115.5)
    assert h.mean == pytest.approx(1115.5 / 6)


def test_histogram_validates_bounds():
    with pytest.raises(ValueError, match="at least one"):
        Histogram("h", bounds=())
    with pytest.raises(ValueError, match="strictly increasing"):
        Histogram("h", bounds=(1.0, 1.0))


def test_registry_get_or_create_returns_same_instrument():
    reg = MetricsRegistry()
    assert reg.counter("a.b") is reg.counter("a.b")
    assert reg.gauge("g") is reg.gauge("g")
    assert reg.histogram("h") is reg.histogram("h")


def test_registry_rejects_cross_kind_collisions():
    reg = MetricsRegistry()
    reg.counter("name")
    with pytest.raises(ValueError, match="already registered as a counter"):
        reg.gauge("name")
    with pytest.raises(ValueError, match="already registered as a counter"):
        reg.histogram("name")


def test_registry_exports_sorted_and_serializable():
    import json

    reg = MetricsRegistry()
    reg.counter("z.last").inc(2)
    reg.counter("a.first").inc()
    reg.gauge("mid").set(7)
    reg.histogram("sizes", bounds=DEFAULT_BUCKETS).observe(42.0)
    assert [c.name for c in reg.counters()] == ["a.first", "z.last"]
    data = reg.to_dict()
    assert data["counters"] == {"a.first": 1.0, "z.last": 2.0}
    assert data["gauges"] == {"mid": 7.0}
    assert data["histograms"]["sizes"]["count"] == 1
    json.dumps(data)  # round-trippable


class _Owner:
    def __init__(self):
        self.sent = 3
        self.queued = 2

    def read(self):
        return {"counters": {"sent": self.sent}, "gauges": {"q": self.queued}}


def test_reader_values_are_read_at_dump_time_from_the_add():
    reg = MetricsRegistry()
    owner = _Owner()
    reg.add_reader(owner.read)
    reg.add_reader(owner.read)  # the same bound method: read once
    owner.sent, owner.queued = 10, 5
    data = reg.to_dict()
    assert data["counters"] == {"sent": 7.0}  # counts from the add
    assert data["gauges"] == {"q": 5.0}
    reg.counter("sent").inc(1)  # a counter name read twice adds up
    assert [(c.name, c.value) for c in reg.counters()] == [("sent", 8.0)]
    reg.remove_reader(owner.read)
    owner.sent = 99
    assert reg.to_dict()["counters"] == {"sent": 8.0}  # kept, not read
    assert reg.to_dict()["gauges"] == {"q": 5.0}


def test_reader_names_colliding_across_kinds_raise_on_the_dump():
    reg = MetricsRegistry()
    reg.add_reader(lambda: {"gauges": {"x": 1.0}})
    reg.add_reader(lambda: {"gauges": {"x": 2.0}})
    with pytest.raises(ValueError, match="gauge 'x'"):
        reg.to_dict()
    reg = MetricsRegistry()
    reg.gauge("y")
    reg.add_reader(lambda: {"counters": {"y": 1}})
    with pytest.raises(ValueError, match="metric 'y'"):
        reg.to_dict()


# -- bucket_quantile / Histogram.quantile edge cases ---------------------------


def test_quantile_empty_histogram_is_zero():
    from repro.obs.metrics import bucket_quantile

    h = Histogram("h", bounds=(1.0, 2.0))
    assert h.quantile(0.5) == 0.0
    assert bucket_quantile((1.0, 2.0), [0, 0, 0], 0.99) == 0.0


def test_quantile_rejects_empty_bounds_and_bad_q():
    from repro.obs.metrics import bucket_quantile

    with pytest.raises(ValueError, match="at least one bound"):
        bucket_quantile((), [], 0.5)
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        bucket_quantile((1.0,), [1, 0], 1.5)
    with pytest.raises(ValueError, match="in \\[0, 1\\]"):
        bucket_quantile((1.0,), [1, 0], -0.1)


def test_quantile_single_bucket_interpolates_from_zero():
    h = Histogram("h", bounds=(10.0,))
    for _ in range(4):
        h.observe(5.0)
    # All mass in [0, 10]: q=0.5 interpolates to the middle of the bucket.
    assert h.quantile(0.5) == pytest.approx(5.0)
    assert h.quantile(1.0) == pytest.approx(10.0)


def test_quantile_q_zero_and_one():
    h = Histogram("h", bounds=(1.0, 2.0, 4.0))
    h.observe(0.5)
    h.observe(1.5)
    h.observe(3.0)
    # q=0 targets rank 0: the infimum of the first occupied bucket.
    assert h.quantile(0.0) == pytest.approx(0.0)
    assert h.quantile(1.0) == pytest.approx(4.0)


def test_quantile_all_overflow_reports_last_bound():
    h = Histogram("h", bounds=(1.0, 2.0))
    for _ in range(5):
        h.observe(100.0)
    # Deliberate underestimate: the overflow bucket has no upper bound.
    assert h.quantile(0.5) == 2.0
    assert h.quantile(0.99) == 2.0


# -- snapshot_delta ------------------------------------------------------------


def _snap(reg):
    return reg.to_dict()


def test_snapshot_delta_counters_difference():
    from repro.obs.metrics import snapshot_delta

    reg = MetricsRegistry()
    reg.counter("a").inc(3)
    before = _snap(reg)
    reg.counter("a").inc(2)
    reg.counter("b").inc(7)  # absent from prev: implicit zero baseline
    delta = snapshot_delta(before, _snap(reg))
    assert delta["counters"] == {"a": 2.0, "b": 7.0}


def test_snapshot_delta_counter_reset_uses_current_value():
    from repro.obs.metrics import snapshot_delta

    prev = {"counters": {"a": 100.0}, "histograms": {}}
    curr = {"counters": {"a": 4.0}, "histograms": {}}
    assert snapshot_delta(prev, curr)["counters"] == {"a": 4.0}


def test_snapshot_delta_labeled_series_first_appearance_is_full_value():
    from repro.obs.metrics import snapshot_delta

    reg = MetricsRegistry()
    reg.counter('broker.dropped_frames{peer="r0"}').inc(2)
    h = reg.histogram('net.publish.phase_seconds{phase="modulate"}')
    h.observe(0.5)
    before = _snap(reg)
    # A new peer and a new phase appear mid-window: their deltas are
    # the full current values (implicit zero baseline), not a KeyError.
    reg.counter('broker.dropped_frames{peer="r1"}').inc(7)
    h2 = reg.histogram('net.publish.phase_seconds{phase="fork"}')
    h2.observe(0.25)
    h2.observe(0.75)
    delta = snapshot_delta(before, _snap(reg))
    assert delta["counters"]['broker.dropped_frames{peer="r1"}'] == 7.0
    assert delta["counters"]['broker.dropped_frames{peer="r0"}'] == 0.0
    fork = delta["histograms"]['net.publish.phase_seconds{phase="fork"}']
    assert fork["count"] == 2
    assert fork["total"] == pytest.approx(1.0)
    modulate = delta["histograms"][
        'net.publish.phase_seconds{phase="modulate"}'
    ]
    assert modulate["count"] == 0  # unchanged series: empty delta


def test_snapshot_delta_histograms_difference_buckets():
    from repro.obs.metrics import bucket_quantile, snapshot_delta

    reg = MetricsRegistry()
    h = reg.histogram("lat", bounds=(1.0, 10.0))
    h.observe(0.5)
    before = _snap(reg)
    h.observe(5.0)
    h.observe(100.0)
    delta = snapshot_delta(before, _snap(reg))["histograms"]["lat"]
    assert delta["count"] == 2
    assert delta["total"] == pytest.approx(105.0)
    assert delta["counts"] == [0, 1, 1]
    # Interval quantiles are computable from the delta alone.
    assert bucket_quantile(delta["bounds"], delta["counts"], 0.5) > 1.0


def test_snapshot_delta_histogram_reset_or_rebucket_uses_current():
    from repro.obs.metrics import snapshot_delta

    curr = {
        "counters": {},
        "histograms": {
            "h": {"bounds": [1.0], "counts": [2, 1], "total": 4.0,
                  "count": 3}
        },
    }
    shrunk = {
        "counters": {},
        "histograms": {
            "h": {"bounds": [1.0], "counts": [5, 2], "total": 9.0,
                  "count": 7}
        },
    }
    rebucketed = {
        "counters": {},
        "histograms": {
            "h": {"bounds": [2.0], "counts": [1, 0], "total": 1.0,
                  "count": 1}
        },
    }
    for prev in (shrunk, rebucketed, {"counters": {}, "histograms": {}}):
        delta = snapshot_delta(prev, curr)["histograms"]["h"]
        assert delta["count"] == 3
        assert delta["counts"] == [2, 1]


def test_registry_snapshot_delta_method_matches_function():
    reg = MetricsRegistry()
    reg.counter("x").inc(1)
    before = reg.to_dict()
    reg.counter("x").inc(4)
    assert reg.snapshot_delta(before)["counters"] == {"x": 4.0}
