"""Unit tests for distributed profiling feedback.

The differential oracle throughout is *direct recording*: :class:`Oracle`
logs the calls made on a proxy and, at flush time, applies them one by
one to a twin :class:`ProfilingUnit` — what the wire used to replay.
Folding and merging must leave the authoritative unit where that leaves
the twin, to floating-point rounding.
"""

import dataclasses
import functools
import random
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps.sensor.data import SensorReading
from repro.apps.sensor.pipeline import build_partitioned_process
from repro.core.plan import PartitioningPlan, receiver_heavy_plan
from repro.core.runtime.feedback import (
    RemoteProfilingProxy,
    ingest,
    pack_summary,
    packed_size,
    unpack_summary,
)
from repro.core.runtime.profiling import (
    K_IS_TRAVERSALS,
    STAT_NAMES,
    FeedbackSummary,
    PSEStats,
    RunningStat,
)
from repro.core.runtime.triggers import RateTrigger
from repro.jecho.events import FeedbackEnvelope
from repro.errors import ProtocolError
from repro.net.framing import KIND_FEEDBACK, NetEnvelopeCodec
from tests.conftest import ImageData

REL = 1e-9
SENSOR_RATE = 2e-8


class Oracle:
    """A proxy whose flush also replays the calls it saw into *twin*."""

    def __init__(self, proxy, twin):
        self.proxy, self.twin, self.log = proxy, twin, []

    def __getattr__(self, name):
        target = getattr(self.proxy, name)
        if not name.startswith("record_"):
            return target

        def logged(*args, **kwargs):
            self.log.append((name, args, kwargs))
            return target(*args, **kwargs)

        return logged

    def flush(self):
        for name, args, kwargs in self.log:
            getattr(self.twin, name)(*args, **kwargs)
        self.log.clear()
        return self.proxy.flush()


def positional_plan(cut, position):
    """Per TargetPath, activate its first, middle or last PSE."""
    if position == "first":
        return receiver_heavy_plan(cut)
    active = set()
    for path, edges in cut.path_pse_edges:
        order = {e: i for i, e in enumerate(path.edges)}
        ranked = sorted(edges, key=lambda e: order.get(e, 1 << 30))
        active.add(ranked[len(ranked) // 2 if position == "middle" else -1])
    return PartitioningPlan(active=frozenset(active), name=position)


def sensor_events(n, seed=7):
    rng = random.Random(seed)
    return [
        SensorReading([rng.uniform(-1.0, 1.0) for _ in range(16)], seq=i)
        for i in range(n)
    ]


def assert_units_equal(unit, twin):
    """Every number a plan decision can read, to rounding."""
    assert unit.messages_seen == twin.messages_seen
    assert unit.executions_completed == twin.executions_completed
    assert unit.measurements_taken == twin.measurements_taken
    for name in ("sender_rate", "receiver_rate", "total_work"):
        a, b = getattr(unit, name), getattr(twin, name)
        assert a.count == b.count, name
        assert a.mean == pytest.approx(b.mean, rel=REL, abs=0.0), name
    snap, twin_snap = unit.snapshot(), twin.snapshot()
    assert set(snap) == set(twin_snap)
    for edge, a in snap.items():
        for f in dataclasses.fields(a):
            got, want = getattr(a, f.name), getattr(twin_snap[edge], f.name)
            if isinstance(want, float):
                want = pytest.approx(want, rel=REL, abs=0.0)
            assert got == want, (edge, f.name)


# -- (a) the fold -------------------------------------------------------------

finite = st.floats(-1e6, 1e6, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(
    alpha=st.floats(0.01, 1.0),
    prior=st.one_of(st.none(), st.tuples(finite, st.integers(1, 50))),
    values=st.lists(finite, min_size=1, max_size=64),
    cut=st.integers(0, 64),
)
def test_fold_merge_equals_sequential_updates(alpha, prior, values, cut):
    def fresh():
        stat = RunningStat(alpha=alpha)
        if prior is not None:
            stat.mean, stat.count = prior
        return stat

    def fold(xs):
        window = RunningStat(alpha=alpha)
        for x in xs:
            window.update(x)
        return window.count, window.first, window.mean

    sequential, merged, in_two = fresh(), fresh(), fresh()
    for x in values:
        sequential.update(x)
    merged.merge(*fold(values))
    in_two.merge(*fold(values[:cut]))
    in_two.merge(*fold(values[cut:]))
    scale = max(map(abs, values + [sequential.mean, fresh().mean]))
    for stat in (merged, in_two):
        assert stat.count == sequential.count
        assert stat.mean == pytest.approx(sequential.mean, abs=REL * scale)


# -- (b) proxy + ingest equals direct recording -------------------------------


def test_proxy_gating_matches_unit(push_partitioned):
    unit = push_partitioned.make_profiling_unit(sample_period=3)
    proxy = RemoteProfilingProxy(push_partitioned.cut, sample_period=3)
    assert proxy.profile_flags == unit.profile_flags
    for _ in range(6):
        unit.record_message()
        proxy.record_message()
        for edge in unit.profile_flags:
            assert unit.should_measure(edge) == proxy.should_measure(edge)


def _drive(partitioned, events, *, plans, sample_period, flush_every):
    """Modulator → Oracle(proxy), demodulator → both units directly."""
    alpha = 0.4
    unit = partitioned.make_profiling_unit(
        sample_period=sample_period, ewma_alpha=alpha
    )
    twin = partitioned.make_profiling_unit(
        sample_period=sample_period, ewma_alpha=alpha
    )
    recorder = Oracle(
        RemoteProfilingProxy(
            partitioned.cut, ewma_alpha=alpha, sample_period=sample_period
        ),
        twin,
    )
    modulator = partitioned.make_modulator(
        plan=plans[0], profiling=recorder, record_rates=False
    )
    demodulators = [
        partitioned.make_demodulator(profiling=u) for u in (unit, twin)
    ]
    rng = random.Random(3)
    flushes = 0
    for i, event in enumerate(events):
        modulator.apply_plan(plans[i * len(plans) // len(events)])
        result = modulator.process(event)
        recorder.record_sender_rate(rng.uniform(1e-5, 1e-3), result.cycles)
        if result.message is not None:
            for demodulator in demodulators:
                demodulator.process(result.message)
        if (i + 1) % flush_every == 0 or i + 1 == len(events):
            assert recorder.pending > 0
            summary, size = recorder.flush()
            assert size > 0 and recorder.pending == 0
            ingest(unit, summary)
            flushes += 1
            assert_units_equal(unit, twin)
    assert flushes >= 2
    return unit


def test_replay_equivalence(push_partitioned):
    """Recording via proxy + ingest must equal recording directly."""
    events = [
        ImageData(None, 40, 40),
        ImageData(None, 200, 200),
        "junk",
        ImageData(None, 80, 80),
        ImageData(None, 30, 30),
        "junk",
        ImageData(None, 120, 120),
    ]
    for sample_period in (1, 3):
        unit = _drive(
            push_partitioned,
            events,
            plans=[receiver_heavy_plan(push_partitioned.cut)],
            sample_period=sample_period,
            flush_every=2,
        )
        assert unit.messages_seen == len(events)
        assert unit.total_work.count == 5


def test_replay_equivalence_interleaved_flushes_with_sampling():
    """The sensor chain across three splits — every (edge, stat) changes
    writer side at a plan switch — flushed mid-stream: distribution adds
    staleness, never distortion."""
    partitioned, _ = build_partitioned_process(n_stages=20)
    plans = [
        positional_plan(partitioned.cut, p)
        for p in ("middle", "last", "first")
    ]
    for sample_period in (1, 3):
        unit = _drive(
            partitioned,
            sensor_events(48),
            plans=plans,
            sample_period=sample_period,
            flush_every=5,
        )
        assert unit.total_work.count == 48
        assert unit.sender_rate.count == 48


def test_total_pairing_survives_reordering(push_partitioned):
    """Demod totals arriving before the matching mod totals still pair."""
    unit = push_partitioned.make_profiling_unit()
    unit.record_demod_total(30.0)
    unit.record_demod_total(40.0)
    assert unit.total_work.count == 0
    unit.record_mod_total(10.0)
    assert unit.total_work.count == 1
    assert unit.total_work.mean == pytest.approx(40.0)  # 10 + 30
    unit.record_mod_total(20.0)
    assert unit.total_work.count == 2


def test_flush_drains_and_accounts(push_partitioned):
    from repro.obs import Observability

    obs = Observability()
    proxy = RemoteProfilingProxy(push_partitioned.cut, obs=obs)
    edge = next(iter(proxy.profile_flags))
    proxy.record_message()
    proxy.record_edge_observation(edge, work_before=2.0)
    proxy.record_edge_observation(edge, work_before=4.0)
    proxy.record_mod_total(5.0)
    assert proxy.pending == 4
    summary, size = proxy.flush()
    assert (summary.records, summary.observations) == (4, 2)
    assert [entry[:2] for entry in summary.entries] == [edge]
    assert proxy.pending == 0
    assert proxy.flushes == 1
    assert proxy.bytes_flushed == size
    # observations folded keep their meaning; entries count what shipped
    counters = obs.metrics.to_dict()["counters"]
    assert counters["feedback.records"] == 4
    assert counters["feedback.entries"] == 1
    assert counters["feedback.bytes"] == size
    empty, _ = proxy.flush()
    assert empty == (proxy.ewma_alpha, 0, 0, 0, (0, 0.0, 0.0), [], ())

    unit = push_partitioned.make_profiling_unit(obs=obs)
    ingest(unit, summary)
    counters = obs.metrics.to_dict()["counters"]
    assert counters["profiling.observations"] == 2
    assert counters["feedback.ingested_records"] == 4


def bad_summaries(good):
    """(label, summary) pairs a unit must refuse; *good* it would apply."""
    entry, rest = good.entries[0], good.entries[1:]

    def with_entry(*entries):
        return good._replace(entries=entries + rest)

    yield "another alpha", good._replace(alpha=good.alpha / 2)
    yield "non-PSE edge", with_entry((9998, 9999) + entry[2:])
    yield "truncated stat group", with_entry(entry[:-1])
    yield "truncated entry", with_entry(entry[:3])
    yield "unknown stat tag", with_entry(entry[:4] + (3, 1, 1.0, 0.0))
    yield "tag past the flag", with_entry(entry[:4] + (9, 1.0, 0.0))
    yield "negative count", good._replace(messages=-1)
    yield "count as float", with_entry((float(entry[0]),) + entry[1:])
    yield "fold term not a number", with_entry(entry[:-1] + ("x",))
    yield "rate fold not a triple", good._replace(sender_rate=(1, 2.0))
    yield "mod total not a number", good._replace(mod_totals=[None])
    yield "entries not sequences", good._replace(entries=(7,))


def test_merge_rejects_before_applying():
    """A summary that is malformed, folded with another α, or naming an
    edge that is not a PSE here raises and leaves the unit untouched."""
    partitioned, _ = build_partitioned_process(n_stages=4)
    unit = partitioned.make_profiling_unit()
    good, _ = _sensor_summary("middle", 3, partitioned)
    ingest(unit, good)
    def state():
        return unit.messages_seen, unit.executions_completed, unit.snapshot()

    before = state()
    for label, bad in bad_summaries(good):
        with pytest.raises((ValueError, TypeError)):
            ingest(unit, bad)
            pytest.fail(f"accepted: {label}")
        assert state() == before, label


def test_invalid_sample_period():
    from repro.apps.imagestream import build_partitioned_push

    partitioned, _ = build_partitioned_push()
    with pytest.raises(ValueError):
        RemoteProfilingProxy(partitioned.cut, sample_period=0)


# -- (c) plans are unchanged --------------------------------------------------


def _shift_trace(use_oracle, codec=None):
    """12 receiver-rate shifts on the sensor chain; the plan after each.
    With a *codec*, every flush crosses it as a FEEDBACK frame."""
    partitioned, _ = build_partitioned_process(n_stages=20)
    unit = partitioned.make_profiling_unit()
    proxy = RemoteProfilingProxy(partitioned.cut)
    recorder = Oracle(proxy, unit) if use_oracle else proxy
    plan = positional_plan(partitioned.cut, "first")
    modulator = partitioned.make_modulator(
        plan=plan, profiling=recorder, record_rates=False
    )
    demodulator = partitioned.make_demodulator(
        profiling=unit, record_rates=False
    )
    reconfig = partitioned.make_reconfiguration_unit(
        trigger=RateTrigger(period=10), location="receiver"
    )
    scale, switches, per_shift = 4.0, [], []
    for i, event in enumerate(sensor_events(12 * 300)):
        result = modulator.process(event)
        recorder.record_sender_rate(SENSOR_RATE * result.cycles, result.cycles)
        outcome = demodulator.process(result.message)
        unit.record_receiver_rate(
            SENSOR_RATE * scale * outcome.cycles, outcome.cycles
        )
        if (i + 1) % 8 == 0:
            summary, _ = recorder.flush()
            if codec is not None:
                envelope = FeedbackEnvelope(
                    subscription_id=1, demod_stats=summary
                )
                summary = codec.decode(*codec.encode(envelope))[0].demod_stats
            if not use_oracle:
                ingest(unit, summary)
        new_plan = reconfig.consider(unit)
        if new_plan is not None and new_plan.active != plan.active:
            plan = new_plan
            modulator.apply_plan(plan)
            switches.append((i, sorted(plan.active)))
        if (i + 1) % 300 == 0:
            per_shift.append(sorted(plan.active))
            scale = 0.25 if scale == 4.0 else 4.0
    return switches, per_shift


def test_scripted_shift_trace_yields_the_oracles_plans():
    switches, per_shift = _shift_trace(use_oracle=False)
    oracle_switches, oracle_per_shift = _shift_trace(use_oracle=True)
    assert per_shift == oracle_per_shift
    assert switches == oracle_switches
    # the trace does adapt: the plan follows every toggle of the rate
    assert len(switches) >= 12
    assert len({tuple(map(tuple, p)) for p in per_shift}) >= 2


def test_the_shift_trace_is_the_same_through_the_wire():
    """The packed FEEDBACK body is lossless: every plan switch lands on
    the same message as when the summaries are ingested in memory."""
    assert _shift_trace(False, NetEnvelopeCodec()) == _shift_trace(False)


# -- (d) frame bytes and the size estimate (wire round trip: test_framing) ------


def _sensor_summary(position, n_messages, partitioned=None):
    if partitioned is None:
        partitioned, _ = build_partitioned_process(n_stages=20)
    proxy = RemoteProfilingProxy(partitioned.cut)
    modulator = partitioned.make_modulator(
        plan=positional_plan(partitioned.cut, position),
        profiling=proxy,
        record_rates=False,
    )
    for event in sensor_events(n_messages):
        result = modulator.process(event)
        proxy.record_sender_rate(SENSOR_RATE * result.cycles, result.cycles)
    return proxy.flush()


def _arith_summary(n_messages):
    from repro.core.api import MethodPartitioner
    from repro.core.costmodels import DataSizeCostModel
    from repro.ir.registry import default_registry
    from repro.serialization import SerializerRegistry

    source = """
def handle(x):
    acc = 0
    i = 0
    while i < 2:
        acc = acc + i * 3 + x
        i = i + 1
    emit(acc)
"""
    registry = default_registry()
    registry.register_function(
        "emit", lambda v: None, receiver_only=True, pure=False
    )
    partitioned = MethodPartitioner(registry, SerializerRegistry()).partition(
        source, DataSizeCostModel()
    )
    proxy = RemoteProfilingProxy(partitioned.cut)
    modulator = partitioned.make_modulator(
        profiling=proxy, record_rates=False
    )
    for x in range(n_messages):
        result = modulator.process(x)
        proxy.record_sender_rate(1e-5, result.cycles)
    return proxy.flush()


def _frame_bytes(summary):
    envelope = FeedbackEnvelope(subscription_id=1, demod_stats=summary)
    return len(NetEnvelopeCodec().encode(envelope)[1])


@pytest.mark.parametrize(
    "position, budget",
    [("middle", 640), ("last", 1024)],
    ids=["middle", "last"],
)
def test_feedback_frame_byte_budget(position, budget):
    """O(#PSEs traversed), not O(observations): 8x the messages add only
    their 8-byte mod totals to the frame."""
    summary8, _ = _sensor_summary(position, 8)
    summary64, _ = _sensor_summary(position, 64)
    assert summary64.records == 8 * summary8.records
    assert len(summary64.entries) == len(summary8.entries)
    assert _frame_bytes(summary8) <= budget
    assert _frame_bytes(summary64) - _frame_bytes(summary8) <= 56 * 8


def test_a_flush_visits_only_the_pses_recorded_since_the_last(monkeypatch):
    """A flush takes an entry from each PSE recorded since the previous
    one, in stats order, and from no other."""
    taken = []
    take_entry = PSEStats.take_entry

    def counting(stats):
        taken.append(stats.edge)
        return take_entry(stats)

    monkeypatch.setattr(PSEStats, "take_entry", counting)
    partitioned, _ = build_partitioned_process(n_stages=20)
    proxy = RemoteProfilingProxy(partitioned.cut)
    modulator = partitioned.make_modulator(
        plan=positional_plan(partitioned.cut, "middle"), profiling=proxy
    )
    for event in sensor_events(8):
        modulator.process(event)
    summary, _ = proxy.flush()
    order = list(partitioned.cut.pses)
    assert taken == [entry[:2] for entry in summary.entries]
    assert taken == sorted(taken, key=order.index)
    assert 0 < len(taken) < len(order)
    taken.clear()
    proxy.record_message()
    proxy.flush()
    assert taken == []


@pytest.mark.parametrize(
    "make",
    [
        lambda: _sensor_summary("middle", 8),
        lambda: _sensor_summary("last", 8),
        lambda: _arith_summary(8),
    ],
    ids=["sensor-middle", "sensor-last", "arith"],
)
def test_flush_size_estimate_is_the_encoded_size(make):
    """The size charged to the transport, the simulated link and the
    ``feedback.bytes`` counter is what the codec puts on the wire."""
    summary, size = make()
    assert size == _frame_bytes(summary)


# -- (e) the packed layout ----------------------------------------------------

u32 = st.integers(0, (1 << 32) - 1)
#: every float, NaN and signed zero included; compared bit for bit
any_float = st.floats(allow_nan=True, allow_infinity=True)


@st.composite
def folds(draw, floats=any_float):
    """``(first, mean)``: equal bit for bit (a constant fold) or not."""
    first = draw(floats)
    return first, draw(st.one_of(st.just(first), floats))


@st.composite
def summaries(draw, edges=None, alpha=None, floats=any_float):
    """A summary in the form ``flush`` builds: stat groups in tag order,
    each with an explicit or an implied k.  *edges* draws the entries'
    edges from a cut; None draws any u32 pairs."""
    edge = st.tuples(u32, u32) if edges is None else st.sampled_from(edges)
    entries = []
    for src, dst in draw(st.lists(edge, max_size=6, unique=edges is not None)):
        traversals, splits = draw(u32), draw(u32)
        entry = (src, dst, traversals, splits)
        for tag in range(len(STAT_NAMES)):
            kind = draw(st.sampled_from(("absent", "implied", "explicit")))
            if kind == "implied":
                entry += (tag + K_IS_TRAVERSALS, *draw(folds(floats)))
            elif kind == "explicit":
                entry += (tag, draw(u32), *draw(folds(floats)))
        entries.append(entry)
    return FeedbackSummary(
        draw(floats) if alpha is None else alpha,
        draw(u32),
        draw(u32),
        draw(u32),
        (draw(u32), *draw(folds(floats))),
        draw(st.lists(floats, max_size=5)),
        tuple(entries),
    )


def _bits(value):
    """*value* with every float as its IEEE-754 bytes: -0.0 differs
    from 0.0, and a NaN equals itself."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, tuple):
        return tuple(map(_bits, value))
    if isinstance(value, list):
        return list(map(_bits, value))
    return value


_EDGES = FeedbackSummary(
    0.3,
    (1 << 32) - 1,
    0,
    (1 << 32) - 1,
    ((1 << 32) - 1, float("inf"), float("-inf")),
    [],
    (
        ((1 << 32) - 1, 0, (1 << 32) - 1, 0, K_IS_TRAVERSALS, 0.0, -0.0),
        (7, 8, 0, 0, 1, (1 << 32) - 1, -0.0, -0.0, 2, 0, float("nan"), 1.0),
    ),
)


@settings(max_examples=300, deadline=None)
@given(summary=summaries())
@example(summary=_EDGES)
@example(summary=FeedbackSummary(0.3, 0, 0, 0, (0, 0.0, 0.0), [], ()))
def test_the_packed_layout_round_trips_bit_for_bit(summary):
    body = pack_summary(summary)
    assert _bits(unpack_summary(body)) == _bits(summary)
    assert packed_size(summary) == _frame_bytes(summary)
    # ... and through the codec, trace and all
    codec = NetEnvelopeCodec()
    envelope = FeedbackEnvelope(subscription_id=3, demod_stats=summary)
    envelope.trace = (1, 2)
    decoded, _ = codec.decode(*codec.encode(envelope))
    assert _bits(decoded.demod_stats) == _bits(summary)
    assert decoded.trace == (1, 2)


def test_the_layout_spends_one_float_on_a_constant_fold():
    entry = (1, 2, 3, 0, K_IS_TRAVERSALS, 5.0, 5.0)
    steady = FeedbackSummary(0.3, 3, 3, 0, (3, 1.0, 1.0), [], (entry,))
    moving = steady._replace(entries=(entry[:-1] + (6.0,),))
    signed = steady._replace(entries=(entry[:4] + (4, 0.0, -0.0),))
    assert len(pack_summary(steady)) == 48 + 18 + 8
    assert len(pack_summary(moving)) == len(pack_summary(steady)) + 8
    assert len(pack_summary(signed)) == len(pack_summary(moving))
    assert _bits(unpack_summary(pack_summary(signed))) == _bits(signed)


@functools.lru_cache(maxsize=None)
def _sensor4():
    return build_partitioned_process(n_stages=4)[0]


def _pse_summaries(**kwargs):
    return summaries(
        edges=sorted(_sensor4().cut.pses),
        alpha=_sensor4().make_profiling_unit().ewma_alpha,
        floats=st.floats(-1e9, 1e9, allow_nan=False),
        **kwargs,
    )


@settings(max_examples=100, deadline=None)
@given(summary=_pse_summaries())
def test_a_unit_ingests_the_decoded_summary_as_the_original(summary):
    direct = _sensor4().make_profiling_unit()
    wired = _sensor4().make_profiling_unit()
    ingest(direct, summary)
    ingest(wired, unpack_summary(pack_summary(summary)))
    assert wired.messages_seen == direct.messages_seen
    assert wired.executions_completed == direct.executions_completed
    assert wired.measurements_taken == direct.measurements_taken
    assert _bits(wired.sender_rate.mean) == _bits(direct.sender_rate.mean)
    assert wired._pending_mod_totals == direct._pending_mod_totals
    assert wired.snapshot() == direct.snapshot()


@settings(max_examples=50, deadline=None)
@given(summary=_pse_summaries(), wrong=st.sampled_from(("alpha", "edge")))
def test_a_decodable_but_unmergeable_summary_is_rejected_whole(
    summary, wrong
):
    from repro.net.endpoint import NetReceiverEndpoint

    if wrong == "alpha":
        summary = summary._replace(alpha=summary.alpha / 2)
    else:
        summary = summary._replace(
            entries=summary.entries + ((90, 91, 1, 1),)
        )
    receiver = NetReceiverEndpoint(_sensor4())
    before = receiver.profiling.snapshot()
    codec = NetEnvelopeCodec()
    envelope, _ = codec.decode(
        *codec.encode(FeedbackEnvelope(subscription_id=1, demod_stats=summary))
    )
    receiver._handle_feedback(envelope)
    assert (receiver.feedback_rejected, receiver.feedback_batches) == (1, 0)
    assert receiver.profiling.messages_seen == 0
    assert receiver.profiling.snapshot() == before


@settings(max_examples=100, deadline=None)
@given(summary=summaries(), data=st.data())
def test_a_body_the_layout_does_not_end_at_is_a_protocol_error(
    summary, data
):
    codec = NetEnvelopeCodec()
    ser = codec._serializer.serialize
    body = pack_summary(summary)
    cut = data.draw(st.integers(0, len(body) - 1), label="cut")
    bad = [body[:cut], body + data.draw(st.binary(min_size=1), label="tail")]
    if summary.entries:
        # the first entry's mask: after the head, the mod totals and the
        # entry's four u32 counts
        at = 48 + 8 * len(summary.mod_totals) + 16
        reserved = data.draw(st.integers(9, 15), label="reserved bit")
        mask = int.from_bytes(body[at : at + 2], "little") | 1 << reserved
        bad.append(body[:at] + mask.to_bytes(2, "little") + body[at + 2 :])
    for blob in bad:
        with pytest.raises(ProtocolError):
            codec.decode(KIND_FEEDBACK, ser((1, 2, None, blob)))


@settings(max_examples=50, deadline=None)
@given(summary=summaries(), field=st.integers(0, 4), data=st.data())
def test_a_count_past_u32_is_a_protocol_error(summary, field, data):
    huge = data.draw(st.integers(1 << 32, 1 << 63), label="count")
    if field < 3:
        name = ("observations", "messages", "local_completions")[field]
        summary = summary._replace(**{name: huge})
    elif field == 3:
        rate = (huge,) + summary.sender_rate[1:]
        summary = summary._replace(sender_rate=rate)
    else:
        entry = (1, 2, huge, 0)
        summary = summary._replace(entries=summary.entries + (entry,))
    with pytest.raises(ProtocolError):
        NetEnvelopeCodec().encode(
            FeedbackEnvelope(subscription_id=1, demod_stats=summary)
        )


# -- end to end over the simulated pipeline -----------------------------------


def test_distributed_version_adapts_with_lag():
    """End to end over the simulated pipeline: explicit feedback still
    adapts, pays measurable feedback bytes, and lags the instant-shared
    variant at most mildly."""
    from repro.apps.harness import run_pipeline
    from repro.apps.imagestream import build_partitioned_push, scenario_stream
    from repro.apps.mp_version import MethodPartitioningVersion
    from repro.simnet import Simulator, wireless_testbed

    def run(feedback_period):
        partitioned, _ = build_partitioned_push()
        version = MethodPartitioningVersion(
            partitioned,
            trigger=RateTrigger(period=5),
            location="receiver",
            feedback_period=feedback_period,
        )
        frames = scenario_stream("large", 60, seed=3)
        sim = Simulator()
        testbed = wireless_testbed(sim)
        result = run_pipeline(testbed, version, frames)
        return version, result

    instant_version, instant = run(None)
    distributed_version, distributed = run(5)
    assert distributed_version.feedback_messages > 0
    assert distributed_version.feedback_bytes > 0
    assert distributed_version.plan_updates_applied >= 1
    # both adapt to shipping the transformed frame: bytes/frame comparable
    per_instant = instant.bytes_sent / instant.n_delivered
    per_distributed = distributed.bytes_sent / distributed.n_delivered
    assert per_distributed <= per_instant * 1.3


def test_feedback_period_requires_receiver_location():
    from repro.apps.imagestream import build_partitioned_push
    from repro.apps.mp_version import MethodPartitioningVersion

    partitioned, _ = build_partitioned_push()
    with pytest.raises(ValueError, match="receiver"):
        MethodPartitioningVersion(
            partitioned, location="sender", feedback_period=5
        )
