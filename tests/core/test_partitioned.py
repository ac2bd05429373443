"""Unit tests for the modulator/demodulator pair: semantic equivalence,
filtering, profiling observations."""

import pytest

from repro.core.continuation import ContinuationMessage
from repro.core.plan import (
    PartitioningPlan,
    receiver_heavy_plan,
    sender_heavy_plan,
    static_optimal_plan,
)
from tests.conftest import ImageData


def pump(partitioned, modulator, demodulator, event):
    """One full sender→receiver round; returns the demodulator result or
    the modulator result when nothing shipped."""
    result = modulator.process(event)
    if result.completed or result.message is None:
        return result
    return demodulator.process(result.message)


def test_equivalence_under_every_single_pse_plan(
    push_partitioned, display_log
):
    """For every choice of active PSE, modulator + demodulator must show
    exactly what the unpartitioned handler shows."""
    cut = push_partitioned.cut
    event = ImageData(None, 60, 60)
    plans = [sender_heavy_plan(cut), receiver_heavy_plan(cut)]
    plans += [
        PartitioningPlan(active=frozenset({e}), name=str(e))
        for e in cut.pses
        if e not in cut.poisoned
    ]
    for plan in plans:
        display_log.clear()
        modulator = push_partitioned.make_modulator(plan=plan)
        demodulator = push_partitioned.make_demodulator()
        pump(push_partitioned, modulator, demodulator, event)
        assert len(display_log) == 1, plan
        shown = display_log[0]
        assert shown.width == 100 and len(shown.buff) == 100 * 100


def test_non_image_event_filtered(push_partitioned, display_log):
    modulator = push_partitioned.make_modulator()
    result = modulator.process("not an image")
    assert result.elided
    assert result.message is None
    assert display_log == []


def test_split_edge_reported(push_partitioned):
    cut = push_partitioned.cut
    optional = [e for e, p in cut.pses.items() if not p.terminal]
    plan = PartitioningPlan(active=frozenset(optional[:1]))
    modulator = push_partitioned.make_modulator(plan=plan)
    result = modulator.process(ImageData(None, 50, 50))
    assert result.edge == optional[0]


def test_continuation_message_has_pse_id(push_partitioned):
    modulator = push_partitioned.make_modulator()
    result = modulator.process(ImageData(None, 50, 50))
    assert isinstance(result.message, ContinuationMessage)
    assert result.message.pse_id.startswith("pse")
    assert result.message.function == "push"


def test_codec_roundtrip_of_live_message(push_partitioned):
    modulator = push_partitioned.make_modulator()
    result = modulator.process(ImageData(None, 50, 50))
    codec = push_partitioned.codec
    data = codec.encode(result.message)
    back = codec.decode(data)
    assert back.pse_id == result.message.pse_id
    assert back.edge == result.message.edge
    assert set(back.variables) == set(result.message.variables)
    assert codec.size(result.message) == len(data)


def test_run_reference_executes_whole_handler(
    push_partitioned, display_log
):
    outcome = push_partitioned.run_reference(ImageData(None, 30, 30))
    assert outcome.returned
    assert len(display_log) == 1


def test_modulator_cycles_grow_with_later_split(push_partitioned):
    """Splitting later means more modulator work."""
    cut = push_partitioned.cut
    event = ImageData(None, 120, 120)
    by_edge = {}
    for edge, pse in cut.pses.items():
        if pse.noop_resume:
            continue
        plan = PartitioningPlan(active=frozenset({edge}))
        modulator = push_partitioned.make_modulator(plan=plan)
        result = modulator.process(event)
        if result.edge == edge:
            by_edge[edge] = result.cycles
    assert len(by_edge) >= 2
    edges = sorted(by_edge)
    cycles = [by_edge[e] for e in edges]
    assert cycles == sorted(cycles)


def test_profiling_counts_messages_and_splits(push_partitioned):
    profiling = push_partitioned.make_profiling_unit()
    modulator = push_partitioned.make_modulator(profiling=profiling)
    demodulator = push_partitioned.make_demodulator(profiling=profiling)
    for _ in range(4):
        result = modulator.process(ImageData(None, 40, 40))
        if result.message is not None:
            demodulator.process(result.message)
    modulator.process("junk")
    assert profiling.messages_seen == 5
    assert profiling.executions_completed == 5
    total_splits = sum(s.splits for s in profiling.stats.values())
    assert total_splits == 5


def test_two_sided_observation(push_partitioned):
    """Edges after the active split are profiled by the demodulator."""
    cut = push_partitioned.cut
    profiling = push_partitioned.make_profiling_unit()
    modulator = push_partitioned.make_modulator(profiling=profiling)
    demodulator = push_partitioned.make_demodulator(profiling=profiling)
    plan = receiver_heavy_plan(cut)
    modulator.apply_plan(plan)
    for _ in range(3):
        result = modulator.process(ImageData(None, 40, 40))
        if result.message is not None:
            demodulator.process(result.message)
    snap = profiling.snapshot()
    downstream = [
        e
        for e in cut.pses
        if e not in plan.active and not cut.pses[e].noop_resume
    ]
    measured = [e for e in downstream if snap[e].data_size is not None]
    assert measured, "demodulator should profile downstream PSEs"


def test_snapshot_reconstructs_missing_side(push_partitioned):
    profiling = push_partitioned.make_profiling_unit()
    modulator = push_partitioned.make_modulator(profiling=profiling)
    demodulator = push_partitioned.make_demodulator(profiling=profiling)
    for _ in range(3):
        result = modulator.process(ImageData(None, 40, 40))
        if result.message is not None:
            demodulator.process(result.message)
    snap = profiling.snapshot()
    for edge, s in snap.items():
        if s.path_probability > 0 and s.data_size is not None:
            assert s.work_before is not None
            assert s.work_after is not None


def test_demodulator_rejects_nested_split(push_partitioned):
    """A demodulator never splits again (paper section 7: single hop)."""
    modulator = push_partitioned.make_modulator()
    result = modulator.process(ImageData(None, 40, 40))
    demodulator = push_partitioned.make_demodulator()
    # Even with all flags set in some other modulator, this demodulator
    # resumes without a split hook, so it must complete.
    outcome = demodulator.process(result.message)
    assert outcome.value is None  # push returns nothing


def test_wall_clock_mode_records_rates(push_partitioned):
    profiling = push_partitioned.make_profiling_unit()
    modulator = push_partitioned.make_modulator(profiling=profiling)
    demodulator = push_partitioned.make_demodulator(profiling=profiling)
    result = modulator.process(ImageData(None, 40, 40))
    if result.message is not None:
        demodulator.process(result.message)
    assert profiling.sender_rate.count >= 1
    assert profiling.receiver_rate.count >= 1
    assert profiling.sender_rate.mean > 0
