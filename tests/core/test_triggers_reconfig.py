"""Unit tests for feedback triggers and the Reconfiguration Unit."""

import pytest

from repro.core.plan import PartitioningPlan
from repro.core.runtime.reconfig import ReconfigurationUnit
from repro.core.runtime.triggers import (
    CompositeTrigger,
    DiffTrigger,
    FeedbackTrigger,
    NeverTrigger,
    RateTrigger,
)
from repro.obs.quality import REPORT_TAIL
from tests.conftest import ImageData


@pytest.fixture
def profiling(push_partitioned):
    return push_partitioned.make_profiling_unit()


def drive(push_partitioned, profiling, n, size=40):
    modulator = push_partitioned.make_modulator(profiling=profiling)
    demodulator = push_partitioned.make_demodulator(profiling=profiling)
    for _ in range(n):
        result = modulator.process(ImageData(None, size, size))
        if result.message is not None:
            demodulator.process(result.message)
    return modulator


# -- triggers ------------------------------------------------------------------


def test_rate_trigger_period(push_partitioned, profiling):
    trigger = RateTrigger(period=5)
    fired = 0
    modulator = push_partitioned.make_modulator(profiling=profiling)
    for _ in range(20):
        modulator.process(ImageData(None, 10, 10))
        if trigger.should_fire(profiling):
            trigger.fired(profiling)
            fired += 1
    assert fired == 4


def test_rate_trigger_validates_period():
    with pytest.raises(ValueError):
        RateTrigger(period=0)


def test_never_trigger(push_partitioned, profiling):
    trigger = NeverTrigger()
    drive(push_partitioned, profiling, 10)
    assert not trigger.should_fire(profiling)


def test_diff_trigger_fires_on_first_data(push_partitioned, profiling):
    trigger = DiffTrigger(threshold=0.5, min_interval=1)
    drive(push_partitioned, profiling, 2)
    assert trigger.should_fire(profiling)


def test_diff_trigger_quiet_when_stable(push_partitioned, profiling):
    trigger = DiffTrigger(threshold=0.5, min_interval=1)
    drive(push_partitioned, profiling, 3)
    trigger.fired(profiling)
    drive(push_partitioned, profiling, 3)  # same sizes
    assert not trigger.should_fire(profiling)


def test_diff_trigger_fires_on_size_change(push_partitioned, profiling):
    trigger = DiffTrigger(threshold=0.3, min_interval=1)
    drive(push_partitioned, profiling, 3, size=20)
    trigger.fired(profiling)
    drive(push_partitioned, profiling, 3, size=200)
    assert trigger.should_fire(profiling)


def test_diff_trigger_min_interval(push_partitioned, profiling):
    trigger = DiffTrigger(threshold=0.01, min_interval=50)
    drive(push_partitioned, profiling, 3)
    assert not trigger.should_fire(profiling)


def test_diff_trigger_validates_threshold():
    with pytest.raises(ValueError):
        DiffTrigger(threshold=0.0)


def test_composite_trigger_any(push_partitioned, profiling):
    composite = CompositeTrigger(NeverTrigger(), RateTrigger(period=1))
    drive(push_partitioned, profiling, 1)
    assert composite.should_fire(profiling)
    composite.fired(profiling)


def test_composite_trigger_needs_members():
    with pytest.raises(ValueError):
        CompositeTrigger()


def drive_unrated(push_partitioned, profiling, n, size=40):
    """Drive messages without the automatic cycle-based rate recording,
    so tests control sender/receiver rates explicitly."""
    modulator = push_partitioned.make_modulator(
        profiling=profiling, record_rates=False
    )
    demodulator = push_partitioned.make_demodulator(
        profiling=profiling, record_rates=False
    )
    for _ in range(n):
        result = modulator.process(ImageData(None, size, size))
        if result.message is not None:
            demodulator.process(result.message)


def test_diff_trigger_drifted_rate_fires_once(push_partitioned, profiling):
    """A drifted side rate fires exactly once: fired() must snapshot the
    rate it compared, so the same drift cannot re-fire forever."""
    trigger = DiffTrigger(threshold=0.25, min_interval=0)
    drive_unrated(push_partitioned, profiling, 3)
    profiling.record_sender_rate(1.0, 1.0)
    assert trigger.should_fire(profiling)  # first data
    trigger.fired(profiling)
    assert not trigger.should_fire(profiling)
    profiling.record_sender_rate(100.0, 1.0)  # rate drifts hard
    assert trigger.should_fire(profiling)
    assert trigger.last_reason["subject"] == "sender_rate"
    trigger.fired(profiling)
    assert not trigger.should_fire(profiling)  # drift was snapshotted


def test_diff_trigger_new_rate_observation_fires(push_partitioned, profiling):
    """A rate first observed after the last report is news the
    Reconfiguration Unit has never seen — it must not be silently
    absorbed into the baseline."""
    trigger = DiffTrigger(threshold=0.5, min_interval=0)
    drive_unrated(push_partitioned, profiling, 3)
    assert trigger.should_fire(profiling)
    trigger.fired(profiling)
    assert not trigger.should_fire(profiling)
    profiling.record_receiver_rate(2.0, 1.0)
    assert trigger.should_fire(profiling)
    assert trigger.last_reason["cause"] == "new-observation"
    assert trigger.last_reason["subject"] == "receiver_rate"


def test_diff_trigger_baseline_is_exactly_the_compared_set(
    push_partitioned, profiling
):
    """fired() snapshots precisely what should_fire compares — every
    observed PSE stat plus both side rates."""
    trigger = DiffTrigger(threshold=0.25, min_interval=1)
    drive(push_partitioned, profiling, 4)
    profiling.record_sender_rate(0.5, 1.0)
    profiling.record_receiver_rate(0.25, 1.0)
    trigger.fired(profiling)
    assert trigger._baseline == DiffTrigger._observed_values(profiling)
    assert (None, "sender_rate") in trigger._baseline
    assert (None, "receiver_rate") in trigger._baseline


def test_diff_trigger_survives_counter_rewind(push_partitioned, profiling):
    """reset_counters() rewinds messages_seen; the trigger must re-anchor
    its interval instead of staying dead until the count catches up."""
    trigger = DiffTrigger(threshold=0.25, min_interval=2)
    drive_unrated(push_partitioned, profiling, 5)
    profiling.record_sender_rate(1.0, 1.0)
    assert trigger.should_fire(profiling)
    trigger.fired(profiling)  # last fire recorded at message 5
    profiling.reset_counters()  # counter rewinds to 0
    drive_unrated(push_partitioned, profiling, 3)
    profiling.record_sender_rate(100.0, 1.0)
    trigger.should_fire(profiling)  # re-anchors the interval baseline
    drive_unrated(push_partitioned, profiling, 2)
    assert trigger.should_fire(profiling)
    assert trigger.last_reason["cause"] == "drift"
    assert trigger.last_reason["subject"] == "sender_rate"


def test_rate_trigger_survives_counter_rewind(push_partitioned, profiling):
    trigger = RateTrigger(period=3)
    drive(push_partitioned, profiling, 3)
    assert trigger.should_fire(profiling)
    trigger.fired(profiling)  # last fire recorded at message 3
    profiling.reset_counters()
    drive(push_partitioned, profiling, 2)
    trigger.should_fire(profiling)  # re-anchors below the rewound count
    drive(push_partitioned, profiling, 3)
    assert trigger.should_fire(profiling)


# -- reconfiguration unit ------------------------------------------------------------


def test_select_plan_cuts_only_pses(push_partitioned, profiling):
    drive(push_partitioned, profiling, 5)
    unit = ReconfigurationUnit(push_partitioned.cut)
    plan, value = unit.select_plan(profiling.snapshot())
    assert plan.active <= push_partitioned.cut.pse_edges
    assert value < float("inf")


def test_select_plan_prefers_profiled_cheap_edge(push_partitioned, profiling):
    """Large frames: the post-transform edge (fixed 100x100) must win over
    shipping the raw 200x200 event."""
    drive(push_partitioned, profiling, 5, size=200)
    unit = ReconfigurationUnit(push_partitioned.cut)
    plan, _ = unit.select_plan(profiling.snapshot())
    chosen = {
        tuple(sorted(v.name for v in push_partitioned.cut.pses[e].inter))
        for e in plan.active
    }
    assert ("rd",) in chosen  # ship the transformed image


def test_select_plan_prefers_raw_for_small_frames(
    push_partitioned, profiling
):
    drive(push_partitioned, profiling, 5, size=20)
    unit = ReconfigurationUnit(push_partitioned.cut)
    plan, _ = unit.select_plan(profiling.snapshot())
    chosen = {
        tuple(sorted(v.name for v in push_partitioned.cut.pses[e].inter))
        for e in plan.active
    }
    assert ("event",) in chosen  # ship the raw event


def test_consider_respects_trigger(push_partitioned, profiling):
    unit = ReconfigurationUnit(
        push_partitioned.cut, trigger=RateTrigger(period=3)
    )
    modulator = push_partitioned.make_modulator(profiling=profiling)
    demodulator = push_partitioned.make_demodulator(profiling=profiling)
    plans = []
    for _ in range(7):
        result = modulator.process(ImageData(None, 30, 30))
        if result.message is not None:
            demodulator.process(result.message)
        plan = unit.consider(profiling)
        if plan is not None:
            plans.append(plan)
    assert len(plans) == 2
    assert unit.reconfiguration_count == 2
    assert unit.history[0].at_message <= unit.history[1].at_message


class _AlwaysTrigger(FeedbackTrigger):
    def should_fire(self, unit):
        return True


def test_history_keeps_a_tail_and_counts_every_recompute(
    push_partitioned, profiling
):
    """A live receiver recomputes every few messages for as long as it
    runs, so the unit's memory must not grow with the recompute count."""
    drive(push_partitioned, profiling, 3)
    unit = ReconfigurationUnit(push_partitioned.cut, trigger=_AlwaysTrigger())
    for _ in range(10_000):
        assert unit.consider(profiling) is not None
    assert unit.reconfiguration_count == 10_000
    assert len(unit.history) <= REPORT_TAIL


def test_consider_quiet_with_never_trigger(push_partitioned, profiling):
    unit = ReconfigurationUnit(
        push_partitioned.cut, trigger=NeverTrigger()
    )
    drive(push_partitioned, profiling, 5)
    assert unit.consider(profiling) is None
    assert unit.reconfiguration_count == 0


def test_invalid_location_rejected(push_partitioned):
    with pytest.raises(ValueError):
        ReconfigurationUnit(push_partitioned.cut, location="moon")


def test_selected_plan_is_applicable(push_partitioned, profiling):
    drive(push_partitioned, profiling, 4)
    unit = ReconfigurationUnit(push_partitioned.cut)
    plan, _ = unit.select_plan(profiling.snapshot())
    modulator = push_partitioned.make_modulator(profiling=profiling)
    modulator.apply_plan(plan)  # must validate
    result = modulator.process(ImageData(None, 30, 30))
    assert result.message is not None or result.elided


def test_select_plan_with_empty_stats(push_partitioned):
    """Before any profiling, selection still returns a valid plan from
    static lower bounds."""
    unit = ReconfigurationUnit(push_partitioned.cut)
    fresh = push_partitioned.make_profiling_unit()
    plan, _ = unit.select_plan(fresh.snapshot())
    assert plan.active <= push_partitioned.cut.pse_edges
