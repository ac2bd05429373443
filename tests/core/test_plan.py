"""Unit tests for partitioning plans and the flag runtime."""

import pytest

from repro.core.plan import (
    PartitioningPlan,
    PlanRuntime,
    receiver_heavy_plan,
    sender_heavy_plan,
    static_optimal_plan,
    validate_plan,
)
from repro.errors import InvalidPlanError


def test_sender_heavy_activates_nothing(push_partitioned):
    plan = sender_heavy_plan(push_partitioned.cut)
    assert plan.active == frozenset()
    validate_plan(push_partitioned.cut, plan)


def test_receiver_heavy_activates_earliest(push_partitioned):
    cut = push_partitioned.cut
    plan = receiver_heavy_plan(cut)
    validate_plan(cut, plan)
    for path, edges in cut.path_pse_edges:
        if not edges:
            continue
        order = {e: i for i, e in enumerate(path.edges)}
        earliest = min(edges, key=lambda e: order.get(e, 1 << 30))
        assert earliest in plan.active


def test_static_optimal_covers_each_path(push_partitioned):
    cut = push_partitioned.cut
    plan = static_optimal_plan(cut)
    validate_plan(cut, plan)
    for path, edges in cut.path_pse_edges:
        if edges:
            assert plan.active & set(edges)


def test_validate_rejects_non_pse_edge(push_partitioned):
    plan = PartitioningPlan(active=frozenset({(998, 999)}))
    with pytest.raises(InvalidPlanError, match="non-PSE"):
        validate_plan(push_partitioned.cut, plan)


def test_runtime_forced_edges_always_split(push_partitioned):
    runtime = PlanRuntime(push_partitioned.cut)
    runtime.apply_plan(sender_heavy_plan(push_partitioned.cut))
    for edge in push_partitioned.cut.terminal_edges():
        assert edge in runtime.split_edges


def test_runtime_flags_follow_plan(push_partitioned):
    cut = push_partitioned.cut
    runtime = PlanRuntime(cut)
    optional = [e for e, p in cut.pses.items() if not p.terminal]
    assert optional
    plan = PartitioningPlan(active=frozenset(optional[:1]))
    runtime.apply_plan(plan)
    assert optional[0] in runtime.split_edges
    assert runtime.active_edges() == frozenset(optional[:1])


def test_runtime_switch_count_increments(push_partitioned):
    runtime = PlanRuntime(push_partitioned.cut)
    n0 = runtime.switch_count
    runtime.apply_plan(sender_heavy_plan(push_partitioned.cut))
    runtime.apply_plan(receiver_heavy_plan(push_partitioned.cut))
    assert runtime.switch_count == n0 + 2


def test_runtime_split_edges_are_active_plus_forced(push_partitioned):
    cut = push_partitioned.cut
    runtime = PlanRuntime(cut)
    assert runtime.split_edges == cut.terminal_edges()  # before any plan
    plan = receiver_heavy_plan(cut)
    runtime.apply_plan(plan)
    assert runtime.split_edges == plan.active | cut.terminal_edges()


def test_runtime_non_pse_edge_never_splits(push_partitioned):
    runtime = PlanRuntime(push_partitioned.cut)
    runtime.apply_plan(sender_heavy_plan(push_partitioned.cut))
    # edge (0, 1) is the identity prefix, never a PSE
    assert (0, 1) not in runtime.split_edges


def test_plan_repr_readable():
    plan = PartitioningPlan(active=frozenset({(1, 2)}), name="x")
    assert "x" in repr(plan) and "(1, 2)" in repr(plan)
