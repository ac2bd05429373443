"""Path-sensitive plan costing and exhaustive plan selection.

Paper section 2.3: "Profiling code can also be used to collect statistical
data about actual execution paths for path-sensitive optimization."  The
Profiling Unit already tracks per-PSE traversal probabilities; this module
turns them into *plan*-level expected costs:

* :func:`first_split_on_path` — which PSE a plan fires on a given
  TargetPath (the first activated-or-forced edge along it);
* :func:`expected_plan_cost` — the probability-weighted per-message cost
  of a plan: Σ over paths of P(path) × cost(split edge on that path);
* :func:`enumerate_plans` — the full valid plan space for small handlers
  (one activated candidate per TargetPath, or none → the forced terminal);
* :func:`exhaustive_best_plan` — brute-force argmin over that space.

The min-cut selector (:class:`ReconfigurationUnit`) is the scalable
mechanism; the exhaustive selector exists to *validate* it — the test
suite checks the two agree on the paper's handlers — and to power the
plan-selection ablation.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.paths import TargetPath
from repro.core.convexcut import ConvexCutResult
from repro.core.costmodels.base import CostModel
from repro.core.plan import PartitioningPlan
from repro.core.runtime.profiling import PSESnapshot
from repro.errors import PartitionError
from repro.ir.interpreter import Edge


def candidate_edge_costs(
    cut: ConvexCutResult,
    stats: Dict[Edge, PSESnapshot],
) -> Dict[Edge, Tuple[float, str]]:
    """Price every non-poisoned candidate PSE as plan selection does.

    Returns ``{edge: (cost, source)}`` where ``source`` is ``"profiled"``
    when a snapshot priced the edge via the cost model's runtime costing
    and ``"static"`` when it fell back to the static lower bound — the
    exact pricing rule :meth:`ReconfigurationUnit.select_plan` applies to
    min-cut capacities.  Shared by :func:`explain_edge_costs` and the
    counterfactual regret accounting in :mod:`repro.obs.quality`, so
    hindsight judgments use the same prices the decision did.
    """
    costs: Dict[Edge, Tuple[float, str]] = {}
    for edge, pse in cut.pses.items():
        if edge in cut.poisoned:
            continue
        snap = stats.get(edge)
        if snap is not None:
            costs[edge] = (cut.cost_model.runtime_edge_cost(snap), "profiled")
        else:
            costs[edge] = (pse.static_cost.lower_bound, "static")
    return costs


def counterfactual_edge_costs(
    cut: ConvexCutResult,
    stats: Dict[Edge, PSESnapshot],
    edge: Edge,
) -> Dict[Edge, Tuple[float, str]]:
    """Price every split that could have replaced a split at *edge*.

    The counterfactual for one message is path-local: only candidates on
    the path the message traversed could have carried its split, and the
    message definitely traversed them, so prices are the cost model's
    *raw* (probability-unweighted) per-execution costs — the same pricing
    :func:`expected_plan_cost` applies per path.  Since only the split
    edge is known, candidates are the intersection of the candidate sets
    of every TargetPath containing it: each is on the message's path no
    matter which of those paths it took.  On a single-chain handler that
    intersection is the whole candidate set and the min-cut argmin, so
    the regret of the active plan's split collapses to ~0 (see
    :class:`repro.obs.quality.RegretAccounting`).

    Returns ``{candidate: (cost, source)}`` with ``source`` ``"profiled"``
    or ``"static"`` as in :func:`candidate_edge_costs`; empty when *edge*
    is poisoned or unknown.
    """
    allowed: Optional[frozenset] = None
    for _path, edges in cut.path_pse_edges:
        if edge in edges:
            candidates = frozenset(
                e for e in edges if e not in cut.poisoned
            )
            allowed = (
                candidates if allowed is None else allowed & candidates
            )
    if allowed is None:
        allowed = (
            frozenset((edge,))
            if edge in cut.pses and edge not in cut.poisoned
            else frozenset()
        )
    model = cut.cost_model
    costs: Dict[Edge, Tuple[float, str]] = {}
    for candidate in allowed:
        snap = stats.get(candidate)
        if snap is not None:
            costs[candidate] = (
                model.runtime_edge_cost_raw(snap), "profiled"
            )
        else:
            costs[candidate] = (
                cut.pses[candidate].static_cost.lower_bound, "static"
            )
    return costs


def explain_edge_costs(
    cut: ConvexCutResult,
    stats: Dict[Edge, PSESnapshot],
    active: Iterable[Edge] = frozenset(),
) -> List[Dict[str, object]]:
    """Per-candidate-PSE cost table behind one plan decision.

    One row per non-poisoned PSE, sorted cheapest-first, mirroring
    exactly how :meth:`ReconfigurationUnit.select_plan` priced the edge:
    the cost model's runtime costing when a profile snapshot exists,
    else the static lower bound.  ``chosen`` marks edges the new plan
    activated; ``profile`` carries the snapshot that moved the price so
    ``python -m repro.tools.obs explain`` can show which observations
    did it.
    """
    chosen = frozenset(active)
    priced = candidate_edge_costs(cut, stats)
    rows: List[Dict[str, object]] = []
    for edge in sorted(priced):
        cost, source = priced[edge]
        snap = stats.get(edge) if source == "profiled" else None
        rows.append(
            {
                "pse_id": str(cut.pses[edge].pse_id),
                "edge": list(edge),
                "cost": cost,
                "chosen": edge in chosen,
                "source": source,
                "profile": snap.to_dict() if snap is not None else None,
            }
        )
    rows.sort(key=lambda row: (row["cost"], row["pse_id"]))
    return rows


def first_split_on_path(
    cut: ConvexCutResult, plan: PartitioningPlan, path: TargetPath
) -> Optional[Edge]:
    """The edge where *plan* splits an execution following *path*.

    The first activated or forced (terminal) edge along the path; None
    when the path has no split at all (possible only for paths ending in
    dead ends rather than StopNodes, e.g. loop-truncated paths).
    """
    forced = cut.terminal_edges()
    for edge in path.edges:
        if edge in plan.active or edge in forced:
            return edge
    return None


def _path_probabilities(
    cut: ConvexCutResult, snapshot: Dict[Edge, PSESnapshot]
) -> List[float]:
    """Empirical probability of each TargetPath from edge traversals.

    A path's probability is estimated from its most distinctive edge: the
    minimum traversal probability over its edges that are PSEs (distinct
    paths differ in at least their terminal PSE).  Falls back to uniform
    when nothing was profiled.
    """
    probs: List[float] = []
    for path in cut.ctx.paths:
        pse_edges = [e for e in path.edges if e in cut.pses]
        estimates = [
            snapshot[e].path_probability
            for e in pse_edges
            if e in snapshot and snapshot[e].path_probability > 0
        ]
        probs.append(min(estimates) if estimates else 0.0)
    if not any(probs):
        n = max(len(probs), 1)
        return [1.0 / n] * n
    total = sum(probs)
    return [p / total for p in probs]


def expected_plan_cost(
    cut: ConvexCutResult,
    plan: PartitioningPlan,
    snapshot: Dict[Edge, PSESnapshot],
    *,
    cost_model: Optional[CostModel] = None,
) -> float:
    """Probability-weighted per-message cost of *plan*.

    For each TargetPath, the plan fires exactly one split; the path
    contributes P(path) × cost(that edge).  Edge costs come from the cost
    model's runtime costing, *un*-weighted by the edge's own traversal
    probability (the path weighting here replaces it).
    """
    model = cost_model or cut.cost_model
    probs = _path_probabilities(cut, snapshot)
    total = 0.0
    for path, p_path in zip(cut.ctx.paths, probs):
        if p_path == 0.0:
            continue
        edge = first_split_on_path(cut, plan, path)
        if edge is None:
            continue
        snap = snapshot.get(edge)
        if snap is None:
            raise PartitionError(f"no snapshot for PSE {edge}")
        # The model's raw costing is unweighted and falls back to the
        # static lower bound for never-measured edges (e.g. sampled out),
        # so a count of zero is neither priced at 0 nor inflated by 1/ε.
        total += p_path * model.runtime_edge_cost_raw(snap)
    return total


def enumerate_plans(
    cut: ConvexCutResult, *, max_plans: int = 512
) -> Tuple[PartitioningPlan, ...]:
    """Every valid plan: one activated candidate (or none) per TargetPath.

    'None' means that path splits at its forced terminal edge.  Candidate
    sets come from ConvexCut's per-path MinCostEdgeSets.  Raises when the
    combinatorial space exceeds *max_plans* — use min-cut then.
    """
    per_path: List[List[Optional[Edge]]] = []
    count = 1
    for path, edges in cut.path_pse_edges:
        choices: List[Optional[Edge]] = [None]
        choices.extend(e for e in edges if e not in cut.poisoned)
        per_path.append(choices)
        count *= len(choices)
        if count > max_plans:
            raise PartitionError(
                f"plan space exceeds {max_plans}; use min-cut selection"
            )
    plans = []
    seen = set()
    for combo in itertools.product(*per_path):
        active = frozenset(e for e in combo if e is not None)
        if active in seen:
            continue
        seen.add(active)
        plans.append(
            PartitioningPlan(active=active, name=f"enum{len(plans)}")
        )
    return tuple(plans)


def exhaustive_best_plan(
    cut: ConvexCutResult,
    snapshot: Dict[Edge, PSESnapshot],
    *,
    cost_model: Optional[CostModel] = None,
    max_plans: int = 512,
) -> Tuple[PartitioningPlan, float]:
    """Brute-force argmin of :func:`expected_plan_cost` over the plan space."""
    best: Optional[PartitioningPlan] = None
    best_cost = float("inf")
    for plan in enumerate_plans(cut, max_plans=max_plans):
        cost = expected_plan_cost(
            cut, plan, snapshot, cost_model=cost_model
        )
        if cost < best_cost:
            best, best_cost = plan, cost
    if best is None:
        raise PartitionError("empty plan space")
    return best, best_cost
