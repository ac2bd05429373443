"""The ConvexCut algorithm (paper Figure 3).

Identifies the Potential Split Edges of a message handler:

.. code-block:: text

    Algorithm ConvexCut
    1. MarkStopNodes(ug)
    2. foreach Edge(out, in) in the ddg:
    3.   foreach path p in ug that starts from in and ends at out:
    4.     mark each edge in p with infinite cost
    5. PSESet = ∅
    6. foreach TargetPath p:
    7.   PSESet += MinCostEdgeSet(p)

Line 2-4 enforce *convexity*: if data produced at node ``out`` is consumed
at node ``in`` and control can flow from ``in`` back to ``out`` (only
possible around a loop), cutting any edge on that back path would make data
flow from the demodulator back to the modulator.  Those edges are poisoned
with infinite cost.

``MinCostEdgeSet(p)`` returns the edges of ``p`` with minimal cost under
the partial order of :meth:`EdgeCost.determinably_less`: an edge survives
when no other edge on the path is *determinably* cheaper.  Edges whose
costs are identical for every execution (same deterministic part and same
alias-canonicalized symbolic set — this is where points-to analysis enters,
paper section 4.1) are deduplicated, keeping one representative.

Edges entering StopNodes are additionally kept as **terminal** PSEs: they
are the forced fallback split points, because a StopNode itself can only
execute at the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.analysis.paths import TargetPath
from repro.core.context import AnalysisContext
from repro.core.costmodels.base import INFINITE_COST, CostModel, EdgeCost
from repro.errors import PartitionError
from repro.ir.interpreter import Edge
from repro.ir.instructions import Goto, Nop, Return
from repro.ir.values import Var


@dataclass(frozen=True)
class PSE:
    """One Potential Split Edge.

    ``pse_id`` is the stable identifier shipped in continuation messages
    and plan updates.  ``terminal`` marks forced fallback edges (into
    StopNodes).  ``noop_resume`` marks PSEs whose demodulator-side residual
    performs no work (only nops/jumps/bare returns): continuations through
    them can be elided entirely — that is how "events ... will be filtered
    out" in the paper's example.
    """

    pse_id: str
    edge: Edge
    inter: FrozenSet[Var]
    static_cost: EdgeCost
    terminal: bool = False
    noop_resume: bool = False

    def __repr__(self) -> str:
        flags = []
        if self.terminal:
            flags.append("terminal")
        if self.noop_resume:
            flags.append("noop")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return f"<PSE {self.pse_id} {self.edge}{suffix}>"


@dataclass
class ConvexCutResult:
    """Output of static analysis: the PSE set plus supporting data."""

    ctx: AnalysisContext
    cost_model: CostModel
    pses: Dict[Edge, PSE]
    poisoned: FrozenSet[Edge]
    #: per TargetPath, the cost-derived minimal PSE edges on it
    path_pse_edges: Tuple[Tuple[TargetPath, Tuple[Edge, ...]], ...]

    @property
    def pse_edges(self) -> FrozenSet[Edge]:
        return frozenset(self.pses)

    def terminal_edges(self) -> FrozenSet[Edge]:
        return frozenset(e for e, p in self.pses.items() if p.terminal)

    def pse_ids(self, edges) -> Tuple[str, ...]:
        """Sorted PSE ids of *edges*; an edge without a PSE keeps its own name."""
        pses = self.pses
        return tuple(
            sorted(str(pses[e].pse_id) if e in pses else str(e) for e in edges)
        )

    def pse_by_id(self, pse_id: str) -> PSE:
        for pse in self.pses.values():
            if pse.pse_id == pse_id:
                return pse
        raise PartitionError(f"unknown PSE id {pse_id!r}")

    def describe(self) -> str:
        lines = [
            f"ConvexCut of {self.ctx.function.name!r} "
            f"under {self.cost_model.name}:"
        ]
        for edge in sorted(self.pses):
            pse = self.pses[edge]
            inter = ", ".join(sorted(v.name for v in pse.inter))
            lines.append(
                f"  {pse.pse_id}: Edge{edge} INTER={{{inter}}} "
                f"cost={pse.static_cost.deterministic:g}"
                f"{'+sym' if pse.static_cost.symbolic else ''}"
                f"{' terminal' if pse.terminal else ''}"
                f"{' noop-resume' if pse.noop_resume else ''}"
            )
        return "\n".join(lines)


def convex_cut(
    ctx: AnalysisContext,
    cost_model: CostModel,
    *,
    enforce_convexity: bool = True,
) -> ConvexCutResult:
    """Run ConvexCut over an analyzed handler.

    ``enforce_convexity=False`` skips the poisoning step (lines 2-4 of the
    paper's algorithm), admitting cuts through loop bodies that a real
    system could not execute.  Exists ONLY for the section-7 ablation that
    measures what the convexity restriction costs; never execute plans
    from a non-convex cut.
    """
    poisoned = (
        _poison_backflow_edges(ctx) if enforce_convexity else frozenset()
    )
    path_results: List[Tuple[TargetPath, Tuple[Edge, ...]]] = []
    pse_edges: Set[Edge] = set()
    costs: Dict[Edge, EdgeCost] = {}

    for path in ctx.paths:
        min_edges = _min_cost_edge_set(ctx, cost_model, path, poisoned, costs)
        path_results.append((path, tuple(min_edges)))
        pse_edges.update(min_edges)

    # Terminal fallback edges: always instrumented, regardless of cost.
    terminal = set(ctx.stop_entry_edges()) - poisoned
    pse_edges.update(terminal)

    pses: Dict[Edge, PSE] = {}
    for i, edge in enumerate(sorted(pse_edges)):
        cost = costs.get(edge)
        if cost is None:
            cost = _edge_cost(ctx, cost_model, edge, path=None)
        pses[edge] = PSE(
            pse_id=f"pse{i}",
            edge=edge,
            inter=ctx.inter(edge),
            static_cost=cost,
            terminal=edge in terminal,
            noop_resume=_is_noop_resume(ctx, edge),
        )
    return ConvexCutResult(
        ctx=ctx,
        cost_model=cost_model,
        pses=pses,
        poisoned=poisoned,
        path_pse_edges=tuple(path_results),
    )


def _poison_backflow_edges(ctx: AnalysisContext) -> FrozenSet[Edge]:
    """Lines 2-4 of the algorithm: poison edges enabling backward data flow."""
    poisoned: Set[Edge] = set()
    graph = ctx.graph
    for def_node, use_node in ctx.ddg.edges:
        # Data flows def_node -> use_node.  If control can travel from the
        # use back to the def, every edge on such a path is poisoned.
        if graph.reaches(use_node, def_node):
            poisoned |= graph.edges_on_paths(use_node, def_node)
    return frozenset(poisoned)


def _edge_cost(
    ctx: AnalysisContext,
    cost_model: CostModel,
    edge: Edge,
    path: Optional[TargetPath],
) -> EdgeCost:
    from repro.errors import CostModelError

    try:
        return cost_model.static_edge_cost(ctx, edge, path)
    except CostModelError:
        # Path-relative models cannot cost an off-path edge; neutral cost.
        return EdgeCost(deterministic=0.0)


def _min_cost_edge_set(
    ctx: AnalysisContext,
    cost_model: CostModel,
    path: TargetPath,
    poisoned: FrozenSet[Edge],
    costs: Dict[Edge, EdgeCost],
) -> List[Edge]:
    """MinCostEdgeSet(p) with identical-cost deduplication."""
    edge_costs: List[Tuple[Edge, EdgeCost]] = []
    for edge in path.edges:
        if edge in poisoned:
            cost = INFINITE_COST
        else:
            cost = _edge_cost(ctx, cost_model, edge, path)
        costs[edge] = cost
        edge_costs.append((edge, cost))

    survivors: List[Tuple[Edge, EdgeCost]] = []
    for edge, cost in edge_costs:
        if cost.infinite:
            continue
        if any(
            other_cost.determinably_less(cost)
            for other_edge, other_cost in edge_costs
            if other_edge != edge
        ):
            continue
        survivors.append((edge, cost))

    # Deduplicate identical costs: keep one edge per identical-cost group,
    # preferring a terminal (stop-entry) edge so the kept representative is
    # also the forced fallback where possible; otherwise keep the first.
    stop_entries = set(ctx.stop_entry_edges())
    groups: List[Tuple[Edge, EdgeCost]] = []
    for edge, cost in survivors:
        placed = False
        for gi, (gedge, gcost) in enumerate(groups):
            if cost.identical_to(gcost) and _same_handover(
                ctx, edge, gedge
            ):
                if edge in stop_entries and gedge not in stop_entries:
                    groups[gi] = (edge, cost)
                placed = True
                break
        if not placed:
            groups.append((edge, cost))
    return [edge for edge, _ in groups]


def _same_handover(ctx: AnalysisContext, a: Edge, b: Edge) -> bool:
    """True when two edges hand over the same objects (alias-canonical)."""
    inter_a = ctx.aliases.canonicalize(ctx.inter(a))
    inter_b = ctx.aliases.canonicalize(ctx.inter(b))
    return inter_a == inter_b


def _is_noop_resume(ctx: AnalysisContext, edge: Edge) -> bool:
    """True when resuming at *edge* performs no observable work.

    The residual is a no-op when every instruction reachable from the
    edge's *in* node is a ``Nop``, ``Goto``, or value-less ``Return``.
    Splitting at such an edge means the receiver would do nothing, so the
    continuation message can be elided — the paper's event filtering.
    """
    fn = ctx.function
    for node in ctx.graph.reachable_from(edge[1]):
        instr = fn.instrs[node]
        if isinstance(instr, (Nop, Goto)):
            continue
        if isinstance(instr, Return) and instr.value is None:
            continue
        return False
    return True
