"""Exact placement selection (paper §6.1) and the hardness story.

The paper proves (Claim 6.1, by reduction from chromatic number) that
choosing one candidate position per communication to minimize total cost
under the startup+bandwidth model is NP-hard, justifying the greedy
heuristic of §4.7.  This module provides the exact reference the claim is
measured against:

* :func:`optimal_placement` — branch-and-bound over the per-entry
  candidate chains with the §6.1 cost model (per emitted group:
  ``C`` + volume × inverse bandwidth, summed over groups); exact on the
  small instances where it is tractable;
* :func:`placement_cost` — the same cost applied to any assignment, so
  the greedy result can be scored for the optimality-gap ablation
  benchmark.
"""

from __future__ import annotations

from itertools import combinations

from ..comm.compatibility import message_volume
from ..comm.entries import CommEntry
from ..cost.model import PlacementCostModel
from ..errors import PlacementError
from ..ir.cfg import Position
from .context import AnalysisContext
from .greedy import _combinable_at

# The §6.1 search cost model now lives in the unified cost layer
# (repro.cost.model); this alias keeps the historical import path.
CostModel = PlacementCostModel


def _group_entries(
    ctx: AnalysisContext, entries: list[CommEntry], pos: Position
) -> list[list[CommEntry]]:
    """Greedy compatible grouping at one position (same rule as §4.7)."""
    groups: list[list[CommEntry]] = []
    for entry in sorted(entries, key=lambda e: e.id):
        for group in groups:
            if all(_combinable_at(ctx, entry, member, pos) for member in group):
                group.append(entry)
                break
        else:
            groups.append([entry])
    return groups


def placement_cost(
    ctx: AnalysisContext,
    assignment: dict[int, Position],
    entries: list[CommEntry],
    model: CostModel | None = None,
) -> float:
    """Total §6.1 cost of placing each entry at its assigned position."""
    model = model or ctx.cost_model.placement_model()
    by_pos: dict[Position, list[CommEntry]] = {}
    for entry in entries:
        by_pos.setdefault(assignment[entry.id], []).append(entry)

    total = 0.0
    for pos, here in by_pos.items():
        node = ctx.node_of(pos)
        ranges = ctx.sections.live_ranges_at(node)
        execs = 1
        for loop in node.loops_containing():
            # Static cost model: weight per-iteration placements by a
            # nominal trip factor so hoisted placements are preferred.
            execs *= 8
        for group in _group_entries(ctx, here, pos):
            volume = sum(
                message_volume(
                    ctx.info, e, ctx.sections.section_at(e.use, node), ranges
                )
                for e in group
            )
            total += execs * (model.startup + model.inv_bandwidth * volume)
    return total


def optimal_placement(
    ctx: AnalysisContext,
    entries: list[CommEntry],
    model: CostModel | None = None,
    search_limit: int = 250_000,
) -> tuple[dict[int, Position], float]:
    """Exact minimum-cost assignment by branch-and-bound.

    Raises :class:`PlacementError` when the search space exceeds
    ``search_limit`` — the practical face of Claim 6.1.
    """
    model = model or ctx.cost_model.placement_model()
    live = [e for e in entries if e.alive and e.candidates]
    space = 1
    for e in live:
        space *= len(e.candidates)
        if space > search_limit:
            raise PlacementError(
                f"placement search space exceeds {search_limit} assignments "
                f"(NP-hard in general: paper Claim 6.1)"
            )

    best_cost = float("inf")
    best_assignment: dict[int, Position] = {}
    assignment: dict[int, Position] = {}

    # Order entries most-constrained-first for better pruning.
    order = sorted(live, key=lambda e: (len(e.candidates), e.id))

    # Depth-first search; ``stack[i]`` is the next candidate to try for
    # ``order[i]`` and a stack one deeper than ``order`` is a leaf.
    stack = [0]
    while stack:
        i = len(stack) - 1
        if i == len(order):
            cost = placement_cost(ctx, assignment, live, model)
            if cost < best_cost:
                best_cost = cost
                best_assignment = dict(assignment)
            stack.pop()
            continue
        entry = order[i]
        k = stack[i]
        if k == len(entry.candidates):
            assignment.pop(entry.id, None)
            stack.pop()
            continue
        stack[i] = k + 1
        assignment[entry.id] = entry.candidates[k]
        # Partial-assignment lower bound: the cost of what is already
        # placed can only grow as more entries are added at *other*
        # positions, but grouping can absorb same-position additions —
        # so only prune on the cost of fully-assigned prefixes when it
        # already exceeds the best complete solution.
        prefix = {e.id: assignment[e.id] for e in order[: i + 1]}
        if placement_cost(ctx, prefix, order[: i + 1], model) < best_cost:
            stack.append(0)
    if not best_assignment and live:
        raise PlacementError("no feasible assignment found")
    return best_assignment, best_cost


def assignment_of_result(result) -> dict[int, Position]:
    """The assignment a finished compilation actually chose (read back
    from its placed groups) — for optimality-gap measurement."""
    out: dict[int, Position] = {}
    for pc in result.placed:
        for entry in pc.entries:
            out[entry.id] = pc.position
    return out


def milp_placement(
    ctx: AnalysisContext,
    entries: list[CommEntry],
    model: CostModel | None = None,
) -> tuple[dict[int, Position], float]:
    """§6.1's integer-linear-program formulation, solved with scipy.

    Variables: ``x[c,p] ∈ {0,1}`` — entry ``c`` placed at candidate ``p``;
    ``z[p,m] ∈ {0,1}`` — a message with mapping class ``m`` is emitted at
    ``p``.  Minimize ``Σ z·C·w(p) + Σ x·vol(c,p)·w(p)`` subject to
    ``Σ_p x[c,p] = 1`` and ``x[c,p] ≤ z[p, class(c)]`` — the linearized
    form of "all same-mapping entries at one position share one startup".
    (The nonlinear refinements — the combined-size threshold and the
    union-descriptor growth rule — are relaxed; on halo-sized messages
    they do not bind and the MILP optimum equals the branch-and-bound
    optimum, which the test suite checks.)
    """
    import numpy as np
    from scipy.optimize import LinearConstraint, milp
    from scipy.sparse import lil_matrix

    model = model or ctx.cost_model.placement_model()
    live = [e for e in entries if e.alive and e.candidates]
    if not live:
        return {}, 0.0

    def weight(pos: Position) -> float:
        node = ctx.node_of(pos)
        return float(8 ** len(node.loops_containing()))

    def volume(e: CommEntry, pos: Position) -> float:
        node = ctx.node_of(pos)
        ranges = ctx.sections.live_ranges_at(node)
        return float(
            message_volume(
                ctx.info, e, ctx.sections.section_at(e.use, node), ranges
            )
        )

    x_index: dict[tuple[int, Position], int] = {}
    z_index: dict[tuple[Position, object], int] = {}
    costs: list[float] = []
    for e in live:
        for pos in e.candidates:
            x_index[(e.id, pos)] = len(costs)
            costs.append(model.inv_bandwidth * volume(e, pos) * weight(pos))
            key = (pos, e.pattern.mapping)
            if key not in z_index:
                z_index[key] = -1  # placeholder; numbered after the x block
    for key in sorted(z_index, key=lambda k: (k[0], str(k[1]))):
        z_index[key] = len(costs)
        costs.append(model.startup * weight(key[0]))

    nvars = len(costs)
    rows: list[tuple[dict[int, float], float, float]] = []
    for e in live:  # Σ_p x = 1
        row = {x_index[(e.id, pos)]: 1.0 for pos in e.candidates}
        rows.append((row, 1.0, 1.0))
    for (eid_pos, xi) in x_index.items():  # x ≤ z
        eid, pos = eid_pos
        e = next(en for en in live if en.id == eid)
        zi = z_index[(pos, e.pattern.mapping)]
        rows.append(({xi: 1.0, zi: -1.0}, -np.inf, 0.0))

    a = lil_matrix((len(rows), nvars))
    lb = np.empty(len(rows))
    ub = np.empty(len(rows))
    for i, (row, lo, hi) in enumerate(rows):
        for j, v in row.items():
            a[i, j] = v
        lb[i], ub[i] = lo, hi

    result = milp(
        c=np.array(costs),
        constraints=LinearConstraint(a.tocsr(), lb, ub),
        integrality=np.ones(nvars),
        bounds=None,
    )
    if not result.success:
        raise PlacementError(f"MILP solve failed: {result.message}")

    assignment: dict[int, Position] = {}
    for (eid, pos), xi in x_index.items():
        if result.x[xi] > 0.5:
            assignment[eid] = pos
    return assignment, float(result.fun)


def pairwise_conflicts(ctx: AnalysisContext, entries: list[CommEntry]) -> int:
    """Count of entry pairs that can never share a position — the edge set
    of the conflict graph underlying the chromatic-number reduction."""
    conflicts = 0
    live = [e for e in entries if e.alive]
    for a, b in combinations(live, 2):
        if not (a.candidate_set() & b.candidate_set()):
            conflicts += 1
    return conflicts


from .passes import PlacementPass, PlacementRun, register_pass  # noqa: E402


@register_pass
class ILPCombinePass(PlacementPass):
    """§6.1 adapter: exact combining where tractable.

    An intractable or failing solve degrades to the §4.7 greedy heuristic
    inside this pass (emitting an ``ilp`` event); if the greedy fallback
    *also* fails, the manager's boundary fires under the name ``greedy``
    and :meth:`recover` emits the Latest placement — the same two-level
    degradation ladder the monolithic pipeline implemented by nesting
    try/except blocks.
    """

    name = "ilp"
    section = "§6.1"
    description = "exact branch-and-bound combining, greedy on overflow"
    needs_state = True
    mutates_entries = True
    fault_name = "greedy"  # the outer boundary guards the greedy fallback
    fallback_desc = "every entry at its Latest point"

    def run(self, run: PlacementRun) -> dict[str, int]:
        from . import pipeline as pl  # late: monkeypatchable namespace
        from .faults import DegradationEvent

        assert run.state is not None
        if run.options.strict:
            run.placed = pl.ilp_choose(run.ctx, run.state)
            return {"groups": len(run.placed)}
        try:
            run.placed = pl.ilp_choose(run.ctx, run.state)
        except Exception as exc:
            from ..errors import SOLVER_FALLBACK_CODE

            run.faults.append(DegradationEvent.from_exception(
                "ilp", exc, "greedy combining (§4.7 heuristic)",
                code=SOLVER_FALLBACK_CODE,
            ))
            run.placed = pl.greedy_choose(run.ctx, run.state)
        return {"groups": len(run.placed)}

    def recover(self, run: PlacementRun) -> dict[str, int]:
        from . import pipeline as pl

        run.placed = pl._latest_placement(run.entries)
        stats: dict[str, int] = {"groups": len(run.placed)}
        if "redundant" in run.stats:
            stats["redundant"] = 0
        return stats
