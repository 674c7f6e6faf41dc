"""Anytime exact placement search and the ``exact`` pipeline pass.

Chlorophyll-style driver (binary search on message count over a bounded
solver): seed the incumbent with the greedy ``comb`` schedule, then
binary-search the message count between a sound lower bound (greedy
clique over never-eliminable, never-combinable entries) and the
incumbent, asking the PB solver one decision query per step.  Every
query runs under the remaining share of ``solver_budget_ms``; the driver
*always* returns the best incumbent found so far — on a full proof
(``lower bound == incumbent``) the schedule is optimal and flagged so,
on timeout the greedy seed (or the best improvement over it) comes back
unchanged.  The fallback is therefore never worse than today's ``comb``
pipeline, by construction.

:class:`ExactPlacementPass` registers this as the pass behind the
``exact`` named pipeline.  Solver failures degrade to the greedy comb
schedule through a :class:`~repro.core.faults.DegradationEvent` carrying
the ``W0604`` solver-fallback code; a failure computing the greedy seed
itself escapes to the pass manager's boundary, which falls back to the
always-sound Latest placement.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from ..comm.entries import CommEntry
from ..core.context import AnalysisContext
from ..core.faults import DegradationEvent
from ..core.passes import PlacementPass, PlacementRun, register_pass
from ..core.state import PlacedComm, PlacementState
from ..errors import SOLVER_FALLBACK_CODE
from .bnb import SAT, UNSAT, PBSolver
from .encode import (
    DecodedSchedule,
    EncodingLimitError,
    build_model,
    decode_assignment,
)

#: Per-query decision cap — a backstop under the wall-clock deadline so a
#: single pathological query cannot monopolize the budget's final check.
DEFAULT_NODE_LIMIT = 4_000_000


@dataclass
class SolveReport:
    """What the anytime search did — surfaced in pass stats."""

    seed_messages: int
    best_messages: int
    lower_bound: int
    proved: bool
    improved: bool
    wall_ms: float
    nodes: int
    queries: int
    deadline_hit: bool

    def as_stats(self) -> dict[str, int]:
        return {
            "solver_ms": int(self.wall_ms),
            "solver_nodes": self.nodes,
            "solver_queries": self.queries,
            "solver_proved": int(self.proved),
            "solver_improved": int(self.improved),
            "solver_lower_bound": self.lower_bound,
            "solver_seed_messages": self.seed_messages,
        }


def solve_schedule(
    ctx: AnalysisContext,
    entries: list[CommEntry],
    seed_messages: int,
    budget_ms: int,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> tuple[Optional[DecodedSchedule], SolveReport]:
    """Binary-search the optimal message count under an anytime budget.

    Returns ``(decoded, report)``: ``decoded`` is ``None`` when the seed
    was not improved on (the caller keeps the greedy schedule), else the
    best decoded improvement.  ``report.proved`` is True only when the
    search closed the gap (``lower_bound == best_messages``) — i.e. the
    returned count is the true optimum, not just the best incumbent.
    """
    t0 = time.monotonic()

    def report(
        best: int, lb: int, nodes: int, queries: int, deadline_hit: bool
    ) -> SolveReport:
        return SolveReport(
            seed_messages=seed_messages,
            best_messages=best,
            lower_bound=lb,
            proved=lb >= best,
            improved=best < seed_messages,
            wall_ms=(time.monotonic() - t0) * 1000.0,
            nodes=nodes,
            queries=queries,
            deadline_hit=deadline_hit,
        )

    if budget_ms <= 0:
        return None, report(seed_messages, 0, 0, 0, True)
    deadline = t0 + budget_ms / 1000.0
    try:
        em = build_model(ctx, entries, deadline=deadline)
    except EncodingLimitError:
        return None, report(seed_messages, 0, 0, 0, True)

    lower = em.lower_bound()
    upper = seed_messages
    best_decoded: Optional[DecodedSchedule] = None
    nodes_total = 0
    queries = 0
    deadline_hit = False
    order = em.decide_order()
    prefer = em.prefer()
    leaders = em.leader_vars()

    while lower < upper:
        if time.monotonic() > deadline:
            deadline_hit = True
            break
        k = (lower + upper - 1) // 2
        model = em.model.copy()
        model.add_at_most_k([lv << 1 | 0 for lv in leaders], k)
        queries += 1
        status, assignment, nodes = PBSolver(model).solve(
            decide_order=order,
            prefer=prefer,
            deadline=deadline,
            node_limit=node_limit,
        )
        nodes_total += nodes
        if status == SAT:
            assert assignment is not None
            decoded = decode_assignment(em, assignment)
            if decoded.messages < upper:
                best_decoded = decoded
                upper = decoded.messages
            else:  # defensive: a SAT answer never worse than its bound
                upper = k
        elif status == UNSAT:
            lower = k + 1
        else:
            deadline_hit = True
            break

    return best_decoded, report(
        upper, lower, nodes_total, queries, deadline_hit
    )


def _capture_marks(
    entries: list[CommEntry],
) -> list[tuple[CommEntry, Optional[int], list[CommEntry]]]:
    return [(e, e.eliminated_by, list(e.absorbed)) for e in entries]


def _restore_marks(
    marks: list[tuple[CommEntry, Optional[int], list[CommEntry]]],
) -> None:
    for entry, eliminated_by, absorbed in marks:
        entry.eliminated_by = eliminated_by
        entry.absorbed = absorbed


def _apply_decoded(
    entries: list[CommEntry], decoded: DecodedSchedule
) -> list[PlacedComm]:
    """Write the solver's eliminations into the entry marks and build the
    placed groups — the shape the oracle, simulator, and reports consume."""
    by_id = {e.id: e for e in entries}
    for loser_id, winner_id in decoded.eliminations.items():
        loser, winner = by_id[loser_id], by_id[winner_id]
        loser.eliminated_by = winner.id
        winner.absorbed.append(loser)
    placed = [
        PlacedComm(position, [by_id[i] for i in member_ids])
        for position, member_ids in decoded.groups
    ]
    placed.sort(key=lambda pc: pc.position)
    return placed


@register_pass
class ExactPlacementPass(PlacementPass):
    """Whole-pipeline exact placement behind the ``exact`` pipeline.

    Runs §4.5–§4.7 internally to build the greedy incumbent, then the
    anytime PB search; a solver failure degrades to that incumbent with
    a ``W0604`` event, and a failure building the incumbent itself hits
    the manager's boundary (fallback: Latest placement).
    """

    name = "exact"
    section = "§4+§6.1"
    description = "anytime exact whole-pipeline placement (PB search)"
    mutates_entries = True
    fallback_desc = "every entry at its Latest point"

    def run(self, run: PlacementRun) -> dict[str, int]:
        from ..core import pipeline as pl  # late: monkeypatchable namespace

        ctx = run.ctx
        # Greedy comb incumbent on a private working state.
        state = PlacementState(ctx, run.entries)
        if ctx.options.enable_subset_elimination:
            pl.subset_eliminate(ctx, state)
        if ctx.options.enable_redundancy_elimination:
            pl.redundancy_eliminate(ctx, state)
        seed_placed = pl.greedy_choose(ctx, state)
        seed_marks = _capture_marks(run.entries)
        pl._reset_eliminations(run.entries)

        decoded: Optional[DecodedSchedule] = None
        solver_stats: dict[str, int] = {}
        try:
            decoded, solve_report = solve_schedule(
                ctx, run.entries, len(seed_placed),
                ctx.options.solver_budget_ms,
            )
            solver_stats = solve_report.as_stats()
        except Exception as exc:
            if ctx.options.strict:
                raise
            run.faults.append(DegradationEvent.from_exception(
                "exact", exc, "greedy comb schedule (§4.5-§4.7)",
                code=SOLVER_FALLBACK_CODE,
            ))
            solver_stats = {"solver_proved": 0, "solver_improved": 0}

        if decoded is None:
            _restore_marks(seed_marks)
            run.placed = seed_placed
        else:
            run.placed = _apply_decoded(run.entries, decoded)
        stats = {
            "groups": len(run.placed),
            "redundant": sum(
                1 for e in run.entries if e.eliminated_by is not None
            ),
        }
        stats.update(solver_stats)
        return stats

    def recover(self, run: PlacementRun) -> dict[str, int]:
        from ..core import pipeline as pl

        run.placed = pl._latest_placement(run.entries)
        return {"groups": len(run.placed), "redundant": 0}
