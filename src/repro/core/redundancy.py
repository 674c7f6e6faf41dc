"""Global redundancy elimination (paper §4.6, Figure 9f).

A communication ``(D1, M1)`` is made redundant by ``(D2, M2)`` when
``D1 ⊆ D2`` and ``M2(D1) ⊇ M1(D1)`` — here: same array, same canonical
mapping, and symbolic-section containment *evaluated at the shared
candidate position* (sections widen as positions hoist, so the test is
position-dependent).

Unlike classic availability analysis, the subsumed entry is disabled not
just at the discovering statement but at **every dominated position** —
the key move that lets a *later-than-earliest* placement of ``b2`` fully
eliminate ``b1`` in the paper's Figure 4, where earliest placement keeps
both messages.

When an entry loses all its active positions it is eliminated outright and
attached to its subsumer, along with the set of positions where the
coverage actually holds; the final group placement must land inside every
such constraint set (Claim 4.7's safety).
"""

from __future__ import annotations

from ..comm.entries import CommEntry
from ..comm.patterns import mapping_subsumes
from ..ir.cfg import Position
from .context import AnalysisContext
from .passes import PlacementPass, PlacementRun, register_pass
from .state import PlacementState


def subsumes_at(
    ctx: AnalysisContext, winner: CommEntry, loser: CommEntry, pos: Position
) -> bool:
    """Does ``winner``'s communication at ``pos`` fully cover ``loser``'s?

    Verdicts are memoized in two canonical stages rather than per raw
    ``(winner.id, loser.id, node)`` triple — entry ids are minted fresh
    for every ``collect_entries`` round, so the old key never repeated
    and the cache sat at a 0% hit rate:

    * the *static* stage (same array, same reduction-ness, mapping
      subsumption) depends only on the underlying :class:`~repro.ir.ssa.Use`
      pair, which is stable for the lifetime of the context — keyed on
      the ordered ``(id(winner.use), id(loser.use))`` pair (the predicate
      is not symmetric);
    * the *section* stage is keyed on the ordered pair of hash-consed
      section descriptor ids — ``section_at`` interns descriptors in the
      builder's pool, so every position whose node widens to the same
      footprint shares one id, and re-analysis rounds (multi-strategy
      compiles, fixed-point re-passes) hit instead of recomputing the
      containment.

    :func:`_subsumes_at_impl` is the unmemoized predicate every verdict
    must equal.
    """
    if winner is loser:
        return False
    stats = ctx.cache_stats.get("subsumes")
    pair_key = (id(winner.use), id(loser.use))
    static = ctx._subsumes_static_cache.get(pair_key)
    static_hit = static is not None
    if not static_hit:
        static = _subsumes_static(winner, loser)
        ctx._subsumes_static_cache[pair_key] = static
    if not static:
        if static_hit:
            stats.hits += 1
        else:
            stats.misses += 1
        return False
    node = ctx.node_of(pos)
    sec_w = ctx.sections.section_at(winner.use, node)
    sec_l = ctx.sections.section_at(loser.use, node)
    sec_key = (id(sec_w), id(sec_l))
    verdict = ctx._subsumes_section_cache.get(sec_key)
    if verdict is None:
        verdict = sec_w.contains(sec_l)
        ctx._subsumes_section_cache[sec_key] = verdict
        stats.misses += 1
    elif static_hit:
        stats.hits += 1
    else:
        stats.misses += 1
    return verdict


def _subsumes_static(winner: CommEntry, loser: CommEntry) -> bool:
    """The position-independent part of the predicate."""
    if winner.array != loser.array:
        return False
    if winner.is_reduction != loser.is_reduction:
        return False
    return mapping_subsumes(winner.pattern.mapping, loser.pattern.mapping)


def _subsumes_at_impl(
    ctx: AnalysisContext, winner: CommEntry, loser: CommEntry, pos: Position
) -> bool:
    if not _subsumes_static(winner, loser):
        return False
    node = ctx.node_of(pos)
    sec_w = ctx.sections.section_at(winner.use, node)
    sec_l = ctx.sections.section_at(loser.use, node)
    return sec_w.contains(sec_l)


def coverage_positions(
    ctx: AnalysisContext, winner: CommEntry, loser: CommEntry
) -> set[Position]:
    """Positions in both candidate chains where the subsumption holds —
    the constraint set attached on elimination."""
    shared = winner.candidate_set() & loser.candidate_set()
    return {p for p in shared if subsumes_at(ctx, winner, loser, p)}


def redundancy_eliminate(ctx: AnalysisContext, state: PlacementState) -> int:
    """Figure 9f to a fixed point; returns how many entries were fully
    eliminated."""
    eliminated = 0
    changed = True
    while changed:
        changed = False
        for pos in state.all_positions():
            ids = sorted(state.comm_set(pos))
            for i in ids:
                winner = state.by_id[i]
                if not winner.alive:
                    continue
                for j in ids:
                    loser = state.by_id[j]
                    if not loser.alive or loser is winner:
                        continue
                    if pos not in state.active[loser.id]:
                        continue
                    if not subsumes_at(ctx, winner, loser, pos):
                        continue
                    state.deactivate_dominated(loser, pos)
                    changed = True
                    if not state.active[loser.id]:
                        valid = coverage_positions(ctx, winner, loser)
                        state.mark_eliminated(loser, winner, valid)
                        # Transitive absorption: anything the loser had
                        # absorbed moves to the winner, constraints intact.
                        for moved in loser.absorbed:
                            moved.eliminated_by = winner.id
                            winner.absorbed.append(moved)
                        loser.absorbed = []
                        for constraint in state.absorb_constraints.pop(
                            loser.id, []
                        ):
                            state.absorb_constraints.setdefault(
                                winner.id, []
                            ).append(constraint)
                        eliminated += 1
    return eliminated


@register_pass
class RedundancyEliminationPass(PlacementPass):
    """§4.6 adapter: dominance-aware global redundancy elimination."""

    name = "redundancy"
    section = "§4.6"
    description = "eliminate communications fully covered by another"
    needs_state = True
    mutates_state = True
    mutates_entries = True  # eliminated_by/absorbed marks roll back too
    fallback_desc = "pass rolled back (no eliminations)"

    def run(self, run: PlacementRun) -> dict[str, int]:
        from . import pipeline as pl  # late: monkeypatchable namespace

        assert run.state is not None
        return {"redundant": pl.redundancy_eliminate(run.ctx, run.state)}

    def recover(self, run: PlacementRun) -> dict[str, int]:
        return {"redundant": 0}
