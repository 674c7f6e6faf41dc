"""Greedy final placement and message combining (paper §4.7, Figure 9g).

Entries are considered most-constrained-first (fewest surviving candidate
positions — the analogue of Click's global code motion heuristic the paper
cites).  Each entry is pinned at the candidate position where it can
combine with the largest number of other still-active entries; ties prefer
the *latest* position (reducing buffer/cache contention, the SP2 "folk
truism" of §4.7).

Entries pinned at the same position are then partitioned into groups of
pairwise-compatible communications under the combined-size threshold, and
each group is finally moved to the **latest position common to the
candidate chains of its members and of every entry absorbed during
redundancy elimination** — deferring the real placement decision to the
last moment, which is the paper's central idea.
"""

from __future__ import annotations

from ..comm.compatibility import entries_combinable, message_volume
from ..comm.entries import CommEntry
from ..errors import PlacementError
from ..ir.cfg import Position
from .context import AnalysisContext
from .passes import PlacementPass, PlacementRun, register_pass
from .state import PlacedComm, PlacementState


def _combinable_at(
    ctx: AnalysisContext, a: CommEntry, b: CommEntry, pos: Position
) -> bool:
    """Memoizing wrapper around the §4.7 compatibility predicate.

    The verdict depends on ``pos`` only through its node (sections and
    live ranges are per-node) and is symmetric in (a, b), so it is cached
    under the unordered id pair plus the node id — one evaluation serves
    every position of a block, in both argument orders.
    """
    if a.id <= b.id:
        key = (a.id, b.id, pos.node_id)
    else:
        key = (b.id, a.id, pos.node_id)
    stats = ctx.cache_stats.get("combinable")
    verdict = ctx._combinable_cache.get(key)
    if verdict is not None:
        stats.hits += 1
        return verdict
    stats.misses += 1
    verdict = _combinable_at_impl(ctx, a, b, pos)
    ctx._combinable_cache[key] = verdict
    return verdict


def _combinable_at_impl(
    ctx: AnalysisContext, a: CommEntry, b: CommEntry, pos: Position
) -> bool:
    node = ctx.node_of(pos)
    ranges = ctx.sections.live_ranges_at(node)
    sec_a = ctx.sections.section_at(a.use, node)
    sec_b = ctx.sections.section_at(b.use, node)
    opts = ctx.options
    return entries_combinable(
        ctx.info,
        a,
        b,
        sec_a,
        sec_b,
        ranges,
        ctx.cost_model.threshold_bytes(),
        opts.hull_slack,
        opts.hull_const,
    )


def _entry_order(ctx: AnalysisContext, state: PlacementState,
                 entries: list[CommEntry]) -> list[CommEntry]:
    mode = ctx.options.greedy_order
    if mode == "constrained":
        return sorted(entries, key=lambda e: (len(state.stmt_set(e)), e.id))
    if mode == "reversed":
        return sorted(entries, key=lambda e: (-len(state.stmt_set(e)), e.id))
    return sorted(entries, key=lambda e: e.id)  # 'arbitrary': program order


def greedy_choose(ctx: AnalysisContext, state: PlacementState) -> list[PlacedComm]:
    """Pin every surviving entry, group, and push groups late."""
    alive = [e for e in state.alive_entries() if state.stmt_set(e)]
    for entry in _entry_order(ctx, state, alive):
        # Candidate positions in chain order, latest last, so the final
        # max() tie-breaks toward the latest position.
        chain = [p for p in entry.candidates if p in state.stmt_set(entry)]
        if not chain:
            raise PlacementError(f"{entry!r} has no active position left")
        best_pos = chain[-1]
        best_count = -1
        for pos in chain:  # earliest → latest; ">=" prefers the latest tie
            others = [
                state.by_id[i]
                for i in state.comm_set(pos)
                if i != entry.id and state.by_id[i].alive
            ]
            count = sum(1 for o in others if _combinable_at(ctx, entry, o, pos))
            if count >= best_count:
                best_count = count
                best_pos = pos
        state.restrict(entry, {best_pos})

    # Partition per position into compatible groups.
    by_pos: dict[Position, list[CommEntry]] = {}
    for entry in alive:
        (pos,) = state.stmt_set(entry)
        by_pos.setdefault(pos, []).append(entry)
    return finalize_groups(ctx, state, by_pos)


def finalize_groups(
    ctx: AnalysisContext,
    state: PlacementState,
    by_pos: dict[Position, list[CommEntry]],
) -> list[PlacedComm]:
    """Shared tail of the combining pass: partition each position's pinned
    entries into compatible groups and push every group late (the paper's
    final placement rule), honoring absorbed-entry coverage constraints."""
    placed: list[PlacedComm] = []
    for pos in sorted(by_pos):
        groups = _partition_groups(ctx, by_pos[pos], pos)
        for group in groups:
            final_pos = _final_position(ctx, state, group, pos)
            placed.append(PlacedComm(final_pos, group))
    placed.sort(key=lambda pc: pc.position)
    return placed


def ilp_choose(ctx: AnalysisContext, state: PlacementState) -> list[PlacedComm]:
    """Exact combining (§6.1): branch-and-bound assignment, then the same
    group partitioning and push-late finalization as the greedy pass.

    Raises :class:`PlacementError` when the candidate-chain product exceeds
    the search limit — the pipeline's fault boundary then degrades to
    :func:`greedy_choose`.  Does not mutate ``state``, so that fallback
    runs on untouched working sets.
    """
    from .ilp import optimal_placement  # local: ilp imports from greedy

    alive = [e for e in state.alive_entries() if state.stmt_set(e)]
    if not alive:
        return []
    assignment, _cost = optimal_placement(ctx, alive)
    by_pos: dict[Position, list[CommEntry]] = {}
    for entry in alive:
        by_pos.setdefault(assignment[entry.id], []).append(entry)
    return finalize_groups(ctx, state, by_pos)


def _partition_groups(
    ctx: AnalysisContext, entries: list[CommEntry], pos: Position
) -> list[list[CommEntry]]:
    """Greedy pairwise-compatible grouping under the volume threshold."""
    node = ctx.node_of(pos)
    ranges = ctx.sections.live_ranges_at(node)
    volumes = {
        e.id: message_volume(
            ctx.info, e, ctx.sections.section_at(e.use, node), ranges
        )
        for e in entries
    }
    threshold = ctx.cost_model.threshold_bytes()
    groups: list[list[CommEntry]] = []
    group_vol: list[int] = []
    for entry in sorted(entries, key=lambda e: e.id):
        for gi, group in enumerate(groups):
            if group_vol[gi] + volumes[entry.id] > threshold:
                continue
            if all(_combinable_at(ctx, entry, m, pos) for m in group):
                group.append(entry)
                group_vol[gi] += volumes[entry.id]
                break
        else:
            groups.append([entry])
            group_vol.append(volumes[entry.id])
    return groups


def _final_position(
    ctx: AnalysisContext,
    state: PlacementState,
    group: list[CommEntry],
    fallback: Position,
) -> Position:
    """Latest position common to the group's candidate chains and to every
    absorbed entry's coverage constraint."""
    constraints: list[set[Position]] = []
    for entry in group:
        constraints.extend(state.absorb_constraints.get(entry.id, []))
    try:
        if ctx.options.group_placement == "earliest":
            return state.earliest_common_position(group, constraints)
        return state.latest_common_position(group, constraints)
    except PlacementError:
        # The chosen greedy position is always a sound fallback: it is in
        # every member's chain (they were pinned there) and the coverage
        # constraints each contain their discovery position which dominates
        # it... if even that fails, keep the pin.
        return fallback


@register_pass
class GreedyCombinePass(PlacementPass):
    """§4.7 adapter: greedy combining with push-late group placement.

    On fault the manager resets every elimination (an elimination is only
    sound if the final placement honors its coverage constraints, which
    the fallback does not consult) and :meth:`recover` emits the Latest
    placement.
    """

    name = "greedy"
    section = "§4.7"
    description = "pin, group, and push-late combine surviving entries"
    needs_state = True
    mutates_entries = True
    fallback_desc = "every entry at its Latest point"

    def run(self, run: PlacementRun) -> dict[str, int]:
        from . import pipeline as pl  # late: monkeypatchable namespace

        assert run.state is not None
        run.placed = pl.greedy_choose(run.ctx, run.state)
        return {"groups": len(run.placed)}

    def recover(self, run: PlacementRun) -> dict[str, int]:
        from . import pipeline as pl

        run.placed = pl._latest_placement(run.entries)
        stats: dict[str, int] = {"groups": len(run.placed)}
        if "redundant" in run.stats:
            stats["redundant"] = 0
        return stats
