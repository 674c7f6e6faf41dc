"""Subset elimination (paper §4.5).

With the number and volume of messages prioritized over overlap, a
position whose CommSet is a subset of another position's CommSet offers
strictly less combining opportunity and can be dropped without hurting the
final solution: ``CommSet(S1) ⊆ CommSet(S2)  ⇒  CommSet(S1) := ∅``.

For *equal* sets either may be emptied (paper); we keep the later
(dominance-deepest) position, consistent with the final push-late rule.
The paper notes this step must be dropped if overlap optimization is ever
added (§6) — ``disabled_passes=("subset",)`` does exactly that.
"""

from __future__ import annotations

from ..ir.cfg import Position
from .context import AnalysisContext
from .passes import PlacementPass, PlacementRun, register_pass
from .state import PlacementState


def subset_eliminate(ctx: AnalysisContext, state: PlacementState) -> int:
    """Run subset elimination; returns the number of positions emptied.

    One pass reaches the fixed point: emptying CommSet(S1) never changes
    any other position's CommSet, so the subset relation among the
    *initial* sets already determines the outcome.  (A witness that is
    itself emptied is fine — following witness links, which only grow the
    set or move strictly later in dominance, always terminates at a
    surviving witness for the same position.)  Comparing against
    positions with smaller CommSets is skipped outright.
    """
    positions = [p for p in state.all_positions() if state.comm_set(p)]
    sets = {p: frozenset(state.comm_set(p)) for p in positions}
    # Positions sharing a CommSet behave identically, so compare *distinct*
    # sets (far fewer than positions — every interior position of a block
    # has the same set) and resolve equal-set ties inside each bucket.
    buckets: dict[frozenset[int], list[Position]] = {}
    for p in positions:
        buckets.setdefault(sets[p], []).append(p)
    distinct = list(buckets)
    doomed: list[Position] = []
    for s1 in distinct:
        n1 = len(s1)
        if any(n1 < len(s2) and s1 <= s2 for s2 in distinct):
            # Strictly contained: every position with this set goes.
            doomed.extend(buckets[s1])
            continue
        # Equal sets: empty only the earlier positions (keep the
        # dominance-maximal ones, consistent with the push-late rule).
        group = buckets[s1]
        if len(group) > 1:
            dominates = ctx.position_dominates
            doomed.extend(
                p1
                for p1 in group
                if any(p1 is not p2 and dominates(p1, p2) for p2 in group)
            )
    for p in doomed:
        for eid in sets[p]:
            state.deactivate(state.by_id[eid], p)
    return len(doomed)


@register_pass
class SubsetEliminationPass(PlacementPass):
    """§4.5 adapter: empty positions offering strictly less combining."""

    name = "subset"
    section = "§4.5"
    description = "empty CommSets that are subsets of another position's"
    needs_state = True
    mutates_state = True
    fallback_desc = "pass skipped (all candidates kept)"

    def run(self, run: PlacementRun) -> dict[str, int]:
        from . import pipeline as pl  # late: monkeypatchable namespace

        assert run.state is not None
        return {"subset_emptied": pl.subset_eliminate(run.ctx, run.state)}

    def recover(self, run: PlacementRun) -> dict[str, int]:
        return {"subset_emptied": 0}
