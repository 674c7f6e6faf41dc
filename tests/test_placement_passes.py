"""Subset elimination (§4.5) and global redundancy elimination (§4.6)."""

from __future__ import annotations

from repro.core.redundancy import (
    coverage_positions,
    redundancy_eliminate,
    subsumes_at,
)
from repro.core.state import PlacementState
from repro.core.subset import subset_eliminate
from conftest import analyzed


def state_for(source: str, params=None):
    ctx, entries = analyzed(source, params)
    return ctx, entries, PlacementState(ctx, entries)


class TestCommSetMachinery:
    def test_comm_set_contents(self, fig4_source):
        ctx, entries, state = state_for(fig4_source)
        latest = entries[0].latest_pos  # pre(i): all four entries share it
        assert state.comm_set(latest) == {e.id for e in entries}

    def test_deactivate(self, fig4_source):
        ctx, entries, state = state_for(fig4_source)
        e = entries[0]
        pos = e.candidates[0]
        state.deactivate(e, pos)
        assert pos not in state.stmt_set(e)

    def test_deactivate_dominated_keeps_prefix(self, fig4_source):
        ctx, entries, state = state_for(fig4_source)
        e = entries[2]  # a2: several candidates
        mid = e.candidates[len(e.candidates) // 2]
        state.deactivate_dominated(e, mid)
        for p in state.stmt_set(e):
            assert not ctx.position_dominates(mid, p)

    def test_latest_common_position(self, fig4_source):
        ctx, entries, state = state_for(fig4_source)
        a2 = entries[2]
        b2 = entries[3]
        pos = state.latest_common_position([a2, b2], [])
        common = a2.candidate_set() & b2.candidate_set()
        assert pos in common
        for p in common:
            assert ctx.position_dominates(p, pos)


class TestSubsetElimination:
    def test_proper_subsets_emptied(self, fig4_source):
        ctx, entries, state = state_for(fig4_source)
        emptied = subset_eliminate(ctx, state)
        assert emptied > 0
        # No position's CommSet is a proper subset of another's afterwards.
        sets = {
            p: frozenset(state.comm_set(p))
            for p in state.all_positions()
            if state.comm_set(p)
        }
        for p1, s1 in sets.items():
            for p2, s2 in sets.items():
                if p1 != p2:
                    assert not (s1 < s2)

    def test_no_entry_loses_all_positions(self, fig4_source):
        ctx, entries, state = state_for(fig4_source)
        subset_eliminate(ctx, state)
        for e in entries:
            assert state.stmt_set(e)

    def test_equal_sets_keep_latest(self, stencil_source):
        ctx, entries, state = state_for(stencil_source)
        subset_eliminate(ctx, state)
        sets = {
            p: frozenset(state.comm_set(p))
            for p in state.all_positions()
            if state.comm_set(p)
        }
        for p1, s1 in sets.items():
            for p2, s2 in sets.items():
                if p1 != p2 and s1 == s2:
                    raise AssertionError("duplicate CommSets survived")


class TestRedundancyElimination:
    def test_fig4_eliminates_subsumed_pair(self, fig4_source):
        ctx, entries, state = state_for(fig4_source)
        subset_eliminate(ctx, state)
        eliminated = redundancy_eliminate(ctx, state)
        assert eliminated == 2
        a1, b1, a2, b2 = entries
        assert not a1.alive and not b1.alive
        assert a1.eliminated_by == a2.id and b1.eliminated_by == b2.id
        assert a1 in a2.absorbed and b1 in b2.absorbed

    def test_subsumes_at_respects_sections(self, fig4_source):
        ctx, entries, state = state_for(fig4_source)
        a1, b1, a2, b2 = entries
        pos = a2.latest_pos
        assert subsumes_at(ctx, a2, a1, pos)  # all columns covers odd
        assert not subsumes_at(ctx, a1, a2, pos)  # odd does not cover all
        assert not subsumes_at(ctx, a2, b1, pos)  # different arrays never

    def test_subsumes_never_self(self, fig4_source):
        ctx, entries, state = state_for(fig4_source)
        for e in entries:
            assert not subsumes_at(ctx, e, e, e.latest_pos)

    def test_coverage_positions_nonempty_for_fig4(self, fig4_source):
        ctx, entries, state = state_for(fig4_source)
        a1, b1, a2, b2 = entries
        cov = coverage_positions(ctx, a2, a1)
        assert cov
        assert cov <= (a1.candidate_set() & a2.candidate_set())

    def test_identical_uses_deduplicate(self):
        ctx, entries, state = state_for(
            """
            PROGRAM t
              PARAM n = 16
              PROCESSORS p(4)
              REAL a(n)
              REAL b(n)
              REAL c(n)
              DISTRIBUTE a(BLOCK) ONTO p
              DISTRIBUTE b(BLOCK) ONTO p
              DISTRIBUTE c(BLOCK) ONTO p
              b(2:n) = a(1:n-1)
              c(2:n) = a(1:n-1)
            END
            """
        )
        assert len(entries) == 2
        subset_eliminate(ctx, state)
        killed = redundancy_eliminate(ctx, state)
        assert killed == 1
        assert sum(1 for e in entries if e.alive) == 1

    def test_different_shifts_not_redundant(self):
        ctx, entries, state = state_for(
            """
            PROGRAM t
              PARAM n = 16
              PROCESSORS p(4)
              REAL a(n)
              REAL b(n)
              DISTRIBUTE a(BLOCK) ONTO p
              DISTRIBUTE b(BLOCK) ONTO p
              b(2:n-1) = a(1:n-2) + a(3:n)
            END
            """
        )
        subset_eliminate(ctx, state)
        assert redundancy_eliminate(ctx, state) == 0
        assert all(e.alive for e in entries)

    def test_transitive_absorption(self):
        # three identical uses: one survivor absorbs both others.
        ctx, entries, state = state_for(
            """
            PROGRAM t
              PARAM n = 16
              PROCESSORS p(4)
              REAL a(n)
              REAL b(n)
              REAL c(n)
              REAL d(n)
              DISTRIBUTE a(BLOCK) ONTO p
              DISTRIBUTE b(BLOCK) ONTO p
              DISTRIBUTE c(BLOCK) ONTO p
              DISTRIBUTE d(BLOCK) ONTO p
              b(2:n) = a(1:n-1)
              c(2:n) = a(1:n-1)
              d(2:n) = a(1:n-1)
            END
            """
        )
        subset_eliminate(ctx, state)
        assert redundancy_eliminate(ctx, state) == 2
        survivors = [e for e in entries if e.alive]
        assert len(survivors) == 1
        assert len(survivors[0].absorbed) == 2
        # absorbed entries must point at the live winner, not at each other
        for victim in survivors[0].absorbed:
            assert victim.eliminated_by == survivors[0].id
