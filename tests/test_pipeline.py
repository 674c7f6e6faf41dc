"""Compilation-pipeline tests: strategy dispatch, result structure, and
cross-strategy invariants."""

from __future__ import annotations

import pytest

from repro.core.pipeline import (
    Strategy,
    compile_all_strategies,
    compile_program,
)
from repro.frontend.parser import parse


class TestStrategyParsing:
    @pytest.mark.parametrize(
        "name,expected",
        [
            ("orig", Strategy.ORIG),
            ("ORIG", Strategy.ORIG),
            ("latest", Strategy.ORIG),
            ("nored", Strategy.EARLIEST),
            ("earliest", Strategy.EARLIEST),
            ("comb", Strategy.GLOBAL),
            ("global", Strategy.GLOBAL),
            (Strategy.GLOBAL, Strategy.GLOBAL),
        ],
    )
    def test_aliases(self, name, expected):
        assert Strategy.parse(name) is expected

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            Strategy.parse("quantum")


class TestResultStructure:
    def test_accepts_source_or_ast(self, stencil_source):
        from_src = compile_program(stencil_source)
        from_ast = compile_program(parse(stencil_source))
        assert from_src.call_sites() == from_ast.call_sites()

    def test_param_override_threads_through(self, stencil_source):
        result = compile_program(stencil_source, params={"n": 64})
        assert result.info.params["n"] == 64
        assert result.info.shape("a") == (64,)

    def test_every_group_position_is_member_candidate(self, fig4_source):
        for strategy in Strategy:
            result = compile_program(fig4_source, strategy=strategy)
            for pc in result.placed:
                for e in pc.entries:
                    assert pc.position in e.candidate_set()

    def test_every_alive_entry_placed_exactly_once(self, fig4_source):
        for strategy in Strategy:
            result = compile_program(fig4_source, strategy=strategy)
            placed_ids = [
                e.id for pc in result.placed for e in pc.entries
            ]
            assert len(placed_ids) == len(set(placed_ids))
            alive = {e.id for e in result.entries if e.alive}
            assert set(placed_ids) == alive

    def test_eliminated_entries_have_live_winners(self, fig4_source):
        result = compile_program(fig4_source, strategy="comb")
        by_id = {e.id: e for e in result.entries}
        for e in result.eliminated_entries():
            winner = by_id[e.eliminated_by]
            while winner.eliminated_by is not None:
                winner = by_id[winner.eliminated_by]
            assert winner.alive

    def test_stats_populated(self, fig4_source):
        result = compile_program(fig4_source, strategy="comb")
        assert result.stats["entries"] == 4
        assert result.stats["redundant"] == 2
        assert result.stats["groups"] == result.call_sites()

    def test_no_comm_program(self):
        result = compile_program(
            """
            PROGRAM local
              PARAM n = 16
              PROCESSORS p(4)
              REAL a(n)
              DISTRIBUTE a(BLOCK) ONTO p
              a(:) = 1
            END
            """
        )
        assert result.call_sites() == 0
        assert result.entries == []

    def test_replicated_program_no_comm(self):
        result = compile_program(
            """
            PROGRAM rep
              PARAM n = 16
              REAL a(n)
              REAL b(n)
              b(2:n) = a(1:n-1)
            END
            """
        )
        assert result.call_sites() == 0


class TestCrossStrategyInvariants:
    def test_global_never_worse_than_others(self, fig4_source, stencil_source):
        for source in (fig4_source, stencil_source):
            results = compile_all_strategies(source)
            sites = {s: r.call_sites() for s, r in results.items()}
            assert sites[Strategy.GLOBAL] <= sites[Strategy.ORIG]
            assert sites[Strategy.GLOBAL] <= sites[Strategy.EARLIEST]

    def test_same_entries_discovered_by_all_strategies(self, fig4_source):
        results = compile_all_strategies(fig4_source)
        labels = {
            s: sorted(e.label for e in r.entries) for s, r in results.items()
        }
        assert labels[Strategy.ORIG] == labels[Strategy.EARLIEST]
        assert labels[Strategy.ORIG] == labels[Strategy.GLOBAL]

    def test_orig_places_at_latest(self, fig4_source):
        result = compile_program(fig4_source, strategy="orig")
        for pc in result.placed:
            (e,) = pc.entries
            assert pc.position == e.latest_pos

    def test_earliest_places_at_earliest(self, fig4_source):
        result = compile_program(fig4_source, strategy="nored")
        for pc in result.placed:
            (e,) = pc.entries
            assert pc.position == e.earliest_pos


class TestGroupInvariants:
    """§4.7 output invariants on the real benchmarks: every emitted group
    is pairwise combinable at its final (push-late) position."""

    def test_benchmark_groups_are_coherent(self):
        from repro.comm.compatibility import message_volume
        from repro.core.greedy import _combinable_at
        from repro.evaluation.programs import BENCHMARKS

        for name, src in BENCHMARKS.items():
            result = compile_program(src, strategy=Strategy.GLOBAL)
            ctx = result.ctx
            for pc in result.placed:
                node = ctx.node_of(pc.position)
                ranges = ctx.sections.live_ranges_at(node)
                total = 0
                for i, a in enumerate(pc.entries):
                    total += message_volume(
                        ctx.info, a,
                        ctx.sections.section_at(a.use, node), ranges,
                    )
                    for b in pc.entries[i + 1:]:
                        assert _combinable_at(ctx, a, b, pc.position), (
                            name, a.label, b.label
                        )
                if len(pc.entries) > 1:
                    assert total <= ctx.cost_model.threshold_bytes(), name

    def test_absorbed_entries_covered_at_final_position(self):
        from repro.core.redundancy import subsumes_at
        from repro.evaluation.programs import BENCHMARKS

        for name, src in BENCHMARKS.items():
            result = compile_program(src, strategy=Strategy.GLOBAL)
            ctx = result.ctx
            for pc in result.placed:
                for entry in pc.entries:
                    for victim in entry.absorbed:
                        assert subsumes_at(ctx, entry, victim, pc.position), (
                            name, entry.label, victim.label
                        )
