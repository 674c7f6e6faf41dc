"""Latest-placement (§4.2) tests: CommLevel and the vectorization point."""

from __future__ import annotations

from repro.core.latest import reaching_regular_defs
from repro.ir.cfg import NodeKind
from conftest import analyzed


def entry_by_label(entries, label_part: str):
    return next(e for e in entries if label_part in e.label)


class TestCommLevel:
    def test_no_deps_hoists_fully(self):
        ctx, entries = analyzed(
            """
            PROGRAM t
              PARAM n = 16
              PROCESSORS p(4)
              REAL a(n)
              REAL b(n)
              DISTRIBUTE a(BLOCK) ONTO p
              DISTRIBUTE b(BLOCK) ONTO p
              DO i = 2, n
                a(i) = b(i - 1)
              END DO
            END
            """
        )
        (e,) = entries
        assert e.comm_level == 0
        node = ctx.node_of(e.latest_pos)
        assert node.kind is NodeKind.PREHEADER
        assert node.nl == 0  # preheader of the outermost loop

    def test_time_loop_carried_dep_keeps_comm_inside(self, stencil_source):
        ctx, entries = analyzed(stencil_source)
        for e in entries:
            if e.array != "a":
                continue
            assert e.comm_level == 1
            node = ctx.node_of(e.latest_pos)
            # inside the time loop: the preheader of the scalarized nest
            assert node.nl == 1

    def test_def_before_use_same_level(self):
        ctx, entries = analyzed(
            """
            PROGRAM t
              PARAM n = 16
              PROCESSORS p(4)
              REAL a(n)
              REAL b(n)
              DISTRIBUTE a(BLOCK) ONTO p
              DISTRIBUTE b(BLOCK) ONTO p
              a(:) = 1
              b(2:n) = a(1:n-1)
            END
            """
        )
        (e,) = entries
        assert e.comm_level == 0
        # Hoisted to the preheader of the consuming nest (after the def).
        node = ctx.node_of(e.latest_pos)
        assert node.kind is NodeKind.PREHEADER

    def test_dep_inside_loop_pins_before_statement(self):
        ctx, entries = analyzed(
            """
            PROGRAM t
              PARAM n = 16
              PROCESSORS p(4)
              REAL a(n)
              REAL b(n)
              DISTRIBUTE a(BLOCK) ONTO p
              DISTRIBUTE b(BLOCK) ONTO p
              DO i = 2, n
                a(i) = 1
                b(i) = a(i - 1)
              END DO
            END
            """
        )
        (e,) = entries
        # carried dep at level 1 == NL(use): placed right before the use.
        assert e.comm_level == 1
        assert e.latest_pos == ctx.cfg.position_before(e.use.stmt)

    def test_reduction_pinned_to_statement(self):
        ctx, entries = analyzed(
            """
            PROGRAM t
              PARAM n = 16
              PROCESSORS p(4)
              REAL a(n)
              REAL s
              DISTRIBUTE a(BLOCK) ONTO p
              DO k = 1, 4
                s = SUM(a(1:n))
                a(2:n) = s
              END DO
            END
            """
        )
        red = next(e for e in entries if e.is_reduction)
        assert red.latest_pos == ctx.cfg.position_before(red.use.stmt)
        assert red.earliest_pos == red.latest_pos
        assert red.candidates == [red.latest_pos]


class TestReachingDefs:
    def test_all_writers_found_through_phis(self, fig4_source):
        ctx, entries = analyzed(fig4_source)
        a_entry = next(e for e in entries if e.array == "a")
        defs = reaching_regular_defs(ctx.ssa, a_entry.use)
        stmts = {
            str(d.stmt) for d in defs if hasattr(d, "stmt") and d.stmt is not None
        }
        assert any("= 3" in s for s in stmts)  # then-branch write
        assert any("= d(" in s for s in stmts)  # else-branch write

    def test_entry_def_included(self, fig4_source):
        ctx, entries = analyzed(fig4_source)
        b_entry = next(e for e in entries if e.array == "b")
        defs = reaching_regular_defs(ctx.ssa, b_entry.use)
        from repro.ir.ssa import EntryDef

        assert any(isinstance(d, EntryDef) for d in defs)

    def test_chain_does_not_loop_forever(self, stencil_source):
        ctx, entries = analyzed(stencil_source)
        for e in entries:
            defs = reaching_regular_defs(ctx.ssa, e.use)
            assert len(defs) < 20
