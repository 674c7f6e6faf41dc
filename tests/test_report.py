"""Report / annotated-listing / schedule-lowering tests."""

from __future__ import annotations


from repro.codegen.report import annotated_listing, schedule_report
from repro.codegen.spmd import anchor_of_position, lower_schedule
from repro.core.pipeline import Strategy, compile_program
from repro.evaluation.programs import BENCHMARKS
from repro.ir.cfg import NodeKind, Position


class TestAnchors:
    def test_after_statement_anchor(self, fig4_source):
        result = compile_program(fig4_source, strategy="orig")
        ctx = result.ctx
        node = next(n for n in ctx.cfg.nodes if n.stmts)
        anchor = anchor_of_position(ctx, Position(node.id, 0))
        assert anchor == ("after_stmt", node.stmts[0].sid)

    def test_preheader_anchor(self, stencil_source):
        result = compile_program(stencil_source, strategy="orig")
        ctx = result.ctx
        loop = ctx.cfg.loops[0]
        anchor = anchor_of_position(ctx, Position(loop.preheader, -1))
        assert anchor == ("loop_pre", loop.stmt.sid)

    def test_header_anchor(self, stencil_source):
        result = compile_program(stencil_source, strategy="orig")
        ctx = result.ctx
        loop = ctx.cfg.loops[0]
        anchor = anchor_of_position(ctx, Position(loop.header, -1))
        assert anchor == ("loop_top", loop.stmt.sid)

    def test_postexit_anchor(self, stencil_source):
        result = compile_program(stencil_source, strategy="orig")
        ctx = result.ctx
        loop = ctx.cfg.loops[0]
        anchor = anchor_of_position(ctx, Position(loop.postexit, -1))
        assert anchor == ("loop_post", loop.stmt.sid)

    def test_entry_anchor(self, fig4_source):
        result = compile_program(fig4_source, strategy="orig")
        ctx = result.ctx
        assert anchor_of_position(ctx, Position(ctx.cfg.entry.id, -1)) == ("start",)

    def test_join_anchor_names_the_if(self, fig4_source):
        result = compile_program(fig4_source, strategy="orig")
        ctx = result.ctx
        join = next(n for n in ctx.cfg.nodes if n.kind is NodeKind.JOIN)
        kind, sid = anchor_of_position(ctx, Position(join.id, -1))
        assert kind == "after_stmt"
        from repro.frontend import ast_nodes as ast

        stmt = next(s for s in ctx.info.program.statements() if s.sid == sid)
        assert isinstance(stmt, ast.If)

    def test_every_placed_op_anchors(self):
        for program, params in (
            ("shallow", {"n": 8, "nsteps": 2, "pr": 2, "pc": 2}),
            ("gravity", {"n": 8, "pr": 2, "pc": 2}),
        ):
            for strategy in Strategy:
                result = compile_program(
                    BENCHMARKS[program], params=params, strategy=strategy
                )
                sched = lower_schedule(result)
                anchored = sum(len(ops) for ops in sched.anchors.values())
                assert anchored == len(result.placed)


class TestReports:
    def test_schedule_report_mentions_everything(self, fig4_source):
        result = compile_program(fig4_source, strategy="comb")
        text = schedule_report(result)
        assert "fig4" in text
        assert "call sites" in text
        assert "COMM shift" in text
        assert "covers" in text  # absorbed entries listed

    def test_annotated_listing_interleaves_comm(self, fig4_source):
        result = compile_program(fig4_source, strategy="comb")
        text = annotated_listing(result)
        assert text.startswith("PROGRAM fig4")
        assert "! COMM" in text
        assert text.rstrip().endswith("END PROGRAM")
        # communication appears before the consuming loop nest
        comm_at = text.index("! COMM")
        use_at = text.index("c(i, j)")
        assert comm_at < use_at

    def test_orig_report_counts(self, fig4_source):
        result = compile_program(fig4_source, strategy="orig")
        text = schedule_report(result)
        assert "4 call sites" in text

    def test_report_for_reductions(self):
        result = compile_program(BENCHMARKS["gravity"], strategy="comb")
        text = schedule_report(result)
        assert "reduction" in text


class TestListingParseability:
    def test_annotated_listing_is_valid_source(self, fig4_source):
        """COMM annotations are comments; the listing must re-parse
        (without declarations it needs them spliced back in)."""
        from repro.frontend.parser import parse
        from repro.frontend.printer import unparse

        from repro.frontend import ast_nodes as ast

        result = compile_program(fig4_source, strategy="comb")
        listing = annotated_listing(result)
        # Render just the declarations via the unparser and splice the
        # annotated body after them.
        decl_only = unparse(
            ast.Program(result.program.name, result.program.decls, [])
        ).splitlines()
        body = listing.splitlines()
        spliced = decl_only[:-1] + body[1:]  # drop END, drop PROGRAM line
        reparsed = parse("\n".join(spliced))
        assert reparsed.name == result.program.name
        # same number of executable statements as the scalarized program
        assert len(list(reparsed.statements())) == len(
            list(result.program.statements())
        )
