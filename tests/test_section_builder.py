"""SectionBuilder tests: placement-dependent widening of use sections."""

from __future__ import annotations


from conftest import analyzed, compile_to_context


SRC_2D = """
PROGRAM s
  PARAM n = 16
  PROCESSORS p(2, 2)
  REAL a(n, n)
  REAL b(n, n)
  DISTRIBUTE a(BLOCK, BLOCK) ONTO p
  DISTRIBUTE b(BLOCK, BLOCK) ONTO p
  DO t = 1, 4
    b(2:n-1, 2:n-1) = a(1:n-2, 2:n-1)
    a(2:n-1, 2:n-1) = b(2:n-1, 2:n-1)
  END DO
END
"""


class TestWidening:
    def test_section_at_use_is_elementwise(self):
        ctx, entries = analyzed(SRC_2D)
        (e,) = entries
        sec = ctx.sections.section_at(e.use, e.use.node)
        # no widening at the use itself: both dims are points
        assert all(d.is_point for d in sec.dims)

    def test_section_at_nest_preheader_is_vectorized(self):
        ctx, entries = analyzed(SRC_2D)
        (e,) = entries
        node = ctx.node_of(e.latest_pos)
        sec = ctx.sections.section_at(e.use, node)
        counts = [d.count_const() for d in sec.dims]
        assert counts == [14, 14]  # rows 1..14, cols 2..15

    def test_widened_bounds_shifted_by_subscript(self):
        ctx, entries = analyzed(SRC_2D)
        (e,) = entries
        node = ctx.node_of(e.latest_pos)
        sec = ctx.sections.section_at(e.use, node)
        assert str(sec.dims[0].lo) == "1"  # (i-1) over i=2..15
        assert str(sec.dims[0].hi) == "14"

    def test_partial_widening_keeps_live_symbol(self):
        # place inside the outer scalarized loop but outside the inner one
        ctx, entries = analyzed(SRC_2D)
        (e,) = entries
        inner = e.use.node.loops_containing()[-1]
        # the preheader of the innermost loop lives inside the outer loop
        sec = ctx.sections.section_at(e.use, ctx.cfg.nodes[inner.preheader])
        outer_var = e.use.node.loops_containing()[-2].var
        assert outer_var in sec.dims[0].lo.symbols
        assert sec.dims[1].count_const() == 14

    def test_cache_hit_returns_same_object(self):
        ctx, entries = analyzed(SRC_2D)
        (e,) = entries
        node = ctx.node_of(e.latest_pos)
        assert ctx.sections.section_at(e.use, node) is ctx.sections.section_at(
            e.use, node
        )

    def test_strided_use_keeps_stride(self):
        ctx, entries = analyzed(
            """
            PROGRAM s2
              PARAM n = 17
              PROCESSORS p(4)
              REAL a(n)
              REAL b(n)
              DISTRIBUTE a(BLOCK) ONTO p
              DISTRIBUTE b(BLOCK) ONTO p
              b(3:n:2) = a(1:n-2:2)
            END
            """
        )
        (e,) = entries
        node = ctx.node_of(e.latest_pos)
        sec = ctx.sections.section_at(e.use, node)
        assert sec.dims[0].step == 2
        assert (sec.dims[0].lo.const, sec.dims[0].hi.const) == (1, 15)

    def test_reduction_triplet_section(self):
        ctx, entries = analyzed(
            """
            PROGRAM s3
              PARAM n = 16
              PROCESSORS p(4)
              REAL a(n)
              REAL s
              DISTRIBUTE a(BLOCK) ONTO p
              s = SUM(a(2:n-1))
            END
            """
        )
        (e,) = entries
        node = ctx.node_of(e.latest_pos)
        sec = ctx.sections.section_at(e.use, node)
        assert (sec.dims[0].lo.const, sec.dims[0].hi.const) == (2, 15)


class TestLoopRanges:
    def test_live_ranges_at_node(self):
        ctx, entries = analyzed(SRC_2D)
        (e,) = entries
        ranges = ctx.sections.live_ranges_at(e.use.node)
        # three loops live: time loop + two scalarized dims
        assert len(ranges) == 3
        assert ranges["t"] == (1, 4)

    def test_triangular_ranges_widened(self):
        ctx = compile_to_context(
            """
            PROGRAM tri
              PARAM n = 8
              REAL a(8, 8)
              DO i = 1, n
                DO j = i, n
                  a(i, j) = 1
                END DO
              END DO
            END
            """
        )
        loops = ctx.cfg.loops
        inner_body = ctx.cfg.nodes[ctx.cfg.nodes[loops[1].header].succs[0]]
        ranges = ctx.sections.live_ranges_at(inner_body)
        assert ranges["i"] == (1, 8)
        assert ranges["j"] == (1, 8)  # lower bound widened via i's range
