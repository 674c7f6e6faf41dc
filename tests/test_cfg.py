"""Augmented CFG structure tests (paper §4.1 / Figure 7)."""

from __future__ import annotations

from repro.frontend.parser import parse
from repro.ir.cfg import CFG, NodeKind, Position



def build(source: str) -> CFG:
    return CFG(parse(source))


SRC_LOOP = """PROGRAM t
REAL a(8)
DO i = 1, 8
a(i) = 1
END DO
END"""

SRC_IF = """PROGRAM t
REAL s
IF s > 0 THEN
s = 1
ELSE
s = 2
END IF
END"""


class TestStructure:
    def test_entry_exit_exist(self):
        cfg = build("PROGRAM t\nREAL s\ns = 1\nEND")
        assert cfg.entry.kind is NodeKind.ENTRY
        assert cfg.exit.kind is NodeKind.EXIT
        assert cfg.exit.succs == ()

    def test_edges_mirrored(self):
        cfg = build(SRC_LOOP)
        for node in cfg.nodes:
            for s in node.succs:
                assert node.id in cfg.nodes[s].preds
            for p in node.preds:
                assert node.id in cfg.nodes[p].succs

    def test_loop_anchor_nodes(self):
        cfg = build(SRC_LOOP)
        (loop,) = cfg.loops
        nodes = cfg.nodes
        assert nodes[loop.preheader].kind is NodeKind.PREHEADER
        assert nodes[loop.header].kind is NodeKind.HEADER
        assert nodes[loop.latch].kind is NodeKind.LATCH
        assert nodes[loop.postexit].kind is NodeKind.POSTEXIT

    def test_zero_trip_edge(self):
        cfg = build(SRC_LOOP)
        (loop,) = cfg.loops
        assert loop.postexit in cfg.nodes[loop.preheader].succs

    def test_postexit_pred_order_zero_trip_first(self):
        # SSA φ-exit parameter order depends on this.
        cfg = build(SRC_LOOP)
        (loop,) = cfg.loops
        assert cfg.nodes[loop.postexit].preds == (loop.preheader, loop.header)

    def test_header_pred_order_preheader_first(self):
        cfg = build(SRC_LOOP)
        (loop,) = cfg.loops
        assert cfg.nodes[loop.header].preds == (loop.preheader, loop.latch)

    def test_back_edge(self):
        cfg = build(SRC_LOOP)
        (loop,) = cfg.loops
        assert loop.header in cfg.nodes[loop.latch].succs

    def test_preheader_outside_loop(self):
        cfg = build(SRC_LOOP)
        (loop,) = cfg.loops
        assert cfg.nodes[loop.preheader].nl == 0
        assert cfg.nodes[loop.header].nl == 1
        assert cfg.nodes[loop.postexit].nl == 0

    def test_branch_and_join(self):
        cfg = build(SRC_IF)
        kinds = {n.kind for n in cfg.nodes}
        assert NodeKind.BRANCH in kinds and NodeKind.JOIN in kinds
        branch = next(n for n in cfg.nodes if n.kind is NodeKind.BRANCH)
        assert len(branch.succs) == 2
        assert branch.origin_sid == 1

    def test_if_without_else_edge(self):
        cfg = build("PROGRAM t\nREAL s\nIF s > 0 THEN\ns = 1\nEND IF\nEND")
        branch = next(n for n in cfg.nodes if n.kind is NodeKind.BRANCH)
        join = next(n for n in cfg.nodes if n.kind is NodeKind.JOIN)
        assert join.id in branch.succs  # fall-through edge


class TestNesting:
    SRC = """PROGRAM t
REAL a(8, 8)
DO i = 1, 8
DO j = 1, 8
a(i, j) = 1
END DO
END DO
END"""

    def test_depths(self):
        cfg = build(self.SRC)
        outer, inner = cfg.loops
        assert outer.depth == 1 and inner.depth == 2
        assert inner.parent is outer
        assert outer.children == [inner.id]

    def test_contains(self):
        cfg = build(self.SRC)
        outer, inner = cfg.loops
        assert outer.contains_loop(inner)
        assert not inner.contains_loop(outer)
        assert outer.contains_node(cfg.nodes[inner.header])

    def test_cnl(self):
        cfg = build(self.SRC)
        stmt = next(iter(cfg.assigns()))
        node = cfg.node_of_stmt(stmt)
        assert cfg.cnl(node, node) == 2
        assert cfg.cnl(node, cfg.entry) == 0

    def test_loops_containing_order(self):
        cfg = build(self.SRC)
        stmt = next(iter(cfg.assigns()))
        chain = cfg.node_of_stmt(stmt).loops_containing()
        assert [l.depth for l in chain] == [1, 2]


class TestPositions:
    def test_before_after(self):
        cfg = build("PROGRAM t\nREAL s\ns = 1\ns = 2\nEND")
        stmts = list(cfg.assigns())
        p0 = cfg.position_before(stmts[0])
        p1 = cfg.position_after(stmts[0])
        p2 = cfg.position_before(stmts[1])
        assert p0.index == -1
        assert p1 == p2  # after s1 == before s2 in the same block

    def test_position_ordering(self):
        assert Position(3, -1) < Position(3, 0) < Position(4, -1)

    def test_reverse_postorder_starts_at_entry(self):
        cfg = build(SRC_LOOP)
        order = cfg.reverse_postorder()
        assert order[0] is cfg.entry
        assert len(order) == len(cfg.nodes)

    def test_dump_mentions_statements(self):
        cfg = build(SRC_LOOP)
        assert "a(i) = 1" in cfg.dump()
