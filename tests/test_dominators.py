"""Dominator computation validated against a brute-force reference."""

from __future__ import annotations

import pytest

from repro.errors import PlacementError
from repro.frontend.parser import parse
from repro.ir.cfg import CFG, Position
from repro.ir.dominators import DominatorInfo


def build(source: str):
    cfg = CFG(parse(source))
    return cfg, DominatorInfo(cfg)


def brute_force_dominators(cfg: CFG) -> dict[int, set[int]]:
    """dom(n) = nodes appearing on every ENTRY→n path, by the classic
    iterative set formulation."""
    all_ids = {n.id for n in cfg.nodes}
    dom = {n.id: set(all_ids) for n in cfg.nodes}
    dom[cfg.entry.id] = {cfg.entry.id}
    changed = True
    while changed:
        changed = False
        for node in cfg.nodes:
            if node is cfg.entry:
                continue
            preds = [dom[p] for p in node.preds]
            new = set.intersection(*preds) | {node.id} if preds else {node.id}
            if new != dom[node.id]:
                dom[node.id] = new
                changed = True
    return dom


PROGRAMS = [
    "PROGRAM t\nREAL s\ns = 1\ns = 2\nEND",
    "PROGRAM t\nREAL a(8)\nDO i = 1, 8\na(i) = 1\nEND DO\nEND",
    "PROGRAM t\nREAL s\nIF s > 0 THEN\ns = 1\nELSE\ns = 2\nEND IF\ns = 3\nEND",
    """PROGRAM t
REAL a(8, 8)
REAL s
DO i = 1, 8
IF s > 0 THEN
DO j = 1, 8
a(i, j) = 1
END DO
END IF
s = s + 1
END DO
END""",
    """PROGRAM t
REAL a(8)
DO i = 1, 4
a(i) = 0
END DO
DO i = 1, 4
DO j = 1, 4
a(j) = a(i) + 1
END DO
END DO
END""",
]


class TestAgainstBruteForce:
    @pytest.mark.parametrize("source", PROGRAMS)
    def test_dominance_matches(self, source):
        cfg, dom = build(source)
        reference = brute_force_dominators(cfg)
        for a in cfg.nodes:
            for b in cfg.nodes:
                assert dom.dominates(a, b) == (a.id in reference[b.id]), (
                    f"dominates({a}, {b}) disagrees with brute force"
                )

    @pytest.mark.parametrize("source", PROGRAMS)
    def test_idom_is_closest_strict_dominator(self, source):
        cfg, dom = build(source)
        reference = brute_force_dominators(cfg)
        for node in cfg.nodes:
            if node is cfg.entry:
                continue
            idom = dom.dom_tree_parent(node)
            strict = reference[node.id] - {node.id}
            assert idom.id in strict
            # Every other strict dominator dominates the idom.
            for d in strict:
                assert d in reference[idom.id]


class TestQueries:
    def test_entry_dominates_all(self):
        cfg, dom = build(PROGRAMS[3])
        for node in cfg.nodes:
            assert dom.dominates(cfg.entry, node)

    def test_strict_dominance_irreflexive(self):
        cfg, dom = build(PROGRAMS[1])
        for node in cfg.nodes:
            assert not dom.strictly_dominates(node, node)

    def test_dom_tree_path(self):
        cfg, dom = build(PROGRAMS[1])
        (loop,) = cfg.loops
        path = [n.id for n in dom.dom_tree_path(cfg.nodes[loop.postexit], cfg.entry)]
        assert path[0] == loop.postexit
        assert path[-1] == cfg.entry.id
        # postexit's dominator parent chain skips the loop body entirely.
        assert loop.preheader in path
        assert loop.latch not in path

    def test_dom_tree_path_requires_dominance(self):
        cfg, dom = build(PROGRAMS[2])
        then_block = next(
            n for n in cfg.nodes if n.stmts and str(n.stmts[0]) == "s = 1"
        )
        else_block = next(
            n for n in cfg.nodes if n.stmts and str(n.stmts[0]) == "s = 2"
        )
        with pytest.raises(PlacementError):
            dom.dom_tree_path(then_block, else_block)

    def test_position_dominance_same_block(self):
        cfg, dom = build("PROGRAM t\nREAL s\ns = 1\ns = 2\nEND")
        stmts = list(cfg.assigns())
        node = cfg.node_of_stmt(stmts[0])
        assert dom.position_dominates(Position(node.id, -1), Position(node.id, 0))
        assert not dom.position_dominates(Position(node.id, 1), Position(node.id, 0))

    def test_position_dominance_across_blocks(self):
        cfg, dom = build(PROGRAMS[1])
        (loop,) = cfg.loops
        pre = Position(loop.preheader, -1)
        hdr = Position(loop.header, -1)
        assert dom.position_dominates(pre, hdr)
        assert not dom.position_dominates(hdr, pre)

    def test_frontier_of_branch_arms_is_join(self):
        cfg, dom = build(PROGRAMS[2])
        then_block = next(
            n for n in cfg.nodes if n.stmts and str(n.stmts[0]) == "s = 1"
        )
        join = next(n for n in cfg.nodes if n.label == "endif")
        assert join.id in dom.frontier[then_block.id]

    def test_dominator_depth_monotone_on_tree(self):
        cfg, dom = build(PROGRAMS[3])
        for node in cfg.nodes:
            parent = dom.dom_tree_parent(node)
            if parent is not None:
                assert dom.dominator_depth(node) == dom.dominator_depth(parent) + 1
