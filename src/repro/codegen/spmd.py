"""SPMD schedule lowering: CFG positions → executable anchors.

The placement algorithm produces positions in the augmented CFG; an
executor walks the *AST*.  This module translates every placed
communication operation into an :class:`Anchor` — a point in the AST
walk where the operation fires:

* ``('start',)`` — before the program body;
* ``('before_stmt', sid)`` / ``('after_stmt', sid)`` — around a statement;
* ``('loop_pre', sid)`` — once, before the DO loop with that sid;
* ``('loop_top', sid)`` — at the top of every iteration;
* ``('loop_post', sid)`` — once, after the loop completes;
* ``('end',)`` — after the program body.

Empty CFG nodes (joins, continuation blocks) forward to the next
executable anchor along their successor chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.context import AnalysisContext
from ..core.pipeline import CompilationResult
from ..core.state import PlacedComm
from ..errors import CodegenError
from ..ir.cfg import Loop, Node, NodeKind, Position

Anchor = tuple


def _loop_of(ctx: AnalysisContext, node: Node, role: str) -> Loop:
    for loop in ctx.cfg.loops:
        if getattr(loop, role) == node.id:
            return loop
    raise CodegenError(f"no loop with {role} node {node!r}")


def anchor_of_position(ctx: AnalysisContext, pos: Position) -> Anchor:
    """The AST anchor at which a communication placed at ``pos`` fires."""
    node = ctx.node_of(pos)
    if pos.index >= 0:
        return ("after_stmt", node.stmts[pos.index].sid)

    seen: set[int] = set()
    while True:
        if node.id in seen:
            raise CodegenError(f"cycle while anchoring position {pos}")
        seen.add(node.id)
        if node.stmts:
            return ("before_stmt", node.stmts[0].sid)
        kind = node.kind
        if kind is NodeKind.ENTRY:
            return ("start",)
        if kind is NodeKind.EXIT:
            return ("end",)
        if kind is NodeKind.PREHEADER:
            return ("loop_pre", _loop_of(ctx, node, "preheader").stmt.sid)
        if kind is NodeKind.HEADER:
            return ("loop_top", _loop_of(ctx, node, "header").stmt.sid)
        if kind is NodeKind.POSTEXIT:
            return ("loop_post", _loop_of(ctx, node, "postexit").stmt.sid)
        if kind is NodeKind.LATCH:
            raise CodegenError(f"communication anchored at a latch: {pos}")
        if kind is NodeKind.BRANCH:
            # The branch node executes unconditionally right before its IF;
            # forwarding into an arm would make the fire conditional.
            if node.origin_sid >= 0:
                return ("before_stmt", node.origin_sid)
            raise CodegenError(f"branch node without origin for {pos}")
        if kind is NodeKind.JOIN:
            if node.origin_sid >= 0:
                return ("after_stmt", node.origin_sid)
            raise CodegenError(f"join node without origin for {pos}")
        # Empty plain block: forward along the (unique) successor.
        if len(node.succs) != 1:
            raise CodegenError(
                f"empty node {node!r} with {len(node.succs)} successors"
            )
        node = ctx.cfg.nodes[node.succs[0]]


@dataclass
class ScheduledProgram:
    """A compiled program's executable communication schedule.

    Holds the analysis context, not the :class:`CompilationResult`: a
    schedule kept on the result (in its execution image) must not point
    back at it.
    """

    ctx: AnalysisContext
    anchors: dict[Anchor, list[PlacedComm]] = field(default_factory=dict)

    def ops_at(self, anchor: Anchor) -> list[PlacedComm]:
        return self.anchors.get(anchor, [])


def lower_schedule(result: CompilationResult) -> ScheduledProgram:
    """Anchor every placed communication operation in the AST walk."""
    sched = ScheduledProgram(result.ctx)
    for op in result.placed:
        anchor = anchor_of_position(result.ctx, op.position)
        sched.anchors.setdefault(anchor, []).append(op)
    return sched
