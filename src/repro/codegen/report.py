"""Human-readable compilation reports.

The paper's prototype emitted "scalarized code annotated with human
readable communication entries" for inspection; this module is the
equivalent: a textual schedule report (what communicates, where, how big)
and an annotated program listing with communication calls interleaved at
their anchors.
"""

from __future__ import annotations

from typing import Callable

from ..core.pipeline import CompilationResult
from ..core.state import PlacedComm
from ..frontend import ast_nodes as ast
from .spmd import lower_schedule


def _op_line(result: CompilationResult, op: PlacedComm) -> str:
    ctx = result.ctx
    node = ctx.node_of(op.position)
    ranges = ctx.sections.live_ranges_at(node)
    parts = []
    for entry in op.entries:
        section = ctx.sections.section_at(entry.use, node)
        count = section.max_count(ranges)
        tag = f"{section} ({count} elems)"
        if entry.absorbed:
            tag += " [covers " + ", ".join(a.label for a in entry.absorbed) + "]"
        parts.append(tag)
    mapping = op.entries[0].pattern.mapping
    return f"COMM {op.kind} {mapping}: " + "; ".join(parts)


def schedule_report(result: CompilationResult) -> str:
    """Summary of every placed communication operation."""
    lines = [
        f"program {result.program.name!r} compiled with strategy "
        f"{result.strategy.value!r}:",
        f"  {len(result.entries)} communication entries, "
        f"{len(result.eliminated_entries())} eliminated as redundant, "
        f"{result.call_sites()} call sites emitted",
    ]
    for kind, count in sorted(result.call_sites_by_kind().items()):
        lines.append(f"    {kind}: {count}")
    lines.append("")
    for op in result.placed:
        where = result.ctx.describe_position(op.position)
        lines.append(f"  @ {where}")
        lines.append(f"    {_op_line(result, op)}")
    return "\n".join(lines)


def annotated_listing(result: CompilationResult) -> str:
    """The scalarized program with COMM calls interleaved at their
    anchors — the paper's trace-dump view."""
    schedule = lower_schedule(result)
    lines: list[str] = []

    def emit_ops(anchor: tuple, indent: int) -> None:
        for op in schedule.ops_at(anchor):
            lines.append("  " * indent + "! " + _op_line(result, op))

    lines.append(f"PROGRAM {result.program.name}")
    emit_ops(("start",), 1)
    _emit_body(result.program.body, 1, lines, emit_ops)
    emit_ops(("end",), 1)
    lines.append("END PROGRAM")
    return "\n".join(lines)


def _emit_body(body: list[ast.Stmt], indent: int, lines: list[str],
               emit_ops: Callable[[tuple, int], None]) -> None:
    for stmt in body:
        emit_ops(("before_stmt", stmt.sid), indent)
        if isinstance(stmt, ast.Assign):
            lines.append("  " * indent + str(stmt))
        elif isinstance(stmt, ast.Do):
            emit_ops(("loop_pre", stmt.sid), indent)
            lines.append(
                "  " * indent
                + f"DO {stmt.var} = {stmt.lo}, {stmt.hi}, {stmt.step}"
            )
            emit_ops(("loop_top", stmt.sid), indent + 1)
            _emit_body(stmt.body, indent + 1, lines, emit_ops)
            lines.append("  " * indent + "END DO")
            emit_ops(("loop_post", stmt.sid), indent)
        elif isinstance(stmt, ast.If):
            lines.append("  " * indent + f"IF {stmt.cond} THEN")
            _emit_body(stmt.then_body, indent + 1, lines, emit_ops)
            if stmt.else_body:
                lines.append("  " * indent + "ELSE")
                _emit_body(stmt.else_body, indent + 1, lines, emit_ops)
            lines.append("  " * indent + "END IF")
        emit_ops(("after_stmt", stmt.sid), indent)
