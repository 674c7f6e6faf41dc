"""Latest placement (paper §4.2).

``Latest(u)`` is the classic message-vectorization point: communication is
hoisted just outside the outermost loop carrying no true dependence onto
the use, or sits immediately before the statement when every enclosing
level carries one.

Following the paper: for each regular def ``d`` reaching ``u`` through the
SSA graph, ``DepLevel(d, u)`` is the deepest common-loop level at which a
flow dependence ``d → u`` may be carried (a loop-independent dependence
contributes the full common nesting level); ``CommLevel(u)`` is the max
over reaching defs; the communication lands

* immediately before the statement containing ``u`` when
  ``CommLevel(u) == NL(u)``,
* in the preheader of the level-``CommLevel+1`` loop containing ``u``
  otherwise.

Reductions are pinned to their statement (paper §6.2: the prototype does
not candidate-mark reductions; their communication follows the local
partial computation).
"""

from __future__ import annotations

from ..comm.entries import CommEntry
from ..frontend import ast_nodes as ast
from ..ir.cfg import Position
from ..ir.ssa import SSA, EntryDef, PhiDef, RegularDef, SSADef, Use
from .context import AnalysisContext


def reaching_regular_defs(ssa: SSA, use: Use) -> list[SSADef]:
    """Every regular def (plus the ENTRY pseudo-def) that may reach ``use``
    through φ parameters and preserving-def links."""
    defs = ssa.defs
    found: list[SSADef] = []
    seen: set[int] = set()
    stack: list[SSADef] = [use.reaching]
    while stack:
        d = stack.pop()
        if d.id in seen:
            continue
        seen.add(d.id)
        if isinstance(d, PhiDef):
            stack += [defs[p] for p in d.params]
        elif isinstance(d, RegularDef):
            found.append(d)
            if d.preserving and d.prev is not None:
                stack.append(defs[d.prev])
        else:  # EntryDef
            found.append(d)
    return found


def comm_level(ctx: AnalysisContext, use: Use) -> int:
    """The paper's CommLevel(u)."""
    level = 0
    for d in reaching_regular_defs(ctx.ssa, use):
        if isinstance(d, EntryDef):
            continue  # initial values constrain nothing for Latest
        assert isinstance(d, RegularDef)
        if not isinstance(d.ref, ast.ArrayRef) or not isinstance(
            use.ref, ast.ArrayRef
        ):
            continue
        dep = ctx.tester.flow_dependence(d.stmt, d.ref, use.stmt, use.ref)
        level = max(level, dep.max_level())
    return level


def compute_latest(ctx: AnalysisContext, entry: CommEntry) -> None:
    """Fill ``entry.latest_pos`` and ``entry.comm_level``."""
    use = entry.use
    if entry.is_reduction:
        # Reductions communicate at the statement: partial results exist
        # only once the local computation has run.  With the §6.2
        # extension enabled, the combine phase may slide *later*, down to
        # just before the first use of the result (a reversed reached-uses
        # analysis) — opening combining opportunities across statements.
        entry.comm_level = use.node.nl
        entry.latest_pos = ctx.cfg.position_before(use.stmt)
        if ctx.options.reduction_flexibility:
            extended = extend_reduction_latest(ctx, entry)
            if extended is not None:
                entry.latest_pos = extended
        return

    level = comm_level(ctx, use)
    nl_u = use.node.nl
    entry.comm_level = level
    if level >= nl_u:
        entry.latest_pos = ctx.cfg.position_before(use.stmt)
        return
    # Preheader of the loop at level ``level + 1`` containing u
    # (loops_containing is outermost-first, so index ``level``).
    loop = use.node.loops_containing()[level]
    pre = ctx.cfg.nodes[loop.preheader]
    entry.latest_pos = ctx.cfg.position(pre.id, len(pre.stmts) - 1)


def extend_reduction_latest(
    ctx: AnalysisContext, entry: CommEntry
) -> Position | None:
    """The paper's §6.2 'reversed SSA analysis': iterate through the
    *reached uses* of the reduction's result to find the latest safe
    point for the combine phase.

    Every use of the scalar the reduction defines (directly, or flowing
    into a φ) is a barrier; the combine must be placed at a position that
    still dominates all of them, and no earlier than right after the
    statement computing the partials.  Returns None when the result is
    used immediately (no flexibility gained).
    """
    stmt = entry.use.stmt
    defs = ctx.ssa.defs_of_stmt.get(stmt.sid, [])
    scalar_defs = [d for d in defs if not d.preserving]
    if len(scalar_defs) != 1:
        return None  # reduction result not a tracked scalar
    (result_def,) = scalar_defs

    barriers: list[Position] = []
    for u in ctx.ssa.uses:
        if u.reaching is result_def:
            barriers.append(ctx.cfg.position_before(u.stmt))
    for phis in ctx.ssa.phis.values():
        for phi in phis:
            if result_def.id in phi.params:
                barriers.append(ctx.cfg.position(phi.node.id, -1))
    if not barriers:
        return None

    # Nearest common dominator block of all barriers.
    nodes = [ctx.node_of(p) for p in barriers]
    nca = nodes[0]
    for node in nodes[1:]:
        a, b = nca, node
        while a is not b:
            da, db = ctx.dom.dominator_depth(a), ctx.dom.dominator_depth(b)
            if da >= db:
                a = ctx.dom.dom_tree_parent(a) or a
            else:
                b = ctx.dom.dom_tree_parent(b) or b
            if a is ctx.cfg.entry or b is ctx.cfg.entry:
                a = b = ctx.cfg.entry
        nca = a
    limit = len(nca.stmts) - 1
    for p in barriers:
        if p.node_id == nca.id:
            limit = min(limit, p.index)
    extended = ctx.cfg.position(nca.id, limit)

    after_stmt = ctx.cfg.position_after(stmt)
    if not ctx.position_dominates(after_stmt, extended):
        return None  # cannot even reach past the statement safely
    for p in barriers:
        if not ctx.position_dominates(extended, p):
            return None
    return extended
