"""Earliest placement (paper §4.3, Figure 8).

``Earliest(u)`` is the *single earliest dominating point* at which the
communication for use ``u`` may be issued.  The search walks the SSA
use-def graph upward from ``u``'s reaching def in depth-first preorder and
returns the first def ``d`` for which ``Test(d, u)`` holds:

* a regular def tests ``IsArrayDep(d, u, CNL(d, u))`` — may ``d`` write
  data that ``u`` reads, at the innermost common level or loop-
  independently?  If so the communication cannot move above ``d``;
* a φ-def tests whether **two or more** of its parameters have
  dependence-bearing paths (``Rcount``): then no single dominating point
  above the merge exists and the φ's node is the earliest point;
* the ENTRY pseudo-def always tests true (values flowing in from outside
  the routine are conservatively live).

``Rcount`` (Fig 8c) counts, per φ-parameter, reachable defs that bear a
dependence.  Following the paper's pseudocode exactly, the shared visited
set marks **φ-defs only**: cycles through loop back-edges are cut, but a
regular def (or the ENTRY pseudo-def) reachable around both arms of a
branch diamond is counted once per arm.  That makes joins *conservative*
barriers — a diamond whose arms write unrelated data still pins Earliest
at its join — but keeps the walk sound: a φ with fewer than two positive
parameters genuinely has all its dependence-bearing paths on one side, so
hoisting above it cannot skip past a relevant def on the other.  (Marking
all defs instead would let the walk descend *into* a branch arm, returning
a non-dominating point — violating Lemma 4.2.)

The walk is guaranteed to terminate with a def: every acyclic chain ends
at ENTRY (Test true), and cyclic chains (through loop back-edge
parameters) are cut by the visit sets.
"""

from __future__ import annotations

from ..comm.entries import CommEntry
from ..frontend import ast_nodes as ast
from ..ir.cfg import Position
from ..ir.ssa import EntryDef, PhiDef, RegularDef, SSADef, Use
from ..errors import PlacementError
from .context import AnalysisContext


def is_array_dep(ctx: AnalysisContext, d: SSADef, use: Use, level: int) -> bool:
    """The paper's IsArrayDep(d, u, l) (Figure 8d)."""
    if isinstance(d, EntryDef):
        return True
    assert isinstance(d, RegularDef)
    if not isinstance(d.ref, ast.ArrayRef) or not isinstance(use.ref, ast.ArrayRef):
        return False
    cnl = ctx.cfg.cnl(d.node, use.node)
    if level > cnl:
        return False
    dep = ctx.tester.flow_dependence(d.stmt, d.ref, use.stmt, use.ref)
    return dep.at_level(level)


def _rcount(
    ctx: AnalysisContext, start: SSADef, use: Use, level: int, visit: set[int]
) -> int:
    """Iterative Rcount (Figure 8c): number of distinct dependence-bearing
    defs reachable from ``start`` through φ parameters and preserving
    links."""
    defs = ctx.ssa.defs
    count = 0
    stack = [start]
    # Bound re-walks of regular-def chains within this one Rcount call
    # (chains can reconverge below a φ); φ-defs use the *shared* visit set
    # per the paper, regular defs a local one.
    local_seen: set[int] = set()
    while stack:
        d = stack.pop()
        if isinstance(d, PhiDef):
            if d.id in visit:
                continue
            visit.add(d.id)
            stack += [defs[p] for p in d.params]
        elif isinstance(d, EntryDef):
            count += 1
        else:
            assert isinstance(d, RegularDef)
            if d.id in local_seen:
                continue
            local_seen.add(d.id)
            if is_array_dep(ctx, d, use, level):
                count += 1
            elif d.preserving and d.prev is not None:
                stack.append(defs[d.prev])
    return count


def _test(ctx: AnalysisContext, d: SSADef, use: Use) -> bool:
    """The paper's Test(d, u) (Figure 8b)."""
    if isinstance(d, PhiDef):
        cnl = ctx.cfg.cnl(d.node, use.node)
        visit: set[int] = {d.id}
        positives = 0
        for param in d.params:
            if _rcount(ctx, ctx.ssa.defs[param], use, cnl, visit) > 0:
                positives += 1
                if positives >= 2:
                    return True
        return False
    return is_array_dep(ctx, d, use, ctx.cfg.cnl(d.node, use.node))


def earliest_def(ctx: AnalysisContext, use: Use) -> SSADef:
    """Depth-first preorder walk (Figure 8a): the first def passing Test is
    Earliest(u)."""
    defs = ctx.ssa.defs
    seen: set[int] = set()
    stack: list[SSADef] = [use.reaching]
    while stack:
        d = stack.pop()
        if d.id in seen:
            continue
        seen.add(d.id)
        if _test(ctx, d, use):
            return d
        # Reverse so the first parameter (acyclic / zero-trip side) is
        # explored first.
        if isinstance(d, PhiDef):
            stack += [defs[p] for p in reversed(d.params)]
        elif isinstance(d, RegularDef) and d.preserving and d.prev is not None:
            stack.append(defs[d.prev])
    raise PlacementError(
        f"Earliest walk for {use!r} exhausted without a dominating def "
        f"(ENTRY should have terminated it)"
    )


def def_position(ctx: AnalysisContext, d: SSADef) -> Position:
    """The placement point 'immediately after d'."""
    if isinstance(d, RegularDef):
        return ctx.cfg.position_after(d.stmt)
    # ENTRY pseudo-def or φ-def: the top of the def's node.
    return ctx.cfg.position(d.node.id, -1)


def compute_earliest(ctx: AnalysisContext, entry: CommEntry) -> None:
    """Fill ``entry.earliest_pos``; clamps to Latest when the two analyses'
    conservatisms disagree (Earliest must dominate Latest, Claim 4.5)."""
    if entry.is_reduction:
        # The partials exist only after the statement runs; with the §6.2
        # extension the latest point may sit further down, so Earliest is
        # pinned just before the statement rather than at Latest.
        entry.earliest_pos = ctx.cfg.position_before(entry.use.stmt)
        return
    d = earliest_def(ctx, entry.use)
    pos = def_position(ctx, d)
    latest = entry.latest_pos
    assert latest is not None, "compute_latest must run first"
    if not ctx.position_dominates(pos, latest):
        # Conservative fallback: no flexibility for this entry.
        pos = latest
    entry.earliest_pos = pos
