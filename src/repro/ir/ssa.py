"""SSA form over the augmented CFG (paper §4.1).

The placement analysis walks SSA *use-def chains refined by array
dependence testing* (paper §4: "we find it more efficient to exploit the
SSA def-use information already computed in an earlier phase, refined by
array dependence-testing").  The SSA here has the three features the paper
relies on:

* **preserving defs** — every regular def of an array writes only part of
  it, so the def also links to the version it preserves (``prev``); the
  Earliest walk recurses through these links (Fig 8c);
* **φ-enter / φ-exit** — loop headers carry a φ with the paper's
  ``r_pre``/``r_post`` parameters, and postexit nodes carry a φ merging the
  zero-trip and loop-exit versions (standard dominance-frontier insertion
  produces exactly these on the augmented CFG);
* an **ENTRY pseudo-def** for every variable, which simplifies the
  dataflow: any chain bottom-outs at a def that conservatively "depends".

Scalar defs are killing; array defs are preserving.  Loop induction
variables and parameters are not SSA variables.

Defs live in one table per SSA (:attr:`SSA.defs`, indexed by
``SSADef.id``), and def-to-def links — φ parameters, ``prev`` — are ids
into it.  Around a loop back edge those links run in a circle (the
header φ's ``r_post`` reaches itself through ``prev``), so as object
references they would make every compile's SSA a reference cycle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, TypeVar, Union

from ..errors import PlacementError
from ..frontend import ast_nodes as ast
from .cfg import CFG, Node, NodeKind
from .dominators import DominatorInfo


@dataclass(eq=False)
class SSADef:
    """Base class: one SSA version of one variable; ``id`` is its index in
    :attr:`SSA.defs`."""

    var: str
    node: Node
    version: int = field(default=-1)
    id: int = field(default=-1)

    def __repr__(self) -> str:
        return f"{self.var}_{self.version}@n{self.node.id}"


@dataclass(eq=False, repr=False)
class EntryDef(SSADef):
    """The pseudo-def at ENTRY (one per variable accessed in the routine)."""

    def __repr__(self) -> str:
        return f"{self.var}_entry"


@dataclass(eq=False, repr=False)
class RegularDef(SSADef):
    """A def from an assignment statement.

    ``preserving`` is True for array defs (they write a section, keeping
    the rest) and False for scalar defs.  ``prev`` is the id of the
    version visible immediately before this def — the version a
    preserving def passes through.
    """

    stmt: ast.Assign = None  # type: ignore[assignment]
    ref: Union[ast.ArrayRef, ast.VarRef] = None  # type: ignore[assignment]
    preserving: bool = True
    prev: Optional[int] = None

    def __repr__(self) -> str:
        return f"{self.var}_{self.version}@s{self.stmt.sid}"


@dataclass(eq=False, repr=False)
class PhiDef(SSADef):
    """A φ-def at a merge node; ``params[i]`` is the id of the version
    flowing in along ``node.preds[i]``.

    At a loop header the parameters are the paper's ``r_pre`` (from the
    preheader) and ``r_post`` (from the latch); at a postexit they merge
    the zero-trip and loop-exit versions.
    """

    params: list[Optional[int]] = field(default_factory=list)

    @property
    def kind(self) -> str:
        if self.node.kind is NodeKind.HEADER:
            return "enter"
        if self.node.kind is NodeKind.POSTEXIT:
            return "exit"
        return "join"

    def __repr__(self) -> str:
        return f"{self.var}_{self.version}=φ{self.kind}@n{self.node.id}"


@dataclass(eq=False)
class Use:
    """One read reference of an SSA variable.

    ``ref`` is the syntactic reference; ``in_reduction`` marks reads that
    appear as the argument of a reduction intrinsic (handled specially by
    communication analysis, paper §6.2).
    """

    var: str
    stmt: ast.Assign
    ref: Union[ast.ArrayRef, ast.VarRef]
    node: Node
    reaching: SSADef
    in_reduction: bool = False

    def __repr__(self) -> str:
        return f"use({self.ref}@s{self.stmt.sid} <- {self.reaching!r})"


def _collect_uses(
    expr: ast.Expr, in_reduction: bool, tracked: set[str], found: list
) -> None:
    """Append ``(var, ref, in_reduction)`` for every read of a ``tracked``
    variable in ``expr``, preorder."""
    if isinstance(expr, ast.VarRef):
        if expr.name in tracked:
            found.append((expr.name, expr, in_reduction))
    elif isinstance(expr, ast.ArrayRef):
        if expr.name in tracked:
            found.append((expr.name, expr, in_reduction))
        _collect_subscript_uses(expr, in_reduction, tracked, found)
    elif isinstance(expr, ast.BinOp):
        _collect_uses(expr.left, in_reduction, tracked, found)
        _collect_uses(expr.right, in_reduction, tracked, found)
    elif isinstance(expr, ast.UnOp):
        _collect_uses(expr.operand, in_reduction, tracked, found)
    elif isinstance(expr, ast.Reduction):
        _collect_uses(expr.arg, True, tracked, found)
    elif isinstance(expr, ast.Intrinsic):
        for a in expr.args:
            _collect_uses(a, in_reduction, tracked, found)


def _collect_subscript_uses(
    ref: ast.ArrayRef, in_reduction: bool, tracked: set[str], found: list
) -> None:
    for sub in ref.subscripts:
        if isinstance(sub, ast.Index):
            _collect_uses(sub.expr, in_reduction, tracked, found)
        else:
            for part in (sub.lo, sub.hi, sub.step):
                if part is not None:
                    _collect_uses(part, in_reduction, tracked, found)


_D = TypeVar("_D", bound=SSADef)


class SSA:
    """SSA construction and queries for one CFG."""

    def __init__(self, cfg: CFG, dom: DominatorInfo, tracked_vars: set[str]) -> None:
        """``tracked_vars``: array and scalar names to put into SSA form
        (loop variables and parameters are excluded by the caller)."""
        self.cfg = cfg
        self.dom = dom
        self.vars = set(tracked_vars)
        self.defs: list[SSADef] = []
        self.entry_defs: dict[str, EntryDef] = {}
        self.phis: dict[int, list[PhiDef]] = {n.id: [] for n in cfg.nodes}
        self.defs_of_stmt: dict[int, list[RegularDef]] = {}
        self.uses: list[Use] = []
        self._use_key: dict[tuple[int, int], Use] = {}
        self._preserving: dict[str, bool] = {}
        self._version_counters: dict[str, itertools.count] = {}
        self._build()

    # -- structure discovery --------------------------------------------------

    def _defs_in_stmt(self, stmt: ast.Assign) -> list[tuple[str, ast.Expr, bool]]:
        """(var, lhs ref, preserving) for the statement's definition."""
        if isinstance(stmt.lhs, ast.VarRef):
            if stmt.lhs.name in self.vars:
                return [(stmt.lhs.name, stmt.lhs, False)]
            return []
        if stmt.lhs.name in self.vars:
            return [(stmt.lhs.name, stmt.lhs, True)]
        return []

    def _uses_in_stmt(self, stmt: ast.Assign) -> list[tuple[str, ast.Expr, bool]]:
        """(var, ref, in_reduction) for every tracked read in the statement,
        including reads in LHS subscripts (they do not define anything)."""
        found: list[tuple[str, ast.Expr, bool]] = []
        _collect_uses(stmt.rhs, False, self.vars, found)
        if isinstance(stmt.lhs, ast.ArrayRef):
            _collect_subscript_uses(stmt.lhs, False, self.vars, found)
        return found

    # -- construction ------------------------------------------------------------

    def _build(self) -> None:
        # 1. Find def sites per variable.
        def_nodes: dict[str, set[int]] = {v: set() for v in self.vars}
        for node in self.cfg.nodes:
            for stmt in node.stmts:
                for var, _ref, _pres in self._defs_in_stmt(stmt):
                    def_nodes[var].add(node.id)

        # 2. Insert φ-defs at iterated dominance frontiers.  The ENTRY
        # pseudo-def counts as a def site so merges with "no def on one
        # path" still get a φ.
        for var in sorted(self.vars):
            self._version_counters[var] = itertools.count()
            worklist = list(def_nodes[var] | {self.cfg.entry.id})
            has_phi: set[int] = set()
            queued = set(worklist)
            while worklist:
                nid = worklist.pop()
                for fid in self.dom.frontier[nid]:
                    if fid in has_phi:
                        continue
                    has_phi.add(fid)
                    fnode = self.cfg.node_by_id(fid)
                    phi = self._add(PhiDef(var=var, node=fnode))
                    phi.params = [None] * len(fnode.preds)
                    self.phis[fid].append(phi)
                    if fid not in queued:
                        queued.add(fid)
                        worklist.append(fid)

        # 3. Rename along the dominator tree.
        stacks: dict[str, list[SSADef]] = {}
        for var in self.vars:
            entry_def = self._add(EntryDef(var=var, node=self.cfg.entry))
            entry_def.version = next(self._version_counters[var])
            self.entry_defs[var] = entry_def
            stacks[var] = [entry_def]

        self._rename(self.cfg.entry, stacks)

        for node_phis in self.phis.values():
            for phi in node_phis:
                if any(p is None for p in phi.params):
                    raise PlacementError(f"unfilled φ parameter in {phi!r}")

    def _add(self, d: _D) -> _D:
        d.id = len(self.defs)
        self.defs.append(d)
        return d

    def _rename(self, root: Node, stacks: dict[str, list[SSADef]]) -> None:
        # Iterative dominator-tree walk (explicit stack): large scalarized
        # programs produce dominator trees deeper than Python's recursion
        # limit.
        work: list[tuple[Node, bool, list[str]]] = [(root, False, [])]
        while work:
            node, leaving, pushed = work.pop()
            if leaving:
                for var in reversed(pushed):
                    stacks[var].pop()
                continue

            for phi in self.phis[node.id]:
                phi.version = next(self._version_counters[phi.var])
                stacks[phi.var].append(phi)
                pushed.append(phi.var)

            for stmt in node.stmts:
                for var, ref, in_reduction in self._uses_in_stmt(stmt):
                    use = Use(
                        var=var,
                        stmt=stmt,
                        ref=ref,
                        node=node,
                        reaching=stacks[var][-1],
                        in_reduction=in_reduction,
                    )
                    self.uses.append(use)
                    self._use_key[(stmt.sid, id(ref))] = use
                for var, ref, preserving in self._defs_in_stmt(stmt):
                    d = self._add(RegularDef(
                        var=var,
                        node=node,
                        stmt=stmt,
                        ref=ref,
                        preserving=preserving,
                        prev=stacks[var][-1].id,
                    ))
                    d.version = next(self._version_counters[var])
                    stacks[var].append(d)
                    pushed.append(var)
                    self.defs_of_stmt.setdefault(stmt.sid, []).append(d)

            for succ in node.succs:
                slot = self.cfg.nodes[succ].preds.index(node.id)
                for phi in self.phis[succ]:
                    phi.params[slot] = stacks[phi.var][-1].id

            work.append((node, True, pushed))
            for child in reversed(self.dom.children[node.id]):
                work.append((child, False, []))

    # -- queries ------------------------------------------------------------

    def use_of(self, stmt: ast.Assign, ref: ast.Expr) -> Use:
        try:
            return self._use_key[(stmt.sid, id(ref))]
        except KeyError:
            raise PlacementError(
                f"no SSA use recorded for {ref} in statement {stmt.sid}"
            ) from None

    def all_defs(self) -> Iterator[SSADef]:
        yield from self.entry_defs.values()
        for node_phis in self.phis.values():
            yield from node_phis
        for defs in self.defs_of_stmt.values():
            yield from defs

    def array_uses(self, distributed: set[str]) -> list[Use]:
        """Uses of distributed arrays — the communication candidates."""
        return [u for u in self.uses if u.var in distributed]

    def dump(self) -> str:
        lines = []
        for node in self.cfg.nodes:
            items = [repr(phi) for phi in self.phis[node.id]]
            for stmt in node.stmts:
                for d in self.defs_of_stmt.get(stmt.sid, []):
                    items.append(repr(d))
            if items:
                lines.append(f"{node!r}: " + ", ".join(items))
        return "\n".join(lines)
