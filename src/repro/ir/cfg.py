"""The augmented control flow graph (paper §4.1, Figure 7).

The CFG makes loop structure explicit in the way the paper requires:

* every loop has a single **preheader** node that dominates the whole loop
  and is the landing pad for hoisted communication;
* every loop has a **postexit** node per exit target, with a **zero-trip
  edge** from the preheader (so SSA postexit φ-defs merge the "loop ran"
  and "loop did not run" versions);
* the loop **header** carries the φ-enter defs with the two parameters the
  paper calls ``r_pre`` and ``r_post``.

Since the mini-HPF language is structured (DO/IF only, no GOTO), lowering
is syntax-directed.  Loops are modelled bottom-tested per Figure 7: header
→ body → latch-back-to-header, header → postexit exit edge, preheader →
postexit zero-trip edge.

The CFG also provides the *position* vocabulary used by placement:
a :class:`Position` is "immediately after statement ``index`` of node
``node``", with index ``-1`` meaning the top of the node — the landing
spot for communication hoisted to a preheader or attached to a φ-def.

The graph is a table, not a web of objects: a node names its
predecessors and successors by index into :attr:`CFG.nodes`, and a loop
names its anchor nodes the same way and its children by index into
:attr:`CFG.loops`.  The only object references point *outwards* — a
node to its innermost loop, a loop to its parent — so a CFG holds no
reference cycle and is freed by reference counting the moment its last
holder lets go.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterator, Optional

from ..errors import PlacementError
from ..frontend import ast_nodes as ast


class NodeKind(enum.Enum):
    ENTRY = "entry"
    EXIT = "exit"
    BLOCK = "block"
    PREHEADER = "preheader"
    HEADER = "header"
    LATCH = "latch"
    POSTEXIT = "postexit"
    BRANCH = "branch"
    JOIN = "join"

    def __str__(self) -> str:
        return self.value


@dataclass(eq=False, slots=True)
class Node:
    """One basic block of the augmented CFG; ``id`` is its index in
    :attr:`CFG.nodes`, ``preds``/``succs`` are node ids."""

    id: int
    kind: NodeKind
    stmts: list[ast.Assign] = field(default_factory=list)
    preds: tuple[int, ...] = ()
    succs: tuple[int, ...] = ()
    loop: Optional["Loop"] = None  # innermost containing loop
    branch_cond: Optional[ast.Expr] = None
    label: str = ""
    origin_sid: int = -1  # for BRANCH/JOIN: sid of the originating IF
    _loop_chain: Optional[list["Loop"]] = field(default=None, repr=False)

    @property
    def nl(self) -> int:
        """Nesting level: number of loops containing this node."""
        return self.loop.depth if self.loop is not None else 0

    def loops_containing(self) -> list["Loop"]:
        """Enclosing loops, outermost first.  Memoized (the loop nest is
        fixed once the CFG is built); callers treat the list as read-only.
        """
        chain = self._loop_chain
        if chain is None:
            chain = []
            loop = self.loop
            while loop is not None:
                chain.append(loop)
                loop = loop.parent
            chain.reverse()
            self._loop_chain = chain
        return chain

    def __repr__(self) -> str:
        tag = self.label or str(self.kind)
        return f"<node {self.id} {tag}>"


@dataclass(eq=False)
class Loop:
    """One DO loop of the program with its CFG anchor nodes.

    ``id`` is the loop's index in :attr:`CFG.loops`; the four anchors are
    node ids and ``children`` are loop ids.  ``depth`` is 1 for an
    outermost loop (so a node directly inside it has ``nl == 1``); the
    paper's ``NL(L)`` equals ``depth - 1``.
    """

    id: int
    stmt: ast.Do
    preheader: int
    header: int
    latch: int
    postexit: int
    parent: Optional["Loop"] = None
    children: list[int] = field(default_factory=list)
    depth: int = 1

    @property
    def var(self) -> str:
        return self.stmt.var

    def contains_node(self, node: Node) -> bool:
        """True when ``node`` is inside this loop (preheader/postexit are
        *outside*; header/latch/body are inside)."""
        loop = node.loop
        while loop is not None:
            if loop is self:
                return True
            loop = loop.parent
        return False

    def contains_loop(self, other: "Loop") -> bool:
        loop: Loop | None = other
        while loop is not None:
            if loop is self:
                return True
            loop = loop.parent
        return False

    def __repr__(self) -> str:
        return f"<loop {self.var}@{self.depth}>"


class Position:
    """A placement point: immediately after ``node.stmts[index]``.

    ``index == -1`` addresses the top of the node (before its first
    statement) — where header/postexit φ-defs conceptually live and where
    preheader placements land.  Ordering is (node.id, index), which is only
    meaningful within a node; cross-node ordering questions go through
    dominance.

    Positions are the single hottest value type of the placement passes
    (CommSet members, cache keys, dominance-query operands), so the class
    is slotted, its hash is computed once at construction, and equality
    takes an identity fast path — :meth:`CFG.position` interns them so
    positions of one program usually *are* the same object.
    """

    __slots__ = ("node_id", "index", "_hash")

    def __init__(self, node_id: int, index: int) -> None:
        self.node_id = node_id
        self.index = index
        self._hash = hash((node_id, index))

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Position):
            return NotImplemented
        return self.node_id == other.node_id and self.index == other.index

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        return result if result is NotImplemented else not result

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Position") -> bool:
        return (self.node_id, self.index) < (other.node_id, other.index)

    def __le__(self, other: "Position") -> bool:
        return (self.node_id, self.index) <= (other.node_id, other.index)

    def __gt__(self, other: "Position") -> bool:
        return (self.node_id, self.index) > (other.node_id, other.index)

    def __ge__(self, other: "Position") -> bool:
        return (self.node_id, self.index) >= (other.node_id, other.index)

    def __getstate__(self) -> tuple[int, int]:
        return (self.node_id, self.index)

    def __setstate__(self, state: tuple[int, int]) -> None:
        self.__init__(*state)

    def __repr__(self) -> str:
        return f"Position(node_id={self.node_id}, index={self.index})"

    def __str__(self) -> str:
        return f"n{self.node_id}.{'top' if self.index < 0 else self.index}"


class CFG:
    """The augmented control flow graph of one program."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.nodes: list[Node] = []
        self.loops: list[Loop] = []
        self._stmt_place: dict[int, tuple[Node, int]] = {}
        # Intern pool: one canonical Position object per (node, index) of
        # this program, so set/dict probes hit the identity fast path.
        # Lifetime is tied to the CFG (one compile), so the pool cannot
        # grow across a batch-serving process.
        self._positions: dict[tuple[int, int], Position] = {}
        self.entry = self._new_node(NodeKind.ENTRY, label="ENTRY")
        self.exit = self._new_node(NodeKind.EXIT, label="EXIT")
        self._lower(program)

    # -- construction ----------------------------------------------------------

    def _new_node(
        self,
        kind: NodeKind,
        loop: Loop | None = None,
        label: str = "",
    ) -> Node:
        node = Node(id=len(self.nodes), kind=kind, loop=loop, label=label)
        self.nodes.append(node)
        return node

    @staticmethod
    def _link(a: Node, b: Node) -> None:
        if b.id not in a.succs:
            a.succs += (b.id,)
            b.preds += (a.id,)

    def _lower(self, program: ast.Program) -> None:
        first = self._new_node(NodeKind.BLOCK)
        self._link(self.entry, first)
        last = self._lower_body(program.body, first, loop=None)
        self._link(last, self.exit)
        self._check_consistency()

    def _lower_body(self, body: list[ast.Stmt], current: Node, loop: Loop | None) -> Node:
        """Lower ``body`` starting in block ``current``; return the block
        where control continues afterwards."""
        for stmt in body:
            if isinstance(stmt, ast.Assign):
                current.stmts.append(stmt)
                self._stmt_place[stmt.sid] = (current, len(current.stmts) - 1)
            elif isinstance(stmt, ast.Do):
                current = self._lower_loop(stmt, current, loop)
            elif isinstance(stmt, ast.If):
                current = self._lower_if(stmt, current, loop)
        return current

    def _lower_loop(self, stmt: ast.Do, current: Node, outer: Loop | None) -> Node:
        depth = (outer.depth + 1) if outer is not None else 1
        preheader = self._new_node(
            NodeKind.PREHEADER, loop=outer, label=f"pre({stmt.var})"
        )
        # Loop object is created with placeholder anchors, then patched, so
        # inner nodes can point at it during lowering.
        header = self._new_node(NodeKind.HEADER, label=f"hdr({stmt.var})")
        latch = self._new_node(NodeKind.LATCH, label=f"latch({stmt.var})")
        postexit = self._new_node(
            NodeKind.POSTEXIT, loop=outer, label=f"post({stmt.var})"
        )
        loop = Loop(
            id=len(self.loops),
            stmt=stmt,
            preheader=preheader.id,
            header=header.id,
            latch=latch.id,
            postexit=postexit.id,
            parent=outer,
            depth=depth,
        )
        header.loop = loop
        latch.loop = loop
        if outer is not None:
            outer.children.append(loop.id)
        self.loops.append(loop)

        self._link(current, preheader)
        self._link(preheader, header)
        self._link(preheader, postexit)  # zero-trip edge

        body_first = self._new_node(NodeKind.BLOCK, loop=loop)
        self._link(header, body_first)
        body_last = self._lower_body(stmt.body, body_first, loop)
        self._link(body_last, latch)
        self._link(latch, header)  # back edge
        self._link(header, postexit)  # loop exit edge

        cont = self._new_node(NodeKind.BLOCK, loop=outer)
        self._link(postexit, cont)
        return cont

    def _lower_if(self, stmt: ast.If, current: Node, loop: Loop | None) -> Node:
        branch = self._new_node(NodeKind.BRANCH, loop=loop, label="if")
        branch.branch_cond = stmt.cond
        branch.origin_sid = stmt.sid
        self._link(current, branch)

        join = self._new_node(NodeKind.JOIN, loop=loop, label="endif")
        join.origin_sid = stmt.sid

        then_first = self._new_node(NodeKind.BLOCK, loop=loop)
        self._link(branch, then_first)
        then_last = self._lower_body(stmt.then_body, then_first, loop)
        self._link(then_last, join)

        if stmt.else_body:
            else_first = self._new_node(NodeKind.BLOCK, loop=loop)
            self._link(branch, else_first)
            else_last = self._lower_body(stmt.else_body, else_first, loop)
            self._link(else_last, join)
        else:
            self._link(branch, join)

        cont = self._new_node(NodeKind.BLOCK, loop=loop)
        self._link(join, cont)
        return cont

    def _check_consistency(self) -> None:
        nodes = self.nodes
        for node in nodes:
            for s in node.succs:
                if node.id not in nodes[s].preds:
                    raise PlacementError(
                        f"CFG edge {node}->{nodes[s]} not mirrored"
                    )

    # -- queries ------------------------------------------------------------

    def node_of_stmt(self, stmt: ast.Assign) -> Node:
        return self._stmt_place[stmt.sid][0]

    def place_of_stmt(self, stmt: ast.Assign) -> tuple[Node, int]:
        """(node, statement index within node) of an Assign."""
        return self._stmt_place[stmt.sid]

    def position(self, node_id: int, index: int) -> Position:
        """The interned Position for (node_id, index); value-equal to a
        freshly constructed ``Position`` but canonical per CFG."""
        key = (node_id, index)
        pos = self._positions.get(key)
        if pos is None:
            pos = self._positions[key] = Position(node_id, index)
        return pos

    def position_before(self, stmt: ast.Assign) -> Position:
        node, idx = self._stmt_place[stmt.sid]
        return self.position(node.id, idx - 1)

    def position_after(self, stmt: ast.Assign) -> Position:
        node, idx = self._stmt_place[stmt.sid]
        return self.position(node.id, idx)

    def node_by_id(self, node_id: int) -> Node:
        return self.nodes[node_id]

    def assigns(self) -> Iterator[ast.Assign]:
        """Every Assign statement in CFG (program) order."""
        for stmt in self.program.statements():
            if isinstance(stmt, ast.Assign):
                yield stmt

    def nl(self, node: Node) -> int:
        return node.nl

    def common_loops(self, a: Node, b: Node) -> list[Loop]:
        """Loops containing both nodes, outermost first."""
        chain_a = a.loops_containing()
        chain_b = b.loops_containing()
        common: list[Loop] = []
        for la, lb in zip(chain_a, chain_b):
            if la is lb:
                common.append(la)
            else:
                break
        return common

    def cnl(self, a: Node, b: Node) -> int:
        """Common nesting level: NL of the deepest loop containing both."""
        return len(self.common_loops(a, b))

    def reverse_postorder(self) -> list[Node]:
        seen: set[int] = set()
        order: list[Node] = []

        nodes = self.nodes
        stack: list[tuple[Node, int]] = [(self.entry, 0)]
        seen.add(self.entry.id)
        while stack:
            node, i = stack[-1]
            if i < len(node.succs):
                stack[-1] = (node, i + 1)
                succ = node.succs[i]
                if succ not in seen:
                    seen.add(succ)
                    stack.append((nodes[succ], 0))
            else:
                order.append(node)
                stack.pop()
        order.reverse()
        return order

    # -- display ----------------------------------------------------------------

    def dump(self) -> str:
        lines = []
        for node in self.nodes:
            succs = ", ".join(str(s) for s in node.succs)
            loop = f" in {node.loop}" if node.loop else ""
            lines.append(f"{node!r}{loop} -> [{succs}]")
            for i, stmt in enumerate(node.stmts):
                lines.append(f"    [{i}] s{stmt.sid}: {stmt}")
        return "\n".join(lines)
