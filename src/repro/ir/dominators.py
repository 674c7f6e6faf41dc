"""Dominator tree and dominance frontiers.

Implements the Cooper–Harvey–Kennedy iterative dominance algorithm over the
augmented CFG, plus the statement-granular dominance relation the placement
algorithm needs: the paper walks *dominator-tree parent links* from
``Latest(u)`` up to ``Earliest(u)`` (Claim 4.5) and repeatedly asks whether
one placement point dominates another (redundancy elimination, Fig 9f).
"""

from __future__ import annotations

from ..errors import PlacementError
from .cfg import CFG, Node, Position


class DominatorInfo:
    """Dominator tree, dominance queries, and dominance frontiers."""

    def __init__(self, cfg: CFG) -> None:
        self.cfg = cfg
        self._rpo = cfg.reverse_postorder()
        self._rpo_index = {node.id: i for i, node in enumerate(self._rpo)}
        self.idom: dict[int, Node] = {}
        self._compute_idoms()
        self.children: dict[int, list[Node]] = {n.id: [] for n in self._rpo}
        for node in self._rpo:
            if node is not self.cfg.entry:
                self.children[self.idom[node.id].id].append(node)
        self._dfs_order()
        self.frontier = self._compute_frontiers()

    # -- core algorithm --------------------------------------------------------

    def _compute_idoms(self) -> None:
        nodes = self.cfg.nodes
        entry = self.cfg.entry.id
        rpo_index = self._rpo_index
        idom: dict[int, int] = {entry: entry}

        changed = True
        while changed:
            changed = False
            for node in self._rpo:
                if node.id == entry:
                    continue
                processed = [p for p in node.preds if p in idom]
                if not processed:
                    continue
                new_idom = processed[0]
                for b in processed[1:]:
                    a = new_idom  # intersect(b, new_idom) up the tree
                    while a != b:
                        while rpo_index[a] > rpo_index[b]:
                            a = idom[a]
                        while rpo_index[b] > rpo_index[a]:
                            b = idom[b]
                    new_idom = a
                if idom.get(node.id) != new_idom:
                    idom[node.id] = new_idom
                    changed = True
        for node in self._rpo:
            if node.id not in idom:
                raise PlacementError(f"unreachable node {node!r} in CFG")
        self.idom = {nid: nodes[d] for nid, d in idom.items()}

    def _dfs_order(self) -> None:
        """Preorder/postorder numbering of the dominator tree enabling O(1)
        dominance queries, plus the dominator-tree depth table.

        All three are dense lists indexed by node id (ids are assigned
        contiguously by the CFG), so dominance queries are two list
        indexings with no dict probing and no node lookup."""
        n = len(self.cfg.nodes)
        self._pre: list[int] = [0] * n
        self._post: list[int] = [0] * n
        self._depth: list[int] = [0] * n
        counter = 0
        stack: list[tuple[Node, bool]] = [(self.cfg.entry, False)]
        while stack:
            node, done = stack.pop()
            if done:
                self._post[node.id] = counter
                counter += 1
                continue
            self._pre[node.id] = counter
            counter += 1
            if node is not self.cfg.entry:
                self._depth[node.id] = self._depth[self.idom[node.id].id] + 1
            stack.append((node, True))
            for child in reversed(self.children[node.id]):
                stack.append((child, False))

    def _compute_frontiers(self) -> dict[int, set[int]]:
        frontier: dict[int, set[int]] = {n.id: set() for n in self._rpo}
        idom = self.idom
        for node in self._rpo:
            if len(node.preds) < 2:
                continue
            stop = idom[node.id].id
            for runner in node.preds:
                while runner != stop:
                    frontier[runner].add(node.id)
                    runner = idom[runner].id
        return frontier

    # -- queries ------------------------------------------------------------

    def dominates(self, a: Node, b: Node) -> bool:
        """True when a dominates b (reflexively)."""
        return (
            self._pre[a.id] <= self._pre[b.id]
            and self._post[b.id] <= self._post[a.id]
        )

    def strictly_dominates(self, a: Node, b: Node) -> bool:
        return a is not b and self.dominates(a, b)

    def dom_tree_parent(self, node: Node) -> Node | None:
        if node is self.cfg.entry:
            return None
        return self.idom[node.id]

    def dom_tree_path(self, descendant: Node, ancestor: Node) -> list[Node]:
        """Nodes from ``descendant`` up to and including ``ancestor`` along
        dominator-tree parent links (Claim 4.5's walk).  Raises when
        ``ancestor`` does not dominate ``descendant``."""
        if not self.dominates(ancestor, descendant):
            raise PlacementError(
                f"{ancestor!r} does not dominate {descendant!r}; no dom-tree path"
            )
        path = [descendant]
        node = descendant
        while node is not ancestor:
            parent = self.dom_tree_parent(node)
            if parent is None:
                raise PlacementError("walked past ENTRY looking for dominator")
            path.append(parent)
            node = parent
        return path

    # -- statement-granular dominance ---------------------------------------

    def position_dominates(self, a: Position, b: Position) -> bool:
        """Does placement point ``a`` dominate placement point ``b``?

        Within one node, earlier positions dominate later ones; across
        nodes, block dominance decides.  Operates directly on the dense
        pre/post tables keyed by ``node_id`` — no node object is ever
        fetched (this is the single most-called query of the placement
        passes).
        """
        na, nb = a.node_id, b.node_id
        if na == nb:
            return a.index <= b.index
        pre = self._pre
        return pre[na] <= pre[nb] and self._post[nb] <= self._post[na]

    def dominator_depth(self, node: Node) -> int:
        """Depth of ``node`` in the dominator tree (entry = 0), from the
        table filled during :meth:`_dfs_order` — O(1) instead of the old
        O(depth) parent walk."""
        return self._depth[node.id]
