"""Communication entries and placement-dependent section computation.

A :class:`CommEntry` is the unit the placement algorithm moves around: one
use of a distributed array that requires communication, together with its
pattern, its legal placement range (``earliest``/``latest``/candidates,
filled in by :mod:`repro.core`), and a way to compute the data section *as
a function of the placement point* (hoisting out of a loop widens the
section over that loop's range — message vectorization).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..affine import Affine, NonAffineError
from ..errors import PlacementError
from ..frontend import ast_nodes as ast
from ..frontend.analysis import ProgramInfo
from ..ir.cfg import CFG, Loop, Node, Position
from ..ir.ssa import Use
from ..perf.stats import CacheStats
from ..sections.symbolic import SymDim, SymSection
from .patterns import CommPattern


class SectionBuilder:
    """Computes the symbolic data section a use needs when its
    communication is placed at a given CFG node.

    Sections are hash-consed: value-equal results share one object via the
    intern pool, and the per-(use, node) memo cache makes repeated queries
    from the redundancy/combining passes O(1).  :meth:`_build` is the
    unmemoized computation every cached section must equal.
    """

    def __init__(
        self,
        info: ProgramInfo,
        cfg: CFG,
        stats: "CacheStats | None" = None,
    ) -> None:
        self.info = info
        self.cfg = cfg
        self.stats = stats
        self._cache: dict[tuple[int, int, int], SymSection] = {}
        self._section_pool: dict[SymSection, SymSection] = {}
        self._ranges_cache: dict[int, dict[str, tuple[int, int]]] = {}

    # -- loop range helpers ------------------------------------------------------

    def loop_ranges(self, loops: list[Loop]) -> dict[str, tuple[int, int]]:
        """Concrete [min, max] value ranges for a chain of loops
        (outermost first), widening symbolic bounds via intervals."""
        ranges: dict[str, tuple[int, int]] = {}
        for loop in loops:
            lo = self.info.affine(loop.stmt.lo)
            hi = self.info.affine(loop.stmt.hi)
            try:
                lo_min, _ = lo.interval(ranges)
                _, hi_max = hi.interval(ranges)
            except NonAffineError as exc:
                raise PlacementError(
                    f"loop {loop.var!r} bounds not resolvable: {exc}"
                ) from None
            ranges[loop.var] = (lo_min, max(lo_min, hi_max))
        return ranges

    def _loop_widen_params(
        self, loop: Loop, outer_ranges: dict[str, tuple[int, int]]
    ) -> tuple[Affine, int, int, bool]:
        """(lo, step, trips, exact) widening data for one loop."""
        lo = self.info.affine(loop.stmt.lo)
        hi = self.info.affine(loop.stmt.hi)
        step_form = self.info.affine(loop.stmt.step)
        if not step_form.is_constant or step_form.const < 1:
            raise PlacementError(f"loop {loop.var!r} step must be positive constant")
        step = step_form.const
        diff = hi - lo
        if diff.is_constant:
            return lo, step, max(0, diff.const // step), True
        lo_min, _ = lo.interval(outer_ranges)
        _, hi_max = hi.interval(outer_ranges)
        return lo, step, max(0, (hi_max - lo_min) // step), False

    # -- section computation ----------------------------------------------------

    def section_at(self, use: Use, placement: Node) -> SymSection:
        """The section ``use`` reads, widened over every loop that contains
        the use but not the placement node."""
        key = (use.stmt.sid, id(use.ref), placement.id)
        cached = self._cache.get(key)
        if cached is not None:
            if self.stats is not None:
                self.stats.hits += 1
            return cached
        if self.stats is not None:
            self.stats.misses += 1
        section = self._build(use, placement)
        # Hash-consing: placements widening to the same footprint share one
        # descriptor, so downstream equality checks hit the identity path.
        section = self._section_pool.setdefault(section, section)
        self._cache[key] = section
        return section

    def _build(self, use: Use, placement: Node) -> SymSection:
        ref = use.ref
        assert isinstance(ref, ast.ArrayRef)
        use_loops = use.node.loops_containing()
        placement_loops = set(id(l) for l in placement.loops_containing())
        widen = [l for l in use_loops if id(l) not in placement_loops]

        # Start from the raw subscript forms.
        dims: list[SymDim] = []
        shape = self.info.shape(ref.name)
        for dim, sub in enumerate(ref.subscripts):
            if isinstance(sub, ast.Index):
                try:
                    dims.append(SymDim.point(self.info.affine(sub.expr)))
                except NonAffineError:
                    # Unknown subscript: whole dimension, inexact.
                    dims.append(
                        SymDim(
                            Affine.constant(1),
                            Affine.constant(shape[dim]),
                            1,
                            exact=False,
                        )
                    )
            else:
                lo = (
                    Affine.constant(1)
                    if sub.lo is None
                    else self.info.affine(sub.lo)
                )
                hi = (
                    Affine.constant(shape[dim])
                    if sub.hi is None
                    else self.info.affine(sub.hi)
                )
                step_form = (
                    Affine.constant(1)
                    if sub.step is None
                    else self.info.affine(sub.step)
                )
                step = step_form.const if step_form.is_constant else 1
                dims.append(SymDim(lo, hi, max(1, step), exact=step_form.is_constant))

        # Widen innermost-first so triangular inner bounds (which mention
        # outer variables) are substituted before the outer loop is widened.
        outer_ranges = self.loop_ranges(use_loops)
        for loop in reversed(widen):
            lo, step, trips, exact = self._loop_widen_params(loop, outer_ranges)
            dims = [d.widen(loop.var, lo, step, trips, exact) for d in dims]

        return SymSection(ref.name, tuple(dims))

    def live_ranges_at(self, node: Node) -> dict[str, tuple[int, int]]:
        """Value ranges of loop variables live at ``node`` (memoized per
        node — the greedy pass asks for the same node's ranges once per
        entry pair)."""
        ranges = self._ranges_cache.get(node.id)
        if ranges is None:
            ranges = self.loop_ranges(node.loops_containing())
            self._ranges_cache[node.id] = ranges
        return ranges


_entry_counter = 0


@dataclass(eq=False, slots=True)
class CommEntry:
    """One communication requirement, tracked through placement.

    ``candidates`` is filled by candidate marking (paper §4.4) and is a
    dominator-ordered chain of positions: ``candidates[0]`` is the
    earliest, ``candidates[-1]`` the latest.  ``absorbed`` accumulates
    entries this one subsumed during global redundancy elimination — the
    final group placement must stay within their constraint sets too.
    ``eliminated_by`` is the *id* of the entry that absorbed this one
    (``None`` while alive): an object link back would close a reference
    cycle with ``absorbed``.
    """

    use: Use
    pattern: CommPattern
    earliest_pos: Optional[Position] = None
    latest_pos: Optional[Position] = None
    comm_level: int = -1
    candidates: list[Position] = field(default_factory=list)
    absorbed: list["CommEntry"] = field(default_factory=list)
    eliminated_by: Optional[int] = None
    id: int = -1
    label: str = ""
    _candidate_set: Optional[frozenset[Position]] = field(
        default=None, repr=False
    )

    def __post_init__(self) -> None:
        global _entry_counter
        if self.id < 0:
            self.id = _entry_counter
            _entry_counter += 1
        if not self.label:
            self.label = f"{self.use.var}@s{self.use.stmt.sid}"

    @property
    def array(self) -> str:
        return self.use.var

    @property
    def is_reduction(self) -> bool:
        return self.pattern.is_reduction

    @property
    def alive(self) -> bool:
        return self.eliminated_by is None

    def candidate_set(self) -> frozenset[Position]:
        """The candidate chain as a set, memoized — candidate marking
        invalidates it when (re)assigning the chain."""
        cached = self._candidate_set
        if cached is None or len(cached) != len(self.candidates):
            cached = self._candidate_set = frozenset(self.candidates)
        return cached

    def __repr__(self) -> str:
        return f"<comm {self.id} {self.label} {self.pattern}>"
