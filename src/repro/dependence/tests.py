"""Array dependence testing with direction vectors (paper §4.2's
``IsArrayDep`` substrate).

For a (def, use) pair on the same array the tester decides, conservatively,
at which common-loop levels a flow dependence ``def → use`` may be carried,
and whether a loop-independent dependence exists.  The test is a
GCD-plus-Banerjee interval test per array dimension under hierarchical
direction constraints, on *normalized* (zero-based, unit-stride) loop
variables; normalization makes strided-section writes (the paper's
odd/even columns in Figure 4) exact under the GCD test.

Conservativeness: "may depend" answers are always safe for the placement
algorithm — they only make ``Earliest`` later and ``Latest`` earlier.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from ..affine import Affine, NonAffineError
from ..errors import DependenceError
from ..frontend import ast_nodes as ast
from ..frontend.analysis import ProgramInfo
from ..ir.cfg import CFG, Loop
from ..perf.stats import CacheStats
from .subscripts import LoopContext, NormalizedLoop, common_prefix_length

_fresh = itertools.count()


@dataclass(frozen=True)
class DepResult:
    """Outcome of a flow-dependence query for one (def, use) pair.

    ``carried_levels`` holds every common-loop level (1-based, outermost
    first) at which a dependence may be carried; ``loop_independent`` is
    True when the def may write data the use reads within the same
    iteration of all common loops (with the def preceding the use).
    ``cnl`` is the number of common loops.
    """

    carried_levels: frozenset[int]
    loop_independent: bool
    cnl: int

    @property
    def exists(self) -> bool:
        return self.loop_independent or bool(self.carried_levels)

    def max_level(self) -> int:
        """The paper's DepLevel contribution: deepest carried level, or
        ``cnl`` for a loop-independent dependence, or 0 for none."""
        best = 0
        if self.carried_levels:
            best = max(self.carried_levels)
        if self.loop_independent:
            best = max(best, self.cnl)
        return best

    def at_level(self, level: int) -> bool:
        """The paper's IsArrayDep(d, u, l): a dependence with direction
        components zero above ``level`` — i.e. carried at some level >=
        ``level``, or loop-independent.  ``level`` may be 0 (no common
        loops): any dependence qualifies."""
        if level > self.cnl:
            return False
        if any(l >= level for l in self.carried_levels):
            return True
        return self.loop_independent


NO_DEP = DepResult(frozenset(), False, 0)


@dataclass
class _RefForms:
    """One reference as the feasibility test sees it: normalized affine
    subscript forms, the ranges of every variable they mention, and the
    normalized loop nest (the first ``cnl`` loops are the common ones).
    A view: ``forms`` and ``ranges`` belong to the :class:`LoopContext`
    unless the reference has triplet subscripts."""

    forms: list[Affine]
    ranges: dict[str, tuple[int, int]]
    loops: list[NormalizedLoop]


class DependenceTester:
    """Flow-dependence queries over one program's CFG."""

    def __init__(
        self,
        info: ProgramInfo,
        cfg: CFG,
        cache_enabled: bool = True,
        stats: "CacheStats | None" = None,
    ) -> None:
        self.info = info
        self.cfg = cfg
        self.cache_enabled = cache_enabled
        self.stats = stats
        self._cache: dict[tuple, DepResult] = {}
        # Equal verdicts are one object: a compile keeps a verdict per
        # (def, use) pair but only a handful of distinct ones.
        self._verdicts: dict[DepResult, DepResult] = {}
        # LoopContext is a pure function of (loop chain, tag): normalized
        # names derive from loop var/depth, no fresh symbols are minted.
        self._loopctx_cache: dict[tuple, LoopContext] = {}

    def precedes_forward(
        self, def_stmt: ast.Assign, use_stmt: ast.Assign
    ) -> bool:
        """May the def execute before the use in the same iteration of all
        their common loops?

        The language is structured (DO/IF, no GOTO), so within one
        iteration of every common loop the statements execute in textual
        order: preorder ``sid`` comparison is exact for straight-line
        sequences and conservative (may answer True) for statements in
        sibling branches of an IF, which can never both run — a safe
        over-approximation for placement.
        """
        return def_stmt.sid < use_stmt.sid

    # -- main query ---------------------------------------------------------

    def flow_dependence(
        self,
        def_stmt: ast.Assign,
        def_ref: ast.ArrayRef,
        use_stmt: ast.Assign,
        use_ref: ast.ArrayRef,
    ) -> DepResult:
        """May ``def_ref`` (written by ``def_stmt``) produce a value read by
        ``use_ref`` (in ``use_stmt``)?  Returns the carried levels and the
        loop-independent flag."""
        if def_ref.name != use_ref.name:
            raise DependenceError("flow_dependence called on different arrays")
        if not self.cache_enabled:
            return self._test(def_stmt, def_ref, use_stmt, use_ref)
        key = (def_stmt.sid, id(def_ref), use_stmt.sid, id(use_ref))
        cached = self._cache.get(key)
        if cached is not None:
            if self.stats is not None:
                self.stats.hits += 1
            return cached
        if self.stats is not None:
            self.stats.misses += 1
        result = self._test(def_stmt, def_ref, use_stmt, use_ref)
        self._cache[key] = result
        return result

    def _test(
        self,
        def_stmt: ast.Assign,
        def_ref: ast.ArrayRef,
        use_stmt: ast.Assign,
        use_ref: ast.ArrayRef,
    ) -> DepResult:
        def_node = self.cfg.node_of_stmt(def_stmt)
        use_node = self.cfg.node_of_stmt(use_stmt)
        def_loops = def_node.loops_containing()
        use_loops = use_node.loops_containing()
        cnl = common_prefix_length(def_loops, use_loops)

        try:
            d = self._ref_forms(def_ref, def_loops, side="d")
            u = self._ref_forms(use_ref, use_loops, side="u")
        except DependenceError:
            # Non-affine subscripts: assume everything, conservatively.
            carried = frozenset(range(1, cnl + 1))
            independent = self.precedes_forward(def_stmt, use_stmt)
        else:
            carried = frozenset(
                level
                for level in range(1, cnl + 1)
                if self._feasible(d, u, cnl, carried_level=level)
            )
            independent = self._feasible(
                d, u, cnl, carried_level=None
            ) and self.precedes_forward(def_stmt, use_stmt)
        result = DepResult(carried, independent, cnl)
        return self._verdicts.setdefault(result, result)

    # -- reference forms -------------------------------------------------------

    def _ref_forms(
        self, ref: ast.ArrayRef, loops: list[Loop], side: str
    ) -> _RefForms:
        """Normalized subscript forms.  Loops are named by variable, depth
        and side, so the common loops of the two sides line up and
        equality constraints can be expressed by renaming.  An element
        reference is normalized once per loop context; a triplet
        dimension gets a fresh side-private variable on every call."""
        ctx = self._loop_context(loops, side)
        if not ref.has_section:
            return _RefForms(ctx.subscript_forms(ref), ctx.norm_ranges, ctx.loops)

        ranges = dict(ctx.norm_ranges)
        forms: list[Affine] = []
        for dim, sub in enumerate(ref.subscripts):
            if isinstance(sub, ast.Index):
                try:
                    form = self.info.affine(sub.expr)
                except NonAffineError as exc:
                    raise DependenceError(str(exc)) from None
                forms.append(ctx.normalize(form))
            else:
                # A triplet (reduction argument): a free variable over the
                # section.
                lo, count_max, step = self._triplet_bounds(ref.name, dim, sub, ctx)
                var = f"_t{side}{next(_fresh)}"
                ranges[var] = (0, count_max)
                forms.append(lo + Affine.symbol(var, step))
        return _RefForms(forms, ranges, ctx.loops)

    def _loop_context(self, loops: list[Loop], tag: str) -> LoopContext:
        if not self.cache_enabled:
            return LoopContext(self.info, loops, tag=tag)
        # The innermost loop determines the chain of its ancestors.
        key = (tag, loops[-1].stmt.sid if loops else None)
        ctx = self._loopctx_cache.get(key)
        if ctx is None:
            ctx = LoopContext(self.info, loops, tag=tag)
            self._loopctx_cache[key] = ctx
        return ctx

    def _triplet_bounds(
        self, array: str, dim: int, sub: ast.Triplet, ctx: LoopContext
    ) -> tuple[Affine, int | None, int]:
        extent = self.info.shape(array)[dim]
        lo = (
            Affine.constant(1)
            if sub.lo is None
            else ctx.normalize(self.info.affine(sub.lo))
        )
        hi = (
            Affine.constant(extent)
            if sub.hi is None
            else ctx.normalize(self.info.affine(sub.hi))
        )
        step_form = (
            Affine.constant(1) if sub.step is None else self.info.affine(sub.step)
        )
        if not step_form.is_constant or step_form.const < 1:
            raise DependenceError(f"triplet step must be a positive constant")
        step = step_form.const
        # Conservative count bound via intervals.
        lo_min, _ = lo.interval(ctx.norm_ranges)
        _, hi_max = hi.interval(ctx.norm_ranges)
        count_max = max(0, (hi_max - lo_min) // step)
        return lo, count_max, step

    # -- feasibility under a direction constraint ---------------------------------

    def _feasible(
        self, d: _RefForms, u: _RefForms, cnl: int, carried_level: int | None
    ) -> bool:
        """Is the system ``f_d(I) == g_u(I')`` feasible with I, I' related
        by the direction constraint: equal above ``carried_level``,
        ``I < I'`` at it, free below (or equal everywhere for
        ``carried_level=None``)?"""
        # Build the renaming of u's common variables.
        subst: dict[str, Affine] = {}
        ranges: dict[str, tuple[int, int]] = dict(d.ranges)
        for j in range(cnl):
            d_var, u_var = d.loops[j].norm_var, u.loops[j].norm_var
            trip = min(d.loops[j].trip_max, u.loops[j].trip_max)
            if carried_level is None or j + 1 < carried_level:
                subst[u_var] = Affine.symbol(d_var)
            elif j + 1 == carried_level:
                if trip < 1:
                    return False  # cannot have two distinct iterations
                delta = f"_delta{j}"
                subst[u_var] = Affine.symbol(d_var) + Affine.symbol(delta)
                ranges[delta] = (1, trip)
            # deeper than the carried level: leave u's variable free
        for var, r in u.ranges.items():
            if var not in subst:
                ranges.setdefault(var, r)

        for f, g in zip(d.forms, u.forms):
            h = f - g.substitute_all(subst)
            # GCD test.
            if h.coeffs:
                gcd = math.gcd(*[abs(c) for c in h.coeffs.values()])
                if gcd and h.const % gcd != 0:
                    return False
            elif h.const != 0:
                return False
            # Interval (Banerjee-style) test.
            try:
                lo, hi = h.interval(ranges)
            except NonAffineError:
                continue  # unknown symbol (e.g. unresolved scalar): assume feasible
            if not (lo <= 0 <= hi):
                return False
        return True
