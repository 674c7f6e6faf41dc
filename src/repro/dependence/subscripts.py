"""Affine subscript extraction and loop-context normalization.

Dependence testing and section analysis both need array subscripts as
affine forms over *normalized* loop variables.  A :class:`LoopContext`
captures the loop nest around a statement: for each loop, its induction
variable, its affine bounds, and a zero-based, unit-stride normalization
``var = lo + step * var'``.  Normalization keeps stride information inside
the subscript coefficients, which is what makes the odd/even column
dependence test of the paper's Figure 4 exact (a GCD test sees the
``2*j`` coefficient instead of a strided loop range).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..affine import Affine, NonAffineError
from ..errors import DependenceError
from ..frontend import ast_nodes as ast
from ..frontend.analysis import ProgramInfo
from ..ir.cfg import Loop


@dataclass(frozen=True)
class NormalizedLoop:
    """One loop of a nest in normalized form.

    The original induction variable ``var`` relates to the normalized
    zero-based variable by ``var = lo + step * norm_var``; ``trip_max`` is
    the largest value of the normalized variable (so the trip count is
    ``trip_max + 1``), computed with outer loop ranges widened.
    """

    loop: Loop
    var: str
    norm_var: str
    lo: Affine  # in terms of *normalized* outer variables
    step: int
    trip_max: int

    @property
    def depth(self) -> int:
        return self.loop.depth


class LoopContext:
    """The normalized loop nest enclosing one statement."""

    def __init__(self, info: ProgramInfo, loops: list[Loop], tag: str) -> None:
        """``loops`` must be outermost-first; ``tag`` disambiguates the
        normalized variable names between the two sides of a dependence
        test."""
        self.info = info
        self.loops: list[NormalizedLoop] = []
        self._subst: dict[str, Affine] = {}  # original var -> affine in norm vars
        self._ranges: dict[str, tuple[int, int]] = {}  # norm var -> [0, trip_max]
        # id(ref) -> (ref, normalized subscript forms); see subscript_forms
        self._ref_forms: dict[int, tuple[ast.ArrayRef, list[Affine]]] = {}

        for loop in loops:
            stmt = loop.stmt
            try:
                lo = info.affine(stmt.lo).substitute_all(self._subst)
                hi = info.affine(stmt.hi).substitute_all(self._subst)
                step_form = info.affine(stmt.step)
            except NonAffineError as exc:
                raise DependenceError(
                    f"loop {loop.var!r} bounds are not affine: {exc}"
                ) from None
            if not step_form.is_constant or step_form.const == 0:
                raise DependenceError(
                    f"loop {loop.var!r} step must be a nonzero constant"
                )
            step = step_form.const
            if step < 0:
                raise DependenceError(
                    f"loop {loop.var!r}: negative steps are not supported"
                )
            norm_var = f"{loop.var}'{tag}{loop.depth}"
            # Trip count bound via interval arithmetic over outer ranges.
            lo_min, lo_max = lo.interval(self._ranges)
            hi_min, hi_max = hi.interval(self._ranges)
            trip_max = (hi_max - lo_min) // step
            if trip_max < 0:
                trip_max = 0  # possibly zero-trip loop; keep a degenerate range
            self.loops.append(
                NormalizedLoop(loop, loop.var, norm_var, lo, step, trip_max)
            )
            self._subst[loop.var] = lo + Affine.symbol(norm_var, step)
            self._ranges[norm_var] = (0, trip_max)

    @property
    def norm_ranges(self) -> dict[str, tuple[int, int]]:
        """Range of every normalized variable.  Shared, not copied: callers
        that add variables of their own copy it first."""
        return self._ranges

    def normalize(self, form: Affine) -> Affine:
        """Rewrite a subscript affine form into normalized variables."""
        return form.substitute_all(self._subst)

    def subscript_forms(self, ref: ast.ArrayRef) -> list[Affine]:
        """Affine forms (normalized) of every subscript of an element
        reference.  They depend on the reference and this nest only, so
        each reference is normalized once per context; the table pins the
        reference, which keeps its ``id`` from being reused."""
        known = self._ref_forms.get(id(ref))
        if known is not None:
            return known[1]
        forms: list[Affine] = []
        for sub in ref.subscripts:
            if isinstance(sub, ast.Triplet):
                raise DependenceError(
                    f"sectioned subscript {sub} reached dependence testing "
                    f"(scalarize first)"
                )
            try:
                form = self.info.affine(sub.expr)
            except NonAffineError as exc:
                raise DependenceError(
                    f"non-affine subscript {sub.expr} in {ref}: {exc}"
                ) from None
            forms.append(self.normalize(form))
        self._ref_forms[id(ref)] = (ref, forms)
        return forms


def common_prefix_length(a: list[Loop], b: list[Loop]) -> int:
    """Number of leading loops shared by two outermost-first loop chains."""
    n = 0
    for la, lb in zip(a, b):
        if la is lb:
            n += 1
        else:
            break
    return n
