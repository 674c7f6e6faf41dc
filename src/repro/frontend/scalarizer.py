"""Scalarization: F90 array-section statements to explicit DO loops.

The IBM pHPF compiler scalarizes F90 array syntax before communication
analysis; the paper's Figure 3 shows this is exactly why *earliest
placement* is fragile — the scalarizer splits one conceptual loop into
several, breaking interval containment.  We reproduce the same pipeline
position: :func:`scalarize` runs after elaboration and before analysis.

Rules
-----
* ``a(l1:h1:s1, l2:h2:s2) = rhs`` becomes a loop nest with one fresh,
  zero-based induction variable per section dimension::

      DO _s1 = 0, count1-1
        DO _s2 = 0, count2-1
          a(l1 + s1*_s1, l2 + s2*_s2) = rhs'

  where every RHS section reference has its k-th triplet rewritten to
  ``lo_k + step_k * _sk``.  Zero-based loops keep all subscripts affine
  with integer coefficients regardless of the original strides.
* Reduction intrinsics (``SUM``/``MAXVAL``/``MINVAL``) keep their section
  argument: reductions are atomic communication statements in this
  compiler (paper §6.2) and are not expanded into accumulation loops.
* Section extents must conform; mismatches raise
  :class:`ScalarizationError` with the offending statement.
* F90 semantics require the RHS of an array assignment to be evaluated
  before any element is stored.  When the RHS reads the *same* array
  through a different (potentially overlapping) section, naive loop
  expansion would read already-overwritten elements; the scalarizer
  introduces a compiler temporary aligned with the target array
  (``_tmp1(sec) = rhs;  lhs(sec) = _tmp1(sec)``), as production HPF
  scalarizers do.  The copy-back is perfectly aligned and adds no
  communication.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..affine import NonAffineError
from ..errors import ScalarizationError, SourceLocation
from . import ast_nodes as ast
from .analysis import ProgramInfo, to_affine


@dataclass
class _SectionLoop:
    """One generated loop: fresh variable plus the per-ref rewrite data."""

    var: str
    count: int


class Scalarizer:
    """Stateful scalarizer; use via :func:`scalarize`."""

    def __init__(self, info: ProgramInfo) -> None:
        self._info = info
        self._counter = 0
        self._temp_counter = 0
        self.new_decls: list[ast.Decl] = []
        # Location of the statement currently being scalarized, so every
        # ScalarizationError carries a source position without threading a
        # location through each helper.
        self._loc: SourceLocation | None = None

    # -- helpers -------------------------------------------------------------

    def _fresh_var(self) -> str:
        self._counter += 1
        return f"_s{self._counter}"

    def _const(self, expr: ast.Expr, where: str) -> int:
        try:
            form = to_affine(expr, self._info.params)
        except NonAffineError as exc:
            raise ScalarizationError(
                f"{where}: {exc}", location=self._loc
            ) from None
        if not form.is_constant:
            raise ScalarizationError(
                f"{where}: section bound {expr} is not compile-time constant",
                location=self._loc,
            )
        return form.const

    def _resolve_triplet(
        self, array: str, dim: int, triplet: ast.Triplet, where: str
    ) -> tuple[int, int, int]:
        """Concrete (lo, hi, step) of a triplet, defaulting to the full
        declared extent."""
        extent = self._info.shape(array)[dim]
        lo = 1 if triplet.lo is None else self._const(triplet.lo, where)
        hi = extent if triplet.hi is None else self._const(triplet.hi, where)
        step = 1 if triplet.step is None else self._const(triplet.step, where)
        if step < 1:
            raise ScalarizationError(
                f"{where}: negative/zero section step {step}",
                location=self._loc,
            )
        return lo, hi, step

    @staticmethod
    def _index_expr(lo: int, step: int, var: str) -> ast.Expr:
        """Build the affine subscript ``lo + step * var`` as AST."""
        scaled: ast.Expr = ast.VarRef(var)
        if step != 1:
            scaled = ast.BinOp("*", ast.Num(step), scaled)
        if lo == 0:
            return scaled
        return ast.BinOp("+", ast.Num(lo), scaled)

    # -- statement rewriting -----------------------------------------------------

    def scalarize_body(self, body: list[ast.Stmt]) -> list[ast.Stmt]:
        out: list[ast.Stmt] = []
        for stmt in body:
            out.extend(self._scalarize_stmt(stmt))
        return out

    def _scalarize_stmt(self, stmt: ast.Stmt) -> list[ast.Stmt]:
        self._loc = stmt.loc
        if isinstance(stmt, ast.Do):
            return [
                ast.Do(
                    stmt.var,
                    stmt.lo,
                    stmt.hi,
                    stmt.step,
                    self.scalarize_body(stmt.body),
                    loc=stmt.loc,
                )
            ]
        if isinstance(stmt, ast.If):
            return [
                ast.If(
                    stmt.cond,
                    self.scalarize_body(stmt.then_body),
                    self.scalarize_body(stmt.else_body),
                    loc=stmt.loc,
                )
            ]
        assert isinstance(stmt, ast.Assign)
        if self._needs_temporary(stmt):
            return self._expand_with_temporary(stmt)
        return self._scalarize_assign(stmt)

    # -- overlap handling (F90 fetch-before-store semantics) -----------------

    def _needs_temporary(self, stmt: ast.Assign) -> bool:
        """True when the RHS reads the LHS array through subscripts that
        differ from the write's — the store order could then clobber
        elements the F90 semantics still need."""
        lhs = stmt.lhs
        if not isinstance(lhs, ast.ArrayRef) or not lhs.has_section:
            return False
        where = f"statement {stmt.sid}"
        for ref in ast.array_refs(stmt.rhs):
            if ref.name != lhs.name or ref is lhs:
                continue
            for dim, (ls, rs) in enumerate(zip(lhs.subscripts, ref.subscripts)):
                if type(ls) is not type(rs):
                    return True
                if isinstance(ls, ast.Triplet):
                    if self._resolve_triplet(
                        lhs.name, dim, ls, where
                    ) != self._resolve_triplet(ref.name, dim, rs, where):
                        return True
                else:
                    try:
                        diff = to_affine(ls.expr, self._info.params) - to_affine(
                            rs.expr, self._info.params
                        )
                    except Exception:
                        return True
                    if not (diff.is_constant and diff.const == 0):
                        return True
        return False

    def _expand_with_temporary(self, stmt: ast.Assign) -> list[ast.Stmt]:
        lhs = stmt.lhs
        assert isinstance(lhs, ast.ArrayRef)
        self._temp_counter += 1
        temp = f"_tmp{self._temp_counter}"
        decl = self._info.array_decls[lhs.name]
        self.new_decls.append(
            ast.ArrayDecl(temp, decl.dims, decl.elem_type, decl.elem_bytes)
        )
        self.new_decls.append(ast.AlignDecl(temp, lhs.name))
        # Teach this scalarizer's info the temp's shape so triplet
        # resolution inside the expanded statements works (the pipeline
        # re-elaborates the program afterwards, making this official).
        import dataclasses

        self._info.layouts[temp] = dataclasses.replace(
            self._info.layout(lhs.name), array=temp
        )

        temp_ref = ast.ArrayRef(temp, lhs.subscripts)
        fill = ast.Assign(temp_ref, stmt.rhs, loc=stmt.loc)
        copy_back = ast.Assign(lhs, temp_ref, loc=stmt.loc)
        return self._scalarize_assign(fill) + self._scalarize_assign(copy_back)

    def _scalarize_assign(self, stmt: ast.Assign) -> list[ast.Stmt]:
        where = f"statement {stmt.sid} ({stmt.loc})"
        lhs = stmt.lhs

        if isinstance(lhs, ast.VarRef) or not lhs.has_section:
            # Scalar or already element-wise; only reductions may carry
            # sections on the RHS.
            self._check_rhs_sections_only_in_reductions(stmt.rhs, where)
            return [ast.Assign(lhs, stmt.rhs, loc=stmt.loc)]

        # Build one loop per LHS section dimension.
        loops: list[_SectionLoop] = []
        new_subs: list[ast.Subscript] = []
        lhs_counts: list[int] = []
        for dim, sub in enumerate(lhs.subscripts):
            if isinstance(sub, ast.Index):
                new_subs.append(sub)
                continue
            lo, hi, step = self._resolve_triplet(lhs.name, dim, sub, where)
            count = max(0, (hi - lo) // step + 1)
            var = self._fresh_var()
            loops.append(_SectionLoop(var, count))
            lhs_counts.append(count)
            new_subs.append(ast.Index(self._index_expr(lo, step, var)))
        new_lhs = ast.ArrayRef(lhs.name, tuple(new_subs))
        new_rhs = self._rewrite_expr(stmt.rhs, loops, lhs_counts, where)

        inner: list[ast.Stmt] = [ast.Assign(new_lhs, new_rhs, loc=stmt.loc)]
        for loop in reversed(loops):
            inner = [
                ast.Do(
                    loop.var,
                    ast.Num(0),
                    ast.Num(loop.count - 1),
                    ast.Num(1),
                    inner,
                    loc=stmt.loc,
                )
            ]
        return inner

    def _rewrite_expr(
        self,
        expr: ast.Expr,
        loops: list[_SectionLoop],
        lhs_counts: list[int],
        where: str,
    ) -> ast.Expr:
        if isinstance(expr, (ast.Num, ast.VarRef)):
            return expr
        if isinstance(expr, ast.BinOp):
            return ast.BinOp(
                expr.op,
                self._rewrite_expr(expr.left, loops, lhs_counts, where),
                self._rewrite_expr(expr.right, loops, lhs_counts, where),
            )
        if isinstance(expr, ast.UnOp):
            return ast.UnOp(
                expr.op, self._rewrite_expr(expr.operand, loops, lhs_counts, where)
            )
        if isinstance(expr, ast.Reduction):
            # The reduction's section argument is left intact.
            return expr
        if isinstance(expr, ast.Intrinsic):
            return ast.Intrinsic(
                expr.name,
                tuple(
                    self._rewrite_expr(a, loops, lhs_counts, where)
                    for a in expr.args
                ),
            )
        assert isinstance(expr, ast.ArrayRef)
        sections = [
            (dim, sub)
            for dim, sub in enumerate(expr.subscripts)
            if isinstance(sub, ast.Triplet)
        ]
        if not sections:
            return expr
        if len(sections) != len(loops):
            raise ScalarizationError(
                f"{where}: RHS reference {expr} has {len(sections)} section "
                f"dimensions but the LHS has {len(loops)}",
                location=self._loc,
            )
        new_subs = list(expr.subscripts)
        for (dim, sub), loop, lhs_count in zip(sections, loops, lhs_counts):
            lo, hi, step = self._resolve_triplet(expr.name, dim, sub, where)
            count = max(0, (hi - lo) // step + 1)
            if count != lhs_count:
                raise ScalarizationError(
                    f"{where}: section extent mismatch in {expr}: RHS dim {dim} "
                    f"has {count} elements, LHS expects {lhs_count}",
                    location=self._loc,
                )
            new_subs[dim] = ast.Index(self._index_expr(lo, step, loop.var))
        return ast.ArrayRef(expr.name, tuple(new_subs))

    def _check_rhs_sections_only_in_reductions(
        self, expr: ast.Expr, where: str
    ) -> None:
        if isinstance(expr, ast.Reduction):
            return  # sections allowed inside
        if isinstance(expr, ast.ArrayRef) and expr.has_section:
            raise ScalarizationError(
                f"{where}: sectioned reference {expr} on the RHS of a "
                f"non-sectioned assignment (only reductions may keep "
                f"sections)",
                location=self._loc,
            )
        if isinstance(expr, ast.BinOp):
            children: tuple = (expr.left, expr.right)
        elif isinstance(expr, ast.UnOp):
            children = (expr.operand,)
        elif isinstance(expr, ast.Intrinsic):
            children = expr.args
        else:
            return
        for child in children:
            self._check_rhs_sections_only_in_reductions(child, where)


def scalarize(program: ast.Program, info: ProgramInfo) -> ast.Program:
    """Return a new program with all array statements expanded to loops.

    The result is renumbered; the input program is not modified.  Compiler
    temporaries introduced for overlapping same-array assignments appear
    as extra declarations aligned with their target arrays.
    """
    scal = Scalarizer(info)
    body = scal.scalarize_body(program.body)
    new_program = ast.Program(
        program.name, list(program.decls) + scal.new_decls, body
    )
    ast.number_statements(new_program)
    return new_program
