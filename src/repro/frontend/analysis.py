"""Semantic analysis and elaboration of mini-HPF programs.

:func:`elaborate` checks a parsed :class:`Program` and produces a
:class:`ProgramInfo`: parameter values (with optional overrides, so one
parse supports a problem-size sweep), processor grids, and a concrete
:class:`~repro.distribution.layout.Layout` for every array.  Arrays without
a mapping directive are replicated.

It also hosts :func:`to_affine`, the bridge from AST expressions to the
:class:`~repro.affine.Affine` forms used by scalarization, section
computation, and dependence testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..affine import Affine, NonAffineError
from ..distribution.layout import (
    DimMapping,
    DistFormat,
    Layout,
    ProcessorGrid,
    replicated_layout,
)
from ..errors import SemanticError, SourceLocation
from . import ast_nodes as ast


def to_affine(expr: ast.Expr, params: dict[str, int] | None = None) -> Affine:
    """Convert an index expression to an affine form.

    Symbols bound in ``params`` are folded to constants; all other
    :class:`VarRef` names (loop variables, unresolved parameters) stay
    symbolic.  Raises :class:`NonAffineError` for anything else (array
    reads in subscripts, non-linear products, intrinsics).
    """
    params = params or {}
    if isinstance(expr, ast.Num):
        if not float(expr.value).is_integer():
            raise NonAffineError(f"non-integer literal {expr.value} in index")
        return Affine.constant(int(expr.value))
    if isinstance(expr, ast.VarRef):
        if expr.name in params:
            return Affine.constant(params[expr.name])
        return Affine.symbol(expr.name)
    if isinstance(expr, ast.UnOp) and expr.op == "-":
        return -to_affine(expr.operand, params)
    if isinstance(expr, ast.BinOp):
        if expr.op == "+":
            return to_affine(expr.left, params) + to_affine(expr.right, params)
        if expr.op == "-":
            return to_affine(expr.left, params) - to_affine(expr.right, params)
        if expr.op == "*":
            return to_affine(expr.left, params) * to_affine(expr.right, params)
        if expr.op == "/":
            left = to_affine(expr.left, params)
            right = to_affine(expr.right, params)
            if right.is_constant and right.const != 0 and left.is_constant and (
                left.const % right.const == 0
            ):
                return Affine.constant(left.const // right.const)
            raise NonAffineError(f"non-constant division in index: {expr}")
    raise NonAffineError(f"expression is not affine: {expr}")


@dataclass
class ProgramInfo:
    """Elaborated facts about one program, shared by every later phase."""

    program: ast.Program
    params: dict[str, int]
    grids: dict[str, ProcessorGrid]
    layouts: dict[str, Layout]
    scalars: dict[str, ast.ScalarDecl]
    array_decls: dict[str, ast.ArrayDecl] = field(default_factory=dict)
    default_grid: ProcessorGrid | None = None
    # Memo for :meth:`affine`, keyed by expression identity.  The value
    # keeps a reference to the expression so an id() can never be reused
    # while its cache entry is alive.
    _affine_cache: dict[int, tuple[ast.Expr, Affine]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def layout(self, array: str) -> Layout:
        try:
            return self.layouts[array]
        except KeyError:
            raise SemanticError(f"no layout for array {array!r}") from None

    def is_array(self, name: str) -> bool:
        return name in self.layouts

    def is_distributed(self, name: str) -> bool:
        layout = self.layouts.get(name)
        return layout is not None and bool(layout.distributed_dims)

    def shape(self, array: str) -> tuple[int, ...]:
        return self.layout(array).shape

    def eval_const(self, expr: ast.Expr) -> int:
        """Evaluate a compile-time constant expression (params only)."""
        form = to_affine(expr, self.params)
        if not form.is_constant:
            raise SemanticError(f"expression {expr} is not compile-time constant")
        return form.const

    def affine(self, expr: ast.Expr) -> Affine:
        """Affine form of an index expression with parameters folded
        (memoized per expression object; params are fixed per info)."""
        key = id(expr)
        cached = self._affine_cache.get(key)
        if cached is not None and cached[0] is expr:
            return cached[1]
        form = to_affine(expr, self.params)
        self._affine_cache[key] = (expr, form)
        return form


def elaborate(
    program: ast.Program, param_overrides: dict[str, int] | None = None
) -> ProgramInfo:
    """Validate ``program`` and resolve its declarations.

    ``param_overrides`` replaces declared PARAM defaults by name; unknown
    override names are an error (they would silently do nothing otherwise).
    """
    params: dict[str, int] = {}
    for decl in program.decls:
        if isinstance(decl, ast.ParamDecl):
            if decl.name in params:
                raise SemanticError(
                    f"duplicate PARAM {decl.name!r}", location=decl.loc
                )
            params[decl.name] = decl.value
    if param_overrides:
        for name, value in param_overrides.items():
            if name not in params:
                raise SemanticError(f"override for undeclared PARAM {name!r}")
            params[name] = int(value)

    def const(expr: ast.Expr, what: str, loc: SourceLocation | None = None) -> int:
        try:
            form = to_affine(expr, params)
        except NonAffineError as exc:
            raise SemanticError(f"{what}: {exc}", location=loc) from None
        if not form.is_constant:
            raise SemanticError(
                f"{what} must be compile-time constant, got {expr}", location=loc
            )
        return form.const

    grids: dict[str, ProcessorGrid] = {}
    template_shapes: dict[str, tuple[int, ...]] = {}
    array_decls: dict[str, ast.ArrayDecl] = {}
    scalars: dict[str, ast.ScalarDecl] = {}
    distributes: dict[str, ast.DistributeDecl] = {}
    aligns: dict[str, ast.AlignDecl] = {}

    for decl in program.decls:
        if isinstance(decl, ast.ProcessorsDecl):
            shape = tuple(
                const(e, f"PROCESSORS {decl.name}", decl.loc) for e in decl.shape
            )
            grids[decl.name] = ProcessorGrid(decl.name, shape)
        elif isinstance(decl, ast.TemplateDecl):
            template_shapes[decl.name] = tuple(
                const(e, f"TEMPLATE {decl.name}", decl.loc) for e in decl.shape
            )
        elif isinstance(decl, ast.ArrayDecl):
            if decl.name in array_decls or decl.name in scalars:
                raise SemanticError(
                    f"duplicate declaration of {decl.name!r}", location=decl.loc
                )
            array_decls[decl.name] = decl
        elif isinstance(decl, ast.ScalarDecl):
            if decl.name in array_decls or decl.name in scalars:
                raise SemanticError(
                    f"duplicate declaration of {decl.name!r}", location=decl.loc
                )
            scalars[decl.name] = decl
        elif isinstance(decl, ast.DistributeDecl):
            if decl.target in distributes:
                raise SemanticError(
                    f"duplicate DISTRIBUTE for {decl.target!r}", location=decl.loc
                )
            distributes[decl.target] = decl
        elif isinstance(decl, ast.AlignDecl):
            if decl.array in aligns:
                raise SemanticError(
                    f"duplicate ALIGN for {decl.array!r}", location=decl.loc
                )
            aligns[decl.array] = decl

    if not grids:
        # A sequential program: synthesize the 1-processor grid so layouts
        # are always well-formed.
        grids["_serial"] = ProcessorGrid("_serial", (1,))
    default_grid = next(iter(grids.values()))

    def build_dims(
        shape: tuple[int, ...], dist: ast.DistributeDecl
    ) -> tuple[DimMapping, ...]:
        if len(dist.formats) != len(shape):
            raise SemanticError(
                f"DISTRIBUTE {dist.target!r}: {len(dist.formats)} formats for "
                f"rank-{len(shape)} object",
                location=dist.loc,
            )
        grid = grids.get(dist.onto)
        if grid is None:
            raise SemanticError(
                f"DISTRIBUTE {dist.target!r} ONTO undeclared grid {dist.onto!r}",
                location=dist.loc,
            )
        dims: list[DimMapping] = []
        axis = 0
        for fmt, extent in zip(dist.formats, shape):
            if fmt == "*":
                dims.append(DimMapping(DistFormat.COLLAPSED, extent))
            else:
                if axis >= len(grid.shape):
                    raise SemanticError(
                        f"DISTRIBUTE {dist.target!r}: more distributed dims than "
                        f"grid {grid.name!r} has axes",
                        location=dist.loc,
                    )
                dims.append(DimMapping(DistFormat(fmt), extent, grid_axis=axis))
                axis += 1
        if axis != len(grid.shape):
            raise SemanticError(
                f"DISTRIBUTE {dist.target!r}: {axis} distributed dims do not fill "
                f"grid {grid.name!r} of rank {len(grid.shape)}",
                location=dist.loc,
            )
        return tuple(dims)

    # Resolve template layouts first (they are align targets).
    template_layouts: dict[str, Layout] = {}
    for name, shape in template_shapes.items():
        if name in distributes:
            dist = distributes[name]
            template_layouts[name] = Layout(
                name, grids[dist.onto], build_dims(shape, dist)
            )
        else:
            template_layouts[name] = replicated_layout(name, shape, default_grid)

    layouts: dict[str, Layout] = {}
    for name, decl in array_decls.items():
        shape = tuple(const(e, f"array {name}", decl.loc) for e in decl.dims)
        if name in distributes and name in aligns:
            raise SemanticError(
                f"array {name!r} has both DISTRIBUTE and ALIGN",
                location=decl.loc,
            )
        if name in distributes:
            dist = distributes[name]
            dims = build_dims(shape, dist)  # validates the grid name too
            layouts[name] = Layout(name, grids[dist.onto], dims, decl.elem_bytes)
        elif name in aligns:
            align = aligns[name]
            target = align.target
            target_layout = template_layouts.get(target) or layouts.get(target)
            if target_layout is None:
                raise SemanticError(
                    f"ALIGN {name!r} WITH {target!r}: unknown template/array "
                    f"(templates and align targets must be declared first)",
                    location=align.loc,
                )
            if target_layout.shape != shape:
                raise SemanticError(
                    f"ALIGN {name!r} WITH {target!r}: shape {shape} does not "
                    f"match target shape {target_layout.shape}",
                    location=align.loc,
                )
            layouts[name] = Layout(name, target_layout.grid, target_layout.dims,
                                   decl.elem_bytes)
        else:
            layouts[name] = replicated_layout(name, shape, default_grid,
                                              decl.elem_bytes)

    for target, dist in distributes.items():
        if target not in template_shapes and target not in array_decls:
            raise SemanticError(
                f"DISTRIBUTE names undeclared object {target!r}",
                location=dist.loc,
            )
    for array, align in aligns.items():
        if array not in array_decls:
            raise SemanticError(
                f"ALIGN names undeclared array {array!r}", location=align.loc
            )

    info = ProgramInfo(
        program=program,
        params=params,
        grids=grids,
        layouts=layouts,
        scalars=scalars,
        array_decls=array_decls,
        default_grid=default_grid,
    )
    _check_body(program, info)
    return info


def _check_body(program: ast.Program, info: ProgramInfo) -> None:
    """Validate every statement: names declared, ranks consistent, loop
    variables scoped."""

    def check_expr(
        expr: ast.Expr,
        loop_vars: frozenset[str],
        where: str,
        loc: SourceLocation | None,
    ) -> None:
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.VarRef):
                name = node.name
                known = (
                    name in info.scalars
                    or name in info.params
                    or name in loop_vars
                )
                if not known:
                    if name in info.layouts:
                        raise SemanticError(
                            f"{where}: array {name!r} used without subscripts",
                            location=loc,
                        )
                    raise SemanticError(
                        f"{where}: undeclared variable {name!r}", location=loc
                    )
            elif isinstance(node, ast.ArrayRef):
                if node.name not in info.layouts:
                    raise SemanticError(
                        f"{where}: undeclared array (or unknown function) "
                        f"{node.name!r}",
                        location=loc,
                    )
                rank = info.layout(node.name).rank
                if len(node.subscripts) != rank:
                    raise SemanticError(
                        f"{where}: {node.name!r} has rank {rank}, "
                        f"subscripted with {len(node.subscripts)} subscripts",
                        location=loc,
                    )

    def check_replicated_control(
        expr: ast.Expr, where: str, what: str, loc: SourceLocation | None
    ) -> None:
        """Control expressions are evaluated redundantly on every
        processor, so they must not read distributed data."""
        for node in ast.walk_expr(expr):
            if isinstance(node, ast.ArrayRef) and info.is_distributed(node.name):
                raise SemanticError(
                    f"{where}: {what} reads distributed array {node.name!r}; "
                    f"copy the value into a replicated scalar first",
                    location=loc,
                )

    # (statement, loop variables in scope), in program order: an explicit
    # stack, since a nested function that calls itself is a reference
    # cycle holding this frame's ``info``.
    work: list[tuple[ast.Stmt, frozenset[str]]] = [
        (stmt, frozenset()) for stmt in reversed(program.body)
    ]
    while work:
        stmt, loop_vars = work.pop()
        where = f"statement {stmt.sid} ({stmt.loc})"
        loc = stmt.loc
        if isinstance(stmt, ast.Assign):
            if isinstance(stmt.lhs, ast.VarRef):
                if stmt.lhs.name not in info.scalars:
                    raise SemanticError(
                        f"{where}: assignment to undeclared scalar "
                        f"{stmt.lhs.name!r}",
                        location=loc,
                    )
            else:
                check_expr(stmt.lhs, loop_vars, where, loc)
            check_expr(stmt.rhs, loop_vars, where, loc)
        elif isinstance(stmt, ast.Do):
            if stmt.var in info.scalars or stmt.var in info.params:
                raise SemanticError(
                    f"{where}: loop variable {stmt.var!r} shadows a "
                    f"declaration",
                    location=loc,
                )
            for bound in (stmt.lo, stmt.hi, stmt.step):
                check_expr(bound, loop_vars, where, loc)
                check_replicated_control(bound, where, "loop bound", loc)
            inner = loop_vars | {stmt.var}
            work += [(s, inner) for s in reversed(stmt.body)]
        elif isinstance(stmt, ast.If):
            check_expr(stmt.cond, loop_vars, where, loc)
            check_replicated_control(stmt.cond, where, "branch condition", loc)
            work += [
                (s, loop_vars)
                for s in reversed(stmt.then_body + stmt.else_body)
            ]
