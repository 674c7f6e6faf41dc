"""Source emission for the one compiled part of a nest kernel.

Executing a planned nest means walking its RHS expression tree,
deriving per-rank iteration boxes and numpy index tuples, and counting
remote reads with RSD arithmetic.  All of that is geometry — constant
for a given (nest, concrete loop geometry) pair — and the runtime keeps
it as data (:mod:`repro.runtime.kernels`): per-rank check and store
rows, offset bounds, the views each reference reads.  What is emitted is
only the RHS, the same on every rank: one function per (nest, geometry)
key computing the fused RHS block from aligned shadow blocks (no AST
walk, no per-reference temporaries), broadcast over the full iteration
box and transposed into LHS store order.  Its size depends on
the RHS, never on the processor grid.

Subscript offsets that vary across firings (an enclosing loop variable
indexing a serial array dimension — gravity's ``g(i, :, :)``) are
runtime arguments (:func:`analyze_kernel_spec`); the blocks of the
references that ride them are sliced per firing and passed in, so one
compiled function serves every iteration.  Offsets along *distributed*
dimensions change rank participation and mark the nest kernel-ineligible
(it runs element-wise, with the reason recorded).
"""

from __future__ import annotations

import builtins
import types
from dataclasses import dataclass, field

from ..errors import SimulationError
from ..frontend import ast_nodes as ast
from ..runtime.plans import ConcreteNest, NestPlan

__all__ = [
    "NestSpec",
    "analyze_kernel_spec",
    "compile_fn",
    "rhs_source",
]


# ---------------------------------------------------------------------------
# Static kernel analysis: which parts of a nest vary across firings
# ---------------------------------------------------------------------------


@dataclass
class NestSpec:
    """Per-sid static kernel analysis, shared by every geometry key.

    ``dyn_args`` holds the distinct affine base forms evaluated per
    firing (deduplicated — ``g(i, ...)`` and ``glast(i, ...)`` share one
    argument); ``dyn_dims`` maps ``(ref kind, ref id)`` of a reference
    with such offsets to its ``((dim, arg), ...)`` pairs.  ``scal_args`` lists the non-nest
    scalar variables the RHS reads, resolved per firing through the
    shadow interpreter's lookup (so mutated scalars stay fresh).
    ``reason`` non-None marks the nest kernel-ineligible.
    """

    plan: NestPlan
    dyn_args: list = field(default_factory=list)  # Affine forms, ordered
    dyn_dims: dict = field(default_factory=dict)  # (kind, rid) -> pairs
    scal_args: list = field(default_factory=list)  # variable names, ordered
    reason: "str | None" = None


def analyze_kernel_spec(plan: NestPlan, info) -> NestSpec:
    """Classify every subscript base and RHS scalar of ``plan`` as baked
    or runtime-supplied; reject nests whose varying offsets move along a
    distributed dimension (rank participation would change per firing).
    """
    spec = NestSpec(plan=plan)
    params = set(info.params)
    arg_index: dict = {}

    def classify(kind: str, rid, refplan) -> "str | None":
        layout = info.layout(refplan.name)
        for d, sp in enumerate(refplan.subs):
            if sp.base.symbols <= params:
                continue  # resolvable at kernel-build time
            if layout.distributed_dims and layout.dims[d].grid_axis is not None:
                return (
                    f"subscript of {refplan.name} varies along a "
                    f"distributed dimension across firings"
                )
            if sp.var is not None and sp.coeff < 0:
                return (
                    f"negative stride with a varying offset on "
                    f"{refplan.name}"
                )
            arg = arg_index.get(sp.base)
            if arg is None:
                arg = arg_index[sp.base] = len(spec.dyn_args)
                spec.dyn_args.append(sp.base)
            pairs = spec.dyn_dims.get((kind, rid), ())
            spec.dyn_dims[kind, rid] = (*pairs, (d, arg))
        return None

    reason = classify("lhs", 0, plan.lhs)
    if reason is None:
        for rid, rp in plan.rhs_refs.items():
            reason = classify("rhs", rid, rp)
            if reason is not None:
                break
    if reason is not None:
        spec.reason = reason
        return spec

    nest_vars = set(plan.vars)
    seen: set[str] = set()
    # Value positions only, preorder: subscript variables are geometry,
    # already classified above, not runtime scalar inputs.
    work: list[ast.Expr] = [plan.assign.rhs]
    while work:
        expr = work.pop()
        if isinstance(expr, ast.VarRef):
            if expr.name not in nest_vars and expr.name not in seen:
                seen.add(expr.name)
                spec.scal_args.append(expr.name)
        elif isinstance(expr, ast.BinOp):
            work += (expr.right, expr.left)
        elif isinstance(expr, ast.UnOp):
            work.append(expr.operand)
        elif isinstance(expr, ast.Intrinsic):
            work += reversed(expr.args)
    return spec


# ---------------------------------------------------------------------------
# The rank-independent function
# ---------------------------------------------------------------------------

_CMP = {"==": "==", "/=": "!=", "<": "<", "<=": "<=", ">": ">", ">=": ">="}
_INTRINSIC_NP = {
    "SQRT": "_np.sqrt",
    "ABS": "_np.abs",
    "EXP": "_np.exp",
    "LOG": "_np.log",
    "MOD": "_np.mod",
    "MIN": "_np.minimum",
    "MAX": "_np.maximum",
}


def rhs_source(spec: NestSpec, conc: ConcreteNest, order) -> str:
    """The source of ``_rhs(_q0, ..., _b{j}, ...)``: the RHS block over
    the full iteration box, transposed into LHS store order.

    ``_q{n}`` are the firing's runtime arguments (offsets, then the RHS
    scalars); ``_b{j}``, in ``order``, the aligned shadow block of RHS
    reference ``j`` (``plan.rhs_refs`` order); ``_ax{axis}`` the loop
    variables' values, globals.  Operator and intrinsic lowering matches
    :meth:`repro.runtime.interp.Interpreter._binop` / ``_intrinsic``
    element by element, so the block is bitwise-identical to the
    element-wise path's values.
    """
    plan = spec.plan
    ref_exprs = {rid: f"_b{j}" for j, rid in enumerate(plan.rhs_refs)}
    var_text = {v: f"_ax{i}" for i, v in enumerate(plan.vars)}
    nargs = len(spec.dyn_args) + len(spec.scal_args)
    for i, name in enumerate(spec.scal_args):
        var_text.setdefault(name, f"_q{len(spec.dyn_args) + i}")
    expr = _emit_rhs(plan.assign.rhs, var_text, ref_exprs)
    perm = tuple(d[1] for d in conc.lhs.dims if d[0] == "a")
    sig = ", ".join(
        [f"_q{i}" for i in range(nargs)] + [f"_b{j}" for j in order]
    )
    return (
        f"def _rhs({sig}):\n"
        f"    return _np.broadcast_to(_np.asarray({expr}, _np.float64), "
        f"{conc.shape!r}).transpose({perm!r})\n"
    )


def _emit_rhs(expr: ast.Expr, var_text: dict, ref_exprs: dict) -> str:
    """Source text for ``expr``: ``var_text`` maps variable names and
    ``ref_exprs`` ``id(ArrayRef)`` to the text standing for them."""
    if isinstance(expr, ast.Num):
        return repr(float(expr.value))
    if isinstance(expr, ast.VarRef):
        return var_text[expr.name]
    if isinstance(expr, ast.ArrayRef):
        return ref_exprs[id(expr)]
    if isinstance(expr, ast.BinOp):
        left = _emit_rhs(expr.left, var_text, ref_exprs)
        right = _emit_rhs(expr.right, var_text, ref_exprs)
        if expr.op in ("+", "-", "*", "/"):
            return f"({left} {expr.op} {right})"
        if expr.op in _CMP:
            return f"_np.where({left} {_CMP[expr.op]} {right}, 1.0, 0.0)"
        if expr.op == "AND":
            return f"_np.where(({left} != 0) & ({right} != 0), 1.0, 0.0)"
        if expr.op == "OR":
            return f"_np.where(({left} != 0) | ({right} != 0), 1.0, 0.0)"
        raise SimulationError(f"unknown operator {expr.op!r}")
    if isinstance(expr, ast.UnOp):
        value = _emit_rhs(expr.operand, var_text, ref_exprs)
        if expr.op == "-":
            return f"(-{value})"
        return f"_np.where({value} != 0, 0.0, 1.0)"
    if isinstance(expr, ast.Intrinsic):
        fn = _INTRINSIC_NP.get(expr.name)
        if fn is None:
            raise SimulationError(f"unknown intrinsic {expr.name!r}")
        args = ", ".join(
            _emit_rhs(a, var_text, ref_exprs) for a in expr.args
        )
        return f"{fn}({args})"
    raise SimulationError(f"cannot emit kernel source for {expr!r}")


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


def compile_fn(source: str, tag: str, ns: dict):
    """``compile()`` one emitted function and return it, with ``ns`` as
    its globals (every free name of the body resolves there).

    ``tag`` labels the pseudo-filename (tracebacks through generated
    kernels stay attributable); the entry point is read off the ``def``
    line.  The code object is taken from the module's constants rather
    than by executing the ``def``: a function made in a scratch
    namespace is a reference cycle (it is in its own globals).
    """
    entry = source.split("(", 1)[0].split()[-1]
    module = compile(source, f"<repro-kernel:{tag}>", "exec")
    code = next(
        code for code in module.co_consts
        if isinstance(code, types.CodeType) and code.co_name == entry
    )
    # exec() would add this itself; numpy looks it up in frame globals.
    ns.setdefault("__builtins__", builtins.__dict__)
    return types.FunctionType(code, ns)
