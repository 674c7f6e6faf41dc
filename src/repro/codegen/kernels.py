"""Source emission for fused per-rank runtime kernels.

Executing a planned nest means walking its RHS expression tree,
deriving per-rank iteration boxes and numpy index tuples, and counting
remote reads with RSD arithmetic.  All of that is geometry — constant
for a given (nest, concrete per-rank layout) pair.  This module lowers
that geometry into *source text*: a specialized Python function per
(nest, geometry) key whose body is

* one fused statement computing the shadow block over prebound aligned
  views (no AST walk, no per-reference temporaries),
* straight-line per-rank validity/staleness checks against prebound
  storage and shadow views (the oracle survives compilation),
* straight-line per-rank stores with the iteration-box slices and
  store-order transposes baked in as literals.

Subscript offsets that vary across firings (an enclosing loop variable
indexing a serial array dimension — gravity's ``g(i, :, :)``) become
runtime arguments: the emitted index expressions reference ``_q{n}``
instead of a literal, so one compiled kernel serves every iteration.
Offsets along *distributed* dimensions change rank participation and
mark the nest kernel-ineligible (it runs element-wise, with the reason
recorded).
"""

from __future__ import annotations

import builtins
import types
from dataclasses import dataclass, field

from ..errors import SimulationError
from ..frontend import ast_nodes as ast
from ..runtime.plans import ConcreteNest, NestPlan

__all__ = [
    "DynDim",
    "NestSpec",
    "analyze_kernel_spec",
    "bind_fn",
    "compile_fn",
    "emit_index",
    "fused_rhs_source",
    "slice_literal",
]


# ---------------------------------------------------------------------------
# Static kernel analysis: which parts of a nest vary across firings
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DynDim:
    """One subscript dimension whose base offset is a runtime argument:
    argument ``arg`` plus the plan-time affine rest of the subscript."""

    arg: int  # index into the kernel's dynamic-offset argument list


@dataclass
class NestSpec:
    """Per-sid static kernel analysis, shared by every geometry key.

    ``dyn_args`` holds the distinct affine base forms evaluated per
    firing (deduplicated — ``g(i, ...)`` and ``glast(i, ...)`` share one
    argument); ``dyn_dims`` maps ``(ref kind, ref id, dim)`` to the
    argument feeding that dimension.  ``scal_args`` lists the non-nest
    scalar variables the RHS reads, resolved per firing through the
    shadow interpreter's lookup (so mutated scalars stay fresh).
    ``reason`` non-None marks the nest kernel-ineligible.
    """

    plan: NestPlan
    dyn_args: list = field(default_factory=list)  # Affine forms, ordered
    dyn_dims: dict = field(default_factory=dict)  # (kind, rid, dim) -> DynDim
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
            spec.dyn_dims[(kind, rid, d)] = DynDim(arg)
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
# Index emission
# ---------------------------------------------------------------------------


def slice_literal(first: int, stride: int, count: int) -> str:
    """``first:stop:stride`` source text for a strided run of ``count``
    elements starting at 0-based ``first``."""
    last = first + stride * (count - 1)
    if stride > 0:
        body = f"{first}:{last + 1}"
        return body if stride == 1 else f"{body}:{stride}"
    stop = last - 1
    return f"{first}:{stop if stop >= 0 else ''}:{stride}"


def _dyn_slice(arg: int, off: int, stride: int, count: int) -> str:
    """Slice text whose endpoints ride on runtime argument ``_q{arg}``."""
    lo = f"_q{arg} + {off}" if off else f"_q{arg}"
    hi_off = off + stride * (count - 1) + 1
    hi = f"_q{arg} + {hi_off}" if hi_off else f"_q{arg}"
    body = f"{lo}:{hi}"
    return body if stride == 1 else f"{body}:{stride}"


def emit_index(
    spec: NestSpec, kind: str, rid, refplan, cref, kbox, base_values
) -> str:
    """The bracket-index source for one reference restricted to ``kbox``.

    ``base_values`` maps each dimension to the build-time evaluated base
    (needed to express dynamic offsets relative to the runtime argument).
    Mirrors :func:`repro.runtime.plans.ref_np_index` exactly for static
    dimensions.
    """
    parts: list[str] = []
    for d, dim in enumerate(cref.dims):
        dyn = spec.dyn_dims.get((kind, rid, d))
        if dim[0] == "p":
            if dyn is None:
                parts.append(str(dim[1] - 1))
            else:
                parts.append(f"_q{dyn.arg} - 1")
            continue
        _, axis, start, stride = dim
        k0, kstep, kcount = kbox[axis]
        first = start + stride * k0 - 1
        st = stride * kstep
        if dyn is None:
            parts.append(slice_literal(first, st, kcount))
        else:
            parts.append(
                _dyn_slice(dyn.arg, first - base_values[d], st, kcount)
            )
    return ", ".join(parts)


def box_slice_literal(kbox) -> str:
    """Literal index text selecting ``kbox`` out of a full-box block."""
    return ", ".join(
        slice_literal(k0, kstep, kcount) for k0, kstep, kcount in kbox
    )


# ---------------------------------------------------------------------------
# Fused RHS emission
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


def fused_rhs_source(
    spec: NestSpec, conc: ConcreteNest, ref_exprs: dict
) -> str:
    """One expression computing the nest's RHS block.

    ``ref_exprs`` maps ``id(ArrayRef)`` to the source text standing for
    that reference's aligned block (a prebound view name, or an inline
    aligner call for dynamic references).  Operator and intrinsic
    lowering matches :meth:`repro.runtime.interp.Interpreter._binop` /
    ``_intrinsic`` element by element, so the block is bitwise-identical
    to the element-wise path's values.
    """
    var_text = {v: f"_ax{i}" for i, v in enumerate(spec.plan.vars)}
    for i, name in enumerate(spec.scal_args):
        var_text.setdefault(name, f"_q{len(spec.dyn_args) + i}")
    return _emit_rhs(spec.plan.assign.rhs, var_text, ref_exprs)


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


def compile_fn(source: str, tag: str) -> types.CodeType:
    """``compile()`` one emitted function and return its code object —
    the storage-independent half, built once and kept.

    ``tag`` labels the pseudo-filename (tracebacks through generated
    kernels stay attributable); the entry point is read off the
    ``def`` line.  :func:`bind_fn` makes it callable.  The code object is
    taken from the module's constants rather than by executing the
    ``def``: a function made in a scratch namespace is a reference cycle
    (it is in its own globals).
    """
    entry = source.split("(", 1)[0].split()[-1]
    module = compile(source, f"<repro-kernel:{tag}>", "exec")
    return next(
        code for code in module.co_consts
        if isinstance(code, types.CodeType) and code.co_name == entry
    )


def bind_fn(code: types.CodeType, ns: dict):
    """A function running ``code`` with ``ns`` as its globals: every
    free name of the emitted body (prebound views, constants, helpers)
    resolves there.  Cheap enough to do per run."""
    # exec() would add this itself; numpy looks it up in frame globals.
    ns.setdefault("__builtins__", builtins.__dict__)
    return types.FunctionType(code, ns)
