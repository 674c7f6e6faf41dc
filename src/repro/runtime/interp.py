"""Reference interpreter for mini-HPF programs (numpy-backed).

Executes a program with F90 section semantics: section assignments become
numpy slice operations, reductions become ``np.sum``/``min``/``max``, DO
loops iterate scalar indices.  This is the *semantic ground truth* used by
the test suite to validate the scalarizer (scalarized programs must
compute exactly the same values) and by the schedule checker to validate
communication placement.

Arrays are initialized from a name-seeded RNG so any two interpreters
over the same program start from identical state.
"""

from __future__ import annotations

import numpy as np

from ..errors import SimulationError
from ..frontend import ast_nodes as ast
from ..frontend.analysis import ProgramInfo


def initial_arrays(info: ProgramInfo, seed: int = 12345) -> dict[str, np.ndarray]:
    """Deterministic initial state: every array filled from an RNG seeded
    by (seed, name); scalars start at small nonzero values."""
    state: dict[str, np.ndarray] = {}
    for name in sorted(info.layouts):
        shape = info.shape(name)
        rng = np.random.default_rng(abs(hash((seed, name))) % (2**32))
        state[name] = rng.uniform(0.5, 1.5, size=shape)
    return state


def initial_scalars(info: ProgramInfo, seed: int = 12345) -> dict[str, float]:
    scalars: dict[str, float] = {}
    for name in sorted(info.scalars):
        rng = np.random.default_rng(abs(hash((seed, name, "s"))) % (2**32))
        scalars[name] = float(rng.uniform(0.5, 1.5))
    return scalars


class Interpreter:
    """Evaluates a (possibly unscalarized) program over numpy arrays."""

    def __init__(self, info: ProgramInfo, seed: int = 12345) -> None:
        self.info = info
        self.arrays = initial_arrays(info, seed)
        self.scalars = initial_scalars(info, seed)
        self.env: dict[str, float] = {}

    # -- expression evaluation -----------------------------------------------

    def _lookup(self, name: str) -> float:
        if name in self.env:
            return self.env[name]
        if name in self.scalars:
            return self.scalars[name]
        if name in self.info.params:
            return float(self.info.params[name])
        raise SimulationError(f"unbound variable {name!r}")

    def eval_index(self, expr: ast.Expr) -> int:
        value = self.eval_expr(expr)
        if isinstance(value, np.ndarray):
            raise SimulationError(f"array value used as index: {expr}")
        rounded = int(round(float(value)))
        return rounded

    def _slice_of(self, array: str, dim: int, sub: ast.Subscript):
        """numpy index object (0-based) for one subscript."""
        if isinstance(sub, ast.Index):
            return self.eval_index(sub.expr) - 1
        extent = self.info.shape(array)[dim]
        lo = 1 if sub.lo is None else self.eval_index(sub.lo)
        hi = extent if sub.hi is None else self.eval_index(sub.hi)
        step = 1 if sub.step is None else self.eval_index(sub.step)
        return slice(lo - 1, hi, step)

    def _index_tuple(self, ref: ast.ArrayRef):
        return tuple(
            self._slice_of(ref.name, dim, sub)
            for dim, sub in enumerate(ref.subscripts)
        )

    def read_ref(self, ref: ast.ArrayRef):
        return self.arrays[ref.name][self._index_tuple(ref)]

    def eval_expr(self, expr: ast.Expr):
        if isinstance(expr, ast.Num):
            return expr.value
        if isinstance(expr, ast.VarRef):
            return self._lookup(expr.name)
        if isinstance(expr, ast.ArrayRef):
            return self.read_ref(expr)
        if isinstance(expr, ast.BinOp):
            left = self.eval_expr(expr.left)
            right = self.eval_expr(expr.right)
            return self._binop(expr.op, left, right)
        if isinstance(expr, ast.UnOp):
            value = self.eval_expr(expr.operand)
            if expr.op == "-":
                return -value
            if expr.op == "NOT":
                return 0.0 if value else 1.0
            raise SimulationError(f"unknown unary op {expr.op!r}")
        if isinstance(expr, ast.Reduction):
            data = self.read_ref(expr.arg)
            if expr.op == "SUM":
                return float(np.sum(data))
            if expr.op == "MAX":
                return float(np.max(data))
            if expr.op == "MIN":
                return float(np.min(data))
            raise SimulationError(f"unknown reduction {expr.op!r}")
        if isinstance(expr, ast.Intrinsic):
            args = [self.eval_expr(a) for a in expr.args]
            return self._intrinsic(expr.name, args)
        raise SimulationError(f"cannot evaluate {expr!r}")

    @staticmethod
    def _binop(op: str, left, right):
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            return left / right
        if op == "==":
            return np.where(left == right, 1.0, 0.0) if isinstance(left, np.ndarray) else float(left == right)
        if op == "/=":
            return float(left != right)
        if op == "<":
            return float(left < right)
        if op == "<=":
            return float(left <= right)
        if op == ">":
            return float(left > right)
        if op == ">=":
            return float(left >= right)
        if op == "AND":
            return float(bool(left) and bool(right))
        if op == "OR":
            return float(bool(left) or bool(right))
        raise SimulationError(f"unknown operator {op!r}")

    @staticmethod
    def _intrinsic(name: str, args):
        if name == "SQRT":
            return np.sqrt(args[0])
        if name == "ABS":
            return np.abs(args[0])
        if name == "EXP":
            return np.exp(args[0])
        if name == "LOG":
            return np.log(args[0])
        if name == "MOD":
            return np.mod(args[0], args[1])
        if name == "MIN":
            return np.minimum(args[0], args[1])
        if name == "MAX":
            return np.maximum(args[0], args[1])
        raise SimulationError(f"unknown intrinsic {name!r}")

    # -- statement execution -------------------------------------------------

    def run(self) -> None:
        self.exec_body(self.info.program.body)

    def exec_body(self, body: list[ast.Stmt]) -> None:
        for stmt in body:
            self.exec_stmt(stmt)

    def exec_stmt(self, stmt: ast.Stmt) -> None:
        if isinstance(stmt, ast.Assign):
            self.exec_assign(stmt)
        elif isinstance(stmt, ast.Do):
            lo = self.eval_index(stmt.lo)
            hi = self.eval_index(stmt.hi)
            step = self.eval_index(stmt.step)
            for value in range(lo, hi + 1, step):
                self.env[stmt.var] = float(value)
                self.exec_body(stmt.body)
            self.env.pop(stmt.var, None)
        elif isinstance(stmt, ast.If):
            if bool(self.eval_expr(stmt.cond)):
                self.exec_body(stmt.then_body)
            else:
                self.exec_body(stmt.else_body)

    def exec_assign(self, stmt: ast.Assign) -> None:
        value = self.eval_expr(stmt.rhs)
        if isinstance(stmt.lhs, ast.VarRef):
            self.scalars[stmt.lhs.name] = float(value)
            return
        idx = self._index_tuple(stmt.lhs)
        if isinstance(value, np.ndarray):
            # A bare section RHS is a *view* of the target's buffer; an
            # overlapping store would clobber elements it still has to
            # read.  Snapshot first (F90 fetch-before-store semantics).
            value = value.copy()
        self.arrays[stmt.lhs.name][idx] = value

    # -- results ------------------------------------------------------------

    def state(self) -> dict[str, np.ndarray]:
        out = dict(self.arrays)
        out.update({name: np.float64(v) for name, v in self.scalars.items()})
        return out


def interpret(info: ProgramInfo, seed: int = 12345) -> dict[str, np.ndarray]:
    """Run a program to completion and return its final state."""
    interp = Interpreter(info, seed)
    interp.run()
    return interp.state()
