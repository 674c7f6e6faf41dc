"""Property-based frontend tests: randomized F90 programs through the
scalarizer must preserve semantics, and SSA reaching definitions must
match a brute-force execution oracle."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.frontend import ast_nodes as ast
from repro.frontend.analysis import elaborate
from repro.frontend.parser import parse
from repro.frontend.scalarizer import scalarize
from repro.ir.cfg import CFG
from repro.ir.dominators import DominatorInfo
from repro.ir.ssa import SSA, PhiDef, RegularDef
from repro.runtime.interp import interpret

N = 12


@st.composite
def f90_statement(draw):
    """One random F90 array statement over arrays u/v/w of extent N.

    Sections are chosen in-bounds with random strides; the RHS may read
    the target array itself (exercising the overlap-temporary path).
    """
    arrays = ["u", "v", "w"]
    dst = draw(st.sampled_from(arrays))
    step = draw(st.sampled_from([1, 1, 2, 3]))
    lo = draw(st.integers(1, 3))
    count = draw(st.integers(1, (N - 4) // step))
    hi = lo + step * (count - 1)

    terms = []
    for _ in range(draw(st.integers(1, 2))):
        src = draw(st.sampled_from(arrays))
        src_step = draw(st.sampled_from([step, 1]))
        max_lo = N - src_step * (count - 1)
        src_lo = draw(st.integers(1, max(1, max_lo)))
        src_hi = src_lo + src_step * (count - 1)
        factor = draw(st.sampled_from(["", "0.5 * ", "2 * "]))
        terms.append(f"{factor}{src}({src_lo}:{src_hi}:{src_step})")
    rhs = " + ".join(terms)
    if draw(st.booleans()):
        rhs += f" + {draw(st.integers(-3, 3))}"
    return f"{dst}({lo}:{hi}:{step}) = {rhs}"


@st.composite
def f90_program(draw):
    stmts = draw(st.lists(f90_statement(), min_size=1, max_size=6))
    body = "\n".join(stmts)
    if draw(st.booleans()):
        body = f"DO rep = 1, 2\n{body}\nEND DO"
    return (
        f"PROGRAM rand\nPARAM n = {N}\n"
        f"REAL u(n)\nREAL v(n)\nREAL w(n)\n{body}\nEND"
    )


class TestScalarizerEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(source=f90_program())
    def test_scalarized_matches_f90_semantics(self, source):
        program = parse(source)
        info = elaborate(program)
        ref = interpret(info)

        sprog = scalarize(program, info)
        got = interpret(elaborate(sprog))
        for name in ref:
            np.testing.assert_array_equal(got[name], ref[name])


def _execution_oracle_reaching(info, program):
    """Execute the program abstractly, recording for every dynamic use of
    a variable which SSA def *must* reach it: the most recent write (by
    statement instance) of any element, or None if never written."""
    last_writer: dict[str, ast.Assign | None] = {}
    observations: list[tuple[ast.Assign, str, ast.Assign | None]] = []

    def walk(body, env):
        for stmt in body:
            if isinstance(stmt, ast.Do):
                lo = info.affine(stmt.lo).evaluate(env)
                hi = info.affine(stmt.hi).evaluate(env)
                step = info.affine(stmt.step).evaluate(env)
                for value in range(lo, hi + 1, step):
                    walk(stmt.body, {**env, stmt.var: value})
            elif isinstance(stmt, ast.Assign):
                for node in ast.walk_expr(stmt.rhs):
                    if isinstance(node, ast.ArrayRef):
                        observations.append(
                            (stmt, node.name, last_writer.get(node.name))
                        )
                if isinstance(stmt.lhs, ast.ArrayRef):
                    last_writer[stmt.lhs.name] = stmt

    walk(program.body, dict(info.params))
    return observations


class TestSSAReachingOracle:
    """The SSA reaching def for a use must be able to 'see' (through φ
    parameters and preserving links) the statement that actually wrote
    last before each dynamic instance of the use."""

    PROGRAMS = [
        """PROGRAM p1
REAL a(8)
REAL b(8)
a(1) = 0
DO i = 1, 3
b(i) = a(i)
a(i) = b(i)
END DO
b(4) = a(4)
END""",
        """PROGRAM p2
REAL a(8)
REAL s
s = 1
IF s > 0 THEN
a(1) = 1
ELSE
a(2) = 2
END IF
s = a(3)
END""",
        """PROGRAM p3
REAL a(8)
REAL b(8)
DO i = 1, 2
DO j = 1, 2
a(j) = b(j)
END DO
b(1) = a(1)
END DO
END""",
    ]

    @staticmethod
    def _reachable_writers(ssa, start):
        """All regular defs visible from an SSA def through φ params and
        preserving links."""
        seen, out, stack = set(), set(), [start]
        while stack:
            d = stack.pop()
            if d.id in seen:
                continue
            seen.add(d.id)
            if isinstance(d, PhiDef):
                stack.extend(ssa.defs[p] for p in d.params)
            elif isinstance(d, RegularDef):
                out.add(d.stmt.sid)
                if d.preserving and d.prev is not None:
                    stack.append(ssa.defs[d.prev])
            else:
                out.add(0)  # ENTRY
        return out

    def test_oracle(self):
        for source in self.PROGRAMS:
            program = parse(source)
            info = elaborate(program)
            cfg = CFG(program)
            dom = DominatorInfo(cfg)
            tracked = set(info.layouts) | set(info.scalars)
            ssa = SSA(cfg, dom, tracked)

            observations = _execution_oracle_reaching(info, program)
            by_use = {}
            for use in ssa.uses:
                by_use.setdefault((use.stmt.sid, use.var), use)
            for stmt, var, writer in observations:
                use = by_use.get((stmt.sid, var))
                if use is None:
                    continue
                visible = self._reachable_writers(ssa, use.reaching)
                expected = writer.sid if writer is not None else 0
                assert expected in visible, (
                    f"{source.splitlines()[0]}: use of {var} at s{stmt.sid} "
                    f"cannot see its actual writer s{expected}"
                )
