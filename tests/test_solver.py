"""The exact anytime placement solver (repro.solver).

Three layers: the pseudo-boolean kernel (model normalization, DFS with
propagation, deadline/node budgets), the whole-pipeline encoding
(encode → solve → decode round-trips that the model itself certifies),
and the pass/pipeline integration (anytime contract, W0604 degradation
ladder, never-worse-than-greedy guarantee on random programs).
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.context import CompilerOptions
from repro.core.pipeline import Strategy, compile_program
from repro.errors import SOLVER_FALLBACK_CODE
from repro.evaluation.programs import BENCHMARKS, QUICK_PARAMS
from repro.runtime.checker import check_schedule
from repro.solver import (
    SAT,
    UNKNOWN,
    UNSAT,
    PBModel,
    PBSolver,
    build_model,
    decode_assignment,
    solve_schedule,
)
from repro.solver.bnb import neg, pos


# ---------------------------------------------------------------------------
# PB kernel
# ---------------------------------------------------------------------------


class TestPBModel:
    def test_exactly_one_sat(self):
        m = PBModel()
        a, b, c = m.new_var(), m.new_var(), m.new_var()
        m.add_exactly_one([pos(a), pos(b), pos(c)])
        status, assignment, _ = PBSolver(m).solve()
        assert status == SAT
        assert sum(assignment[v] for v in (a, b, c)) == 1
        assert m.satisfied(assignment)

    def test_contradiction_unsat(self):
        m = PBModel()
        a = m.new_var()
        m.add_clause([pos(a)])
        m.add_clause([neg(a)])
        status, assignment, _ = PBSolver(m).solve()
        assert status == UNSAT and assignment is None

    def test_at_most_k(self):
        m = PBModel()
        xs = [m.new_var() for _ in range(5)]
        m.add_at_most_k([pos(x) for x in xs], 2)
        # Force three on: over the cap.
        for x in xs[:3]:
            m.add_clause([pos(x)])
        status, _, _ = PBSolver(m).solve()
        assert status == UNSAT

    def test_weighted_le_respected(self):
        m = PBModel()
        xs = [m.new_var() for _ in range(3)]
        m.add_weighted_le([(10, pos(x)) for x in xs], 15)
        m.add_clause([pos(xs[0])])
        m.add_clause([pos(xs[1])])
        status, _, _ = PBSolver(m).solve()
        assert status == UNSAT
        m2 = PBModel()
        ys = [m2.new_var() for _ in range(3)]
        m2.add_weighted_le([(10, pos(y)) for y in ys], 15)
        m2.add_clause([pos(ys[0])])
        status, assignment, _ = PBSolver(m2).solve()
        assert status == SAT
        assert assignment[ys[1]] == 0 and assignment[ys[2]] == 0

    def test_negative_coefficient_normalization(self):
        # 3a - 2b >= 1  ==  3a + 2(!b) >= 3: a must hold, b free only
        # when a is true.
        m = PBModel()
        a, b = m.new_var(), m.new_var()
        m.add_ge([(3, pos(a)), (-2, pos(b))], 1)
        status, assignment, _ = PBSolver(m).solve()
        assert status == SAT and m.satisfied(assignment)
        m.add_clause([neg(a)])
        status, _, _ = PBSolver(m).solve()
        assert status == UNSAT

    def test_complementary_pair_cancellation(self):
        # 2a + 2(!a) >= 2 is a tautology: cancelled away entirely.
        m = PBModel()
        a = m.new_var()
        m.add_ge([(2, pos(a)), (2, neg(a))], 2)
        assert not m.constraints and not m.infeasible

    def test_trivially_infeasible(self):
        m = PBModel()
        a = m.new_var()
        m.add_ge([(1, pos(a))], 5)
        assert m.infeasible
        assert PBSolver(m).solve()[0] == UNSAT

    def test_node_limit_unknown(self):
        # Pigeonhole 5 into 4: UNSAT, but a 1-node budget can't prove it.
        m = PBModel()
        holes = [[m.new_var() for _ in range(4)] for _ in range(5)]
        for row in holes:
            m.add_exactly_one([pos(v) for v in row])
        for h in range(4):
            m.add_at_most_one([pos(holes[p][h]) for p in range(5)])
        status, _, nodes = PBSolver(m).solve(node_limit=1)
        assert status == UNKNOWN
        status, _, _ = PBSolver(m).solve()
        assert status == UNSAT

    def test_expired_deadline_unknown(self):
        import time

        m = PBModel()
        xs = [m.new_var() for _ in range(200)]
        for x in xs:
            m.add_clause([pos(x), neg(x)])
        status, _, _ = PBSolver(m).solve(deadline=time.monotonic() - 1.0)
        assert status == UNKNOWN

    def test_copy_isolates_added_constraints(self):
        m = PBModel()
        a = m.new_var()
        q = m.copy()
        q.add_clause([neg(a)])
        m.add_clause([pos(a)])
        assert PBSolver(m).solve()[0] == SAT
        assert PBSolver(q).solve()[0] == SAT


# ---------------------------------------------------------------------------
# Encode / decode round-trip
# ---------------------------------------------------------------------------


def _analyzed_entries(name: str):
    from repro.core import pipeline as pl

    result = compile_program(BENCHMARKS[name], strategy=Strategy.GLOBAL)
    pl._reset_eliminations(result.entries)
    return result.ctx, result.entries, result.call_sites()


@pytest.mark.parametrize("name", ["trimesh", "hydflo_hydro"])
class TestRoundTrip:
    def test_encode_solve_decode(self, name):
        ctx, entries, seed = _analyzed_entries(name)
        em = build_model(ctx, entries)
        model = em.model.copy()
        model.add_at_most_k(
            [lv << 1 for lv in em.leader_index.values()], seed
        )
        status, assignment, _ = PBSolver(model).solve(
            decide_order=em.decide_order(), prefer=em.prefer()
        )
        assert status == SAT
        assert model.satisfied(assignment)
        decoded = decode_assignment(em, assignment)
        assert decoded.messages <= seed
        live = {e.id: e for e in entries if e.alive and e.candidates}
        placed = set(decoded.placements)
        eliminated = set(decoded.eliminations)
        # Every live entry has exactly one fate.
        assert placed | eliminated == set(live)
        assert not placed & eliminated
        for eid, position in decoded.placements.items():
            assert position in live[eid].candidate_set()
        for loser, winner in decoded.eliminations.items():
            assert winner in placed
        grouped = [eid for _, members in decoded.groups for eid in members]
        assert sorted(grouped) == sorted(placed)

    def test_lower_bound_bracket(self, name):
        ctx, entries, seed = _analyzed_entries(name)
        em = build_model(ctx, entries)
        lb = em.lower_bound()
        assert 1 <= lb <= seed


# ---------------------------------------------------------------------------
# Anytime driver + pass integration
# ---------------------------------------------------------------------------


class TestAnytime:
    def test_zero_budget_returns_seed(self):
        ctx, entries, seed = _analyzed_entries("trimesh")
        decoded, report = solve_schedule(ctx, entries, seed, budget_ms=0)
        assert decoded is None
        assert report.deadline_hit
        assert report.best_messages == seed and not report.improved

    def test_zero_budget_pipeline_equals_comb(self):
        comb = compile_program(BENCHMARKS["trimesh"], strategy="comb")
        exact = compile_program(BENCHMARKS["trimesh"], options=CompilerOptions(
            pass_pipeline=("exact",), solver_budget_ms=0,
        ))
        assert not exact.degradations
        assert exact.stats["solver_improved"] == 0
        assert exact.call_sites() == comb.call_sites()
        assert (
            [(str(pc.position), sorted(e.label for e in pc.entries))
             for pc in exact.placed]
            == [(str(pc.position), sorted(e.label for e in pc.entries))
                for pc in comb.placed]
        )
        check_schedule(exact)

    def test_tiny_budget_never_errors(self):
        # 1 ms cannot even finish encoding: the anytime contract still
        # returns the greedy seed, cleanly and undegraded.
        exact = compile_program(BENCHMARKS["gravity"], options=CompilerOptions(
            pass_pipeline=("exact",), solver_budget_ms=1,
        ))
        comb = compile_program(BENCHMARKS["gravity"], strategy="comb")
        assert not exact.degradations
        assert exact.call_sites() == comb.call_sites()
        check_schedule(exact)

    def test_proves_optimality_within_budget(self):
        exact = compile_program(BENCHMARKS["trimesh"], options=CompilerOptions(
            pass_pipeline=("exact",), solver_budget_ms=8000,
        ))
        assert exact.stats["solver_proved"] == 1
        assert exact.call_sites() <= compile_program(
            BENCHMARKS["trimesh"], strategy="comb"
        ).call_sites()
        check_schedule(exact)


with open(os.path.join(
    os.path.dirname(__file__), "golden", "schedules.json"
)) as fh:
    GOLDEN_RECORDS = json.load(fh)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_exact_meets_golden_optimum(name):
    """The greedy-vs-optimal gap, checked: on every golden record the
    solver proved optimal, the ``exact`` pipeline reaches exactly
    ``optimal_messages`` — more is a solver regression, fewer beats a
    proved optimum — and it is never worse than greedy ``comb``.  The
    oracle runs at QUICK_PARAMS (the default sizes take minutes)."""
    exact_options = CompilerOptions(pass_pipeline=("exact",))
    exact = compile_program(BENCHMARKS[name], options=exact_options)
    comb = compile_program(BENCHMARKS[name], strategy="comb")
    assert not exact.degradations
    assert exact.call_sites() <= comb.call_sites()
    for strategy, record in GOLDEN_RECORDS[name].items():
        if record["proved_optimal"]:
            assert exact.call_sites() == record["optimal_messages"], strategy
    check_schedule(compile_program(
        BENCHMARKS[name], params=QUICK_PARAMS[name], options=exact_options,
    ))


class TestDegradation:
    def test_solver_crash_degrades_to_comb_with_w0604(self, monkeypatch):
        from repro.solver import search

        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(search, "solve_schedule", boom)
        comb = compile_program(BENCHMARKS["trimesh"], strategy="comb")
        exact = compile_program(BENCHMARKS["trimesh"], options=CompilerOptions(
            pass_pipeline=("exact",),
        ))
        (event,) = exact.degradations
        assert event.code == SOLVER_FALLBACK_CODE
        assert event.pass_name == "exact"
        assert event.diagnostic().code == "W0604"
        assert exact.call_sites() == comb.call_sites()
        check_schedule(exact)

    def test_solver_crash_strict_reraises(self, monkeypatch):
        from repro.errors import ReproError
        from repro.solver import search

        def boom(*args, **kwargs):
            raise RuntimeError("solver exploded")

        monkeypatch.setattr(search, "solve_schedule", boom)
        with pytest.raises((RuntimeError, ReproError)):
            compile_program(BENCHMARKS["trimesh"], options=CompilerOptions(
                pass_pipeline=("exact",), strict=True,
            ))

    def test_ilp_fallback_reports_w0604(self, monkeypatch):
        from repro.core import pipeline as pl

        def boom(*args, **kwargs):
            raise RuntimeError("milp exploded")

        monkeypatch.setattr(pl, "ilp_choose", boom)
        comb = compile_program(BENCHMARKS["trimesh"], strategy="comb")
        result = compile_program(BENCHMARKS["trimesh"], options=CompilerOptions(
            placement_search="ilp",
        ))
        (event,) = result.degradations
        assert event.code == SOLVER_FALLBACK_CODE
        assert event.pass_name == "ilp"
        assert event.to_dict()["code"] == "W0604"
        assert result.call_sites() == comb.call_sites()


# ---------------------------------------------------------------------------
# Property: exact is oracle-accepted and never worse than greedy comb
# ---------------------------------------------------------------------------


N = 12
ARRAYS = ["u", "v", "w"]


@st.composite
def program_source(draw):
    stmts = []
    for _ in range(draw(st.integers(1, 4))):
        dst = draw(st.sampled_from(ARRAYS))
        terms = []
        for _ in range(draw(st.integers(1, 2))):
            src = draw(st.sampled_from(ARRAYS + [dst]))
            shift = draw(st.integers(-2, 2))
            terms.append(f"{src}({3 + shift}:{N - 2 + shift})")
        stmts.append(f"{dst}(3:{N - 2}) = {' + '.join(terms)}")
    body = "\n".join(stmts)
    if draw(st.booleans()):
        body = f"DO tstep = 1, 3\n{body}\nEND DO"
    decls = "\n".join(
        f"REAL {a}({N})\nDISTRIBUTE {a}(BLOCK) ONTO p" for a in ARRAYS
    )
    return (
        f"PROGRAM randsolve\nPARAM n = {N}\nPROCESSORS p(3)\n"
        f"{decls}\n{body}\nEND PROGRAM"
    )


@settings(max_examples=12, deadline=None)
@given(source=program_source())
def test_exact_random_programs_sound_and_never_worse(source):
    comb = compile_program(source, strategy="comb")
    exact = compile_program(source, options=CompilerOptions(
        pass_pipeline=("exact",), solver_budget_ms=1500,
    ))
    assert not exact.degradations
    assert exact.call_sites() <= comb.call_sites()
    # Every placement sits on a legal candidate of its entry.
    for pc in exact.placed:
        for e in pc.entries:
            assert pc.position in e.candidate_set()
    check_schedule(exact)
