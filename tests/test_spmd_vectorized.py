"""Vectorized-runtime equivalence suite.

The vectorized SPMD executor (plan-compiled nests + communication plans)
must be an invisible optimization: for every Figure 10 program under
every placement strategy, its final arrays are bitwise-identical to the
element-wise executor's and to the sequential reference interpreter, and
its movement counters (messages, bytes, remote reads, reductions) match
the element-wise path exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import Strategy, compile_program
from repro.errors import SimulationError
from repro.evaluation.programs import BENCHMARKS
from repro.runtime.interp import interpret
from repro.runtime.plans import analyze_nest, plan_nests
from repro.runtime.spmd import SPMDExecutor, execute_spmd

SMALL = {
    "shallow": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
    "gravity": {"n": 8, "pr": 2, "pc": 2},
    "trimesh": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "trimesh_gauss": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "hydflo_flux": {"n": 8, "nsteps": 1, "pr": 2, "pc": 2},
    "hydflo_hydro": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
}


def _compile(program: str, strategy: Strategy):
    return compile_program(
        BENCHMARKS[program], params=SMALL[program], strategy=strategy
    )


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_vectorized_matches_elementwise_and_reference(
        self, program, strategy
    ):
        result = _compile(program, strategy)
        vec_state, vec_stats = execute_spmd(result, vectorize=True)
        elem_state, elem_stats = execute_spmd(result, vectorize=False)
        ref = interpret(result.info)
        assert set(vec_state) == set(elem_state)
        for name in ref:
            np.testing.assert_array_equal(
                vec_state[name], elem_state[name],
                err_msg=f"{program}/{strategy.value}: {name} vec vs elem",
            )
            np.testing.assert_array_equal(
                vec_state[name], ref[name],
                err_msg=f"{program}/{strategy.value}: {name} vec vs reference",
            )

    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_movement_counters_match(self, program, strategy):
        result = _compile(program, strategy)
        _, vec = execute_spmd(result, vectorize=True)
        _, elem = execute_spmd(result, vectorize=False)
        assert vec.messages == elem.messages
        assert vec.bytes_moved == elem.bytes_moved
        assert vec.remote_reads == elem.remote_reads
        assert vec.reductions == elem.reductions


class TestVectorizerCoverage:
    def test_benchmarks_vectorize(self):
        """Every scalarized benchmark has planned nests, and the executor
        actually fires them (as kernels, not just plan existence)."""
        for program in sorted(BENCHMARKS):
            result = _compile(program, Strategy.GLOBAL)
            executor = SPMDExecutor(result, vectorize=True)
            assert executor.nest_plans, f"{program}: nothing vectorized"
            stats = executor.run()
            assert stats.vectorized_firings > 0, program

    def test_comm_plans_are_cached(self):
        """Time-stepped programs re-fire the same operations; the plan
        cache must serve repeat firings."""
        result = _compile("shallow", Strategy.GLOBAL)
        executor = SPMDExecutor(result, vectorize=True)
        stats = executor.run()
        assert stats.plan_cache_hits > 0
        assert stats.plan_compiles > 0

    def test_fallback_reasons_are_recorded(self):
        """gravity's scalarized reductions keep the element-wise path and
        must show up as explained fallbacks, not silent slow paths."""
        result = _compile("gravity", Strategy.GLOBAL)
        executor = SPMDExecutor(result, vectorize=True)
        assert executor.fallback_reasons
        assert all(isinstance(r, str) and r for r in
                   executor.fallback_reasons.values())
        stats = executor.run()
        assert stats.fallback_firings > 0

    def test_non_rectangular_nest_rejected(self):
        """A subscript coupling two loop variables must not vectorize."""
        source = """
PROGRAM tri
PARAM n = 8
PROCESSORS p(2)
REAL a(n, n)
REAL b(n, n)
DISTRIBUTE a(BLOCK, *) ONTO p
DISTRIBUTE b(BLOCK, *) ONTO p
DO i = 1, n
  DO j = 1, n
    a(i, j) = b(j, i) + 1.0
  END DO
END DO
END
"""
        result = compile_program(source)
        info = result.info
        plans, _ = plan_nests(info, info.program.body)
        for plan in plans.values():
            # transposed read is fine (each subscript carries one var);
            # make sure the analysis really ran on the nest
            assert plan.vars
        # now an actually-coupled subscript
        coupled = source.replace("b(j, i)", "b(i, i)")
        result2 = compile_program(coupled)
        info2 = result2.info
        do = next(
            s for s in info2.program.body
            if s.__class__.__name__ == "Do"
        )
        outcome = analyze_nest(info2, do)
        assert isinstance(outcome, str)
        assert "two dimensions" in outcome


class TestFailureDetectionPreserved:
    """The vectorized path must keep the executor's oracle power: a
    miscompiled schedule still raises, never silently diverges."""

    def test_dropped_schedule_detected(self):
        result = _compile("shallow", Strategy.GLOBAL)
        executor = SPMDExecutor(result, vectorize=True)
        executor.schedule.anchors.clear()
        with pytest.raises(SimulationError, match="not present"):
            executor.run()

    def test_partial_drop_detected(self):
        result = _compile("shallow", Strategy.GLOBAL)
        executor = SPMDExecutor(result, vectorize=True)
        anchors = executor.schedule.anchors
        # drop roughly half the anchors
        for anchor in sorted(anchors, key=repr)[::2]:
            del anchors[anchor]
        with pytest.raises(SimulationError):
            executor.run()
