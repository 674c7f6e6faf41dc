"""Fused-kernel equivalence suite.

The compiled per-rank kernels (:mod:`repro.runtime.kernels`) must be an
invisible optimization: for every Figure 10 program under every
placement strategy, the default run is bitwise-identical to the
element-wise reference (``vectorize=False``: kernels off, every nest
iterated, every communication through the interpreted copy loop) and to
the sequential interpreter — same final arrays, same movement counters,
same wire traffic on every transport backend — and the staleness oracle
keeps its full detection power.  A nest the kernel engine finds
ineligible runs element-wise inside the default run and must agree just
the same.  Also covered here: the CommPlan canonicalization that the
kernel work rode in on (gravity's shifting all-pairs geometry must now
hit the plan cache) and the transport send-buffer pools.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import Strategy, compile_program
from repro.errors import SimulationError
from repro.evaluation.programs import BENCHMARKS
from repro.runtime.interp import interpret
from repro.runtime.spmd import SPMDExecutor, execute_spmd

SMALL = {
    "shallow": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
    "gravity": {"n": 8, "pr": 2, "pc": 2},
    "trimesh": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "trimesh_gauss": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "hydflo_flux": {"n": 8, "nsteps": 1, "pr": 2, "pc": 2},
    "hydflo_hydro": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
}


def _compile(program: str, strategy: Strategy = Strategy.GLOBAL):
    return compile_program(
        BENCHMARKS[program], params=SMALL[program], strategy=strategy
    )


def _metered_run(result):
    """A default run, plus what its nest kernels alone added to the
    path-level counters (``bcopy_calls``, ``sections_verified``)."""
    executor = SPMDExecutor(result)
    fire = executor.kernels.try_exec_nest
    share = {"bcopy_calls": 0, "sections_verified": 0}

    def metered(plan, env):
        before = {k: getattr(executor.stats, k) for k in share}
        done = fire(plan, env)
        for k in share:
            share[k] += getattr(executor.stats, k) - before[k]
        return done

    executor.kernels.try_exec_nest = metered
    try:
        stats = executor.run()
        return executor.assemble(), stats, share
    finally:
        executor.close()


# ---------------------------------------------------------------------------
# Bitwise equivalence: six programs x three strategies, kernels on/off
# ---------------------------------------------------------------------------


class TestKernelBitwise:
    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_kernels_match_interpreted_and_reference(
        self, program, strategy
    ):
        """The interpreted reference is the element-wise path."""
        result = _compile(program, strategy)
        kern_state, kern_stats = execute_spmd(result)
        off_state, off_stats = execute_spmd(result, vectorize=False)
        ref = interpret(result.info)
        assert set(kern_state) == set(off_state)
        for name in ref:
            np.testing.assert_array_equal(
                kern_state[name], off_state[name],
                err_msg=f"{program}/{strategy.value}: {name} kernels vs off",
            )
            np.testing.assert_array_equal(
                kern_state[name], ref[name],
                err_msg=f"{program}/{strategy.value}: {name} vs reference",
            )
        assert kern_stats.kernel_firings > 0, (
            f"{program}/{strategy.value}: kernel tier never fired"
        )

    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_movement_counters_match(self, program, strategy):
        """Run-level counters are equal; the path-level ones differ by
        exactly the nest kernels' share, since element-wise reads are
        neither block copies nor verified sections."""
        result = _compile(program, strategy)
        _, kern, nests = _metered_run(result)
        _, off = execute_spmd(result, vectorize=False)
        assert kern.messages == off.messages
        assert kern.bytes_moved == off.bytes_moved
        assert kern.remote_reads == off.remote_reads
        assert kern.reductions == off.reductions
        assert nests["bcopy_calls"] > 0
        for counter, share in nests.items():
            assert getattr(kern, counter) - share == getattr(off, counter)

    @pytest.mark.parametrize("program, params", [
        ("shallow", {"n": 32, "nsteps": 2, "pr": 8, "pc": 8}),
        ("trimesh", {"n": 32, "nsweeps": 2, "pr": 8, "pc": 8}),
    ], ids=["shallow", "trimesh"])
    def test_p64_kernels_match_off(self, program, params):
        """At P = 64 the per-rank blocks are 4×4: fixed per-firing
        overhead dominates, the regime the fused kernels exist for.
        Kernels off is ``vectorize=False``."""
        result = compile_program(BENCHMARKS[program], params=params)
        kern_state, kern = execute_spmd(result)
        off_state, off = execute_spmd(result, vectorize=False)
        assert kern.kernel_firings > 0
        assert set(kern_state) == set(off_state)
        for name in kern_state:
            np.testing.assert_array_equal(
                kern_state[name], off_state[name], err_msg=name
            )
        assert (kern.messages, kern.bytes_moved) == (
            off.messages, off.bytes_moved
        )


# ---------------------------------------------------------------------------
# Wire parity: identical transport traffic with kernels on and off
# ---------------------------------------------------------------------------


class TestWireParity:
    @pytest.mark.parametrize("backend", ["inline", "threaded"])
    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    def test_wire_bytes_identical_across_tiers(self, program, backend):
        result = _compile(program, Strategy.GLOBAL)
        wires = {}
        states = {}
        for vectorize in (True, False):
            executor = SPMDExecutor(
                result, transport=backend, vectorize=vectorize
            )
            try:
                executor.run()
                states[vectorize] = executor.assemble()
                wires[vectorize] = executor.wire.as_dict()
            finally:
                executor.close()
        for key in ("messages", "bytes_sent", "pair_msgs", "pair_bytes"):
            assert wires[True][key] == wires[False][key], (
                f"{program}/{backend}: wire {key} differs across tiers"
            )
        for name in states[True]:
            np.testing.assert_array_equal(
                states[True][name], states[False][name],
                err_msg=f"{program}/{backend}: {name}",
            )

    def test_wire_bytes_identical_multiprocess(self):
        result = _compile("shallow", Strategy.GLOBAL)
        wires = {}
        for vectorize in (True, False):
            executor = SPMDExecutor(
                result, transport="multiprocess", vectorize=vectorize,
                watchdog_s=120.0,
            )
            try:
                executor.run()
                wires[vectorize] = executor.wire.as_dict()
            finally:
                executor.close()
        assert wires[True]["bytes_sent"] == wires[False]["bytes_sent"]
        assert wires[True]["messages"] == wires[False]["messages"]


# ---------------------------------------------------------------------------
# Send-buffer pools
# ---------------------------------------------------------------------------


class TestBufferPools:
    @pytest.mark.parametrize("backend", ["inline", "threaded"])
    def test_pools_hit_after_first_round(self, backend):
        result = _compile("shallow", Strategy.GLOBAL)
        executor = SPMDExecutor(result, transport=backend)
        try:
            executor.run()
            wire = executor.wire.as_dict()
        finally:
            executor.close()
        assert wire["pool_hits"] > 0, f"{backend}: pool never reused a buffer"
        # Steady state: reuse must dominate fresh allocation.
        assert wire["pool_hits"] > wire["pool_misses"]

    def test_multiprocess_pools_unused_by_design(self):
        # The mp backend packs straight into the shared-memory arena, so
        # its pool counters stay zero (documented in transport/mp.py).
        result = _compile("shallow", Strategy.GLOBAL)
        executor = SPMDExecutor(
            result, transport="multiprocess", watchdog_s=120.0
        )
        try:
            executor.run()
            wire = executor.wire.as_dict()
        finally:
            executor.close()
        assert wire["pool_hits"] == 0
        assert wire["pool_misses"] == 0


# ---------------------------------------------------------------------------
# Tier selection: the kernels, or the element-wise reference
# ---------------------------------------------------------------------------


class TestTierSelection:
    def test_off_runs_no_kernels(self):
        """``vectorize=False`` turns the kernels off."""
        result = _compile("shallow")
        executor = SPMDExecutor(result, vectorize=False)
        try:
            assert executor.kernels is None and not executor.nest_plans
            stats = executor.run()
        finally:
            executor.close()
        assert stats.kernel_firings == 0
        assert stats.kernel_compiles == 0
        assert stats.vectorized_firings == 0

    def test_python_tier_fires_and_caches(self):
        result = _compile("shallow")
        _, stats = execute_spmd(result)
        assert stats.kernel_firings > 0
        assert stats.kernel_compiles > 0
        assert stats.kernel_cache_hits > 0  # time loop reuses geometries

    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    def test_default_tier_never_takes_the_block_path(self, program):
        """Every planned nest of the Figure 10 programs runs as an
        emitted kernel: none is kernel-ineligible, so no nest firing
        falls back to the element-wise path.  (``fallback_firings``
        still counts the assignments in loops the vectorizer declines.)"""
        result = _compile(program)
        executor = SPMDExecutor(result)
        try:
            fire = executor.kernels.try_exec_nest
            fired = []
            executor.kernels.try_exec_nest = (
                lambda plan, env: fired.append(fire(plan, env)) or fired[-1]
            )
            stats = executor.run()
        finally:
            executor.close()
        assert fired and all(fired)
        assert stats.vectorized_firings == len(fired)
        assert not result.execution_image.kernel_ineligible

    def test_auto_is_the_default(self):
        result = _compile("shallow")
        executor = SPMDExecutor(result)
        try:
            assert executor.kernels is not None
            stats = executor.run()
        finally:
            executor.close()
        assert stats.kernel_firings > 0


# ---------------------------------------------------------------------------
# A kernel-ineligible nest runs element-wise inside the default run
# ---------------------------------------------------------------------------

#: A row sweep: the enclosing ``k`` moves each nest's offset along the
#: distributed dimension, so rank participation changes per firing.
ROW_SWEEP = """PROGRAM sweep
PARAM n = 16
PROCESSORS p(4)
REAL a(n, n)
REAL b(n, n)
DISTRIBUTE a(BLOCK, *) ONTO p
DISTRIBUTE b(BLOCK, *) ONTO p
DO k = 2, n - 1
  b(k, 1:n) = a(k - 1, 1:n) + a(k + 1, 1:n)
  a(k, 1:n) = 0.5 * b(k, 1:n)
END DO
END PROGRAM
"""


class TestKernelIneligibleNest:
    @pytest.fixture(scope="class")
    def sweep(self):
        return compile_program(ROW_SWEEP, strategy=Strategy.GLOBAL)

    def test_both_nests_are_named_with_the_reason(self, sweep):
        execute_spmd(sweep)
        image = sweep.execution_image
        sids = {plan.assign.sid for plan in image.nest_plans.values()}
        assert len(sids) == 2
        assert set(image.kernel_ineligible) == sids
        for reason in image.kernel_ineligible.values():
            assert "varies along a distributed dimension" in reason

    @pytest.mark.parametrize("transport", [None, "inline"])
    def test_bitwise_equal_to_the_interpreter(self, sweep, transport):
        state, stats = execute_spmd(sweep, transport=transport)
        for name, expected in interpret(sweep.info).items():
            np.testing.assert_array_equal(state[name], expected, name)
        # 14 sweep steps, two nests each, none as a kernel
        assert stats.fallback_firings == 28
        assert stats.vectorized_firings == 0

    def test_movement_equals_the_element_wise_reference(self, sweep):
        _, stats = execute_spmd(sweep)
        _, off = execute_spmd(sweep, vectorize=False)
        assert off.fallback_firings == 0
        assert (stats.messages, stats.bytes_moved) == (
            off.messages, off.bytes_moved
        )
        assert (stats.remote_reads, stats.reductions) == (
            off.remote_reads, off.reductions
        )


# ---------------------------------------------------------------------------
# CommPlan canonicalization (gravity's shifting all-pairs geometry)
# ---------------------------------------------------------------------------


class TestPlanCanonicalization:
    def test_gravity_plan_hit_rate_after_warmup(self):
        # Before translation-based canonicalization gravity recompiled a
        # plan for nearly every serial-loop iteration (~32% hit rate).
        # Shifted-origin firings must now be served by translating the
        # canonical plan: >= 90% hits once each geometry is warm.
        result = compile_program(
            BENCHMARKS["gravity"], params={"n": 16, "pr": 2, "pc": 2},
            strategy=Strategy.GLOBAL,
        )
        _, stats = execute_spmd(result)
        assert stats.plan_hit_rate >= 0.90, (
            f"gravity plan hit rate regressed: {stats.plan_hit_rate:.3f}"
        )
        assert stats.plan_translations > 0

    def test_translation_preserves_results_and_wire(self):
        # The translated plans must move exactly the bytes a fresh
        # compile would: compare against a run with the canonical cache
        # disabled by clearing it between firings is impractical, so use
        # the element-wise path (no plans at all) as the oracle.
        result = compile_program(
            BENCHMARKS["gravity"], params={"n": 16, "pr": 2, "pc": 2},
            strategy=Strategy.GLOBAL,
        )
        vec_state, vec_stats = execute_spmd(result)
        elem_state, elem_stats = execute_spmd(result, vectorize=False)
        for name in vec_state:
            np.testing.assert_array_equal(vec_state[name], elem_state[name])
        assert vec_stats.messages == elem_stats.messages
        assert vec_stats.bytes_moved == elem_stats.bytes_moved


# ---------------------------------------------------------------------------
# Oracle power: a miscompiled schedule still raises with kernels on
# ---------------------------------------------------------------------------


class TestOraclePreserved:
    def test_dropped_schedule_detected_by_kernels(self):
        result = _compile("shallow", Strategy.GLOBAL)
        executor = SPMDExecutor(result)
        executor.schedule.anchors.clear()
        with pytest.raises(SimulationError, match="not present"):
            executor.run()

    def test_partial_drop_detected_by_kernels(self):
        result = _compile("shallow", Strategy.GLOBAL)
        executor = SPMDExecutor(result)
        anchors = executor.schedule.anchors
        for anchor in sorted(anchors, key=repr)[::2]:
            del anchors[anchor]
        with pytest.raises(SimulationError):
            executor.run()


# ---------------------------------------------------------------------------
# Property test: random programs, kernel tier vs element-wise executor
# ---------------------------------------------------------------------------

N = 12
ARRAYS = ["u", "v", "w", "x"]


@st.composite
def stencil_statement(draw):
    dst = draw(st.sampled_from(ARRAYS))
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        src = draw(st.sampled_from(ARRAYS + [dst]))
        shift = draw(st.integers(-2, 2))
        terms.append(f"{src}({3 + shift}:{N - 2 + shift})")
    op = draw(st.sampled_from([" + ", " * "]))
    return f"{dst}(3:{N - 2}) = {op.join(terms)}"


@st.composite
def kernel_program(draw):
    stmts = draw(st.lists(stencil_statement(), min_size=1, max_size=4))
    body = "\n".join(stmts)
    if draw(st.booleans()):
        body = f"DO tstep = 1, 3\n{body}\nEND DO"
    decls = "\n".join(
        f"REAL {a}({N})\nDISTRIBUTE {a}(BLOCK) ONTO p" for a in ARRAYS
    )
    return (
        f"PROGRAM kernprog\nPARAM n = {N}\nPROCESSORS p(3)\n"
        f"{decls}\n{body}\nEND PROGRAM"
    )


@settings(max_examples=25, deadline=None)
@given(source=kernel_program())
def test_random_programs_kernels_match_elementwise(source):
    result = compile_program(source, strategy=Strategy.GLOBAL)
    kern_state, kern_stats = execute_spmd(result)
    elem_state, elem_stats = execute_spmd(result, vectorize=False)
    for name in kern_state:
        np.testing.assert_array_equal(
            kern_state[name], elem_state[name], err_msg=name
        )
    assert kern_stats.messages == elem_stats.messages
    assert kern_stats.bytes_moved == elem_stats.bytes_moved
