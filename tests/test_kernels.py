"""Fused-kernel tier equivalence suite.

The compiled per-rank kernels (:mod:`repro.runtime.kernels`) must be an
invisible optimization, exactly like the vectorized runtime they sit
on: for every Figure 10 program under every placement strategy, running
with kernels on is bitwise-identical to kernels off — same final
arrays, same movement counters, same wire traffic on every transport
backend — and the staleness oracle keeps its full detection power.
Also covered here: the CommPlan canonicalization that the kernel work
rode in on (gravity's shifting all-pairs geometry must now hit the plan
cache), the transport send-buffer pools, and the two accepted values of
``kernels`` (the default runs the kernels, ``"off"`` the reference).
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


# ---------------------------------------------------------------------------
# Bitwise equivalence: six programs x three strategies, kernels on/off
# ---------------------------------------------------------------------------


class TestKernelBitwise:
    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_kernels_match_interpreted_and_reference(
        self, program, strategy
    ):
        result = _compile(program, strategy)
        kern_state, kern_stats = execute_spmd(result)
        off_state, off_stats = execute_spmd(result, kernels="off")
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
        result = _compile(program, strategy)
        _, kern = execute_spmd(result)
        _, off = execute_spmd(result, kernels="off")
        assert kern.messages == off.messages
        assert kern.bytes_moved == off.bytes_moved
        assert kern.remote_reads == off.remote_reads
        assert kern.reductions == off.reductions
        assert kern.bcopy_calls == off.bcopy_calls

    @pytest.mark.parametrize("program, params", [
        ("shallow", {"n": 32, "nsteps": 2, "pr": 8, "pc": 8}),
        ("trimesh", {"n": 32, "nsweeps": 2, "pr": 8, "pc": 8}),
    ], ids=["shallow", "trimesh"])
    def test_p64_kernels_match_off(self, program, params):
        """At P = 64 the per-rank blocks are 4×4: fixed per-firing
        overhead dominates, the regime the fused kernels exist for."""
        result = compile_program(BENCHMARKS[program], params=params)
        kern_state, kern = execute_spmd(result)
        off_state, off = execute_spmd(result, kernels="off")
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
        for tier in (None, "off"):
            executor = SPMDExecutor(
                result, transport=backend, kernels=tier
            )
            try:
                executor.run()
                states[tier] = executor.assemble()
                wires[tier] = executor.wire.as_dict()
            finally:
                executor.close()
        for key in ("messages", "bytes_sent", "pair_msgs", "pair_bytes"):
            assert wires[None][key] == wires["off"][key], (
                f"{program}/{backend}: wire {key} differs across tiers"
            )
        for name in states[None]:
            np.testing.assert_array_equal(
                states[None][name], states["off"][name],
                err_msg=f"{program}/{backend}: {name}",
            )

    def test_wire_bytes_identical_multiprocess(self):
        result = _compile("shallow", Strategy.GLOBAL)
        wires = {}
        for tier in (None, "off"):
            executor = SPMDExecutor(
                result, transport="multiprocess", kernels=tier,
                watchdog_s=120.0,
            )
            try:
                executor.run()
                wires[tier] = executor.wire.as_dict()
            finally:
                executor.close()
        assert wires[None]["bytes_sent"] == wires["off"]["bytes_sent"]
        assert wires[None]["messages"] == wires["off"]["messages"]


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
# Tier selection: the kernels or the per-reference reference
# ---------------------------------------------------------------------------


class TestTierSelection:
    def test_off_runs_no_kernels(self):
        result = _compile("shallow")
        _, stats = execute_spmd(result, kernels="off")
        assert stats.kernel_tier == "off"
        assert stats.kernel_firings == 0
        assert stats.kernel_compiles == 0

    def test_python_tier_fires_and_caches(self):
        result = _compile("shallow")
        _, stats = execute_spmd(result)
        assert stats.kernel_tier == "python"
        assert stats.kernel_firings > 0
        assert stats.kernel_compiles > 0
        assert stats.kernel_cache_hits > 0  # time loop reuses geometries

    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    def test_default_tier_never_takes_the_block_path(self, program):
        """``kernel_firings`` counts nest and copy kernels,
        ``vectorized_firings`` nests only, so their difference says
        nothing about nests missing the kernel tier; ``block_firings``
        does, and on the Figure 10 programs it is zero — every planned
        nest runs as an emitted kernel.  Deleting the interpreted block
        path rests on this number."""
        result = _compile(program)
        _, stats = execute_spmd(result)
        assert stats.vectorized_firings > 0
        assert stats.block_firings == 0
        _, off = execute_spmd(result, kernels="off")
        assert off.block_firings == off.vectorized_firings > 0

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
    elem_state, elem_stats = execute_spmd(
        result, vectorize=False, kernels="off"
    )
    for name in kern_state:
        np.testing.assert_array_equal(
            kern_state[name], elem_state[name], err_msg=name
        )
    assert kern_stats.messages == elem_stats.messages
    assert kern_stats.bytes_moved == elem_stats.bytes_moved
