"""The execution image: inspect once, execute many.

A :class:`~repro.core.pipeline.CompilationResult` owns what executing it
works out that depends on neither storage nor data (lowered schedule,
nest and communication plans, transport lowerings, kernel templates).
A later execution of the same result must therefore build nothing — and
be indistinguishable from the first in everything but the build
counters: same final arrays bit for bit, same movement counters, same
oracle failures, on every backend, for every seed, from any thread.
"""

from __future__ import annotations

import gc
import multiprocessing
import threading
import types
import weakref

import numpy as np
import pytest

from repro.core.pipeline import compile_program
from repro.errors import SimulationError
from repro.evaluation.programs import BENCHMARKS
from repro.ir.cfg import Position
from repro.runtime.darray import RankStorage
from repro.runtime.interp import Interpreter
from repro.runtime.kernels import KernelEngine
from repro.runtime.spmd import SPMDExecutor, execute_spmd
from repro.transport import Transport

SMALL = {
    "shallow": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
    "gravity": {"n": 8, "pr": 2, "pc": 2},
    "trimesh": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "trimesh_gauss": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "hydflo_flux": {"n": 8, "nsteps": 1, "pr": 2, "pc": 2},
    "hydflo_hydro": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
}

#: Counters a cold and a warm run must agree on exactly.
SAME = (
    "messages", "bytes_moved", "reductions", "bcopy_calls", "remote_reads",
    "elements_written", "kernel_firings", "vectorized_firings",
    "block_firings", "fallback_firings", "kernel_tier",
)

CASES = [
    (program, strategy)
    for program in sorted(BENCHMARKS) for strategy in ("orig", "comb")
]


def _compile(program: str, strategy: str = "comb"):
    return compile_program(
        BENCHMARKS[program], params=SMALL[program], strategy=strategy
    )


def _assert_same_run(got, want) -> None:
    (state, stats), (ref_state, ref_stats) = got, want
    assert set(state) == set(ref_state)
    for name in ref_state:
        np.testing.assert_array_equal(state[name], ref_state[name], name)
    for counter in SAME:
        assert getattr(stats, counter) == getattr(ref_stats, counter), counter


def _built_nothing(stats) -> bool:
    return (
        stats.plan_compiles == stats.plan_translations
        == stats.kernel_compiles == 0
    )


class TestWarmRunsBuildNothing:
    @pytest.mark.parametrize("program,strategy", CASES)
    def test_second_run_equals_a_fresh_results_run(self, program, strategy):
        result = _compile(program, strategy)
        cold = execute_spmd(result)
        warm = execute_spmd(result)
        fresh = execute_spmd(_compile(program, strategy))
        assert cold[1].kernel_compiles > 0
        assert _built_nothing(warm[1])
        assert warm[1].kernel_cache_hits == warm[1].kernel_firings
        assert warm[1].plan_hit_rate == 1.0
        _assert_same_run(warm, fresh)
        _assert_same_run(cold, fresh)

    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    def test_warm_run_with_another_seed(self, program):
        """Nothing in the image depends on the data."""
        result = _compile(program)
        execute_spmd(result, seed=1)
        warm = execute_spmd(result, seed=99)
        assert _built_nothing(warm[1])
        _assert_same_run(warm, execute_spmd(_compile(program), seed=99))

    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    def test_one_result_through_every_backend(self, program):
        """Direct copy, then the three transports, on one image: bitwise
        agreement, plan-level counters equal, and the executor's exact
        wire-vs-plan parity asserts never fire."""
        result = _compile(program)
        ref_state, ref_stats = execute_spmd(result)
        for backend in ("inline", "threaded", "multiprocess"):
            executor = SPMDExecutor(result, transport=backend)
            try:
                stats = executor.run()
                state = executor.assemble()
                wire = executor.wire
            finally:
                executor.close()
            for name in ref_state:
                np.testing.assert_array_equal(state[name], ref_state[name])
            assert stats.plan_compiles == stats.plan_translations == 0
            assert stats.messages == ref_stats.messages
            assert stats.bytes_moved == ref_stats.bytes_moved
            assert wire.bytes_sent == sum(wire.pair_bytes.values())
            assert wire.messages == sum(wire.pair_msgs.values())

    @pytest.mark.parametrize("options", [
        {"vectorize": False},
        {"kernels": "off"},
        {"transport": "inline", "collectives": False},
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_ablations_on_a_warm_result(self, options):
        """The ablation switches select what runs, not what the image
        happens to hold."""
        result = _compile("shallow")
        execute_spmd(result)
        execute_spmd(result, transport="inline")
        _assert_same_run(
            execute_spmd(result, **options),
            execute_spmd(_compile("shallow"), **options),
        )
        executor = SPMDExecutor(result, **options)
        try:
            if options.get("vectorize") is False:
                assert not executor.nest_plans
                assert not executor.fallback_reasons
            if options.get("kernels") == "off":
                assert executor.kernels is None and executor.nest_plans
            if options.get("collectives") is False:
                executor.run()
                assert executor._lowered
                assert {
                    low.algorithm for low in executor._lowered.values()
                } <= {"pointwise", "neighbor-exchange", "augmented-exchange"}
        finally:
            executor.close()


class TestOracleOnWarmRuns:
    """A miscompiled schedule fails the second run exactly as the first."""

    def _twice(self, result) -> list[str]:
        messages = []
        for _ in range(2):
            with pytest.raises(SimulationError) as err:
                execute_spmd(result)
            messages.append(str(err.value))
        return messages

    def test_dropped_schedule(self, stencil_source):
        result = compile_program(stencil_source, strategy="comb")
        result.placed.clear()
        first, second = self._twice(result)
        assert "not present" in first and first == second

    def test_hoisted_too_far(self, stencil_source):
        result = compile_program(stencil_source, strategy="comb")
        time_loop = result.ctx.cfg.loops[0]
        for pc in result.placed:
            if any(e.array == "a" for e in pc.entries):
                pc.position = Position(time_loop.preheader.id, -1)
        first, second = self._twice(result)
        assert "stale" in first and first == second

    def test_schedule_edited_after_a_run(self, stencil_source):
        """An image must not outlive the schedule it was lowered from."""
        result = compile_program(stencil_source, strategy="comb")
        execute_spmd(result)
        result.placed.clear()
        with pytest.raises(SimulationError, match="not present"):
            execute_spmd(result)


class TestSharing:
    def test_two_threads_execute_one_result(self):
        result = _compile("shallow")
        want = execute_spmd(_compile("shallow"))
        outcomes: dict[int, object] = {}

        def run(slot: int) -> None:
            try:
                outcomes[slot] = execute_spmd(result)
            except BaseException as exc:  # surfaced by the assert below
                outcomes[slot] = exc

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
            assert not t.is_alive()
        for slot in (0, 1):
            assert not isinstance(outcomes[slot], BaseException), (
                outcomes[slot]
            )
            _assert_same_run(outcomes[slot], want)
        assert _built_nothing(execute_spmd(result)[1])

    def test_image_dies_with_its_result(self):
        result = _compile("trimesh")
        execute_spmd(result)
        image = weakref.ref(result.execution_image)
        del result
        gc.collect()
        assert image() is None

    def test_image_is_not_part_of_result_equality(self):
        cold, warm = _compile("trimesh"), _compile("trimesh")
        execute_spmd(warm)
        assert cold.execution_image is None
        assert "execution_image" not in repr(warm)
        fields = type(cold).__dataclass_fields__
        assert fields["execution_image"].compare is False


def _reachable(root) -> list:
    """Every object reachable from ``root`` through data: containers,
    instances and closure cells — not through the globals of functions,
    modules or classes, which would reach the whole process."""
    seen: dict[int, object] = {}
    stack = [root]
    skip = (types.ModuleType, type, types.CodeType, types.BuiltinFunctionType)
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.FunctionType):
            stack.extend(
                cell.cell_contents for cell in obj.__closure__ or ()
            )
            continue
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


class TestImageHoldsNoRunState:
    @pytest.mark.parametrize("backend", [None, "threaded"])
    def test_nothing_of_a_run_is_reachable(self, backend):
        result = _compile("shallow")
        executor = SPMDExecutor(result, transport=backend)
        try:
            executor.run()
            run_arrays = [
                array
                for per_rank in executor.storage.values()
                for store in per_rank.values()
                for array in (store.values, store.valid)
            ] + list(executor.shadow.arrays.values())
            found = _reachable(result.execution_image)
            run_state = (
                RankStorage, Interpreter, Transport, SPMDExecutor,
                KernelEngine, threading.Thread,
                multiprocessing.process.BaseProcess,
            )
            assert not [o for o in found if isinstance(o, run_state)]
            for obj in found:
                if isinstance(obj, np.ndarray):
                    assert not any(
                        np.shares_memory(obj, a) for a in run_arrays
                    )
        finally:
            executor.close()


class TestConstructorFailureLeaksNothing:
    """``kernels="bogus"`` used to raise after ``transport.start()`` and
    leave every rank running."""

    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_bad_tier_starts_no_rank(self, backend):
        result = compile_program(
            BENCHMARKS["shallow"],
            params={"n": 10, "nsteps": 1, "pr": 5, "pc": 5},
        )
        threads = threading.active_count()
        children = len(multiprocessing.active_children())
        with pytest.raises(ValueError, match="unknown kernel tier"):
            execute_spmd(result, transport=backend, kernels="bogus")
        assert threading.active_count() == threads
        assert len(multiprocessing.active_children()) == children

    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_failure_after_start_stops_the_ranks(self, backend, monkeypatch):
        result = _compile("shallow")
        threads = threading.active_count()
        children = len(multiprocessing.active_children())

        def refuse(self, executor, tier):
            raise RuntimeError("engine refused")

        monkeypatch.setattr(KernelEngine, "__init__", refuse)
        with pytest.raises(RuntimeError, match="engine refused"):
            SPMDExecutor(result, transport=backend)
        assert threading.active_count() == threads
        assert len(multiprocessing.active_children()) == children
