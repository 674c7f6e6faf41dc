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
import sys
import threading
import types
import weakref

import numpy as np
import pytest

from repro.core.pipeline import compile_program
from repro.errors import SimulationError
from repro.evaluation.programs import BENCHMARKS
from repro.ir.cfg import Position
from repro.runtime import darray, spmd
from repro.runtime.darray import RankStorage, np_index
from repro.runtime.interp import Interpreter, interpret
from repro.runtime.kernels import KernelEngine, moved
from repro.runtime.plans import concretize_nest, rank_kbox, ref_np_index
from repro.runtime.spmd import SPMDExecutor, execute_spmd, execution_image
from repro.sections.rsd import RSD
from repro.sections.symbolic import SymSection
from repro.transport import Transport
from repro.transport.lowering import merge_lowered

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
    "sections_verified", "elements_written", "kernel_firings",
    "vectorized_firings", "fallback_firings",
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
            assert stats.sections_verified == ref_stats.sections_verified
            assert wire.bytes_sent == sum(wire.pair_bytes.values())
            assert wire.messages == sum(wire.pair_msgs.values())

    @pytest.mark.parametrize("options", [
        {"vectorize": False},
    ], ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()))
    def test_ablations_on_a_warm_result(self, options):
        """The ablation switch selects what runs, not what the image
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
            assert not executor.nest_plans
            assert not executor.fallback_reasons
            assert executor.kernels is None
        finally:
            executor.close()


def _count_calls_from(monkeypatch, cls, method: str, caller: str) -> list:
    """Patch ``cls.method`` to record each call made (at any depth)
    under a function named ``caller``."""
    calls: list = []
    original = getattr(cls, method)

    def counting(self, *args):
        frame = sys._getframe(1)
        while frame is not None and frame.f_code.co_name != caller:
            frame = frame.f_back
        if frame is not None:
            calls.append(self)
        return original(self, *args)

    monkeypatch.setattr(cls, method, counting)
    return calls


REDUCTION_ON_A_RUNTIME_SCALAR = """
PROGRAM red
  PARAM n = 16
  PROCESSORS pr(4)
  REAL a(n)
  DISTRIBUTE a(BLOCK) ONTO pr
  REAL m
  REAL q
  REAL s
  s = 0
  m = 10 * q - 3
  DO k = 1, 3
    m = m + 2
    s = s + SUM(a(1:m))
  END DO
END PROGRAM
"""


class TestWarmRunsDeriveNothing:
    """Geometry belongs to the image: which plans an anchor fires under
    given loop-variable values, and how a concrete reduction section
    splits over the ranks, are derived by the first run that gets there."""

    @pytest.mark.parametrize("program", ["gravity", "shallow"])
    def test_no_concretize_and_no_intersect_on_a_warm_run(
        self, program, monkeypatch
    ):
        result = _compile(program)
        concretized = _count_calls_from(
            monkeypatch, SymSection, "concretize", "_fire"
        )
        intersected = _count_calls_from(
            monkeypatch, RSD, "intersect", "_compute_reductions"
        )
        cold = execute_spmd(result)
        assert concretized
        assert bool(intersected) == (cold[1].reductions > 0)
        image = result.execution_image
        firings = dict(image.firings)
        pieces = dict(image.reduction_pieces)
        del concretized[:], intersected[:]
        warm = execute_spmd(result, seed=99)
        assert not concretized and not intersected
        assert image.firings == firings
        assert image.reduction_pieces == pieces
        assert all(image.firings[k] is v for k, v in firings.items())
        _assert_same_run(warm, execute_spmd(_compile(program), seed=99))

    @pytest.mark.parametrize("program", ["gravity", "trimesh"])
    def test_no_numpy_index_rebuilt_on_a_warm_run(self, program, monkeypatch):
        """Each (rank, array) owned index is the image's: installing the
        initial data, extracting reduction pieces and assembling the
        result take it from there instead of rebuilding it."""
        built = []

        def counting(rsd):
            built.append(rsd)
            return np_index(rsd)

        monkeypatch.setattr(darray, "np_index", counting)
        monkeypatch.setattr(spmd, "np_index", counting)
        result = compile_program(
            BENCHMARKS[program],
            params={**SMALL[program], "pr": 4, "pc": 4}, strategy="comb",
        )
        cold = execute_spmd(result)
        assert built
        del built[:]
        warm = execute_spmd(result)
        assert not built
        _assert_same_run(warm, cold)

    @pytest.mark.parametrize("backend", ["inline", "threaded", "multiprocess"])
    @pytest.mark.parametrize("program,strategy", [
        ("gravity", "orig"), ("hydflo_flux", "orig"), ("shallow", "comb"),
    ])
    def test_a_warm_run_merges_nothing(
        self, program, strategy, backend, monkeypatch
    ):
        """What the ops of a firing merge into belongs to the image: a
        second execution lowers nothing, tests no dependence and merges
        no firing — on any backend, the first having run on another."""
        merges = []
        monkeypatch.setattr(
            spmd, "merge_lowered",
            lambda members: merges.append(len(members))
            or merge_lowered(members),
        )
        result = _compile(program, strategy)
        cold = execute_spmd(result, transport="inline")
        assert cold[1].firing_merges == len(
            result.execution_image.wire_firings
        ) > 0
        assert cold[1].firing_dep_tests > 0 and max(merges) > 1
        wire_firings = dict(result.execution_image.wire_firings)
        del merges[:]
        warm = execute_spmd(result, seed=99, transport=backend)
        assert warm[1].firing_merges == warm[1].firing_dep_tests == 0
        assert not merges
        assert all(
            result.execution_image.wire_firings[k] is v
            for k, v in wire_firings.items()
        )
        _assert_same_run(
            warm,
            execute_spmd(_compile(program, strategy), seed=99,
                         transport=backend),
        )

    def test_tables_hold_positions_and_values_only(self):
        result = _compile("gravity")
        execute_spmd(result)
        image = result.execution_image
        for (anchor, *loop_values), keys in image.firings.items():
            assert anchor in image.schedule.anchors
            assert all(isinstance(v, float) for v in loop_values)
            assert len(keys) == len(image.schedule.ops_at(anchor))
            assert all(key in image.comm_plans for key in keys)
        nranks = len(image.ranks)
        for (sid, ordinal, section), owners in image.reduction_pieces.items():
            assert isinstance(sid, int) and isinstance(ordinal, int)
            assert isinstance(section, RSD)
            assert 0 < len(owners) <= nranks
            assert sum(piece.count() for _, piece, _ in owners) == (
                section.count()
            )
            for rank, piece, index in owners:
                assert 0 <= rank < nranks and section.contains(piece)
                assert index == tuple(
                    slice(d.lo - 1, d.hi, d.step) for d in piece.dims
                )

    def test_a_section_from_a_runtime_scalar_gets_its_own_entry(self):
        """``SUM(a(1:m))`` with ``m`` computed from a seeded scalar: the
        concrete section is part of the key, so another seed's section
        is a new entry beside the old ones, never a stale hit."""
        result = compile_program(
            REDUCTION_ON_A_RUNTIME_SCALAR, strategy="comb"
        )
        seen: dict = {}
        for seed in (1, 2, 3, 1, 2):
            state, stats = execute_spmd(result, seed=seed)
            want = interpret(result.info, seed=seed)
            assert state["s"] == want["s"] and state["m"] == want["m"]
            table = result.execution_image.reduction_pieces
            sections = {key[2] for key in table}
            assert {key[:2] for key in table} == {(next(iter(table))[0], 0)}
            for offset in (2, 4, 6):
                m = int(round(want["m"])) - 6 + offset
                assert RSD.of((1, m)) in sections
            assert all(table[key] is owners for key, owners in seen.items())
            seen = dict(table)
        assert len(seen) >= 3


class TestSectionsVerified:
    """``RuntimeStats.sections_verified`` is a count of tests made, so it
    is pinned: a change in it is a change in what the oracle looks at."""

    #: gravity ``comb`` at n = 20 — grid, nest kernels' share, whole run,
    #: and what the whole run would make testing each reference instead
    #: of the cover.  Under ``vectorize=False`` the run makes only the
    #: tests outside nests (transfers and reduction pieces: 576 on 2x2,
    #: 2 304 on 4x4), since element-wise reads are not sections.  The
    #: references ``g(i, ...)`` that ride the loop variable are covered
    #: too, once per geometry, and moved with ``i``.
    PINNED = [((2, 2), 1660, 2236, 3964), ((4, 4), 6640, 8944, 15856)]

    @pytest.mark.parametrize("grid,nest,total,per_reference", PINNED)
    def test_gravity_counts(self, grid, nest, total, per_reference):
        result = compile_program(
            BENCHMARKS["gravity"],
            params={"n": 20, "pr": grid[0], "pc": grid[1]}, strategy="comb",
        )
        executor = SPMDExecutor(result)
        image = executor.image
        fire = executor.kernels.try_exec_nest
        share = references = 0

        def metered(plan, env):
            nonlocal share, references
            before = executor.stats.sections_verified
            done = fire(plan, env)
            share += executor.stats.sections_verified - before
            conc = concretize_nest(plan, env, executor.info)
            name = plan.lhs.name
            kboxes = {}
            for gr in executor.ranks:
                if not executor.info.layout(name).distributed_dims:
                    kboxes[gr.rank] = conc.full_box()
                else:
                    kbox = rank_kbox(conc, image.owned[gr.rank, name])
                    if kbox:
                        kboxes[gr.rank] = kbox
            references += len(kboxes) * len(conc.refs)
            assert done
            # The oracle examines the elements the references read, per
            # rank and per firing: the union of the sections it tests is
            # the union of the references' regions, array by array.
            spec = image.kernel_specs[plan.outer_sid]
            args = [int(a.evaluate(env)) for a in spec.dyn_args]
            template = image.nest_templates[plan.outer_sid, conc.axes]
            assert {rank for rank, *_ in template.ranks} == set(kboxes)
            for rank, checks, _ in template.ranks:
                arrays = {cref.name for cref in conc.refs.values()}
                assert {array for array, *_ in checks} == arrays
                for array, fixed, moving in checks:
                    shape = executor.info.shape(array)
                    tested = np.zeros(shape, dtype=bool)
                    rows = [(*row, ()) for row in fixed] + list(moving)
                    for index, count, dims in rows:
                        section = tested[moved(index, dims, args)]
                        assert section.size == count
                        section[...] = True
                    read = np.zeros(shape, dtype=bool)
                    for cref in conc.refs.values():
                        if cref.name == array:
                            read[ref_np_index(cref, kboxes[rank])] = True
                    np.testing.assert_array_equal(tested, read)
            return done

        executor.kernels.try_exec_nest = metered
        assert executor.run().sections_verified == total
        assert share == nest
        assert total - nest + references == per_reference
        off = execute_spmd(result, vectorize=False)[1]
        assert off.sections_verified == total - nest

    def test_a_template_carries_its_count(self):
        result = _compile("gravity")
        stats = execute_spmd(result)[1]
        image = result.execution_image
        assert all(t.sections > 0 for t in image.nest_templates.values())
        assert all(
            plan.copy.sections == len(plan.transfers)
            for plan in image.comm_plans.values() if plan.copy is not None
        )
        assert stats.as_dict()["sections_verified"] == stats.sections_verified


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
                pc.position = Position(time_loop.preheader, -1)
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

    def test_two_threads_fill_the_geometry_tables_once(self, monkeypatch):
        result = _compile("gravity")
        # racing *first* executors may each build an image (the loser
        # runs unshared); the tables of one image are the subject here
        image = execution_image(result)
        derived = _count_calls_from(
            monkeypatch, SPMDExecutor, "_firing_keys", "_fire"
        )
        split = _count_calls_from(
            monkeypatch, RSD, "intersect", "_compute_reductions"
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=execute_spmd, args=(result,))
                for _ in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert result.execution_image is image
        assert len(derived) == len(image.firings)
        assert len(split) == len(image.ranks) * len(image.reduction_pieces)
        _assert_same_run(execute_spmd(result), execute_spmd(_compile("gravity")))

    def test_image_dies_with_its_result(self):
        """Reference counting alone frees it: no collector pass runs."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            result = _compile("trimesh")
            execute_spmd(result)
            image = weakref.ref(result.execution_image)
            del result
            assert image() is None
        finally:
            if enabled:
                gc.enable()

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
    """A refused request must raise before ``transport.start()``, or it
    leaves every rank running."""

    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_bad_request_starts_no_rank(self, backend):
        result = compile_program(
            BENCHMARKS["shallow"],
            params={"n": 10, "nsteps": 1, "pr": 5, "pc": 5},
        )
        threads = threading.active_count()
        children = len(multiprocessing.active_children())
        with pytest.raises(ValueError, match="bad chaos spec"):
            execute_spmd(result, transport=backend, chaos="drop")
        assert threading.active_count() == threads
        assert len(multiprocessing.active_children()) == children

    @pytest.mark.parametrize("chaos", [
        "seed=7,drop=0.5,corrupt=0.5,crash=1.0", "drop",
    ])
    def test_chaos_without_a_transport_is_refused(self, chaos):
        """The direct-copy path sends nothing to inject faults into:
        arming them there is refused, not silently run fault-free."""
        result = _compile("shallow")
        threads = threading.active_count()
        children = len(multiprocessing.active_children())
        with pytest.raises(
            ValueError, match="'direct' is the fault-free reference"
        ):
            execute_spmd(result, chaos=chaos)
        assert threading.active_count() == threads
        assert len(multiprocessing.active_children()) == children

    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_failure_after_start_stops_the_ranks(self, backend, monkeypatch):
        result = _compile("shallow")
        threads = threading.active_count()
        children = len(multiprocessing.active_children())

        def refuse(self, executor):
            raise RuntimeError("engine refused")

        monkeypatch.setattr(KernelEngine, "__init__", refuse)
        with pytest.raises(RuntimeError, match="engine refused"):
            SPMDExecutor(result, transport=backend)
        assert threading.active_count() == threads
        assert len(multiprocessing.active_children()) == children


class TestStackedStorage:
    """The ranks are an axis: every rank's storage of an array is the
    ``[r]`` view of one ``(P, *shape)`` values array and one validity
    array, on the direct path and on every backend."""

    @pytest.mark.parametrize(
        "backend", [None, "inline", "threaded", "multiprocess"]
    )
    def test_each_rank_is_a_view_of_one_stacked_pair(self, backend):
        result = _compile("shallow")
        executor = SPMDExecutor(result, transport=backend)
        try:
            nranks = len(executor.ranks)
            assert set(executor.stacks) == set(result.info.layouts)
            for name, stacked in executor.stacks.items():
                shape = result.info.shape(name)
                for stack, dtype in zip(stacked, (np.float64, np.bool_)):
                    assert stack.shape == (nranks, *shape)
                    assert stack.dtype == dtype and stack.flags.c_contiguous
                for gr in executor.ranks:
                    store = executor.storage[gr.rank][name]
                    for view, stack in zip((store.values, store.valid),
                                           stacked):
                        row = stack[gr.rank]
                        assert view.shape == row.shape
                        assert view.ctypes.data == row.ctypes.data
                        assert view.strides == row.strides
            executor.run()
            ref, _ = execute_spmd(result)
            state = executor.assemble()
            for name in ref:
                np.testing.assert_array_equal(state[name], ref[name], name)
        finally:
            executor.close()


class TestInspectorReadsTheOwnedTable:
    """The owned region of each (rank, array) is worked out once, when
    the image's planner builds its table; plans, halo bands and the
    kernels' locality accounting read that table."""

    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    def test_one_owned_region_per_rank_and_array(self, program,
                                                 monkeypatch):
        result = _compile(program)
        calls: dict[str, int] = {}
        real = darray.Ownership.owned_rsd

        def counted(own, coords):
            calls[own.layout.array] = calls.get(own.layout.array, 0) + 1
            return real(own, coords)

        monkeypatch.setattr(darray.Ownership, "owned_rsd", counted)
        execute_spmd(result)
        nranks = len(result.execution_image.ranks)
        assert set(calls) == set(result.info.layouts)
        assert all(count <= nranks for count in calls.values()), calls
