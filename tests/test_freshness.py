"""One freshness idiom, one verdict.

Every value a rank reads or ships is tested twice: its validity bit is
set (a message delivered it) and it equals the sequential shadow (the
message was not sent too early).  The runtime has one spelling of that
pair (:func:`repro.runtime.darray.all_valid` / ``fresh``, and the form
:func:`repro.runtime.kernels.verify` runs over kernel rows); nest
kernels apply it to the read *cover* instead of to every element read.
These tests pin the consequences: NaN bits the semantics also hold are
not stale, a corrupted element inside any read region is caught by the
kernel path and by the element-wise path for the same statement, rank,
array and kind, one outside is caught by neither, and no second
spelling creeps back in.
"""

from __future__ import annotations

import inspect
import itertools
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.runtime
from repro.core.pipeline import compile_program
from repro.errors import SimulationError
from repro.evaluation.programs import BENCHMARKS
from repro.runtime import darray, kernels
from repro.runtime.darray import all_valid, fresh
from repro.runtime.interp import interpret
from repro.runtime.plans import concretize_nest, rank_kbox, ref_region
from repro.runtime.spmd import SPMDExecutor, execute_spmd

NAN = float("nan")


class TestHelperPair:
    def test_validity_counts_every_element(self):
        valid = np.ones((4, 6), dtype=bool)
        assert all_valid(valid) and all_valid(valid[1:3, ::2])
        valid[2, 4] = False
        assert not all_valid(valid) and not all_valid(valid[1:3, ::2])
        assert all_valid(valid[:0])

    def test_equal_bits_are_fresh(self):
        a = np.arange(12.0).reshape(3, 4)
        assert fresh(a, a.copy()) and fresh(a[:, 1::2], a.copy()[:, 1::2])
        assert fresh(a[:0], a[:0])

    def test_nan_is_not_stale(self):
        a = np.array([1.0, NAN, 3.0, np.inf])
        assert fresh(a, a.copy())
        assert fresh(NAN, NAN)

    def test_a_different_value_beside_a_nan_is_stale(self):
        a = np.array([1.0, NAN, 3.0])
        assert not fresh(a, np.array([1.0, NAN, 3.5]))
        assert not fresh(a, np.array([1.0, 2.0, 3.0]))
        assert not fresh(np.array([1.0, 2.0, 3.0]), a)
        assert not fresh(NAN, 1.0) and not fresh(1.0, NAN)


PATHS = {
    "direct-copy": {},
    "element-wise": {"vectorize": False},
    "inline": {"transport": "inline"},
    "threaded": {"transport": "threaded"},
}


class TestNanIsNotStale:
    """shallow at n = 16 overflows around step 25; from then on every
    rank holds exactly the interpreter's NaNs."""

    @pytest.fixture(scope="class")
    def overflowing(self):
        params = {"n": 16, "nsteps": 30, "pr": 2, "pc": 2}
        result = compile_program(BENCHMARKS["shallow"], params, "comb")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            want = interpret(result.info, seed=1)
        assert np.isnan(want["h"]).any()
        return result, want

    @pytest.mark.parametrize("path", sorted(PATHS))
    def test_run_completes_with_the_interpreters_bits(self, overflowing, path):
        result, want = overflowing
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            state, _ = execute_spmd(result, seed=1, **PATHS[path])
        for name, expected in want.items():
            np.testing.assert_array_equal(state[name], expected, name)

    @pytest.mark.parametrize("path", ["direct-copy", "element-wise"])
    def test_a_corrupted_neighbour_of_a_nan_still_raises(
        self, stencil_source, path
    ):
        """a(6) is NaN on every rank and in the shadow — consistent, so
        fine; rank 1's a(7), right beside it, is off by one."""
        result = compile_program(stencil_source, strategy="comb")

        def poisoned(corrupt: bool) -> SPMDExecutor:
            executor = SPMDExecutor(result, **PATHS[path])
            executor.shadow.arrays["a"][5] = NAN
            for per_rank in executor.storage.values():
                per_rank["a"].values[5] = NAN
            if corrupt:
                executor.storage[1]["a"].values[6] += 1.0
            return executor

        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            clean = poisoned(corrupt=False)
            clean.run()
            assert np.isnan(clean.assemble()["b"]).any()
            with pytest.raises(SimulationError, match="rank 1 read stale a"):
                poisoned(corrupt=True).run()


# -- same verdict, section by section ---------------------------------------

SMALL = {
    "shallow": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
    "gravity": {"n": 8, "pr": 2, "pc": 2},
    "trimesh": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
}


def hook_nest_firings(executor: SPMDExecutor, probe) -> None:
    """Route every kernel firing of a planned nest through
    ``probe(fire, plan)``; ``fire()`` runs it."""
    engine = executor.kernels.try_exec_nest
    executor.kernels.try_exec_nest = lambda plan, env: probe(
        lambda: engine(plan, env), plan
    )


def attempt(executor: SPMDExecutor, plan, run) -> tuple:
    """``run()`` one firing of ``plan``'s nest, then put back everything
    a firing writes (rank storage and shadow of the written array, the
    loop environment): returns ``(what it raised or None, its result)``."""
    name = plan.lhs.name
    stores = [executor.storage[gr.rank][name] for gr in executor.ranks]
    saved = [(s.values.copy(), s.valid.copy()) for s in stores]
    shadow = executor.shadow.arrays[name].copy()
    env = dict(executor.shadow.env)
    said = outcome = None
    try:
        outcome = run()
    except SimulationError as exc:
        said = str(exc)
    for s, (values, valid) in zip(stores, saved):
        s.values[...] = values
        s.valid[...] = valid
    executor.shadow.arrays[name][...] = shadow
    executor.shadow.env.clear()
    executor.shadow.env.update(env)
    return said, outcome


def element_wise(executor: SPMDExecutor, plan) -> "str | None":
    """What the element-wise path says about one firing of ``plan``."""
    return attempt(
        executor, plan, lambda: executor._exec_loop(plan.loops[0])
    )[0]


ABSENT = re.compile(
    r"read of (\w+)(?:\([^)]*\))? at s(\d+): elements? not present "
    r"on rank (\d+) "
)
STALE = re.compile(r"rank (\d+) read stale (\w+)(?:\([^)]*\))? at s(\d+): ")


def verdict(said: str) -> tuple:
    """(statement, rank, array, kind) named by a freshness error."""
    m = ABSENT.match(said)
    if m:
        array, sid, rank = m.groups()
        return int(sid), int(rank), array, "valid"
    m = STALE.match(said)
    assert m, said
    rank, array, sid = m.groups()
    return int(sid), int(rank), array, "value"


def rank_reads(executor: SPMDExecutor, conc):
    """(rank, array, elements read, elements to corrupt) for everything
    the firing reads: the first, a middle and the last element of each
    reference's region."""
    name = conc.lhs.name
    distributed = executor.info.layout(name).distributed_dims
    for gr in executor.ranks:
        kbox = conc.full_box()
        if distributed:
            kbox = rank_kbox(conc, executor.image.owned[gr.rank, name])
            if kbox is None:
                continue
        reads: dict[str, tuple[set, dict]] = {}
        for cref in conc.refs.values():
            region = ref_region(cref, kbox)
            elements = list(
                itertools.product(*(d.elements() for d in region.dims))
            )
            inside, picks = reads.setdefault(cref.name, (set(), {}))
            inside.update(elements)
            picks.update(dict.fromkeys(
                (elements[0], elements[len(elements) // 2], elements[-1])
            ))
        for array, (inside, picks) in reads.items():
            yield gr.rank, array, inside, list(picks)


def verdicts(program: str) -> list[tuple]:
    """Run ``program``; before each nest firing corrupt, one at a time,
    the first, a middle and the last element of what each reference
    reads on each rank — validity bit, then value — and record what the
    kernel path and the element-wise path each say about that firing;
    then corrupt one element *outside* each (rank, array) read region,
    which neither path may notice, and fire for real."""
    result = compile_program(BENCHMARKS[program], params=SMALL[program])
    executor = SPMDExecutor(result)
    recorded: list[tuple] = []
    firing = itertools.count()

    def probe(fire, plan):
        conc = concretize_nest(plan, executor._env_ints(), executor.info)
        if conc is None:
            return fire()
        sid = plan.assign.sid
        reads = list(rank_reads(executor, conc))
        ordinal = next(firing)
        for rank, array, _, picks in reads:
            store = executor.storage[rank][array]
            for element, kind in itertools.product(picks, ("valid", "value")):
                at = tuple(c - 1 for c in element)
                value = store.values[at]
                assert store.valid[at]
                if kind == "valid":
                    store.valid[at] = False
                else:
                    store.values[at] = value + 1.0
                kernel, _ = attempt(executor, plan, fire)
                elementwise = element_wise(executor, plan)
                store.values[at] = value
                store.valid[at] = True
                assert kernel is not None and elementwise is not None
                want = (sid, rank, array, kind)
                assert verdict(kernel) == verdict(elementwise) == want, (
                    kernel, elementwise,
                )
                recorded.append((ordinal, rank, array, element, kind))

        # one element outside each (rank, array) read region
        outside = []
        for rank, array, inside, _ in reads:
            store = executor.storage[rank][array]
            spare = next(
                (e for e in np.ndindex(store.shape)
                 if tuple(c + 1 for c in e) not in inside), None,
            )
            if spare is not None:
                outside.append(
                    (store, spare, store.values[spare], store.valid[spare])
                )
                store.values[spare] += 1.0
                store.valid[spare] = False
        assert element_wise(executor, plan) is None
        outcome = fire()  # must not raise
        for store, spare, value, valid in outside:
            store.values[spare] = value
            store.valid[spare] = valid
        return outcome

    hook_nest_firings(executor, probe)
    executor.run()
    state = executor.assemble()
    for name, expected in interpret(result.info).items():
        np.testing.assert_array_equal(state[name], expected, name)
    return recorded


class TestSameVerdict:
    @pytest.mark.parametrize("program", sorted(SMALL))
    def test_kernel_path_and_kernels_off_say_the_same(self, program):
        """Kernels off is the element-wise path, asked about the same
        firing under the same corruption."""
        said = verdicts(program)
        assert said
        assert {kind for *_, kind in said} == {"valid", "value"}

    def test_the_one_corner_partly_invalid_and_partly_stale(
        self, stencil_source
    ):
        """Rank 1 reads a(4:7) and a(6:9) at ``b = a(i-1) + a(i+1)``.
        With a(4) stale *and* a(9) absent, the element-wise path reads
        a(4) first and finds it stale; the cover a(4:9) is tested for
        validity first.  Both raise, both name the array, the statement
        and the rank."""
        result = compile_program(stencil_source, strategy="comb")
        executor = SPMDExecutor(result)
        said = {}

        def probe(fire, plan):
            if plan.lhs.name == "b":
                a = executor.storage[1]["a"]
                a.values[3] += 1.0
                a.valid[8] = False
                said["element-wise"] = element_wise(executor, plan)
            return fire()

        hook_nest_firings(executor, probe)
        with pytest.raises(SimulationError) as err:
            executor.run()
        said["direct-copy"] = str(err.value)
        assert said["element-wise"].startswith("rank 1 read stale a(4,) at s")
        assert said["direct-copy"].startswith("read of a at s")
        assert "on rank 1 " in said["direct-copy"]
        sid = re.search(r"at (s\d+)", said["element-wise"]).group(1)
        assert f"at {sid}:" in said["direct-copy"]


# -- the idiom stays single ---------------------------------------------------

RUNTIME = Path(repro.runtime.__file__).parent


class TestIdiomStaysSingle:
    def sources(self) -> dict[str, str]:
        return {p.name: p.read_text() for p in sorted(RUNTIME.glob("*.py"))}

    def test_array_equal_lives_in_the_helper_only(self):
        hits = {
            name: text.count("array_equal")
            for name, text in self.sources().items() if "array_equal" in text
        }
        assert hits == {"darray.py": 1}
        assert "array_equal" in inspect.getsource(darray.fresh)

    def test_no_hand_written_validity_reduction(self):
        pattern = re.compile(
            r"valid[^\n]*\.all\(|np\.all\(|_ae\b|\.all\(\)\s*:\s*raise"
        )
        for name, text in self.sources().items():
            assert not pattern.search(text), name

    def test_the_row_runner_spells_the_fast_path_once(self):
        """Nest and copy rows share one test: the validity count and the
        compare-count-then-``fresh`` staleness test appear once, in
        :func:`~repro.runtime.kernels.verify`, and both runners call it."""
        text = self.sources()["kernels.py"]
        runner = inspect.getsource(kernels.verify)
        assert runner.count("count_nonzero(") == text.count(
            "count_nonzero("
        ) == 2
        assert "count_nonzero(valid) != count" in runner
        assert "count_nonzero(values != expected) and not fresh(" in runner
        assert text.count("fresh(") == runner.count("fresh(") == 1
        assert kernels.count_nonzero is darray.count_nonzero
        for caller in (kernels.NestTemplate.bind, kernels.run_copy):
            assert inspect.getsource(caller).count("verify(") == 1

    def test_count_nonzero_is_the_c_function(self):
        """numpy >= 2 wraps ``np.count_nonzero`` in Python; the helper
        binds the builtin behind it once."""
        assert type(darray.count_nonzero).__name__ == (
            "builtin_function_or_method"
        )
