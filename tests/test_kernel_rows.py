"""Kernel templates are tables: the rows keep the oracle's power, and the
grid stays out of the code and out of the work.

A nest kernel runs its check and store rows — one flat gather per array
over every rank's stacked storage, or views for rows above the
crossover — and compiles only its rank-independent RHS; a copy plan
runs rows and compiles nothing (:mod:`repro.runtime.kernels`).  An
element made invalid, or stale, in one rank's storage right before a
firing must be reported with the exact words the runtime has always
used — for a nest with static offsets, one whose offsets ride a loop
variable, an unmasked transfer and a masked diagonal one, rows above
and below the crossover — and neither the compiled code nor the numpy
calls of a firing may grow with the processor grid.
"""

from __future__ import annotations

import gc
import sys
import types

import numpy as np
import pytest

from repro.core.pipeline import compile_program
from repro.errors import SimulationError
from repro.evaluation.programs import BENCHMARKS
from repro.runtime import kernels
from repro.runtime.plans import concretize_nest, rank_kbox, ref_region
from repro.runtime.spmd import SPMDExecutor, execute_spmd

STENCIL = """
PROGRAM t
  PARAM n = 16
  PROCESSORS p(4)
  REAL a(n)
  DISTRIBUTE a(BLOCK) ONTO p
  REAL b(n)
  DISTRIBUTE b(BLOCK) ONTO p
  b(2:n-1) = a(1:n-2) + a(3:n)
END
"""

DIAGONAL = """
PROGRAM diag
  PARAM n = 12
  PROCESSORS p(2, 2)
  REAL a(n, n)
  REAL b(n, n)
  DISTRIBUTE a(BLOCK, BLOCK) ONTO p
  DISTRIBUTE b(BLOCK, BLOCK) ONTO p
  b(2:n-1, 2:n-1) = a(3:n, 3:n)
END
"""


#: ``STENCIL`` at n = 1025 on 4 ranks: blocks of 257, 257, 257 and 254
#: elements, so ranks 0-2 read and store through rows above the
#: crossover (views) and rank 3 through the flat gather and scatter.
MIXED = STENCIL.replace("n = 16", "n = 1025")

#: Whole rows of 300 elements cross the block boundaries: transfers
#: above the crossover, which stay views.
WIDE = """
PROGRAM w
  PARAM n = 16
  PARAM m = 300
  PROCESSORS p(4)
  REAL a(n, m)
  DISTRIBUTE a(BLOCK, *) ONTO p
  REAL b(n, m)
  DISTRIBUTE b(BLOCK, *) ONTO p
  b(2:n-1, 1:m) = a(1:n-2, 1:m) + a(3:n, 1:m)
END
"""

#: A replicated LHS: every rank stores the whole block.
REPLICATED = """
PROGRAM r
  PARAM n = 16
  PROCESSORS p(2, 2)
  REAL a(n, n)
  DISTRIBUTE a(BLOCK, BLOCK) ONTO p
  REAL c(n)
  REAL d(n)
  c(2:n-1) = d(1:n-2) + d(3:n)
  a(2:n-1, 2:n-1) = a(1:n-2, 2:n-1) + a(3:n, 3:n)
  d(1:n) = c(1:n) * 2.0
END
"""


def spoil(executor: SPMDExecutor, rank: int, array: str, at: tuple,
          how: str) -> None:
    """Make element ``at`` (0-based) of ``array`` on ``rank`` invalid or
    stale."""
    store = executor.storage[rank][array]
    if how == "invalid":
        store.valid[at] = False
    else:
        store.values[at] += 1.0


def said(executor: SPMDExecutor) -> str:
    with pytest.raises(SimulationError) as err:
        executor.run()
    return str(err.value)


# -- nests ----------------------------------------------------------------------


def spoil_before_nest(executor, lhs: str, rank: int, ref: int, how: str,
                      when=lambda env: True) -> None:
    """Before the first firing of the nest writing ``lhs`` whose loop
    environment satisfies ``when``: spoil, on ``rank``, the last element
    of what its ``ref``-th reference reads there."""
    fire = executor.kernels.try_exec_nest
    armed = [True]

    def probe(plan, env):
        if armed[0] and plan.lhs.name == lhs and when(env):
            armed[0] = False
            conc = concretize_nest(plan, env, executor.info)
            kbox = rank_kbox(conc, executor.image.owned[rank, lhs])
            cref = list(conc.refs.values())[ref]
            region = ref_region(cref, kbox)
            at = tuple(d.hi - 1 for d in region.dims)
            spoil(executor, rank, cref.name, at, how)
        return fire(plan, env)

    executor.kernels.try_exec_nest = probe


class TestNestRows:
    @pytest.mark.parametrize("how, message", [
        ("invalid", "read of a at s2: elements not present on rank 1 "
                    "(missing or misplaced communication)"),
        ("stale", "rank 1 read stale a at s2: rank data disagrees with "
                  "the sequential semantics"),
    ])
    def test_static_offsets(self, how, message):
        """``b(2:n-1) = a(1:n-2) + a(3:n)``: rank 1 reads ``a(9)`` from
        rank 2's halo; spoil it just before the nest fires."""
        executor = SPMDExecutor(compile_program(STENCIL, strategy="comb"))
        spoil_before_nest(executor, "b", 1, 1, how)
        assert said(executor) == message

    @pytest.mark.parametrize("how, message", [
        ("invalid", "read of g at s7: elements not present on rank 2 "
                    "(missing or misplaced communication)"),
        ("stale", "rank 2 read stale g at s7: rank data disagrees with "
                  "the sequential semantics"),
    ])
    def test_offsets_riding_the_loop_variable(self, how, message):
        """Gravity's ``pot = g(i, 3:n, :) + ...``: the rows of ``g`` move
        with ``i``.  Spoil plane ``i = 4`` — not the plane the template
        was built on — on rank 2."""
        result = compile_program(
            BENCHMARKS["gravity"], params={"n": 8, "pr": 2, "pc": 2},
            strategy="comb",
        )
        executor = SPMDExecutor(result)
        spoil_before_nest(
            executor, "pot", 2, 0, how, when=lambda env: env.get("i") == 4
        )
        assert said(executor) == message


    @pytest.mark.parametrize("rank", [1, 3])
    @pytest.mark.parametrize("how, message", [
        ("invalid", "read of a at s2: elements not present on rank {} "
                    "(missing or misplaced communication)"),
        ("stale", "rank {} read stale a at s2: rank data disagrees with "
                  "the sequential semantics"),
    ])
    def test_rows_above_and_below_the_crossover(self, rank, how, message):
        """Rank 1's rows are views, rank 3's part of the gather: both
        are named alike."""
        executor = SPMDExecutor(compile_program(MIXED, strategy="comb"))
        spoil_before_nest(executor, "b", rank, 1, how)
        assert said(executor) == message.format(rank)


# -- copies ---------------------------------------------------------------------


def spoil_before_copy(executor, masked: bool, how: str) -> None:
    """Before the first plan holding a transfer of the given kind from
    rank 1, spoil the first element that transfer ships — one rank 1
    owns, so no earlier transfer of the plan delivers it afresh."""
    run = executor.kernels.execute_plan_copy
    armed = [True]

    def probe(key, plan):
        for t in plan.transfers:
            if armed[0] and (t.mask is not None) == masked and t.src == 1:
                armed[0] = False
                take = np.zeros(executor.info.shape(t.array), dtype=bool)
                view = take[t.index]
                if t.mask is None:
                    view[...] = True
                else:
                    view[t.mask] = True
                at = tuple(int(c) for c in np.argwhere(take)[0])
                spoil(executor, t.src, t.array, at, how)
        return run(key, plan)

    executor.kernels.execute_plan_copy = probe


class TestCopyRows:
    @pytest.mark.parametrize("how, message", [
        ("invalid", "extracting invalid data from a [8:8]"),
        ("stale", "stale data shipped for a [8:8]: sender holds values "
                  "that disagree with the sequential semantics"),
    ])
    def test_unmasked_transfer(self, how, message):
        executor = SPMDExecutor(compile_program(STENCIL, strategy="comb"))
        spoil_before_copy(executor, masked=False, how=how)
        assert said(executor) == message

    @pytest.mark.parametrize("how, message", [
        ("invalid", "diagonal forwarding of a: source rank 1 missing "
                    "forwarded data"),
        ("stale", "stale data shipped for a (diagonal phase)"),
    ])
    def test_masked_diagonal_transfer(self, how, message):
        executor = SPMDExecutor(compile_program(DIAGONAL, strategy="comb"))
        spoil_before_copy(executor, masked=True, how=how)
        assert said(executor) == message


    @pytest.mark.parametrize("how, message", [
        ("invalid", "extracting invalid data from a [8:8, 1:300]"),
        ("stale", "stale data shipped for a [8:8, 1:300]: sender holds "
                  "values that disagree with the sequential semantics"),
    ])
    def test_transfer_above_the_crossover(self, how, message):
        executor = SPMDExecutor(compile_program(WIDE, strategy="comb"))
        spoil_before_copy(executor, masked=False, how=how)
        assert said(executor) == message


@pytest.mark.parametrize("source, stores", [
    pytest.param(MIXED, "views and scatter", id="mixed"),
    pytest.param(WIDE, "views", id="wide"),
    pytest.param(REPLICATED, "scatter", id="replicated"),
])
def test_every_row_form_matches_the_reference(source, stores):
    """Stores above and below the crossover in one template, a block
    stored whole by every rank, transfers that stay views: the final
    state is the element-wise reference's, bit for bit."""
    result = compile_program(source, strategy="comb")
    state, stats = execute_spmd(result)
    ref, ref_stats = execute_spmd(result, vectorize=False)
    for name in ref:
        np.testing.assert_array_equal(state[name], ref[name], name)
    assert stats.messages == ref_stats.messages
    forms = {
        (template.scatter is not None, any(
            count > kernels.CROSSOVER
            for _, _, (_, _, _, count) in template.ranks
        ))
        for template in result.execution_image.nest_templates.values()
    }
    assert forms == {
        "views and scatter": {(True, True)},
        "views": {(False, True)},
        "scatter": {(True, False)},
    }[stores]


# -- the grid stays out of the code ---------------------------------------------

SIZES = {
    "shallow": {"n": 16, "nsteps": 1},
    "gravity": {"n": 16},
    "trimesh": {"n": 16, "nsweeps": 1},
    "trimesh_gauss": {"n": 16, "nsweeps": 1},
    "hydflo_flux": {"n": 16, "nsteps": 1},
    "hydflo_hydro": {"n": 16, "nsteps": 1},
}


@pytest.mark.parametrize("program", sorted(BENCHMARKS))
def test_no_code_grows_with_the_grid(program, monkeypatch):
    """Each nest template compiles one function whose bytecode is the
    same length at 2x2, 4x4 and 8x8 — nothing per rank is emitted — and
    ``compile()`` runs once per nest template, never for a copy plan."""
    compiles = []
    real = kernels.compile_fn
    monkeypatch.setattr(
        kernels, "compile_fn",
        lambda source, tag, ns: compiles.append(tag) or real(source, tag, ns),
    )
    lengths = []
    for grid in (2, 4, 8):
        compiles.clear()
        result = compile_program(
            BENCHMARKS[program],
            params={**SIZES[program], "pr": grid, "pc": grid},
            strategy="comb",
        )
        execute_spmd(result)
        image = result.execution_image
        assert len(compiles) == len(image.nest_templates) > 0
        lengths.append({
            key: len(template.rhs.__code__.co_code)
            for key, template in image.nest_templates.items()
        })
        copies = [
            plan.copy for plan in image.comm_plans.values()
            if plan.copy is not None
        ]
        assert copies or program == "trimesh_gauss"
        for template in copies:
            assert not any(
                isinstance(value, (types.CodeType, types.FunctionType))
                for value in vars(template).values()
            )
    assert lengths[0] == lengths[1] == lengths[2]


def numpy_calls_per_firing(result) -> list[int]:
    """Numpy's C functions and methods called by each nest and copy
    firing of one warm execution of ``result``, in run order."""
    execute_spmd(result)  # build the image: count only warm firings
    executor = SPMDExecutor(result)
    engine = executor.kernels
    counts = []

    def counting(run):
        def wrapped(*args):
            calls = [0]

            def profile(frame, event, fn):
                if event == "c_call" and (
                    type(getattr(fn, "__self__", None)) is np.ndarray
                    or (getattr(fn, "__module__", None) or "").startswith(
                        "numpy"
                    )
                    or fn is kernels.count_nonzero
                ):
                    calls[0] += 1

            sys.setprofile(profile)
            try:
                return run(*args)
            finally:
                sys.setprofile(None)
                counts.append(calls[0])
        return wrapped

    engine.try_exec_nest = counting(engine.try_exec_nest)
    engine.execute_plan_copy = counting(engine.execute_plan_copy)
    executor.run()
    image = result.execution_image
    for template in image.nest_templates.values():
        for _, checks, (_, _, _, stored) in template.ranks:
            assert stored <= kernels.CROSSOVER
            for _, fixed, moving in checks:
                assert all(
                    row[1] <= kernels.CROSSOVER for row in fixed + moving
                )
    for plan in image.comm_plans.values():
        if plan.copy is not None:
            assert not any(
                kernels._stays_view(t, count)
                for transfers, _ in plan.copy.runs
                for t, count in transfers
            )
    return counts


#: Sizes at which every row is below the crossover on every grid: the
#: three-dimensional hydflo programs hold rows of about 1 000 elements
#: on 2x2 at n = 16, so they run at n = 10.
SMALL_ROWS = {
    **SIZES,
    "hydflo_flux": {"n": 10, "nsteps": 1},
    "hydflo_hydro": {"n": 10, "nsteps": 1},
}


@pytest.mark.parametrize("program", sorted(BENCHMARKS))
def test_no_work_grows_with_the_grid(program):
    """With every row below the crossover a firing makes the same numpy
    calls at 2x2, 4x4 and 8x8: one gather per array over all ranks,
    never one call per rank."""
    counts = [
        numpy_calls_per_firing(compile_program(
            BENCHMARKS[program],
            params={**SMALL_ROWS[program], "pr": grid, "pc": grid},
            strategy="comb",
        ))
        for grid in (2, 4, 8)
    ]
    assert counts[0] and counts[0] == counts[1] == counts[2]


# -- one index, many rows -------------------------------------------------------

def flat_indices(result) -> list[np.ndarray]:
    """Every flat index the execution image of ``result`` holds."""
    image = result.execution_image
    out = [index for row in image.owned_flat.values() if row[0]
           for index in row[0]]
    for template in image.nest_templates.values():
        out += [index for gather in template.gathers for index in gather[2:4]]
        if template.scatter is not None:
            out += template.scatter[:2]
    for plan in image.comm_plans.values():
        if plan.copy is not None:
            out += [
                index for _, gathers in plan.copy.runs
                for gather in gathers for index in gather[1:3]
            ]
    return out


def test_each_flat_index_is_kept_once():
    """Equal flat indices are one read-only array, across the templates
    of one image and across images (one program under two strategies),
    and the process lets go of them with the images."""
    gc.collect()
    before = len(kernels._INDICES)
    results = [
        compile_program(
            BENCHMARKS["shallow"],
            params={**SIZES["shallow"], "pr": 4, "pc": 4}, strategy=strategy,
        )
        for strategy in ("orig", "comb")
    ]
    for result in results:
        execute_spmd(result)
    indices = [index for r in results for index in flat_indices(r)]
    kept: dict[bytes, set] = {}
    for index in indices:
        assert index.dtype == np.intp and not index.flags.writeable
        kept.setdefault(index.tobytes(), set()).add(id(index))
    assert all(len(ids) == 1 for ids in kept.values())
    assert len(kept) < len(indices)
    assert len(kernels._INDICES) > before
    del results, result, indices, kept, index
    gc.collect()
    assert len(kernels._INDICES) <= before
