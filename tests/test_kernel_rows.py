"""Kernel templates are tables: the rows keep the oracle's power, and the
grid stays out of the code.

A nest kernel runs per-rank check and store rows bound to a run's views
and compiles only its rank-independent RHS; a copy plan runs rows and
compiles nothing (:mod:`repro.runtime.kernels`).  An element made
invalid, or stale, in one rank's storage right before a firing must be
reported with the exact words the runtime has always used — for a nest
with static offsets, one whose offsets ride a loop variable, an
unmasked transfer and a masked diagonal one — and no compiled code may
grow with the processor grid.
"""

from __future__ import annotations

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
