"""A dropped result is freed by reference counting alone.

Neither a compile nor the first execution of its result may build a
reference cycle: the CFG, the SSA and the entries refer back by integer
id, recursive walks are module functions or explicit stacks, and the
execution image keeps what it reads rather than the result.  So with the
cyclic collector off, ``del result`` frees everything at once and a
collection afterwards finds nothing.

When a case fails, find the cycle: run the case under
``gc.set_debug(gc.DEBUG_SAVEALL)``, ``gc.collect()``, and take the
strongly connected components of ``gc.garbage`` (edges from
``gc.get_referents``); the types in each component name the source.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.pipeline import compile_all_strategies, compile_program
from repro.evaluation.programs import BENCHMARKS, QUICK_PARAMS, synthetic_program
from repro.runtime.spmd import execute_spmd

TRANSPORTS = [None, "inline"]


@pytest.fixture
def collector_off():
    """The cyclic collector disabled, with the garbage of earlier tests
    already collected; restored afterwards."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _assert_freed_on_del(compile_results, transport) -> None:
    """Compile, execute each result once, drop every reference, and check
    that reference counting freed them with nothing left for the
    collector.  ``compile_results()`` returns a fresh list of results."""
    results = compile_results()
    for result in results:
        execute_spmd(result, transport=transport)
    refs = [weakref.ref(r) for r in results]
    refs += [weakref.ref(r.execution_image) for r in results]
    del results, result
    assert [r() for r in refs] == [None] * len(refs)
    assert gc.collect() == 0


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("strategy", ["orig", "nored", "comb"])
@pytest.mark.parametrize("program", sorted(BENCHMARKS))
def test_compile_program_result(collector_off, program, strategy, transport):
    _assert_freed_on_del(lambda: [compile_program(
        BENCHMARKS[program], QUICK_PARAMS[program], strategy
    )], transport)


@pytest.mark.parametrize("transport", TRANSPORTS)
@pytest.mark.parametrize("program", sorted(BENCHMARKS))
def test_compile_all_strategies_results(collector_off, program, transport):
    """Three results sharing one analysis context."""
    _assert_freed_on_del(lambda: list(compile_all_strategies(
        BENCHMARKS[program], QUICK_PARAMS[program]
    ).values()), transport)


@pytest.mark.parametrize("transport", TRANSPORTS)
def test_synthetic_64_phases(collector_off, transport):
    _assert_freed_on_del(lambda: [compile_program(
        synthetic_program(64), {"n": 16}, "comb"
    )], transport)
