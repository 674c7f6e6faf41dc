"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import gc
import multiprocessing
import textwrap
import threading
import time

import pytest

from repro.core.context import AnalysisContext, CompilerOptions
from repro.core.pipeline import analyze_entries
from repro.frontend.analysis import elaborate
from repro.frontend.parser import parse
from repro.frontend.scalarizer import scalarize


def _live_ranks() -> set:
    """Transport rank threads and processes (both carriers name them
    ``transport-rank-N``) alive right now."""
    ranks = threading.enumerate() + multiprocessing.active_children()
    return {r for r in ranks if r.name.startswith("transport-rank-")}


@pytest.fixture(autouse=True)
def no_leaked_ranks():
    """A test must stop every transport rank it started: a rank thread
    or child process still alive after the test fails it."""
    before = _live_ranks()
    yield
    deadline = time.monotonic() + 5.0
    while (leaked := _live_ranks() - before) and time.monotonic() < deadline:
        time.sleep(0.02)
    for rank in leaked:
        if isinstance(rank, multiprocessing.process.BaseProcess):
            rank.kill()
            rank.join(5.0)
    assert not leaked, (
        f"ranks left running: {sorted(r.name for r in leaked)}"
    )


@pytest.fixture(autouse=True)
def no_leaked_collector_pause(request):
    """A test must leave the cyclic collector as it found it: a compile's
    collector-quiet region (or a test's own ``gc.disable``) that is still
    in force afterwards fails the test that leaked it, and is undone so
    the tests after it do not inherit the pause."""
    before = gc.isenabled()
    yield
    after = gc.isenabled()
    if after != before:
        (gc.enable if before else gc.disable)()
    assert after == before, (
        f"{request.node.nodeid} left the collector "
        f"{'enabled' if after else 'disabled'} (it was "
        f"{'enabled' if before else 'disabled'} when the test began)"
    )


def compile_to_context(
    source: str,
    params: dict[str, int] | None = None,
    options: CompilerOptions | None = None,
    do_scalarize: bool = True,
):
    """Parse → elaborate → (scalarize) → AnalysisContext, for tests that
    inspect intermediate structures."""
    program = parse(textwrap.dedent(source))
    info = elaborate(program, params)
    if do_scalarize:
        program = scalarize(program, info)
        info = elaborate(program, params)
    return AnalysisContext(info, options)


def analyzed(source: str, params: dict[str, int] | None = None):
    """Context plus fully analyzed entries (latest/earliest/candidates)."""
    ctx = compile_to_context(source, params)
    return ctx, analyze_entries(ctx)


@pytest.fixture
def fig4_source() -> str:
    """The paper's Figure 4 running example, in mini-HPF."""
    return """
    PROGRAM fig4
      PARAM n = 16
      PROCESSORS pr(4)
      REAL a(n, n)
      REAL b(n, n)
      REAL c(n, n)
      REAL d(n, n)
      DISTRIBUTE a(BLOCK, *) ONTO pr
      DISTRIBUTE b(BLOCK, *) ONTO pr
      DISTRIBUTE c(BLOCK, *) ONTO pr
      DISTRIBUTE d(BLOCK, *) ONTO pr
      REAL cond
      b(:, 1:n:2) = 1
      b(:, 2:n:2) = 2
      IF cond > 0 THEN
        a(:, :) = 3
      ELSE
        a(:, :) = d(:, :)
      END IF
      DO i = 2, n
        DO j = 1, n, 2
          c(i, j) = a(i-1, j) + b(i-1, j)
        END DO
        DO j = 1, n
          c(i, j) = c(i, j) + a(i-1, j) * b(i-1, j)
        END DO
      END DO
    END PROGRAM
    """


@pytest.fixture
def stencil_source() -> str:
    """A small 1-d stencil with a time loop: the bread-and-butter case."""
    return """
    PROGRAM stencil
      PARAM n = 16
      PARAM steps = 4
      PROCESSORS pr(4)
      REAL a(n)
      REAL b(n)
      DISTRIBUTE a(BLOCK) ONTO pr
      DISTRIBUTE b(BLOCK) ONTO pr
      DO t = 1, steps
        b(2:n-1) = a(1:n-2) + a(3:n)
        a(2:n-1) = b(2:n-1)
      END DO
    END PROGRAM
    """
