"""The compile path's allocation contract.

One compile is one collector-quiet region (no collection of any
generation starts inside it, the caller's collector state comes back on
every way out), each reference is normalized once per loop context, and
the per-reference forms give the verdicts a per-pair rebuild gives.
Budgets are counts, never times.
"""

from __future__ import annotations

import gc
import pathlib
import random
import sys
import threading

import pytest

from repro import affine
from repro.affine import Affine
from repro.core import pipeline
from repro.core.context import CompilerOptions
from repro.core.pipeline import (
    Strategy,
    analyze_entries,
    compile_all_strategies,
    compile_program,
)
from repro.dependence.subscripts import LoopContext
from repro.dependence.tests import DependenceTester
from repro.errors import InternalCompilerError, SemanticError
from repro.evaluation.programs import BENCHMARKS
from repro.frontend import ast_nodes as ast

from conftest import compile_to_context

SHIFTS = ("3:n, 2:n-1", "1:n-2, 2:n-1", "2:n-1, 3:n", "2:n-1, 1:n-2")


def stencil(phases: int, seed: int = 7) -> str:
    """A time-stepped program of ``phases`` stencil updates over eight
    (BLOCK, BLOCK) arrays with two shifted reads each: 2 x ``phases``
    communication entries, ``phases`` array defs."""
    rng = random.Random(seed)
    arrays = [f"q{k}" for k in range(8)]
    lines = [
        f"PROGRAM stencil{phases}",
        "  PARAM n = 8",
        "  PROCESSORS procs(2, 2)",
        "  TEMPLATE t(n, n)",
        "  DISTRIBUTE t(BLOCK, BLOCK) ONTO procs",
        *(f"  REAL {a}(n, n) ALIGN WITH t" for a in arrays),
        "  DO step = 1, 1",
    ]
    for _ in range(phases):
        target, left, right = rng.sample(arrays, 3)
        lsec, rsec = rng.sample(SHIFTS, 2)
        lines.append(
            f"    {target}(2:n-1, 2:n-1) = 0.5 * {target}(2:n-1, 2:n-1) + "
            f"0.25 * ({left}({lsec}) + {right}({rsec}))"
        )
    lines += ["  END DO", "END PROGRAM", ""]
    return "\n".join(lines)


STENCIL64 = stencil(64)
PROGRAMS = {**BENCHMARKS, "stencil64": STENCIL64}

BAD_SOURCE = "PROGRAM bad\n  REAL a(4)\n  a(1) = undeclared(2)\nEND PROGRAM\n"


class CollectionProbe:
    """Generations of the collections that *start* while ``armed``."""

    def __init__(self) -> None:
        self.armed = False
        self.started: list[int] = []

    def __call__(self, phase: str, info: dict) -> None:
        if self.armed and phase == "start":
            self.started.append(info["generation"])

    def __enter__(self) -> "CollectionProbe":
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        gc.callbacks.remove(self)


# -- (a) nothing collects inside a compile ------------------------------------


class TestQuietRegion:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_no_collection_starts_inside_a_compile(self, name):
        assert gc.isenabled()
        source = PROGRAMS[name]
        with CollectionProbe() as probe:
            # Young counts start from zero, so the few allocations between
            # arming the probe and entering the region cannot reach a
            # threshold of their own.
            gc.collect()
            probe.armed = True
            result = compile_program(source)
            probe.armed = False
            assert probe.started == []
            # The interpreter's thresholds resume with the region's
            # allocations counted: the next tracked allocation collects.
            probe.armed = True
            tracked = [[] for _ in range(8)]
            probe.armed = False
            assert probe.started and probe.started[0] == 0, tracked
        assert result.call_sites() > 0

    def test_source_has_no_collector_tuning(self):
        # The region pauses and resumes; it never collects or re-tunes.
        for path in pathlib.Path(affine.__file__).parent.rglob("*.py"):
            text = path.read_text()
            for banned in ("gc.collect", "gc.set_threshold", "gc.freeze"):
                assert banned not in text, f"{banned} in {path}"


# -- (b) the caller's collector state comes back ------------------------------


@pytest.fixture
def collector_disabled():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def _boom(*args, **kwargs):
    raise RuntimeError("injected")


class TestCollectorStateRestored:
    def test_enabled_stays_enabled(self):
        compile_program(BENCHMARKS["trimesh"])
        assert gc.isenabled()

    def test_caller_disabled_stays_disabled(self, collector_disabled):
        compile_program(BENCHMARKS["trimesh"])
        assert not gc.isenabled()
        compile_all_strategies(BENCHMARKS["trimesh"])
        assert not gc.isenabled()

    def test_semantic_error(self):
        with pytest.raises(SemanticError):
            compile_program(BAD_SOURCE)
        assert gc.isenabled()

    def test_semantic_error_with_collector_disabled(self, collector_disabled):
        with pytest.raises(SemanticError):
            compile_program(BAD_SOURCE)
        assert not gc.isenabled()

    def test_internal_compiler_error(self, monkeypatch):
        monkeypatch.setattr(pipeline, "scalarize", _boom)
        with pytest.raises(InternalCompilerError):
            compile_program(BENCHMARKS["trimesh"])
        assert gc.isenabled()

    def test_strict_raw_exception(self, monkeypatch):
        monkeypatch.setattr(pipeline, "analyze_entries", _boom)
        with pytest.raises(RuntimeError, match="injected"):
            compile_program(
                BENCHMARKS["trimesh"], options=CompilerOptions(strict=True)
            )
        assert gc.isenabled()

    def test_degraded_pass_swallows_nothing(self, monkeypatch):
        # The region sits outside the PassManager's fault boundary.
        monkeypatch.setattr(pipeline, "redundancy_eliminate", _boom)
        result = compile_program(BENCHMARKS["trimesh"])
        assert result.degraded and gc.isenabled()

    def test_all_strategies_and_exact_pipeline(self):
        results = compile_all_strategies(BENCHMARKS["trimesh"])
        assert set(results) == set(Strategy) and gc.isenabled()
        compile_program(BENCHMARKS["trimesh"], options=CompilerOptions(
            pass_pipeline=("exact",), solver_budget_ms=50,
        ))
        assert gc.isenabled()

    def test_region_is_reentrant(self):
        quiet = pipeline._collector_quiet
        with quiet:
            assert not gc.isenabled()
            with quiet:
                compile_program(BENCHMARKS["trimesh"])
                assert not gc.isenabled()
            assert not gc.isenabled()
        assert gc.isenabled()

    def test_two_threads_compiling_at_once(self, monkeypatch):
        """The collector is never re-enabled while another compile is
        inside, and is enabled when the last one leaves."""
        inside = threading.Event()
        release = threading.Event()
        real_scalarize = pipeline.scalarize
        slow = threading.local()

        def scalarize(program, info):
            if getattr(slow, "waits", False):
                inside.set()
                assert release.wait(30.0)
            return real_scalarize(program, info)

        monkeypatch.setattr(pipeline, "scalarize", scalarize)
        outcome: dict[str, object] = {}

        def held_compile():
            slow.waits = True
            outcome["held"] = compile_program(BENCHMARKS["trimesh"])

        holder = threading.Thread(target=held_compile)
        holder.start()
        try:
            assert inside.wait(30.0)
            assert not gc.isenabled()

            def passing_compile():
                outcome["passing"] = compile_program(BENCHMARKS["gravity"])
                outcome["enabled_after_passing"] = gc.isenabled()

            passer = threading.Thread(target=passing_compile)
            passer.start()
            passer.join(60.0)
            assert not passer.is_alive()
            assert outcome["enabled_after_passing"] is False
            assert not gc.isenabled()
        finally:
            release.set()
            holder.join(60.0)
        assert not holder.is_alive()
        assert outcome["held"].call_sites() > 0
        assert outcome["passing"].call_sites() > 0
        assert gc.isenabled()

    def test_depth_counter_under_contention(self):
        """More threads than cores hammering the region with a short
        switch interval: a lost update of the depth counter would leave
        the collector enabled inside a region or disabled after all."""
        quiet = pipeline._collector_quiet
        seen_enabled_inside: list[int] = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)

        def hammer(worker: int) -> None:
            for _ in range(300):
                with quiet:
                    if gc.isenabled():
                        seen_enabled_inside.append(worker)

        threads = [threading.Thread(target=hammer, args=(w,)) for w in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen_enabled_inside == []
        assert quiet._depth == 0 and gc.isenabled()


# -- (c) deterministic budgets -------------------------------------------------


def counted(fn):
    def counting(*args, **kwargs):
        counting.calls += 1
        return fn(*args, **kwargs)

    counting.calls = 0
    return counting


class TestBudgets:
    #: ``Affine`` constructions of one ``orig`` compile of STENCIL64 from
    #: a cold symbol pool: at the commit before the allocation diet, and
    #: at the one that introduced it.
    PARENT_CONSTRUCTIONS = 19506
    CONSTRUCTIONS = 4760
    #: Subscript normalizations (``LoopContext.normalize`` calls; every
    #: reference of STENCIL64 has two subscripts), likewise.
    PARENT_NORMALIZATIONS = 4012
    NORMALIZATIONS = 384

    def _counts(self, monkeypatch):
        built = counted(Affine.__init__)
        normalized = counted(LoopContext.normalize)
        monkeypatch.setattr(affine, "_SYMBOLS", {})  # whatever ran before
        monkeypatch.setattr(Affine, "__init__", built)
        monkeypatch.setattr(LoopContext, "normalize", normalized)
        result = compile_program(STENCIL64, strategy="orig")
        monkeypatch.undo()
        return result, built.calls, normalized.calls

    def test_each_reference_is_normalized_once(self, monkeypatch):
        result, _, normalizations = self._counts(monkeypatch)
        entries = len(result.entries)
        defs = sum(1 for _ in result.ctx.cfg.assigns())
        assert (entries, defs) == (128, 64)
        # Two subscripts per reference; a use is normalized on the use
        # side, a def on the def side, nothing per (def, use) pair.
        assert normalizations <= 2 * (2 * entries + defs)
        assert normalizations == self.NORMALIZATIONS < self.PARENT_NORMALIZATIONS

    def test_affine_constructions(self, monkeypatch):
        _, constructions, _ = self._counts(monkeypatch)
        assert constructions <= self.CONSTRUCTIONS
        assert self.CONSTRUCTIONS <= 0.8 * self.PARENT_CONSTRUCTIONS


# -- per-reference forms are the per-pair forms --------------------------------


def recorded_queries(ctx):
    """Every flow-dependence test one analysis of ``ctx`` runs, with its
    verdict."""
    queries = []
    real = DependenceTester._test

    def recording(self, def_stmt, def_ref, use_stmt, use_ref):
        verdict = real(self, def_stmt, def_ref, use_stmt, use_ref)
        queries.append((def_stmt, def_ref, use_stmt, use_ref, verdict))
        return verdict

    DependenceTester._test = recording
    try:
        analyze_entries(ctx)
    finally:
        DependenceTester._test = real
    return queries


class TestPerReferenceForms:
    @pytest.mark.parametrize("caches", [True, False], ids=["caches", "no-caches"])
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_verdicts_equal_a_per_pair_rebuild(self, name, caches):
        source = stencil(12) if name == "stencil64" else PROGRAMS[name]
        ctx = compile_to_context(source, options=CompilerOptions(enable_caches=caches))
        queries = recorded_queries(ctx)
        assert queries
        for def_stmt, def_ref, use_stmt, use_ref, verdict in queries:
            # A tester nobody has asked anything: every form is rebuilt
            # for this pair alone.
            fresh = DependenceTester(ctx.info, ctx.cfg, cache_enabled=False)
            rebuilt = fresh.flow_dependence(def_stmt, def_ref, use_stmt, use_ref)
            assert rebuilt == verdict, (str(def_stmt), str(use_stmt))

    def test_equal_verdicts_are_one_object(self):
        ctx = compile_to_context(stencil(12))
        verdicts = [q[-1] for q in recorded_queries(ctx)]
        assert len(verdicts) > len(set(verdicts))
        assert len({id(v) for v in verdicts}) == len(set(verdicts))

    SIDES = """
    PROGRAM sides
      PARAM n = 8
      PROCESSORS pr(2)
      REAL a(n, n)
      REAL b(n, n)
      DISTRIBUTE a(BLOCK, *) ONTO pr
      DISTRIBUTE b(BLOCK, *) ONTO pr
      DO i = 2, n
        DO j = 2, n
          a(i, j) = b(i, j - 1)
        END DO
        DO j = 2, n
          b(i, j) = a(i - 1, j) + a(i, j)
        END DO
      END DO
    END PROGRAM
    """

    def _sides(self):
        ctx = compile_to_context(self.SIDES)
        first, second = ctx.cfg.assigns()
        return ctx, first, second

    def test_one_reference_on_both_sides(self):
        """A reference asked about first as a def and later as a use is
        normalized in each side's own variables."""
        ctx, first, _ = self._sides()
        tester = ctx.tester
        ref = first.lhs  # a(i, j)
        loops = ctx.cfg.node_of_stmt(first).loops_containing()
        as_def = tester._ref_forms(ref, loops, "d")
        as_use = tester._ref_forms(ref, loops, "u")
        assert [str(f) for f in as_def.forms] == ["i'd1+2", "j'd2+2"]
        assert [str(f) for f in as_use.forms] == ["i'u1+2", "j'u2+2"]
        assert [nl.norm_var for nl in as_def.loops] == ["i'd1", "j'd2"]
        assert [nl.norm_var for nl in as_use.loops] == ["i'u1", "j'u2"]
        # Asked again, neither side is normalized again.
        again = tester._ref_forms(ref, loops, "d")
        assert again.forms is as_def.forms and again.ranges is as_def.ranges

    def test_one_def_under_two_common_nesting_levels(self):
        """``a(i, j)`` shares both loops with its own statement's reads
        and only the ``i`` loop with the second nest."""
        ctx, first, second = self._sides()
        tester = ctx.tester
        across = [r for r in _array_refs(second.rhs) if r.name == "a"]
        deep = tester.flow_dependence(first, first.lhs, first, first.lhs)
        shallow = [
            tester.flow_dependence(first, first.lhs, second, ref) for ref in across
        ]
        assert deep.cnl == 2 and all(v.cnl == 1 for v in shallow)
        # a(i-1, j) reads what the previous i iteration wrote; a(i, j)
        # what this one did.
        assert [(sorted(v.carried_levels), v.loop_independent) for v in shallow] == [
            ([1], False), ([], True),
        ]
        for ref, verdict in zip(across, shallow):
            fresh = DependenceTester(ctx.info, ctx.cfg, cache_enabled=False)
            assert fresh.flow_dependence(first, first.lhs, second, ref) == verdict


def _array_refs(expr):
    return [e for e in ast.walk_expr(expr) if isinstance(e, ast.ArrayRef)]
