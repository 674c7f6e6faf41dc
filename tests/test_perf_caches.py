"""Memo-cache equivalence suite.

Every memoized analysis cache (section, live-range, dependence,
loop-context, combinability, subsumption) is a pure speedup, always on.
The proof obligation: every verdict a compile is served — hit or miss —
equals the same query asked of an object that has answered nothing
before (``SectionBuilder._build``, a new ``DependenceTester``,
``_combinable_at_impl``, ``_subsumes_at_impl``), on every paper
benchmark under every strategy and on randomly generated programs.  The
file also holds correctness tests for the batch driver's content-hash
result cache and the O(1) dominator-depth table.
"""

from __future__ import annotations

import contextlib
import dataclasses

import pytest
from hypothesis import given, settings

from repro.comm.entries import SectionBuilder
from repro.core import greedy, redundancy
from repro.core.context import AnalysisContext, CompilerOptions
from repro.core.pipeline import Strategy, compile_program
from repro.dependence.tests import DependenceTester
from repro.evaluation.programs import BENCHMARKS, synthetic_program
from repro.frontend.analysis import elaborate
from repro.frontend.parser import parse
from repro.frontend.scalarizer import scalarize
from repro.machine.model import NOW, SP2
from repro.perf.batch import BatchCompiler, BatchJob, job_key

from test_property_pipeline import program_source


@contextlib.contextmanager
def served_verdicts():
    """Record every memoized verdict served while the block runs, by
    cache name, as ``(object asked, query arguments, verdict)``."""
    log: dict[str, list] = {
        "combinable": [], "subsumes": [], "section": [], "dependence": [],
    }
    patches = [
        (greedy, "_combinable_at", "combinable"),
        (redundancy, "subsumes_at", "subsumes"),
        (SectionBuilder, "section_at", "section"),
        (DependenceTester, "flow_dependence", "dependence"),
    ]
    real = [getattr(owner, name) for owner, name, _ in patches]

    def recorder(fn, cache):
        def served(asked, *args):
            verdict = fn(asked, *args)
            log[cache].append((asked, args, verdict))
            return verdict
        return served

    for (owner, name, cache), fn in zip(patches, real):
        setattr(owner, name, recorder(fn, cache))
    try:
        yield log
    finally:
        for (owner, name, _), fn in zip(patches, real):
            setattr(owner, name, fn)


#: cache name -> the same query on an object that has answered nothing
FRESH = {
    "combinable": lambda ctx, args: greedy._combinable_at_impl(ctx, *args),
    "subsumes": lambda ctx, args: redundancy._subsumes_at_impl(ctx, *args),
    "section": lambda builder, args: SectionBuilder(
        builder.info, builder.cfg
    )._build(*args),
    "dependence": lambda tester, args: DependenceTester(
        tester.info, tester.cfg
    ).flow_dependence(*args),
}


def assert_verdicts_fresh(source, strategy) -> tuple:
    """Compile; every verdict served equals the fresh query's.  Returns
    the log and the result."""
    with served_verdicts() as log:
        result = compile_program(source, strategy=strategy)
    for cache, served in log.items():
        checked: set = set()
        for asked, args, verdict in served:
            key = (id(asked), *map(id, args), id(verdict))
            if key in checked:
                continue
            checked.add(key)
            assert FRESH[cache](asked, args) == verdict, (cache, args)
    return log, result


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_caches_do_not_change_benchmark_schedules(name, strategy):
    """Every served verdict equals a fresh query, for every benchmark x
    strategy pair — so the caches cannot change a schedule."""
    log, _ = assert_verdicts_fresh(BENCHMARKS[name], strategy)
    assert log["dependence"]
    if strategy is Strategy.GLOBAL:
        assert all(log.values())


def test_caches_do_not_change_synthetic_schedule():
    log, _ = assert_verdicts_fresh(synthetic_program(16), Strategy.GLOBAL)
    assert all(log.values())


@settings(max_examples=25, deadline=None)
@given(source=program_source())
def test_caches_do_not_change_random_schedules(source):
    for strategy in Strategy:
        assert_verdicts_fresh(source, strategy)


def test_cache_stats_count_every_lookup():
    """Each served verdict is one hit or one miss of its cache."""
    with served_verdicts() as log:
        result = compile_program(BENCHMARKS["shallow"])
    rates = result.ctx.cache_stats.as_dict()
    for cache, served in log.items():
        assert rates[cache]["hits"] + rates[cache]["misses"] == len(served)
    assert rates["section"]["hits"] > 0 and rates["dependence"]["hits"] > 0


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_subsumes_cache_hits_across_strategies(name):
    """The subsumption verdict cache is keyed canonically (Use-identity
    pair + hash-consed section pair), so the shared-context multi-strategy
    compile must actually reuse verdicts — a nonzero hit rate on every
    benchmark.  Guards against regressing to a dead cache key."""
    from repro.core.pipeline import compile_all_strategies

    results = compile_all_strategies(BENCHMARKS[name])
    ctx = next(iter(results.values())).ctx
    # Strategies share one context by construction.
    assert all(r.ctx is ctx for r in results.values())
    subs = ctx.cache_stats.as_dict().get("subsumes")
    assert subs is not None and subs["hits"] > 0, subs


# -- dominator depth table ---------------------------------------------------


def _elaborated(source, params=None):
    program = parse(source)
    info = elaborate(program, params)
    scalarized = scalarize(program, info)
    return elaborate(scalarized, params)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_dominator_depth_matches_parent_walk(name):
    """The O(1) depth table agrees with the idom parent-chain walk it
    replaced, on every node of every benchmark CFG."""
    ctx = AnalysisContext(_elaborated(BENCHMARKS[name]))
    dom = ctx.dom
    for node in ctx.cfg.nodes:
        depth = 0
        cursor = node
        while True:
            parent = dom.dom_tree_parent(cursor)
            if parent is None:
                break
            depth += 1
            cursor = parent
        assert dom.dominator_depth(node) == depth


# -- batch driver ------------------------------------------------------------

SHALLOW_JOB = BatchJob(name="shallow", source=BENCHMARKS["shallow"])


def test_job_key_is_stable_and_content_sensitive():
    assert job_key(SHALLOW_JOB) == job_key(
        dataclasses.replace(SHALLOW_JOB, name="renamed")
    ), "the job name must not affect the content hash"
    assert job_key(SHALLOW_JOB) != job_key(
        dataclasses.replace(SHALLOW_JOB, source=SHALLOW_JOB.source + "\n")
    )
    assert job_key(SHALLOW_JOB) != job_key(
        dataclasses.replace(SHALLOW_JOB, strategy="orig")
    )
    assert job_key(SHALLOW_JOB) != job_key(
        dataclasses.replace(SHALLOW_JOB, params={"n": 128})
    )
    assert job_key(SHALLOW_JOB) != job_key(
        dataclasses.replace(
            SHALLOW_JOB, options=CompilerOptions(greedy_order="reversed")
        )
    )
    # Spelled-out strategy aliases hash identically.
    assert job_key(
        dataclasses.replace(SHALLOW_JOB, options=CompilerOptions())
    ) == job_key(SHALLOW_JOB)


@pytest.mark.parametrize("one, other", [
    ({"machine": "SP2"}, {"machine": SP2}),
    ({"machine": "NOW"}, {"machine": NOW}),
    ({"disabled_passes": ("subset", "redundancy")},
     {"disabled_passes": ("redundancy", "subset")}),
    ({"disabled_passes": ("subset",)},
     {"disabled_passes": ("subset", "subset")}),
], ids=["SP2", "NOW", "pass-order", "pass-repeat"])
def test_one_schedule_one_key(one, other):
    """Spellings of the same options share a key (one compile, one
    cache entry)."""
    keys = {
        job_key(dataclasses.replace(
            SHALLOW_JOB, options=CompilerOptions(**options)
        ))
        for options in (one, other)
    }
    assert len(keys) == 1


#: a value other than the default for every CompilerOptions field
CHANGED = {
    "combine_threshold_bytes": 4096,
    "machine": "NOW",
    "hull_slack": 0.5,
    "hull_const": 32,
    "greedy_order": "arbitrary",
    "reduction_flexibility": True,
    "group_placement": "earliest",
    "strict": True,
    "placement_search": "ilp",
    "solver_budget_ms": 10,
    "disabled_passes": ("subset",),
    "pass_pipeline": ("greedy",),
}


def test_every_field_changes_the_key():
    names = [f.name for f in dataclasses.fields(CompilerOptions)]
    assert sorted(CHANGED) == sorted(names)
    base = job_key(SHALLOW_JOB)
    keys = {
        job_key(dataclasses.replace(
            SHALLOW_JOB, options=CompilerOptions(**{name: value})
        ))
        for name, value in CHANGED.items()
    }
    assert base not in keys and len(keys) == len(CHANGED)
    # a calibrated model named like a preset is not the preset
    calibrated = dataclasses.replace(SP2, startup_s=SP2.startup_s * 2)
    assert job_key(dataclasses.replace(
        SHALLOW_JOB, options=CompilerOptions(machine=calibrated)
    )) != base


def test_batch_cache_hit_matches_fresh_compile():
    compiler = BatchCompiler()
    (fresh,) = compiler.run([SHALLOW_JOB])
    (hit,) = compiler.run([dataclasses.replace(SHALLOW_JOB, name="again")])

    assert not fresh.from_cache and hit.from_cache
    assert hit.name == "again"
    assert hit.elapsed == 0.0
    for field in ("key", "strategy", "call_sites", "call_sites_by_kind",
                  "entries", "eliminated", "error"):
        assert getattr(hit, field) == getattr(fresh, field)

    # And the summary matches a direct compile.
    direct = compile_program(SHALLOW_JOB.source)
    assert fresh.call_sites == direct.call_sites()
    assert fresh.call_sites_by_kind == direct.call_sites_by_kind()
    assert fresh.entries == len(direct.entries)


def test_batch_dedupes_within_one_run():
    compiler = BatchCompiler()
    results = compiler.run([SHALLOW_JOB, SHALLOW_JOB, SHALLOW_JOB])
    assert [r.from_cache for r in results] == [False, True, True]
    assert compiler.stats.compiled == 1
    assert compiler.stats.deduped == 2
    assert compiler.stats.cache_hits == 0

    compiler.run([SHALLOW_JOB])
    assert compiler.stats.cache_hits == 1
    assert compiler.stats.compiled == 1


def test_batch_surfaces_errors_without_killing_the_run():
    bad = BatchJob(name="bad", source="PROGRAM broken\nEND oops")
    compiler = BatchCompiler()
    results = compiler.run([bad, SHALLOW_JOB])
    assert not results[0].ok and results[0].error
    assert results[1].ok
    assert compiler.stats.errors == 1


def test_batch_results_independent_of_option_spelling():
    """Two spellings of one schedule's options are one job: the second
    is deduped onto the first and reports its schedule."""
    spellings = (
        CompilerOptions(machine="NOW", disabled_passes=("subset", "greedy")),
        CompilerOptions(machine=NOW, disabled_passes=("greedy", "subset")),
    )
    jobs = [
        BatchJob(name=name, source=source, options=options)
        for name, source in sorted(BENCHMARKS.items())[:2]
        for options in spellings
    ]
    compiler = BatchCompiler()
    results = compiler.run(jobs)
    assert compiler.stats.compiled == 2 and compiler.stats.deduped == 2
    for first, second in zip(results[::2], results[1::2]):
        assert first.key == second.key
        assert first.call_sites == second.call_sites
        assert first.call_sites_by_kind == second.call_sites_by_kind
        assert first.entries == second.entries
