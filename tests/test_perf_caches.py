"""Cache-ablation equivalence suite.

Every memoized analysis cache (section, dependence, loop-context,
combinability, subsumption) sits behind ``CompilerOptions.enable_caches``.
The caches are pure speedups: compiling with them on and off must produce
*identical* schedules — same Figure-10 message counts, same placement
report, byte for byte — on every paper benchmark, every strategy, and on
randomly generated programs.  This suite is the proof obligation for that
claim, plus correctness tests for the batch driver's content-hash result
cache and the O(1) dominator-depth table.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings

from repro.codegen.report import schedule_report
from repro.core.context import AnalysisContext, CompilerOptions
from repro.core.pipeline import Strategy, compile_program
from repro.evaluation.programs import BENCHMARKS, synthetic_program
from repro.frontend.analysis import elaborate
from repro.frontend.parser import parse
from repro.frontend.scalarizer import scalarize
from repro.perf.batch import BatchCompiler, BatchJob, job_key

from test_property_pipeline import program_source

CACHED = CompilerOptions()
UNCACHED = CompilerOptions(enable_caches=False)


def _schedule_fingerprint(source, strategy, options, params=None):
    result = compile_program(source, params, strategy, options)
    return (
        result.call_sites(),
        result.call_sites_by_kind(),
        schedule_report(result),
    )


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
@pytest.mark.parametrize("strategy", list(Strategy))
def test_caches_do_not_change_benchmark_schedules(name, strategy):
    """Figure-10 counts and the full placement report are identical with
    caches on and off, for every benchmark x strategy pair."""
    source = BENCHMARKS[name]
    cached = _schedule_fingerprint(source, strategy, CACHED)
    uncached = _schedule_fingerprint(source, strategy, UNCACHED)
    assert cached == uncached


def test_caches_do_not_change_synthetic_schedule():
    source = synthetic_program(16)
    assert _schedule_fingerprint(
        source, Strategy.GLOBAL, CACHED
    ) == _schedule_fingerprint(source, Strategy.GLOBAL, UNCACHED)


@settings(max_examples=25, deadline=None)
@given(source=program_source())
def test_caches_do_not_change_random_schedules(source):
    for strategy in Strategy:
        assert _schedule_fingerprint(
            source, strategy, CACHED
        ) == _schedule_fingerprint(source, strategy, UNCACHED)


def test_cache_stats_track_lookups_only_when_enabled():
    source = BENCHMARKS["shallow"]
    cached = compile_program(source, options=CACHED)
    rates = cached.ctx.cache_stats.as_dict()
    assert rates["section"]["hits"] + rates["section"]["misses"] > 0
    assert rates["dependence"]["hits"] + rates["dependence"]["misses"] > 0

    uncached = compile_program(source, options=UNCACHED)
    for stats in uncached.ctx.cache_stats.as_dict().values():
        assert stats["hits"] == 0 and stats["misses"] == 0


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_subsumes_cache_hits_across_strategies(name):
    """The subsumption verdict cache is keyed canonically (Use-identity
    pair + hash-consed section pair), so the shared-context multi-strategy
    compile must actually reuse verdicts — a nonzero hit rate on every
    benchmark.  Guards against regressing to a dead cache key."""
    from repro.core.pipeline import compile_all_strategies

    results = compile_all_strategies(BENCHMARKS[name], options=CACHED)
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
        dataclasses.replace(SHALLOW_JOB, options=UNCACHED)
    )
    # Spelled-out strategy aliases hash identically.
    assert job_key(
        dataclasses.replace(SHALLOW_JOB, options=CompilerOptions())
    ) == job_key(SHALLOW_JOB)


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


def test_batch_results_independent_of_cache_options():
    """A batch compiled with caches off reports the same schedules."""
    jobs = [
        BatchJob(name=name, source=source, options=options)
        for name, source in sorted(BENCHMARKS.items())[:2]
        for options in (CACHED, UNCACHED)
    ]
    results = BatchCompiler().run(jobs)
    by_name: dict[str, list] = {}
    for r in results:
        by_name.setdefault(r.name, []).append(r)
    for name, (on, off) in by_name.items():
        assert on.call_sites == off.call_sites
        assert on.call_sites_by_kind == off.call_sites_by_kind
        assert on.entries == off.entries
