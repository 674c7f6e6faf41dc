"""The batch driver on the shared two-tier ScheduleCache: disk-tier
reuse across runs, durability policy, and result streaming."""

from __future__ import annotations

import dataclasses

from repro.perf.batch import BatchCompiler, BatchJob, benchmark_jobs
from repro.perf.cache import ScheduleCache

GOOD = """PROGRAM good
PARAM n = 8
PROCESSORS p(2)
REAL a(n)
REAL b(n)
DISTRIBUTE a(BLOCK) ONTO p
DISTRIBUTE b(BLOCK) ONTO p
b(2:n-1) = a(1:n-2)
END PROGRAM
"""

BAD = "PROGRAM broken\nREAL a(n)\nEND PROGRAM\n"


def test_second_run_hits_disk_tier_at_100_percent(tmp_path):
    jobs = benchmark_jobs(strategies=("comb", "nored"))
    first = BatchCompiler(cache_dir=tmp_path)
    results = first.run(jobs)
    assert all(r.ok for r in results)
    distinct = first.stats.compiled
    assert distinct == len(jobs)

    # a fresh compiler (fresh memory tier) over the same directory must
    # serve every job from disk: zero compiles, zero misses
    second = BatchCompiler(cache_dir=tmp_path)
    results2 = second.run(jobs)
    assert all(r.from_cache for r in results2)
    assert second.stats.compiled == 0
    assert second.cache.stats.disk_hits == distinct
    assert second.cache.stats.memory_hits == 0
    assert second.cache.stats.misses == 0
    by_name = {r.name: r for r in results}
    for r in results2:
        assert r.call_sites == by_name[r.name].call_sites
        assert r.call_sites_by_kind == by_name[r.name].call_sites_by_kind


def test_failures_are_not_persisted_to_disk(tmp_path):
    jobs = [BatchJob(name="bad", source=BAD)]
    first = BatchCompiler(cache_dir=tmp_path)
    (res,) = first.run(jobs)
    assert not res.ok

    second = BatchCompiler(cache_dir=tmp_path)
    (res2,) = second.run(jobs)
    assert not res2.ok
    assert not res2.from_cache  # re-derived, not served from disk
    assert second.cache.stats.disk_hits == 0


def test_shared_cache_instance_serves_memory_hits():
    cache = ScheduleCache()
    jobs = [BatchJob(name="good", source=GOOD)]
    BatchCompiler(cache=cache).run(jobs)
    other = BatchCompiler(cache=cache)
    (res,) = other.run(jobs)
    assert res.from_cache
    assert other.stats.compiled == 0
    assert cache.stats.memory_hits >= 1


def test_on_result_streams_every_delivery(tmp_path):
    seen: list[tuple[str, bool]] = []
    jobs = [
        BatchJob(name="a", source=GOOD),
        BatchJob(name="b", source=GOOD,
                 options=None),  # same key as "a": deduped
        BatchJob(name="c", source=BAD),
    ]
    compiler = BatchCompiler(
        cache_dir=tmp_path,
        on_result=lambda r: seen.append((r.name, r.from_cache)),
    )
    results = compiler.run(jobs)
    assert len(results) == 3
    # one callback per *delivered* result, fresh and cached alike
    assert sorted(n for n, _ in seen) == ["a", "b", "c"]
    fresh = [n for n, cached in seen if not cached]
    assert "a" in fresh and "c" in fresh


def test_checkpoint_and_cache_dir_compose(tmp_path):
    jobs = [BatchJob(name="good", source=GOOD)]
    ckpt = tmp_path / "ckpt.json"
    cache_dir = tmp_path / "cache"
    BatchCompiler(checkpoint_path=ckpt, cache_dir=cache_dir).run(jobs)
    assert ckpt.exists()
    # resume path: the checkpoint seeds the cache, disk tier intact
    resumed = BatchCompiler(checkpoint_path=ckpt, cache_dir=cache_dir)
    (res,) = resumed.run(jobs)
    assert res.from_cache
    assert resumed.stats.resumed == 1


def test_results_survive_cache_eviction_within_run(tmp_path):
    # a pathologically small memory budget forces evictions mid-run; the
    # disk tier must still deliver every result
    cache = ScheduleCache(memory_budget_bytes=512, cache_dir=tmp_path)
    jobs = benchmark_jobs(strategies=("comb",))
    compiler = BatchCompiler(cache=cache)
    results = compiler.run(jobs)
    assert all(r.ok for r in results)
    assert cache.stats.evictions > 0
    # second run: fresh memory, everything readable from disk
    cache2 = ScheduleCache(memory_budget_bytes=512, cache_dir=tmp_path)
    results2 = BatchCompiler(cache=cache2).run(jobs)
    assert all(r.from_cache for r in results2)


def test_repeat_run_uses_memory_tier():
    compiler = BatchCompiler()
    jobs = [BatchJob(name="good", source=GOOD)]
    compiler.run(jobs)
    (res,) = compiler.run(jobs)
    assert res.from_cache and res.elapsed == 0.0
    assert compiler.cache.stats.memory_hits >= 1


def test_distinct_options_do_not_collide(tmp_path):
    from repro.core.context import CompilerOptions

    jobs = [
        BatchJob(name="default", source=GOOD),
        BatchJob(name="now", source=GOOD,
                 options=CompilerOptions(machine="NOW")),
    ]
    compiler = BatchCompiler(cache_dir=tmp_path)
    results = compiler.run(jobs)
    assert compiler.stats.compiled == 2  # different keys, no dedup
    assert all(r.ok for r in results)


def test_dataclass_replace_keeps_cache_copies_independent():
    compiler = BatchCompiler()
    jobs = [BatchJob(name="good", source=GOOD)]
    (first,) = compiler.run(jobs)
    (second,) = compiler.run(jobs)
    assert second.from_cache and not first.from_cache
    assert dataclasses.replace(second, from_cache=False) != second
