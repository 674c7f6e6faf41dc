"""The batch driver on the shared two-tier ScheduleCache: disk-tier
reuse across runs, durability policy, result streaming, one cache
directory shared with the compile service in both directions, and the
one-of-each structure behind it (one worker entry, one pool owner, one
record, no import cycle)."""

from __future__ import annotations

import ast
import asyncio
import dataclasses
from pathlib import Path

from repro.perf.batch import BatchCompiler, BatchJob, benchmark_jobs, job_key
from repro.perf.cache import ScheduleCache
from repro.service.app import CompileRequest, CompileService
from repro.service.payload import is_payload

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
    # a pathologically small memory budget (one or two payloads of
    # about 1 KiB) forces evictions mid-run; the disk tier must still
    # deliver every result
    cache = ScheduleCache(memory_budget_bytes=2048, cache_dir=tmp_path)
    jobs = benchmark_jobs(strategies=("comb",))
    compiler = BatchCompiler(cache=cache)
    results = compiler.run(jobs)
    assert all(r.ok for r in results)
    assert cache.stats.evictions > 0
    # second run: fresh memory, everything readable from disk
    cache2 = ScheduleCache(memory_budget_bytes=2048, cache_dir=tmp_path)
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


# -- one cache directory, two front ends --------------------------------------

SHARED_JOBS = benchmark_jobs(strategies=("orig", "comb"))


def _serve(cache_dir, jobs):
    """Every job as one request to a fresh in-process service over
    ``cache_dir``: (responses, service)."""

    async def go():
        service = CompileService(
            workers=0, cache=ScheduleCache(cache_dir=cache_dir)
        )
        await service.start()
        try:
            return [
                await service.handle_compile(CompileRequest(
                    source=job.source, params=job.params,
                    strategy=job.strategy, options=job.options,
                ))
                for job in jobs
            ], service
        finally:
            await service.close()

    return asyncio.run(go())


def test_batch_warmed_dir_serves_the_service(tmp_path):
    BatchCompiler(cache_dir=tmp_path).run(SHARED_JOBS)
    responses, service = _serve(tmp_path, SHARED_JOBS)
    assert [(r.status, r.body["cache"]) for r in responses] == [
        (200, "disk")
    ] * len(SHARED_JOBS)
    assert service.stats.compiled == 0


def test_service_warmed_dir_serves_the_batch(tmp_path):
    warm, _ = _serve(tmp_path, SHARED_JOBS)
    compiler = BatchCompiler(cache_dir=tmp_path)
    results = compiler.run(SHARED_JOBS)
    assert all(r.from_cache for r in results)
    assert compiler.stats.compiled == 0
    for res, served in zip(results, warm):
        assert res.call_sites == served.body["result"]["call_sites"]
    # ... and the batch left the directory as the service needs it
    responses, service = _serve(tmp_path, SHARED_JOBS)
    assert all(r.status == 200 for r in responses)
    assert service.stats.compiled == 0


def test_pre_change_record_on_disk_is_a_miss(tmp_path):
    """A record an older batch driver wrote (its checksum intact) is a
    miss: counted, recompiled and rewritten — not a 500."""
    job = BatchJob(name="good", source=GOOD)
    key = job_key(job)
    ScheduleCache(cache_dir=tmp_path).put(key, {
        "name": "good", "key": key, "strategy": "comb", "call_sites": 1,
        "call_sites_by_kind": {"shift": 1}, "entries": 1, "eliminated": 0,
        "elapsed": 0.01, "from_cache": False, "error": "",
        "pass_times_ms": {},
    })
    (response,), service = _serve(tmp_path, [job])
    assert response.status == 200 and response.body["cache"] is None
    assert service.stats.compiled == 1
    assert service.cache.stats.misses == service.cache.stats.corrupt == 1
    assert is_payload(ScheduleCache(cache_dir=tmp_path).get(key))


# -- one of each ----------------------------------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


def test_only_the_service_builds_a_process_pool():
    owners = sorted(
        str(path.relative_to(SRC)) for path in SRC.rglob("*.py")
        if "ProcessPoolExecutor(" in path.read_text()
    )
    assert owners == ["service/app.py"]


def test_every_cached_value_is_a_compile_payload(tmp_path, monkeypatch):
    """Fresh compiles, program errors and a checkpoint resume all put
    nothing but compile payloads into the cache."""
    real_put = ScheduleCache.put

    def checked_put(self, key, value, durable=True):
        assert is_payload(value), value
        real_put(self, key, value, durable)

    monkeypatch.setattr(ScheduleCache, "put", checked_put)
    ckpt = tmp_path / "ckpt.json"
    jobs = [BatchJob(name="good", source=GOOD), BatchJob(name="bad", source=BAD)]
    BatchCompiler(checkpoint_path=ckpt, cache_dir=tmp_path / "c").run(jobs)
    BatchCompiler(checkpoint_path=ckpt).run(jobs)
    _serve(tmp_path / "c", jobs)


def _module_imports(path: Path, module: str, package: bool) -> set[str]:
    """The repro modules ``module`` imports when it is loaded: its
    top-level import statements, relative ones resolved."""
    base = module if package else module.rpartition(".")[0]
    out: set[str] = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.Import):
            out.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            parent = base
            for _ in range(node.level - 1):
                parent = parent.rpartition(".")[0]
            target = (
                f"{parent}.{node.module}" if node.level and node.module
                else parent if node.level else node.module
            )
            out.add(target)
            out.update(f"{target}.{a.name}" for a in node.names)
    return {m for m in out if m.startswith("repro")}


def test_import_graph_has_no_cycle_at_module_load():
    graph: dict[str, set[str]] = {}
    for path in SRC.rglob("*.py"):
        parts = ("repro",) + path.relative_to(SRC).with_suffix("").parts
        package = parts[-1] == "__init__"
        module = ".".join(parts[:-1] if package else parts)
        graph[module] = _module_imports(path, module, package)
    for module, deps in graph.items():
        # importing a submodule loads its package first: not an edge
        graph[module] = {
            d for d in deps if d in graph and not module.startswith(d + ".")
        }
    done: set[str] = set()

    def visit(module: str, stack: list[str]) -> None:
        assert module not in stack, " -> ".join(stack + [module])
        if module in done:
            return
        for dep in sorted(graph[module]):
            visit(dep, stack + [module])
        done.add(module)

    for module in sorted(graph):
        visit(module, [])
