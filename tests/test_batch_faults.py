"""Crash-safety tests for the one compile driver behind ``repro batch``
and ``repro serve``: timeout, retry, quarantine, crash attribution, and
checkpoint/resume.

Worker-fault injection relies on the Linux ``fork`` start method: a
monkeypatched ``repro.service.payload.compile_worker`` in the parent is
inherited by pool workers forked afterwards, so a test can make the
*worker side* crash or hang on demand.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time

import pytest

from repro.perf.batch import (
    BatchCompiler,
    BatchJob,
    RetryPolicy,
    benchmark_jobs,
    job_key,
)
from repro.service import app as app_mod
from repro.service import payload as payload_mod
from repro.service.app import CompileRequest, CompileService

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
BAD = GOOD.replace("PROGRAM good", "PROGRAM bad")
SLOW = GOOD.replace("PROGRAM good", "PROGRAM slow")


def good_job(name: str = "good") -> BatchJob:
    return BatchJob(name=name, source=GOOD)


# -- worker-side fault injectors ---------------------------------------------
# Pool submission pickles the callable by qualified name, so injectors must
# be module-level functions (a monkeypatched closure is unpicklable).  They
# are installed as ``repro.service.payload.compile_worker`` in the parent;
# fork-started workers inherit the patched module, and the flag-file path
# in ``_FLAG_PATH`` (set before the pool spawns) crosses the fork the same
# way.  The worker sees no job names, so injectors pick their victim by
# the program's name in the source.

_REAL_COMPILE_WORKER = payload_mod.compile_worker
_FLAG_PATH = ""


def _crash_on_bad(source, *args):
    if "PROGRAM bad" in source:
        os._exit(17)  # hard worker death: BrokenProcessPool
    return _REAL_COMPILE_WORKER(source, *args)


def _always_crash(source, *args):
    os._exit(17)


def _crash_once(source, *args):
    if not os.path.exists(_FLAG_PATH):
        with open(_FLAG_PATH, "w") as fh:
            fh.write("x")
        os._exit(17)
    return _REAL_COMPILE_WORKER(source, *args)


def _hang_on_slow(source, *args):
    if "PROGRAM slow" in source:
        time.sleep(60)
    return _REAL_COMPILE_WORKER(source, *args)


def _crash_bad_slowly_compile_good(source, *args):
    """The bad program logs one pool break and dies; the good one is
    still compiling when it does, so the break takes it down too."""
    if "PROGRAM bad" in source:
        with open(_FLAG_PATH, "a") as fh:
            fh.write("x")
        os._exit(17)
    time.sleep(0.3)
    return _REAL_COMPILE_WORKER(source, *args)


def _flag_path(monkeypatch, tmp_path, name: str) -> str:
    path = str(tmp_path / name)
    monkeypatch.setattr(sys.modules[__name__], "_FLAG_PATH", path)
    return path


class TestCheckpointResume:
    def test_resume_equals_uninterrupted(self, tmp_path):
        jobs = benchmark_jobs(strategies=("orig", "comb"))
        baseline = BatchCompiler().run(jobs)

        ckpt = tmp_path / "batch.json"
        first = BatchCompiler(checkpoint_path=ckpt)
        first.run(jobs[: len(jobs) // 2])  # "killed" partway through

        resumed = BatchCompiler(checkpoint_path=ckpt)
        assert resumed.stats.resumed > 0
        results = resumed.run(jobs)
        assert [(r.name, r.key, r.call_sites, r.entries, r.error)
                for r in results] == [
            (r.name, r.key, r.call_sites, r.entries, r.error)
            for r in baseline
        ]
        # The first half came from the checkpoint, not a recompile.
        assert resumed.stats.cache_hits >= len(jobs) // 2

    def test_kill_mid_run_then_resume(self, tmp_path, monkeypatch):
        """A worker that dies mid-batch (SystemExit escapes the serial
        driver) leaves a valid checkpoint covering the finished prefix."""
        jobs = [
            BatchJob(name=f"j{i}", source=GOOD.replace("n = 8", f"n = {8 + 2 * i}"))
            for i in range(4)
        ]
        ckpt = tmp_path / "batch.json"
        calls = {"n": 0}

        def dies_after_two(*args):
            if calls["n"] >= 2:
                raise SystemExit(9)  # simulated kill -9 mid-run
            calls["n"] += 1
            return _REAL_COMPILE_WORKER(*args)

        monkeypatch.setattr(payload_mod, "compile_worker", dies_after_two)
        with pytest.raises(SystemExit):
            BatchCompiler(checkpoint_path=ckpt).run(jobs)

        monkeypatch.setattr(payload_mod, "compile_worker", _REAL_COMPILE_WORKER)
        resumed = BatchCompiler(checkpoint_path=ckpt)
        assert resumed.stats.resumed == 2
        results = resumed.run(jobs)
        baseline = BatchCompiler().run(jobs)
        assert [(r.name, r.key, r.call_sites, r.error) for r in results] == [
            (r.name, r.key, r.call_sites, r.error) for r in baseline
        ]

    def test_corrupt_checkpoint_starts_fresh(self, tmp_path):
        ckpt = tmp_path / "batch.json"
        ckpt.write_text("{truncated")
        compiler = BatchCompiler(checkpoint_path=ckpt)
        assert compiler.stats.resumed == 0
        (result,) = compiler.run([good_job()])
        assert result.ok

    def test_checkpoint_is_valid_json_after_every_job(self, tmp_path):
        ckpt = tmp_path / "batch.json"
        compiler = BatchCompiler(checkpoint_path=ckpt)
        compiler.run([good_job()])
        saved = json.loads(ckpt.read_text())
        (record,) = saved["results"].values()
        assert payload_mod.is_payload(record)
        assert saved["quarantined"] == []

    def test_changed_source_not_served_from_checkpoint(self, tmp_path):
        ckpt = tmp_path / "batch.json"
        BatchCompiler(checkpoint_path=ckpt).run([good_job()])
        changed = BatchJob(name="good", source=GOOD.replace("n = 8", "n = 16"))
        resumed = BatchCompiler(checkpoint_path=ckpt)
        (result,) = resumed.run([changed])
        assert not result.from_cache
        assert resumed.stats.cache_hits == 0


class TestWorkerCrash:
    def test_crashing_worker_quarantined_good_job_survives(self, monkeypatch):
        bad = BatchJob(name="bad", source=BAD)
        bad_key = job_key(bad)
        monkeypatch.setattr(payload_mod, "compile_worker", _crash_on_bad)
        compiler = BatchCompiler(
            workers=2,
            policy=RetryPolicy(backoff=0.0, max_retries=1, quarantine_after=2),
        )
        results = compiler.run(
            [bad, BatchJob(name="ok", source=GOOD.replace("n = 8", "n = 10"))]
        )
        by_name = {r.name: r for r in results}
        assert "quarantined" in by_name["bad"].error
        assert by_name["ok"].ok
        assert bad_key in compiler.quarantined
        assert compiler.stats.quarantined == 1

    def test_quarantined_job_not_retried_on_next_run(self, monkeypatch):
        monkeypatch.setattr(payload_mod, "compile_worker", _always_crash)
        compiler = BatchCompiler(
            workers=1,
            policy=RetryPolicy(
                timeout=30.0, backoff=0.0, max_retries=0, quarantine_after=1
            ),
        )
        (first,) = compiler.run([good_job()])
        assert "quarantined" in first.error
        monkeypatch.setattr(payload_mod, "compile_worker", _REAL_COMPILE_WORKER)
        (second,) = compiler.run([good_job()])  # answered from quarantine
        assert second.from_cache and "quarantined" in second.error

    def test_transient_crash_recovers_on_retry(self, monkeypatch, tmp_path):
        """First attempt dies, retry succeeds: the flag file is the
        cross-process 'already crashed once' signal."""
        _flag_path(monkeypatch, tmp_path, "crashed-once")
        monkeypatch.setattr(payload_mod, "compile_worker", _crash_once)
        compiler = BatchCompiler(
            workers=1,
            policy=RetryPolicy(
                timeout=30.0, backoff=0.0, max_retries=2, quarantine_after=3
            ),
        )
        (result,) = compiler.run([good_job()])
        assert result.ok
        assert compiler.stats.retries >= 1
        assert compiler.stats.quarantined == 0

    def test_unpicklable_job_is_structured_failure(self):
        """A job the pool cannot even ship to a worker must come back as
        an error result, not escape as a bare pickling exception."""
        poisoned = BatchJob(name="poison", source=GOOD, params={"n": lambda: 1})
        compiler = BatchCompiler(
            workers=2,
            policy=RetryPolicy(backoff=0.0, max_retries=0, quarantine_after=1),
        )
        (result,) = compiler.run([poisoned])
        assert not result.ok
        assert "quarantined" in result.error
        assert result.elapsed == 0.0
        json.dumps(result.as_dict())


class TestServiceCrashAttribution:
    def test_crashing_request_quarantined_good_request_survives(
        self, monkeypatch, tmp_path
    ):
        """The service twin of the batch case: one request whose worker
        dies and one good request, at once, on two workers.  The good
        one is collateral, so it is retried alone, uncharged; the bad
        one is charged only for the attempts it made alone."""
        breaks_log = _flag_path(monkeypatch, tmp_path, "pool-breaks")
        monkeypatch.setattr(
            payload_mod, "compile_worker", _crash_bad_slowly_compile_good
        )
        policy = RetryPolicy(backoff=0.05, max_retries=2, quarantine_after=3)

        async def both():
            service = CompileService(workers=2, policy=policy)
            await service.start(prewarm=False)
            try:
                return service, await asyncio.gather(
                    service.handle_compile(CompileRequest(source=BAD)),
                    service.handle_compile(CompileRequest(source=GOOD)),
                )
            finally:
                await service.close()

        service, (bad, good) = asyncio.run(both())
        assert good.status == 200
        assert bad.status == 503
        assert bad.body["error"]["message"].startswith(
            "quarantined after 3 failed attempts: worker crashed"
        )
        assert service.stats.quarantined == 1
        with open(breaks_log) as fh:
            breaks = len(fh.read())
        assert breaks == 4  # the shared pool, then three retries alone
        assert service.stats.pool_rebuilds <= breaks


class TestTimeout:
    def test_hung_job_times_out_and_quarantines(self, monkeypatch):
        monkeypatch.setattr(payload_mod, "compile_worker", _hang_on_slow)
        compiler = BatchCompiler(
            workers=2,
            policy=RetryPolicy(
                timeout=0.5, backoff=0.0, max_retries=0, quarantine_after=1
            ),
        )
        results = compiler.run(
            [
                BatchJob(name="slow", source=SLOW),
                BatchJob(name="ok", source=GOOD.replace("n = 8", "n = 10")),
            ]
        )
        by_name = {r.name: r for r in results}
        assert "quarantined" in by_name["slow"].error
        assert "timed out" in by_name["slow"].error
        assert by_name["ok"].ok
        assert compiler.stats.timeouts >= 1
        # A verdict no compile produced still summarizes (--ndjson).
        assert not by_name["slow"].from_cache
        assert by_name["slow"].elapsed == 0.0
        for r in results:
            json.dumps(r.as_dict())


class TestPolicyValidation:
    def test_default_policy_unpooled_single_worker(self):
        """No timeout and one worker: the serial path (no pool overhead)."""
        compiler = BatchCompiler()
        (result,) = compiler.run([good_job()])
        assert result.ok and not result.from_cache

    def test_timeout_forces_pool_even_with_one_worker(self, monkeypatch):
        spawned = {"pool": False}
        real_pool = app_mod.ProcessPoolExecutor

        class SpyPool(real_pool):
            def __init__(self, *args, **kwargs):
                spawned["pool"] = True
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(app_mod, "ProcessPoolExecutor", SpyPool)
        compiler = BatchCompiler(workers=1, policy=RetryPolicy(timeout=30.0))
        (result,) = compiler.run([good_job()])
        assert result.ok and spawned["pool"]
