"""Parallel batch compilation with content-hash result caching.

A build driver sitting on top of :func:`repro.core.pipeline.compile_program`:
it takes a list of :class:`BatchJob`\\ s, deduplicates them by a sha256
*content hash* over everything that determines the schedule (source text,
parameter bindings, strategy, and every :class:`CompilerOptions` field),
compiles distinct jobs — across processes when ``workers > 1`` — and
returns picklable :class:`BatchResult` summaries.

The result cache is a :class:`repro.perf.cache.ScheduleCache` — the same
two-tier implementation behind the compile service — persisting across
:meth:`BatchCompiler.run` calls (and, with ``cache_dir``, across
processes via the content-addressed disk tier), so a driver recompiling
a mostly unchanged program set (the common edit-compile loop) only pays
for the files whose content actually changed.  Full :class:`CompilationResult`
objects hold ASTs and analysis state and are deliberately *not* shipped
between processes; workers reduce them to summaries first.

Crash safety (see ``docs/ROBUSTNESS.md``):

* a :class:`RetryPolicy` gives every pooled job a wall-clock **timeout**
  and a bounded number of **retries** with exponential backoff after a
  timeout or a worker crash (``BrokenProcessPool``); the poisoned pool is
  killed and rebuilt, and retries run one job at a time so the culprit is
  attributed exactly;
* inputs that keep failing are **quarantined**: they get a structured
  error result, are never retried again by this compiler instance, and
  never take the rest of the batch down with them;
* an optional **checkpoint file** persists every finished result as it
  lands (atomic rename), so a killed ``run`` restarted with the same
  checkpoint path resumes where it left off and returns the same results
  an uninterrupted run would.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    ProcessPoolExecutor,
)
from concurrent.futures import TimeoutError as FuturesTimeout
from dataclasses import dataclass, field as dc_field, fields
from typing import Callable, Iterable, Optional

from ..core.context import CompilerOptions
from ..core.pipeline import Strategy, compile_program
from ..machine.model import MACHINES
from .cache import ScheduleCache


@dataclass(frozen=True)
class BatchJob:
    """One compilation request."""

    name: str
    source: str
    params: Optional[dict[str, int]] = None
    strategy: str = "comb"
    options: Optional[CompilerOptions] = None


@dataclass
class BatchResult:
    """Picklable summary of one compile (no ASTs, no analysis objects)."""

    name: str
    key: str
    strategy: str
    call_sites: int
    call_sites_by_kind: dict[str, int]
    entries: int
    eliminated: int
    elapsed: float
    from_cache: bool = False
    error: str = ""
    pass_times_ms: dict[str, float] = dc_field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.error


_OPTION_NAMES = tuple(f.name for f in fields(CompilerOptions))
_DEFAULT_OPTIONS = CompilerOptions()


def _option_text(name: str, value) -> str:
    """One spelling per schedule: a preset machine passed as its model
    object hashes as its name, the disabled passes as a sorted set."""
    if name == "machine" and not isinstance(value, str):
        if MACHINES.get(value.name) == value:
            return value.name
    elif name == "disabled_passes":
        return str(tuple(sorted(set(value))))
    return str(value)


def job_key(job: BatchJob) -> str:
    """Content hash over everything that determines the schedule."""
    h = hashlib.sha256()
    h.update(job.source.encode())
    for name, value in sorted((job.params or {}).items()):
        h.update(f"|{name}={value}".encode())
    h.update(f"|strategy={Strategy.parse(job.strategy).value}".encode())
    options = job.options or _DEFAULT_OPTIONS
    h.update("".join([
        f"|{name}={_option_text(name, getattr(options, name))}"
        for name in _OPTION_NAMES
    ]).encode())
    return h.hexdigest()


def _compile_job(job: BatchJob, key: str) -> BatchResult:
    """Worker body: compile one job and reduce it to a summary."""
    start = time.perf_counter()
    try:
        result = compile_program(
            job.source, job.params, job.strategy, job.options
        )
    except Exception as exc:  # surface, don't kill the batch
        return BatchResult(
            name=job.name,
            key=key,
            strategy=Strategy.parse(job.strategy).value,
            call_sites=0,
            call_sites_by_kind={},
            entries=0,
            eliminated=0,
            elapsed=time.perf_counter() - start,
            error=f"{type(exc).__name__}: {exc}",
        )
    pass_times: dict[str, float] = {}
    for trace in result.pass_traces:
        pass_times[trace.name] = (
            pass_times.get(trace.name, 0.0) + trace.wall_s * 1000
        )
    return BatchResult(
        name=job.name,
        key=key,
        strategy=result.strategy.value,
        call_sites=result.call_sites(),
        call_sites_by_kind=result.call_sites_by_kind(),
        entries=len(result.entries),
        eliminated=len(result.eliminated_entries()),
        elapsed=time.perf_counter() - start,
        pass_times_ms={k: round(v, 3) for k, v in pass_times.items()},
    )


def kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear down a pool that may hold a stuck or dead worker.  Shared
    with the compile service, whose retry ladder has the same problem:
    a cancelled future does not stop the worker process holding it."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except (OSError, ValueError):
            pass
    pool.shutdown(wait=False, cancel_futures=True)


@dataclass
class BatchStats:
    jobs: int = 0
    compiled: int = 0
    cache_hits: int = 0
    deduped: int = 0
    errors: int = 0
    elapsed: float = 0.0
    timeouts: int = 0
    retries: int = 0
    quarantined: int = 0
    resumed: int = 0

    @property
    def hit_rate(self) -> float:
        return self.cache_hits / self.jobs if self.jobs else 0.0


@dataclass(frozen=True)
class RetryPolicy:
    """Fault policy for pooled compilation.

    ``timeout`` is per-job wall-clock seconds (``None`` disables it; a
    timeout forces pooled execution even with one worker, since an
    in-process compile cannot be interrupted).  A job that times out or
    whose worker crashes is retried up to ``max_retries`` times, sleeping
    ``backoff * 2**(attempt-1)`` seconds first.  After
    ``quarantine_after`` failed attempts (or when retries run out) the
    input is quarantined: it gets an error result and is never run again
    by this compiler instance.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.1
    quarantine_after: int = 3


def _failure_result(job: BatchJob, key: str, message: str) -> BatchResult:
    return BatchResult(
        name=job.name,
        key=key,
        strategy=Strategy.parse(job.strategy).value,
        call_sites=0,
        call_sites_by_kind={},
        entries=0,
        eliminated=0,
        elapsed=0.0,
        error=message,
    )


def _result_from_dict(rec: object) -> Optional[BatchResult]:
    """Rehydrate a cached/checkpointed record; None on schema drift."""
    if not isinstance(rec, dict):
        return None
    try:
        return BatchResult(**rec)
    except TypeError:
        return None  # field mismatch from an older version: recompile


class BatchCompiler:
    """Compiles job lists, reusing results for unchanged content.

    ``workers > 1`` fans distinct jobs out over a process pool; the
    default (1) compiles serially in-process, which on a single-core
    machine is also the fastest configuration.  ``policy`` bounds each
    pooled job (timeout/retry/quarantine); ``checkpoint_path`` makes runs
    resumable across process death.

    Results live in a :class:`~repro.perf.cache.ScheduleCache` — pass
    ``cache_dir`` to add the content-addressed disk tier, making the
    result cache shared across *runs and processes*: a second batch over
    the same corpus is served entirely from disk, and the same directory
    warms the compile service's cache (and vice versa).  Only successful
    results are persisted; failures stay in this instance's memory tier.
    ``on_result`` is invoked once per delivered result as it lands
    (fresh compiles at completion, cache hits at delivery) — the CLI's
    ``--ndjson`` streaming hook.
    """

    def __init__(
        self,
        workers: int = 1,
        policy: RetryPolicy | None = None,
        checkpoint_path: "str | os.PathLike[str] | None" = None,
        cache_dir: "str | os.PathLike[str] | None" = None,
        cache: ScheduleCache | None = None,
        on_result: Optional[Callable[[BatchResult], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.policy = policy or RetryPolicy()
        self.checkpoint_path = (
            os.fspath(checkpoint_path) if checkpoint_path is not None else None
        )
        # `cache or ...` would discard an *empty* shared cache:
        # ScheduleCache defines __len__, so a fresh one is falsy.
        self.cache = cache if cache is not None else ScheduleCache(
            memory_budget_bytes=None, cache_dir=cache_dir
        )
        self.on_result = on_result
        self.quarantined: set[str] = set()
        self.stats = BatchStats()
        self._load_checkpoint()

    # -- checkpoint/resume ----------------------------------------------------

    def _load_checkpoint(self) -> None:
        if not self.checkpoint_path or not os.path.exists(self.checkpoint_path):
            return
        try:
            with open(self.checkpoint_path) as fh:
                payload = json.load(fh)
        except (OSError, ValueError):
            return  # corrupt/truncated checkpoint: start fresh
        resumed = 0
        for key, rec in payload.get("results", {}).items():
            res = _result_from_dict(rec)
            if res is None:
                continue
            self.cache.put(key, rec, durable=res.ok)
            resumed += 1
        self.quarantined.update(payload.get("quarantined", []))
        self.stats.resumed = resumed

    def _save_checkpoint(self) -> None:
        """Atomically persist every result so far (rename is the commit).
        Snapshots the cache's memory tier — complete under the batch
        default of an unbounded memory budget."""
        if not self.checkpoint_path:
            return
        payload = {
            "results": self.cache.snapshot(),
            "quarantined": sorted(self.quarantined),
        }
        tmp = f"{self.checkpoint_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        os.replace(tmp, self.checkpoint_path)

    def _store(self, key: str, res: BatchResult) -> None:
        """Commit one fresh result: cache (disk only when ok),
        checkpoint, and the streaming callback."""
        self.cache.put(key, dataclasses.asdict(res), durable=res.ok)
        self._save_checkpoint()
        if self.on_result is not None:
            self.on_result(res)

    def run(self, jobs: Iterable[BatchJob]) -> list[BatchResult]:
        """Compile ``jobs``, returning one result per job in order.

        Jobs whose content hash matches a previous compile (from this or
        any earlier :meth:`run` call) are served from the cache; identical
        jobs within one batch are compiled once.
        """
        jobs = list(jobs)
        start = time.perf_counter()
        keys = [job_key(job) for job in jobs]

        # One cache lookup per distinct key (memory, then disk tier);
        # keys both tiers miss are compiled.
        found: dict[str, BatchResult] = {}
        pending: dict[str, BatchJob] = {}
        for job, key in zip(jobs, keys):
            if key in found or key in pending:
                continue
            res = _result_from_dict(self.cache.get(key))
            if res is not None:
                found[key] = res
            else:
                pending[key] = job

        fresh = self._compile_pending(pending)

        out: list[BatchResult] = []
        delivered: set[str] = set()
        for job, key in zip(jobs, keys):
            cached = fresh[key] if key in fresh else found[key]
            if key in fresh and key not in delivered:
                # First delivery of a fresh compile (already streamed
                # by _store when it landed).
                delivered.add(key)
                out.append(cached)
                self.stats.compiled += 1
                if cached.error:
                    self.stats.errors += 1
            else:
                hit = dataclasses.replace(
                    cached, name=job.name, from_cache=True, elapsed=0.0
                )
                out.append(hit)
                if self.on_result is not None:
                    self.on_result(hit)
                if key in fresh:
                    self.stats.deduped += 1
                else:
                    self.stats.cache_hits += 1
        self.stats.jobs += len(jobs)
        self.stats.elapsed += time.perf_counter() - start
        return out

    def _compile_pending(
        self, pending: dict[str, BatchJob]
    ) -> dict[str, BatchResult]:
        if not pending:
            return {}
        # A timeout can only be enforced across a process boundary, so it
        # forces pooled execution even with a single worker.
        pooled = self.workers > 1 or self.policy.timeout is not None
        if not pooled:
            fresh: dict[str, BatchResult] = {}
            for key, job in pending.items():
                fresh[key] = _compile_job(job, key)
                self._store(key, fresh[key])
            return fresh
        return self._compile_pooled(pending)

    def _kill_pool(self, pool: ProcessPoolExecutor) -> None:
        kill_pool(pool)

    def _compile_pooled(
        self, pending: dict[str, BatchJob]
    ) -> dict[str, BatchResult]:
        """Pooled execution with per-job timeout, retry, and quarantine.

        The first wave submits every job at once.  Any wave containing a
        failure poisons attribution (a crashed worker breaks every pending
        future), so after the first failure retries run one job per wave —
        a failure then names its culprit exactly, and innocent collateral
        jobs succeed on their isolated retry without an attempt charged.
        """
        policy = self.policy
        fresh: dict[str, BatchResult] = {}
        queue: list[tuple[str, BatchJob]] = list(pending.items())
        attempts: dict[str, int] = {key: 0 for key in pending}
        isolate = False
        pool = ProcessPoolExecutor(max_workers=self.workers)
        try:
            while queue:
                if isolate:
                    wave, queue = queue[:1], queue[1:]
                else:
                    wave, queue = queue, []
                futures = []
                for key, job in wave:
                    try:
                        futures.append((key, job, pool.submit(_compile_job, job, key)))
                    except BrokenExecutor:
                        futures.append((key, job, None))
                failed: list[tuple[str, BatchJob, str]] = []
                pool_broken = False
                for key, job, fut in futures:
                    if fut is None:
                        failed.append((key, job, "worker pool broken"))
                        pool_broken = True
                        continue
                    try:
                        fresh[key] = fut.result(timeout=policy.timeout)
                        self._store(key, fresh[key])
                    except FuturesTimeout:
                        failed.append(
                            (key, job, f"timed out after {policy.timeout}s")
                        )
                        self.stats.timeouts += 1
                        pool_broken = True  # a stuck worker still holds it
                    except (BrokenExecutor, CancelledError, OSError) as exc:
                        failed.append(
                            (key, job, f"worker crashed ({type(exc).__name__})")
                        )
                        pool_broken = True
                    except Exception as exc:
                        # E.g. an unpicklable job: the feeder thread parks
                        # its error on the future.  The pool is healthy;
                        # the job is not — structured failure, not a crash.
                        failed.append(
                            (key, job,
                             f"submission failed "
                             f"({type(exc).__name__}: {exc})")
                        )
                if pool_broken:
                    self._kill_pool(pool)
                    pool = ProcessPoolExecutor(max_workers=self.workers)
                if not failed:
                    continue
                for key, job, why in failed:
                    # Exact attribution only in single-job waves; a failure
                    # in a group wave charges nobody (the culprit is
                    # unknown) — everyone retries isolated instead.
                    if isolate or len(futures) == 1:
                        attempts[key] += 1
                    out_of_retries = attempts[key] > policy.max_retries
                    if attempts[key] >= policy.quarantine_after or out_of_retries:
                        self.quarantined.add(key)
                        self.stats.quarantined += 1
                        fresh[key] = _failure_result(
                            job,
                            key,
                            f"quarantined after {attempts[key]} failed "
                            f"attempts: {why}",
                        )
                        self._store(key, fresh[key])
                    else:
                        self.stats.retries += 1
                        queue.append((key, job))
                isolate = True
                if policy.backoff > 0:
                    worst = max(attempts[key] for key, _, _ in failed)
                    time.sleep(policy.backoff * (2 ** max(0, worst - 1)))
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return fresh


def benchmark_jobs(strategies: Iterable[str] = ("comb",)) -> list[BatchJob]:
    """The paper's benchmark programs as a ready-made job list."""
    from ..evaluation.programs import BENCHMARKS

    return [
        BatchJob(name=f"{name}:{strategy}", source=source, strategy=strategy)
        for name, source in BENCHMARKS.items()
        for strategy in strategies
    ]
