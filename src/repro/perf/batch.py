"""Batch compilation: a job list driven through the compile service.

A build driver on :class:`repro.service.app.CompileService`, the one
compile driver, which ``repro serve`` fronts too: it takes a list of
:class:`BatchJob`\\ s, sends them as requests through a private event
loop, and returns one :class:`BatchResult` per job, in job order.  What
the service does for a request it does for a job:

* **one key, one cache** — :func:`job_key` is a sha256 *content hash*
  over everything that determines the schedule (source text, parameter
  bindings, strategy, and every :class:`CompilerOptions` field); the
  result cache is a :class:`repro.perf.cache.ScheduleCache` that
  persists across :meth:`BatchCompiler.run` calls (and, with
  ``cache_dir``, across processes: a directory ``repro serve`` warmed
  serves a batch and vice versa), so a driver recompiling a mostly
  unchanged program set only pays for the files whose content changed;
* **one record** — the cache holds compile payloads
  (:func:`repro.service.payload.compile_payload`), and a
  :class:`BatchResult` is a read-only view of one;
* **one worker entry** — distinct jobs compile through
  :func:`repro.service.payload.compile_worker`, across processes when
  ``workers > 1``; identical jobs in one batch coalesce onto one compile;
* **one retry ladder** — a :class:`RetryPolicy` gives every pooled
  compile a wall-clock timeout and bounded retries with exponential
  backoff; a failure is charged only to a compile that ran alone on the
  pool that failed, retries run alone, and inputs that keep failing are
  quarantined (see ``docs/ROBUSTNESS.md`` §3).

The batch adds an optional **checkpoint file**, which persists every
finished payload as it lands (atomic rename), so a killed ``run``
restarted with the same checkpoint path resumes where it left off and
returns the same results an uninterrupted run would.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from ..core.context import CompilerOptions
from ..core.pipeline import Strategy
from ..service.app import CompileRequest, CompileService, RetryPolicy
from ..service.payload import is_payload, job_key
from .cache import ScheduleCache


@dataclass(frozen=True)
class BatchJob:
    """One compilation request."""

    name: str
    source: str
    params: Optional[dict[str, int]] = None
    strategy: str = "comb"
    options: Optional[CompilerOptions] = None


#: The flat summary of one result (``repro batch --ndjson``).
_SUMMARY = (
    "name", "key", "strategy", "call_sites", "call_sites_by_kind",
    "entries", "eliminated", "elapsed", "from_cache", "error",
    "pass_times_ms",
)


@dataclass(frozen=True)
class BatchResult:
    """One job's answer: a read-only view of its compile payload (no
    ASTs, no analysis objects)."""

    name: str
    key: str
    strategy: str
    payload: dict[str, Any]
    from_cache: bool = False

    @property
    def ok(self) -> bool:
        return self.payload["ok"]

    @property
    def _result(self) -> dict[str, Any]:
        return self.payload["result"] or {}

    @property
    def call_sites(self) -> int:
        return self._result.get("call_sites", 0)

    @property
    def call_sites_by_kind(self) -> dict[str, int]:
        return self._result.get("call_sites_by_kind", {})

    @property
    def entries(self) -> int:
        return self._result.get("entries", 0)

    @property
    def eliminated(self) -> int:
        return len(self._result.get("eliminated", ()))

    @property
    def elapsed(self) -> float:
        """Compile seconds; 0.0 for an answer this job did not compile
        and for a verdict no compile produced (quarantine, last-resort
        error), whose ``compile_ms`` is None."""
        if self.from_cache:
            return 0.0
        return (self.payload.get("compile_ms") or 0.0) / 1000

    @property
    def error(self) -> str:
        if self.payload["ok"]:
            return ""
        if "error" in self.payload:
            return self.payload["error"]["message"]
        first = self.payload["diagnostics"][0]
        return f"{first['code']}: {first['message']}"

    @property
    def pass_times_ms(self) -> dict[str, float]:
        times: dict[str, float] = {}
        for trace in self.payload["trace"]:
            name = trace["pass"]
            times[name] = times.get(name, 0.0) + trace["wall_s"] * 1000
        return {name: round(ms, 3) for name, ms in times.items()}

    def as_dict(self) -> dict[str, Any]:
        return {name: getattr(self, name) for name in _SUMMARY}


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


class BatchCompiler:
    """Compiles job lists, reusing results for unchanged content.

    ``workers > 1`` compiles distinct jobs on a process pool of that
    size, and so does any ``policy.timeout`` (a timeout can only be
    enforced across a process boundary).  The default — one worker, no
    timeout — compiles one job at a time in-process, in job order, which
    on a single-core machine is also the fastest configuration.
    ``policy`` bounds each pooled compile (timeout/retry/quarantine);
    ``checkpoint_path`` makes runs resumable across process death.

    Results live in a :class:`~repro.perf.cache.ScheduleCache` — pass
    ``cache_dir`` to add the content-addressed disk tier, making the
    result cache shared across *runs and processes*: a second batch over
    the same corpus is served entirely from disk, and the same directory
    warms the compile service's cache (and vice versa).  Only successful
    compiles are persisted; program errors stay in the memory tier.
    ``on_result`` is invoked once per delivered result as it lands — the
    CLI's ``--ndjson`` streaming hook.
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
        self.stats = BatchStats()
        pooled = workers > 1 or self.policy.timeout is not None
        self._service = CompileService(
            cache=self.cache,
            workers=workers if pooled else 0,
            policy=self.policy,
            max_pending=sys.maxsize,
        )
        self._load_checkpoint()

    @property
    def quarantined(self) -> set[str]:
        """Keys this compiler never runs again (the service's set)."""
        return self._service.quarantined

    # -- checkpoint/resume ----------------------------------------------------

    def _load_checkpoint(self) -> None:
        if not self.checkpoint_path or not os.path.exists(self.checkpoint_path):
            return
        try:
            with open(self.checkpoint_path) as fh:
                saved = json.load(fh)
        except (OSError, ValueError):
            return  # corrupt/truncated checkpoint: start fresh
        for key, record in saved.get("results", {}).items():
            if is_payload(record):  # anything else is recompiled
                self.cache.put(key, record, durable=record["ok"])
                self.stats.resumed += 1
        self.quarantined.update(saved.get("quarantined", []))

    def _save_checkpoint(self) -> None:
        """Atomically persist every payload so far (rename is the commit).
        Snapshots the cache's memory tier — complete under the batch
        default of an unbounded memory budget."""
        if not self.checkpoint_path:
            return
        saved = {
            "results": self.cache.snapshot(),
            "quarantined": sorted(self.quarantined),
        }
        tmp = f"{self.checkpoint_path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(saved, fh)
        os.replace(tmp, self.checkpoint_path)

    # -- driving the service --------------------------------------------------

    def run(self, jobs: Iterable[BatchJob]) -> list[BatchResult]:
        """Compile ``jobs``, returning one result per job in order.

        Jobs whose content hash matches a previous compile (from this or
        any earlier :meth:`run` call) are served from the cache; identical
        jobs within one batch are compiled once.
        """
        jobs = list(jobs)
        start = time.perf_counter()
        try:
            results = asyncio.run(self._run(jobs))
        finally:
            # A run cut short still keeps every payload that landed.
            self._save_checkpoint()
        service = self._service.stats
        self.stats.timeouts = service.timeouts
        self.stats.retries = service.retries
        self.stats.quarantined = service.quarantined
        self.stats.jobs += len(jobs)
        self.stats.elapsed += time.perf_counter() - start
        return results

    async def _run(self, jobs: list[BatchJob]) -> list[BatchResult]:
        await self._service.start(prewarm=False)
        try:
            return await asyncio.gather(*map(self._deliver, jobs))
        finally:
            await self._service.close()

    async def _deliver(self, job: BatchJob) -> BatchResult:
        """One job as one request; the response body carries the whole
        payload (trace and diagnostics included)."""
        req = CompileRequest(
            source=job.source, params=job.params, strategy=job.strategy,
            options=job.options, want_diagnostics=True, want_trace=True,
        )
        key = req.key()
        quarantined = key in self.quarantined
        body = (await self._service.handle_compile(req)).body
        fresh = not (quarantined or body["cache"] or body["coalesced"])
        res = BatchResult(
            name=job.name,
            key=key,
            strategy=Strategy.parse(job.strategy).value,
            payload=body,
            from_cache=not fresh,
        )
        if fresh:
            self.stats.compiled += 1
            if not res.ok:
                self.stats.errors += 1
            self._save_checkpoint()
        elif body["coalesced"]:
            self.stats.deduped += 1
        else:
            self.stats.cache_hits += 1
        if self.on_result is not None:
            self.on_result(res)
        return res


def benchmark_jobs(strategies: Iterable[str] = ("comb",)) -> list[BatchJob]:
    """The paper's benchmark programs as a ready-made job list."""
    from ..evaluation.programs import BENCHMARKS

    return [
        BatchJob(name=f"{name}:{strategy}", source=source, strategy=strategy)
        for name, source in BENCHMARKS.items()
        for strategy in strategies
    ]


__all__ = [
    "BatchCompiler",
    "BatchJob",
    "BatchResult",
    "BatchStats",
    "RetryPolicy",
    "benchmark_jobs",
    "job_key",
]
