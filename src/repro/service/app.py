"""The compile service core: cache, coalescing, pool, quotas.

:class:`CompileService` is the one compile driver: the HTTP/JSON-RPC
front end in :mod:`repro.service.server` (``repro serve``) and the batch
driver :class:`~repro.perf.batch.BatchCompiler` (``repro batch``) both
talk to :meth:`CompileService.handle_compile`.  One request flows:

1. **quota** — the tenant's token bucket either grants or yields a
   ``429`` with ``Retry-After``;
2. **quarantine** — a key that repeatedly killed or timed out its
   worker is answered ``503`` immediately, never recompiled;
3. **cache** — the shared :class:`~repro.perf.cache.ScheduleCache`
   (memory LRU, then content-addressed disk); a value that is not a
   compile payload is a miss;
4. **coalescing** — identical in-flight programs await one compilation
   future instead of recompiling (N concurrent identical requests cost
   exactly one compile);
5. **pool** — the compile runs :func:`~repro.service.payload.
   compile_worker` on a bounded
   :class:`~concurrent.futures.ProcessPoolExecutor` (handed at most one
   compile more than it has ``workers``) under a :class:`RetryPolicy`:
   per-attempt timeout,
   kill-and-rebuild of the poisoned pool, bounded retries with
   exponential backoff, then quarantine (see
   :meth:`CompileService._compile_with_policy` for who is charged).
   ``workers=0`` compiles on one thread off the event loop instead, one
   compile at a time (tests, the default serial ``repro batch``) — no
   crash isolation, and a timed-out thread cannot be killed.

Backpressure: when more than ``max_pending`` *distinct* compilations
are in flight the service sheds new cache-missing work with ``429`` —
coalesced waiters and cache hits are always admitted.
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import (
    BrokenExecutor,
    Executor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from dataclasses import dataclass, field, fields
from typing import Any, Optional

from ..core.context import CompilerOptions
from ..core.pipeline import Strategy
from ..perf.cache import ScheduleCache
from . import payload as worker
from .payload import is_payload, job_key, options_fields, rebuild_options
from .quota import QuotaRegistry

DEFAULT_TENANT = "anon"

#: Retry-After for quarantined keys and shed load (seconds).
QUARANTINE_RETRY_AFTER = 60
BACKPRESSURE_RETRY_AFTER = 1


class RequestError(Exception):
    """A request the service refuses before compiling: HTTP 400 when it
    is malformed, 422 when it is well-formed but names an option value
    the compiler rejects; a one-line reason either way."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.message = message
        self.status = status


@dataclass(frozen=True)
class CompileRequest:
    """One validated compile request (see :func:`parse_request`)."""

    source: str
    params: Optional[dict[str, int]] = None
    strategy: str = "comb"
    options: Optional[CompilerOptions] = None
    tenant: str = DEFAULT_TENANT
    want_diagnostics: bool = False
    want_trace: bool = False
    id: Any = None

    def key(self) -> str:
        return job_key(self)


@dataclass(frozen=True)
class RetryPolicy:
    """Fault policy for pooled compilation.

    ``timeout`` is per-attempt wall-clock seconds (``None`` disables it;
    the batch driver takes a timeout to mean pooled execution even with
    one worker, since an in-process compile cannot be interrupted).  A
    compile that times out or whose worker crashes is retried up to
    ``max_retries`` times, sleeping ``backoff * 2**(attempt-1)`` seconds
    first.  After ``quarantine_after`` failed attempts (or when retries
    run out) the program is quarantined: it gets a ``503`` payload and
    is never run again by this service.
    """

    timeout: Optional[float] = None
    max_retries: int = 2
    backoff: float = 0.1
    quarantine_after: int = 3


def _kill_pool(pool: Executor) -> None:
    """Tear down a pool that may hold a stuck or dead worker: a
    cancelled future does not stop the process holding it.  Futures
    still on the pool fail with ``BrokenProcessPool`` once their worker
    is gone, so their callers see a crash, not a cancellation."""
    for proc in list((getattr(pool, "_processes", None) or {}).values()):
        try:
            proc.terminate()
        except (OSError, ValueError):
            pass
    pool.shutdown(wait=False)


#: JSON form of each type a ``CompilerOptions`` annotation names: the
#: test a value must pass and the words for it.
_JSON_TYPES = {
    "bool": (lambda v: isinstance(v, bool), "a boolean"),
    "int": (
        lambda v: isinstance(v, int) and not isinstance(v, bool),
        "an integer",
    ),
    "float": (
        lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
        "a number",
    ),
    "str": (lambda v: isinstance(v, str), "a string"),
    "tuple[str, ...]": (
        lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
        "a list of strings",
    ),
    "None": (lambda v: v is None, "null"),
}

#: option name -> the JSON types its declared annotation admits
#: (``MachineModel`` has none: a request names a preset as a string).
_OPTION_TYPES = {
    f.name: [
        _JSON_TYPES[part] for part in map(str.strip, f.type.split("|"))
        if part in _JSON_TYPES
    ]
    for f in fields(CompilerOptions)
}


def _parse_options(obj: Any) -> CompilerOptions:
    """``CompilerOptions`` from a request's ``options`` object, each
    value checked against its field's declared type."""
    if not isinstance(obj, dict):
        raise RequestError("'options' must be an object")
    coerced: dict[str, Any] = {}
    for name, value in obj.items():
        types = _OPTION_TYPES.get(name)
        if types is None:
            known = ", ".join(sorted(_OPTION_TYPES))
            raise RequestError(f"unknown option {name!r} (known: {known})")
        if not any(accepts(value) for accepts, _ in types):
            words = " or ".join(word for _, word in types)
            raise RequestError(f"option {name!r} must be {words}")
        coerced[name] = tuple(value) if isinstance(value, list) else value
    try:
        return CompilerOptions(**coerced)
    except ValueError as exc:
        raise RequestError(str(exc), status=422) from None


def parse_request(obj: Any) -> CompileRequest:
    """Validate a decoded JSON body into a :class:`CompileRequest`."""
    if not isinstance(obj, dict):
        raise RequestError("request body must be a JSON object")
    source = obj.get("source")
    if not isinstance(source, str) or not source.strip():
        raise RequestError("'source' (mini-HPF program text) is required")
    params = obj.get("params")
    if params is not None:
        if not isinstance(params, dict) or not all(
            isinstance(k, str) and isinstance(v, int)
            and not isinstance(v, bool)
            for k, v in params.items()
        ):
            raise RequestError("'params' must map names to integers")
    strategy = obj.get("strategy", "comb")
    try:
        strategy = Strategy.parse(strategy).value
    except (ValueError, AttributeError, TypeError):
        raise RequestError(f"unknown strategy {strategy!r}") from None
    options = None
    if obj.get("options") is not None:
        options = _parse_options(obj["options"])
    tenant = obj.get("tenant", DEFAULT_TENANT)
    if not isinstance(tenant, str) or not tenant:
        raise RequestError("'tenant' must be a non-empty string")
    for flag in ("diagnostics", "trace"):
        if not isinstance(obj.get(flag, False), bool):
            raise RequestError(f"'{flag}' must be a boolean")
    return CompileRequest(
        source=source,
        params=params,
        strategy=strategy,
        options=options,
        tenant=tenant,
        want_diagnostics=obj.get("diagnostics", False),
        want_trace=obj.get("trace", False),
        id=obj.get("id"),
    )


@dataclass
class ServiceResponse:
    """Transport-ready verdict: status + JSON body + extra headers."""

    status: int
    body: dict[str, Any]
    headers: dict[str, str] = field(default_factory=dict)


@dataclass
class ServiceStats:
    requests: int = 0
    compiled: int = 0
    coalesced: int = 0
    quota_rejected: int = 0
    backpressure_rejected: int = 0
    timeouts: int = 0
    retries: int = 0
    quarantined: int = 0
    pool_rebuilds: int = 0
    by_status: dict[int, int] = field(default_factory=dict)
    pending_high_water: int = 0

    def count(self, status: int) -> None:
        self.by_status[status] = self.by_status.get(status, 0) + 1

    def as_dict(self) -> dict[str, Any]:
        return {
            "requests": self.requests,
            "compiled": self.compiled,
            "coalesced": self.coalesced,
            "quota_rejected": self.quota_rejected,
            "backpressure_rejected": self.backpressure_rejected,
            "timeouts": self.timeouts,
            "retries": self.retries,
            "quarantined": self.quarantined,
            "pool_rebuilds": self.pool_rebuilds,
            "by_status": {str(k): v for k, v in self.by_status.items()},
            "pending_high_water": self.pending_high_water,
        }


class _Pool:
    """An executor and the compiles on it: how many shared it when it
    failed decides who is charged for the failure."""

    def __init__(self, executor: Executor) -> None:
        self.executor = executor
        self.users = 0
        self.users_at_failure: Optional[int] = None


class CompileService:
    """See the module docstring for the request flow."""

    def __init__(
        self,
        cache: ScheduleCache | None = None,
        workers: int = 2,
        policy: RetryPolicy | None = None,
        quotas: QuotaRegistry | None = None,
        max_pending: int = 1024,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        # `cache or ...` would discard an *empty* cache: ScheduleCache
        # defines __len__, so a fresh one is falsy.
        self.cache = cache if cache is not None else ScheduleCache()
        self.workers = workers
        self.policy = policy or RetryPolicy(timeout=120.0)
        self.quotas = quotas
        self.max_pending = max_pending
        self.stats = ServiceStats()
        self.quarantined: set[str] = set()
        self._pool: _Pool | None = None
        self._slots: asyncio.Semaphore | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._started = time.monotonic()

    # -- lifecycle ------------------------------------------------------------

    async def start(self, prewarm: bool = True) -> None:
        """Create (and optionally pre-fork) the worker pool."""
        if self._pool is not None:
            return
        self._pool = _Pool(self._new_executor(self.workers))
        # One compile more than there are workers: a process pool starts
        # its next queued call the moment a worker frees up, without a
        # round trip through this loop.  In-process: one at a time.
        self._slots = asyncio.Semaphore(self.workers + 1)
        if prewarm and self.workers > 0:
            # Forks the workers; the empty program fails to parse at once.
            await asyncio.get_running_loop().run_in_executor(
                self._pool.executor, worker.compile_worker, "", None, "comb", {}
            )

    async def close(self) -> None:
        for fut in list(self._inflight.values()):
            if not fut.done():
                fut.cancel()
        self._inflight.clear()
        if self._pool is not None:
            self._pool.executor.shutdown(wait=False, cancel_futures=True)
            self._pool = self._slots = None

    def _new_executor(self, workers: int) -> Executor:
        if self.workers == 0:
            return ThreadPoolExecutor(max_workers=1)
        return ProcessPoolExecutor(max_workers=workers)

    def _discard(self, pool: _Pool) -> None:
        """Kill a pool that failed.  The shared pool is rebuilt only if
        it is still the current one: every compile it broke lands here,
        and the first has already replaced it."""
        if pool is self._pool:
            self.stats.pool_rebuilds += 1
            self._pool = _Pool(self._new_executor(self.workers))
        _kill_pool(pool.executor)

    # -- the request path -----------------------------------------------------

    async def handle_compile(self, req: CompileRequest) -> ServiceResponse:
        self.stats.requests += 1
        if self.quotas is not None:
            wait = self.quotas.acquire(req.tenant)
            if wait > 0.0:
                self.stats.quota_rejected += 1
                return self._finish(req, {
                    "ok": False,
                    "status": 429,
                    "result": None,
                    "diagnostics": [],
                    "trace": [],
                    "error": {
                        "code": "quota_exceeded",
                        "message": (
                            f"tenant {req.tenant!r} is over its compile "
                            f"quota; retry in {wait:.3f}s"
                        ),
                    },
                }, retry_after=wait)

        key = req.key()
        if key in self.quarantined:
            return self._finish(req, self._quarantined_payload(key), key=key,
                                retry_after=QUARANTINE_RETRY_AFTER)

        payload, tier = self.cache.lookup(key, is_payload)
        if payload is not None:
            return self._finish(req, payload, key=key, cache=tier)

        fut = self._inflight.get(key)
        if fut is not None:
            self.stats.coalesced += 1
            payload = await asyncio.shield(fut)
            return self._finish(req, payload, key=key, coalesced=True)

        if len(self._inflight) >= self.max_pending:
            self.stats.backpressure_rejected += 1
            return self._finish(req, {
                "ok": False,
                "status": 429,
                "result": None,
                "diagnostics": [],
                "trace": [],
                "error": {
                    "code": "backpressure",
                    "message": (
                        f"{len(self._inflight)} compilations already in "
                        f"flight; retry shortly"
                    ),
                },
            }, retry_after=BACKPRESSURE_RETRY_AFTER)

        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._inflight[key] = fut
        self.stats.pending_high_water = max(
            self.stats.pending_high_water, len(self._inflight)
        )
        # The compile runs as its own task so a dropped client
        # connection (cancelled handler) never cancels work that
        # coalesced waiters are counting on.
        asyncio.ensure_future(self._compile_and_publish(req, key, fut))
        payload = await asyncio.shield(fut)
        return self._finish(req, payload, key=key)

    async def _compile_and_publish(
        self, req: CompileRequest, key: str, fut: asyncio.Future
    ) -> None:
        try:
            payload = await self._compile_with_policy(req, key)
        except Exception as exc:  # noqa: BLE001 - the 5xx of last resort
            payload = {
                "ok": False,
                "status": 500,
                "result": None,
                "diagnostics": [],
                "trace": [],
                "error": {
                    "code": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                },
            }
        finally:
            self._inflight.pop(key, None)
        if payload["ok"]:
            self.stats.compiled += 1
            self.cache.put(key, payload, durable=True)
        elif payload["status"] == 422:
            # Diagnosable program errors are deterministic: cache them
            # in memory so a retry storm of a broken program stays
            # cheap, but never persist them.
            self.cache.put(key, payload, durable=False)
        if not fut.done():
            fut.set_result(payload)

    async def _invoke_worker(
        self, req: CompileRequest, executor: Executor
    ) -> dict[str, Any]:
        """One compile attempt on ``executor`` (patchable in tests).  The
        worker is looked up at call time, so a test that replaces
        ``repro.service.payload.compile_worker`` reaches the pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            executor,
            worker.compile_worker,
            req.source,
            req.params,
            req.strategy,
            options_fields(req.options),
        )

    async def _compile_with_policy(
        self, req: CompileRequest, key: str
    ) -> dict[str, Any]:
        """The one timeout/retry/quarantine ladder, for ``repro serve``
        and ``repro batch`` alike.

        A failed attempt is charged to its program only if the program
        ran alone on the pool that failed: a dying or stuck worker takes
        every compile on its pool down, so one that shared the pool may
        be collateral.  The first attempt runs on the shared pool; every
        retry runs alone on a one-worker pool it owns, so a retry's
        failure always names its culprit and a collateral compile is
        retried once, uncharged.
        """
        if self._slots is None:
            await self.start(prewarm=False)
        policy = self.policy
        charged = 0
        retry = False
        while True:
            async with self._slots:
                payload, why, charge = await self._attempt(req, retry)
            if not why:
                return payload
            charged += charge
            if charged >= policy.quarantine_after or charged > policy.max_retries:
                self.quarantined.add(key)
                self.stats.quarantined += 1
                payload = self._quarantined_payload(key)
                payload["error"]["message"] = (
                    f"quarantined after {charged} failed attempts: {why}"
                )
                return payload
            self.stats.retries += 1
            retry = True
            await asyncio.sleep(policy.backoff * (2 ** max(0, charged - 1)))

    async def _attempt(
        self, req: CompileRequest, retry: bool
    ) -> tuple[Optional[dict[str, Any]], str, bool]:
        """One compile on the shared pool, or for a retry on a one-worker
        pool of its own: ``(payload, "", False)`` on success, else
        ``(None, why, charged)``."""
        pool = _Pool(self._new_executor(1)) if retry else self._pool
        pool.users += 1
        try:
            try:
                payload = await asyncio.wait_for(
                    self._invoke_worker(req, pool.executor),
                    timeout=self.policy.timeout,
                )
                return payload, "", False
            except (asyncio.TimeoutError, TimeoutError):
                self.stats.timeouts += 1
                why = f"timed out after {self.policy.timeout}s"
            except (BrokenExecutor, RuntimeError, OSError) as exc:
                # RuntimeError: submitted to a pool that another of its
                # victims has already shut down.
                why = f"worker crashed ({type(exc).__name__})"
            except Exception as exc:
                # E.g. unpicklable arguments: the pool is healthy and
                # this compile is the culprit.
                return None, f"compile failed ({type(exc).__name__}: {exc})", True
            # The pool is broken (a stuck worker still holds it after a
            # timeout).  Whoever was on it when the first of its victims
            # got here shares the blame.
            if pool.users_at_failure is None:
                pool.users_at_failure = pool.users
            self._discard(pool)
            return None, why, pool.users_at_failure == 1
        finally:
            pool.users -= 1
            if retry:
                pool.executor.shutdown(wait=False)

    def _quarantined_payload(self, key: str) -> dict[str, Any]:
        return {
            "ok": False,
            "status": 503,
            "result": None,
            "diagnostics": [],
            "trace": [],
            "error": {
                "code": "quarantined",
                "message": f"program {key[:12]}… is quarantined",
            },
        }

    # -- response assembly ----------------------------------------------------

    def _finish(
        self,
        req: CompileRequest,
        payload: dict[str, Any],
        key: str | None = None,
        cache: str | None = None,
        coalesced: bool = False,
        retry_after: float | None = None,
    ) -> ServiceResponse:
        body: dict[str, Any] = {
            "ok": payload["ok"],
            "status": payload["status"],
            "key": key,
            "cache": cache,
            "coalesced": coalesced,
            "compile_ms": payload.get("compile_ms"),
            "result": payload.get("result"),
        }
        if req.id is not None:
            body["id"] = req.id
        if req.want_diagnostics or not payload["ok"]:
            body["diagnostics"] = payload.get("diagnostics", [])
        if req.want_trace:
            body["trace"] = payload.get("trace", [])
        if "error" in payload:
            body["error"] = payload["error"]
        headers: dict[str, str] = {}
        if retry_after is not None:
            headers["Retry-After"] = str(max(1, int(retry_after + 0.999)))
        self.stats.count(payload["status"])
        return ServiceResponse(payload["status"], body, headers)

    def stats_payload(self) -> dict[str, Any]:
        return {
            "uptime_s": round(time.monotonic() - self._started, 3),
            "workers": self.workers,
            "max_pending": self.max_pending,
            "inflight": len(self._inflight),
            "quarantined_keys": sorted(self.quarantined),
            "service": self.stats.as_dict(),
            "cache": self.cache.stats.as_dict(),
            "cache_memory_bytes": self.cache.memory_bytes,
            "cache_entries": len(self.cache),
        }


__all__ = [
    "CompileRequest",
    "CompileService",
    "RequestError",
    "RetryPolicy",
    "ServiceResponse",
    "ServiceStats",
    "parse_request",
    "rebuild_options",
]
