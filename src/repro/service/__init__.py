"""Asyncio compile service.

The one compile driver around
:func:`repro.core.pipeline.compile_program`, behind the long-running
HTTP/JSON-RPC server and the batch driver (:mod:`repro.perf.batch`)
alike: clients POST mini-HPF sources and get back schedules,
diagnostics, and pass traces, with the expensive global analysis
amortized **across requests** by the shared two-tier
:class:`repro.perf.cache.ScheduleCache` and by in-flight request
coalescing.  See ``docs/PERFORMANCE.md`` ("Compile service").

Layers, innermost first:

* :mod:`repro.service.payload` — the deterministic response payload for
  one compile (the one record the cache stores, and what the load
  harness verifies bitwise against a direct :func:`compile_program`
  call), its key, and the pool's one worker entry;
* :mod:`repro.service.quota` — per-tenant token buckets;
* :mod:`repro.service.app` — :class:`CompileService`: cache lookup,
  coalescing, the bounded process pool under the one
  :class:`~repro.service.app.RetryPolicy` ladder, quotas, and
  backpressure;
* :mod:`repro.service.server` — the asyncio HTTP/1.1 + JSON-RPC front
  end (pipelined keep-alive connections, NDJSON access log) behind
  ``python -m repro serve``.
"""

from .app import CompileService, ServiceStats, parse_request
from .payload import compile_payload, schedule_payload
from .quota import QuotaRegistry, TokenBucket
from .server import CompileServer

__all__ = [
    "CompileServer",
    "CompileService",
    "QuotaRegistry",
    "ServiceStats",
    "TokenBucket",
    "compile_payload",
    "parse_request",
    "schedule_payload",
]
