"""Deterministic compile payloads.

The service's unit of caching and of correctness: everything under
``payload["result"]`` (and ``payload["diagnostics"]``) is a pure
function of the request's (source, params, strategy, options) — no wall
times, no pids — so the load harness can verify any response, served
from any tier or coalesced onto any in-flight future, **bitwise** against
a direct :func:`repro.core.pipeline.compile_program` call.  Wall-clock
measurements ride outside, in ``compile_ms`` and ``trace`` (the per-pass
:class:`~repro.core.passes.PassTrace` records include ``wall_s``).

:func:`compile_worker` is the process-pool entry point — the only
callable any compile pool runs, for ``repro serve`` and ``repro batch``
alike: it takes only picklable primitives and returns only JSON types,
so a poison program can at worst kill its worker process, never the
server.  The payload is also the one record a
:class:`~repro.perf.cache.ScheduleCache` holds, filed under
:func:`job_key`; :func:`is_payload` is the consumer-side check that
turns anything else found in a cache into a miss.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import fields
from typing import Any, Optional

from ..core.context import CompilerOptions
from ..core.pipeline import CompilationResult, Strategy, compile_program
from ..errors import InternalCompilerError, ReproError
from ..machine.model import MACHINES

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


def job_key(job) -> str:
    """Content hash over everything that determines the schedule: the
    ``source``, ``params``, ``strategy`` and ``options`` of a
    :class:`~repro.perf.batch.BatchJob` or a
    :class:`~repro.service.app.CompileRequest`."""
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


def schedule_payload(result: CompilationResult) -> dict[str, Any]:
    """The canonical, deterministic schedule summary of one compile."""
    return {
        "strategy": result.strategy.value,
        "call_sites": result.call_sites(),
        "call_sites_by_kind": result.call_sites_by_kind(),
        "entries": len(result.entries),
        "eliminated": sorted(e.label for e in result.eliminated_entries()),
        "schedule": [
            [str(pc.position), pc.kind, sorted(e.label for e in pc.entries)]
            for pc in result.placed
        ],
        "degraded": result.degraded,
    }


def options_fields(options: Optional[CompilerOptions]) -> dict[str, Any]:
    """CompilerOptions as a picklable/JSON-able field dict (tuples to
    lists); None stays None (worker rebuilds the defaults)."""
    if options is None:
        return {}
    out: dict[str, Any] = {}
    for f in fields(CompilerOptions):
        value = getattr(options, f.name)
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def rebuild_options(field_dict: dict[str, Any]) -> Optional[CompilerOptions]:
    if not field_dict:
        return None
    coerced = {
        name: tuple(value) if isinstance(value, list) else value
        for name, value in field_dict.items()
    }
    return CompilerOptions(**coerced)


def compile_payload(
    source: str,
    params: Optional[dict[str, int]],
    strategy: "str | Strategy",
    options: Optional[CompilerOptions] = None,
) -> dict[str, Any]:
    """Compile once and reduce to a JSON payload; never raises for
    program-level failures.

    ``status`` carries the HTTP verdict: 200 for a schedule, 422 for a
    diagnosable program error, 500 for an internal compiler error (the
    crash-free frontier's structured wrapper).
    """
    t0 = time.perf_counter()
    try:
        result = compile_program(source, params, strategy, options)
    except InternalCompilerError as exc:
        return {
            "ok": False,
            "status": 500,
            "result": None,
            "diagnostics": [exc.diagnostic().to_dict()],
            "trace": [],
            "compile_ms": round((time.perf_counter() - t0) * 1000, 3),
        }
    except ReproError as exc:
        return {
            "ok": False,
            "status": 422,
            "result": None,
            "diagnostics": [exc.diagnostic().to_dict()],
            "trace": [],
            "compile_ms": round((time.perf_counter() - t0) * 1000, 3),
        }
    return {
        "ok": True,
        "status": 200,
        "result": schedule_payload(result),
        "diagnostics": [d.diagnostic().to_dict() for d in result.degradations],
        "trace": [t.to_dict() for t in result.pass_traces],
        "compile_ms": round((time.perf_counter() - t0) * 1000, 3),
    }


def compile_worker(
    source: str,
    params: Optional[dict[str, int]],
    strategy: str,
    option_fields: dict[str, Any],
) -> dict[str, Any]:
    """Process-pool entry: primitives in, JSON out."""
    return compile_payload(
        source, params, strategy, rebuild_options(option_fields)
    )


#: What a consumer reads from a schedule: ``result`` key -> JSON type.
_RESULT_TYPES = {
    "strategy": str,
    "call_sites": int,
    "call_sites_by_kind": dict,
    "entries": int,
    "eliminated": list,
    "schedule": list,
    "degraded": bool,
}


def is_payload(value: Any) -> bool:
    """Whether a cached value is a :func:`compile_payload` record.  A
    record some other version wrote, or a hand-edited file whose
    checksum still matches, is not — its reader treats it as a miss."""
    if not (
        isinstance(value, dict)
        and isinstance(value.get("ok"), bool)
        and isinstance(value.get("status"), int)
        and isinstance(value.get("diagnostics"), list)
        and isinstance(value.get("trace"), list)
        and all(
            isinstance(t, dict) and isinstance(t.get("pass"), str)
            and isinstance(t.get("wall_s"), (int, float))
            for t in value["trace"]
        )
    ):
        return False
    result = value.get("result")
    if not value["ok"]:
        return result is None
    return isinstance(result, dict) and all(
        isinstance(result.get(name), kind)
        for name, kind in _RESULT_TYPES.items()
    )
