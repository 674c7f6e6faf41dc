"""Asyncio HTTP/1.1 + JSON-RPC front end for the compile service.

Stdlib-only (``asyncio.start_server``): the container bakes no HTTP
framework, and the protocol surface is small.  Endpoints:

* ``POST /v1/compile`` — body is the JSON compile request (``source``,
  ``params``, ``strategy``, ``options``, ``tenant``, ``diagnostics``,
  ``trace``, ``id``); answers the service verdict (200 schedule, 422
  program error, 429 quota/backpressure with ``Retry-After``, 503
  quarantined, 500 internal);
* ``POST /rpc`` — JSON-RPC 2.0 (methods ``compile``, ``stats``,
  ``ping``), same verdict carried inside ``result.status``;
* ``GET /v1/stats`` — service + cache + server counters;
* ``GET /healthz`` — liveness.

Connections are keep-alive and **pipelined**: a reader task parses
requests as fast as they arrive and spawns one handler task each, while
a writer task streams the responses back in request order — so a single
connection can have many compiles in flight (the load harness uses this
to hold 1000+ concurrent requests on a bounded socket count).

Every completed request appends one JSON object to the NDJSON **access
log** (stdout under ``python -m repro serve``): method, path, status,
cache tier, coalesced flag, tenant, wall — a long-running server is
observable line by line, not via an end-of-run document.
"""

from __future__ import annotations

import asyncio
import json
import sys
import time
from datetime import datetime, timezone
from typing import Any, Optional, TextIO

from .app import CompileService, RequestError, RetryPolicy, parse_request

MAX_BODY_BYTES = 8 * 1024 * 1024
MAX_HEAD_BYTES = 64 * 1024

REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    422: "Unprocessable Entity", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _error_body(code: str, message: str) -> bytes:
    return json.dumps(
        {"ok": False, "error": {"code": code, "message": message}}
    ).encode()


class CompileServer:
    """One listening socket in front of a :class:`CompileService`."""

    def __init__(
        self,
        service: CompileService,
        host: str = "127.0.0.1",
        port: int = 0,
        access_log: Optional[TextIO] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.access_log = access_log
        self.requests_total = 0
        self.inflight = 0
        self.inflight_high_water = 0
        self.connections = 0
        self._server: asyncio.AbstractServer | None = None
        self._conn_tasks: "set[asyncio.Task]" = set()

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port,
            limit=MAX_HEAD_BYTES,
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        self._conn_tasks.clear()
        await self.service.close()

    # -- connection handling --------------------------------------------------

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self.connections += 1
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        queue: asyncio.Queue = asyncio.Queue()
        writer_task = asyncio.ensure_future(self._write_loop(queue, writer))
        cancelled = False
        try:
            await self._read_loop(reader, queue)
        except asyncio.CancelledError:
            cancelled = True  # server shutdown: swallow, close below
        finally:
            if cancelled:
                writer_task.cancel()
            else:
                queue.put_nowait(None)
            try:
                await writer_task
            except (asyncio.CancelledError, ConnectionError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass  # a cancel landing here must not mark the task
                # cancelled: asyncio's streams callback would log it
            self.connections -= 1
            if task is not None:
                self._conn_tasks.discard(task)

    async def _read_loop(
        self, reader: asyncio.StreamReader, queue: asyncio.Queue
    ) -> None:
        """Parse pipelined requests eagerly, one handler task each."""
        while True:
            try:
                head = await reader.readuntil(b"\r\n\r\n")
            except (asyncio.IncompleteReadError, asyncio.LimitOverrunError,
                    ConnectionError):
                return
            try:
                method, target, headers = self._parse_head(head)
            except ValueError:
                await queue.put(self._static_response(
                    400, _error_body("bad_request", "malformed request"),
                    close=True, meta={"method": "?", "path": "?"},
                ))
                return
            length = headers.get("content-length", "0")
            try:
                length = int(length)
            except ValueError:
                length = -1
            if length < 0 or length > MAX_BODY_BYTES:
                await queue.put(self._static_response(
                    413, _error_body("too_large", "body too large"),
                    close=True,
                    meta={"method": method, "path": target},
                ))
                return
            try:
                body = await reader.readexactly(length) if length else b""
            except (asyncio.IncompleteReadError, ConnectionError):
                return
            close = headers.get("connection", "").lower() == "close"
            self.requests_total += 1
            self.inflight += 1
            self.inflight_high_water = max(
                self.inflight_high_water, self.inflight
            )
            task = asyncio.ensure_future(
                self._dispatch(method, target, headers, body, close)
            )
            await queue.put(task)
            if close:
                return

    async def _write_loop(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Stream responses back in request order; a slow handler only
        delays its own and later responses on this connection."""
        dead = False
        while True:
            item = await queue.get()
            if item is None:
                return
            if isinstance(item, tuple):  # pre-rendered (parse errors)
                status, payload, headers, close, meta = item
            else:
                try:
                    status, payload, headers, close, meta = await item
                finally:
                    self.inflight -= 1
            if dead:
                continue  # peer gone: still retire the remaining tasks
            head = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
                    "Content-Type: application/json",
                    f"Content-Length: {len(payload)}",
                    f"Connection: {'close' if close else 'keep-alive'}"]
            head.extend(f"{k}: {v}" for k, v in headers.items())
            writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + payload)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                dead = True
                continue
            self._log(status, len(payload), meta)

    @staticmethod
    def _parse_head(head: bytes) -> tuple[str, str, dict[str, str]]:
        text = head.decode("latin-1")
        lines = text.split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
            raise ValueError(f"bad request line {lines[0]!r}")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if not sep:
                raise ValueError(f"bad header line {line!r}")
            headers[name.strip().lower()] = value.strip()
        return parts[0].upper(), parts[1], headers

    def _static_response(
        self, status: int, payload: bytes, close: bool, meta: dict[str, Any]
    ) -> tuple:
        self.requests_total += 1
        self.service.stats.count(status)
        return (status, payload, {}, close, meta)

    # -- routing --------------------------------------------------------------

    async def _dispatch(
        self, method: str, target: str, headers: dict[str, str],
        body: bytes, close: bool,
    ) -> tuple:
        t0 = time.perf_counter()
        meta: dict[str, Any] = {"method": method, "path": target}
        try:
            status, payload, extra = await self._route(
                method, target, headers, body, meta
            )
        except RequestError as exc:
            status, payload, extra = (
                exc.status, _error_body("bad_request", exc.message), {}
            )
            self.service.stats.count(exc.status)
        except Exception as exc:  # noqa: BLE001 - the transport catch-all
            status, payload, extra = (
                500,
                _error_body("internal", f"{type(exc).__name__}: {exc}"),
                {},
            )
            self.service.stats.count(500)
        meta["wall_ms"] = round((time.perf_counter() - t0) * 1000, 3)
        return status, payload, extra, close, meta

    async def _route(
        self, method: str, target: str, headers: dict[str, str],
        body: bytes, meta: dict[str, Any],
    ) -> tuple[int, bytes, dict[str, str]]:
        path = target.split("?", 1)[0]
        if path == "/v1/compile":
            if method != "POST":
                self.service.stats.count(405)
                return 405, _error_body("method", "POST required"), {}
            return await self._compile_http(headers, body, meta)
        if path == "/rpc":
            if method != "POST":
                self.service.stats.count(405)
                return 405, _error_body("method", "POST required"), {}
            return await self._rpc(headers, body, meta)
        if path == "/v1/stats":
            self.service.stats.count(200)
            return 200, json.dumps(self.stats_payload()).encode(), {}
        if path == "/healthz":
            self.service.stats.count(200)
            return 200, b'{"ok": true}', {}
        self.service.stats.count(404)
        return 404, _error_body("not_found", f"no route {path!r}"), {}

    def _decode(self, body: bytes) -> Any:
        try:
            return json.loads(body)
        except ValueError:
            raise RequestError("body is not valid JSON") from None

    async def _compile_http(
        self, headers: dict[str, str], body: bytes, meta: dict[str, Any]
    ) -> tuple[int, bytes, dict[str, str]]:
        obj = self._decode(body)
        if isinstance(obj, dict) and "tenant" not in obj:
            tenant = headers.get("x-tenant")
            if tenant:
                obj = {**obj, "tenant": tenant}
        req = parse_request(obj)
        response = await self.service.handle_compile(req)
        meta.update(
            tenant=req.tenant,
            key=response.body.get("key"),
            cache=response.body.get("cache"),
            coalesced=response.body.get("coalesced"),
        )
        return (
            response.status,
            json.dumps(response.body).encode(),
            response.headers,
        )

    async def _rpc(
        self, headers: dict[str, str], body: bytes, meta: dict[str, Any]
    ) -> tuple[int, bytes, dict[str, str]]:
        obj = self._decode(body)
        rid = obj.get("id") if isinstance(obj, dict) else None

        def rpc_error(code: int, message: str) -> tuple:
            self.service.stats.count(200)
            return 200, json.dumps({
                "jsonrpc": "2.0",
                "error": {"code": code, "message": message},
                "id": rid,
            }).encode(), {}

        if not isinstance(obj, dict) or obj.get("jsonrpc") != "2.0":
            return rpc_error(-32600, "not a JSON-RPC 2.0 request")
        method = obj.get("method")
        params = obj.get("params") or {}
        if method == "ping":
            self.service.stats.count(200)
            result: Any = "pong"
        elif method == "stats":
            self.service.stats.count(200)
            result = self.stats_payload()
        elif method == "compile":
            if not isinstance(params, dict):
                return rpc_error(-32602, "params must be an object")
            if isinstance(headers.get("x-tenant"), str) and "tenant" not in params:
                params = {**params, "tenant": headers["x-tenant"]}
            try:
                req = parse_request(params)
            except RequestError as exc:
                return rpc_error(-32602, exc.message)
            response = await self.service.handle_compile(req)
            meta.update(
                tenant=req.tenant,
                key=response.body.get("key"),
                cache=response.body.get("cache"),
                coalesced=response.body.get("coalesced"),
            )
            result = response.body
        else:
            return rpc_error(-32601, f"unknown method {method!r}")
        return 200, json.dumps(
            {"jsonrpc": "2.0", "result": result, "id": rid}
        ).encode(), {}

    # -- observability --------------------------------------------------------

    def stats_payload(self) -> dict[str, Any]:
        payload = self.service.stats_payload()
        payload["server"] = {
            "requests_total": self.requests_total,
            "inflight": self.inflight,
            "inflight_high_water": self.inflight_high_water,
            "connections": self.connections,
        }
        return payload

    def _log(self, status: int, size: int, meta: dict[str, Any]) -> None:
        if self.access_log is None:
            return
        record = {
            "ts": datetime.now(timezone.utc).isoformat(timespec="milliseconds"),
            "status": status,
            "bytes": size,
            **meta,
        }
        try:
            self.access_log.write(json.dumps(record) + "\n")
            self.access_log.flush()
        except (OSError, ValueError):
            self.access_log = None  # a dead log never kills the server


# -- CLI entry (python -m repro serve) ---------------------------------------


def run_server(args: Any) -> int:
    """Build the service from CLI args and serve until SIGINT/SIGTERM."""
    import signal

    from ..perf.cache import ScheduleCache
    from .quota import QuotaRegistry

    cache = ScheduleCache(
        memory_budget_bytes=args.memory_budget,
        cache_dir=args.cache_dir,
    )
    quotas = None
    if args.quota_rate is not None:
        quotas = QuotaRegistry(rate=args.quota_rate, burst=args.quota_burst)
    service = CompileService(
        cache=cache,
        workers=args.workers,
        policy=RetryPolicy(
            timeout=args.timeout,
            max_retries=args.retries,
            quarantine_after=args.quarantine_after,
        ),
        quotas=quotas,
        max_pending=args.max_pending,
    )
    if args.access_log == "-":
        log: Optional[TextIO] = sys.stdout
        log_close = False
    elif args.access_log in (None, "none"):
        log, log_close = None, False
    else:
        log, log_close = open(args.access_log, "a"), True
    server = CompileServer(
        service, host=args.host, port=args.port, access_log=log
    )

    async def _main() -> None:
        await server.start()
        print(
            f"repro compile service listening on "
            f"http://{args.host}:{server.port} "
            f"(workers={args.workers}, cache_dir={args.cache_dir})",
            file=sys.stderr,
        )
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        try:
            await stop.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:
        pass
    finally:
        if log_close and log is not None:
            log.close()
    summary = service.stats_payload()
    print(
        f"served {summary['service']['requests']} compile requests "
        f"({summary['service']['compiled']} compiled, "
        f"{summary['service']['coalesced']} coalesced, "
        f"cache hit rate {summary['cache']['hit_rate']:.0%})",
        file=sys.stderr,
    )
    return 0
