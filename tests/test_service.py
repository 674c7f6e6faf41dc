"""The asyncio compile service: HTTP/JSON-RPC round trips, cache tiers,
coalescing, quotas, backpressure, quarantine, and the access log.

Servers run with ``workers=0`` (in-process thread compiles): tests need
no crash isolation, and ``CompileService._invoke_worker`` is patched per
instance where a test must gate or fail the compile deterministically.
"""

from __future__ import annotations

import asyncio
import io
import json
import time
from typing import Any

import pytest

from repro.core.context import CompilerOptions
from repro.core.pipeline import compile_program
from repro.perf.batch import RetryPolicy
from repro.perf.cache import ScheduleCache, canonical_bytes
from repro.service.app import (
    CompileRequest,
    CompileService,
    RequestError,
    parse_request,
)
from repro.service.payload import compile_payload, schedule_payload
from repro.service.quota import QuotaRegistry, TokenBucket
from repro.service.server import CompileServer

from conftest import BAD_OPTION_VALUES

SRC = """PROGRAM svc
PARAM n = 8
PROCESSORS p(2)
REAL a(n)
REAL b(n)
DISTRIBUTE a(BLOCK) ONTO p
DISTRIBUTE b(BLOCK) ONTO p
b(2:n-1) = a(1:n-2)
END PROGRAM
"""

BAD_SRC = "PROGRAM broken\nREAL a(n)\nEND PROGRAM\n"


def run(coro):
    return asyncio.run(coro)


class Conn:
    """One keep-alive connection; requests may be pipelined (send many,
    then read the responses back in order)."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.reader: asyncio.StreamReader | None = None
        self.writer: asyncio.StreamWriter | None = None
        self._sent_at: list[float] = []  # FIFO: responses come in order

    async def open(self) -> "Conn":
        self.reader, self.writer = await asyncio.open_connection(
            self.host, self.port
        )
        return self

    def send(
        self,
        obj: Any,
        path: str = "/v1/compile",
        method: str = "POST",
        headers: dict[str, str] | None = None,
    ) -> None:
        body = json.dumps(obj).encode() if obj is not None else b""
        head = [f"{method} {path} HTTP/1.1", "Host: test",
                "Content-Type: application/json",
                f"Content-Length: {len(body)}"]
        head.extend(f"{k}: {v}" for k, v in (headers or {}).items())
        assert self.writer is not None
        self.writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + body)
        self._sent_at.append(time.perf_counter())

    async def read_response(self) -> tuple[int, dict[str, str], Any, float]:
        """(status, headers, decoded body, latency_ms) for the oldest
        outstanding request on this connection."""
        assert self.reader is not None
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ")[1])
        headers: dict[str, str] = {}
        for line in lines[1:]:
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        body = await self.reader.readexactly(length) if length else b""
        latency_ms = (time.perf_counter() - self._sent_at.pop(0)) * 1000
        return status, headers, json.loads(body) if body else None, latency_ms

    async def request(
        self,
        obj: Any,
        path: str = "/v1/compile",
        method: str = "POST",
        headers: dict[str, str] | None = None,
    ) -> tuple[int, dict[str, str], Any, float]:
        self.send(obj, path=path, method=method, headers=headers)
        assert self.writer is not None
        await self.writer.drain()
        return await self.read_response()

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass


async def _start(**kwargs) -> CompileServer:
    service = CompileService(workers=0, **kwargs.pop("service_kw", {}))
    server = CompileServer(service, port=0, **kwargs)
    await server.start()
    return server


async def _client(server: CompileServer) -> Conn:
    return await Conn("127.0.0.1", server.port).open()


class TestHttpCompile:
    def test_roundtrip_matches_direct_and_hits_cache(self):
        async def t():
            server = await _start()
            conn = await _client(server)
            try:
                status, _h, body, _ms = await conn.request(
                    {"source": SRC, "strategy": "comb"}
                )
                assert status == 200 and body["ok"]
                direct = compile_payload(SRC, None, "comb")
                assert canonical_bytes(body["result"]) == canonical_bytes(
                    direct["result"]
                )
                assert body["cache"] is None
                status, _h, body2, _ms = await conn.request(
                    {"source": SRC, "strategy": "comb"}
                )
                assert status == 200 and body2["cache"] == "memory"
                assert canonical_bytes(body2["result"]) == canonical_bytes(
                    direct["result"]
                )
            finally:
                await conn.close()
                await server.stop()
        run(t())

    def test_disk_tier_across_server_instances(self, tmp_path):
        async def t():
            server = await _start(service_kw={
                "cache": ScheduleCache(cache_dir=tmp_path)
            })
            conn = await _client(server)
            try:
                status, _h, body, _ms = await conn.request({"source": SRC})
                assert status == 200
            finally:
                await conn.close()
                await server.stop()

            server2 = await _start(service_kw={
                "cache": ScheduleCache(cache_dir=tmp_path)
            })
            conn2 = await _client(server2)
            try:
                status, _h, body2, _ms = await conn2.request({"source": SRC})
                assert status == 200 and body2["cache"] == "disk"
                assert canonical_bytes(body2["result"]) == canonical_bytes(
                    body["result"]
                )
            finally:
                await conn2.close()
                await server2.stop()
        run(t())

    def test_program_error_is_422_with_diagnostics(self):
        async def t():
            server = await _start()
            conn = await _client(server)
            try:
                status, _h, body, _ms = await conn.request(
                    {"source": BAD_SRC}
                )
                assert status == 422 and not body["ok"]
                assert body["diagnostics"]
                assert body["diagnostics"][0]["severity"] == "error"
            finally:
                await conn.close()
                await server.stop()
        run(t())

    def test_threshold_override_is_accepted(self):
        """An option whose default is ``None`` is parsed by its declared
        type, not its default's."""
        async def t():
            server = await _start()
            conn = await _client(server)
            try:
                status, _h, body, _ms = await conn.request({
                    "source": SRC, "options": {"combine_threshold_bytes": 4096},
                })
                assert status == 200 and body["ok"]
                direct = compile_program(
                    SRC, strategy="comb",
                    options=CompilerOptions(combine_threshold_bytes=4096),
                )
                assert canonical_bytes(body["result"]) == canonical_bytes(
                    schedule_payload(direct)
                )
            finally:
                await conn.close()
                await server.stop()
        run(t())

    @pytest.mark.parametrize(
        "name,value", BAD_OPTION_VALUES, ids=[n for n, _ in BAD_OPTION_VALUES]
    )
    def test_bad_option_value_is_422(self, name, value):
        async def t():
            server = await _start()
            conn = await _client(server)
            try:
                status, _h, body, _ms = await conn.request(
                    {"source": SRC, "options": {name: value}}
                )
                assert status == 422 and not body["ok"]
                assert body["error"]["message"].startswith(f"unknown {name}")
                assert server.service.stats.compiled == 0
            finally:
                await conn.close()
                await server.stop()
        run(t())

    def test_trace_and_diagnostics_flags(self):
        async def t():
            server = await _start()
            conn = await _client(server)
            try:
                _s, _h, lean, _ms = await conn.request({"source": SRC})
                assert "trace" not in lean and "diagnostics" not in lean
                _s, _h, full, _ms = await conn.request(
                    {"source": SRC, "trace": True, "diagnostics": True}
                )
                assert isinstance(full["diagnostics"], list)
                assert full["trace"] and all(
                    "wall_s" in t for t in full["trace"]
                )
            finally:
                await conn.close()
                await server.stop()
        run(t())

    def test_pipelined_responses_in_request_order(self):
        async def t():
            server = await _start()
            conn = await _client(server)
            try:
                for i in range(5):
                    conn.send({
                        "source": SRC,
                        "params": {"n": 8 + 2 * i},
                        "id": i,
                    })
                await conn.writer.drain()
                for i in range(5):
                    status, _h, body, _ms = await conn.read_response()
                    assert status == 200 and body["id"] == i
            finally:
                await conn.close()
                await server.stop()
        run(t())

    def test_x_tenant_header_fills_tenant(self):
        async def t():
            quotas = QuotaRegistry(tenants={"noisy": (1.0, 1.0)})
            server = await _start(service_kw={"quotas": quotas})
            conn = await _client(server)
            try:
                s1, _h, _b, _ms = await conn.request(
                    {"source": SRC}, headers={"X-Tenant": "noisy"}
                )
                s2, h2, _b, _ms = await conn.request(
                    {"source": SRC}, headers={"X-Tenant": "noisy"}
                )
                assert s1 == 200
                assert s2 == 429 and int(h2["retry-after"]) >= 1
                # other tenants are unlimited
                s3, _h, _b, _ms = await conn.request({"source": SRC})
                assert s3 == 200
            finally:
                await conn.close()
                await server.stop()
        run(t())

    def test_error_routes(self):
        async def t():
            server = await _start()
            conn = await _client(server)
            try:
                s, _h, body, _ms = await conn.request(
                    None, path="/v1/compile"
                )
                assert s == 400  # empty body is not JSON
                s, _h, _b, _ms = await conn.request({"nope": 1})
                assert s == 400  # no source
                s, _h, _b, _ms = await conn.request(
                    {"source": SRC, "strategy": "bogus"}
                )
                assert s == 400
                s, _h, _b, _ms = await conn.request(
                    {"source": SRC, "options": {"bogus_opt": 1}}
                )
                assert s == 400
                s, _h, _b, _ms = await conn.request(
                    None, path="/v1/compile", method="GET"
                )
                assert s == 405
                s, _h, _b, _ms = await conn.request(
                    None, path="/v1/nowhere", method="GET"
                )
                assert s == 404
                s, _h, body, _ms = await conn.request(
                    None, path="/healthz", method="GET"
                )
                assert s == 200 and body["ok"]
            finally:
                await conn.close()
                await server.stop()
        run(t())

    def test_stats_endpoint(self):
        async def t():
            server = await _start()
            conn = await _client(server)
            try:
                await conn.request({"source": SRC})
                s, _h, stats, _ms = await conn.request(
                    None, path="/v1/stats", method="GET"
                )
                assert s == 200
                assert stats["service"]["requests"] == 1
                assert stats["cache"]["misses"] == 1
                assert stats["server"]["requests_total"] == 2
                assert stats["cache_entries"] == 1
            finally:
                await conn.close()
                await server.stop()
        run(t())

    def test_concurrent_burst_zero_dropped(self):
        async def t():
            server = await _start()
            conns = [await _client(server) for _ in range(8)]
            try:
                direct = {}
                for i in range(64):
                    n = 8 + 2 * (i % 4)
                    if n not in direct:
                        direct[n] = compile_payload(SRC, {"n": n}, "comb")
                    conns[i % 8].send({
                        "source": SRC, "params": {"n": n}, "id": n,
                    })
                for conn in conns:
                    await conn.writer.drain()
                for conn in conns:
                    for _ in range(8):
                        s, _h, body, _ms = await conn.read_response()
                        assert s == 200
                        assert canonical_bytes(
                            body["result"]
                        ) == canonical_bytes(direct[body["id"]]["result"])
                stats = server.service.stats
                assert stats.requests == 64
                assert stats.compiled == len(direct)
            finally:
                for conn in conns:
                    await conn.close()
                await server.stop()
        run(t())

    def test_access_log_is_ndjson(self):
        async def t():
            log = io.StringIO()
            server = await _start(access_log=log)
            conn = await _client(server)
            try:
                await conn.request({"source": SRC})
                await conn.request(None, path="/healthz", method="GET")
                await conn.request(None, path="/v1/nowhere", method="GET")
            finally:
                await conn.close()
                await server.stop()
            lines = [ln for ln in log.getvalue().splitlines() if ln]
            assert len(lines) == 3
            records = [json.loads(ln) for ln in lines]
            assert [r["status"] for r in records] == [200, 200, 404]
            assert all("ts" in r and "path" in r for r in records)
        run(t())


class TestJsonRpc:
    def test_methods(self):
        async def t():
            server = await _start()
            conn = await _client(server)
            try:
                _s, _h, body, _ms = await conn.request(
                    {"jsonrpc": "2.0", "method": "ping", "id": 1},
                    path="/rpc",
                )
                assert body == {"jsonrpc": "2.0", "result": "pong", "id": 1}
                _s, _h, body, _ms = await conn.request(
                    {"jsonrpc": "2.0", "method": "compile",
                     "params": {"source": SRC}, "id": 2},
                    path="/rpc",
                )
                assert body["result"]["status"] == 200
                direct = compile_payload(SRC, None, "comb")
                assert canonical_bytes(
                    body["result"]["result"]
                ) == canonical_bytes(direct["result"])
                _s, _h, body, _ms = await conn.request(
                    {"jsonrpc": "2.0", "method": "stats", "id": 3},
                    path="/rpc",
                )
                assert "cache" in body["result"]
            finally:
                await conn.close()
                await server.stop()
        run(t())

    def test_protocol_errors(self):
        async def t():
            server = await _start()
            conn = await _client(server)
            try:
                _s, _h, body, _ms = await conn.request(
                    {"method": "ping"}, path="/rpc"
                )
                assert body["error"]["code"] == -32600
                _s, _h, body, _ms = await conn.request(
                    {"jsonrpc": "2.0", "method": "nope", "id": 9},
                    path="/rpc",
                )
                assert body["error"]["code"] == -32601
                assert body["id"] == 9
                _s, _h, body, _ms = await conn.request(
                    {"jsonrpc": "2.0", "method": "compile",
                     "params": {"strategy": "comb"}, "id": 10},
                    path="/rpc",
                )
                assert body["error"]["code"] == -32602
            finally:
                await conn.close()
                await server.stop()
        run(t())


class TestServiceCore:
    def test_coalescing_n_identical_one_compile(self):
        async def t():
            service = CompileService(workers=0)
            await service.start()
            gate = asyncio.Event()

            async def gated(req: CompileRequest, executor):
                await gate.wait()
                return compile_payload(
                    req.source, req.params, req.strategy, req.options
                )

            service._invoke_worker = gated
            req = CompileRequest(source=SRC)
            tasks = [
                asyncio.ensure_future(service.handle_compile(req))
                for _ in range(8)
            ]
            for _ in range(10):  # let every task reach the future
                await asyncio.sleep(0)
            gate.set()
            responses = await asyncio.gather(*tasks)
            assert service.stats.compiled == 1
            assert service.stats.coalesced == 7
            bodies = {
                canonical_bytes(r.body["result"]) for r in responses
            }
            assert len(bodies) == 1
            assert all(r.status == 200 for r in responses)
            assert sum(1 for r in responses if r.body["coalesced"]) == 7
            await service.close()
        run(t())

    def test_backpressure_sheds_distinct_work_only(self):
        async def t():
            service = CompileService(workers=0, max_pending=1)
            await service.start()
            gate = asyncio.Event()

            async def gated(req: CompileRequest, executor):
                await gate.wait()
                return compile_payload(
                    req.source, req.params, req.strategy, req.options
                )

            service._invoke_worker = gated
            first = asyncio.ensure_future(
                service.handle_compile(CompileRequest(source=SRC))
            )
            for _ in range(5):
                await asyncio.sleep(0)
            # a distinct program is shed with 429 + Retry-After ...
            shed = await service.handle_compile(
                CompileRequest(source=SRC, params={"n": 10})
            )
            assert shed.status == 429
            assert shed.body["error"]["code"] == "backpressure"
            assert "Retry-After" in shed.headers
            # ... but an identical one coalesces (always admitted)
            second = asyncio.ensure_future(
                service.handle_compile(CompileRequest(source=SRC))
            )
            for _ in range(5):
                await asyncio.sleep(0)
            gate.set()
            r1, r2 = await asyncio.gather(first, second)
            assert r1.status == r2.status == 200
            assert service.stats.backpressure_rejected == 1
            await service.close()
        run(t())

    def test_quarantine_after_repeated_timeouts(self):
        async def t():
            service = CompileService(
                workers=0,
                policy=RetryPolicy(timeout=0.05, max_retries=1,
                                   backoff=0.01, quarantine_after=2),
            )
            await service.start()

            async def hang(req: CompileRequest, executor):
                await asyncio.sleep(30)

            service._invoke_worker = hang
            req = CompileRequest(source=SRC)
            response = await service.handle_compile(req)
            assert response.status == 503
            assert response.body["error"]["code"] == "quarantined"
            assert service.stats.timeouts == 2
            assert service.stats.quarantined == 1
            # the key is now answered without touching the pool
            again = await service.handle_compile(req)
            assert again.status == 503
            assert "Retry-After" in again.headers
            await service.close()
        run(t())

    def test_422_cached_in_memory_but_not_durable(self, tmp_path):
        async def t():
            cache = ScheduleCache(cache_dir=tmp_path)
            service = CompileService(workers=0, cache=cache)
            await service.start()
            req = CompileRequest(source=BAD_SRC)
            r1 = await service.handle_compile(req)
            r2 = await service.handle_compile(req)
            assert r1.status == r2.status == 422
            assert r2.body["cache"] == "memory"
            await service.close()
            # a fresh cache over the same dir must NOT see the failure
            fresh = ScheduleCache(cache_dir=tmp_path)
            assert fresh.get(req.key()) is None
        run(t())


class TestParsing:
    def test_parse_request_validation(self):
        with pytest.raises(RequestError):
            parse_request("not a dict")
        with pytest.raises(RequestError):
            parse_request({})
        with pytest.raises(RequestError):
            parse_request({"source": SRC, "params": {"n": "eight"}})
        with pytest.raises(RequestError):
            parse_request({"source": SRC, "strategy": "bogus"})
        with pytest.raises(RequestError):
            parse_request({"source": SRC, "tenant": ""})
        with pytest.raises(RequestError):
            parse_request({"source": SRC, "diagnostics": "yes"})
        req = parse_request({
            "source": SRC,
            "params": {"n": 16},
            "strategy": "nored",
            "options": {"strict": True, "disabled_passes": ["cse"]},
            "tenant": "team-a",
            "trace": True,
            "id": "r-1",
        })
        assert req.strategy == "nored"
        assert req.options.strict is True
        assert req.options.disabled_passes == ("cse",)
        assert req.key()  # hashable into a job key

    def test_token_bucket_refill(self):
        clock = [0.0]
        bucket = TokenBucket(rate=2.0, burst=2.0, clock=lambda: clock[0])
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        wait = bucket.acquire()
        assert wait == pytest.approx(0.5)
        clock[0] += 0.5  # one token refilled
        assert bucket.acquire() == 0.0
