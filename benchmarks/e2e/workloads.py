"""The four workloads: compile, run, run over the wire, serve.

Each stresses different layers on purpose (see README.md for the table
of predictions); together they cover every module under ``src/repro``
that does timed work for a user.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import re
import shutil
import statistics
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

import corpus
from harness import RoundResult, Sample, Workload, ratio

from repro import (
    SP2,
    CompilerOptions,
    ReproError,
    check_schedule,
    compile_program,
    schedule_report,
    simulate,
)
from repro.cost.lower_bound import lower_bound
from repro.frontend.lexer import tokenize
from repro.perf.batch import BatchJob, job_key
from repro.perf.cache import ScheduleCache, canonical_bytes
from repro.runtime.spmd import SPMDExecutor, execute_spmd
from repro.service.app import CompileService, parse_request
from repro.service.payload import compile_payload
from repro.service.server import CompileServer
from repro.transport import make_transport
from tracing import TimingTransport

BROKEN_SOURCE = "PROGRAM broken\n  REAL a(\nEND PROGRAM\n"


class _Base(Workload):
    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.rng = corpus.workload_rng(self.name, self.seed)
        self.data_seed = corpus.data_seed_for(self.seed)
        self.refs = corpus.Refs()
        #: sums over traced ops, turned into means and ratios at the end
        self.acc: dict[str, float] = defaultdict(float)
        self.traced_ops = 0

    def op(self, op_id: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.op(op_id)

    def mean(self, name: str) -> float:
        return ratio(self.acc[name], self.traced_ops)

    def executed_counts(self, cls, result) -> Optional[tuple[int, int, int]]:
        """Run ``result`` on the default data path and compare the final
        state bitwise with the element-wise interpreter's.  Returns
        (messages, bytes moved, byte floor), or None after recording the
        failure."""
        try:
            arrays, stats = execute_spmd(result, seed=self.data_seed)
        except ReproError as exc:
            self.late_failures.append((cls.name, f"execute: {exc}"))
            return None
        expected = self.refs.digest(cls, result.info, self.data_seed)
        if corpus.arrays_digest(arrays) != expected:
            self.late_failures.append(
                (cls.name, "final arrays differ from the interpreter's")
            )
            return None
        if stats.degradations:
            self.late_failures.append((cls.name, "runtime degraded"))
            return None
        return (stats.messages, stats.bytes_moved,
                self.refs.floor(cls, result.info))


def _wire_counts(rows: list[tuple[int, int, int]]) -> dict[str, float]:
    return {
        "wire_msgs_per_op": statistics.fmean(r[0] for r in rows),
        "wire_bytes_per_lb": statistics.geometric_mean(
            r[1] / r[2] for r in rows),
    }


# -- compile_corpus -------------------------------------------------------------


class CompileCorpus(_Base):
    name = "compile_corpus"

    def setup(self) -> None:
        self.classes = corpus.compile_classes(self.seed, self.smoke)
        self.order = list(self.classes)
        self.rng.shuffle(self.order)
        self.results: dict[str, object] = {}
        self.reports: dict[str, str] = {}
        self.tokens = {
            c.name: len(tokenize(c.source)) for c in self.classes
        }
        self.executed: list[tuple[int, int, int]] = []

    def inject_failure(self) -> None:
        self.order.append(corpus.OpClass(
            "broken:comb", "broken", BROKEN_SOURCE, (), "comb"
        ))

    def round(self, traced: bool) -> RoundResult:
        samples = []
        for cls in self.order:
            t0 = time.perf_counter()
            try:
                with self.op(cls.name):
                    result = compile_program(
                        cls.source, cls.param_dict, cls.strategy
                    )
            except ReproError as exc:
                samples.append(Sample(
                    cls.name, time.perf_counter() - t0, False,
                    f"{type(exc).__name__}: {exc}",
                ))
                continue
            seconds = time.perf_counter() - t0
            why = self._check(cls, result)
            samples.append(Sample(cls.name, seconds, not why, why))
            if traced:
                self._count(cls, result)
        return RoundResult(sum(s.seconds for s in samples), samples)

    def _check(self, cls, result) -> str:
        self.results[cls.name] = result
        if result.degraded:
            codes = ",".join(d.code for d in result.degradations)
            return f"degraded ({codes})"
        report = schedule_report(result)
        if self.reports.setdefault(cls.name, report) != report:
            return "schedule differs between rounds"
        return ""

    def _count(self, cls, result) -> None:
        acc = self.acc
        self.traced_ops += 1
        acc["tokens"] += self.tokens.get(cls.name, 0)
        acc["ir.nodes"] += len(result.ctx.cfg.nodes)
        for layer, cache in (
            ("dependence", "dependence"), ("sections", "section"),
            ("comm.combinable", "combinable"), ("core.subsumes", "subsumes"),
        ):
            stats = result.ctx.cache_stats.get(cache)
            acc[f"{layer}.hits"] += stats.hits
            acc[f"{layer}.lookups"] += stats.lookups
        acc["core.entries"] += len(result.entries)
        acc["core.candidates_deactivated"] += sum(
            t.stats.get("deactivated", 0) for t in result.pass_traces
        )
        acc["core.entries_eliminated"] += len(result.eliminated_entries())
        acc["core.call_sites"] += result.call_sites()
        acc["core.degradations"] += len(result.degradations)

    def verify(self) -> None:
        for cls in self.classes:
            result = self.results.get(cls.name)
            if result is None:
                continue  # every round's compile already failed
            try:
                check_schedule(result, self.data_seed)
            except ReproError as exc:
                self.late_failures.append((cls.name, f"oracle: {exc}"))
                continue
            counts = self.executed_counts(cls, result)
            if counts is not None:
                self.executed.append(counts)

    def counts(self) -> dict[str, float]:
        sites = [self.results[c.name].call_sites() for c in self.classes
                 if c.name in self.results]
        return {
            "call_sites_per_program": statistics.fmean(sites),
            **_wire_counts(self.executed),
        }

    def layer_metrics(self, totals: dict) -> dict[str, float]:
        acc = self.acc
        parse_s = totals.get("frontend.parse", {}).get("total_s", 0.0)
        out = {
            "frontend.tokens_per_s": ratio(acc["tokens"], parse_s),
            "ir.nodes": self.mean("ir.nodes"),
            "dependence.tests": self.mean("dependence.lookups"),
            "dependence.cache_hit_ratio": ratio(
                acc["dependence.hits"], acc["dependence.lookups"]),
            "sections.built": ratio(
                acc["sections.lookups"] - acc["sections.hits"],
                self.traced_ops),
            "sections.cache_hit_ratio": ratio(
                acc["sections.hits"], acc["sections.lookups"]),
            "comm.combinable_checks": self.mean("comm.combinable.lookups"),
            "comm.combinable_hit_ratio": ratio(
                acc["comm.combinable.hits"], acc["comm.combinable.lookups"]),
            "core.subsumes_checks": self.mean("core.subsumes.lookups"),
            "core.subsumes_hit_ratio": ratio(
                acc["core.subsumes.hits"], acc["core.subsumes.lookups"]),
        }
        for name in ("entries", "candidates_deactivated",
                     "entries_eliminated", "call_sites", "degradations"):
            out[f"core.{name}"] = self.mean(f"core.{name}")
        out.update(self._side_trace())
        return out

    def _side_trace(self) -> dict[str, float]:
        """The engines no timed path uses, once over the six Figure 10
        programs: the exact solver, the scipy ILP, the cost floor and
        the machine simulator — recorded so that keeping or retiring one
        of them is decided with a number."""
        solve_ms, ilp_ms, nodes, proved, lb_ms, sim_ms = [], [], [], [], [], []
        unanalyzed = 0
        budget = 100 if self.smoke else 400
        for cls in corpus.fig10_compile_classes(smoke=True):
            if cls.strategy != "comb":
                continue
            exact = compile_program(
                cls.source, cls.param_dict, "comb",
                CompilerOptions(pass_pipeline=("exact",),
                                solver_budget_ms=budget),
            )
            trace = next(t for t in exact.pass_traces if t.name == "exact")
            solve_ms.append(trace.stats.get("solver_ms", 0))
            nodes.append(trace.stats.get("solver_nodes", 0))
            proved.append(trace.stats.get("solver_proved", 0))
            ilp = compile_program(
                cls.source, cls.param_dict, "comb",
                CompilerOptions(placement_search="ilp"),
            )
            ilp_ms.append(next(
                t.wall_s for t in ilp.pass_traces if t.name == "ilp"
            ) * 1e3)
            t0 = time.perf_counter()
            floor = lower_bound(exact.info)
            lb_ms.append((time.perf_counter() - t0) * 1e3)
            unanalyzed += floor.unanalyzed_statements
            t0 = time.perf_counter()
            simulate(exact, SP2)
            sim_ms.append((time.perf_counter() - t0) * 1e3)
        return {
            "solver.solve_ms": statistics.fmean(solve_ms),
            "solver.nodes": statistics.fmean(nodes),
            "solver.proved_share": statistics.fmean(proved),
            "core.ilp_ms": statistics.fmean(ilp_ms),
            "cost.lower_bound_ms": statistics.fmean(lb_ms),
            "cost.unanalyzed_refs": float(unanalyzed),
            "machine.simulate_ms": statistics.fmean(sim_ms),
        }


# -- run_compute / run_wire -----------------------------------------------------


class _RunExec(_Base):
    def classes_for(self) -> list[corpus.OpClass]:
        raise NotImplementedError

    def setup(self) -> None:
        self.classes = self.classes_for()
        self.order = list(self.classes)
        self.rng.shuffle(self.order)
        self.compiled = {
            c.name: compile_program(c.source, c.param_dict, c.strategy)
            for c in self.classes
        }
        self.expected = {
            c.name: self.refs.digest(
                c, self.compiled[c.name].info, self.data_seed)
            for c in self.classes
        }
        self.floors = {
            c.name: self.refs.floor(c, self.compiled[c.name].info)
            for c in self.classes
        }
        self.wire_counts: dict[str, tuple[int, int]] = {}
        #: per traced op: (class, wire messages, wire bytes sent)
        self.wire_rows: list[tuple[corpus.OpClass, int, int]] = []

    def inject_failure(self) -> None:
        self.expected[self.order[0].name] = "0" * 64

    def round(self, traced: bool) -> RoundResult:
        samples = []
        for cls in self.order:
            result = self.compiled[cls.name]
            t0 = time.perf_counter()
            try:
                with self.op(cls.name):
                    arrays, stats, wire = self._execute(cls, result, traced)
            except ReproError as exc:
                samples.append(Sample(
                    cls.name, time.perf_counter() - t0, False,
                    f"{type(exc).__name__}: {exc}",
                ))
                continue
            seconds = time.perf_counter() - t0
            why = self._check(cls, arrays, stats)
            samples.append(Sample(cls.name, seconds, not why, why))
            if traced:
                self._count(cls, stats, wire)
        return RoundResult(sum(s.seconds for s in samples), samples)

    def _execute(self, cls, result, traced: bool):
        if not traced:
            arrays, stats = execute_spmd(
                result, seed=self.data_seed, transport=cls.backend
            )
            return arrays, stats, None
        # execute_spmd's clean path, one span per step.
        transport = None
        if cls.backend is not None:
            params = cls.param_dict
            transport = TimingTransport(
                make_transport(cls.backend, params["pr"] * params["pc"]),
                self.tracer,
            )
        with self.tracer.span("runtime.build"):
            executor = SPMDExecutor(
                result, self.data_seed, transport=transport
            )
        try:
            with self.tracer.span("runtime.run"):
                stats = executor.run()
            with self.tracer.span("runtime.assemble"):
                arrays = executor.assemble()
        finally:
            executor.close()
        return arrays, stats, executor.wire

    def _check(self, cls, arrays, stats) -> str:
        if stats.degradations:
            return "runtime degraded (W07xx)"
        if corpus.arrays_digest(arrays) != self.expected[cls.name]:
            return "final arrays differ from the interpreter's digest"
        moved = (stats.messages, stats.bytes_moved)
        if self.wire_counts.setdefault(cls.name, moved) != moved:
            return "wire counters differ between rounds"
        return ""

    def _count(self, cls, stats, wire) -> None:
        acc = self.acc
        self.traced_ops += 1
        for name in ("plan_compile_s", "plan_compiles", "plan_cache_hits",
                     "plan_translations", "kernel_firings", "kernel_compiles",
                     "kernel_cache_hits", "vectorized_firings",
                     "fallback_firings", "bcopy_calls", "elements_written",
                     "messages", "bytes_moved"):
            acc[f"runtime.{name}"] += getattr(stats, name)
        if wire is None:
            return
        self.wire_rows.append((cls, wire.messages, wire.bytes_sent))
        for name in ("ops", "messages", "bytes_sent", "local_copies",
                     "pool_hits", "pool_misses", "retransmits",
                     "crc_failures"):
            acc[f"transport.{name}"] += getattr(wire, name)
        for name in ("send_s", "recv_s", "wait_s", "barrier_s"):
            acc[f"transport.{name}"] += sum(getattr(wire, name).values())

    def counts(self) -> dict[str, float]:
        rows = [
            (*self.wire_counts[c.name], self.floors[c.name])
            for c in self.classes if c.name in self.wire_counts
        ]
        return {
            "call_sites_per_program": statistics.fmean(
                r.call_sites() for r in self.compiled.values()),
            **_wire_counts(rows),
        }

    def _execute_seconds(self, wanted) -> tuple[float, int, int, int]:
        """Time in ``transport.execute`` spans, ops, wire messages and
        bytes of the traced ops whose class satisfies ``wanted``."""
        names = {c.name for c, _, _ in self.wire_rows if wanted(c)}
        seconds = sum(
            end - start for name, start, end, _, op in self.tracer.spans
            if name == "transport.execute" and op in names
        )
        rows = [r for r in self.wire_rows if wanted(r[0])]
        return (seconds, len(rows), sum(r[1] for r in rows),
                sum(r[2] for r in rows))

    def layer_metrics(self, totals: dict) -> dict[str, float]:
        acc = self.acc
        run_s = totals.get("runtime.run", {}).get("total_s", 0.0)
        out = {
            "codegen.kernel_compiles": self.mean("runtime.kernel_compiles"),
            "runtime.plan_compile_s": self.mean("runtime.plan_compile_s"),
            "runtime.plan_hit_ratio": ratio(
                acc["runtime.plan_cache_hits"],
                acc["runtime.plan_cache_hits"] + acc["runtime.plan_compiles"]),
            "runtime.kernel_cache_hit_ratio": ratio(
                acc["runtime.kernel_cache_hits"],
                acc["runtime.kernel_cache_hits"]
                + acc["runtime.kernel_compiles"]),
            "runtime.elements_per_s": ratio(
                acc["runtime.elements_written"], run_s),
            "transport.pool_hit_ratio": ratio(
                acc["transport.pool_hits"],
                acc["transport.pool_hits"] + acc["transport.pool_misses"]),
        }
        for name in ("plan_compiles", "plan_translations", "kernel_firings",
                     "vectorized_firings", "fallback_firings", "bcopy_calls",
                     "messages", "bytes_moved"):
            out[f"runtime.{name}"] = self.mean(f"runtime.{name}")
        for name in ("ops", "messages", "bytes_sent", "local_copies",
                     "send_s", "recv_s", "wait_s", "barrier_s",
                     "retransmits", "crc_failures"):
            out[f"transport.{name}"] = self.mean(f"transport.{name}")
        for backend in ("threaded", "multiprocess"):
            seconds, ops, _, _ = self._execute_seconds(
                lambda c, b=backend: c.backend == b)
            out[f"transport.{backend}.execute_ms"] = ratio(seconds * 1e3, ops)
        seconds, _, messages, _ = self._execute_seconds(
            lambda c: c.program == "gravity")
        out["transport.us_per_msg"] = ratio(seconds * 1e6, messages)
        seconds, _, _, sent = self._execute_seconds(
            lambda c: c.program == "hydflo_flux")
        out["transport.mb_per_s"] = ratio(sent / 1e6, seconds)
        return out


class RunCompute(_RunExec):
    name = "run_compute"

    def classes_for(self):
        return corpus.run_compute_classes(self.smoke)


class RunWire(_RunExec):
    name = "run_wire"

    def classes_for(self):
        return corpus.run_wire_classes(self.smoke)


# -- serve_mixed ----------------------------------------------------------------

_LENGTH = re.compile(rb"content-length:\s*(\d+)", re.IGNORECASE)
REQUEST_TIMEOUT_S = 60.0
HOT_SHARE = 0.85


@dataclass
class _Request:
    cls: corpus.OpClass
    hot: bool
    wire: bytes


def _encode(cls: corpus.OpClass) -> tuple[dict, bytes]:
    body = {"source": cls.source, "params": cls.param_dict,
            "strategy": cls.strategy}
    raw = json.dumps(body).encode()
    head = (
        "POST /v1/compile HTTP/1.1\r\nHost: bench\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(raw)}\r\n\r\n"
    ).encode()
    return body, head + raw


class ServeMixed(_Base):
    name = "serve_mixed"

    def setup(self) -> None:
        self.requests_per_round = 60 if self.smoke else 500
        self.hot = corpus.fig10_compile_classes(self.smoke)
        self.fresh = corpus.FreshKeys(self.rng)
        self.bodies = {}
        self.payloads = {}
        self.hot_wire = {}
        for cls in self.hot:
            self.bodies[cls.name], self.hot_wire[cls.name] = _encode(cls)
            self.payloads[cls.name] = compile_payload(
                cls.source, cls.param_dict, cls.strategy
            )
        self.expected = {
            name: canonical_bytes(p["result"])
            for name, p in self.payloads.items()
        }
        # A third of the hot set fits in memory, so memory hits, disk
        # hits and compiles all occur.
        budget = sum(
            len(canonical_bytes(p)) for p in self.payloads.values()) // 3
        self.cache_dir = tempfile.mkdtemp(prefix="cache-", dir=self.work_dir)
        self.cache = ScheduleCache(
            memory_budget_bytes=budget, cache_dir=self.cache_dir
        )
        for cls in self.hot:
            self.cache.put(
                parse_request(self.bodies[cls.name]).key(),
                self.payloads[cls.name],
            )
        self.service = CompileService(cache=self.cache, workers=1)
        self.server = CompileServer(self.service, port=0)
        self.loop = asyncio.new_event_loop()
        self.loop.run_until_complete(self.server.start())
        self.conns = [
            self.loop.run_until_complete(
                asyncio.open_connection("127.0.0.1", self.server.port))
            for _ in range(2)
        ]
        self._plan_round()
        self.bad_request: Optional[int] = None
        self.fresh_sites: list[int] = []
        self.fresh_to_verify: list[tuple[corpus.OpClass, bytes]] = []
        self.tier_samples: dict[str, list[float]] = defaultdict(list)
        self.direct_compile_s: list[float] = []
        self.executed: list[tuple[int, int, int]] = []

    def _plan_round(self) -> None:
        """Slots of one round: every hot key once, Zipf(1) draws over a
        seeded ranking for the rest of the hot share, the remainder
        never-seen keys; positions shuffled once and kept."""
        n = self.requests_per_round
        hot_n = round(n * HOT_SHARE)
        ranked = list(self.hot)
        self.rng.shuffle(ranked)
        weights = [1.0 / (rank + 1) for rank in range(len(ranked))]
        drawn = self.rng.choices(
            ranked, weights, k=max(0, hot_n - len(ranked)))
        self.slots: list[Optional[corpus.OpClass]] = (
            (ranked + drawn)[:hot_n] + [None] * (n - hot_n)
        )
        self.rng.shuffle(self.slots)

    def inject_failure(self) -> None:
        self.bad_request = 0

    def round(self, traced: bool) -> RoundResult:
        return self.loop.run_until_complete(self._round(traced))

    def _round_requests(self) -> list[_Request]:
        out = []
        fresh_slot = 0
        for cls in self.slots:
            if cls is not None:
                out.append(_Request(cls, True, self.hot_wire[cls.name]))
                continue
            made = self.fresh.make(fresh_slot)
            fresh_slot += 1
            out.append(_Request(made, False, _encode(made)[1]))
        if self.bad_request is not None:
            broken = corpus.OpClass(
                "broken:comb", "broken", BROKEN_SOURCE, (), "comb")
            out[self.bad_request] = _Request(broken, False, _encode(broken)[1])
        return out

    async def _call(self, conn, wire: bytes) -> tuple[int, bytes]:
        reader, writer = conn
        writer.write(wire)
        await writer.drain()
        head = await reader.readuntil(b"\r\n\r\n")
        length = int(_LENGTH.search(head).group(1))
        return int(head[9:12]), await reader.readexactly(length)

    async def _round(self, traced: bool) -> RoundResult:
        requests = self._round_requests()
        replies: list = [None] * len(requests)
        cursor = iter(range(len(requests)))

        async def client(conn) -> None:
            # Closed loop, window 1: compile clients wait for the reply.
            for index in cursor:
                t0 = time.perf_counter()
                try:
                    status, body = await asyncio.wait_for(
                        self._call(conn, requests[index].wire),
                        REQUEST_TIMEOUT_S,
                    )
                except (asyncio.TimeoutError, OSError, EOFError,
                        AttributeError, ValueError) as exc:
                    replies[index] = (
                        time.perf_counter() - t0, 0, b"", repr(exc))
                    continue
                t1 = time.perf_counter()
                replies[index] = (t1 - t0, status, body, "")
                if traced:
                    self.tracer.flat("op", t0, t1, requests[index].cls.name)

        t0 = time.perf_counter()
        await asyncio.gather(*(client(conn) for conn in self.conns))
        wall = time.perf_counter() - t0
        samples = [
            self._judge(request, *reply)
            for request, reply in zip(requests, replies)
        ]
        if traced:
            self.traced_ops += len(samples)
        return RoundResult(wall, samples)

    def _judge(self, request: _Request, seconds: float, status: int,
               body: bytes, error: str) -> Sample:
        if error:
            return Sample("failed", seconds, False, error)
        if status != 200:
            return Sample("failed", seconds, False, f"HTTP {status}")
        reply = json.loads(body)
        if reply.get("coalesced"):
            tier = "coalesced"
        else:
            tier = {"memory": "hit:memory", "disk": "hit:disk"}.get(
                reply.get("cache"), "compiled")
        self.tier_samples["hot" if request.hot else "fresh"].append(seconds)
        result = canonical_bytes(reply["result"])
        if request.hot:
            if result != self.expected[request.cls.name]:
                return Sample(tier, seconds, False,
                              "payload differs from a direct compile")
        else:
            self.fresh_sites.append(reply["result"]["call_sites"])
            if self.rng.random() < 0.10:
                self.fresh_to_verify.append((request.cls, result))
        return Sample(tier, seconds, True)

    def verify(self) -> None:
        for cls, served in self.fresh_to_verify:
            t0 = time.perf_counter()
            direct = compile_payload(cls.source, cls.param_dict, cls.strategy)
            self.direct_compile_s.append(time.perf_counter() - t0)
            if canonical_bytes(direct["result"]) != served:
                self.late_failures.append(
                    (cls.name, "fresh payload differs from a direct compile"))
        # The served schedules, executed: what the wire metrics of this
        # workload are counted on.
        for cls in self.hot:
            result = compile_program(cls.source, cls.param_dict, cls.strategy)
            counts = self.executed_counts(cls, result)
            if counts is not None:
                self.executed.append(counts)

    def counts(self) -> dict[str, float]:
        per_round = self.requests_per_round - round(
            self.requests_per_round * HOT_SHARE)
        sites = [p["result"]["call_sites"] for p in self.payloads.values()]
        sites += self.fresh_sites[:per_round]
        return {
            "call_sites_per_program": statistics.fmean(sites),
            **_wire_counts(self.executed),
        }

    def layer_metrics(self, totals: dict) -> dict[str, float]:
        cache, service = self.cache.stats, self.service.stats
        ops = self.service.stats.requests or 1
        out = {
            "perf.cache.memory_hits": cache.memory_hits / ops,
            "perf.cache.disk_hits": cache.disk_hits / ops,
            "perf.cache.misses": cache.misses / ops,
            "perf.cache.evictions": cache.evictions / ops,
            "perf.cache.hit_ratio": cache.hit_rate,
            "service.compiled": service.compiled / ops,
            "service.coalesced": service.coalesced / ops,
            "service.pending_high_water": float(service.pending_high_water),
            "service.rejected": float(
                service.quota_rejected + service.backpressure_rejected),
            "service.hot_p50_ms": statistics.median(
                self.tier_samples["hot"]) * 1e3,
            "service.fresh_p50_ms": statistics.median(
                self.tier_samples["fresh"]) * 1e3,
        }
        out["service.pool_wait_ms"] = out["service.fresh_p50_ms"] - (
            statistics.median(self.direct_compile_s) * 1e3
            if self.direct_compile_s else 0.0
        )
        out.update(self.loop.run_until_complete(self._probes()))
        out["service.http_overhead_us"] = (
            out["service.hot_p50_ms"] * 1e3 - out["service.handle_warm_us"]
        )
        return out

    async def _probes(self) -> dict[str, float]:
        """Direct calls on the hot keys, after the rounds, against a
        scratch cache so the service's own counters stay as measured."""
        names = [c.name for c in self.hot]
        reps = 2 if self.smoke else 20

        def per_call_us(fn, items) -> float:
            t0 = time.perf_counter()
            for _ in range(reps):
                for item in items:
                    fn(item)
            return (time.perf_counter() - t0) * 1e6 / (reps * len(items))

        parsed = [parse_request(self.bodies[n]) for n in names]
        jobs = [BatchJob("probe", r.source, r.params, r.strategy, r.options)
                for r in parsed]
        keys = [job_key(j) for j in jobs]
        scratch_dir = tempfile.mkdtemp(prefix="probe-", dir=self.work_dir)
        try:
            scratch = ScheduleCache(
                memory_budget_bytes=self.cache.memory_budget_bytes,
                cache_dir=scratch_dir,
            )
            pairs = list(zip(keys, (self.payloads[n] for n in names)))
            put_us = per_call_us(lambda kv: scratch.put(*kv), pairs[:8])
            for pair in pairs:
                scratch.put(*pair)
            lookup_us = per_call_us(scratch.lookup, keys)
        finally:
            shutil.rmtree(scratch_dir, ignore_errors=True)
        # Warm handling without HTTP: the keys the memory tier holds
        # after one pass over them.
        warm = parsed[:8]
        for request in warm:
            await self.service.handle_compile(request)
        t0 = time.perf_counter()
        for _ in range(reps):
            for request in warm:
                await self.service.handle_compile(request)
        handle_us = (time.perf_counter() - t0) * 1e6 / (reps * len(warm))
        return {
            "perf.batch.job_key_us": per_call_us(job_key, jobs),
            "perf.cache.put_us": put_us,
            "perf.cache.lookup_us": lookup_us,
            "service.parse_request_us": per_call_us(
                parse_request, [self.bodies[n] for n in names]),
            "service.handle_warm_us": handle_us,
        }

    def teardown(self) -> None:
        loop = getattr(self, "loop", None)
        if loop is not None:
            for _, writer in getattr(self, "conns", []):
                writer.close()
            loop.run_until_complete(self.server.stop())
            loop.run_until_complete(loop.shutdown_asyncgens())
            loop.close()
        if getattr(self, "cache_dir", None):
            shutil.rmtree(self.cache_dir, ignore_errors=True)


WORKLOADS = {
    w.name: w for w in (CompileCorpus, RunCompute, RunWire, ServeMixed)
}
