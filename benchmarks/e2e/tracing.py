"""Benchmark-owned span tracing: the layers are measured from outside.

Nothing under ``src/`` knows about spans yet (ROADMAP item 1 adds them
later), so ``--trace`` wraps the public entry point of each layer from
here: :data:`PATCHES` names the callable, the module namespace it is
looked up through at call time, and the span it records.  The compiler
invokes its phases through ``repro.core.pipeline``'s namespace on
purpose (its docstring says so, for fault-injection harnesses), which is
what makes a real ``compile_program`` call traceable without a copy of
its body.  A renamed target fails loudly in :meth:`Tracer.install`
rather than reporting a silent zero.

Spans live in memory as ``[name, start, end, parent, op]`` rows and are
written once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Optional

from repro.transport import Transport

#: (module, attribute, span name, is a coroutine function).
PATCHES = (
    ("repro.core.pipeline", "parse", "frontend.parse", False),
    ("repro.core.pipeline", "elaborate", "frontend.elaborate", False),
    ("repro.core.pipeline", "scalarize", "frontend.scalarize", False),
    ("repro.core.pipeline", "AnalysisContext", "core.context", False),
    ("repro.core.context", "CFG", "ir.cfg", False),
    ("repro.core.context", "DominatorInfo", "ir.dom", False),
    ("repro.core.context", "SSA", "ir.ssa", False),
    ("repro.core.passes", "PassManager.execute", "core.place", False),
    ("repro.core.pipeline", "analyze_entries", "core.analyze", False),
    ("repro.core.pipeline", "subset_eliminate", "core.pass.subset", False),
    ("repro.core.pipeline", "redundancy_eliminate", "core.pass.redundancy",
     False),
    ("repro.core.pipeline", "greedy_choose", "core.pass.greedy", False),
    ("repro.core.pipeline", "_place_earliest", "core.pass.earliest", False),
    ("repro.runtime.spmd", "lower_schedule", "codegen.lower_schedule", False),
    ("repro.runtime.spmd", "lower_comm", "transport.lower", False),
    ("repro.service.server", "parse_request", "service.parse_request", False),
    ("repro.service.app", "CompileService.handle_compile", "service.handle",
     True),
)

ROOT = "op"


class Tracer:
    """Single-threaded span recorder.  Wrappers stay installed for the
    whole run and record only while ``active``, so traced and untraced
    rounds can alternate in one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []
        self._op: Optional[str] = None

    # -- recording ------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        row = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def op(self, op_id: str):
        """The root span of one benchmark op."""
        self._op = op_id
        try:
            with self.span(ROOT):
                yield
        finally:
            self._op = None

    def flat(self, name: str, start: float, end: float,
             op_id: Optional[str] = None) -> None:
        """A span recorded after the fact, outside the stack (work that
        interleaves on an event loop has no single enclosing span)."""
        if self.active:
            self.spans.append([name, start, end, -1, op_id])

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def _wrap_async(self, fn, name: str):
        async def traced(*args, **kwargs):
            if not self.active:
                return await fn(*args, **kwargs)
            start = time.perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                self.flat(name, start, time.perf_counter())

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module, dotted, name, is_async in PATCHES:
            owner = importlib.import_module(module)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)  # AttributeError: target moved
            wrap = self._wrap_async if is_async else self._wrap
            setattr(owner, attr, wrap(original, name))

    # -- analysis -------------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds (total
        minus the part covered by direct children)."""
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for index, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row["count"] += 1
            row["total_s"] += end - start
            row["self_s"] += (end - start) - child_time[index]
        return dict(out)

    @staticmethod
    def coverage(totals: dict[str, dict[str, float]]) -> float:
        """Share of op wall time attributed to a layer span."""
        root = totals.get(ROOT, {}).get("total_s", 0.0)
        inner = sum(
            row["self_s"] for name, row in totals.items() if name != ROOT
        )
        return inner / root if root else 0.0

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {"columns": ["name", "start_s", "end_s", "parent", "op"],
                 "spans": self.spans},
                fh,
            )


class TimingTransport(Transport):
    """A ``Transport`` that records one span per call into the backend
    it fronts.  ``make_transport`` returns instances as they are, so the
    executor talks to the real backend through this proxy."""

    def __init__(self, inner: Transport, tracer: Tracer) -> None:
        # Transport.__init__ is skipped on purpose: every attribute the
        # executor reads (stats, chaos, integrity, ...) is the backend's.
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr: str):
        return getattr(self._inner, attr)

    @property
    def name(self) -> str:
        return self._inner.name

    def create_storage(self, specs):
        return self._inner.create_storage(specs)

    def start(self, storage) -> None:
        with self._tracer.span("transport.start"):
            self._inner.start(storage)

    def execute(self, lowered):
        with self._tracer.span("transport.execute"):
            return self._inner.execute(lowered)

    def reduce(self, pieces, op):
        with self._tracer.span("transport.reduce"):
            return self._inner.reduce(pieces, op)

    def shutdown(self) -> None:
        with self._tracer.span("transport.shutdown"):
            self._inner.shutdown()
