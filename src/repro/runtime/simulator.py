"""Bulk-synchronous SPMD cost simulation.

Given a compiled program (a communication schedule over the augmented CFG)
and a :class:`MachineModel`, the simulator computes the program's compute
and communication time under the paper's §6.1 model: per executed
communication operation, startup × partners + volume / bandwidth (+ local
packing through ``bcopy`` for combined/strided data); bulk-synchronous, so
per-phase cost is the per-processor cost (our patterns are symmetric) and
total cost is the sum over executions.

Execution counts come from loop trip counts (symbolic bounds are evaluated
with outer variables at their range midpoints — exact for the rectangular
loops of every benchmark).  Compute time distributes each statement's
per-iteration operation count over the processors owning the left-hand
side, per the owner-computes rule.

This is the stand-in for the paper's physical SP2/NOW runs; it reproduces
the *shape* of Figure 10's normalized-time charts (who wins, by what
factor, and how the gap changes with problem size), not absolute seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..comm.compatibility import message_volume
from ..comm.patterns import (
    AllGatherMapping,
    GeneralMapping,
    ReductionMapping,
    ShiftMapping,
)
from ..core.pipeline import CompilationResult
from ..core.state import PlacedComm
from ..cost.lower_bound import reduction_tree_messages
from ..frontend import ast_nodes as ast
from ..ir.cfg import Loop, Node
from ..machine.model import MachineModel


@dataclass
class CommOpCost:
    """Cost breakdown of one placed communication operation.

    ``hidden_time`` is wire/packing time overlapped with computation
    between the placement point and the first use (only nonzero in
    overlap mode, §6); ``pressure_time`` is the cache/buffer-contention
    penalty of holding the message buffer across that same distance (only
    nonzero in cache-pressure mode) — the two sides of the trade-off the
    paper's push-late rule navigates.
    """

    op: PlacedComm
    executions: int
    messages_per_exec: int
    bytes_per_exec: int
    startup_time: float
    wire_time: float
    packing_time: float
    hidden_time: float = 0.0
    pressure_time: float = 0.0

    @property
    def total_time(self) -> float:
        exposed = max(0.0, self.wire_time + self.packing_time - self.hidden_time)
        return self.startup_time + exposed + self.pressure_time

    @property
    def total_messages(self) -> int:
        return self.executions * self.messages_per_exec

    @property
    def total_bytes(self) -> int:
        return self.executions * self.bytes_per_exec


@dataclass
class SimReport:
    """Per-run simulation outcome.

    ``lower_bound_bytes`` is the per-processor-summed HBL-style floor from
    :mod:`repro.cost.lower_bound` when the caller supplies it — purely
    informational context beside the modeled traffic (the simulator's own
    byte counts are per-processor, so the two are reported side by side,
    not gated against each other)."""

    machine: str
    strategy: str
    compute_time: float
    comm_ops: list[CommOpCost] = field(default_factory=list)
    lower_bound_bytes: "int | None" = None

    @property
    def comm_time(self) -> float:
        return sum(c.total_time for c in self.comm_ops)

    @property
    def startup_time(self) -> float:
        return sum(c.startup_time for c in self.comm_ops)

    @property
    def total_time(self) -> float:
        return self.compute_time + self.comm_time

    @property
    def messages_per_proc(self) -> int:
        return sum(c.total_messages for c in self.comm_ops)

    @property
    def bytes_per_proc(self) -> int:
        return sum(c.total_bytes for c in self.comm_ops)

    def summary(self) -> dict[str, float]:
        out = {
            "compute_s": self.compute_time,
            "comm_s": self.comm_time,
            "total_s": self.total_time,
            "messages": float(self.messages_per_proc),
            "megabytes": self.bytes_per_proc / 1e6,
        }
        if self.lower_bound_bytes is not None:
            out["lower_bound_megabytes"] = self.lower_bound_bytes / 1e6
        return out


class Simulator:
    """Cost simulation of one compiled program on one machine.

    ``overlap`` models §6's CPU-network overlap: non-startup communication
    time hides behind the computation between the placement point and the
    first consuming statement.  ``cache_pressure`` models the contention
    the paper's push-late rule avoids: buffers held across computation
    evict its working set, charged as a slowdown proportional to the
    buffer:cache ratio over the residency window.  Both default off, which
    reproduces the paper's measurement setup ("measurements were made with
    overlap disabled").
    """

    # Fraction of the residency window lost when buffers fill the cache.
    PRESSURE_FACTOR = 0.3

    def __init__(
        self,
        result: CompilationResult,
        machine: MachineModel,
        overlap: bool = False,
        cache_pressure: bool = False,
        lower_bound_bytes: "int | None" = None,
    ) -> None:
        self.result = result
        self.machine = machine
        self.overlap = overlap
        self.cache_pressure = cache_pressure
        self.lower_bound_bytes = lower_bound_bytes
        self.ctx = result.ctx
        self.info = result.ctx.info
        self._trip_cache: dict[int, int] = {}

    # -- loop trip accounting ---------------------------------------------------

    def _midpoint_env(self, loops: list[Loop]) -> dict[str, int]:
        env: dict[str, int] = {}
        for loop in loops:
            lo = self.info.affine(loop.stmt.lo).evaluate(env)
            hi = self.info.affine(loop.stmt.hi).evaluate(env)
            env[loop.var] = (lo + hi) // 2
        return env

    def loop_trip(self, loop: Loop) -> int:
        """Trip count with outer variables at midpoints."""
        key = loop.stmt.sid
        if key in self._trip_cache:
            return self._trip_cache[key]
        outer = self.ctx.cfg.nodes[loop.preheader].loops_containing()
        env = self._midpoint_env(outer)
        lo = self.info.affine(loop.stmt.lo).evaluate(env)
        hi = self.info.affine(loop.stmt.hi).evaluate(env)
        step = self.info.affine(loop.stmt.step).evaluate({})
        trips = max(0, (hi - lo) // step + 1)
        self._trip_cache[key] = trips
        return trips

    def executions_of(self, node: Node) -> int:
        count = 1
        for loop in node.loops_containing():
            count *= self.loop_trip(loop)
        return count

    # -- communication costs ------------------------------------------------------

    def _op_cost(self, op: PlacedComm) -> CommOpCost:
        node = self.ctx.node_of(op.position)
        execs = self.executions_of(node)
        ranges = self.ctx.sections.live_ranges_at(node)

        total_bytes = 0
        for entry in op.entries:
            section = self.ctx.sections.section_at(entry.use, node)
            total_bytes += message_volume(self.info, entry, section, ranges)

        mapping = op.entries[0].pattern.mapping
        m = self.machine
        if isinstance(mapping, ShiftMapping):
            messages = max(1, mapping.partners)
            wire = total_bytes / m.bandwidth_bps
        elif isinstance(mapping, ReductionMapping):
            messages = reduction_tree_messages(mapping.procs_combined())
            wire = messages * total_bytes / m.bandwidth_bps
        elif isinstance(mapping, AllGatherMapping):
            procs = mapping.procs_combined()
            messages = max(1, procs - 1)
            wire = messages * max(1, total_bytes) / m.bandwidth_bps
        else:
            assert isinstance(mapping, GeneralMapping)
            procs = self.info.layout(op.entries[0].array).grid.size
            messages = max(1, procs - 1)
            wire = total_bytes / m.bandwidth_bps
        # Network startup is paid per wire message; the runtime-library
        # overhead (descriptor interpretation, call dispatch, completion
        # wait) is paid once per call-site execution — this is exactly the
        # per-call cost that message combining eliminates.
        per_exec_overhead = messages * m.startup_s + m.sw_overhead_s

        # Packing: halo sections are strided and combined messages are
        # gathered into one buffer (the Fig 5 bcopy curve; this is what
        # makes over-aggressive combining counter-productive past the
        # cache size).
        packing = m.bcopy_time(total_bytes) * 2  # pack + unpack

        hidden = 0.0
        pressure = 0.0
        if self.overlap or self.cache_pressure:
            residency_s = self._residency_seconds(op)
            if self.overlap:
                hidden = min(max(0.0, wire) + packing, residency_s)
            if self.cache_pressure:
                ratio = min(1.0, total_bytes / m.cache_bytes)
                pressure = self.PRESSURE_FACTOR * ratio * residency_s

        return CommOpCost(
            op=op,
            executions=execs,
            messages_per_exec=messages,
            bytes_per_exec=total_bytes,
            startup_time=execs * per_exec_overhead,
            wire_time=execs * max(0.0, wire),
            packing_time=execs * packing,
            hidden_time=execs * hidden,
            pressure_time=execs * pressure,
        )

    def _residency_seconds(self, op: PlacedComm) -> float:
        """Per-execution compute time between the operation's placement
        point and its first consuming statement — the window a buffer
        stays live (and the window available for overlap)."""
        from ..codegen.spmd import anchor_of_position

        anchor = anchor_of_position(self.ctx, op.position)
        if anchor[0] == "start":
            anchor_sid = 0
        elif anchor[0] == "end":
            return 0.0
        else:
            anchor_sid = anchor[1]
        first_use = min(
            consumer.use.stmt.sid
            for entry in op.entries
            for consumer in [entry, *entry.absorbed]
        )
        if first_use <= anchor_sid:
            return 0.0

        op_execs = self.executions_of(self.ctx.node_of(op.position))
        total_ops = 0.0
        for node in self.ctx.cfg.nodes:
            for stmt in node.stmts:
                if anchor_sid < stmt.sid < first_use:
                    total_ops += (
                        self.executions_of(node)
                        * self._expr_ops(stmt.rhs)
                        / self._stmt_parallelism(stmt)
                    )
        per_exec_ops = total_ops / max(1, op_execs)
        return self.machine.compute_time(per_exec_ops)

    # -- compute costs -----------------------------------------------------------

    # Transcendental intrinsics cost many FLOP-equivalents on 1990s CPUs.
    _INTRINSIC_WEIGHT = {"SQRT": 12, "EXP": 16, "LOG": 16, "MOD": 4}

    @classmethod
    def _expr_ops(cls, expr: ast.Expr) -> int:
        ops = 0
        for node in ast.walk_expr(expr):
            if isinstance(node, (ast.BinOp, ast.UnOp)):
                ops += 1
            elif isinstance(node, ast.Intrinsic):
                ops += cls._INTRINSIC_WEIGHT.get(node.name, 2)
        return max(1, ops)

    def _stmt_parallelism(self, stmt: ast.Assign) -> int:
        """Processors sharing the statement's iterations (owner-computes)."""
        if isinstance(stmt.lhs, ast.VarRef):
            return 1  # replicated scalar work
        layout = self.info.layout(stmt.lhs.name)
        procs = 1
        for dim in layout.distributed_dims:
            procs *= layout.procs_along(dim)
        return max(1, procs)

    def _reduction_elements(self, stmt: ast.Assign) -> int:
        """Local elements touched by reduction intrinsics in the statement."""
        total = 0
        for node in ast.walk_expr(stmt.rhs):
            if isinstance(node, ast.Reduction):
                layout = self.info.layout(node.arg.name)
                elems = 1
                for dim, sub in enumerate(node.arg.subscripts):
                    if isinstance(sub, ast.Triplet):
                        extent = layout.dims[dim].extent
                        share = layout.procs_along(dim)
                        elems *= max(1, extent // max(1, share))
                total += elems
        return total

    def compute_cost(self) -> float:
        flops = 0.0
        for node in self.ctx.cfg.nodes:
            execs = None
            for stmt in node.stmts:
                if execs is None:
                    execs = self.executions_of(node)
                per_iter = self._expr_ops(stmt.rhs) + self._reduction_elements(stmt)
                flops += execs * per_iter / self._stmt_parallelism(stmt)
        return self.machine.compute_time(flops)

    # -- entry point ------------------------------------------------------------

    def run(self) -> SimReport:
        report = SimReport(
            machine=self.machine.name,
            strategy=self.result.strategy.value,
            compute_time=self.compute_cost(),
            lower_bound_bytes=self.lower_bound_bytes,
        )
        for op in self.result.placed:
            report.comm_ops.append(self._op_cost(op))
        return report


def simulate(
    result: CompilationResult,
    machine: MachineModel,
    overlap: bool = False,
    cache_pressure: bool = False,
    lower_bound_bytes: "int | None" = None,
) -> SimReport:
    """Convenience wrapper: simulate one compiled program."""
    return Simulator(
        result, machine, overlap, cache_pressure, lower_bound_bytes
    ).run()
