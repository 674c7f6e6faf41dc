"""Placement-safety checking by concrete execution.

The strongest evidence a communication schedule is correct: run the
program and verify that, at every dynamic use of remote data, the value
the communication *delivered* equals the value the use actually reads.
Stale deliveries — communication hoisted above a write it depended on, or
a redundancy elimination that removed a still-needed message — show up as
value mismatches.

The checker executes the scalarized program with the reference
interpreter, firing scheduled communication operations at their anchors:

* a fired operation **snapshots** the concrete data section of each entry
  in its group (the section evaluated in the current loop environment);
* each executed statement instance looks up, for every use that required
  communication, the entry (or its subsuming entry, for uses eliminated
  as redundant) whose snapshot must cover the element being read, and
  compares the snapshot value with the current array value.

Any miss (element not covered) or mismatch (stale value) raises
:class:`SimulationError` identifying the entry and element — a placement
bug, not a user-program bug.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..codegen.spmd import ScheduledProgram, lower_schedule
from ..comm.entries import CommEntry
from ..core.pipeline import CompilationResult
from ..errors import SimulationError
from ..frontend import ast_nodes as ast
from ..sections.rsd import RSD
from .interp import Interpreter


@dataclass
class Delivery:
    """One snapshot of communicated data for one entry."""

    entry: CommEntry
    rsd: RSD
    values: np.ndarray  # strided view materialized as a copy

    def covers(self, coords: tuple[int, ...]) -> bool:
        return all(
            d.contains_point(c) for d, c in zip(self.rsd.dims, coords)
        )

    def value_at(self, coords: tuple[int, ...]) -> float:
        idx = tuple(
            (c - d.lo) // d.step for d, c in zip(self.rsd.dims, coords)
        )
        return float(self.values[idx])


@dataclass
class CheckStats:
    deliveries: int = 0
    reads_checked: int = 0


class ScheduleChecker(Interpreter):
    """Interpreter that fires and validates the communication schedule."""

    def __init__(self, result: CompilationResult, seed: int = 12345) -> None:
        super().__init__(result.info, seed)
        self.result = result
        self.schedule: ScheduledProgram = lower_schedule(result)
        self.stats = CheckStats()
        self.delivered: dict[int, Delivery] = {}

        # Map each communication-requiring use to the entry whose delivery
        # must cover it: itself when alive, its (transitive) subsumer when
        # eliminated.
        self._covering: dict[int, CommEntry] = {}
        self._uses_by_sid: dict[int, list[CommEntry]] = {}
        by_id = {entry.id: entry for entry in result.entries}
        for entry in result.entries:
            winner = entry
            while winner.eliminated_by is not None:
                winner = by_id[winner.eliminated_by]
            self._covering[entry.id] = winner
            self._uses_by_sid.setdefault(entry.use.stmt.sid, []).append(entry)

    # -- schedule firing ------------------------------------------------------

    def _env_ints(self) -> dict[str, int]:
        env = {name: int(v) for name, v in self.env.items()}
        env.update(self.info.params)
        return env

    def _fire(self, anchor: tuple) -> None:
        for op in self.schedule.ops_at(anchor):
            node = self.result.ctx.node_of(op.position)
            env = self._env_ints()
            for entry in op.entries:
                section = self.result.ctx.sections.section_at(entry.use, node)
                shape = self.info.shape(entry.array)
                rsd = section.concretize(env, shape)
                if rsd.is_empty:
                    continue
                idx = tuple(
                    slice(d.lo - 1, d.hi, d.step) for d in rsd.dims
                )
                values = np.array(self.arrays[entry.array][idx], copy=True)
                self.delivered[entry.id] = Delivery(entry, rsd, values)
                self.stats.deliveries += 1

    # -- hooks over the base interpreter ------------------------------------------

    def run(self) -> CheckStats:
        self._fire(("start",))
        self.exec_body(self.info.program.body)
        self._fire(("end",))
        return self.stats

    def exec_stmt(self, stmt: ast.Stmt) -> None:
        self._fire(("before_stmt", stmt.sid))
        if isinstance(stmt, ast.Assign):
            self._check_uses(stmt)
            self.exec_assign(stmt)
            self._fire(("after_stmt", stmt.sid))
            return
        if isinstance(stmt, ast.Do):
            self._fire(("loop_pre", stmt.sid))
            lo = self.eval_index(stmt.lo)
            hi = self.eval_index(stmt.hi)
            step = self.eval_index(stmt.step)
            for value in range(lo, hi + 1, step):
                self.env[stmt.var] = float(value)
                self._fire(("loop_top", stmt.sid))
                self.exec_body(stmt.body)
            self.env.pop(stmt.var, None)
            self._fire(("loop_post", stmt.sid))
            self._fire(("after_stmt", stmt.sid))
            return
        assert isinstance(stmt, ast.If)
        if bool(self.eval_expr(stmt.cond)):
            self.exec_body(stmt.then_body)
        else:
            self.exec_body(stmt.else_body)
        self._fire(("after_stmt", stmt.sid))

    # -- validation --------------------------------------------------------------

    def _may_fire_later(self, winner: CommEntry) -> bool:
        """Is the winner's placed position at-or-after its own statement
        (the §6.2 extended-reduction case)?"""
        stmt_pos = self.result.ctx.cfg.position_before(winner.use.stmt)
        for pc in self.result.placed:
            if winner in pc.entries:
                return self.result.ctx.position_dominates(stmt_pos, pc.position)
        return False

    def _check_uses(self, stmt: ast.Assign) -> None:
        for entry in self._uses_by_sid.get(stmt.sid, []):
            winner = self._covering[entry.id]
            delivery = self.delivered.get(winner.id)
            if delivery is None:
                if entry.is_reduction and self._may_fire_later(winner):
                    # §6.2 flexibility: the combine phase is scheduled
                    # after this statement; the partials read *here* come
                    # straight from current state, so freshness holds by
                    # construction.
                    continue
                raise SimulationError(
                    f"use {entry.label}: no delivery fired for covering "
                    f"entry {winner.label} before the read"
                )
            for coords in self._read_elements(entry.use.ref):
                self._check_element(entry, delivery, coords)

    def _read_elements(self, ref: ast.Expr):
        """Concrete coordinates (1-based) this instance of the use reads."""
        assert isinstance(ref, ast.ArrayRef)
        shape = self.info.shape(ref.name)
        per_dim: list[list[int]] = []
        for dim, sub in enumerate(ref.subscripts):
            if isinstance(sub, ast.Index):
                per_dim.append([self.eval_index(sub.expr)])
            else:
                lo = 1 if sub.lo is None else self.eval_index(sub.lo)
                hi = shape[dim] if sub.hi is None else self.eval_index(sub.hi)
                step = 1 if sub.step is None else self.eval_index(sub.step)
                per_dim.append(list(range(lo, hi + 1, step)))
        # Cartesian product, small by construction in the test programs.
        coords = [()]
        for values in per_dim:
            coords = [c + (v,) for c in coords for v in values]
        return coords

    def _check_element(
        self, entry: CommEntry, delivery: Delivery, coords: tuple[int, ...]
    ) -> None:
        self.stats.reads_checked += 1
        if not delivery.covers(coords):
            raise SimulationError(
                f"use {entry.label}: element {coords} not covered by the "
                f"delivered section {delivery.rsd} of {delivery.entry.label}"
            )
        current = float(
            self.arrays[entry.array][tuple(c - 1 for c in coords)]
        )
        got = delivery.value_at(coords)
        # NaN-aware equality: a benchmark whose arithmetic produces NaN
        # (e.g. overflow in a long-running stencil) must not trip the
        # staleness check when the delivered NaN is the value read.
        if got != current and not (np.isnan(got) and np.isnan(current)):
            raise SimulationError(
                f"use {entry.label}: stale value at {coords}: communication "
                f"delivered {got!r} but the use reads {current!r}"
            )


def check_schedule(result: CompilationResult, seed: int = 12345) -> CheckStats:
    """Execute the compiled program, firing and validating its schedule.

    Returns check statistics; raises :class:`SimulationError` on any
    coverage or staleness violation.
    """
    return ScheduleChecker(result, seed).run()
