"""A combined message is one frame on the wire.

Within one placed op a backend sends one frame per (round, src, dst),
carrying every section the op's combined entries move on that edge
(:class:`~repro.transport.lowering.SendOp` holds a tuple of boxes), and
the plan sends the union of its sections: a box nested in another of
the same array, phase and source is not sent again
(:func:`~repro.runtime.plans.send_once`).  So what the runtime charges —
``RuntimeStats.messages`` (one per partner and op) and ``bytes_moved``
— is what the wire carries, on every backend.

Also here: the validity / staleness precheck a transport firing runs
before it sends (:meth:`SPMDExecutor._precheck_lowered`), whose verdicts
and messages are pinned on a one-round and a two-round op.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pytest

from repro.core.pipeline import Strategy, compile_program
from repro.cost.lower_bound import reduction_tree_messages
from repro.errors import SimulationError
from repro.evaluation.programs import BENCHMARKS
from repro.runtime.interp import interpret
from repro.runtime.plans import CommPlan, PlannedTransfer, send_once
from repro.runtime.spmd import SPMDExecutor, execute_spmd
from repro.sections.rsd import RSD
from repro.transport import BACKENDS, MultiprocessTransport
from repro.transport.lowering import SendOp, lower_comm

from test_transport import DIAGONAL_SRC, SMALL

GRIDS = ((1, 2), (2, 2), (4, 4))

#: Three halos of one neighbour in one message under ``comb``:
#: ``a(2:n-1)`` holds ``a(1:n-2)``'s halo, and ``c(2:n-1)`` rides along.
HALO3_SRC = """
PROGRAM halo3
  PARAM n = 32
  PROCESSORS p(4)
  REAL a(n)
  REAL b(n)
  REAL c(n)
  DISTRIBUTE a(BLOCK) ONTO p
  DISTRIBUTE b(BLOCK) ONTO p
  DISTRIBUTE c(BLOCK) ONTO p
  DO t = 1, 5
    b(3:n) = a(1:n-2) + a(2:n-1) + c(2:n-1)
    a(3:n) = b(3:n) * 0.5
    c(3:n) = b(3:n) + 1.0
  END DO
END PROGRAM
"""


@lru_cache(maxsize=None)
def _compiled(program: str, strategy: Strategy, grid: tuple[int, int]):
    params = dict(SMALL[program], pr=grid[0], pc=grid[1])
    return compile_program(
        BENCHMARKS[program], params=params, strategy=strategy
    )


@lru_cache(maxsize=None)
def _reference(program: str, grid: tuple[int, int]) -> dict:
    return interpret(_compiled(program, Strategy.ORIG, grid).info)


def _assert_each_element_once(result, plan: CommPlan, where: str) -> None:
    """No round of the plan's lowering delivers an element twice to one
    rank; a partial overlap fails naming the element."""
    for rnd_no, rnd in enumerate(plan.lowered.rounds):
        counts: dict[tuple[int, str], np.ndarray] = {}
        for s in rnd:
            for box in s.boxes:
                key = (s.dst, box.array)
                if key not in counts:
                    counts[key] = np.zeros(result.info.shape(box.array), int)
                view = counts[key][box.index]
                if box.mask is None:
                    view += 1
                else:
                    view[box.mask] += 1
        for (dst, array), count in counts.items():
            twice = np.argwhere(count > 1)
            assert not twice.size, (
                f"{where}: round {rnd_no} delivers {array}"
                f"{tuple(int(i) + 1 for i in twice[0])} to rank {dst} "
                f"{int(count.max())} times ({plan.lowered.algorithm})"
            )


@pytest.mark.parametrize("grid", GRIDS, ids=lambda g: f"{g[0]}x{g[1]}")
@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("strategy", list(Strategy))
@pytest.mark.parametrize("program", sorted(BENCHMARKS))
def test_frames_on_the_wire_are_the_charged_messages(
    program, strategy, backend, grid, monkeypatch
):
    where = f"{program}/{strategy.value}/{backend}/{grid[0]}x{grid[1]}"
    result = _compiled(program, strategy, grid)
    slots_checked = []
    if backend == "multiprocess":
        plan_wire = MultiprocessTransport._plan_wire

        def checked_plan_wire(self, scripts):
            wire = plan_wire(self, scripts)
            slots = wire[2]
            for script in scripts.values():
                for rnd in script:
                    for s in rnd["send"]:
                        if isinstance(s, SendOp):
                            count = sum(box.count for box in s.boxes)
                            assert slots[s.seq][2] == count, where
                            slots_checked.append(len(s.boxes))
            return wire

        monkeypatch.setattr(
            MultiprocessTransport, "_plan_wire", checked_plan_wire
        )
    executor = SPMDExecutor(result, transport=backend)
    try:
        stats = executor.run()
        state = executor.assemble()
    finally:
        executor.close()
    wire = executor.wire
    nranks = len(executor.ranks)
    # A reduce tree posts one frame per gather edge and one per
    # broadcast edge, 2(P-1), and is charged 2 ceil(log2 P).
    frames = wire.messages - wire.reduces * 2 * (nranks - 1)
    charged = stats.messages - wire.reduces * reduction_tree_messages(nranks)
    assert frames == charged, where

    for name, expected in _reference(program, grid).items():
        np.testing.assert_array_equal(state[name], expected, err_msg=where)

    for plan in executor.image.comm_plans.values():
        _assert_each_element_once(result, plan, where)

    if backend == "multiprocess" and frames:
        assert slots_checked, where


def test_nested_halos_travel_once():
    """``comb`` sends ``a(1:n-2)``'s width-1 halo inside ``a(2:n-1)``'s
    width-2 one: 15 frames and 360 bytes on every path, where sending
    every section on its own took 45 frames and 480 bytes."""
    result = compile_program(HALO3_SRC, strategy="comb")
    reference = interpret(result.info)
    _, direct = execute_spmd(result)
    assert (direct.messages, direct.bytes_moved) == (15, 360)
    for backend in sorted(BACKENDS):
        executor = SPMDExecutor(result, transport=backend)
        try:
            stats = executor.run()
            state = executor.assemble()
        finally:
            executor.close()
        assert (stats.messages, stats.bytes_moved) == (15, 360), backend
        wire = executor.wire
        assert (wire.messages, wire.bytes_sent) == (15, 360), backend
        for name, expected in reference.items():
            np.testing.assert_array_equal(state[name], expected)
        multi = [
            s for plan in executor.image.comm_plans.values()
            for rnd in plan.lowered.rounds for s in rnd if len(s.boxes) > 1
        ]
        assert multi and {
            tuple(box.array for box in s.boxes) for s in multi
        } == {("a", "c")}


# ---------------------------------------------------------------------------
# send_once, rule by rule
# ---------------------------------------------------------------------------


def _box(array, lo, hi, src=0, dsts=(1,), phase=0, mask=None):
    region = RSD.of((lo, hi))
    return PlannedTransfer(
        array=array, src=src, dsts=dsts, index=(slice(lo - 1, hi, 1),),
        region=region, mask=mask, nbytes=8 * region.count(), phase=phase,
    )


def _plan(*transfers) -> CommPlan:
    pairs = frozenset(
        (t.src, d) for t in transfers for d in t.dsts if d != t.src
    )
    nbytes = sum(
        t.nbytes for t in transfers for d in t.dsts if d != t.src
    )
    return CommPlan(list(transfers), pairs, nbytes)


def test_a_nested_box_loses_the_destinations_it_shares():
    outer = _box("a", 1, 4, dsts=(1, 2))
    inner = _box("a", 2, 3, dsts=(1, 3))
    plan = send_once(_plan(inner, outer))
    assert [(t.region, t.dsts) for t in plan.transfers] == [
        (inner.region, (3,)), (outer.region, (1, 2)),
    ]
    assert plan.wire_bytes == 8 * 2 + 8 * 4 * 2
    assert plan.wire_pairs == _plan(inner, outer).wire_pairs


def test_equal_boxes_keep_the_first_and_a_fully_covered_box_goes():
    first, second = _box("a", 1, 4), _box("a", 1, 4)
    plan = send_once(_plan(first, second))
    assert plan.transfers == [first] and plan.wire_bytes == 32


@pytest.mark.parametrize("inner,other", [
    (_box("a", 2, 3), _box("b", 1, 4)),             # another array
    (_box("a", 2, 3), _box("a", 1, 4, src=2)),      # another source
    (_box("a", 2, 3), _box("a", 1, 4, phase=1)),    # another round
    (_box("a", 2, 3), _box("a", 1, 4, dsts=(2,))),  # another destination
    (_box("a", 1, 4), _box("a", 2, 5)),             # a partial overlap
])
def test_only_a_nested_box_of_one_array_source_and_round_goes(inner, other):
    plan = _plan(inner, other)
    assert send_once(plan) is plan


def test_a_masked_transfer_stays_as_planned():
    masked = _box("a", 2, 3, mask=np.array([True, False]))
    masked.nbytes = 8
    plan = _plan(masked, _box("a", 1, 4))
    assert send_once(plan) is plan


# ---------------------------------------------------------------------------
# The precheck: verdicts and messages
# ---------------------------------------------------------------------------


def _first_lowered(executor):
    """The first non-reduction placed op of the schedule, lowered from
    its plan as a firing would, before anything ran."""
    op = next(
        op
        for anchor in executor.schedule.anchors
        for op in executor.schedule.ops_at(anchor)
        if op.kind != "reduction"
    )
    node = executor.result.ctx.node_of(op.position)
    sections = tuple(
        executor._concrete_section(entry, node) for entry in op.entries
    )
    return lower_comm(op.kind, send_once(
        executor.planner.compile_op(op, sections)
    ))


def _held_element(executor, lowered, rnd_no: int):
    """A send of round ``rnd_no``, its first box, the sender's storage
    of that box's array, and an element of the box the sender holds for
    real (not by an earlier round's delivery)."""
    for s in lowered.rounds[rnd_no]:
        box = s.boxes[0]
        store = executor.storage[s.src][box.array]
        held = store.valid[box.index].copy()
        if box.mask is not None:
            held &= box.mask
        for k in np.argwhere(held):
            return s, box, store, tuple(
                part.start + part.step * int(i)
                for part, i in zip(box.index, k)
            )
    raise AssertionError(f"no send of round {rnd_no} reads its own data")


@pytest.mark.parametrize("source,rounds,algorithm", [
    (HALO3_SRC, 1, "neighbor-exchange"),
    (DIAGONAL_SRC, 2, "augmented-exchange"),
])
@pytest.mark.parametrize("fault", ["invalid", "stale"])
def test_precheck_names_an_invalid_or_stale_sender(
    source, rounds, algorithm, fault
):
    result = compile_program(source, strategy="comb")
    executor = SPMDExecutor(result)
    lowered = _first_lowered(executor)
    assert len(lowered.rounds) == rounds
    assert lowered.algorithm == algorithm
    executor._precheck_lowered(lowered)  # untouched: passes
    # Tamper with an element the last round's sender holds, so a
    # two-round op is caught past its delivery overlay.
    s, box, store, element = _held_element(executor, lowered, rounds - 1)
    if fault == "invalid":
        store.valid[element] = False
        message = (
            f"extracting invalid data from {box.array} "
            f"(rank {s.src}, {algorithm})"
        )
    else:
        store.values[element] += 1.0
        message = (
            f"stale data shipped for {box.array}: sender holds values "
            f"that disagree with the sequential semantics"
        )
    with pytest.raises(SimulationError) as err:
        executor._precheck_lowered(lowered)
    assert str(err.value) == message
