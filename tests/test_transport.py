"""Transport-layer suite: backend equivalence, wire accounting,
schedule and reduction lowering, and the deadlock watchdog.

The three message-passing backends must be invisible optimizations:
for every Figure 10 program under every placement strategy, the final
arrays are bitwise-identical to the legacy direct-copy executor, and
the measured per-pair wire bytes equal the plan-time predictions
exactly (the executor asserts this per operation; these tests
additionally check the cumulative totals against
``CommPlan.pair_bytes``).  A mismatched send/receive schedule must
raise a structured ``DeadlockError`` — never hang, never leak worker
threads or processes.
"""

from __future__ import annotations

import multiprocessing as mp
import threading

import numpy as np
import pytest

from repro.core.pipeline import Strategy, compile_program
from repro.evaluation.programs import BENCHMARKS
from repro.runtime.spmd import SPMDExecutor, execute_spmd
from repro.transport import (
    BACKENDS,
    DeadlockError,
    InlineTransport,
    TransportError,
    make_transport,
)
from repro.transport.base import _scripts_for, combine_pieces
from repro.transport.lowering import (
    lower_comm,
    lower_reduction,
    reduction_tree,
    tree_sizes,
)

SMALL = {
    "shallow": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
    "gravity": {"n": 8, "pr": 2, "pc": 2},
    "trimesh": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "trimesh_gauss": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "hydflo_flux": {"n": 8, "nsteps": 1, "pr": 2, "pc": 2},
    "hydflo_hydro": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
}

#: Distributed → replicated copy on four ranks: classifies as allgather,
#: which lowers to the plan's own point-to-point sends.
ALLGATHER_SRC = """
PROGRAM ag
  PARAM n = 12
  PROCESSORS p(4)
  REAL b(n)
  REAL r(n)
  DISTRIBUTE b(BLOCK) ONTO p
  DO i = 1, 2
    b(1:n) = b(1:n) + 1.0
    r(1:n) = b(1:n)
    b(1:n) = b(1:n) * 0.5 + r(1:n) * 0.25
  END DO
END
"""

#: Diagonal read: pHPF-style augmented exchange whose second phase
#: forwards corner data the first phase delivered.
DIAGONAL_SRC = """
PROGRAM diag
  PARAM n = 8
  PROCESSORS p(2, 2)
  REAL a(n, n)
  REAL b(n, n)
  DISTRIBUTE a(BLOCK, BLOCK) ONTO p
  DISTRIBUTE b(BLOCK, BLOCK) ONTO p
  DO k = 1, 2
    a(2:n, 2:n) = b(1:n-1, 1:n-1)
    b(2:n, 2:n) = a(2:n, 2:n) * 0.5
  END DO
END
"""


def _compile(program: str, strategy: Strategy):
    return compile_program(
        BENCHMARKS[program], params=SMALL[program], strategy=strategy
    )


def _run_transport(result, backend: str):
    executor = SPMDExecutor(result, transport=backend)
    try:
        stats = executor.run()
        state = executor.assemble()
        wire = executor.wire
        plans = list(executor._comm_plans.values())
    finally:
        executor.close()
    return state, stats, wire, plans, executor


# ---------------------------------------------------------------------------
# Equivalence: six programs x three strategies x three backends
# ---------------------------------------------------------------------------


class TestBackendEquivalence:
    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_bitwise_identical_and_exact_wire_accounting(
        self, program, strategy, backend
    ):
        result = _compile(program, strategy)
        ref_state, ref_stats = execute_spmd(result)
        state, stats, wire, plans, executor = _run_transport(
            result, backend
        )

        # Bitwise-identical final arrays.
        assert set(state) == set(ref_state)
        for name in ref_state:
            np.testing.assert_array_equal(
                state[name], ref_state[name],
                err_msg=f"{program}/{strategy.value}/{backend}: {name}",
            )

        # Plan-level counters match the legacy executor exactly.
        assert stats.messages == ref_stats.messages
        assert stats.bytes_moved == ref_stats.bytes_moved
        assert stats.reductions == ref_stats.reductions

        # The cumulative wire ledger is internally consistent.
        assert wire.bytes_sent == sum(wire.pair_bytes.values())
        assert wire.messages == sum(wire.pair_msgs.values())

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("strategy", list(Strategy))
    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    def test_per_pair_bytes_match_commplan_exactly(
        self, program, strategy, backend
    ):
        """The lowering is the plan's own point-to-point shape, one frame
        per round and partner, so the transport-measured per-pair byte
        and message totals equal the sum of the ``CommPlan``s' over the
        members of every firing, plus the reduction receipts — exactly,
        for all six programs x strategies x backends."""
        result = _compile(program, strategy)
        executor = SPMDExecutor(result, transport=backend)
        executed, reduce_receipts = [], []
        plain_execute = executor.transport.execute
        plain_reduce = executor.transport.reduce

        def spying_execute(lowered):
            executed.append(lowered)
            return plain_execute(lowered)

        def spying_reduce(trees, ops):
            values, receipt = plain_reduce(trees, ops)
            reduce_receipts.append(receipt)
            return values, receipt

        executor.transport.execute = spying_execute
        executor.transport.reduce = spying_reduce
        try:
            executor.run()
        finally:
            executor.close()
        # A fresh image records every firing of the run, and a firing —
        # an anchor under its enclosing loop values — happens once.
        image = executor.image
        assert len(executed) == sum(
            len(image.wire_firings[keys])
            for keys in image.firings.values()
        )
        nbytes: dict[tuple[int, int], int] = {}
        msgs: dict[tuple[int, int], int] = {}
        for keys in image.firings.values():
            for key in keys:
                plan = image.comm_plans[key]
                for pair, n in plan.pair_bytes().items():
                    nbytes[pair] = nbytes.get(pair, 0) + n
                # One frame per (round, src, dst) of every plan.
                for _phase, src, dst in {
                    (t.phase, t.src, dst)
                    for t in plan.transfers for dst in t.dsts
                    if dst != t.src
                }:
                    msgs[src, dst] = msgs.get((src, dst), 0) + 1
        for receipt in reduce_receipts:
            for pair, n in receipt.pair_bytes.items():
                nbytes[pair] = nbytes.get(pair, 0) + n
            for pair, n in receipt.pair_msgs.items():
                msgs[pair] = msgs.get(pair, 0) + n
        assert executor.wire.pair_bytes == nbytes
        assert executor.wire.pair_msgs == msgs


class TestCollectiveEndToEnd:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_allgather_is_pointwise(self, backend):
        result = compile_program(ALLGATHER_SRC, strategy=Strategy.GLOBAL)
        ref, _ = execute_spmd(result)
        state, _stats, wire, _plans, _ex = _run_transport(result, backend)
        for name in ref:
            np.testing.assert_array_equal(state[name], ref[name])
        # Every owner sends its piece to the three other ranks, in one
        # round: nobody waits at a barrier.
        assert set(wire.algorithms) == {"pointwise"}
        assert (wire.messages, wire.bytes_sent) == (24, 576)
        assert wire.barrier_waits == 0

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_augmented_diagonal_exchange(self, backend):
        result = compile_program(DIAGONAL_SRC, strategy=Strategy.GLOBAL)
        ref, _ = execute_spmd(result)
        state, _stats, wire, _plans, _ex = _run_transport(result, backend)
        for name in ref:
            np.testing.assert_array_equal(state[name], ref[name])
        assert wire.algorithms.get("augmented-exchange", 0) > 0


# ---------------------------------------------------------------------------
# Lowering units
# ---------------------------------------------------------------------------


class TestReductionLowering:
    @pytest.mark.parametrize("nranks", [1, 2, 3, 4, 5, 8, 13])
    def test_tree_depth_and_coverage(self, nranks):
        rounds = reduction_tree(nranks)
        expected_depth = max(0, (nranks - 1).bit_length())
        assert len(rounds) == expected_depth
        senders = [src for rnd in rounds for src, _ in rnd]
        # Every non-root rank sends exactly once; rank 0 never sends.
        assert sorted(senders) == list(range(1, nranks))

    def test_predictions_account_growing_payloads(self):
        # One tree of one member, one element on each of four ranks.
        lowered = lower_reduction((((1, 1, 1, 1),),), 4)
        # Gather: (1->0, 3->2) with 8 bytes each, then 2->0 with 16.
        assert lowered.predicted_pairs[(1, 0)] == 8
        assert lowered.predicted_pairs[(3, 2)] == 8
        assert lowered.predicted_pairs[(2, 0)] == 16
        # Broadcast: 8-byte scalar down the reversed edges.
        assert lowered.predicted_pairs[(0, 2)] == 8
        assert lowered.predicted_pairs[(0, 1)] == 8
        assert lowered.predicted_pairs[(2, 3)] == 8

    def test_combine_pieces_is_rank_sorted(self):
        pieces = {
            2: np.array([3.0, 4.0]),
            0: np.array([1.0]),
            1: np.array([2.0]),
        }
        legacy = float(
            np.concatenate([pieces[0], pieces[1], pieces[2]]).sum()
        )
        assert combine_pieces(pieces, "SUM") == legacy
        with pytest.raises(TransportError):
            combine_pieces({}, "SUM")
        with pytest.raises(TransportError):
            combine_pieces({0: np.array([1.0])}, "PROD")

    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    @pytest.mark.parametrize("op", ["SUM", "MAX", "MIN"])
    def test_backend_reduce_bitwise_matches_concat(self, backend, op):
        rng = np.random.default_rng(7)
        pieces = {r: rng.standard_normal(5 + r) for r in range(4)}
        expected = combine_pieces(pieces, op)
        transport = make_transport(backend, 4, watchdog_s=10.0)
        try:
            transport.start({r: {} for r in range(4)})
            values, receipt = transport.reduce([[pieces]], [[op]])
        finally:
            transport.shutdown()
        assert values == [[expected]]
        assert receipt.pair_bytes == lower_reduction(
            tree_sizes([[pieces]], 4), 4
        ).predicted_pairs


#: gravity at n=8: per (grid, strategy) its reduce commands and their
#: wire messages and bytes — what the trees cost however their frames
#: are laid out.  ``orig`` posts four trees per statement, ``comb`` one.
GRAVITY_REDUCES = {
    ((1, 2), "orig"): (12, 96, 1920), ((1, 2), "comb"): (12, 24, 1920),
    ((2, 2), "orig"): (12, 288, 4224), ((2, 2), "comb"): (12, 72, 4224),
    ((4, 4), "orig"): (12, 1440, 11904), ((4, 4), "comb"): (12, 360, 11904),
}


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize(
    "grid", [(1, 2), (2, 2), (4, 4)], ids=lambda g: f"{g[0]}x{g[1]}"
)
def test_gravity_reduce_traffic_is_pinned(grid, backend):
    for strategy in ("orig", "comb"):
        result = compile_program(
            BENCHMARKS["gravity"],
            params={"n": 8, "pr": grid[0], "pc": grid[1]}, strategy=strategy,
        )
        ref, _ = execute_spmd(result)
        executor = SPMDExecutor(result, transport=backend)
        calls = []
        reduce = executor.transport.reduce

        def spying_reduce(trees, ops):
            values, receipt = reduce(trees, ops)
            calls.append((trees, receipt))
            assert values == [
                [combine_pieces(member, op)
                 for member, op in zip(tree, tree_ops)]
                for tree, tree_ops in zip(trees, ops)
            ]
            return values, receipt

        executor.transport.reduce = spying_reduce
        try:
            executor.run()
            state = executor.assemble()
        finally:
            executor.close()
        for name in ref:
            np.testing.assert_array_equal(state[name], ref[name])
        for trees, receipt in calls:
            nranks = grid[0] * grid[1]
            lowered = lower_reduction(tree_sizes(trees, nranks), nranks)
            assert receipt.pair_msgs == lowered.predicted_msgs
            assert receipt.pair_bytes == lowered.predicted_pairs
        assert (
            len(calls),
            sum(receipt.messages for _, receipt in calls),
            sum(receipt.bytes_sent for _, receipt in calls),
        ) == GRAVITY_REDUCES[grid, strategy]


# ---------------------------------------------------------------------------
# CommPlan cache scoping (regression)
# ---------------------------------------------------------------------------


class TestPlanCacheGridScope:
    def test_cache_key_includes_grid_shape(self):
        """Cached CommPlans must never be shared across rank-grid
        shapes: the key carries the grid."""
        result = _compile("shallow", Strategy.GLOBAL)
        executor = SPMDExecutor(result)
        try:
            executor.run()
            assert executor._comm_plans
            for key in executor._comm_plans:
                grid_shape = key[0]
                assert grid_shape == executor.grid.shape
        finally:
            executor.close()

    def test_different_grids_produce_disjoint_keys(self):
        keys = {}
        for pr, pc in [(2, 2), (1, 4)]:
            params = dict(SMALL["shallow"], pr=pr, pc=pc)
            result = compile_program(
                BENCHMARKS["shallow"], params=params,
                strategy=Strategy.GLOBAL,
            )
            executor = SPMDExecutor(result)
            executor.run()
            keys[(pr, pc)] = set(executor._comm_plans)
        for key_a in keys[(2, 2)]:
            assert key_a[0] == (2, 2)
        for key_b in keys[(1, 4)]:
            assert key_b[0] == (1, 4)
        assert not (keys[(2, 2)] & keys[(1, 4)])


# ---------------------------------------------------------------------------
# Deadlock watchdog
# ---------------------------------------------------------------------------


def _tampered_scripts(transport, lowered):
    """A genuinely mismatched schedule: drop one rank's first expected
    receive's matching send, so the receiver waits forever."""
    scripts = _scripts_for(lowered, transport.nranks)
    for rank in sorted(scripts):
        for rnd in scripts[rank]:
            if rnd["send"]:
                victim = rnd["send"][0]
                rnd["send"] = rnd["send"][1:]
                return scripts, victim
    raise AssertionError("no wire sends to tamper with")


class TestDeadlockWatchdog:
    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_mismatched_schedule_raises_structured_deadlock(
        self, backend
    ):
        result = _compile("shallow", Strategy.GLOBAL)
        executor = SPMDExecutor(
            result, transport=backend, watchdog_s=1.5
        )
        transport = executor.transport
        try:
            # Build one real lowered op without running the program:
            # compile the first non-reduction placed op's plan the same
            # way _fire would, then tamper with its schedule.
            ops = [
                op
                for anchor in executor.schedule.anchors
                for op in executor.schedule.ops_at(anchor)
                if op.kind != "reduction"
            ]
            assert ops
            op = ops[0]
            node = executor.result.ctx.node_of(op.position)
            sections = tuple(
                executor._concrete_section(entry, node)
                for entry in op.entries
            )
            plan = executor.planner.compile_op(op, sections)
            lowered = lower_comm(op.kind, plan)
            scripts, victim = _tampered_scripts(transport, lowered)

            with pytest.raises(DeadlockError) as err:
                transport._dispatch(scripts, lowered.algorithm)

            d = err.value.to_dict()
            assert d["error"] == "deadlock"
            assert d["backend"] == backend
            assert d["timeout_s"] == pytest.approx(1.5)
            assert d["stuck"], "diagnostic must name stuck ranks"
            stuck_ranks = {s["rank"] for s in d["stuck"]}
            assert victim.dst in stuck_ranks
            if backend == "threaded":
                # Stack dumps of the stuck workers.
                assert any(
                    "_run_op" in s for s in d["stacks"].values()
                )

            # Poisoned: further operations refuse to run.
            with pytest.raises(TransportError):
                transport.execute(lowered)
        finally:
            executor.close()

        # No zombies: every worker wound down.
        if backend == "threaded":
            assert not [
                t for t in threading.enumerate()
                if t.name.startswith("transport-rank-")
            ]
        else:
            assert not [
                p for p in mp.active_children()
                if p.name.startswith("transport-rank-")
            ]

    def test_watchdog_does_not_fire_on_healthy_runs(self):
        result = _compile("shallow", Strategy.GLOBAL)
        state, _stats, _wire, _plans, _ex = _run_transport(
            result, "threaded"
        )
        ref, _ = execute_spmd(result)
        for name in ref:
            np.testing.assert_array_equal(state[name], ref[name])


# ---------------------------------------------------------------------------
# Lifecycle hygiene
# ---------------------------------------------------------------------------


class TestLifecycle:
    def test_shutdown_is_idempotent(self):
        transport = make_transport("multiprocess", 2)
        transport.create_storage([(0, "x", (4,)), (1, "x", (4,))])
        storage = {0: {}, 1: {}}
        transport.start(storage)
        transport.shutdown()
        transport.shutdown()
        assert not [
            p for p in mp.active_children()
            if p.name.startswith("transport-rank-")
        ]

    def test_unknown_backend_rejected(self):
        with pytest.raises(TransportError):
            make_transport("carrier-pigeon", 4)

    def test_none_spec_keeps_legacy_path(self):
        assert make_transport(None, 4) is None

    def test_instance_passthrough(self):
        t = InlineTransport(4)
        assert make_transport(t, 4) is t
