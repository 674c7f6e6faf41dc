"""Reductions run as the schedule placed them: one tree operation per
placed reduction op, every value bitwise what a per-node reduce gives.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import Strategy, compile_program
from repro.core.state import PlacedComm
from repro.cost.lower_bound import reduction_tree_messages
from repro.errors import SimulationError
from repro.evaluation.programs import BENCHMARKS
from repro.machine.model import SP2
from repro.runtime.interp import interpret
from repro.runtime.simulator import simulate
from repro.runtime.spmd import SPMDExecutor, execute_spmd
from repro.transport import (
    BACKENDS,
    InlineTransport,
    TransportError,
    make_transport,
)
from repro.transport.base import combine_pieces
from repro.transport.lowering import lower_reduction, tree_sizes

GRAVITY = {"n": 8, "pr": 2, "pc": 2}
PLANES = GRAVITY["n"] - 2  # DO i = 2, n-1

#: s2 mixes three reduction ops over two arrays; s3 has two reductions
#: over different grid axes plus one the compiler eliminates as redundant
#: (its section lies inside ``a(:, 1)``), which no placed op covers.
MIXED_SRC = """
PROGRAM mix
  PARAM n = 8
  PROCESSORS p(2, 2)
  REAL a(n, n)
  REAL b(n, n)
  DISTRIBUTE a(BLOCK, BLOCK) ONTO p
  DISTRIBUTE b(BLOCK, BLOCK) ONTO p
  REAL s
  REAL t
  DO k = 1, 2
    s = SUM(a(1, :)) + MAXVAL(a(2, :)) + MINVAL(b(n, :))
    t = SUM(a(:, 1)) + SUM(b(3, :)) + SUM(a(1:2, 1))
    a(2:n-1, 2:n-1) = a(2:n-1, 2:n-1) * 0.5 + 0.001 * s + 0.002 * t
    b(2:n-1, 2:n-1) = a(2:n-1, 2:n-1) + b(2:n-1, 2:n-1) * 0.25
  END DO
END
"""


def _run(result, backend):
    executor = SPMDExecutor(result, transport=backend)
    try:
        stats = executor.run()
        return executor.assemble(), stats, executor.wire
    finally:
        executor.close()


def _assert_same(arrays, expected, what):
    assert set(arrays) == set(expected)
    for name, value in expected.items():
        np.testing.assert_array_equal(arrays[name], value, err_msg=what)


class TestGravity:
    @pytest.mark.parametrize("strategy,per_plane", [
        (Strategy.GLOBAL, 2), (Strategy.ORIG, 8),
    ], ids=["comb", "orig"])
    def test_one_tree_op_per_placed_reduction(self, strategy, per_plane):
        result = compile_program(
            BENCHMARKS["gravity"], params=GRAVITY, strategy=strategy
        )
        expected = interpret(result.info)
        direct, ref_stats = execute_spmd(result)
        _assert_same(direct, expected, "direct copy vs interpreter")
        tree_ops = per_plane * PLANES
        for backend in sorted(BACKENDS):
            arrays, stats, wire = _run(result, backend)
            _assert_same(arrays, expected, f"{backend} vs interpreter")
            assert wire.reduces == tree_ops, backend
            assert wire.algorithms["reduce-tree"] == tree_ops
            assert stats.reductions == ref_stats.reductions == 8 * PLANES
            assert stats.messages == ref_stats.messages
        # RuntimeStats.messages: the plans' pairs (every firing the
        # image recorded happened once) plus one tree's worth per tree
        # op (not per Reduction node).
        image = result.execution_image
        plan_messages = sum(
            len(image.comm_plans[key].wire_pairs)
            for keys in image.firings.values() for key in keys
        )
        assert ref_stats.messages == plan_messages + (
            tree_ops * reduction_tree_messages(4)
        )

    def test_stale_piece_stops_the_statement_before_any_tree_op(self):
        # g(2, 1, 1) is read by nothing but SUM(g(i, 1, :)), the third of
        # the statement's four reductions: every piece is verified before
        # the first tree op goes out, so not one is sent.
        for strategy in (Strategy.GLOBAL, Strategy.ORIG):
            result = compile_program(
                BENCHMARKS["gravity"], params=GRAVITY, strategy=strategy
            )
            messages = []
            for backend in (None, "inline", "threaded"):
                executor = SPMDExecutor(result, transport=backend)
                try:
                    executor.storage[0]["g"].values[1, 0, 0] += 1.0
                    with pytest.raises(SimulationError) as err:
                        executor.run()
                    if executor.wire is not None:
                        assert executor.wire.reduces == 0
                    assert executor.stats.reductions == 0
                finally:
                    executor.close()
                messages.append(str(err.value))
            assert "stale data shipped for g" in messages[0]
            assert len(set(messages)) == 1

    @pytest.mark.parametrize("field", ["pair_bytes", "pair_msgs"])
    def test_a_miscounted_tree_edge_is_refused(self, field):
        # The reduce receipt is cross-checked against lower_reduction
        # like every other operation's against its lowering.
        class Miscounting(InlineTransport):
            def reduce(self, trees, ops):
                values, receipt = super().reduce(trees, ops)
                counts = getattr(receipt, field)
                edge = min(counts)
                counts[edge] += 1
                return values, receipt

        result = compile_program(BENCHMARKS["gravity"], params=GRAVITY)
        executor = SPMDExecutor(result, transport=Miscounting(4))
        try:
            with pytest.raises(
                TransportError, match=r"wire accounting mismatch \(reduce-tree\)"
            ):
                executor.run()
        finally:
            executor.close()


class TestGroupShapes:
    def test_statement_with_two_placed_ops_and_an_uncovered_node(self):
        result = compile_program(MIXED_SRC, strategy=Strategy.GLOBAL)
        expected = interpret(result.info)
        placed = [op for op in result.placed if op.kind == "reduction"]
        # s2: three ops (SUM, MAX, MIN do not combine); s3: two ops, and
        # SUM(a(1:2, 1)) was eliminated — a group of one at run time.
        assert len(placed) == 5
        per_iteration = 3 + (2 + 1)
        for backend in sorted(BACKENDS):
            arrays, stats, wire = _run(result, backend)
            _assert_same(arrays, expected, backend)
            assert wire.reduces == 2 * per_iteration
            assert stats.reductions == 2 * 6

    def test_sum_and_max_in_one_group(self):
        # The compiler never combines different reduction ops; a
        # hand-combined schedule must still execute them as one tree op.
        result = compile_program(MIXED_SRC, strategy=Strategy.GLOBAL)
        expected = interpret(result.info)
        reductions = [op for op in result.placed if op.kind == "reduction"]
        first_sid = min(op.entries[0].use.stmt.sid for op in reductions)
        s2 = [
            op for op in reductions
            if op.entries[0].use.stmt.sid == first_sid
        ]
        assert {op.entries[0].pattern.mapping.op for op in s2} == {
            "SUM", "MAX", "MIN"
        }
        merged = PlacedComm(
            s2[0].position, [entry for op in s2 for entry in op.entries]
        )
        result.placed[:] = [
            op for op in result.placed if op not in s2
        ] + [merged]
        per_iteration = 1 + (2 + 1)
        for backend in sorted(BACKENDS):
            arrays, _stats, wire = _run(result, backend)
            _assert_same(arrays, expected, backend)
            assert wire.reduces == 2 * per_iteration
        direct, _ = execute_spmd(result)
        _assert_same(direct, expected, "direct copy")


class TestBatchedTreeOp:
    @pytest.mark.parametrize("backend", sorted(BACKENDS))
    def test_values_and_wire_traffic_of_a_mixed_batch(self, backend):
        rng = np.random.default_rng(11)
        # Rank 3 owns nothing of the first section, ranks 0 and 1 nothing
        # of the third.
        batch = [
            {r: rng.standard_normal(3 + r) for r in (0, 1, 2)},
            {r: rng.standard_normal(4) for r in range(4)},
            {r: rng.standard_normal(2) for r in (2, 3)},
        ]
        ops = ["SUM", "MAX", "MIN"]
        transport = make_transport(backend, 4, watchdog_s=10.0)
        try:
            transport.start({r: {} for r in range(4)})
            values, receipt = transport.reduce([batch], [ops])
            single, single_receipt = transport.reduce([[batch[0]]], [["SUM"]])
        finally:
            transport.shutdown()
        assert values == [[
            combine_pieces(pieces, op) for pieces, op in zip(batch, ops)
        ]]
        assert single == [[values[0][0]]]
        assert transport.stats.reduces == 2
        predicted = lower_reduction(tree_sizes([batch], 4), 4)
        assert receipt.pair_bytes == predicted.predicted_pairs
        assert receipt.pair_msgs == predicted.predicted_msgs
        # Every partial not on rank 0 reaches it once, members together.
        assert receipt.pair_bytes[1, 0] + receipt.pair_bytes[2, 0] == 8 * sum(
            int(vector.size)
            for pieces in batch for rank, vector in pieces.items() if rank
        )
        # One message per tree edge and direction, however many members.
        assert receipt.messages == single_receipt.messages == 2 * 3


class TestReductionMessageFormula:
    def test_one_rank_sends_no_reduction_messages(self):
        # The inline 2*ceil(log2(max(P, 2))) charged 2 wire messages for
        # a reduction nobody has to be told about.
        result = compile_program(
            BENCHMARKS["gravity"], params={"n": 8, "pr": 1, "pc": 1}
        )
        assert reduction_tree_messages(1) == 0
        for backend in (None, "inline"):
            _, stats = execute_spmd(result, transport=backend)
            assert stats.reductions == 8 * PLANES
            assert stats.messages == 0

    def test_simulator_agrees_with_executor_on_one_rank(self):
        # "simulator counts = executed wire counts" at P = 1: the
        # simulator held its own copy of the formula, which charged 2.
        result = compile_program(
            BENCHMARKS["gravity"], params={"n": 8, "pr": 1, "pc": 1}
        )
        _, stats = execute_spmd(result)
        simulated = sum(
            cost.total_messages
            for cost in simulate(result, SP2).comm_ops
            if cost.op.kind == "reduction"
        )
        assert simulated == stats.messages == 0
