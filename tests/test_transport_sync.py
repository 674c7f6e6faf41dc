"""The synchronisation structure of the concurrent transport driver.

Counted and timed against the protocol's own constants, never against
a throughput number: a receive blocks on its channel (no sleep-poll), a
barrier stands only between the rounds of one operation, an abort
reaches a blocked receiver within a few wait slices, and a dead worker
is found on the collector's next idle wake-up.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.pipeline import Strategy, compile_program
from repro.evaluation.programs import BENCHMARKS
from repro.runtime.spmd import SPMDExecutor, execute_spmd
from repro.transport import DeadlockError, TransportError, make_transport
from repro.transport import base
from repro.transport.lowering import Box, SendOp

from test_transport import DIAGONAL_SRC, SMALL

CONCURRENT = ["threaded", "multiprocess"]


def test_clean_threaded_run_never_sleeps(monkeypatch):
    # repro.transport.base's ``time`` is the interpreter's: no code on
    # the threaded wire path (threaded.py imports no clock at all) may
    # wait by sleeping.
    def no_sleep(seconds):
        raise AssertionError(f"time.sleep({seconds}) on the wire path")

    result = compile_program(
        BENCHMARKS["shallow"], params=SMALL["shallow"],
        strategy=Strategy.GLOBAL,
    )
    expected, _ = execute_spmd(result)
    monkeypatch.setattr(base.time, "sleep", no_sleep)
    arrays, stats = execute_spmd(result, transport="threaded")
    for name, value in expected.items():
        np.testing.assert_array_equal(arrays[name], value)
    assert not stats.degradations


#: DIAGONAL_SRC with a second array read diagonally by the same
#: statement: under ``orig`` two augmented exchanges fire at one anchor,
#: as one wire operation.
DIAGONAL_IN_A_FIRING_SRC = """
PROGRAM diagf
  PARAM n = 8
  PROCESSORS p(2, 2)
  REAL a(n, n)
  REAL b(n, n)
  REAL c(n, n)
  DISTRIBUTE a(BLOCK, BLOCK) ONTO p
  DISTRIBUTE b(BLOCK, BLOCK) ONTO p
  DISTRIBUTE c(BLOCK, BLOCK) ONTO p
  DO k = 1, 2
    a(2:n, 2:n) = b(1:n-1, 1:n-1) + c(1:n-1, 1:n-1)
    b(2:n, 2:n) = a(2:n, 2:n) * 0.5
    c(2:n, 2:n) = a(2:n, 2:n) * 0.25
  END DO
END
"""


class TestBarrierWaits:
    """``RankOpStats.barrier_waits``, read from the receipts: rounds - 1
    per rank and wire operation, nothing at its end, nothing in a
    reduce."""

    def _log(self, source, params, backend, strategy=Strategy.GLOBAL):
        """(members, rounds, rank -> barrier waits) per operation."""
        result = compile_program(source, params=params, strategy=strategy)
        executor = SPMDExecutor(result, transport=backend)
        transport = executor.transport
        log = []
        execute = transport.execute
        reduce = transport.reduce

        def waits(receipt):
            return {
                rank: rs.barrier_waits for rank, rs in receipt.ranks.items()
            }

        def spying_execute(lowered):
            receipt = execute(lowered)
            log.append(
                (lowered.members, len(lowered.rounds), waits(receipt))
            )
            return receipt

        def spying_reduce(trees, ops):
            values, receipt = reduce(trees, ops)
            log.append((("reduce-tree",), 0, waits(receipt)))
            return values, receipt

        transport.execute = spying_execute
        transport.reduce = spying_reduce
        try:
            executor.run()
        finally:
            executor.close()
        return log, len(executor.ranks), executor.wire

    @pytest.mark.parametrize("backend", CONCURRENT)
    def test_k_round_exchange_waits_k_minus_one(self, backend):
        log, nranks, wire = self._log(DIAGONAL_SRC, None, backend)
        exchanges = [row for row in log if "augmented-exchange" in row[0]]
        assert exchanges
        for _members, rounds, waits in exchanges:
            assert rounds == 2
            assert waits == {rank: rounds - 1 for rank in range(nranks)}
        assert wire.barrier_waits == nranks * len(exchanges)
        assert wire.barrier_waits == sum(
            sum(waits.values()) for _, _, waits in log
        )

    @pytest.mark.parametrize("backend", CONCURRENT)
    def test_exchange_in_a_merged_firing(self, backend):
        log, nranks, wire = self._log(
            DIAGONAL_IN_A_FIRING_SRC, None, backend, Strategy.ORIG
        )
        merged = [
            row for row in log
            if "augmented-exchange" in row[0] and len(row[0]) > 1
        ]
        assert merged, [row[0] for row in log]
        for _members, rounds, waits in merged:
            assert rounds == 2
            assert waits == {rank: rounds - 1 for rank in range(nranks)}
        assert wire.barrier_waits == sum(
            sum(waits.values()) for _, _, waits in log
        )

    @pytest.mark.parametrize("backend", CONCURRENT)
    def test_single_round_ops_and_reduces_never_wait(self, backend):
        log, nranks, wire = self._log(
            BENCHMARKS["gravity"], SMALL["gravity"], backend
        )
        assert {
            algorithm for row in log for algorithm in row[0]
        } >= {"neighbor-exchange", "reduce-tree"}
        for members, rounds, waits in log:
            assert rounds <= 1, members
            if rounds or members == ("reduce-tree",):
                assert waits == {rank: 0 for rank in range(nranks)}, members
            else:  # never dispatched: nobody measured anything
                assert waits == {}
        assert wire.barrier_waits == 0
        assert wire.collect_s > 0.0
        assert wire.as_dict()["collect_s"] == round(wire.collect_s, 6)
        assert wire.as_dict()["barrier_waits"] == 0


def _starved_scripts(nranks: int, victim: int, src: int, seq: int = 5):
    """Rank ``victim`` expects ``seq`` from ``src``; nobody sends it."""
    scripts = {
        rank: [{"send": [], "local": [], "recv": []}]
        for rank in range(nranks)
    }
    scripts[victim][0]["recv"].append(SendOp(
        seq=seq, src=src, dst=victim,
        boxes=(Box("x", (slice(0, 1, 1),), None, 1),), nbytes=8,
    ))
    return scripts


@pytest.mark.parametrize("backend", CONCURRENT)
def test_blocked_receiver_is_named_then_released_by_abort(backend):
    transport = make_transport(backend, 3, watchdog_s=0.5)
    try:
        transport.start({rank: {} for rank in range(3)})
        with pytest.raises(DeadlockError) as err:
            transport._dispatch(_starved_scripts(3, 2, 0), "pointwise")
        # ``_deadlock`` called ``_abort_fleet()`` just before raising.
        aborted_at = time.monotonic()
        assert transport._abort.is_set()
        stuck = {s["rank"]: s for s in err.value.stuck}
        assert set(stuck) == {2}
        assert stuck[2]["state"] == "waiting on recv"
        assert stuck[2]["waiting_on"] == "message seq 5 from rank 0"
        assert "message seq 5 from rank 0" in str(err.value)
        while transport._status.describe(2)["state"] != "idle":
            assert time.monotonic() - aborted_at < 0.1, (
                "receiver still blocked 0.1 s after the abort"
            )
            time.sleep(0.002)
    finally:
        transport.shutdown()


def test_killed_worker_is_reported_on_the_next_idle_wakeup():
    transport = make_transport("multiprocess", 2, watchdog_s=30.0)
    killed_at = []

    def kill():
        transport._procs[1].kill()
        killed_at.append(time.monotonic())

    timer = threading.Timer(0.3, kill)
    try:
        transport.start({})
        timer.start()
        # Rank 0 completes at once, rank 1 blocks in a receive — mid-op
        # when it is killed.
        with pytest.raises(TransportError, match=r"rank\(s\) \[1\] died"):
            transport._dispatch(_starved_scripts(2, 1, 0), "pointwise")
        reported_at = time.monotonic()
        assert killed_at, "the operation failed before the worker was killed"
        assert reported_at - killed_at[0] < 2 * base._LIVENESS_S
    finally:
        timer.cancel()
        timer.join(5.0)
        transport.shutdown()
