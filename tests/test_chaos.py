"""Self-healing transport suite: chaos fault injection, wire
integrity, and rank crash recovery.

The contract under test: with a seeded :class:`FaultPlan` armed, every
run either (a) completes with final arrays bitwise-identical to the
inline oracle — repairing drops, duplicates, corruption, delays, and
reordering through the checksum/dedup/NACK machinery, and restarting
crashed ranks from checkpoints — or (b) fails *structurally*
(``DeadlockError`` with fault context, or a recorded W07xx degradation
to the inline backend, which again yields identical arrays).  A silent
wrong answer is never acceptable.  Clean runs pay for integrity but
never repair: a checksum mismatch without chaos is a hard error.

The chaos matrix — six programs × seven fault plans × two concurrent
backends, 84 cells — is
``TestSingleFaultEquivalence::test_matrix_cell_is_bitwise_identical``;
the CI smoke job runs it three times in a row, because the failure it
guards against was schedule-dependent.
"""

from __future__ import annotations

import functools
import multiprocessing as mp
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pipeline import compile_program
from repro.errors import (
    DEADLOCK_DEGRADED_CODE,
    RANK_RESTART_CODE,
    RESTARTS_EXHAUSTED_CODE,
)
from repro.evaluation.programs import BENCHMARKS, QUICK_PARAMS
from repro.runtime.spmd import SPMDExecutor, execute_spmd
from repro.transport import (
    BACKENDS,
    DeadlockError,
    FaultPlan,
    KINDS,
    RankCrashError,
    RuntimeDegradationEvent,
    TransportError,
    make_transport,
)
from repro.transport.base import _scripts_for, combine_pieces
from repro.transport.integrity import ChaosState, _roll
from repro.transport.lowering import lower_comm

SMALL = {"n": 8, "nsteps": 2, "pr": 2, "pc": 2}

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


#: Reductions are all this program puts on the wire; ranks 2 and 3 own
#: nothing of ``b(1:6)``, so some of its gather frames are empty.
REDUCE_ONLY_SRC = """
PROGRAM sums
  PARAM n = 16
  PROCESSORS p(4)
  REAL a(n)
  REAL b(n)
  REAL s
  DISTRIBUTE a(BLOCK) ONTO p
  DISTRIBUTE b(BLOCK) ONTO p
  DO t = 1, 3
    a(1:n) = a(1:n) * 0.5 + 1.0
    s = SUM(a(1:n)) + MAXVAL(b(1:6))
    b(1:n) = b(1:n) + 0.001 * s
  END DO
END PROGRAM
"""


@pytest.fixture(scope="module")
def shallow():
    result = compile_program(BENCHMARKS["shallow"], params=SMALL)
    oracle, _ = execute_spmd(result, transport="inline")
    return result, oracle


@pytest.fixture(scope="module")
def diagonal():
    result = compile_program(DIAGONAL_SRC)
    oracle, _ = execute_spmd(result, transport="inline")
    return result, oracle


def _identical(arrays, oracle) -> bool:
    return set(arrays) == set(oracle) and all(
        np.array_equal(arrays[k], oracle[k]) for k in oracle
    )


#: The chaos matrix's plans: one per fault class at rate 0.2, a crash
#: that fires exactly once (rate 1, budget 1) so recovery runs
#: deterministically, and a mixed plan with that crash in it.
MATRIX_PLANS = {
    **{
        kind: FaultPlan.single(kind, seed=1, rate=0.2)
        for kind in KINDS if kind != "crash"
    },
    "crash": FaultPlan(seed=1, crash=1.0, crash_budget=1),
    "mixed": FaultPlan(
        seed=1, drop=0.1, dup=0.1, corrupt=0.1, reorder=0.1,
        crash=1.0, crash_budget=1,
    ),
}


@functools.cache
def _quick(program):
    """``program`` at QUICK_PARAMS and its inline oracle."""
    result = compile_program(BENCHMARKS[program], params=QUICK_PARAMS[program])
    return result, execute_spmd(result, transport="inline")[0]


# ---------------------------------------------------------------------------
# FaultPlan / ChaosState
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_roundtrip(self):
        plan = FaultPlan.parse("seed=7,drop=0.05,corrupt=0.02,crash=0.5,"
                               "crash_budget=2")
        assert plan.seed == 7
        assert plan.drop == pytest.approx(0.05)
        assert plan.crash_budget == 2
        again = FaultPlan.parse(",".join(
            f"{k}={v}" for k, v in plan.as_dict().items()
        ))
        assert again == plan

    def test_parse_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="bad chaos spec"):
            FaultPlan.parse("drop=0.1,explode=1.0")
        with pytest.raises(ValueError, match="bad chaos spec"):
            FaultPlan.parse("just-a-word")

    def test_single_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPlan.single("gamma_ray")

    def test_rolls_are_deterministic_pure_functions(self):
        # Same event -> same draw, independent of call order; the fault
        # set must be identical across interleavings and replays.
        draws = [_roll(3, "drop", 0, 1, seq) for seq in range(64)]
        assert draws == [_roll(3, "drop", 0, 1, seq) for seq in range(64)]
        assert draws != [_roll(4, "drop", 0, 1, seq) for seq in range(64)]
        assert all(0.0 <= d < 1.0 for d in draws)

    def test_crash_budget_is_shared_and_bounded(self):
        state = ChaosState(FaultPlan(crash=1.0, crash_budget=2), 4)
        fired = sum(
            1 for seq in range(50) if state.fires("crash", 0, 1, seq)
        )
        assert fired == 2  # rate 1.0, but the budget caps injections
        assert state.ledger()[0]["crash"] == 2
        assert state.injected_total() == 2

    @pytest.mark.parametrize("spec", [
        "seed=1,delay=1.0", "crash=1.0,crash_budget=1",
    ])
    def test_inline_refuses_chaos(self, spec, shallow):
        # The inline backend is the fault-free reference: it is never
        # armed, rather than armed and silently injecting something else.
        with pytest.raises(ValueError, match="'threaded' or 'multiprocess'"):
            make_transport("inline", 4, chaos=spec)
        with pytest.raises(ValueError, match="fault-free reference"):
            execute_spmd(shallow[0], transport="inline", chaos=spec)
        with pytest.raises(ValueError, match="concurrent backend"):
            make_transport(BACKENDS["inline"](4), 4, chaos=FaultPlan(drop=1))


# ---------------------------------------------------------------------------
# Single-fault-class equivalence: every kind, both concurrent backends
# ---------------------------------------------------------------------------


class TestSingleFaultEquivalence:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_healed_runs_are_bitwise_identical(
        self, backend, kind, shallow
    ):
        result, oracle = shallow
        plan = FaultPlan.single(kind, seed=3, rate=0.25)
        arrays, stats = execute_spmd(
            result, transport=backend, chaos=plan, watchdog_s=15.0
        )
        # A completed run has already passed the executor's exact
        # per-operation wire parity asserts (retransmits are ledgered
        # separately), so bitwise identity is the remaining claim.
        assert _identical(arrays, oracle)
        if kind == "crash":
            assert stats.rank_restarts >= 1
            assert stats.degradations
            assert stats.degradations[0]["code"] == RANK_RESTART_CODE

    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    @pytest.mark.parametrize("plan", sorted(MATRIX_PLANS))
    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    def test_matrix_cell_is_bitwise_identical(self, program, plan, backend):
        result, oracle = _quick(program)
        arrays, stats = execute_spmd(
            result, transport=backend, chaos=MATRIX_PLANS[plan],
            watchdog_s=60.0,
        )
        assert _identical(arrays, oracle)
        if plan in ("crash", "mixed"):
            assert stats.rank_restarts == 1

    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_mixed_plan_with_crash(self, backend, diagonal):
        result, oracle = diagonal
        plan = FaultPlan(
            seed=5, drop=0.15, dup=0.15, corrupt=0.15, reorder=0.15,
            crash=1.0, crash_budget=1,
        )
        arrays, stats = execute_spmd(
            result, transport=backend, chaos=plan, watchdog_s=15.0
        )
        assert _identical(arrays, oracle)
        assert stats.faults_injected > 0
        assert stats.rank_restarts >= 1

    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    def test_mixed_plan_carrier_parity(self, program):
        # One protocol core, two carriers: under the same non-crash
        # mixed plan both concurrent backends must inject exactly the
        # same faults (rolls are pure hashes of (seed, kind, src, dst,
        # seq), sequenced by the shared core) and heal to the arrays
        # the sequential inline reference produces.
        result = compile_program(
            BENCHMARKS[program], params=QUICK_PARAMS[program]
        )
        oracle, _ = execute_spmd(result, transport="inline")
        plan = FaultPlan(
            seed=11, drop=0.1, dup=0.1, corrupt=0.1, reorder=0.1
        )
        ledgers = {}
        for backend in ("threaded", "multiprocess"):
            executor = SPMDExecutor(
                result, transport=backend, chaos=plan, watchdog_s=15.0
            )
            try:
                executor.run()
                assert _identical(executor.assemble(), oracle), backend
                ledgers[backend] = dict(executor.wire.injected)
            finally:
                executor.close()
        assert ledgers["threaded"] == ledgers["multiprocess"]
        assert sum(ledgers["threaded"].values()) > 0

    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_reduce_frames_heal_from_corruption_and_loss(self, backend):
        # A reduce frame is a wire frame: checksummed, NACKed and
        # retransmitted like a schedule send.
        result = compile_program(REDUCE_ONLY_SRC)
        oracle, _ = execute_spmd(result, transport="inline")
        for kind in ("corrupt", "drop"):
            executor = SPMDExecutor(
                result, transport=backend, watchdog_s=15.0,
                chaos=FaultPlan.single(kind, seed=1, rate=0.3),
            )
            receipts = []
            reduce = executor.transport.reduce

            def spying_reduce(trees, ops):
                values, receipt = reduce(trees, ops)
                receipts.append(receipt)
                # The values themselves: a scalar's reduction reaches
                # the assembled arrays only through the shadow.
                assert values == [
                    [combine_pieces(member, op)
                     for member, op in zip(tree, tree_ops)]
                    for tree, tree_ops in zip(trees, ops)
                ]
                return values, receipt

            executor.transport.reduce = spying_reduce
            try:
                executor.run()
                assert _identical(executor.assemble(), oracle), kind
                wire = executor.wire
            finally:
                executor.close()
            assert wire.messages == sum(r.messages for r in receipts) > 0
            ranks = [rs for r in receipts for rs in r.ranks.values()]
            assert sum(rs.retransmits for rs in ranks) > 0, kind
            if kind == "corrupt":
                assert sum(rs.crc_failures for rs in ranks) > 0
            assert set(wire.injected) == {kind}

    def test_detection_counters_reach_runtime_stats(self, shallow):
        result, oracle = shallow
        plan = FaultPlan(seed=3, drop=0.25, corrupt=0.25)
        arrays, stats = execute_spmd(
            result, transport="threaded", chaos=plan, watchdog_s=15.0
        )
        assert _identical(arrays, oracle)
        assert stats.faults_injected > 0
        assert stats.faults_detected > 0
        assert stats.retransmits > 0
        d = stats.as_dict()
        for key in ("faults_injected", "faults_detected", "retransmits",
                    "rank_restarts", "recovery_s", "degradations"):
            assert key in d


# ---------------------------------------------------------------------------
# Degradation ladder
# ---------------------------------------------------------------------------


class TestDegradationLadder:
    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_restart_budget_exhaustion_degrades_to_inline(
        self, backend, shallow
    ):
        result, oracle = shallow
        plan = FaultPlan(seed=1, crash=1.0, crash_budget=50)
        arrays, stats = execute_spmd(
            result, transport=backend, chaos=plan, watchdog_s=15.0,
            max_rank_restarts=1,
        )
        assert _identical(arrays, oracle)  # inline fallback, still exact
        assert stats.degradations
        event = stats.degradations[-1]
        assert event["code"] == RESTARTS_EXHAUSTED_CODE
        assert event["reason"] == "restarts_exhausted"
        assert event["fallback"] == "inline"

    def test_rank_crash_error_is_structured(self, shallow):
        result, _ = shallow
        plan = FaultPlan(seed=1, crash=1.0, crash_budget=50)
        executor = SPMDExecutor(
            result, transport="threaded", chaos=plan, watchdog_s=15.0,
            max_rank_restarts=0,
        )
        try:
            with pytest.raises(RankCrashError) as err:
                executor.run()
        finally:
            executor.close()
        d = err.value.to_dict()
        assert d["error"] == "rank_crash"
        assert d["max_restarts"] == 0
        assert d["dead_ranks"]

    def test_clean_runs_never_degrade(self, shallow):
        result, oracle = shallow
        arrays, stats = execute_spmd(result, transport="threaded")
        assert _identical(arrays, oracle)
        assert stats.degradations == []
        assert stats.faults_injected == 0
        assert stats.retransmits == 0

    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_degradations_name_the_armed_backend(self, backend, shallow):
        """Chaos arms the backend itself: it keeps its type and name,
        and every W07xx event names it plainly — a recovered restart and
        an exhausted restart budget alike."""
        transport = make_transport(
            backend, 4, chaos=FaultPlan(seed=1, crash=1.0, crash_budget=1)
        )
        try:
            assert type(transport) is BACKENDS[backend]
            assert transport.name == backend
            assert transport.chaos.ledger() == {}
        finally:
            transport.shutdown()
        result, _ = shallow
        _, restarted = execute_spmd(
            result, transport=backend, watchdog_s=15.0,
            chaos=FaultPlan(seed=1, crash=1.0, crash_budget=1),
        )
        _, exhausted = execute_spmd(
            result, transport=backend, watchdog_s=15.0,
            chaos=FaultPlan(seed=1, crash=1.0, crash_budget=50),
            max_rank_restarts=1,
        )
        events = restarted.degradations + exhausted.degradations
        assert [e["code"] for e in events] == [
            RANK_RESTART_CODE, RESTARTS_EXHAUSTED_CODE
        ]
        assert {e["backend"] for e in events} == {backend}
        diag = RuntimeDegradationEvent(
            reason="rank_restart", backend=events[0]["backend"],
            detail="x", fallback="none",
        ).diagnostic()
        assert diag.message.startswith(f"{backend} transport degraded")

    def test_degradation_event_codes(self):
        for reason, code in [
            ("rank_restart", RANK_RESTART_CODE),
            ("deadlock", DEADLOCK_DEGRADED_CODE),
            ("restarts_exhausted", RESTARTS_EXHAUSTED_CODE),
        ]:
            event = RuntimeDegradationEvent(
                reason=reason, backend="threaded", detail="x",
                fallback="inline",
            )
            assert event.code == code
            diag = event.diagnostic()
            assert diag.severity == "warning"
            assert diag.phase == "runtime"
            assert event.to_dict()["code"] == code


# ---------------------------------------------------------------------------
# Satellites: deadlock fault context, no zombies
# ---------------------------------------------------------------------------


def _tampered_scripts(transport, lowered):
    scripts = _scripts_for(lowered, transport.nranks)
    for rank in sorted(scripts):
        for rnd in scripts[rank]:
            if rnd["send"]:
                victim = rnd["send"].pop(0)
                return scripts, victim
    raise AssertionError("lowering produced no sends to tamper with")


class TestDeadlockFaultContext:
    def _deadlock(self, backend, chaos):
        result = compile_program(BENCHMARKS["shallow"], params=SMALL)
        executor = SPMDExecutor(
            result, transport=make_transport(
                backend, 4, watchdog_s=1.5, chaos=chaos
            ),
        )
        transport = executor.transport
        try:
            ops = [
                op
                for anchor in executor.schedule.anchors
                for op in executor.schedule.ops_at(anchor)
                if op.kind != "reduction"
            ]
            op = ops[0]
            node = executor.result.ctx.node_of(op.position)
            sections = tuple(
                executor._concrete_section(entry, node)
                for entry in op.entries
            )
            plan = executor.planner.compile_op(op, sections)
            lowered = lower_comm(op.kind, plan)
            scripts, _victim = _tampered_scripts(transport, lowered)
            with pytest.raises(DeadlockError) as err:
                transport._dispatch(scripts, lowered.algorithm)
            return err.value
        finally:
            executor.close()

    def test_clean_deadlock_has_no_fault_context(self):
        err = self._deadlock("threaded", None)
        assert err.fault_context is None
        assert "fault_context" not in err.to_dict()

    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_chaos_deadlock_carries_fault_ledger(self, backend):
        err = self._deadlock(
            backend, FaultPlan(seed=3, drop=0.25, corrupt=0.1)
        )
        ctx = err.fault_context
        assert ctx is not None
        assert set(ctx) == {"injected_by_rank", "last_recv_seq"}
        d = err.to_dict()
        assert d["fault_context"] == ctx


class TestCollectorParity:
    """Collector behaviour both carriers now share."""

    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_dead_worker_on_clean_run_is_noticed_at_once(self, backend):
        # Liveness is checked on every collector wake-up, so a worker
        # that is gone fails the operation long before the watchdog.
        transport = make_transport(backend, 2, watchdog_s=30.0)
        try:
            transport.start({})
            transport._cmd[0].put(("stop",))  # rank 0's worker exits
            t0 = time.monotonic()
            with pytest.raises(TransportError, match=r"rank\(s\) \[0\] died"):
                transport.reduce(
                    [[{0: np.ones(2), 1: np.ones(2)}]], [["SUM"]]
                )
            assert time.monotonic() - t0 < 5.0
        finally:
            transport.shutdown()

    @pytest.mark.parametrize("backend", ["threaded", "multiprocess"])
    def test_aborting_an_already_broken_barrier_is_tolerated(self, backend):
        class Broken:
            def abort(self):
                raise RuntimeError("barrier already broken")

        transport = make_transport(backend, 2)
        try:
            transport._barrier = Broken()
            transport._abort_fleet()
            assert transport._abort.is_set()
        finally:
            transport.shutdown()


class TestNoZombies:
    def test_multiprocess_crash_leaves_no_zombie_processes(self, shallow):
        # Regression: an injected os._exit crash plus recovery plus
        # shutdown must reap every worker — the restarted ones too.
        result, oracle = shallow
        before = {p.pid for p in mp.active_children()}
        plan = FaultPlan(seed=3, crash=1.0, crash_budget=2)
        arrays, stats = execute_spmd(
            result, transport="multiprocess", chaos=plan, watchdog_s=15.0
        )
        assert _identical(arrays, oracle)
        assert stats.rank_restarts >= 1
        leaked = [
            p for p in mp.active_children() if p.pid not in before
        ]
        assert not leaked, f"zombie transport workers: {leaked}"


# ---------------------------------------------------------------------------
# Integrity on clean runs
# ---------------------------------------------------------------------------


class TestCleanIntegrity:
    @pytest.mark.parametrize("backend", ["inline", "threaded",
                                         "multiprocess"])
    def test_clean_run_exact(self, backend, shallow):
        # Checksums are always on; a clean run never repairs anything.
        result, oracle = shallow
        arrays, stats = execute_spmd(result, transport=backend)
        assert _identical(arrays, oracle)
        assert stats.faults_detected == stats.retransmits == 0


# ---------------------------------------------------------------------------
# Property: random programs never return a silent wrong answer
# ---------------------------------------------------------------------------

N = 12


@st.composite
def chaos_program(draw):
    """Small random stencil program over one BLOCK array pair."""
    arrays = ["u", "v"]
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        dst = draw(st.sampled_from(arrays))
        src = draw(st.sampled_from(arrays))
        shift = draw(st.integers(-2, 2))
        lo, hi = 3 + shift, N - 2 + shift
        lines.append(f"{dst}(3:{N - 2}) = {src}({lo}:{hi}) + 1.0")
    if draw(st.booleans()):
        lines.append(f"s = SUM(u(1:{N}))")
        lines.append(f"v(3:{N - 2}) = s")
    body = "\n".join(lines)
    if draw(st.booleans()):
        body = f"DO tstep = 1, 2\n{body}\nEND DO"
    decls = "\n".join(
        f"REAL {a}({N})\nDISTRIBUTE {a}(BLOCK) ONTO p" for a in arrays
    )
    return (
        f"PROGRAM chaosprog\nPARAM n = {N}\nPROCESSORS p(3)\n"
        f"{decls}\nREAL s\n{body}\nEND PROGRAM"
    )


@settings(max_examples=12, deadline=None)
@given(
    source=chaos_program(),
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**16),
)
def test_chaos_never_silently_wrong(source, kind, seed):
    """Random program x random single-fault plan: the run must heal to
    the inline oracle bitwise (possibly via recorded degradation) —
    structured failure is acceptable, a wrong answer is not."""
    result = compile_program(source)
    oracle, _ = execute_spmd(result, transport="inline")
    plan = FaultPlan.single(kind, seed=seed, rate=0.25)
    try:
        arrays, stats = execute_spmd(
            result, transport="threaded", chaos=plan, watchdog_s=15.0
        )
    except (DeadlockError, RankCrashError) as exc:
        # Structured failure: carries machine-readable context.
        assert exc.to_dict()
        return
    assert _identical(arrays, oracle)
    if stats.degradations:
        assert all(
            d["code"].startswith("W07") for d in stats.degradations
        )
