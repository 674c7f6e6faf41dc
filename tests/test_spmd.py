"""SPMD execution tests: compiled programs on simulated ranks must
reproduce the sequential F90 semantics exactly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import Strategy, compile_all_strategies, compile_program
from repro.errors import SimulationError
from repro.evaluation.programs import BENCHMARKS
from repro.ir.cfg import Position
from repro.runtime.interp import interpret
from repro.runtime.spmd import SPMDExecutor, execute_spmd

SMALL = {
    "shallow": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
    "gravity": {"n": 8, "pr": 2, "pc": 2},
    "trimesh": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "trimesh_gauss": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "hydflo_flux": {"n": 8, "nsteps": 1, "pr": 2, "pc": 2},
    "hydflo_hydro": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
}


def assert_matches_sequential(result):
    state, stats = execute_spmd(result)
    ref = interpret(result.info)
    for name in ref:
        np.testing.assert_array_equal(
            state[name], ref[name], err_msg=f"array {name} diverged"
        )
    return stats


class TestBenchmarksMatchSequential:
    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_exact_equality(self, program, strategy):
        result = compile_program(
            BENCHMARKS[program], params=SMALL[program], strategy=strategy
        )
        stats = assert_matches_sequential(result)
        if result.entries:
            assert stats.messages > 0

    def test_fig4(self, fig4_source):
        for result in compile_all_strategies(fig4_source).values():
            assert_matches_sequential(result)

    def test_stencil(self, stencil_source):
        for result in compile_all_strategies(stencil_source).values():
            assert_matches_sequential(result)

    def test_different_seeds(self, stencil_source):
        result = compile_program(stencil_source)
        for seed in (1, 99, 31337):
            executor = SPMDExecutor(result, seed=seed)
            executor.run()
            state = executor.assemble()
            ref = interpret(result.info, seed=seed)
            for name in ref:
                np.testing.assert_array_equal(state[name], ref[name])


class TestMessageAccounting:
    def test_combining_reduces_wire_messages(self):
        params = SMALL["shallow"]
        results = compile_all_strategies(BENCHMARKS["shallow"], params=params)
        msgs = {}
        bytes_ = {}
        for strategy, result in results.items():
            _, stats = execute_spmd(result)
            msgs[strategy] = stats.messages
            bytes_[strategy] = stats.bytes_moved
        # Redundancy elimination cuts both messages and volume; combining
        # then cuts messages, and the volume only by elements its combined
        # sections share (one message sends their union) — shallow's
        # combined halos do not nest, so its volume stays.
        assert msgs[Strategy.EARLIEST] < msgs[Strategy.ORIG]
        assert bytes_[Strategy.EARLIEST] < bytes_[Strategy.ORIG]
        assert msgs[Strategy.GLOBAL] < msgs[Strategy.EARLIEST]
        assert bytes_[Strategy.GLOBAL] == bytes_[Strategy.EARLIEST]

    def test_remote_reads_strategy_independent(self, stencil_source):
        counts = set()
        for result in compile_all_strategies(stencil_source).values():
            _, stats = execute_spmd(result)
            counts.add(stats.remote_reads)
        assert len(counts) == 1  # the program's data needs don't change

    def test_reduction_statistics(self):
        result = compile_program(BENCHMARKS["gravity"], params=SMALL["gravity"])
        _, stats = execute_spmd(result)
        # 8 SUMs per iteration x 6 inner iterations (i = 2..7)
        assert stats.reductions == 48


class TestFailureDetection:
    def test_dropped_schedule_detected(self, stencil_source):
        result = compile_program(stencil_source, strategy="comb")
        result.placed.clear()
        with pytest.raises(SimulationError, match="not present"):
            execute_spmd(result)

    def test_hoisted_too_far_detected(self, stencil_source):
        result = compile_program(stencil_source, strategy="comb")
        ctx = result.ctx
        time_loop = ctx.cfg.loops[0]
        for pc in result.placed:
            if any(e.array == "a" for e in pc.entries):
                pc.position = Position(time_loop.preheader, -1)
        with pytest.raises(SimulationError, match="stale"):
            execute_spmd(result)

    def test_boundary_processors_have_no_phantom_partner(self):
        # A shift on a 2-processor axis: the edge rank receives nothing
        # from outside the mesh; execution must still succeed.
        result = compile_program(
            """
            PROGRAM edge
              PARAM n = 8
              PROCESSORS p(2)
              REAL a(n)
              REAL b(n)
              DISTRIBUTE a(BLOCK) ONTO p
              DISTRIBUTE b(BLOCK) ONTO p
              b(2:n) = a(1:n-1)
            END
            """
        )
        _, stats = execute_spmd(result)
        assert stats.messages == 1  # only the interior boundary crossing


class TestCyclicDistribution:
    SRC = """
    PROGRAM cyc
      PARAM n = 12
      PROCESSORS p(3)
      REAL a(n)
      REAL b(n)
      DISTRIBUTE a(CYCLIC) ONTO p
      DISTRIBUTE b(CYCLIC) ONTO p
      DO t = 1, 2
        b(2:n) = a(1:n-1)
        a(2:n) = b(2:n)
      END DO
    END
    """

    def test_cyclic_shift_matches_sequential(self):
        for strategy in Strategy:
            result = compile_program(self.SRC, strategy=strategy)
            assert_matches_sequential(result)

    def test_cyclic_partners_wrap(self):
        result = compile_program(self.SRC)
        _, stats = execute_spmd(result)
        # every rank has a wrapped partner: 3 messages per fired exchange
        assert stats.messages % 3 == 0

    def test_cyclic_general_mix(self):
        src = """
        PROGRAM mix
          PARAM n = 12
          PROCESSORS p(3)
          REAL a(n)
          REAL r(n)
          REAL s
          DISTRIBUTE a(CYCLIC) ONTO p
          s = SUM(a(1:n))
          r(1:n) = a(1:n) + s
        END
        """
        result = compile_program(src)
        assert_matches_sequential(result)


class TestRaggedBlocks:
    """Extents not divisible by the processor count: the last block is
    smaller (ceil-division block size), halos still line up."""

    def test_ragged_1d(self):
        result = compile_program(
            """
            PROGRAM ragged
              PARAM n = 11
              PROCESSORS p(3)
              REAL a(n)
              REAL b(n)
              DISTRIBUTE a(BLOCK) ONTO p
              DISTRIBUTE b(BLOCK) ONTO p
              DO t = 1, 2
                b(2:n-1) = a(1:n-2) + a(3:n)
                a(2:n-1) = b(2:n-1)
              END DO
            END
            """
        )
        assert_matches_sequential(result)

    def test_ragged_2d_asymmetric_grid(self):
        result = compile_program(
            """
            PROGRAM ragged2
              PARAM n = 13
              PROCESSORS p(3, 2)
              REAL u(n, n)
              REAL w(n, n)
              DISTRIBUTE u(BLOCK, BLOCK) ONTO p
              DISTRIBUTE w(BLOCK, BLOCK) ONTO p
              w(2:n-1, 2:n-1) = u(1:n-2, 2:n-1) + u(2:n-1, 3:n)
              u(2:n-1, 2:n-1) = w(2:n-1, 2:n-1)
            END
            """
        )
        assert_matches_sequential(result)

    def test_more_procs_than_block_rows(self):
        # extent 5 over 4 procs: block size 2, last block ragged, one
        # processor owns a single row
        result = compile_program(
            """
            PROGRAM tiny
              PARAM n = 5
              PROCESSORS p(4)
              REAL a(n)
              REAL b(n)
              DISTRIBUTE a(BLOCK) ONTO p
              DISTRIBUTE b(BLOCK) ONTO p
              b(2:n) = a(1:n-1)
            END
            """
        )
        assert_matches_sequential(result)

    def test_three_d_collapsed_plus_blocks(self):
        result = compile_program(
            """
            PROGRAM threed
              PARAM n = 7
              PROCESSORS p(2, 2)
              REAL g(n, n, n)
              REAL h(n, n, n)
              DISTRIBUTE g(*, BLOCK, BLOCK) ONTO p
              DISTRIBUTE h(*, BLOCK, BLOCK) ONTO p
              h(:, 2:n-1, 2:n-1) = g(:, 1:n-2, 2:n-1) + g(:, 2:n-1, 3:n)
              g(:, 2:n-1, 2:n-1) = h(:, 2:n-1, 2:n-1)
            END
            """
        )
        assert_matches_sequential(result)


class TestDiagonalShift:
    """A diagonal access moves data between corner-neighbour ranks; the
    executor must route it through the (dx, dy) partner, not an axis
    neighbour."""

    SRC = """
    PROGRAM diag
      PARAM n = 12
      PROCESSORS p(2, 2)
      REAL a(n, n)
      REAL b(n, n)
      DISTRIBUTE a(BLOCK, BLOCK) ONTO p
      DISTRIBUTE b(BLOCK, BLOCK) ONTO p
      b(2:n-1, 2:n-1) = a(3:n, 3:n)
    END
    """

    def test_matches_sequential(self):
        result = compile_program(self.SRC)
        assert_matches_sequential(result)

    def test_augmented_two_phase_exchange(self):
        """The diagonal travels as two augmented axis exchanges (pHPF's
        corner forwarding, paper §2.2): two messages per phase on a 2x2
        mesh, and the corner value crosses two hops."""
        result = compile_program(self.SRC)
        (pc,) = result.placed
        assert pc.entries[0].pattern.mapping.proc_shifts == (1, 1)
        _, stats = execute_spmd(result)
        assert stats.messages == 4


class TestDiagonalVariants:
    def test_negative_diagonal(self):
        result = compile_program(
            """
            PROGRAM diagneg
              PARAM n = 12
              PROCESSORS p(2, 2)
              REAL a(n, n)
              REAL b(n, n)
              DISTRIBUTE a(BLOCK, BLOCK) ONTO p
              DISTRIBUTE b(BLOCK, BLOCK) ONTO p
              b(2:n-1, 2:n-1) = a(1:n-2, 1:n-2)
            END
            """
        )
        assert_matches_sequential(result)

    def test_mixed_sign_diagonal(self):
        result = compile_program(
            """
            PROGRAM diagmix
              PARAM n = 12
              PROCESSORS p(2, 2)
              REAL a(n, n)
              REAL b(n, n)
              DISTRIBUTE a(BLOCK, BLOCK) ONTO p
              DISTRIBUTE b(BLOCK, BLOCK) ONTO p
              b(2:n-1, 2:n-1) = a(3:n, 1:n-2)
            END
            """
        )
        assert_matches_sequential(result)

    def test_diagonal_in_time_loop(self):
        result = compile_program(
            """
            PROGRAM diagloop
              PARAM n = 10
              PROCESSORS p(2, 2)
              REAL a(n, n)
              REAL b(n, n)
              DISTRIBUTE a(BLOCK, BLOCK) ONTO p
              DISTRIBUTE b(BLOCK, BLOCK) ONTO p
              DO t = 1, 3
                b(2:n-1, 2:n-1) = a(3:n, 3:n) + a(1:n-2, 1:n-2)
                a(2:n-1, 2:n-1) = 0.5 * b(2:n-1, 2:n-1)
              END DO
            END
            """
        )
        assert_matches_sequential(result)

    def test_diagonal_on_larger_mesh(self):
        result = compile_program(
            """
            PROGRAM diagbig
              PARAM n = 12
              PROCESSORS p(3, 2)
              REAL a(n, n)
              REAL b(n, n)
              DISTRIBUTE a(BLOCK, BLOCK) ONTO p
              DISTRIBUTE b(BLOCK, BLOCK) ONTO p
              b(2:n-1, 2:n-1) = a(3:n, 3:n)
            END
            """
        )
        assert_matches_sequential(result)
