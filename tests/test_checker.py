"""Schedule-safety checker tests: valid schedules pass, corrupted
schedules are caught."""

from __future__ import annotations

import pytest

from repro.core.pipeline import Strategy, compile_all_strategies, compile_program
from repro.errors import SimulationError
from repro.evaluation.programs import BENCHMARKS, synthetic_program
from repro.ir.cfg import Position
from repro.runtime.checker import ScheduleChecker, check_schedule

SMALL = {
    "shallow": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
    "gravity": {"n": 8, "pr": 2, "pc": 2},
    "trimesh": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "trimesh_gauss": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "hydflo_flux": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
    "hydflo_hydro": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
}


class TestValidSchedules:
    @pytest.mark.parametrize("program", sorted(BENCHMARKS))
    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_benchmark_schedules_deliver_fresh_data(self, program, strategy):
        result = compile_program(
            BENCHMARKS[program], params=SMALL[program], strategy=strategy
        )
        stats = check_schedule(result)
        assert stats.reads_checked > 0
        if result.entries:
            assert stats.deliveries > 0

    def test_fig4_all_strategies(self, fig4_source):
        for strategy, result in compile_all_strategies(fig4_source).items():
            stats = check_schedule(result)
            assert stats.reads_checked > 0

    def test_stencil(self, stencil_source):
        for strategy, result in compile_all_strategies(stencil_source).items():
            check_schedule(result)

    def test_synthetic_48_phases(self):
        # The scalability workload: 48 chained stencil phases in one time
        # loop, 49 arrays — the largest schedule the suite checks.
        for strategy, result in compile_all_strategies(
            synthetic_program(48)
        ).items():
            stats = check_schedule(result)
            assert stats.deliveries > 0, strategy

    def test_deliveries_match_dynamic_op_count(self, stencil_source):
        result = compile_program(stencil_source, strategy="comb")
        stats = check_schedule(result)
        # every placed op fires once per time-loop iteration (4 steps)
        assert stats.deliveries == sum(4 * len(pc.entries) for pc in result.placed)


class TestCorruptedSchedules:
    def test_missing_delivery_detected(self, stencil_source):
        result = compile_program(stencil_source, strategy="comb")
        result.placed.clear()  # drop all communication
        with pytest.raises(SimulationError, match="no delivery"):
            check_schedule(result)

    def test_too_early_placement_detected(self, stencil_source):
        """Hoisting the stencil's exchange out of the time loop serves
        stale first-iteration data: the checker must flag it."""
        result = compile_program(stencil_source, strategy="comb")
        ctx = result.ctx
        time_loop = ctx.cfg.loops[0]
        bad = Position(time_loop.preheader, -1)
        for pc in result.placed:
            if any(e.array == "a" for e in pc.entries):
                pc.position = bad
        with pytest.raises(SimulationError, match="stale"):
            check_schedule(result)

    def test_narrowed_section_detected(self, stencil_source):
        """Shrinking a delivered section below what the use reads must be
        caught as a coverage miss."""
        result = compile_program(stencil_source, strategy="comb")
        checker = ScheduleChecker(result)

        original_fire = checker._fire

        def sabotage(anchor):
            original_fire(anchor)
            for eid, delivery in list(checker.delivered.items()):
                # chop the last element off every delivered section
                rsd = delivery.rsd
                from repro.sections.rsd import RSD, DimSection

                d = rsd.dims[0]
                if d.count() > 1:
                    new = DimSection(d.lo, d.hi - d.step, d.step)
                    delivery.rsd = RSD((new,) + rsd.dims[1:])

        checker._fire = sabotage
        with pytest.raises(SimulationError, match="not covered"):
            checker.run()


class TestCheckerAccounting:
    def test_stats_shrink_with_combining(self, fig4_source):
        results = compile_all_strategies(fig4_source)
        orig = check_schedule(results[Strategy.ORIG])
        comb = check_schedule(results[Strategy.GLOBAL])
        # same reads validated, fewer deliveries needed
        assert comb.reads_checked == orig.reads_checked
        assert comb.deliveries <= orig.deliveries

    def test_eliminated_uses_checked_against_subsumer(self, fig4_source):
        result = compile_program(fig4_source, strategy="comb")
        checker = ScheduleChecker(result)
        checker.run()
        for e in result.eliminated_entries():
            winner = checker._covering[e.id]
            assert winner.alive and winner is not e
