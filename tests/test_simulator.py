"""Bulk-synchronous cost simulator tests."""

from __future__ import annotations

import pytest

from repro.core.pipeline import Strategy, compile_all_strategies, compile_program
from repro.evaluation.programs import BENCHMARKS
from repro.machine.model import NOW, SP2
from repro.runtime.simulator import Simulator, simulate


SMALL = {"n": 32, "pr": 2, "pc": 2}


class TestTripCounting:
    def test_loop_trip(self, stencil_source):
        result = compile_program(stencil_source, params={"n": 16, "steps": 4})
        sim = Simulator(result, SP2)
        time_loop = result.ctx.cfg.loops[0]
        assert sim.loop_trip(time_loop) == 4

    def test_executions_multiply_over_nest(self, stencil_source):
        result = compile_program(stencil_source, params={"n": 16, "steps": 4})
        sim = Simulator(result, SP2)
        # innermost body node of the scalarized nest inside the time loop
        inner = result.ctx.cfg.loops[-1]
        cfg = result.ctx.cfg
        body = cfg.nodes[cfg.nodes[inner.header].succs[0]]
        assert sim.executions_of(body) == 4 * sim.loop_trip(inner)

    def test_hoisted_comm_executes_less(self, stencil_source):
        result = compile_program(stencil_source, strategy="comb")
        report = simulate(result, SP2)
        for op_cost in report.comm_ops:
            # everything placed inside the 4-iteration time loop only
            assert op_cost.executions == 4


class TestCostShape:
    def test_messages_counted(self, stencil_source):
        result = compile_program(stencil_source, strategy="orig")
        report = simulate(result, SP2)
        # 2 shifts x 4 time steps (the b-read is local)
        assert report.messages_per_proc == 8

    def test_total_is_compute_plus_comm(self, stencil_source):
        report = simulate(compile_program(stencil_source), SP2)
        assert report.total_time == pytest.approx(
            report.compute_time + report.comm_time
        )

    def test_comm_breakdown_nonnegative(self):
        result = compile_program(BENCHMARKS["shallow"], params=SMALL)
        report = simulate(result, SP2)
        for c in report.comm_ops:
            assert c.startup_time >= 0
            assert c.wire_time >= 0
            assert c.packing_time >= 0

    def test_summary_keys(self, stencil_source):
        report = simulate(compile_program(stencil_source), SP2)
        assert set(report.summary()) == {
            "compute_s", "comm_s", "total_s", "messages", "megabytes",
        }

    def test_combining_reduces_startup(self):
        results = compile_all_strategies(BENCHMARKS["shallow"], params=SMALL)
        orig = simulate(results[Strategy.ORIG], SP2)
        comb = simulate(results[Strategy.GLOBAL], SP2)
        assert comb.startup_time < orig.startup_time
        assert comb.messages_per_proc < orig.messages_per_proc

    def test_compute_time_strategy_independent(self):
        results = compile_all_strategies(BENCHMARKS["shallow"], params=SMALL)
        times = {s: simulate(r, SP2).compute_time for s, r in results.items()}
        assert len(set(times.values())) == 1

    def test_now_slower_than_sp2(self):
        result = compile_program(BENCHMARKS["shallow"], params=SMALL)
        assert simulate(result, NOW).total_time > simulate(result, SP2).total_time


class TestOverlapAndPressure:
    """§6 extensions: CPU-network overlap and buffer/cache pressure."""

    def _compiled(self, placement="latest"):
        from repro.core.context import CompilerOptions

        return compile_program(
            BENCHMARKS["shallow"],
            params={"n": 512, "pr": 5, "pc": 5},
            strategy="comb",
            options=CompilerOptions(group_placement=placement),
        )

    def test_defaults_match_paper_setup(self):
        """Both knobs default off: 'measurements were made with overlap
        disabled'."""
        result = self._compiled()
        assert simulate(result, SP2).total_time == pytest.approx(
            simulate(result, SP2, overlap=False, cache_pressure=False).total_time
        )

    def test_overlap_never_increases_time(self):
        for placement in ("latest", "earliest"):
            result = self._compiled(placement)
            plain = simulate(result, SP2)
            overlapped = simulate(result, SP2, overlap=True)
            assert overlapped.total_time <= plain.total_time + 1e-12

    def test_pressure_never_decreases_time(self):
        for placement in ("latest", "earliest"):
            result = self._compiled(placement)
            plain = simulate(result, SP2)
            pressured = simulate(result, SP2, cache_pressure=True)
            assert pressured.total_time >= plain.total_time - 1e-12

    def test_push_late_minimizes_residency(self):
        """Groups placed at the latest common point sit right before
        their uses: nothing to overlap, nothing to pressure."""
        late = self._compiled("latest")
        early = self._compiled("earliest")
        late_hidden = sum(
            c.hidden_time for c in simulate(late, SP2, overlap=True).comm_ops
        )
        early_hidden = sum(
            c.hidden_time for c in simulate(early, SP2, overlap=True).comm_ops
        )
        assert early_hidden >= late_hidden

    def test_startup_never_hidden(self):
        result = self._compiled("earliest")
        report = simulate(result, SP2, overlap=True)
        for c in report.comm_ops:
            assert c.total_time >= c.startup_time - 1e-12

    def test_group_placement_preserves_counts(self):
        assert (
            self._compiled("latest").call_sites()
            == self._compiled("earliest").call_sites()
        )


class TestPaperShapes:
    """Figure 10's qualitative claims, at chart sizes."""

    def test_comm_cut_by_at_least_half_shallow_sp2(self):
        params = {"n": 512, "pr": 5, "pc": 5}
        results = compile_all_strategies(BENCHMARKS["shallow"], params=params)
        orig = simulate(results[Strategy.ORIG], SP2)
        comb = simulate(results[Strategy.GLOBAL], SP2)
        assert orig.comm_time / comb.comm_time >= 2.0

    def test_overall_gain_in_paper_band_shallow(self):
        params = {"n": 384, "pr": 5, "pc": 5}
        results = compile_all_strategies(BENCHMARKS["shallow"], params=params)
        orig = simulate(results[Strategy.ORIG], SP2)
        comb = simulate(results[Strategy.GLOBAL], SP2)
        gain = 1 - comb.total_time / orig.total_time
        assert 0.05 <= gain <= 0.45  # the paper reports 10-40%

    def test_monotone_across_strategies(self):
        for program, params in (
            ("shallow", {"n": 256, "pr": 5, "pc": 5}),
            ("gravity", {"n": 64, "pr": 5, "pc": 5}),
            ("hydflo_flux", {"n": 32, "pr": 5, "pc": 5}),
        ):
            results = compile_all_strategies(BENCHMARKS[program], params=params)
            t = {s: simulate(r, SP2).total_time for s, r in results.items()}
            assert t[Strategy.GLOBAL] <= t[Strategy.EARLIEST] * 1.001
            assert t[Strategy.EARLIEST] <= t[Strategy.ORIG] * 1.001

    def test_gain_shrinks_with_problem_size(self):
        """Compute grows faster than halo communication: the relative win
        must decay with n (the paper's bars flatten to the right)."""
        gains = []
        for n in (256, 512, 1024):
            params = {"n": n, "pr": 5, "pc": 5}
            results = compile_all_strategies(BENCHMARKS["shallow"], params=params)
            orig = simulate(results[Strategy.ORIG], SP2)
            comb = simulate(results[Strategy.GLOBAL], SP2)
            gains.append(1 - comb.total_time / orig.total_time)
        assert gains[0] > gains[1] > gains[2]

    def test_dynamic_message_reduction_factor(self):
        params = {"n": 256, "pr": 5, "pc": 5}
        results = compile_all_strategies(BENCHMARKS["shallow"], params=params)
        orig = simulate(results[Strategy.ORIG], SP2)
        comb = simulate(results[Strategy.GLOBAL], SP2)
        assert orig.messages_per_proc / comb.messages_per_proc >= 2.0
