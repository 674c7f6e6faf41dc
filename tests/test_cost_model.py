"""The unified cost layer: machine-derived thresholds and HBL floors.

Covers the two halves of ``repro.cost``: the :class:`CostModel` knee
derivation (the machine-adaptive replacement for the paper's literal
20 KB) and the :mod:`repro.cost.lower_bound` traffic floor, checked
against hand-computed footprints and against actual SPMD executions.
"""

from __future__ import annotations

import pytest

from repro.core.context import CompilerOptions
from repro.core.pipeline import Strategy, compile_program
from repro.cost.lower_bound import lower_bound, reduction_tree_messages
from repro.cost.model import (
    DEFAULT_KNEE_FRACTION,
    CostModel,
    PlacementCostModel,
    discrete_knee,
    resolve_machine,
)
from repro.machine.model import MACHINES, NOW, SP2, MachineModel
from repro.runtime.spmd import execute_spmd

PAPER_THRESHOLD = 20480


class TestDerivedThreshold:
    def test_sp2_knee_matches_the_papers_hand_read_constant(self):
        """The satellite check: the analytic SP2 knee must land within
        +-25% of the 20 KB the paper read off Figure 5 by hand."""
        derived = CostModel(machine=SP2).derived_threshold()
        assert abs(derived - PAPER_THRESHOLD) <= 0.25 * PAPER_THRESHOLD

    def test_now_derives_a_different_knee(self):
        sp2 = CostModel(machine=SP2).derived_threshold()
        now = CostModel(machine=NOW).derived_threshold()
        assert now != sp2
        # The NOW's per-message overhead is several times the SP2's, so
        # its knee must be strictly larger, not just different.
        assert now > sp2

    def test_closed_form(self):
        m = SP2
        f = DEFAULT_KNEE_FRACTION
        expected = round(
            f / (1 - f) * m.bandwidth_bps * (m.startup_s + m.sw_overhead_s)
        )
        assert CostModel(machine=m).derived_threshold() == expected

    def test_knee_caps_at_the_cache_size(self):
        pig = MachineModel(
            name="pig", startup_s=1.0, inject_s=0.5, bandwidth_bps=1e9,
            bcopy_cache_bps=1e8, bcopy_mem_bps=1e7,
            cache_bytes=4096, flops=1e8, sw_overhead_s=1.0,
        )
        assert CostModel(machine=pig).derived_threshold() == 4096

    def test_invalid_fraction_rejected(self):
        for f in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(ValueError):
                CostModel(machine=SP2, knee_fraction=f).derived_threshold()

    def test_override_wins(self):
        model = CostModel(machine=SP2, override_threshold_bytes=12345)
        assert model.threshold_bytes() == 12345
        assert model.derived_threshold() != 12345

    def test_placement_model_is_the_pinned_ilp_cost(self):
        assert CostModel(machine=NOW).placement_model() == PlacementCostModel()


class TestResolveMachine:
    def test_preset_names(self):
        for name, model in MACHINES.items():
            assert resolve_machine(name) is model

    def test_instances_pass_through(self):
        assert resolve_machine(NOW) is NOW

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown machine"):
            resolve_machine("CM5")


class TestDiscreteKnee:
    def test_smallest_size_reaching_fraction_of_peak(self):
        curve = [(16, 1.0), (64, 5.0), (256, 8.5), (1024, 10.0)]
        assert discrete_knee(curve, 0.8) == 256
        assert discrete_knee(curve, 0.99) == 1024

    def test_empty_curve_raises(self):
        with pytest.raises(ValueError):
            discrete_knee([])

    def test_fig5_profile_delegates(self):
        from repro.evaluation.fig5_profile import profile_machine

        profile = profile_machine(SP2)
        assert profile.knee() == discrete_knee(
            [(p.nbytes, p.receive_bw) for p in profile.points]
        )


class TestContextWiring:
    def test_default_context_derives_from_sp2(self):
        opts = CompilerOptions()
        assert opts.combine_threshold_bytes is None
        result = compile_program(_SHIFT_SOURCE)
        assert result.ctx.cost_model.threshold_bytes() == (
            CostModel(machine=SP2).derived_threshold()
        )

    def test_override_flows_through_options(self):
        result = compile_program(
            _SHIFT_SOURCE,
            options=CompilerOptions(combine_threshold_bytes=777),
        )
        assert result.ctx.cost_model.threshold_bytes() == 777

    def test_machine_name_flows_through_options(self):
        result = compile_program(
            _SHIFT_SOURCE, options=CompilerOptions(machine="NOW")
        )
        assert result.ctx.cost_model.machine is NOW
        assert result.ctx.cost_model.threshold_bytes() == (
            CostModel(machine=NOW).derived_threshold()
        )

    def test_machine_instance_flows_through_options(self):
        result = compile_program(
            _SHIFT_SOURCE, options=CompilerOptions(machine=NOW)
        )
        assert result.ctx.cost_model.machine is NOW

    def test_high_startup_machine_recombines(self):
        # The machine changes the schedule, not just its predicted time:
        # NOW's larger knee lets hydflo_flux's comb schedule merge
        # messages the SP2 threshold keeps apart.
        from repro.evaluation.programs import BENCHMARKS

        params = {"n": 32, "nsteps": 1, "pr": 2, "pc": 2}
        sites = {
            machine: compile_program(
                BENCHMARKS["hydflo_flux"], params=params, strategy="comb",
                options=CompilerOptions(machine=machine),
            ).call_sites()
            for machine in ("SP2", "NOW")
        }
        assert sites == {"SP2": 10, "NOW": 6}

    def test_historical_ilp_import_path(self):
        from repro.core.ilp import CostModel as IlpCostModel

        assert IlpCostModel is PlacementCostModel


N = 12  # 3 ranks x 4 owned elements each

_DECLS = """REAL u(12)
REAL v(12)
DISTRIBUTE u(BLOCK) ONTO p
DISTRIBUTE v(BLOCK) ONTO p"""


def _program(body: str) -> str:
    return (
        f"PROGRAM lbtest\nPARAM n = {N}\nPROCESSORS p(3)\n"
        f"{_DECLS}\nREAL s\n{body}\nEND PROGRAM"
    )


_SHIFT_SOURCE = _program(f"u(2:{N - 1}) = v(1:{N - 2})")


class TestLowerBound:
    def test_shift_halo_counted_exactly(self):
        # u(i) = v(i-1) for i in 2..11 over 3 ranks of 4 elements: only
        # i=5 (rank 1 reads v(4), owned by rank 0) and i=9 (rank 2 reads
        # v(8), owned by rank 1) cross an owner boundary.
        result = compile_program(_SHIFT_SOURCE)
        lb = lower_bound(result.info)
        assert lb.wire_floor_bytes == 2 * 8
        assert lb.per_array["v"].needed_elements == 2
        assert lb.unanalyzed_statements == 0
        assert lb.reduction_floor_bytes == 0

    def test_replicated_statement_charges_every_non_owner(self):
        # s = u(5): element 5 is owned by rank 1; the other two ranks
        # evaluate the replicated assignment too and must receive it.
        result = compile_program(_program("s = u(5)"))
        lb = lower_bound(result.info)
        assert lb.wire_floor_bytes == 2 * 8

    def test_reduction_inputs_stay_off_the_wire_floor(self):
        result = compile_program(_program(f"s = SUM(u(1:{N}))"))
        lb = lower_bound(result.info)
        assert lb.wire_floor_bytes == 0
        assert lb.ratio(0) is None
        # ... but the combine tree gets its informational floor.
        assert lb.reduction_floor_bytes == (3 - 1) * 8

    def test_guarded_reads_are_skipped(self):
        body = f"IF s > 0 THEN\nu(2:{N - 1}) = v(1:{N - 2})\nEND IF"
        result = compile_program(_program(body))
        lb = lower_bound(result.info)
        assert lb.wire_floor_bytes == 0

    def test_time_loop_does_not_inflate_the_floor(self):
        # The footprint of a repeated body is the same set of elements;
        # the floor must equal the single-trip floor, not scale with
        # trip count.
        looped = _program(
            f"DO tstep = 1, 4\nu(2:{N - 1}) = v(1:{N - 2})\nEND DO"
        )
        result = compile_program(looped)
        assert lower_bound(result.info).wire_floor_bytes == 2 * 8

    def test_floor_is_strategy_invariant_and_sound(self):
        floors = set()
        for strategy in Strategy:
            result = compile_program(_SHIFT_SOURCE, strategy=strategy)
            lb = lower_bound(result.info)
            floors.add(lb.wire_floor_bytes)
            _, stats = execute_spmd(result)
            assert lb.sound_for(stats.bytes_moved)
            assert lb.ratio(stats.bytes_moved) >= 1.0
        assert len(floors) == 1

    def test_benchmarks_respect_the_floor(self):
        # QUICK_PARAMS sizes: the default shallow params diverge to
        # non-finite values, which the staleness oracle rejects.
        from repro.evaluation.programs import BENCHMARKS, QUICK_PARAMS

        for name in sorted(BENCHMARKS):
            for strategy in Strategy:
                result = compile_program(
                    BENCHMARKS[name], params=QUICK_PARAMS[name],
                    strategy=strategy,
                )
                lb = lower_bound(result.info)
                assert lb.unanalyzed_statements == 0, name
                _, stats = execute_spmd(result)
                assert lb.sound_for(stats.bytes_moved), (name, strategy)

    def test_reduction_tree_messages(self):
        assert reduction_tree_messages(1) == 0
        assert reduction_tree_messages(2) == 2
        assert reduction_tree_messages(4) == 4
        assert reduction_tree_messages(5) == 6


class TestSimulatorReporting:
    def test_lower_bound_flows_into_the_summary(self):
        from repro.runtime.simulator import simulate

        result = compile_program(_SHIFT_SOURCE)
        lb = lower_bound(result.info)
        report = simulate(
            result, MACHINES["SP2"], lower_bound_bytes=lb.wire_floor_bytes
        )
        assert report.lower_bound_bytes == lb.wire_floor_bytes
        assert report.summary()["lower_bound_megabytes"] == (
            lb.wire_floor_bytes / 1e6
        )
        # Without a floor the summary stays backward-compatible.
        assert "lower_bound_megabytes" not in simulate(
            result, MACHINES["SP2"]
        ).summary()
