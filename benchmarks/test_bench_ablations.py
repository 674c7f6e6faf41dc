"""Ablation benchmarks for the design choices DESIGN.md calls out.

1. Greedy entry order (§4.7's most-constrained-first vs alternatives).
2. Combining-threshold sweep (the 20 KB knob from Figure 5).
3. Subset elimination on/off (the paper's §6 warns it must go if overlap
   is ever optimized; here we show it is cost-neutral for message counts).
4. Greedy vs exact optimal placement (§6.1's NP-hardness trade-off).
"""

from __future__ import annotations

import pytest

from repro.core.context import AnalysisContext, CompilerOptions
from repro.core.ilp import (
    assignment_of_result,
    optimal_placement,
    placement_cost,
)
from repro.core.pipeline import Strategy, analyze_entries, compile_program
from repro.evaluation.programs import BENCHMARKS
from repro.frontend.analysis import elaborate
from repro.frontend.parser import parse
from repro.frontend.scalarizer import scalarize


def test_ablation_greedy_order(benchmark):
    def run():
        out = {}
        for order in ("constrained", "arbitrary", "reversed"):
            options = CompilerOptions(greedy_order=order)
            out[order] = {
                name: compile_program(src, None, Strategy.GLOBAL, options).call_sites()
                for name, src in BENCHMARKS.items()
            }
        return out

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    header = f"{'benchmark':15s}" + "".join(f"{o:>13s}" for o in counts)
    print(header)
    for name in BENCHMARKS:
        print(
            f"{name:15s}"
            + "".join(f"{counts[o][name]:13d}" for o in counts)
        )
    for name in BENCHMARKS:
        best = min(counts[o][name] for o in counts)
        assert counts["constrained"][name] <= best + 1


def test_ablation_combine_threshold(benchmark):
    """Sweeping the threshold: too small kills combining, the paper's
    20 KB recovers it for halo-sized messages."""
    thresholds = [16, 256, 4096, 20480, 1 << 20]

    def run():
        return {
            t: compile_program(
                BENCHMARKS["shallow"],
                None,
                Strategy.GLOBAL,
                CompilerOptions(combine_threshold_bytes=t),
            ).call_sites()
            for t in thresholds
        }

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for t, c in counts.items():
        print(f"  threshold {t:>8d} B -> {c:2d} call sites")
    series = [counts[t] for t in thresholds]
    assert all(a >= b for a, b in zip(series, series[1:]))  # monotone
    assert counts[16] == 14  # nothing combines, redundancy still works
    assert counts[20480] == 8  # the paper's setting


def test_ablation_subset_elimination(benchmark):
    """Subset elimination is a pruning pass: disabling it must not change
    the message counts, only the search effort."""

    def run():
        out = {}
        for enabled in (True, False):
            options = CompilerOptions(
                disabled_passes=() if enabled else ("subset",)
            )
            out[enabled] = {
                name: compile_program(src, None, Strategy.GLOBAL, options).call_sites()
                for name, src in BENCHMARKS.items()
            }
        return out

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"  with subset elim:    {counts[True]}")
    print(f"  without subset elim: {counts[False]}")
    assert counts[True] == counts[False]


def test_ablation_redundancy_elimination(benchmark):
    """Without §4.6, combining alone cannot reach the paper's counts."""

    def run():
        options = CompilerOptions(disabled_passes=("redundancy",))
        return {
            name: compile_program(src, None, Strategy.GLOBAL, options).call_sites()
            for name, src in BENCHMARKS.items()
        }

    counts = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"  combining-only counts: {counts}")
    # Combining can absorb some redundant entries into existing groups
    # (shallow stays at 8 sites, each carrying more data), but not all:
    # hydflo's flux routine needs one extra exchange without Fig 9f.
    full = {
        name: compile_program(src, None, Strategy.GLOBAL).call_sites()
        for name, src in BENCHMARKS.items()
    }
    for name in BENCHMARKS:
        assert counts[name] >= full[name]
    assert counts["hydflo_flux"] > full["hydflo_flux"]


def test_ablation_push_late_vs_overlap(benchmark):
    """§4.7/§6: the default pushes combined groups late (buffer/cache
    contention beats overlap on the SP2 — 'folk truism'); with CPU-network
    overlap modelled, early placement becomes attractive.  The ablation
    measures all four quadrants."""
    from repro.machine.model import SP2
    from repro.runtime.simulator import simulate

    params = {"n": 512, "pr": 5, "pc": 5}

    def run():
        out = {}
        for placement in ("latest", "earliest"):
            options = CompilerOptions(group_placement=placement)
            result = compile_program(
                BENCHMARKS["shallow"], params, Strategy.GLOBAL, options
            )
            out[placement] = {
                "sites": result.call_sites(),
                "no-overlap": simulate(
                    result, SP2, cache_pressure=True
                ).total_time,
                "overlap": simulate(
                    result, SP2, overlap=True, cache_pressure=True
                ).total_time,
            }
        return out

    data = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    for placement, row in data.items():
        print(f"  push-{placement:8s}: {row['sites']} sites, "
              f"no-overlap {row['no-overlap']:.3f}s, "
              f"with-overlap {row['overlap']:.3f}s")
    # Same message counts either way.
    assert data["latest"]["sites"] == data["earliest"]["sites"]
    # Without overlap (the paper's setup), push-late never loses.
    assert data["latest"]["no-overlap"] <= data["earliest"]["no-overlap"] + 1e-9
    # With overlap modelled, early placement hides wire time.
    assert data["earliest"]["overlap"] <= data["earliest"]["no-overlap"]


GAP_SOURCE = """
PROGRAM gap
  PARAM n = 16
  PROCESSORS p(4)
  REAL a(n)
  REAL b(n)
  REAL c(n)
  REAL d(n)
  DISTRIBUTE a(BLOCK) ONTO p
  DISTRIBUTE b(BLOCK) ONTO p
  DISTRIBUTE c(BLOCK) ONTO p
  DISTRIBUTE d(BLOCK) ONTO p
  c(2:n) = a(1:n-1)
  d(2:n) = b(1:n-1) + a(1:n-1)
END
"""


def test_ablation_greedy_vs_optimal(benchmark):
    """§6.1: the optimal assignment is NP-hard in general; on a small
    instance the greedy heuristic must be near-optimal."""

    def run():
        program = parse(GAP_SOURCE)
        info = elaborate(program)
        sprog = scalarize(program, info)
        ctx = AnalysisContext(elaborate(sprog))
        entries = analyze_entries(ctx)
        _, optimal_cost = optimal_placement(ctx, entries)

        result = compile_program(GAP_SOURCE, strategy=Strategy.GLOBAL)
        live = [e for e in result.entries if e.alive]
        greedy_cost = placement_cost(
            result.ctx, assignment_of_result(result), live
        )
        return greedy_cost, optimal_cost

    greedy_cost, optimal_cost = benchmark.pedantic(run, rounds=1, iterations=1)
    gap = greedy_cost / optimal_cost
    print(f"\n  greedy {greedy_cost:.0f} vs optimal {optimal_cost:.0f} "
          f"(gap {gap:.2f}x)")
    assert gap <= 1.5
