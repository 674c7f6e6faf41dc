"""Compiler scalability benchmark: placement over synthetically grown
programs.

The paper's algorithm is quadratic-ish in candidate positions x entries
(CommSet comparisons); this benchmark grows a program's statement count
and shows compile time staying tractable, plus the entry/position census
at each size.
"""

from __future__ import annotations

from repro.core.pipeline import Strategy, compile_program
from repro.evaluation.programs import synthetic_program


def compile_sizes(sizes: list[int]) -> dict[int, tuple[int, int]]:
    out = {}
    for phases in sizes:
        result = compile_program(synthetic_program(phases), strategy=Strategy.GLOBAL)
        out[phases] = (len(result.entries), result.call_sites())
    return out


def test_bench_scaling_with_program_size(benchmark):
    sizes = [4, 8, 16, 32]
    data = benchmark.pedantic(compile_sizes, args=(sizes,), rounds=1, iterations=1)
    print()
    for phases, (entries, sites) in data.items():
        print(f"  {phases:3d} phases: {entries:3d} entries -> {sites:3d} call sites")
    for phases, (entries, sites) in data.items():
        assert entries == 2 * phases  # two shifted reads per phase
        # each phase's ±1 pair combines at its own boundary: one site per
        # direction per phase
        assert sites == 2 * phases


def test_bench_largest_program(benchmark):
    source = synthetic_program(48)

    result = benchmark(compile_program, source, None, Strategy.GLOBAL)
    assert len(result.entries) == 96
