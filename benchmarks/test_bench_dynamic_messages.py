"""Benchmark: dynamic per-processor message counts via real SPMD runs.

The paper's abstract claims 'the number of messages per processor goes
down by as much as a factor of nine' at compile time; this benchmark
measures the *runtime* counterpart by executing every benchmark on
simulated ranks and counting actual wire messages.  It also demonstrates
the two mechanisms separately: redundancy elimination reduces messages
*and* bytes; combining reduces messages, and bytes only by the
elements its combined sections share — one message carries the union
of its sections, so an element two nested halos both hold is sent once.
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import compile_all_strategies
from repro.evaluation.programs import BENCHMARKS
from repro.runtime.spmd import SPMDExecutor

SMALL = {
    "shallow": {"n": 10, "nsteps": 2, "pr": 2, "pc": 2},
    "gravity": {"n": 10, "pr": 2, "pc": 2},
    "trimesh": {"n": 10, "nsweeps": 2, "pr": 2, "pc": 2},
    "trimesh_gauss": {"n": 10, "nsweeps": 2, "pr": 2, "pc": 2},
    "hydflo_flux": {"n": 10, "nsteps": 1, "pr": 2, "pc": 2},
    "hydflo_hydro": {"n": 10, "nsteps": 2, "pr": 2, "pc": 2},
}


def duplicate_bytes(executor) -> int:
    """The bytes the run's placed ops would send twice if every
    combined section travelled whole: per firing, round, source,
    destination and array, every element the op's transfers carry more
    than once — counted on element masks of each plan compiled afresh
    (before the union is taken)."""
    total = 0
    for keys in executor.image.firings.values():
        for _grid, anchor, slot, sections in keys:
            op = executor.schedule.ops_at(anchor)[slot]
            plan = executor.planner.compile_op(op, sections)
            counts: dict[tuple, np.ndarray] = {}
            for t in plan.transfers:
                for dst in t.dsts:
                    if dst == t.src:
                        continue
                    count = counts.setdefault(
                        (t.phase, t.src, dst, t.array),
                        np.zeros(executor.info.shape(t.array), dtype=int),
                    )
                    view = count[t.index]
                    if t.mask is None:
                        view += 1
                    else:
                        view[t.mask] += 1
            for (*_, array), count in counts.items():
                extra = int(np.clip(count - 1, 0, None).sum())
                total += extra * executor.info.layout(array).elem_bytes
    return total


def run_all():
    table = {}
    for program, params in SMALL.items():
        results = compile_all_strategies(BENCHMARKS[program], params=params)
        row = {}
        for strategy, result in results.items():
            with SPMDExecutor(result) as executor:
                stats = executor.run()
                row[strategy.value] = (
                    stats.messages, stats.bytes_moved,
                    duplicate_bytes(executor),
                )
        table[program] = row
    return table


def test_dynamic_message_counts(benchmark):
    table = benchmark.pedantic(run_all, rounds=1, iterations=1)
    print()
    print(f"{'benchmark':15s} {'orig msgs/B':>16s} {'nored msgs/B':>16s} "
          f"{'comb msgs/B':>16s}")
    for program, row in table.items():
        cells = "".join(
            f" {row[v][0]:6d}/{row[v][1]:<8d}" for v in ("orig", "nored", "comb")
        )
        print(f"{program:15s}{cells}")

    for program, row in table.items():
        orig_m, orig_b, _ = row["orig"]
        nored_m, nored_b, nored_dup = row["nored"]
        comb_m, comb_b, comb_dup = row["comb"]
        # messages never increase down the versions
        assert orig_m >= nored_m >= comb_m, program
        # redundancy elimination may not fire (gravity/trimesh), but when
        # it does, bytes drop too
        assert nored_b <= orig_b, program
        # An uncombined op sends no element twice; combining moves the
        # same sections, each element once per destination: exactly
        # the nested boxes' bytes fewer.
        assert nored_dup == 0, program
        assert comb_b == nored_b - comb_dup, program
    # Only hydflo_flux combines nested halos (width 1 inside width 2).
    assert {
        program for program, row in table.items()
        if row["comb"][1] < row["nored"][1]
    } == {"hydflo_flux"}
    # combining strictly reduces wire messages somewhere
    assert any(
        row["comb"][0] < row["nored"][0] for row in table.values()
    )
