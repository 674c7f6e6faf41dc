"""Runtime benchmark harness: vectorized vs element-wise SPMD execution.

``python -m repro bench --spmd`` runs every Figure 10 benchmark through
the SPMD executor twice — once with the plan-compiled vectorized runtime
and once with the element-wise reference path — and writes
``BENCH_spmd.json``.  Per program it reports:

* wall time and elements/s for both paths, and the speedup;
* the plan-compile vs execute split of the vectorized run (the
  inspector/executor cost breakdown);
* how many statements vectorized vs fell back, with the vectorizer's
  reason for every fallback (the bench's degradation report);
* the full :class:`~repro.perf.stats.RuntimeStats` counters (messages,
  bytes, bcopy calls, plan-cache traffic) for both paths — the executed
  counterparts of the §6.1 simulator's predictions, which are recorded
  alongside so static model drift is visible in the diff;
* a bitwise-identity verdict: the two paths' assembled final arrays must
  be exactly equal (``correctness.bitwise_identical``).

Problem sizes are pinned per program (``RUN_PARAMS``) rather than taken
from the sources' PARAM defaults: the shallow-water model diverges to
non-finite values after ~10 steps at n=64, and the staleness oracle
cannot (by design) tell NaN from corruption, so the bench runs the
largest sizes that stay finite.  ``--quick`` switches to the test suite's
small sizes for CI smoke runs.
"""

from __future__ import annotations

import json
import time
from typing import Any

import numpy as np

from ..core.pipeline import CompilationResult, Strategy, compile_program
from ..cost.lower_bound import lower_bound
from ..machine.model import MACHINES
from ..runtime.simulator import simulate
from ..runtime.spmd import SPMDExecutor
from .stats import environment_metadata

#: Largest numerically stable sizes (see module docstring); 2x2 grid so
#: the element-wise baseline finishes in minutes.
RUN_PARAMS: dict[str, dict[str, int]] = {
    "shallow": {"n": 64, "nsteps": 8, "pr": 2, "pc": 2},
    "gravity": {"n": 32, "pr": 2, "pc": 2},
    "trimesh": {"n": 48, "nsweeps": 4, "pr": 2, "pc": 2},
    "trimesh_gauss": {"n": 48, "nsweeps": 4, "pr": 2, "pc": 2},
    "hydflo_flux": {"n": 32, "nsteps": 1, "pr": 2, "pc": 2},
    "hydflo_hydro": {"n": 32, "nsteps": 2, "pr": 2, "pc": 2},
}

#: CI smoke sizes (the test suite's SMALL parameters).
QUICK_PARAMS: dict[str, dict[str, int]] = {
    "shallow": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
    "gravity": {"n": 8, "pr": 2, "pc": 2},
    "trimesh": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "trimesh_gauss": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
    "hydflo_flux": {"n": 8, "nsteps": 1, "pr": 2, "pc": 2},
    "hydflo_hydro": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
}


def _run_executor(
    result: CompilationResult, vectorize: bool
) -> tuple[float, dict[str, np.ndarray], Any, "SPMDExecutor"]:
    t0 = time.perf_counter()
    executor = SPMDExecutor(result, vectorize=vectorize)
    stats = executor.run()
    wall = time.perf_counter() - t0
    return wall, executor.assemble(), stats, executor


def bench_program(
    name: str,
    source: str,
    params: dict[str, int],
    strategy: Strategy = Strategy.GLOBAL,
) -> dict[str, Any]:
    """Run one program both ways and compare.

    Each arm gets a freshly compiled result: executions of one result
    share its execution image, and ``plan_compile_s`` here means a cold
    build."""
    result = compile_program(source, params=params, strategy=strategy)

    vec_wall, vec_state, vec_stats, executor = _run_executor(
        result, vectorize=True
    )
    elem_wall, elem_state, elem_stats, _ = _run_executor(
        compile_program(source, params=params, strategy=strategy),
        vectorize=False,
    )

    identical = set(vec_state) == set(elem_state) and all(
        np.array_equal(vec_state[k], elem_state[k]) for k in vec_state
    )
    counters_match = (
        vec_stats.messages == elem_stats.messages
        and vec_stats.bytes_moved == elem_stats.bytes_moved
        and vec_stats.remote_reads == elem_stats.remote_reads
        and vec_stats.reductions == elem_stats.reductions
    )

    # Work unit: elements written by vectorized nests plus one per
    # element-wise assignment firing; identical across both paths by the
    # bitwise-identity check, so elements/s is directly comparable.
    elements = vec_stats.elements_written + vec_stats.fallback_firings
    lb = lower_bound(result.info)
    report = simulate(
        result, MACHINES["SP2"], lower_bound_bytes=lb.wire_floor_bytes
    )

    return {
        "params": params,
        "strategy": strategy.value,
        "elements": elements,
        "vectorized": {
            "wall_s": round(vec_wall, 4),
            "plan_compile_s": round(vec_stats.plan_compile_s, 4),
            "execute_s": round(vec_wall - vec_stats.plan_compile_s, 4),
            "elements_per_s": round(elements / vec_wall) if vec_wall else None,
            "stats": vec_stats.as_dict(),
        },
        "elementwise": {
            "wall_s": round(elem_wall, 4),
            "elements_per_s": (
                round(elements / elem_wall) if elem_wall else None
            ),
            "stats": elem_stats.as_dict(),
        },
        "speedup": round(elem_wall / vec_wall, 2) if vec_wall else None,
        "vectorization": {
            "vectorized_nests": len(executor.nest_plans),
            "fallback_statements": len(executor.fallback_reasons),
            "fallback_reasons": {
                f"s{sid}": reason
                for sid, reason in sorted(executor.fallback_reasons.items())
            },
            "vectorized_firings": vec_stats.vectorized_firings,
            "fallback_firings": vec_stats.fallback_firings,
        },
        "correctness": {
            "bitwise_identical": identical,
            "counters_match": counters_match,
            "compile_degradations": len(result.degradations),
        },
        "simulator_check": {
            "predicted_messages_per_proc": report.messages_per_proc,
            "predicted_bytes_per_proc": report.bytes_per_proc,
            "executed_messages": vec_stats.messages,
            "executed_bytes": vec_stats.bytes_moved,
        },
        "lower_bound": {
            **lb.as_dict(),
            "bytes_moved": vec_stats.bytes_moved,
            "ratio": lb.ratio(vec_stats.bytes_moved),
            "sound": lb.sound_for(vec_stats.bytes_moved),
        },
    }


def run_spmd_bench(
    quick: bool = False, strategy: Strategy = Strategy.GLOBAL
) -> dict[str, Any]:
    from ..evaluation.programs import BENCHMARKS

    sizes = QUICK_PARAMS if quick else RUN_PARAMS
    programs = {
        name: bench_program(name, BENCHMARKS[name], sizes[name], strategy)
        for name in sorted(BENCHMARKS)
    }
    degraded = sorted(
        name
        for name, p in programs.items()
        if not p["correctness"]["bitwise_identical"]
        or not p["correctness"]["counters_match"]
    )
    unsound = sorted(
        name
        for name, p in programs.items()
        if not p["lower_bound"]["sound"]
    )
    return {
        "mode": "quick" if quick else "full",
        "strategy": strategy.value,
        "environment": environment_metadata(),
        "programs": programs,
        "degradations": degraded,
        "lower_bound_violations": unsound,
        "ok": not degraded and not unsound,
    }


def write_spmd_bench(
    path: str = "BENCH_spmd.json",
    quick: bool = False,
    strategy: Strategy = Strategy.GLOBAL,
) -> dict[str, Any]:
    payload = run_spmd_bench(quick=quick, strategy=strategy)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    import os

    from .history import append_history, spmd_headline

    append_history(
        "spmd", spmd_headline(payload),
        directory=os.path.dirname(os.path.abspath(path)),
    )
    return payload


def format_spmd_bench(payload: dict[str, Any]) -> str:
    lines = [
        f"{'program':16s} {'vec':>9s} {'elem':>9s} {'speedup':>8s} "
        f"{'elem/s':>12s} {'nests':>6s} {'fb':>4s} {'exact':>6s} "
        f"{'b/LB':>6s}"
    ]
    for name, p in payload["programs"].items():
        vec = p["vectorized"]
        ratio = p["lower_bound"]["ratio"]
        ratio_s = f"{ratio:6.2f}" if ratio is not None else f"{'n/a':>6s}"
        lines.append(
            f"{name:16s} {vec['wall_s'] * 1000:7.1f}ms "
            f"{p['elementwise']['wall_s'] * 1000:7.1f}ms "
            f"{p['speedup']:7.1f}x {vec['elements_per_s']:>12,} "
            f"{p['vectorization']['vectorized_nests']:6d} "
            f"{p['vectorization']['fallback_statements']:4d} "
            f"{'yes' if p['correctness']['bitwise_identical'] else 'NO':>6s} "
            f"{ratio_s}"
        )
    if payload["degradations"]:
        lines.append(f"DEGRADED: {', '.join(payload['degradations'])}")
    else:
        lines.append(
            "all programs bitwise-identical to the element-wise executor"
        )
    return "\n".join(lines)
