"""Large-grid scaling harness for the fused kernel tier.

``python -m repro bench --kernels`` sweeps the six Figure 10 benchmarks
over processor grids P ∈ {4, 16, 64, 256} and writes
``BENCH_kernels.json``.  Two ladders per grid:

* **weak scaling** — the per-rank block is held constant (``n`` grows
  with the grid edge), so elements/s should stay flat if per-element
  overhead is constant;
* **strong scaling** — ``n`` is fixed while the grid grows, so the
  per-rank blocks shrink and fixed per-firing overhead dominates: the
  regime the fused kernels exist for.

Each case runs the compiled-kernel tier
(:class:`~repro.runtime.kernels.KernelEngine`, default ``auto``) and,
at P ≤ 64, the plan-interpreted vectorized baseline (``kernels="off"``)
for a bitwise-identity check and a speedup.  At P = 256 only the kernel
tier runs — the baseline would dominate the harness wall-clock without
adding information the smaller grids don't already give.

The regression gate compares *execution* time (wall minus plan+kernel
compile, both folded into ``RuntimeStats.plan_compile_s``): per grid,
the kernel tier's aggregate execute time must stay within
``REGRESSION_THRESHOLD`` of the vectorized baseline's.  Compile cost is
reported separately rather than gated — it is a one-time cost per
(nest, geometry) and the quick CI sizes run too few firings to amortize
it.

Problem sizes follow :mod:`repro.perf.runbench`'s stability constraint:
the shallow-water model must stay finite (the staleness oracle cannot
tell NaN from corruption), which the chosen step counts satisfy through
n=128 (verified empirically).  Gravity's weak ladder is capped at n=64
— its all-pairs traffic grows quadratically and the cap keeps the
P=256 sweep in minutes; the cap is recorded in the payload.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

import numpy as np

from ..core.pipeline import Strategy, compile_program
from ..runtime.spmd import SPMDExecutor
from .stats import environment_metadata

#: Processor grids per rank count — square, matching the paper's SP2
#: configurations scaled up.
GRIDS: dict[int, tuple[int, int]] = {
    4: (2, 2),
    16: (4, 4),
    64: (8, 8),
    256: (16, 16),
}

FULL_PS: tuple[int, ...] = (4, 16, 64, 256)
QUICK_PS: tuple[int, ...] = (4, 16)

#: Largest grid where the vectorized baseline also runs (bitwise check
#: + speedup + regression gate).
BASELINE_MAX_P = 64

#: Per-rank block edge for the weak ladder and the fixed problem edge
#: for the strong ladder, by mode.
WEAK_BLOCK = {"full": 8, "quick": 4}
STRONG_N = {"full": 32, "quick": 16}

#: Gravity's weak-ladder cap (all-pairs traffic is O(n^2)).
GRAVITY_WEAK_CAP = 64

#: Step counts: large enough to amortize kernel compiles into steady
#: state, small enough that shallow stays finite at n=128.
STEP_PARAMS = {
    "full": {
        "shallow": {"nsteps": 8},
        "gravity": {},
        "trimesh": {"nsweeps": 8},
        "trimesh_gauss": {"nsweeps": 8},
        "hydflo_flux": {"nsteps": 4},
        "hydflo_hydro": {"nsteps": 8},
    },
    "quick": {
        "shallow": {"nsteps": 2},
        "gravity": {},
        "trimesh": {"nsweeps": 2},
        "trimesh_gauss": {"nsweeps": 2},
        "hydflo_flux": {"nsteps": 1},
        "hydflo_hydro": {"nsteps": 2},
    },
}

#: Kernel execute time may exceed the vectorized baseline's by at most
#: this factor, per grid (aggregate over programs).
REGRESSION_THRESHOLD = 1.2


def _case_params(name: str, mode: str, ladder: str, pr: int, pc: int) -> dict:
    if ladder == "weak":
        n = WEAK_BLOCK[mode] * pr
        if name == "gravity":
            n = min(n, GRAVITY_WEAK_CAP)
    else:
        n = STRONG_N[mode]
    return {"n": n, "pr": pr, "pc": pc, **STEP_PARAMS[mode][name]}


def _run_tier(result, tier: str) -> tuple[dict[str, Any], dict]:
    t0 = time.perf_counter()
    executor = SPMDExecutor(result, kernels=tier)
    stats = executor.run()
    wall = time.perf_counter() - t0
    state = executor.assemble()
    elements = stats.elements_written + stats.fallback_firings
    execute_s = max(wall - stats.plan_compile_s, 0.0)
    return {
        "wall_s": round(wall, 4),
        "compile_s": round(stats.plan_compile_s, 4),
        "execute_s": round(execute_s, 4),
        "elements": elements,
        "elements_per_s": round(elements / execute_s) if execute_s else None,
        "bytes_per_element": (
            round(stats.bytes_moved / elements, 3) if elements else None
        ),
        "messages": stats.messages,
        "bytes_moved": stats.bytes_moved,
        "sections_verified": stats.sections_verified,
        "kernel": {
            "tier": stats.kernel_tier,
            "fallback_reason": stats.kernel_fallback_reason,
            "firings": stats.kernel_firings,
            "compiles": stats.kernel_compiles,
            "cache_hits": stats.kernel_cache_hits,
        },
        "plan_hit_rate": round(stats.plan_hit_rate, 4),
        "plan_translations": stats.plan_translations,
        "fallback_firings": stats.fallback_firings,
    }, state


def bench_case(
    name: str, source: str, params: dict, with_baseline: bool,
    strategy: Strategy,
) -> dict[str, Any]:
    """One (program, grid, ladder) cell: kernel tier, optional
    vectorized baseline, bitwise check, speedup.  Each tier runs a
    freshly compiled result, so ``compile_s`` is a cold build (one
    result's executions share its execution image)."""

    def fresh():
        return compile_program(source, params=params, strategy=strategy)

    kern, kern_state = _run_tier(fresh(), "auto")
    cell: dict[str, Any] = {"params": params, "kernel": kern}
    if with_baseline:
        vec, vec_state = _run_tier(fresh(), "off")
        identical = set(kern_state) == set(vec_state) and all(
            np.array_equal(kern_state[k], vec_state[k]) for k in kern_state
        )
        wire_equal = (
            kern["messages"] == vec["messages"]
            and kern["bytes_moved"] == vec["bytes_moved"]
        )
        cell["vectorized"] = vec
        cell["bitwise_identical"] = identical
        cell["wire_equal"] = wire_equal
        cell["speedup"] = (
            round(vec["execute_s"] / kern["execute_s"], 2)
            if kern["execute_s"] else None
        )
    return cell


def _regression_check(sweep: dict[str, Any]) -> dict[str, Any] | None:
    """Aggregate execute-time gate for one grid (None without baseline)."""
    kern = vec = 0.0
    seen = False
    for ladder in ("weak", "strong"):
        for cell in sweep[ladder].values():
            if "vectorized" not in cell:
                continue
            seen = True
            kern += cell["kernel"]["execute_s"]
            vec += cell["vectorized"]["execute_s"]
    if not seen:
        return None
    ratio = kern / vec if vec else None
    return {
        "kernel_execute_s": round(kern, 4),
        "vectorized_execute_s": round(vec, 4),
        "ratio": round(ratio, 3) if ratio is not None else None,
        "threshold": REGRESSION_THRESHOLD,
        "ok": ratio is not None and ratio <= REGRESSION_THRESHOLD,
    }


def run_kernel_bench(
    quick: bool = False, strategy: Strategy = Strategy.GLOBAL
) -> dict[str, Any]:
    from ..evaluation.programs import BENCHMARKS

    mode = "quick" if quick else "full"
    grids = QUICK_PS if quick else FULL_PS
    sweeps: dict[str, Any] = {}
    for nprocs in grids:
        pr, pc = GRIDS[nprocs]
        with_baseline = nprocs <= BASELINE_MAX_P
        sweep: dict[str, Any] = {"grid": [pr, pc]}
        for ladder in ("weak", "strong"):
            sweep[ladder] = {
                name: bench_case(
                    name, BENCHMARKS[name],
                    _case_params(name, mode, ladder, pr, pc),
                    with_baseline, strategy,
                )
                for name in sorted(BENCHMARKS)
            }
        sweep["regression"] = _regression_check(sweep)
        sweeps[str(nprocs)] = sweep

    mismatches = sorted({
        f"P={p} {ladder} {name}"
        for p, sweep in sweeps.items()
        for ladder in ("weak", "strong")
        for name, cell in sweep[ladder].items()
        if not cell.get("bitwise_identical", True)
        or not cell.get("wire_equal", True)
    })
    regressions = sorted(
        f"P={p}" for p, sweep in sweeps.items()
        if sweep["regression"] is not None and not sweep["regression"]["ok"]
    )
    any_cell = next(iter(sweeps.values()))["weak"]
    tier = next(iter(any_cell.values()))["kernel"]["kernel"]["tier"]
    return {
        "mode": mode,
        "strategy": strategy.value,
        "kernel_tier": tier,
        "gravity_weak_cap": GRAVITY_WEAK_CAP,
        "environment": environment_metadata(),
        "sweeps": sweeps,
        "mismatches": mismatches,
        "regressions": regressions,
        "ok": not mismatches and not regressions,
    }


def write_kernel_bench(
    path: str = "BENCH_kernels.json",
    quick: bool = False,
    strategy: Strategy = Strategy.GLOBAL,
) -> dict[str, Any]:
    payload = run_kernel_bench(quick=quick, strategy=strategy)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    from .history import append_history, kernel_headline

    directory = os.path.dirname(os.path.abspath(path))
    for headline in kernel_headline(payload):
        append_history("kernels", headline, directory=directory)
    return payload


def format_kernel_bench(payload: dict[str, Any]) -> str:
    lines = [
        f"kernel tier: {payload['kernel_tier']}"
        + (f"  mode: {payload['mode']}" if payload.get("mode") else "")
    ]
    header = (
        f"{'P':>4s} {'ladder':6s} {'program':16s} {'n':>5s} "
        f"{'kern':>9s} {'vec':>9s} {'speedup':>8s} {'elem/s':>12s} "
        f"{'B/elem':>7s} {'exact':>6s} {'checks kern/vec':>16s}"
    )
    lines.append(header)
    for p, sweep in payload["sweeps"].items():
        for ladder in ("weak", "strong"):
            for name, cell in sweep[ladder].items():
                kern = cell["kernel"]
                vec = cell.get("vectorized")
                speedup = cell.get("speedup")
                # freshness tests made: the read cover against the
                # per-reference count of the interpreted block path
                checks = (
                    f"{kern.get('sections_verified', '—')}/"
                    f"{vec.get('sections_verified', '—') if vec else '—'}"
                )
                lines.append(
                    f"{p:>4s} {ladder:6s} {name:16s} "
                    f"{cell['params']['n']:5d} "
                    f"{kern['execute_s'] * 1000:7.1f}ms "
                    + (f"{vec['execute_s'] * 1000:7.1f}ms "
                       if vec else f"{'—':>9s} ")
                    + (f"{speedup:7.2f}x " if speedup else f"{'—':>8s} ")
                    + f"{kern['elements_per_s'] or 0:>12,} "
                    f"{kern['bytes_per_element'] or 0:7.2f} "
                    + (f"{'yes' if cell['bitwise_identical'] else 'NO':>6s}"
                       if "bitwise_identical" in cell else f"{'—':>6s}")
                    + f" {checks:>16s}"
                )
        reg = sweep["regression"]
        if reg is not None:
            lines.append(
                f"  P={p}: kernel execute {reg['kernel_execute_s']:.3f}s vs "
                f"vectorized {reg['vectorized_execute_s']:.3f}s "
                f"(ratio {reg['ratio']}, gate <= {reg['threshold']}) "
                f"{'ok' if reg['ok'] else 'REGRESSED'}"
            )
    if payload["mismatches"]:
        lines.append("MISMATCHES: " + ", ".join(payload["mismatches"]))
    if payload["regressions"]:
        lines.append("REGRESSIONS: " + ", ".join(payload["regressions"]))
    if payload["ok"]:
        lines.append(
            "all checked cells bitwise-identical with exact wire parity; "
            "no execute-time regressions"
        )
    return "\n".join(lines)
