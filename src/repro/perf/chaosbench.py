"""Chaos benchmark harness: survival under injected transport faults.

``python -m repro bench --chaos`` drives every Figure 10 benchmark
through the SPMD executor on the concurrent backends (threaded,
multiprocess) under a seeded fault matrix — one plan per fault class
(drop, dup, corrupt, delay, reorder, crash) plus a mixed plan — and
writes ``BENCH_chaos.json``.  Three headline answers:

* **survival rate** — the fraction of faulted runs whose final arrays
  are bitwise-identical to the inline oracle (a run that degrades to
  the inline backend and still matches counts as survived-degraded; a
  wrong answer or an unstructured crash does not survive).  The repair
  ladder is designed for 100%;
* **recovery latency** — wall seconds the collector spent quiescing,
  restoring checkpoints, and respawning workers per injected rank
  crash (the ``crash`` plan uses rate 1.0 with ``crash_budget=1`` so
  exactly one crash fires deterministically per run);
* **integrity overhead** — the clean-run cost of the always-on wire
  integrity layer (sequence + CRC32 verification), measured per
  backend as best-of-N wall time with checksums on versus off.

Every run appends a one-line chaos record to ``BENCH_history.jsonl``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

import numpy as np

from ..core.pipeline import Strategy, compile_program
from ..runtime.spmd import execute_spmd
from ..transport.integrity import KINDS, FaultPlan
from .history import append_history, chaos_headline
from .runbench import QUICK_PARAMS, RUN_PARAMS
from .stats import environment_metadata

CHAOS_BACKENDS = ("threaded", "multiprocess")

#: Per-fault-class injection rate for the single-fault plans.
SINGLE_RATE = 0.2

#: Seeds per (backend, plan, program) cell; quick mode uses the first.
SEEDS = (1, 2)

OVERHEAD_REPEATS = 5

#: Clean-run integrity overhead must stay under this (CI gate).
MAX_OVERHEAD_PCT = 10.0


def fault_matrix(seed: int) -> dict[str, FaultPlan]:
    """The benched plans: one per fault class plus a mixed plan.  The
    crash plan fires exactly once (rate 1.0, budget 1) so the recovery
    path is exercised deterministically rather than probabilistically."""
    plans = {
        kind: FaultPlan.single(kind, seed=seed, rate=SINGLE_RATE)
        for kind in KINDS if kind != "crash"
    }
    plans["crash"] = FaultPlan(seed=seed, crash=1.0, crash_budget=1)
    plans["mixed"] = FaultPlan(
        seed=seed, drop=0.1, dup=0.1, corrupt=0.1, reorder=0.1,
        crash=1.0, crash_budget=1,
    )
    return plans


def _run_cell(
    result, oracle: dict[str, np.ndarray], backend: str, plan: FaultPlan,
    watchdog_s: float,
) -> dict[str, Any]:
    t0 = time.perf_counter()
    try:
        arrays, stats = execute_spmd(
            result, transport=backend, chaos=plan, watchdog_s=watchdog_s,
        )
    except Exception as exc:  # noqa: BLE001 - a non-surviving run
        # Replay material for tests/test_protocol_core.py: the plan,
        # and from a DeadlockError / RankCrashError the structured
        # context (stuck channel, last received seq, dead ranks).
        to_dict = getattr(exc, "to_dict", None)
        return {
            "survived": False,
            "identical": False,
            "error": f"{type(exc).__name__}: {exc}",
            "failure": to_dict() if to_dict is not None else None,
            "plan": plan.as_dict(),
            "wall_s": round(time.perf_counter() - t0, 4),
        }
    wall = time.perf_counter() - t0
    identical = set(arrays) == set(oracle) and all(
        np.array_equal(arrays[k], oracle[k]) for k in oracle
    )
    return {
        "survived": identical,
        "identical": identical,
        "wall_s": round(wall, 4),
        "faults_injected": stats.faults_injected,
        "faults_detected": stats.faults_detected,
        "retransmits": stats.retransmits,
        "rank_restarts": stats.rank_restarts,
        "recovery_s": round(stats.recovery_s, 4),
        "degradations": list(stats.degradations),
    }


def _clean_walls(
    result, backend: str, watchdog_s: float,
) -> tuple[float, float]:
    """Best-of-N clean wall with integrity on and off.  The repeats
    interleave the two configurations so machine-load drift during the
    bench hits both equally instead of biasing the overhead ratio."""
    best_on = best_off = float("inf")
    for _ in range(OVERHEAD_REPEATS):
        for integrity in (True, False):
            t0 = time.perf_counter()
            execute_spmd(
                result, transport=backend, integrity=integrity,
                watchdog_s=watchdog_s,
            )
            wall = time.perf_counter() - t0
            if integrity:
                best_on = min(best_on, wall)
            else:
                best_off = min(best_off, wall)
    return best_on, best_off


def run_chaos_bench(
    quick: bool = False,
    strategy: Strategy = Strategy.GLOBAL,
    backends: tuple[str, ...] = CHAOS_BACKENDS,
    watchdog_s: float = 60.0,
) -> dict[str, Any]:
    from ..evaluation.programs import BENCHMARKS

    sizes = QUICK_PARAMS if quick else RUN_PARAMS
    seeds = SEEDS[:1] if quick else SEEDS
    results = {
        name: compile_program(
            BENCHMARKS[name], params=sizes[name], strategy=strategy
        )
        for name in sorted(BENCHMARKS)
    }
    oracles = {
        name: execute_spmd(results[name], transport="inline")[0]
        for name in sorted(results)
    }

    matrix: dict[str, Any] = {}
    runs = survived = 0
    restarts = 0
    recovery_s = 0.0
    for backend in backends:
        per_plan: dict[str, Any] = {}
        for seed in seeds:
            for plan_name, plan in fault_matrix(seed).items():
                cell_key = (
                    plan_name if len(seeds) == 1
                    else f"{plan_name}@seed{seed}"
                )
                programs: dict[str, Any] = {}
                for name in sorted(results):
                    cell = _run_cell(
                        results[name], oracles[name], backend, plan,
                        watchdog_s,
                    )
                    programs[name] = cell
                    runs += 1
                    survived += 1 if cell["survived"] else 0
                    restarts += cell.get("rank_restarts", 0)
                    recovery_s += cell.get("recovery_s", 0.0)
                per_plan[cell_key] = {
                    "plan": plan.as_dict(),
                    "programs": programs,
                    "survived": all(
                        c["survived"] for c in programs.values()
                    ),
                }
        matrix[backend] = {
            "plans": per_plan,
            "survived": all(p["survived"] for p in per_plan.values()),
        }

    overhead: dict[str, Any] = {}
    for backend in backends:
        on_s = off_s = 0.0
        for name in sorted(results):
            best_on, best_off = _clean_walls(
                results[name], backend, watchdog_s
            )
            on_s += best_on
            off_s += best_off
        pct = 100.0 * (on_s - off_s) / off_s if off_s > 0 else 0.0
        overhead[backend] = {
            "integrity_wall_s": round(on_s, 4),
            "raw_wall_s": round(off_s, 4),
            "overhead_pct": round(pct, 2),
            "ok": pct < MAX_OVERHEAD_PCT,
        }

    survival_rate = survived / runs if runs else 0.0
    return {
        "mode": "quick" if quick else "full",
        "strategy": strategy.value,
        "environment": environment_metadata(),
        "backends": sorted(backends),
        "runs": runs,
        "survived": survived,
        "survival_rate": round(survival_rate, 4),
        "recovery": {
            "rank_restarts": restarts,
            "total_recovery_s": round(recovery_s, 4),
            "mean_recovery_s": round(
                recovery_s / restarts if restarts else 0.0, 4
            ),
        },
        "matrix": matrix,
        "integrity_overhead": overhead,
        "ok": (
            survival_rate == 1.0
            and all(o["ok"] for o in overhead.values())
        ),
    }


def write_chaos_bench(
    path: str = "BENCH_chaos.json",
    quick: bool = False,
    strategy: Strategy = Strategy.GLOBAL,
    backends: tuple[str, ...] = CHAOS_BACKENDS,
    watchdog_s: float = 60.0,
) -> dict[str, Any]:
    payload = run_chaos_bench(
        quick=quick, strategy=strategy, backends=backends,
        watchdog_s=watchdog_s,
    )
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    append_history(
        "chaos", chaos_headline(payload),
        directory=os.path.dirname(os.path.abspath(path)),
    )
    return payload


def format_chaos_bench(payload: dict[str, Any]) -> str:
    lines = [
        f"{'backend':13s} {'plan':16s} {'survived':>9s} {'injected':>9s} "
        f"{'retrans':>8s} {'restarts':>9s}"
    ]
    for backend, info in sorted(payload["matrix"].items()):
        for plan_name, plan_info in sorted(info["plans"].items()):
            programs = plan_info["programs"].values()
            lines.append(
                f"{backend:13s} {plan_name:16s} "
                f"{sum(1 for c in programs if c['survived']):4d}/"
                f"{len(plan_info['programs']):<4d} "
                f"{sum(c.get('faults_injected', 0) for c in programs):9d} "
                f"{sum(c.get('retransmits', 0) for c in programs):8d} "
                f"{sum(c.get('rank_restarts', 0) for c in programs):9d}"
            )
    rec = payload["recovery"]
    lines.append(
        f"\nsurvival {payload['survived']}/{payload['runs']} "
        f"({payload['survival_rate']:.1%}); {rec['rank_restarts']} rank "
        f"restart(s), mean recovery {rec['mean_recovery_s'] * 1000:.1f}ms"
    )
    for backend, o in sorted(payload["integrity_overhead"].items()):
        lines.append(
            f"integrity overhead {backend:13s} {o['overhead_pct']:+6.2f}% "
            f"({o['integrity_wall_s']:.3f}s vs {o['raw_wall_s']:.3f}s)"
            + ("" if o["ok"] else "  EXCEEDS LIMIT")
        )
    lines.append(
        "all faulted runs healed to bitwise-identical results"
        if payload["ok"] else "DEGRADED: see payload"
    )
    return "\n".join(lines)
