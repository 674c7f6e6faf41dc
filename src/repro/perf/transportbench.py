"""Transport benchmark harness: real message-passing execution.

``python -m repro bench --transport`` runs every Figure 10 benchmark
through the SPMD executor on each message-passing backend (inline,
threaded, multiprocess) and writes ``BENCH_transport.json``.  Per
backend it reports:

* wall time per program and the cumulative wire statistics (per-pair
  messages/bytes, per-rank send/recv/wait/barrier seconds, collective
  algorithm counts);
* a bitwise-identity verdict against the legacy direct-copy executor
  (the executor additionally asserts, per operation, that measured
  per-pair wire bytes equal the lowering's prediction exactly — a run
  that completes has passed that check for every operation);
* the §6.1 simulator's plan-level predictions alongside the executed
  counters, so static model drift stays visible.

It also *calibrates* the machine model per backend: a micro-benchmark
ships messages of increasing size through the raw transport, fits the
linear cost model ``t = C + n/B`` (:func:`repro.machine.model.
fit_linear_cost`), and stamps the measured per-message latency and
per-byte bandwidth into the payload as a
:class:`~repro.machine.model.MachineModel` the simulator could run
with.  Every run appends a one-line record to ``BENCH_history.jsonl``.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any

import numpy as np

from ..core.pipeline import Strategy, compile_program
from ..cost.lower_bound import lower_bound
from ..machine.model import MACHINES, calibrated_model, fit_linear_cost
from ..runtime.darray import RankStorage
from ..runtime.simulator import simulate
from ..runtime.spmd import SPMDExecutor, execute_spmd
from ..transport import make_transport
from ..transport.lowering import LoweredComm, SendOp, _predict
from .history import append_history, transport_headline
from .runbench import QUICK_PARAMS, RUN_PARAMS
from .stats import environment_metadata

DEFAULT_BACKENDS = ("inline", "threaded", "multiprocess")

#: Micro-benchmark message sizes (bytes); element count = size / 8.
CALIBRATION_SIZES = (64, 512, 4096, 32768, 262144)
CALIBRATION_REPEATS = 5


def calibrate_backend(
    backend: str, watchdog_s: float = 30.0
) -> dict[str, Any]:
    """Measure per-message latency and per-byte bandwidth of one backend
    with rank-0 → rank-1 ping messages of increasing size, and fit the
    linear cost model."""
    max_count = max(CALIBRATION_SIZES) // 8
    transport = make_transport(backend, 2, watchdog_s=watchdog_s)
    try:
        buffers = transport.create_storage(
            [(0, "x", (max_count,)), (1, "x", (max_count,))]
        )
        storage = {}
        for rank in (0, 1):
            buf = buffers[(rank, "x")] if buffers else None
            store = RankStorage("x", (max_count,), buf)
            store.values[:] = np.arange(max_count, dtype=np.float64)
            store.valid[:] = True
            storage[rank] = {"x": store}
        transport.start(storage)

        sizes: list[int] = []
        times: list[float] = []
        per_size: dict[int, float] = {}
        seq = 0
        for nbytes in CALIBRATION_SIZES:
            count = nbytes // 8
            best = float("inf")
            for _ in range(CALIBRATION_REPEATS):
                send = SendOp(
                    seq=seq, src=0, dst=1, array="x",
                    index=(slice(0, count),), nbytes=nbytes,
                )
                seq += 1
                lowered = _predict(LoweredComm("pointwise", [[send]]))
                t0 = time.perf_counter()
                transport.execute(lowered)
                best = min(best, time.perf_counter() - t0)
            sizes.append(nbytes)
            times.append(best)
            per_size[nbytes] = best
    finally:
        transport.shutdown()

    startup_s, bandwidth_bps = fit_linear_cost(sizes, times)
    model = calibrated_model(
        f"host-{backend}", startup_s, bandwidth_bps
    )
    return {
        "backend": backend,
        "samples": {
            str(n): round(t, 7) for n, t in sorted(per_size.items())
        },
        "startup_s": round(model.startup_s, 7),
        "bandwidth_bps": round(model.bandwidth_bps, 1),
        "model_name": model.name,
    }


def bench_backend(
    backend: str,
    sizes: dict[str, dict[str, int]],
    strategy: Strategy,
    references: dict[str, dict[str, np.ndarray]],
    results: dict[str, Any],
    watchdog_s: float = 120.0,
    floors: "dict[str, Any] | None" = None,
) -> dict[str, Any]:
    """Run every benchmark program on one backend and compare against
    the legacy direct-copy references.  ``floors`` maps program name to
    its precomputed :class:`~repro.cost.lower_bound.LowerBoundReport`
    (the floor depends only on the program, not the backend)."""
    programs: dict[str, Any] = {}
    ok = True
    for name in sorted(sizes):
        result = results[name]
        t0 = time.perf_counter()
        executor = SPMDExecutor(
            result, transport=backend, watchdog_s=watchdog_s
        )
        try:
            stats = executor.run()
            state = executor.assemble()
            wire = executor.wire.as_dict()
        finally:
            executor.close()
        wall = time.perf_counter() - t0

        ref = references[name]
        identical = set(state) == set(ref) and all(
            np.array_equal(state[k], ref[k]) for k in state
        )
        ok = ok and identical
        lb = (floors or {}).get(name) or lower_bound(result.info)
        report = simulate(
            result, MACHINES["SP2"], lower_bound_bytes=lb.wire_floor_bytes
        )
        ok = ok and lb.sound_for(stats.bytes_moved)
        programs[name] = {
            "params": sizes[name],
            "wall_s": round(wall, 4),
            "bitwise_identical_to_legacy": identical,
            "wire": wire,
            "plan_counters": {
                "messages": stats.messages,
                "bytes_moved": stats.bytes_moved,
            },
            "simulator_check": {
                "predicted_messages_per_proc": report.messages_per_proc,
                "predicted_bytes_per_proc": report.bytes_per_proc,
                "executed_messages": stats.messages,
                "executed_bytes": stats.bytes_moved,
            },
            "lower_bound": {
                **lb.as_dict(),
                "bytes_moved": stats.bytes_moved,
                "ratio": lb.ratio(stats.bytes_moved),
                "sound": lb.sound_for(stats.bytes_moved),
            },
        }
    return {"programs": programs, "ok": ok}


def run_transport_bench(
    quick: bool = False,
    strategy: Strategy = Strategy.GLOBAL,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    watchdog_s: float = 120.0,
) -> dict[str, Any]:
    from ..evaluation.programs import BENCHMARKS

    sizes = QUICK_PARAMS if quick else RUN_PARAMS
    results = {
        name: compile_program(
            BENCHMARKS[name], params=sizes[name], strategy=strategy
        )
        for name in sorted(BENCHMARKS)
    }
    references = {
        name: execute_spmd(results[name])[0] for name in sorted(results)
    }
    floors = {
        name: lower_bound(results[name].info) for name in sorted(results)
    }

    calibration = {b: calibrate_backend(b) for b in backends}
    backend_results = {
        b: bench_backend(
            b, sizes, strategy, references, results, watchdog_s=watchdog_s,
            floors=floors,
        )
        for b in backends
    }
    return {
        "mode": "quick" if quick else "full",
        "strategy": strategy.value,
        "environment": environment_metadata(),
        "calibration": calibration,
        "backends": backend_results,
        "ok": all(info["ok"] for info in backend_results.values()),
    }


def write_transport_bench(
    path: str = "BENCH_transport.json",
    quick: bool = False,
    strategy: Strategy = Strategy.GLOBAL,
    backends: tuple[str, ...] = DEFAULT_BACKENDS,
    watchdog_s: float = 120.0,
) -> dict[str, Any]:
    payload = run_transport_bench(
        quick=quick, strategy=strategy, backends=backends,
        watchdog_s=watchdog_s,
    )
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    append_history(
        "transport", transport_headline(payload),
        directory=os.path.dirname(os.path.abspath(path)),
    )
    return payload


def format_transport_bench(payload: dict[str, Any]) -> str:
    lines = []
    for backend, cal in sorted(payload["calibration"].items()):
        lines.append(
            f"calibrated {backend:13s} latency "
            f"{cal['startup_s'] * 1e6:8.1f}us  bandwidth "
            f"{cal['bandwidth_bps'] / 1e6:8.1f} MB/s"
        )
    lines.append(
        f"\n{'backend':13s} {'program':16s} {'wall':>9s} {'msgs':>7s} "
        f"{'bytes':>10s} {'waits':>6s} {'stalls':>7s} {'collect':>9s} "
        f"{'exact':>6s}"
    )
    for backend, info in sorted(payload["backends"].items()):
        for name, p in sorted(info["programs"].items()):
            wire = p["wire"]
            lines.append(
                f"{backend:13s} {name:16s} {p['wall_s'] * 1000:7.1f}ms "
                f"{wire['messages']:7d} {wire['bytes_sent']:10d} "
                f"{wire['barrier_waits']:6d} {wire['barrier_stalls']:7d} "
                f"{wire['collect_s'] * 1000:7.1f}ms "
                f"{'yes' if p['bitwise_identical_to_legacy'] else 'NO':>6s}"
            )
    lines.append(
        "all backends bitwise-identical to the direct-copy executor"
        if payload["ok"] else "DEGRADED: backend mismatch — see payload"
    )
    return "\n".join(lines)
