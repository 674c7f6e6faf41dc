#!/usr/bin/env python3
"""One end-to-end benchmark: compile, run, wire and serve.

    python3 benchmarks/e2e/run.py [--workload W] [--seed S] [--seconds T]
                                  [--trace] [--smoke] [--out DIR]

Without ``--workload`` all four workloads run, one after the other.
Each runs in a fresh subprocess, so interning pools, caches and resident
memory never leak from one into the next; this process only spawns,
waits and reports.  Every metric is printed by name with its unit, the
result is written under ``--out``, and the last line of standard output
is one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).

``--regen-refs`` rewrites refs.json from the element-wise interpreter;
``--verify-refs`` recomputes it and compares.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"
RESULT_KIND = "repro-e2e-result"
#: Set-up is sampled this many times per run, each in its own fresh
#: process, and the median reported: one cold start is too noisy to gate.
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
#: ``initial_arrays`` seeds its RNG from ``hash((seed, name))``, which
#: Python salts per process; every benchmark process runs under this
#: fixed salt so the checked-in digests stay comparable.
HASHSEED = "0"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed region per workload "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="record spans and print per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="one round at tiny sizes")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    parser.add_argument("--regen-refs", action="store_true")
    parser.add_argument("--verify-refs", action="store_true")
    parser.add_argument("--inject-failure", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--spawned-at", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--report", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child ----------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(HERE), str(SRC)]
    import harness
    from tracing import Tracer
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workload = WORKLOADS[args.workload](
        args.seed, args.smoke, args.report.parent, tracer
    )
    report = harness.run_child(
        workload, args.seconds, bool(args.trace), args.spawned_at,
        args.setup_only, args.inject_failure,
        args.report.with_suffix(".trace.json") if args.trace else None,
    )
    leaks = harness.assert_quiescent()
    if leaks:
        print("\n".join(leaks), file=sys.stderr)
        return 3
    report.peak_rss_mb = harness.peak_rss_mib()
    args.report.write_text(json.dumps(asdict(report)))
    return 0


def refs_main(args: argparse.Namespace) -> int:
    sys.path[:0] = [str(HERE), str(SRC)]
    import corpus

    ok = corpus.Refs().regenerate(verify=args.verify_refs)
    return 0 if ok else 1


# -- parent ---------------------------------------------------------------------


def spawn(args: argparse.Namespace, workload: str, report: Path,
          setup_only: bool) -> dict:
    """Run one workload process to its end and return its report."""
    command = [
        sys.executable, str(HERE / "run.py"), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--report", str(report),
    ]
    for flag in ("smoke", "inject_failure"):
        if getattr(args, flag):
            command.append("--" + flag.replace("_", "-"))
    if setup_only:
        command.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=HASHSEED)
    command += ["--spawned-at", repr(time.monotonic())]
    # The child's own output is commentary: keep it off our stdout,
    # whose last line is the result.
    done = subprocess.run(
        command, env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload}: child exited with code {done.returncode}")
    return json.loads(report.read_text())


def run_workload(args: argparse.Namespace, spec: dict, workload: str) -> dict:
    work = args.out / f"work-{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        report = spawn(args, workload, work / "report.json", False)
        setups = [report["setup_s"]]
        if not (args.smoke or args.trace):
            for index in range(1, SETUP_SAMPLES):
                setups.append(spawn(
                    args, workload, work / f"setup{index}.json", True
                )["setup_s"])
        trace_file = work / "report.trace.json"
        if trace_file.exists():
            target = args.out / workload
            target.mkdir(exist_ok=True)
            shutil.move(trace_file, target / "trace.json")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    values = dict(report["end_to_end"])
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = report["peak_rss_mb"]
    if args.trace:
        # A layer that does no work in this workload reads 0.
        declared, source = spec["per_layer"], report["per_layer"]
    else:
        declared, source = spec["end_to_end"], values
        missing = [m["name"] for m in declared if m["name"] not in source]
        if missing:
            raise SystemExit(f"{workload}: metrics not measured: {missing}")
    metrics = {
        m["name"]: {"value": source.get(m["name"], 0.0), "unit": m["unit"]}
        for m in declared
    }
    result = {
        "kind": RESULT_KIND,
        "workload": workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "failed_share": report["failed"] / max(1, report["attempted"]),
        "failures": report["failures"],
        "rounds": report["rounds"],
        "metrics": metrics,
        "ungated": {
            "op_p99_ms": values.get("op_p99_ms"),
            "setup_samples_s": setups,
            "end_to_end_in_traced_run": values if args.trace else None,
        },
        "classes": report["classes"],
        "environment": report["environment"],
    }
    name = f"{workload}-seed{args.seed}-{os.getpid()}" + (
        "-trace" if args.trace else "")
    (args.out / f"{name}.json").write_text(json.dumps(result, indent=1))
    print_result(result)
    return result


def print_result(result: dict) -> None:
    env = result["environment"]
    print(f"== {result['workload']}  seed={result['seed']}  "
          f"rounds={result['rounds']}  ops={result['attempted']}  "
          f"failed_share={result['failed_share']:.6f} ratio")
    print(f"   nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} "
          f"commit={env['commit'][:12]}")
    for name, metric in result["metrics"].items():
        print(f"   {name:<36} {metric['value']:>16.6f} {metric['unit']}")
    if not result["trace"]:
        print(f"   {'op_p99_ms (not gated)':<36} "
              f"{result['ungated']['op_p99_ms']:>16.6f} ms")
    print("   per class: median latency (samples)")
    for cls, row in result["classes"].items():
        print(f"     {cls:<34} {row['median_ms']:>12.4f} ms "
              f"({row['samples']})")
    for failure in result["failures"]:
        print(f"   FAILED {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if args.regen_refs or args.verify_refs:
        if args.child:
            return refs_main(args)
        # References hash array names: same fixed salt as the workloads.
        return subprocess.run(
            [sys.executable, *sys.argv, "--child"],
            env=dict(os.environ, PYTHONHASHSEED=HASHSEED),
        ).returncode
    spec = json.loads(SPEC_PATH.read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child_main(args)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    args.out.mkdir(parents=True, exist_ok=True)
    results = [
        run_workload(args, spec, name)
        for name in ([args.workload] if args.workload else names)
    ]
    last = results[-1]
    if len(results) > 1:
        last = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                f"{r['workload']}.{name}": metric
                for r in results for name, metric in r["metrics"].items()
            },
        }
    print(json.dumps({
        key: last[key] for key in ("correct", "attempted", "failed", "metrics")
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
