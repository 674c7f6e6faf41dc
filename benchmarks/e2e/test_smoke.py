"""Smoke test of the end-to-end benchmark: ``pytest benchmarks/e2e``.

Outside tier-1 (``testpaths = ["tests"]``): it spawns the real harness
at tiny sizes, one round per workload, about a minute and a half in all.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
COUNT_METRICS = (
    "call_sites_per_program", "wire_msgs_per_op", "wire_bytes_per_lb",
)


def smoke(out: Path, *flags: str) -> dict[str, dict]:
    """Run all four workloads once; results by workload name."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out),
         *flags],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    results = {}
    for path in out.glob("*.json"):
        data = json.loads(path.read_text())
        results[data["workload"]] = data
    assert sorted(results) == sorted(WORKLOADS)
    return results


def root_bench_files() -> dict[str, tuple[int, int]]:
    """The legacy bench outputs at the repository root, which this
    harness must never touch."""
    return {
        p.name: (p.stat().st_mtime_ns, p.stat().st_size)
        for p in HERE.parents[1].glob("BENCH_*")
    }


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("first")
    before = root_bench_files()
    return smoke(out), out, before


@pytest.fixture(scope="module")
def first(first_run):
    return first_run[0]


def test_every_declared_end_to_end_metric_is_printed(first):
    for workload in WORKLOADS:
        result = first[workload]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        metrics = result["metrics"]
        assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
        for declared in SPEC["end_to_end"]:
            got = metrics[declared["name"]]
            assert NAME.fullmatch(declared["name"])
            assert got["unit"] == declared["unit"]
            assert got["value"] > 0, (workload, declared["name"])
        stamp = result["environment"]
        assert {"nproc", "cpu_model", "python", "numpy", "commit"} <= set(stamp)


def test_count_metrics_repeat_exactly(first, tmp_path):
    second = smoke(tmp_path, "--seed", "5")
    for workload in WORKLOADS:
        for name in COUNT_METRICS:
            assert (
                first[workload]["metrics"][name]["value"]
                == second[workload]["metrics"][name]["value"]
            ), (workload, name)


def test_every_declared_layer_metric_is_printed(tmp_path):
    traced = smoke(tmp_path, "--trace")
    declared = [m["name"] for m in SPEC["per_layer"]]
    assert all(NAME.fullmatch(name) for name in declared)
    for workload in WORKLOADS:
        assert list(traced[workload]["metrics"]) == declared
        assert (tmp_path / workload / "trace.json").exists()
    layers = {w: traced[w]["metrics"] for w in WORKLOADS}
    value = lambda w, name: layers[w][name]["value"]
    # The interaction table of README.md, at its coarsest.
    assert value("compile_corpus", "trace.span_coverage") >= 0.90
    assert value("compile_corpus", "core.analyze_ms") > 0
    assert value("compile_corpus", "transport.execute_ms") == 0
    assert value("run_compute", "transport.execute_ms") == 0
    assert value("run_compute", "runtime.run_ms") > 0
    assert value("run_compute", "frontend.parse_ms") == 0
    assert value("run_wire", "transport.execute_ms") > 0
    assert value("serve_mixed", "service.handle_warm_us") > 0


def test_a_forced_failure_is_counted(tmp_path):
    broken = smoke(tmp_path, "--inject-failure")
    for workload in WORKLOADS:
        result = broken[workload]
        assert result["failed"] >= 1 and not result["correct"], workload
        assert result["failed_share"] > 0


def test_nothing_is_left_behind(first_run):
    _, out, bench_before = first_run
    leftovers = [p.name for p in out.iterdir() if p.suffix != ".json"]
    assert leftovers == [], leftovers
    assert root_bench_files() == bench_before
