#!/usr/bin/env python3
"""Compare two sets of end-to-end results: ``compare.py A/ B/``.

A is the baseline (the parent commit, or the first set of runs), B the
candidate.  For every workload and every end-to-end metric declared in
BENCHMARK.json it prints each side's median and quartiles and one
verdict, by the rule the pipeline applies:

* ``regressed``   B's median is worse than A's by more than the bound;
* ``unresolved``  not regressed, but the spread between runs of one side
  (interquartile range over median) exceeds the bound, so "no change"
  cannot be claimed — unless every run of B beats every run of A;
* ``ok``          otherwise.

Count metrics carry a bound so small that any difference exceeds it:
they must repeat exactly.  A run with failed ops on the B side is a
regression whatever its timings.  Exit status is 1 if anything
regressed, else 0.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from run import RESULT_KIND, SPEC_PATH


def load_set(directory: Path) -> dict[str, list[dict]]:
    """Untraced, full-size results under ``directory``, by workload."""
    by_workload: dict[str, list[dict]] = {}
    for path in sorted(directory.rglob("*.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, ValueError):
            continue
        if not isinstance(data, dict) or data.get("kind") != RESULT_KIND:
            continue
        if data["trace"] or data["smoke"]:
            continue
        by_workload.setdefault(data["workload"], []).append(data)
    return by_workload


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(values: list[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def judge(metric: dict, a: list[float], b: list[float]) -> tuple[str, float]:
    """Verdict and the share by which B's median is worse than A's."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    lower = metric["better"] == "lower"
    worse = ((med_b - med_a) if lower else (med_a - med_b)) / abs(med_a)
    bound = metric["bound"]
    if worse > bound:
        return "regressed", worse
    if max(spread(a), spread(b)) > bound:
        b_wins = max(b) < min(a) if lower else min(b) > max(a)
        return ("ok" if b_wins else "unresolved"), worse
    return "ok", worse


def compare(dir_a: Path, dir_b: Path) -> int:
    spec = json.loads(SPEC_PATH.read_text())
    set_a, set_b = load_set(dir_a), load_set(dir_b)
    regressed = 0
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = set_a.get(workload, []), set_b.get(workload, [])
        if not runs_a or not runs_b:
            print(f"{workload}: no results on "
                  f"{'A' if not runs_a else 'B'} side — skipped")
            continue
        print(f"{workload}: {len(runs_a)} runs against {len(runs_b)}")
        failed = sum(r["failed"] for r in runs_b)
        if failed:
            regressed += 1
            print(f"  regressed   {failed} failed ops on the B side")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs_a]
            b = [r["metrics"][name]["value"] for r in runs_b]
            verdict, worse = judge(metric, a, b)
            regressed += verdict == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            print(
                f"  {verdict:<11} {name:<24} "
                f"A {qa[1]:.6g} [{qa[0]:.6g}, {qa[2]:.6g}]  "
                f"B {qb[1]:.6g} [{qb[0]:.6g}, {qb[2]:.6g}]  "
                f"worse by {worse:+.2%} (bound {metric['bound']:.2%}, "
                f"spread A {spread(a):.2%} B {spread(b):.2%}) "
                f"{metric['unit']}",
            )
    return 1 if regressed else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    return compare(Path(argv[0]), Path(argv[1]))


if __name__ == "__main__":
    sys.exit(main())
