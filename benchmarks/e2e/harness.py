"""The measuring loop shared by the four workloads, and its arithmetic.

One workload runs in one fresh process (:func:`run_child`): set-up, one
untimed warm-up round, then whole rounds of the same seed-generated op
list until ``--seconds`` have passed, then verification and tear-down.
Latencies are pooled over all timed rounds; throughput is the op count
of a round over the *median* round time, because on a shared two-core
box single rounds are disturbed by neighbours and the median is not.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from tracing import Tracer


@dataclass
class Sample:
    """One executed op."""

    cls: str
    seconds: float
    ok: bool
    why: str = ""


@dataclass
class RoundResult:
    wall_s: float
    samples: list[Sample]


class Workload:
    """What :func:`run_child` drives.  A workload owns its inputs, runs
    them one round at a time and checks every output itself."""

    name = ""

    def __init__(self, seed: int, smoke: bool, work_dir: Path,
                 tracer: Optional[Tracer]) -> None:
        self.seed = seed
        self.smoke = smoke
        self.work_dir = work_dir
        self.tracer = tracer
        #: failures found outside an op's own sample (cross-round
        #: determinism, end-of-run verification): (class, reason).
        self.late_failures: list[tuple[str, str]] = []

    def setup(self) -> None:
        raise NotImplementedError

    def inject_failure(self) -> None:
        """Corrupt one op so that it must be counted as failed."""
        raise NotImplementedError

    def round(self, traced: bool) -> RoundResult:
        raise NotImplementedError

    def verify(self) -> None:
        """End-of-run checks; appends to ``late_failures``."""

    def counts(self) -> dict[str, float]:
        """The exact end-to-end count metrics."""
        raise NotImplementedError

    def layer_metrics(self, totals: dict) -> dict[str, float]:
        """Per-layer numbers read from stats objects and probes;
        ``totals`` is :meth:`Tracer.totals`, whose span times the
        harness adds itself."""
        return {}

    def teardown(self) -> None:
        pass


# -- arithmetic -----------------------------------------------------------------


def by_class(samples: list[Sample]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for s in samples:
        out.setdefault(s.cls, []).append(s.seconds)
    return out


def ratio(hits: float, total: float) -> float:
    return hits / total if total else 0.0


def environment() -> dict[str, Any]:
    """The stamp every result file carries."""
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count() or 1,
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "hashseed": os.environ.get("PYTHONHASHSEED", ""),
    }


def _commit() -> str:
    """HEAD of the enclosing git checkout, read from the files (no
    subprocess); the driver's checkout is not a repository."""
    root = Path(__file__).resolve().parents[2]
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (root / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


# -- the child process ----------------------------------------------------------


@dataclass
class ChildReport:
    workload: str
    seed: int
    setup_s: float
    peak_rss_mb: float = 0.0
    rounds: int = 0
    traced_rounds: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    end_to_end: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    classes: dict[str, dict[str, float]] = field(default_factory=dict)
    environment: dict[str, Any] = field(default_factory=dict)


def assert_quiescent() -> list[str]:
    """Every process and thread a workload started must have ended;
    returns what has not, after stopping it."""
    def threads():
        return [t for t in threading.enumerate()
                if t is not threading.main_thread() and not t.daemon]

    deadline = time.monotonic() + 10.0
    while ((multiprocessing.active_children() or threads())
           and time.monotonic() < deadline):
        time.sleep(0.02)
    leaks = [f"thread {t.name} still alive" for t in threads()]
    for proc in multiprocessing.active_children():
        leaks.append(f"process {proc.name} (pid {proc.pid}) still alive")
        proc.kill()
        proc.join()
    return leaks


def run_child(workload: Workload, seconds: float, trace: bool,
              spawned_at: float, setup_only: bool, inject_failure: bool,
              trace_path: Optional[Path]) -> ChildReport:
    tracer = workload.tracer
    try:
        workload.setup()
        if inject_failure:
            workload.inject_failure()
        workload.round(traced=False)  # warm-up: part of set-up
        report = ChildReport(
            workload.name, workload.seed,
            setup_s=time.monotonic() - spawned_at,
            environment=environment(),
        )
        if setup_only:
            return report

        plain: list[RoundResult] = []
        traced: list[RoundResult] = []
        started = time.monotonic()
        while True:
            plain.append(workload.round(traced=False))
            if trace:
                tracer.active = True
                try:
                    traced.append(workload.round(traced=True))
                finally:
                    tracer.active = False
            if workload.smoke or time.monotonic() - started >= seconds:
                break
        workload.verify()

        every = [s for r in plain + traced for s in r.samples]
        failures = [f"{s.cls}: {s.why}" for s in every if not s.ok]
        failures += [f"{cls}: {why}" for cls, why in workload.late_failures]
        report.rounds = len(plain)
        report.traced_rounds = len(traced)
        report.attempted = len(every)
        report.failed = min(len(failures), report.attempted)
        report.failures = failures[:20]

        samples = [s for r in plain for s in r.samples if s.ok]
        # Interpolated percentiles: ops of different classes differ by an
        # order of magnitude, and a nearest-rank percentile that falls
        # between two classes jumps from one to the other with the noise.
        cuts = statistics.quantiles(
            [s.seconds for s in samples], n=100, method="inclusive")
        classes = by_class(samples)
        medians = {cls: statistics.median(v) for cls, v in classes.items()}
        round_wall = statistics.median(r.wall_s for r in plain)
        report.end_to_end = {
            "ops_per_s": len(plain[0].samples) / round_wall,
            "op_gmean_ms": statistics.geometric_mean(medians.values()) * 1e3,
            "op_p50_ms": cuts[49] * 1e3,
            "op_p95_ms": cuts[94] * 1e3,
            "op_p99_ms": cuts[98] * 1e3,
            **workload.counts(),
        }
        report.classes = {
            cls: {"median_ms": medians[cls] * 1e3,
                  "samples": len(classes[cls])}
            for cls in sorted(classes)
        }
        if trace:
            report.per_layer = layer_report(
                workload, tracer, plain, traced, medians
            )
            if trace_path is not None:
                tracer.dump(trace_path)
        return report
    finally:
        workload.teardown()


def layer_report(workload: Workload, tracer: Tracer,
                 plain: list[RoundResult], traced: list[RoundResult],
                 medians: dict[str, float]) -> dict[str, float]:
    """Span times as mean milliseconds per traced op, plus whatever the
    workload read from stats objects."""
    ops = sum(len(r.samples) for r in traced) or 1
    totals = tracer.totals()
    out = {f"{name}_ms": row["total_s"] * 1e3 / ops
           for name, row in totals.items()}
    # PassManager.execute encloses the analysis pass; report the two apart.
    out["core.place_ms"] = (
        out.get("core.place_ms", 0.0) - out.get("core.analyze_ms", 0.0)
    )
    out.update(workload.layer_metrics(totals))
    plain_wall = statistics.median(r.wall_s for r in plain)
    traced_wall = statistics.median(r.wall_s for r in traced)
    out["trace.overhead_pct"] = (traced_wall / plain_wall - 1.0) * 100.0
    out["trace.span_coverage"] = tracer.coverage(totals)
    pairs = [
        medians[cls] / medians[cls.replace(":comb", ":orig")]
        for cls in medians
        if ":comb" in cls and cls.replace(":comb", ":orig") in medians
    ]
    out["evaluation.comb_over_orig_time"] = (
        statistics.geometric_mean(pairs) if pairs else 0.0)
    return out


def peak_rss_mib() -> float:
    """Largest resident set of this process or of any process it has
    waited for (rank processes, pool workers), in MiB; Linux reports
    KiB."""
    return max(
        resource.getrusage(who).ru_maxrss
        for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
    ) / 1024.0
