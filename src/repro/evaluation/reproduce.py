"""One-shot reproduction driver: every paper artifact, checked.

``python -m repro reproduce`` runs the whole evaluation — the Figure 10
count table, the Figure 10 timing panels, the Figure 5 profiles, and the
dynamic validation oracles — and prints a consolidated PASS/FAIL summary
against the paper's claims.  This is the "does the reproduction hold"
button.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.pipeline import compile_all_strategies
from ..machine.model import MACHINES
from .fig5_profile import profile_machine
from .fig10_charts import CHART_SPECS, run_chart
from .fig10_table import build_table
from .programs import BENCHMARKS


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class Reproduction:
    checks: list[CheckResult] = field(default_factory=list)

    def record(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(CheckResult(name, passed, detail))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            line = f"  [{status}] {c.name}"
            if c.detail:
                line += f" — {c.detail}"
            lines.append(line)
        verdict = "ALL CHECKS PASSED" if self.ok else "SOME CHECKS FAILED"
        lines.append(f"\n{verdict} ({sum(c.passed for c in self.checks)}"
                     f"/{len(self.checks)})")
        return "\n".join(lines)


def check_fig10_table(repro: Reproduction) -> None:
    rows = build_table()
    for row in rows:
        repro.record(
            f"Fig 10 table: {row.benchmark}/{row.routine}/{row.comm_type}",
            row.matches_paper,
            f"measured {row.measured}, paper {row.paper}",
        )


def check_fig10_charts(repro: Reproduction) -> None:
    for key in CHART_SPECS:
        chart = run_chart(key)
        monotone = all(
            p.normalized("comb") <= p.normalized("nored") + 1e-9
            and p.normalized("nored") <= 1.0 + 1e-9
            for p in chart.points
        )
        cuts = [p.comm["orig"] / p.comm["comb"] for p in chart.points]
        repro.record(
            f"Fig 10 chart {key}",
            monotone and min(cuts) >= 1.2,
            f"comm cut {min(cuts):.1f}-{max(cuts):.1f}x, "
            f"best overall gain {1 - min(p.normalized('comb') for p in chart.points):.0%}",
        )


def check_fig5(repro: Reproduction) -> None:
    for name, machine in MACHINES.items():
        profile = profile_machine(machine)
        knee = profile.knee(0.8)
        repro.record(
            f"Fig 5 profile {name}",
            knee < machine.cache_bytes,
            f"amortization knee {knee} B < cache {machine.cache_bytes} B",
        )


def check_dynamic_oracles(repro: Reproduction) -> None:
    import numpy as np

    from ..runtime.checker import check_schedule
    from ..runtime.interp import interpret
    from ..runtime.spmd import execute_spmd

    small = {
        "shallow": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
        "gravity": {"n": 8, "pr": 2, "pc": 2},
        "trimesh": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
        "trimesh_gauss": {"n": 8, "nsweeps": 2, "pr": 2, "pc": 2},
        "hydflo_flux": {"n": 8, "nsteps": 1, "pr": 2, "pc": 2},
        "hydflo_hydro": {"n": 8, "nsteps": 2, "pr": 2, "pc": 2},
    }
    for program, params in small.items():
        results = compile_all_strategies(BENCHMARKS[program], params=params)
        try:
            for result in results.values():
                check_schedule(result)
                state, _ = execute_spmd(result)
                ref = interpret(result.info)
                for name in ref:
                    if not np.array_equal(state[name], ref[name]):
                        raise AssertionError(f"{name} diverged")
            repro.record(f"dynamic validation: {program}", True,
                         "checker + SPMD execution match sequential semantics")
        except Exception as exc:  # pragma: no cover - failure reporting
            repro.record(f"dynamic validation: {program}", False, str(exc))


def run_reproduction(include_charts: bool = True) -> Reproduction:
    repro = Reproduction()
    check_fig10_table(repro)
    if include_charts:
        check_fig10_charts(repro)
    check_fig5(repro)
    check_dynamic_oracles(repro)
    return repro


def main() -> int:
    repro = run_reproduction()
    print(repro.format())
    return 0 if repro.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
