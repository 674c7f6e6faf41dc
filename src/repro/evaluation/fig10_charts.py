"""Figure 10 (bar charts b–f): normalized running times.

For each (machine, benchmark, problem-size sweep) the paper plots, this
module simulates the three compiler versions and reports running time
normalized to ``orig``, with the communication share broken out (the dark
bar segment of the paper's charts).

The reproduction targets *shape*: ``orig >= nored >= comb`` everywhere,
communication time cut by roughly 2-3x by the global algorithm, overall
gains in the 10-40% band at the paper's problem sizes, and relative gains
shrinking as compute grows with n.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.pipeline import Strategy, compile_all_strategies
from ..machine.model import MACHINES, MachineModel
from ..runtime.simulator import SimReport, simulate
from .programs import BENCHMARKS


@dataclass(frozen=True)
class ChartPoint:
    """One problem size of one chart: normalized totals and comm shares."""

    n: int
    total: dict[str, float]  # strategy -> seconds
    comm: dict[str, float]  # strategy -> seconds
    messages: dict[str, int]

    def normalized(self, strategy: str) -> float:
        return self.total[strategy] / self.total[Strategy.ORIG.value]

    def comm_share(self, strategy: str) -> float:
        return self.comm[strategy] / self.total[Strategy.ORIG.value]


@dataclass(frozen=True)
class Chart:
    """One panel of Figure 10."""

    key: str
    machine: str
    benchmark: str
    procs: tuple[int, int]
    points: list[ChartPoint]


# Panel id -> (machine, program, (pr, pc), sizes).  Sizes follow the
# paper's sweeps where it states them (NOW charts) and representative
# ranges elsewhere.
CHART_SPECS: dict[str, tuple[str, str, tuple[int, int], list[int]]] = {
    "10a-sp2-shallow": ("SP2", "shallow", (5, 5), [256, 384, 512, 768, 1024]),
    "10b-sp2-gravity": ("SP2", "gravity", (5, 5), [100, 150, 200, 250, 300]),
    "10c-now-shallow": ("NOW", "shallow", (4, 2), [400, 450, 500]),
    "10d-now-gravity": ("NOW", "gravity", (4, 2), [100, 124, 150, 174, 200, 224, 250]),
    "10e-sp2-trimesh": ("SP2", "trimesh", (5, 5), [192, 256, 320, 448, 512]),
    "10e-sp2-hydflo": ("SP2", "hydflo_flux", (5, 5), [28, 40, 56, 64]),
    "10f-now-trimesh": ("NOW", "trimesh", (4, 2), [192, 256, 320]),
    "10f-now-hydflo": ("NOW", "hydflo_hydro", (4, 2), [16, 24, 32, 40]),
}


def run_chart(key: str) -> Chart:
    machine_name, program, (pr, pc), sizes = CHART_SPECS[key]
    machine: MachineModel = MACHINES[machine_name]
    source = BENCHMARKS[program]
    points: list[ChartPoint] = []
    for n in sizes:
        params = {"n": n, "pr": pr, "pc": pc}
        results = compile_all_strategies(source, params=params)
        reports: dict[str, SimReport] = {
            strat.value: simulate(result, machine)
            for strat, result in results.items()
        }
        points.append(
            ChartPoint(
                n=n,
                total={k: r.total_time for k, r in reports.items()},
                comm={k: r.comm_time for k, r in reports.items()},
                messages={k: r.messages_per_proc for k, r in reports.items()},
            )
        )
    return Chart(key, machine_name, program, (pr, pc), points)


def run_all() -> list[Chart]:
    return [run_chart(key) for key in CHART_SPECS]


def format_chart(chart: Chart) -> str:
    strategies = [s.value for s in Strategy]
    lines = [
        f"== {chart.key}: {chart.benchmark} on {chart.machine} "
        f"(P = {chart.procs[0]}x{chart.procs[1]})"
    ]
    header = f"{'n':>6s}"
    for s in strategies:
        header += f" | {s:>5s} norm  comm"
    lines.append(header)
    for p in chart.points:
        row = f"{p.n:6d}"
        for s in strategies:
            row += f" |  {p.normalized(s):8.2f}  {p.comm_share(s):4.2f}"
        lines.append(row)
    return "\n".join(lines)


def main() -> None:
    for chart in run_all():
        print(format_chart(chart))
        print()


if __name__ == "__main__":
    main()
