"""Figure 10 (table): static communication call-site counts.

Reproduces the compile-time statistics table of the paper: for each
benchmark routine, the number of static communication call sites emitted
by the three compiler versions (``orig`` / ``nored`` / ``comb``), split by
communication type (NNC vs. SUM).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.pipeline import Strategy, compile_all_strategies
from .programs import BENCHMARKS, PAPER_TABLE

# Our program name -> (paper benchmark, paper routine, comm kind filters).
ROUTINE_MAP = {
    ("shallow", "main", "NNC"): ("shallow", "shift"),
    ("gravity", "main", "NNC"): ("gravity", "shift"),
    ("gravity", "main", "SUM"): ("gravity", "reduction"),
    ("trimesh", "normdot", "NNC"): ("trimesh", "shift"),
    ("trimesh", "gauss", "NNC"): ("trimesh_gauss", "shift"),
    ("hydflo", "flux", "NNC"): ("hydflo_flux", "shift"),
    ("hydflo", "hydro", "NNC"): ("hydflo_hydro", "shift"),
}


@dataclass(frozen=True)
class TableRow:
    """One row of the Figure 10 message-count table."""

    benchmark: str
    routine: str
    comm_type: str
    orig: int
    nored: int
    comb: int
    paper: tuple[int, int, int]

    @property
    def measured(self) -> tuple[int, int, int]:
        return (self.orig, self.nored, self.comb)

    @property
    def matches_paper(self) -> bool:
        return self.measured == self.paper


def build_table() -> list[TableRow]:
    """Compile every benchmark under every strategy and collect the rows."""
    counts: dict[str, dict[str, dict[str, int]]] = {}
    for program, source in BENCHMARKS.items():
        counts[program] = {
            strat.value: result.call_sites_by_kind()
            for strat, result in compile_all_strategies(source).items()
        }

    rows: list[TableRow] = []
    for key, paper_counts in PAPER_TABLE.items():
        benchmark, routine, comm_type = key
        program, kind = ROUTINE_MAP[key]
        rows.append(
            TableRow(
                benchmark=benchmark,
                routine=routine,
                comm_type=comm_type,
                orig=counts[program][Strategy.ORIG.value].get(kind, 0),
                nored=counts[program][Strategy.EARLIEST.value].get(kind, 0),
                comb=counts[program][Strategy.GLOBAL.value].get(kind, 0),
                paper=paper_counts,
            )
        )
    return rows


def format_table(rows: list[TableRow]) -> str:
    lines = [
        f"{'Benchmark':10s} {'Routine':8s} {'Type':4s} "
        f"{'orig':>5s} {'nored':>6s} {'comb':>5s}   paper (o/n/c)   match",
        "-" * 72,
    ]
    for r in rows:
        p = "/".join(str(x) for x in r.paper)
        lines.append(
            f"{r.benchmark:10s} {r.routine:8s} {r.comm_type:4s} "
            f"{r.orig:5d} {r.nored:6d} {r.comb:5d}   {p:>13s}   "
            f"{'YES' if r.matches_paper else 'no'}"
        )
    return "\n".join(lines)


def main() -> None:
    print(format_table(build_table()))


if __name__ == "__main__":
    main()
