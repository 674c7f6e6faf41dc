"""Shared analysis context for the placement passes.

Bundles everything the core algorithm consumes — elaborated program facts,
the augmented CFG, dominators, SSA, the dependence tester, the section
builder, and the pattern classifier — so each pass takes a single
argument and the pipeline builds the whole stack once.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm.entries import CommEntry, SectionBuilder
from ..comm.patterns import PatternClassifier
from ..cost.model import CostModel, resolve_machine
from ..dependence.tests import DependenceTester
from ..frontend.analysis import ProgramInfo
from ..ir.cfg import CFG, Node, Position
from ..ir.dominators import DominatorInfo
from ..ir.ssa import SSA
from ..machine.model import MachineModel
from ..perf.stats import CacheStatsRegistry


#: The accepted values of each enumerated option, the paper's choice first.
OPTION_CHOICES: dict[str, tuple[str, ...]] = {
    "greedy_order": ("constrained", "arbitrary", "reversed"),
    "group_placement": ("latest", "earliest"),
    "placement_search": ("greedy", "ilp"),
}


@dataclass
class CompilerOptions:
    """Tuning knobs for the placement algorithm.

    ``machine`` names the :class:`~repro.machine.model.MachineModel` the
    program is compiled *for* (a preset name or a calibrated model
    instance); the combining threshold is derived from its Figure 5 knee
    by :class:`~repro.cost.model.CostModel` — ~18 KB on the SP2 preset,
    replacing the paper's hand-read 20 KB.  ``combine_threshold_bytes``
    is an explicit byte override for ablations and tests (``None`` means
    "derive from the machine").  ``hull_slack`` and ``hull_const`` bound
    how much larger the single-descriptor union may be than the two
    sections it replaces (§4.7's "small constant").  ``greedy_order``
    exists for the ablation benchmarks: ``constrained`` is the paper's
    most-constrained-first rule.  A pass is dropped by naming it in
    ``disabled_passes`` — e.g. ``("subset",)``, which the paper's §6 says
    overlap optimization would need.

    The enumerated options (:data:`OPTION_CHOICES`) and ``machine`` are
    checked on construction: an unknown value raises ``ValueError``
    before anything compiles.
    """

    combine_threshold_bytes: int | None = None
    machine: str | MachineModel = "SP2"
    hull_slack: float = 0.25
    hull_const: int = 64
    greedy_order: str = "constrained"
    # §6.2 extension: let a reduction's combine phase slide later, down to
    # the first use of its result (reversed reached-uses analysis).
    reduction_flexibility: bool = False
    # Final group placement: 'latest' is the paper's choice (reduce buffer
    # and cache contention); 'earliest' maximizes CPU-network overlap (§6's
    # trade-off, exercised by the overlap ablation benchmark).
    group_placement: str = "latest"
    # Fault boundaries: by default a failing optimization pass degrades to
    # the sound LATEST placement (per-entry where possible) and records a
    # DegradationEvent; strict=True re-raises instead, for tests and
    # debugging (see repro.core.faults).
    strict: bool = False
    # Final combining pass: 'greedy' is the paper's §4.7 heuristic; 'ilp'
    # uses the exact §6.1 branch-and-bound where tractable, degrading to
    # greedy when the search space is exceeded.
    placement_search: str = "greedy"
    # Wall-clock budget for the whole-pipeline exact placement search
    # (the 'exact' pipeline, see repro.solver).  The anytime driver
    # always returns its best incumbent — the greedy comb schedule when
    # the budget expires before any improvement; <= 0 skips the search
    # entirely and keeps the greedy seed.
    solver_budget_ms: int = 1000
    # Pass-manager configuration (see repro.core.passes).  Optimization
    # passes named here are skipped (CLI --disable-pass); a non-None
    # pass_pipeline replaces the strategy's named pass list outright with
    # an explicit ordering (CLI --pipeline a,b,c).  Orderings other than
    # the defaults are for experiments: the manager keeps every run sound
    # via the Latest-placement terminal fallback, but schedules may lose
    # optimizations that depend on the canonical §4.5→§4.6→§4.7 order.
    disabled_passes: tuple[str, ...] = ()
    pass_pipeline: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        resolve_machine(self.machine)
        for name, choices in OPTION_CHOICES.items():
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(
                    f"unknown {name} {value!r} (expected one of: "
                    f"{', '.join(choices)})"
                )


class AnalysisContext:
    """All compiler analyses for one elaborated, scalarized program."""

    def __init__(self, info: ProgramInfo, options: CompilerOptions | None = None) -> None:
        self.info = info
        self.options = options or CompilerOptions()
        # The single accessor every combining pass (greedy, ILP, exact
        # solver) reads the message-size threshold through.
        self.cost_model = CostModel(
            machine=resolve_machine(self.options.machine),
            override_threshold_bytes=self.options.combine_threshold_bytes,
        )
        self.cfg = CFG(info.program)
        self.dom = DominatorInfo(self.cfg)
        tracked = set(info.layouts) | set(info.scalars)
        self.ssa = SSA(self.cfg, self.dom, tracked)
        self.cache_stats = CacheStatsRegistry()
        self.tester = DependenceTester(
            info, self.cfg, stats=self.cache_stats.get("dependence")
        )
        self.sections = SectionBuilder(
            info, self.cfg, stats=self.cache_stats.get("section")
        )
        self.classifier = PatternClassifier(info)
        # Pass-level verdict caches (paper §4.6/§4.7 predicates).  Both
        # predicates depend on the queried Position only through its
        # *node* — sections and live ranges are per-node — so verdicts are
        # keyed so every position of a block shares one entry.  The
        # subsumption cache is split into a static stage keyed on the
        # ordered Use-identity pair (Use objects live as long as the SSA,
        # i.e. as long as this context) and a section stage keyed on the
        # ordered pair of hash-consed descriptor ids (the builder's intern
        # pool holds strong references, so ids are stable); both survive
        # entry re-collection, which mints fresh entry ids every round.
        self._combinable_cache: dict[tuple[int, int, int], bool] = {}
        self._subsumes_static_cache: dict[tuple[int, int], bool] = {}
        self._subsumes_section_cache: dict[tuple[int, int], bool] = {}

    # -- position helpers -------------------------------------------------------

    def node_of(self, pos: Position) -> Node:
        return self.cfg.node_by_id(pos.node_id)

    def position_dominates(self, a: Position, b: Position) -> bool:
        return self.dom.position_dominates(a, b)

    def positions_in_node(
        self, node: Node, start: int = -1, end: int | None = None
    ) -> list[Position]:
        if end is None:
            end = len(node.stmts) - 1
        position = self.cfg.position
        return [position(node.id, i) for i in range(start, end + 1)]

    # -- entry discovery -----------------------------------------------------------

    def collect_entries(self) -> list[CommEntry]:
        """One :class:`CommEntry` per distributed-array use that needs
        communication, in program order."""
        distributed = {
            name for name in self.info.layouts if self.info.is_distributed(name)
        }
        entries: list[CommEntry] = []
        for use in self.ssa.array_uses(distributed):
            pattern = self.classifier.classify(use)
            if pattern is None:
                continue
            entries.append(CommEntry(use=use, pattern=pattern))
        return entries

    def describe_position(self, pos: Position) -> str:
        node = self.node_of(pos)
        if pos.index < 0:
            return f"top of {node.label or node.kind}"
        stmt = node.stmts[pos.index]
        return f"after s{stmt.sid} ({stmt})"
