"""The compilation pipeline and the three placement strategies.

* ``Strategy.ORIG`` ("orig" in the paper's Figure 10) — message
  vectorization only: every communication at its Latest point, no
  redundancy detection, no combining.  This is the classical single
  loop-nest treatment.
* ``Strategy.EARLIEST`` ("nored") — every communication hoisted to its
  Earliest point, with forward redundancy elimination (an earlier-placed,
  dominating communication that subsumes a later one kills it); no
  combining.  This models earliest-placement dataflow schemes.
* ``Strategy.GLOBAL`` ("comb") — the paper's algorithm: candidate marking
  (§4.4), subset elimination (§4.5), global redundancy elimination (§4.6),
  and greedy combining with push-late group placement (§4.7).

:func:`compile_program` runs parse → elaborate → scalarize → CFG/SSA →
classify → place and returns a :class:`CompilationResult` with the
schedule, counts, per-pass traces, and everything needed by the
simulator and reports.

Placement itself is orchestrated by the :class:`~repro.core.passes.PassManager`:
each strategy is a named pass list (see :data:`repro.core.passes.PIPELINES`),
and every optimization pass runs inside the manager's **fault boundary**
(see :mod:`repro.core.faults`): because ``Latest(u)`` is always a sound
placement, a pass that raises degrades — per-entry for the analyses,
whole-pass with :meth:`PlacementState.clone` snapshot/rollback for the
set-shrinking passes — instead of failing the compile.
``CompilerOptions(strict=True)`` turns the boundaries off.

The pass implementations are invoked through *this module's namespace*
(``pipeline.subset_eliminate`` and so on), so chaos harnesses can break
any pass with a single ``monkeypatch.setattr`` on this module.
"""

from __future__ import annotations

import enum
import gc
import threading
from dataclasses import dataclass, field
from typing import Optional, TextIO

from ..comm.entries import CommEntry
from ..errors import InternalCompilerError, ReproError
from ..frontend import ast_nodes as ast
from ..frontend.analysis import ProgramInfo, elaborate
from ..frontend.parser import parse
from ..frontend.scalarizer import scalarize
from ..ir.cfg import Position
from .candidates import mark_candidates, verify_candidates
from .context import AnalysisContext, CompilerOptions
from .earliest import compute_earliest
from .faults import DegradationEvent
from .greedy import greedy_choose, ilp_choose
from .latest import compute_latest
from .passes import (
    PassManager,
    PassTrace,
    PlacementPass,
    PlacementRun,
    register_pass,
)
from .redundancy import redundancy_eliminate, subsumes_at
from .state import PlacedComm, PlacementState
from .subset import subset_eliminate


class Strategy(enum.Enum):
    """Compiler versions of the paper's evaluation (Figure 10)."""

    ORIG = "orig"
    EARLIEST = "nored"
    GLOBAL = "comb"

    @staticmethod
    def parse(name: "str | Strategy") -> "Strategy":
        if isinstance(name, Strategy):
            return name
        lowered = name.lower()
        aliases = {
            "orig": Strategy.ORIG,
            "original": Strategy.ORIG,
            "latest": Strategy.ORIG,
            "nored": Strategy.EARLIEST,
            "earliest": Strategy.EARLIEST,
            "redundancy": Strategy.EARLIEST,
            "comb": Strategy.GLOBAL,
            "global": Strategy.GLOBAL,
            "combined": Strategy.GLOBAL,
        }
        if lowered not in aliases:
            raise ValueError(f"unknown strategy {name!r}")
        return aliases[lowered]


@dataclass
class CompilationResult:
    """Everything produced by one compile: analyses, entries, schedule.

    ``degradations`` lists every fault-boundary fallback taken during this
    compile (empty for a clean run); the schedule is sound either way.
    ``pass_traces`` holds one :class:`~repro.core.passes.PassTrace` per
    executed pass — wall time, degradation flag, and counters — surfaced
    by the CLI's ``--trace-json`` and the service response.
    ``execution_image`` belongs to :mod:`repro.runtime.spmd`: what the
    first execution of this result worked out about running it, reused
    by every later one and freed with the result.
    """

    ctx: AnalysisContext
    strategy: Strategy
    entries: list[CommEntry]
    placed: list[PlacedComm]
    stats: dict[str, int] = field(default_factory=dict)
    degradations: list[DegradationEvent] = field(default_factory=list)
    pass_traces: list[PassTrace] = field(default_factory=list)
    execution_image: object = field(default=None, compare=False, repr=False)

    @property
    def degraded(self) -> bool:
        return bool(self.degradations)

    @property
    def info(self) -> ProgramInfo:
        return self.ctx.info

    @property
    def program(self) -> ast.Program:
        return self.ctx.info.program

    def call_sites(self) -> int:
        """Static communication call sites (the paper's message counts:
        a combined group is a single site)."""
        return len(self.placed)

    def call_sites_by_kind(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for pc in self.placed:
            counts[pc.kind] = counts.get(pc.kind, 0) + 1
        return counts

    def eliminated_entries(self) -> list[CommEntry]:
        return [e for e in self.entries if not e.alive]


def analyze_entries(
    ctx: AnalysisContext,
    faults: list[DegradationEvent] | None = None,
) -> list[CommEntry]:
    """Discover entries and compute Latest/Earliest/candidates for each.

    Each per-entry analysis runs inside a fault boundary: a failing
    ``compute_latest`` pins the entry immediately before its use (the most
    conservative sound point); a failing ``compute_earliest`` or candidate
    marking collapses the entry's flexibility to Latest alone.  Events go
    into ``faults``; ``strict`` options re-raise.
    """
    strict = ctx.options.strict
    if faults is None:
        faults = []
    entries = ctx.collect_entries()
    for entry in entries:
        try:
            compute_latest(ctx, entry)
        except Exception as exc:
            if strict:
                raise
            entry.comm_level = entry.use.node.nl
            entry.latest_pos = ctx.cfg.position_before(entry.use.stmt)
            faults.append(DegradationEvent.from_exception(
                "latest", exc, "pinned immediately before the use", entry
            ))
        try:
            compute_earliest(ctx, entry)
        except Exception as exc:
            if strict:
                raise
            entry.earliest_pos = entry.latest_pos
            faults.append(DegradationEvent.from_exception(
                "earliest", exc, "no hoisting (Earliest := Latest)", entry
            ))
        try:
            mark_candidates(ctx, entry)
            verify_candidates(ctx, entry)
        except Exception as exc:
            if strict:
                raise
            assert entry.latest_pos is not None
            entry.earliest_pos = entry.latest_pos
            entry.candidates = [entry.latest_pos]
            entry._candidate_set = None
            faults.append(DegradationEvent.from_exception(
                "candidates", exc, "single-position chain at Latest", entry
            ))
    return entries


def _reset_eliminations(entries: list[CommEntry]) -> None:
    """Undo every redundancy-elimination mark so all entries are alive
    again (the precondition for the latest-placement fallback)."""
    for entry in entries:
        entry.eliminated_by = None
        entry.absorbed = []


def _latest_placement(entries: list[CommEntry]) -> list[PlacedComm]:
    """The always-sound schedule: every entry, alone, at its Latest point
    (identical to ``Strategy.ORIG``)."""
    placed = [PlacedComm(e.latest_pos, [e]) for e in entries if e.latest_pos]
    placed.sort(key=lambda pc: pc.position)
    return placed


def place(
    ctx: AnalysisContext,
    entries: list[CommEntry],
    strategy: Strategy,
    faults: list[DegradationEvent] | None = None,
    traces: list[PassTrace] | None = None,
    dump_after: tuple[str, ...] = (),
    dump_stream: Optional[TextIO] = None,
) -> tuple[list[PlacedComm], dict[str, int]]:
    """Run one placement strategy over analyzed entries.

    Thin wrapper over the :class:`~repro.core.passes.PassManager`: the
    strategy resolves to a pass list (honoring ``options.pass_pipeline``,
    ``options.disabled_passes``, and ``options.placement_search``) and
    the manager supplies the snapshot/rollback fault boundary, the
    degradation events, and — when ``traces`` is given — one
    :class:`PassTrace` per executed pass.
    """
    if faults is None:
        faults = []
    manager = PassManager.for_strategy(
        strategy, ctx.options, dump_after=dump_after, dump_stream=dump_stream
    )
    run = manager.execute(ctx, entries, faults, traces)
    return run.placed, run.stats


def _place_earliest(
    ctx: AnalysisContext, entries: list[CommEntry], stats: dict[str, int]
) -> list[PlacedComm]:
    """Earliest placement with forward redundancy elimination only."""

    def dominance_key(entry: CommEntry) -> tuple[int, int, int]:
        pos = entry.earliest_pos
        assert pos is not None
        node = ctx.node_of(pos)
        return (ctx.dom.dominator_depth(node), pos.index, entry.id)

    def covers(winner: CommEntry, loser: CommEntry) -> bool:
        p, lp = winner.earliest_pos, loser.earliest_pos
        assert p is not None and lp is not None
        # Earliest-placement redundancy is backward-looking availability:
        # the winner must already be placed at (or above) the loser's point
        # — this is exactly why the scheme misses Figure 4's b1/b2 pair —
        # and its placement must be a valid delivery point for the loser's
        # data (inside the loser's candidate chain), subsuming it there.
        return (
            ctx.position_dominates(p, lp)
            and p in loser.candidate_set()
            and subsumes_at(ctx, winner, loser, p)
        )

    kept: list[CommEntry] = []
    redundant = 0
    for entry in sorted(entries, key=dominance_key):
        killer = next((prior for prior in kept if covers(prior, entry)), None)
        if killer is not None:
            entry.eliminated_by = killer.id
            killer.absorbed.append(entry)
            redundant += 1
            continue
        # Pairwise check both ways (paper: each pair of entries placed at a
        # point is tested): this entry may subsume an already-kept one.
        for prior in list(kept):
            if covers(entry, prior):
                prior.eliminated_by = entry.id
                entry.absorbed.append(prior)
                kept.remove(prior)
                redundant += 1
        kept.append(entry)
    stats["redundant"] = redundant
    placed = [PlacedComm(e.earliest_pos, [e]) for e in kept if e.earliest_pos]
    placed.sort(key=lambda pc: pc.position)
    return placed


# ---------------------------------------------------------------------------
# Pipeline-level passes (analysis and the two single-pass strategies).
# The set-shrinking/combining passes register next to their
# implementations in subset.py / redundancy.py / greedy.py / ilp.py.
# ---------------------------------------------------------------------------


@register_pass
class AnalyzePass(PlacementPass):
    """§4.2–4.4: Latest/Earliest walks and candidate-chain construction.

    Fault handling is *per entry* inside :func:`analyze_entries` (a flaky
    analysis pins one entry, not the whole program), so the manager's
    whole-pass boundary stays out of the way: an exception escaping the
    per-entry boundaries is a structural failure and propagates.
    """

    name = "analyze"
    section = "§4.2-4.4"
    description = "Latest/Earliest analysis and candidate chains, per entry"
    optimization = False  # the algorithm cannot run without its inputs
    sound = True

    def run(self, run: PlacementRun) -> Optional[dict[str, int]]:
        run.entries = analyze_entries(run.ctx, run.faults)
        return None


@register_pass
class LatestPlacementPass(PlacementPass):
    """§4.2 terminal pass: every entry, alone, at its Latest point.

    This *is* the soundness floor every boundary falls back to, so it has
    no fault boundary of its own — a failure here is a compiler bug and
    surfaces as :class:`InternalCompilerError`.
    """

    name = "latest-placement"
    section = "§4.2"
    description = "message-vectorized baseline: each entry at Latest"
    optimization = False
    sound = True

    def run(self, run: PlacementRun) -> Optional[dict[str, int]]:
        run.placed = _latest_placement(run.entries)
        return None


@register_pass
class EarliestPlacementPass(PlacementPass):
    """§4.3-style dataflow scheme: Earliest placement plus forward
    redundancy elimination (the ``nored`` column of Figure 10)."""

    name = "earliest-placement"
    section = "§4.3"
    description = "hoist to Earliest with forward redundancy elimination"
    mutates_entries = True  # forward elimination marks roll back on fault
    fallback_desc = "every entry at its Latest point"

    def run(self, run: PlacementRun) -> dict[str, int]:
        from . import pipeline as pl  # late: monkeypatchable namespace

        run.placed = pl._place_earliest(run.ctx, run.entries, run.stats)
        return {"redundant": run.stats.get("redundant", 0)}

    def recover(self, run: PlacementRun) -> dict[str, int]:
        run.placed = _latest_placement(run.entries)
        return {"redundant": 0}


class _CollectorQuiet:
    """One compile is one collector-quiet region.

    A compile is a bounded batch allocation whose objects almost all
    survive into the returned result, so generational passes triggered
    mid-compile traverse the caller's heap and find nothing.  The region
    pauses the cyclic collector while any compile is inside (compiles may
    nest or run on several threads) and puts back what the outermost one
    found: a collector its caller had disabled stays disabled.  It never
    collects; the interpreter's thresholds do, on the first allocation
    after the region.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self) -> None:
        with self._lock:
            if self._depth == 0:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc_info: object) -> None:
        # ``release()`` takes no arguments where leaving a ``with`` block
        # builds a tuple for the lock's ``__exit__``: once the collector
        # is back on, nothing here allocates, so the young pass over the
        # compile's survivors runs in the caller, after the result is its.
        self._lock.acquire()
        try:
            self._depth -= 1
            if self._depth == 0 and self._was_enabled:
                gc.enable()
        finally:
            self._lock.release()


_collector_quiet = _CollectorQuiet()


def _compile(
    source: "str | ast.Program",
    params: dict[str, int] | None,
    strategies: "list[Strategy]",
    opts: CompilerOptions,
    dump_after: tuple[str, ...],
    dump_stream: Optional[TextIO],
) -> list[CompilationResult]:
    """The front half (parse → elaborate → scalarize → elaborate →
    analysis context) once, then one pass pipeline per strategy over that
    context, all inside the collector-quiet region and the crash-free
    frontier: any failure surfaces as a :class:`ReproError` subclass — an
    unexpected exception (a compiler bug) is wrapped in
    :class:`InternalCompilerError` rather than escaping raw, unless
    ``opts.strict`` asks for the original."""
    results: list[CompilationResult] = []
    with _collector_quiet:
        try:
            program = parse(source) if isinstance(source, str) else source
            info = elaborate(program, params)
            scalarized = scalarize(program, info)
            info = elaborate(scalarized, params)
            ctx = AnalysisContext(info, opts)
            for strat in strategies:
                faults: list[DegradationEvent] = []
                traces: list[PassTrace] = []
                manager = PassManager.for_strategy(
                    strat, opts, include_analysis=True,
                    dump_after=dump_after, dump_stream=dump_stream,
                )
                run = manager.execute(ctx, [], faults, traces)
                results.append(CompilationResult(
                    ctx, strat, run.entries, run.placed, run.stats, faults, traces
                ))
        except ReproError:
            raise
        except Exception as exc:
            if opts.strict:
                raise
            raise InternalCompilerError(
                f"unexpected {type(exc).__name__} during compilation: {exc}"
            ) from exc
    return results


def compile_program(
    source: "str | ast.Program",
    params: dict[str, int] | None = None,
    strategy: "str | Strategy" = Strategy.GLOBAL,
    options: CompilerOptions | None = None,
    dump_after: tuple[str, ...] = (),
    dump_stream: Optional[TextIO] = None,
) -> CompilationResult:
    """Front door: compile mini-HPF source (or a parsed program) and place
    its communication with the chosen strategy.

    ``dump_after`` names passes whose working state should be dumped as
    text (to ``dump_stream``, default stdout) right after they run.

    Crash-free frontier: any failure surfaces as a :class:`ReproError`
    subclass — an unexpected exception (a compiler bug) is wrapped in
    :class:`InternalCompilerError` rather than escaping raw.  With
    ``options.strict`` the raw exception propagates unwrapped, so tests
    can assert on the original type.
    """
    strat = Strategy.parse(strategy)  # bad strategy names raise ValueError
    # Subscripted, not unpacked: unpacking may allocate an iterator, and
    # the first allocation after the quiet region runs the young pass.
    return _compile(
        source, params, [strat], options or CompilerOptions(),
        dump_after, dump_stream,
    )[0]


def compile_all_strategies(
    source: "str | ast.Program",
    params: dict[str, int] | None = None,
    options: CompilerOptions | None = None,
    dump_after: tuple[str, ...] = (),
    dump_stream: Optional[TextIO] = None,
) -> dict[Strategy, CompilationResult]:
    """Compile once per strategy over one shared analysis context.

    The frontend (parse → elaborate → scalarize) and the analysis stack
    (CFG, dominators, SSA, section builder, classifier) are strategy-
    independent, so the Figure-10 workflow builds them once; entries are
    still re-collected per strategy because placement mutates them
    (``eliminated_by``/``absorbed``).  Sharing the context also shares
    its memoized verdict caches, so later strategies hit the section and
    subsumption caches the first strategy warmed.
    """
    strategies = list(Strategy)
    results = _compile(
        source, params, strategies, options or CompilerOptions(),
        dump_after, dump_stream,
    )
    return dict(zip(strategies, results))
