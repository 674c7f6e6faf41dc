"""The placement pass framework: one fault boundary, one trace format.

The paper's algorithm is explicitly a sequence of interdependent passes —
candidate generation (§4.4), subset elimination (§4.5), global redundancy
elimination (§4.6), greedy combining (§4.7) — and each strategy of the
Figure-10 evaluation is just a different pass list over the same analyzed
entries.  This module turns that structure into an explicit architecture:

* :class:`PlacementPass` — the pass protocol: a name, a paper-section
  tag, a ``run(PlacementRun)`` body returning per-pass counters, and
  declarative fault-recovery metadata (what to roll back, what fallback
  to apply, what the :class:`~repro.core.faults.DegradationEvent` is
  called).
* :class:`PassManager` — owns ordering, enable/disable resolution, the
  whole-pass :meth:`PlacementState.clone` snapshot/rollback boundary,
  strict-mode re-raise, degradation-event emission, per-pass wall-time
  and counter collection (:class:`PassTrace`), and post-pass textual
  dumps (``--dump-after``).
* :data:`PIPELINES` — the named pass lists behind ``orig`` / ``nored`` /
  ``comb``; :func:`build_pipeline` resolves one plus
  :attr:`CompilerOptions.pass_pipeline` overrides and
  :attr:`CompilerOptions.disabled_passes`.

Soundness invariant (the reason one generic boundary suffices): the
Latest placement is always a correct schedule, every optimization pass is
an optional refinement, and every refinement's working state is either
the :class:`PlacementState` (snapshot/restored by the manager) or the
entries' elimination marks (reset by the manager when the pass declares
``mutates_entries``).  A pipeline that ends without a schedule — because
the combining pass was disabled or every pass degraded — falls back to
the Latest placement of all entries, with eliminations abandoned, since
an elimination is only sound if the final placement honors its coverage
constraints.

Pass *implementations* stay in their own modules (``subset.py``,
``redundancy.py``, ``greedy.py``, ``ilp.py``, ``pipeline.py``); each
registers a thin :class:`PlacementPass` adapter here.  Adapters invoke
the underlying functions **through the pipeline module namespace**
(``pipeline.subset_eliminate`` etc.) so test harnesses that monkeypatch
``repro.core.pipeline`` attributes keep working.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Any, Optional, TextIO

from ..comm.entries import CommEntry
from .context import AnalysisContext, CompilerOptions
from .faults import DegradationEvent
from .state import PlacedComm, PlacementState


def _pipeline():
    """The pipeline module, resolved late (it imports this module)."""
    from . import pipeline

    return pipeline


# ---------------------------------------------------------------------------
# Run state and traces
# ---------------------------------------------------------------------------


@dataclass
class PlacementRun:
    """Mutable state threaded through one pipeline execution."""

    ctx: AnalysisContext
    entries: list[CommEntry]
    faults: list[DegradationEvent]
    state: Optional[PlacementState] = None
    placed: Optional[list[PlacedComm]] = None
    stats: dict[str, int] = field(default_factory=dict)

    @property
    def options(self) -> CompilerOptions:
        return self.ctx.options


@dataclass
class PassTrace:
    """Structured record of one executed pass.

    ``stats`` holds the pass's own counters (e.g. ``subset_emptied``)
    plus the manager's generic ones: ``deactivated`` active candidate
    positions removed, ``eliminated`` entries killed, and ``cache_hits``
    across every memoized analysis cache, all measured as deltas over
    this pass alone.
    """

    name: str
    section: str
    wall_s: float
    degraded: bool = False
    stats: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {
            "pass": self.name,
            "section": self.section,
            "wall_s": round(self.wall_s, 6),
            "degraded": self.degraded,
            "stats": dict(self.stats),
        }


# ---------------------------------------------------------------------------
# The pass protocol
# ---------------------------------------------------------------------------


class PlacementPass:
    """Base class for placement passes.

    Subclasses set the class attributes and implement :meth:`run`; the
    manager supplies the fault boundary around it.  ``recover`` runs
    *after* the manager's generic rollback (state snapshot restore +
    elimination reset) and applies the pass's fallback result — it must
    leave the run in a sound state.
    """

    #: Registry key, ``--disable-pass`` / ``--dump-after`` name.
    name: str = ""
    #: Paper-section tag shown in traces and ``--list-passes``.
    section: str = ""
    description: str = ""
    #: Optimization passes may be disabled; structural passes may not.
    optimization: bool = True
    #: Needs a PlacementState (built lazily before the first such pass).
    needs_state: bool = False
    #: Snapshot/restore the PlacementState around the pass on fault.
    mutates_state: bool = False
    #: Reset entry elimination marks (``eliminated_by``/``absorbed``) on fault.
    mutates_entries: bool = False
    #: No fault boundary at all: a raise propagates even in non-strict
    #: mode (used for the terminal Latest placement, which has nothing
    #: sound left to fall back to).
    sound: bool = False
    #: DegradationEvent pass name on fault (defaults to ``name``).
    fault_name: Optional[str] = None
    #: Human description of the applied fallback, for the event record.
    fallback_desc: str = ""

    def run(self, run: PlacementRun) -> Optional[dict[str, int]]:
        raise NotImplementedError

    def recover(self, run: PlacementRun) -> Optional[dict[str, int]]:
        """Apply the fallback after a fault; returns stat overrides."""
        return None


def _enabled(p: PlacementPass, options: CompilerOptions) -> bool:
    """``disabled_passes`` is the one way to drop a pass, and only an
    optimization pass can be dropped."""
    return not (p.optimization and p.name in options.disabled_passes)


# ---------------------------------------------------------------------------
# Registry and named pipelines
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, PlacementPass] = {}


def register_pass(cls: type[PlacementPass]) -> type[PlacementPass]:
    """Class decorator: instantiate and register one pass singleton."""
    instance = cls()
    if not instance.name:
        raise ValueError(f"pass {cls.__name__} has no name")
    _REGISTRY[instance.name] = instance
    return cls


def registered_passes() -> dict[str, PlacementPass]:
    """Every registered pass, importing the defining modules first."""
    _pipeline()  # importing the pipeline registers the standard passes
    from . import ilp  # noqa: F401  (lazily imported elsewhere: §6.1 pass)
    from .. import solver  # noqa: F401  (registers the 'exact' pass)

    return dict(_REGISTRY)


def resolve_pass(name: str) -> PlacementPass:
    passes = registered_passes()
    if name not in passes:
        known = ", ".join(sorted(passes))
        raise ValueError(f"unknown pass {name!r} (known: {known})")
    return passes[name]


#: The named pipeline configurations behind the three strategies.  Every
#: pipeline implicitly starts with the ``analyze`` pass (Latest/Earliest/
#: candidate analysis); these are the placement pass lists that follow.
PIPELINES: dict[str, tuple[str, ...]] = {
    "orig": ("latest-placement",),
    "nored": ("earliest-placement",),
    "comb": ("subset", "redundancy", "greedy"),
    # Whole-pipeline exact search (repro.solver): builds its own greedy
    # comb incumbent internally, so the single pass subsumes §4.5-§4.7.
    "exact": ("exact",),
}


def build_pipeline(
    strategy: "Any",
    options: CompilerOptions,
    include_analysis: bool = False,
) -> list[PlacementPass]:
    """Resolve the pass list for one strategy under the given options.

    ``options.pass_pipeline`` (a tuple of pass names) overrides the
    strategy's named pipeline outright; ``options.placement_search ==
    'ilp'`` swaps the exact §6.1 combiner in for the greedy one;
    ``options.disabled_passes`` filtering happens at execution time so a
    built manager stays reusable across option tweaks.
    """
    if options.pass_pipeline is not None:
        names = list(options.pass_pipeline)
    else:
        names = list(PIPELINES[strategy.value])
        if options.placement_search == "ilp":
            names = ["ilp" if n == "greedy" else n for n in names]
    if include_analysis and "analyze" not in names:
        names.insert(0, "analyze")
    return [resolve_pass(name) for name in names]


# ---------------------------------------------------------------------------
# The manager
# ---------------------------------------------------------------------------


class PassManager:
    """Runs a pass list over analyzed entries with one shared fault
    boundary, per-pass tracing, and optional post-pass dumps."""

    def __init__(
        self,
        passes: list[PlacementPass],
        dump_after: "tuple[str, ...] | frozenset[str]" = (),
        dump_stream: Optional[TextIO] = None,
    ) -> None:
        self.passes = list(passes)
        self.dump_after = frozenset(dump_after)
        self.dump_stream = dump_stream

    @classmethod
    def for_strategy(
        cls,
        strategy: "Any",
        options: CompilerOptions,
        include_analysis: bool = False,
        **kwargs: Any,
    ) -> "PassManager":
        return cls(
            build_pipeline(strategy, options, include_analysis), **kwargs
        )

    # -- execution ----------------------------------------------------------

    def execute(
        self,
        ctx: AnalysisContext,
        entries: list[CommEntry],
        faults: list[DegradationEvent],
        traces: Optional[list[PassTrace]] = None,
    ) -> PlacementRun:
        """Run every enabled pass; the returned run always carries a
        sound schedule in ``run.placed``."""
        run = PlacementRun(
            ctx=ctx,
            entries=entries,
            faults=faults,
            stats={"entries": len(entries)},
        )
        for p in self.passes:
            if p.name == "analyze":
                # Analysis replaces the entry list wholesale.
                self._run_pass(p, run, traces)
                run.stats["entries"] = len(run.entries)
                continue
            if not _enabled(p, ctx.options):
                continue
            self._run_pass(p, run, traces)
        if run.placed is None:
            self._terminal_fallback(run)
        return run

    def _run_pass(
        self,
        p: PlacementPass,
        run: PlacementRun,
        traces: Optional[list[PassTrace]],
    ) -> None:
        ctx = run.ctx
        strict = ctx.options.strict
        if p.needs_state and run.state is None:
            run.state = PlacementState(ctx, run.entries)
        boundary = not strict and not p.sound
        snapshot = (
            run.state.clone()
            if boundary and run.state is not None and p.mutates_state
            else None
        )
        active_before = self._active_positions(run)
        eliminated_before = self._eliminated(run)
        hits_before = self._cache_hits(ctx)
        degraded = False
        t0 = time.perf_counter()
        try:
            pass_stats = p.run(run) or {}
        except Exception as exc:
            if not boundary:
                raise
            degraded = True
            if snapshot is not None:
                run.state = snapshot
            if p.mutates_entries:
                _pipeline()._reset_eliminations(run.entries)
            run.faults.append(
                DegradationEvent.from_exception(
                    p.fault_name or p.name, exc, p.fallback_desc
                )
            )
            pass_stats = p.recover(run) or {}
        wall = time.perf_counter() - t0
        run.stats.update(pass_stats)
        if traces is not None:
            counters = dict(pass_stats)
            counters["deactivated"] = max(
                0, active_before - self._active_positions(run)
            )
            counters["eliminated"] = max(
                0, self._eliminated(run) - eliminated_before
            )
            counters["cache_hits"] = self._cache_hits(ctx) - hits_before
            traces.append(
                PassTrace(
                    name=p.name,
                    section=p.section,
                    wall_s=wall,
                    degraded=degraded,
                    stats=counters,
                )
            )
        if p.name in self.dump_after:
            self.dump(p.name, run)

    def _terminal_fallback(self, run: PlacementRun) -> None:
        """No pass produced a schedule (combining disabled, or every
        refinement degraded): emit the always-sound Latest placement.
        Eliminations are abandoned — they are only sound under a final
        placement that honors their coverage constraints."""
        pl = _pipeline()
        if any(e.eliminated_by is not None for e in run.entries):
            pl._reset_eliminations(run.entries)
        if "redundant" in run.stats:
            run.stats["redundant"] = 0
        run.placed = pl._latest_placement(run.entries)

    # -- trace counters ------------------------------------------------------

    @staticmethod
    def _active_positions(run: PlacementRun) -> int:
        if run.state is None:
            return 0
        return sum(len(ps) for ps in run.state.active.values())

    @staticmethod
    def _eliminated(run: PlacementRun) -> int:
        return sum(1 for e in run.entries if e.eliminated_by is not None)

    @staticmethod
    def _cache_hits(ctx: AnalysisContext) -> int:
        return sum(s.hits for s in ctx.cache_stats.stats.values())

    # -- dumps ---------------------------------------------------------------

    def dump(self, pass_name: str, run: PlacementRun) -> None:
        stream = self.dump_stream or sys.stdout
        stream.write(format_state_dump(pass_name, run))
        stream.write("\n")


def format_state_dump(pass_name: str, run: PlacementRun) -> str:
    """Textual dump of the CommSet/PlacementState working sets, suitable
    for eyeballing what a pass did (``--dump-after PASS``)."""
    ctx = run.ctx
    alive = [e for e in run.entries if e.alive]
    lines = [
        f"== dump after pass '{pass_name}': "
        f"{len(alive)}/{len(run.entries)} entries alive =="
    ]
    labels = {e.id: e.label for e in run.entries}
    for e in run.entries:
        if e.eliminated_by is not None:
            lines.append(
                f"  {e.label:16s} ELIMINATED by {labels[e.eliminated_by]}"
            )
            continue
        chain = e.candidates or []
        if run.state is not None:
            active = run.state.stmt_set(e)
            marks = [
                ("*" if p in active else "-") + ctx.describe_position(p)
                for p in chain
            ]
            lines.append(
                f"  {e.label:16s} active {len(active)}/{len(chain)}: "
                + "; ".join(marks)
            )
        else:
            span = []
            if e.earliest_pos is not None:
                span.append(f"earliest={ctx.describe_position(e.earliest_pos)}")
            if e.latest_pos is not None:
                span.append(f"latest={ctx.describe_position(e.latest_pos)}")
            lines.append(
                f"  {e.label:16s} candidates {len(chain)}: " + ", ".join(span)
            )
    if run.state is not None:
        occupied = [
            p for p in run.state.all_positions() if run.state.comm_set(p)
        ]
        lines.append(f"  CommSet over {len(occupied)} positions:")
        for p in occupied:
            members = sorted(
                run.state.by_id[i].label for i in run.state.comm_set(p)
            )
            lines.append(
                f"    {ctx.describe_position(p):32s} {{{', '.join(members)}}}"
            )
    if run.placed is not None:
        lines.append(f"  schedule: {len(run.placed)} call sites")
        for pc in run.placed:
            labels = "+".join(e.label for e in pc.entries)
            lines.append(
                f"    {ctx.describe_position(pc.position):32s} {labels}"
            )
    return "\n".join(lines)


def list_passes(
    options: Optional[CompilerOptions] = None,
) -> list[dict[str, Any]]:
    """Rows for ``--list-passes``: every registered pass with its paper
    section, the pipelines that include it, and its enabled state under
    ``options`` (default options when omitted)."""
    opts = options or CompilerOptions()
    in_pipelines: dict[str, list[str]] = {}
    for pipe_name, names in PIPELINES.items():
        for n in names:
            in_pipelines.setdefault(n, []).append(pipe_name)
    in_pipelines.setdefault("analyze", ["all"])
    in_pipelines.setdefault("ilp", ["comb (placement_search=ilp)"])
    rows = []
    for name in sorted(registered_passes()):
        p = _REGISTRY[name]
        rows.append(
            {
                "name": p.name,
                "section": p.section,
                "pipelines": in_pipelines.get(name, []),
                "optimization": p.optimization,
                "enabled": _enabled(p, opts),
                "description": p.description,
            }
        )
    return rows


def format_pass_list(rows: list[dict[str, Any]]) -> str:
    header = (
        f"{'pass':20s} {'paper':10s} {'pipelines':28s} {'enabled':8s} "
        "description"
    )
    lines = [header, "-" * len(header)]
    for row in rows:
        flag = "yes" if row["enabled"] else "no"
        if not row["optimization"]:
            flag += " (always)"
        lines.append(
            f"{row['name']:20s} {row['section']:10s} "
            f"{', '.join(row['pipelines']):28s} {flag:8s} "
            f"{row['description']}"
        )
    return "\n".join(lines)
