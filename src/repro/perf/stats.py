"""Cache and runtime instrumentation: counters with derived rates.

Every memoized verdict cache in the pipeline records its traffic in a
:class:`CacheStats`, aggregated per :class:`~repro.core.context.AnalysisContext`
in a :class:`CacheStatsRegistry`.  The end-to-end benchmark's traced
runs read these to report hit rates; nothing in the compiler depends on
them, so the counters are plain ints (no locks — a context is
single-threaded by construction).

:class:`RuntimeStats` is the execution-side counterpart: the SPMD
executor (:mod:`repro.runtime.spmd`) counts messages, bytes, block
copies, plan-cache traffic, and vectorized-vs-fallback statement firings
in one; ``repro run`` prints it and the end-to-end benchmark reads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CacheStats:
    """Hit/miss counters for one cache."""

    name: str
    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits / lookups, 0.0 when the cache was never consulted."""
        n = self.lookups
        return self.hits / n if n else 0.0

    def as_dict(self) -> dict[str, float | int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __repr__(self) -> str:
        return (
            f"<cache {self.name}: {self.hits}/{self.lookups} hits "
            f"({self.hit_rate:.0%})>"
        )


@dataclass
class CacheStatsRegistry:
    """All cache counters of one compilation context."""

    stats: dict[str, CacheStats] = field(default_factory=dict)

    def get(self, name: str) -> CacheStats:
        entry = self.stats.get(name)
        if entry is None:
            entry = self.stats[name] = CacheStats(name)
        return entry

    def as_dict(self) -> dict[str, dict[str, float | int]]:
        return {name: s.as_dict() for name, s in sorted(self.stats.items())}


@dataclass
class RuntimeStats:
    """Execution counters for one SPMD run.

    The movement counters (``messages``, ``bytes_moved``, ``reductions``,
    ``remote_reads``) are the paper's §6.1 executed-cost numbers — the
    quantities the simulator predicts statically.  The rest instrument
    the plan-compile-then-execute runtime itself: ``bcopy_calls`` counts
    block extract/install operations (the runtime's unit of data
    movement), ``plan_compiles``/``plan_cache_hits`` the communication-
    plan cache, and ``vectorized_firings``/``fallback_firings`` how many
    loop-nest executions ran as fused kernels versus the element-wise
    interpreter path.  ``sections_verified`` counts the (rank, section)
    freshness tests — validity mask full, values equal to the sequential
    shadow — made by nest kernels, copy kernels, the interpreted copy
    loop, reductions and transport sends.  Nest kernels test the read
    *cover* (the fewest sections holding exactly a rank's reads of an
    array); per-element reads of the element-wise path are not sections
    and are not counted, so ``vectorize=False`` reports the nest
    kernels' share less (and ``bcopy_calls`` likewise).

    The kernel counters instrument the kernel layer
    (:mod:`repro.runtime.kernels`): ``kernel_compiles``/
    ``kernel_cache_hits`` the kernel templates built and reused (per
    nest geometry and per CommPlan), ``kernel_firings`` how many
    executions ran a template's bound rows (nest kernels and
    direct-copy communication kernels alike),
    and ``plan_translations`` how many CommPlan cache hits were served
    by translating a canonical plan to a shifted offset.

    Plans and kernels live in the result's execution image
    (:class:`repro.runtime.spmd.ExecutionImage`): a run that finds them
    there reports zero ``plan_compiles`` / ``plan_translations`` /
    ``kernel_compiles``, counts every lookup as a hit, and adds only its
    binding time to ``plan_compile_s``.  On a transport the image also
    keeps what the placed ops of each firing merge into (one wire
    operation per run of mutually independent ops): ``firing_merges``
    counts the firings a run had to lower and merge,
    ``firing_dep_tests`` the member-against-run dependence tests that
    took, and a warm run reports zero of both.  No other counter may
    differ between a first and a later run.
    """

    messages: int = 0
    bytes_moved: int = 0
    reductions: int = 0
    remote_reads: int = 0
    bcopy_calls: int = 0
    sections_verified: int = 0
    elements_written: int = 0
    plan_compiles: int = 0
    plan_cache_hits: int = 0
    plan_translations: int = 0
    vectorized_firings: int = 0
    fallback_firings: int = 0
    kernel_firings: int = 0
    kernel_compiles: int = 0
    kernel_cache_hits: int = 0
    plan_compile_s: float = 0.0
    #: Firings whose ops were lowered and merged into wire operations,
    #: and the dependence tests that took — both zero on a warm image.
    firing_merges: int = 0
    firing_dep_tests: int = 0
    # Fault-tolerance counters, synced from the transport's WireStats
    # after each run (all zero without chaos / a transport backend).
    faults_injected: int = 0
    faults_detected: int = 0
    retransmits: int = 0
    rank_restarts: int = 0
    recovery_s: float = 0.0
    #: Runtime degradation records (see :class:`repro.transport.chaos.
    #: RuntimeDegradationEvent.to_dict`), in occurrence order.
    degradations: list = field(default_factory=list)
    #: What the run's transport actually sent — its
    #: :class:`~repro.transport.base.WireStats` — beside the charged
    #: ``messages`` / ``bytes_moved``; ``None`` on the direct-copy path.
    wire: object = field(default=None, compare=False, repr=False)

    @property
    def plan_hit_rate(self) -> float:
        n = self.plan_compiles + self.plan_cache_hits
        return self.plan_cache_hits / n if n else 0.0

    def sync_faults(self, wire) -> None:
        """Absorb the fault-tolerance counters of a transport's
        :class:`~repro.transport.base.WireStats` (additive, so the
        counters survive a degraded re-execution on a fresh backend)."""
        if wire is None:
            return
        self.faults_injected += wire.faults_injected
        self.faults_detected += wire.faults_detected
        self.retransmits += wire.retransmits
        self.rank_restarts += wire.restarts
        self.recovery_s += wire.recovery_s

    def as_dict(self) -> dict[str, float | int]:
        return {
            "messages": self.messages,
            "bytes_moved": self.bytes_moved,
            "reductions": self.reductions,
            "remote_reads": self.remote_reads,
            "bcopy_calls": self.bcopy_calls,
            "sections_verified": self.sections_verified,
            "elements_written": self.elements_written,
            "plan_compiles": self.plan_compiles,
            "plan_cache_hits": self.plan_cache_hits,
            "plan_translations": self.plan_translations,
            "plan_hit_rate": round(self.plan_hit_rate, 4),
            "vectorized_firings": self.vectorized_firings,
            "fallback_firings": self.fallback_firings,
            "kernel_firings": self.kernel_firings,
            "kernel_compiles": self.kernel_compiles,
            "kernel_cache_hits": self.kernel_cache_hits,
            "plan_compile_s": round(self.plan_compile_s, 6),
            "firing_merges": self.firing_merges,
            "firing_dep_tests": self.firing_dep_tests,
            "faults_injected": self.faults_injected,
            "faults_detected": self.faults_detected,
            "retransmits": self.retransmits,
            "rank_restarts": self.rank_restarts,
            "recovery_s": round(self.recovery_s, 6),
            "degradations": list(self.degradations),
        }
