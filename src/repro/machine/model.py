"""Parametric machine models standing in for the paper's testbeds.

The paper's §6.1 cost model is: a communication pattern costs each
processor ``C`` (startup) times the number of distinct partners, plus the
volume it sends/receives at the network's inverse bandwidth; a pattern
costs the max over processors; a program phase list costs the sum.  This
module provides that model plus the local ``bcopy`` (packing) cost with a
cache knee — the two curves of the paper's Figure 5 — for two presets:

* ``SP2``    — IBM SP2 with MPL: lower startup, higher bandwidth,
  256 KB L2; the paper derives a ~20 KB combining threshold from it.
* ``NOW``    — Berkeley NOW, SPARC + Myrinet with MPICH: higher startup,
  lower delivered bandwidth (the paper: "the SP2 network has lower
  overhead and higher bandwidth than the NOW").

Absolute constants are representative, not measured — the reproduction
targets curve *shapes* and ratios, as the task defines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class MachineModel:
    """Bulk-synchronous message-passing cost model for one platform."""

    name: str
    startup_s: float  # per-message receiver-visible overhead (the paper's C)
    inject_s: float  # sender-side injection overhead (Fig 5 middle curve)
    bandwidth_bps: float  # asymptotic network bandwidth, bytes/second
    bcopy_cache_bps: float  # local copy bandwidth while buffers fit in cache
    bcopy_mem_bps: float  # local copy bandwidth beyond the cache
    cache_bytes: int  # effective cache size (the Fig 5 knee)
    flops: float  # per-processor useful FLOP rate
    # Software overhead the HPF runtime adds per message over the raw
    # network startup: section-descriptor interpretation, tag matching,
    # and the bulk-synchronous completion wait (the paper ran with overlap
    # disabled).  Charged by the simulator, not by the raw Fig 5 curves.
    sw_overhead_s: float = 0.0

    # -- point-to-point -------------------------------------------------------

    def message_time(self, nbytes: int) -> float:
        """Receiver-completion time of one message (Fig 5 bottom curve)."""
        return self.startup_s + nbytes / self.bandwidth_bps

    def injection_time(self, nbytes: int) -> float:
        """Sender-side busy time for one message."""
        return self.inject_s + nbytes / self.bandwidth_bps

    def network_bandwidth(self, nbytes: int) -> float:
        """Delivered bandwidth at a given message size (for Fig 5)."""
        if nbytes <= 0:
            return 0.0
        return nbytes / self.message_time(nbytes)

    def injection_bandwidth(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        return nbytes / self.injection_time(nbytes)

    # -- local copies -----------------------------------------------------------

    def bcopy_time(self, nbytes: int) -> float:
        """Time to gather/scatter ``nbytes`` through a local buffer.

        Below the cache size the fast rate applies; above it, the excess
        runs at memory speed (the Fig 5 top-curve knee).
        """
        if nbytes <= 0:
            return 0.0
        in_cache = min(nbytes, self.cache_bytes)
        beyond = max(0, nbytes - self.cache_bytes)
        return in_cache / self.bcopy_cache_bps + beyond / self.bcopy_mem_bps

    def bcopy_bandwidth(self, nbytes: int) -> float:
        if nbytes <= 0:
            return 0.0
        return nbytes / self.bcopy_time(nbytes)

    # -- collective operations --------------------------------------------------

    def reduce_time(self, nbytes: int, procs: int) -> float:
        """Binary-tree combine (+ broadcast of the result) over ``procs``."""
        if procs <= 1:
            return 0.0
        rounds = math.ceil(math.log2(procs))
        return rounds * self.message_time(nbytes)

    def allreduce_time(self, nbytes: int, procs: int) -> float:
        if procs <= 1:
            return 0.0
        rounds = 2 * math.ceil(math.log2(procs))
        return rounds * self.message_time(nbytes)

    def allgather_time(self, nbytes_total: int, procs: int) -> float:
        """Ring allgather of a section of ``nbytes_total`` bytes."""
        if procs <= 1:
            return 0.0
        rounds = procs - 1
        per_round = max(1, nbytes_total // procs)
        return rounds * self.message_time(per_round)

    def compute_time(self, flop_count: float) -> float:
        return flop_count / self.flops


SP2 = MachineModel(
    name="SP2",
    startup_s=40e-6,
    inject_s=26e-6,
    bandwidth_bps=34e6,
    bcopy_cache_bps=180e6,
    bcopy_mem_bps=75e6,
    cache_bytes=256 * 1024,
    flops=110e6,
    sw_overhead_s=95e-6,
)

NOW = MachineModel(
    name="NOW",
    startup_s=115e-6,
    inject_s=70e-6,
    bandwidth_bps=17e6,
    bcopy_cache_bps=110e6,
    bcopy_mem_bps=55e6,
    cache_bytes=1024 * 1024,
    flops=28e6,
    sw_overhead_s=880e-6,
)

MACHINES = {"SP2": SP2, "NOW": NOW}
