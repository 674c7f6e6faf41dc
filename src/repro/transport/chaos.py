"""Runtime degradation records for chaos runs.

Fault injection itself has no class of its own:
:func:`repro.transport.make_transport` arms the backend it builds with a
:class:`~repro.transport.integrity.ChaosState` over the seeded
:class:`~repro.transport.integrity.FaultPlan` (``attach_chaos``), and
the backend's own data paths consult the plan at every wire event —
injection has to live where the wire lives, because drops, duplicates,
corruption, delays, reordering, and crashes are per-send decisions
taken inside worker threads/processes.  The fault ledger is
``transport.chaos.ledger()``.

:class:`RuntimeDegradationEvent` is the runtime sibling of the
compile-side :class:`~repro.core.faults.DegradationEvent`: one record
per recovery action the runtime took (rank restart, deadlock-triggered
inline re-execution, restart-budget exhaustion), rendered as a W07xx
warning :class:`~repro.errors.Diagnostic` so ``--diagnostics-json``
consumers see compile-time and runtime degradations in one stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..errors import (
    DEADLOCK_DEGRADED_CODE,
    RANK_RESTART_CODE,
    RESTARTS_EXHAUSTED_CODE,
    Diagnostic,
)

#: W07xx code per degradation reason.
_REASON_CODES = {
    "rank_restart": RANK_RESTART_CODE,
    "deadlock": DEADLOCK_DEGRADED_CODE,
    "restarts_exhausted": RESTARTS_EXHAUSTED_CODE,
}


@dataclass(frozen=True)
class RuntimeDegradationEvent:
    """One recorded runtime recovery action.

    ``reason`` is one of ``rank_restart`` (a crashed worker was
    restarted and the operation replayed from its checkpoint — the run
    still completed on the requested backend), ``deadlock`` (the
    watchdog fired under chaos and the program was re-executed on the
    inline backend), ``restarts_exhausted`` (rank crashes outran
    ``max_rank_restarts`` and the program was re-executed inline).
    """

    reason: str
    backend: str
    detail: str
    fallback: str
    ranks: tuple = ()

    @property
    def code(self) -> str:
        return _REASON_CODES[self.reason]

    def diagnostic(self) -> Diagnostic:
        return Diagnostic(
            code=self.code,
            severity="warning",
            message=(
                f"{self.backend} transport degraded ({self.reason}): "
                f"{self.detail}; fallback: {self.fallback}"
            ),
            phase="runtime",
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "code": self.code,
            "reason": self.reason,
            "backend": self.backend,
            "ranks": list(self.ranks),
            "detail": self.detail,
            "fallback": self.fallback,
        }
