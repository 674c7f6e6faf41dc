"""ChaosTransport: fault injection around any transport backend.

:class:`ChaosTransport` implements the :class:`~repro.transport.base.
Transport` interface as a thin delegator around an inner backend.  Its
one real job happens before ``start``: it builds a :class:`~repro.
transport.integrity.ChaosState` from its seeded :class:`~repro.
transport.integrity.FaultPlan` and *arms* the inner backend with it
(``inner.attach_chaos``).  From then on the inner backend's own data
paths consult the plan at every wire event — injection has to live
where the wire lives, because drops, duplicates, corruption, delays,
reordering, and crashes are per-send decisions taken inside worker
threads/processes.  The wrapper keeps construction composable
(``ChaosTransport(make_transport("threaded", n), plan)`` works for any
backend) and owns the pieces that are backend-agnostic: the fault
ledger, restart budget, and the runtime degradation record type.

:class:`RuntimeDegradationEvent` is the runtime sibling of the
compile-side :class:`~repro.core.faults.DegradationEvent`: one record
per recovery action the runtime took (rank restart, deadlock-triggered
inline re-execution, restart-budget exhaustion), rendered as a W07xx
warning :class:`~repro.errors.Diagnostic` so ``--diagnostics-json``
consumers see compile-time and runtime degradations in one stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from ..errors import (
    DEADLOCK_DEGRADED_CODE,
    RANK_RESTART_CODE,
    RESTARTS_EXHAUSTED_CODE,
    Diagnostic,
)
from .base import OpReceipt, Transport
from .integrity import ChaosState, FaultPlan

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


class ChaosTransport(Transport):
    """Seeded fault injection wrapped around any backend.

    Delegates the whole :class:`Transport` lifecycle to ``inner`` —
    including ``stats``, so wire accounting (and the executor's exact
    parity asserts) read through unchanged — after arming it with a
    shared :class:`ChaosState` built from ``plan``.
    """

    name = "chaos"

    def __init__(
        self,
        inner: Transport,
        plan: FaultPlan,
        max_rank_restarts: int | None = None,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.nranks = inner.nranks
        self.watchdog_s = inner.watchdog_s
        self.name = f"chaos({inner.name})"
        state_factory = getattr(inner, "make_chaos_state", None)
        if state_factory is not None:
            state = state_factory(plan)
        else:
            state = ChaosState(plan, inner.nranks)
        inner.attach_chaos(state, max_rank_restarts)

    # Everything below is pure delegation: the inner backend owns the
    # wire, the workers, the stats, and the poisoning state.

    @property
    def chaos(self) -> ChaosState:
        return self.inner.chaos

    @chaos.setter
    def chaos(self, value) -> None:  # Transport.__init__ compatibility
        pass

    @property
    def stats(self):
        return self.inner.stats

    @stats.setter
    def stats(self, value) -> None:
        pass

    @property
    def max_rank_restarts(self) -> int:
        return self.inner.max_rank_restarts

    @max_rank_restarts.setter
    def max_rank_restarts(self, value) -> None:
        pass

    def create_storage(
        self, specs: Iterable[tuple[int, str, tuple[int, ...]]]
    ) -> dict:
        return self.inner.create_storage(specs)

    def start(self, storage: dict) -> None:
        self.inner.start(storage)

    def execute(self, lowered) -> OpReceipt:
        return self.inner.execute(lowered)

    def reduce(self, trees, ops) -> tuple[list, OpReceipt]:
        return self.inner.reduce(trees, ops)

    def shutdown(self) -> None:
        self.inner.shutdown()

    def ledger(self) -> dict[int, dict[str, int]]:
        """Per-rank injected-fault counts (see :meth:`ChaosState.ledger`)."""
        return self.inner.chaos.ledger()
