"""Message-passing transport layer.

Executes the communication plans of a compiled SPMD program as real
sends and receives through a pluggable :class:`~repro.transport.base.
Transport` interface:

* ``inline`` — deterministic sequential reference backend;
* ``threaded`` — one worker thread per rank over blocking per-pair
  queues with a real barrier;
* ``multiprocess`` — one OS process per rank over
  ``multiprocessing.shared_memory``.

:mod:`repro.transport.lowering` turns classified plans into collective
schedules (neighbor exchange, ring allgather, combining-tree
reductions); every backend records wire-level accounting that the
executor cross-checks against the plan-time predictions exactly.

:mod:`repro.transport.integrity` holds the wire-integrity layer as a
sans-IO protocol core (sequence numbers, CRC32 checksums, dedup,
NACK/retransmit) and the seeded deterministic fault plans that
:mod:`repro.transport.chaos` injects through any backend.  The two
concurrent backends share one driver (:mod:`repro.transport.base`) and
differ only in their carrier (``threaded.py``, ``mp.py``); ``inline``
is the independent sequential reference.  Injected rank crashes are
recovered by checkpoint/restart, and past the restart budget the
executor degrades gracefully to the ``inline`` backend.
"""

from __future__ import annotations

from .base import (
    DeadlockError,
    OpReceipt,
    RankCrashError,
    RankOpStats,
    Transport,
    TransportError,
    WireStats,
)
from .chaos import RuntimeDegradationEvent
from .inline import InlineTransport
from .integrity import KINDS, ChaosState, FaultPlan
from .lowering import (
    LoweredComm,
    ReduceLowering,
    SendOp,
    lower_comm,
    lower_reduction,
    reduction_tree,
)
from .mp import MultiprocessTransport
from .threaded import ThreadedTransport

#: Backend registry: name -> Transport subclass.
BACKENDS = {
    InlineTransport.name: InlineTransport,
    ThreadedTransport.name: ThreadedTransport,
    MultiprocessTransport.name: MultiprocessTransport,
}


def make_transport(
    spec: "str | Transport | None",
    nranks: int,
    watchdog_s: float = 30.0,
    chaos: "FaultPlan | str | None" = None,
    max_rank_restarts: int | None = None,
) -> Transport | None:
    """Resolve a transport spec: ``None`` (keep the legacy direct-copy
    path), a backend name from :data:`BACKENDS`, or an already-built
    :class:`Transport` instance (returned as-is, though ``chaos`` /
    ``max_rank_restarts`` are still applied).

    ``chaos`` arms fault injection on the backend itself: a
    :class:`FaultPlan` or a ``--chaos-spec`` string (see
    :meth:`FaultPlan.parse`).  The backend keeps its name and type; its
    fault ledger is ``transport.chaos.ledger()``.
    """
    if spec is None:
        return None
    if isinstance(spec, Transport):
        transport = spec
    else:
        try:
            cls = BACKENDS[spec]
        except KeyError:
            raise TransportError(
                f"unknown transport backend {spec!r}; "
                f"expected one of {sorted(BACKENDS)}"
            ) from None
        transport = cls(nranks, watchdog_s=watchdog_s)
    if max_rank_restarts is not None:
        transport.max_rank_restarts = max_rank_restarts
    if chaos is not None:
        if isinstance(chaos, str):
            chaos = FaultPlan.parse(chaos)
        # The multiprocess backend keeps the ledger in shared memory.
        make_state = getattr(transport, "make_chaos_state", None)
        transport.attach_chaos(
            make_state(chaos) if make_state is not None
            else ChaosState(chaos, transport.nranks),
        )
    return transport


__all__ = [
    "BACKENDS",
    "ChaosState",
    "DeadlockError",
    "FaultPlan",
    "InlineTransport",
    "KINDS",
    "LoweredComm",
    "MultiprocessTransport",
    "OpReceipt",
    "RankCrashError",
    "RankOpStats",
    "ReduceLowering",
    "RuntimeDegradationEvent",
    "SendOp",
    "ThreadedTransport",
    "Transport",
    "TransportError",
    "WireStats",
    "lower_comm",
    "lower_reduction",
    "make_transport",
    "reduction_tree",
]
