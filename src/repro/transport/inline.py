"""Inline transport: the deterministic, fault-free sequential reference.

Executes every lowered round in plan order inside the calling thread —
snapshot all payloads first, then install — which is exactly the
delivery semantics the concurrent backends must reproduce.  A reduce
walks the rounds of its lowering the same way, each rank's side a
:class:`~repro.transport.base._TreeWalk`.  No real concurrency, but
full wire accounting: every non-local send is counted as a message with
its payload bytes, so the measured-vs-predicted cross-check exercises
the same code path as the threaded and multiprocess backends.  Every
payload is checksummed as on the wire; faults are never injected here
(:func:`~repro.transport.make_transport` refuses ``chaos=`` for this
backend).
"""

from __future__ import annotations

import time

import numpy as np

from .base import (
    OpReceipt,
    RankOpStats,
    Transport,
    TransportError,
    _TreeWalk,
    install,
    pack,
    reduce_args,
)
from .integrity import payload_crc
from .lowering import SCALAR_BYTES, LoweredComm, lower_reduction


def _views(stores: dict):
    """One rank's ``array -> (values, valid)`` lookup, as
    :func:`~repro.transport.base.pack` and ``install`` take it."""

    def views(array: str):
        store = stores[array]
        return store.values, store.valid

    return views


class InlineTransport(Transport):
    """Sequential in-process execution of lowered schedules."""

    name = "inline"

    def __init__(self, nranks: int, watchdog_s: float = 30.0) -> None:
        super().__init__(nranks, watchdog_s)
        self.stats.backend = self.name

    def execute(self, lowered: LoweredComm) -> OpReceipt:
        self._check_alive()

        views = [_views(self.storage[rank]) for rank in range(self.nranks)]

        def fill(s, out):
            pack(views[s.src], s, out)

        def deliver(s, payload):
            install(views[s.dst], s, payload)

        receipt = self._run(lowered, fill, deliver)
        self.stats.count_op(lowered.members, bool(lowered.rounds))
        return receipt

    def reduce(self, trees, ops):
        self._check_alive()
        sizes, vectors, ops = reduce_args(trees, ops, self.nranks)
        lowered = lower_reduction(sizes, self.nranks)
        walks = [_TreeWalk(vectors[rank], ops) for rank in range(self.nranks)]
        receipt = self._run(
            lowered,
            lambda s, out: walks[s.src].fill(s, out),
            lambda s, payload: walks[s.dst].deliver(s, payload),
        )
        self.stats.reduces += len(ops)
        self.stats.count_op(lowered.members, True)
        return [list(walks[0].result(t)) for t in range(len(ops))], receipt

    def _run(self, lowered: LoweredComm, fill, deliver) -> OpReceipt:
        """Run ``lowered`` round by round: ``fill`` a fresh buffer for
        every send of a round, then check and ``deliver`` each."""
        receipt = OpReceipt(algorithm=lowered.algorithm)
        # An operation without a round involves no rank: empty receipt.
        ranks = range(self.nranks) if lowered.rounds else ()
        per_rank = {r: RankOpStats() for r in ranks}
        for rnd in lowered.rounds:
            staged = []
            for s in rnd:
                t0 = time.perf_counter()
                payload = np.empty(s.nbytes // SCALAR_BYTES)
                fill(s, payload)
                staged.append((s, payload, payload_crc(payload)))
                per_rank[s.src].send_s += time.perf_counter() - t0
            for s, payload, crc in staged:
                t0 = time.perf_counter()
                if payload_crc(payload) != crc:
                    raise TransportError(
                        f"inline transport: checksum mismatch (seq {s.seq})"
                    )
                deliver(s, payload)
                rs = per_rank[s.dst]
                rs.recv_s += time.perf_counter() - t0
                if s.is_local:
                    rs.local_copies += 1
                else:
                    per_rank[s.src].count_send(s.src, s.dst, s.nbytes)
        for rank, rs in per_rank.items():
            receipt.absorb(rank, rs)
            self.stats.absorb(rank, rs)
        return receipt
