"""Inline transport: the deterministic, fault-free sequential reference.

Executes every lowered round in plan order inside the calling thread —
snapshot all payloads first, then install — which is exactly the
delivery semantics the concurrent backends must reproduce.  No real
concurrency, but full wire accounting: every non-local send is counted
as a message with its payload bytes, so the measured-vs-predicted
cross-check exercises the same code path as the threaded and
multiprocess backends.  Every payload is checksummed as on the wire;
faults are never injected here (:func:`~repro.transport.make_transport`
refuses ``chaos=`` for this backend).
"""

from __future__ import annotations

import time

import numpy as np

from .base import (
    OpReceipt,
    RankOpStats,
    Transport,
    TransportError,
    combine_batch,
    install,
    pack,
    reduce_batch,
)
from .integrity import payload_crc
from .lowering import SCALAR_BYTES, LoweredComm, reduction_tree


class InlineTransport(Transport):
    """Sequential in-process execution of lowered schedules."""

    name = "inline"

    def __init__(self, nranks: int, watchdog_s: float = 30.0) -> None:
        super().__init__(nranks, watchdog_s)
        self.stats.backend = self.name

    def execute(self, lowered: LoweredComm) -> OpReceipt:
        self._check_alive()
        receipt = OpReceipt(algorithm=lowered.algorithm)
        # An operation without a round involves no rank: empty receipt.
        ranks = range(self.nranks) if lowered.rounds else ()
        per_rank = {r: RankOpStats() for r in ranks}
        for rnd in lowered.rounds:
            staged = []
            for s in rnd:
                t0 = time.perf_counter()
                payload = np.empty(s.nbytes // SCALAR_BYTES)
                pack(self.storage[s.src][s.array].values, s, payload)
                staged.append((s, payload, payload_crc(payload)))
                per_rank[s.src].send_s += time.perf_counter() - t0
            for s, payload, crc in staged:
                t0 = time.perf_counter()
                if payload_crc(payload) != crc:
                    raise TransportError(
                        f"inline transport: checksum mismatch (seq {s.seq})"
                    )
                store = self.storage[s.dst][s.array]
                install(store.values, store.valid, s, payload)
                rs = per_rank[s.dst]
                rs.recv_s += time.perf_counter() - t0
                if s.is_local:
                    rs.local_copies += 1
                else:
                    per_rank[s.src].count_send(s.src, s.dst, s.nbytes)
        for rank, rs in per_rank.items():
            receipt.absorb(rank, rs)
            self.stats.absorb(rank, rs)
        self.stats.count_op(lowered.members, bool(lowered.rounds))
        return receipt

    def reduce(self, trees, ops):
        self._check_alive()
        held, ops = reduce_batch(trees, ops, self.nranks)
        receipt = OpReceipt(algorithm="reduce-tree")
        per_rank = {r: RankOpStats() for r in range(self.nranks)}
        gather = reduction_tree(self.nranks)
        values = []
        for t, tree_ops in enumerate(ops):
            acc = {rank: {rank: held[rank][t]} for rank in held}
            for rnd in gather:
                for src, dst in rnd:
                    nbytes = SCALAR_BYTES * sum(
                        int(v.size) for vecs in acc[src].values() for v in vecs
                    )
                    per_rank[src].count_send(src, dst, nbytes)
                    acc[dst].update(acc[src])
                    acc[src] = {}
            values.append(list(combine_batch(acc[0], tree_ops)))
            for rnd in reversed(gather):
                for dst, src in rnd:  # the gather edge, walked backwards
                    per_rank[src].count_send(
                        src, dst, SCALAR_BYTES * len(tree_ops)
                    )
        for rank, rs in per_rank.items():
            receipt.absorb(rank, rs)
            self.stats.absorb(rank, rs)
        self.stats.reduces += len(ops)
        self.stats.count_op(("reduce-tree",) * len(ops), True)
        return values, receipt
