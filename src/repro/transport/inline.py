"""Inline transport: the deterministic sequential reference backend.

Executes every lowered round in plan order inside the calling thread —
snapshot all payloads first, then install — which is exactly the
delivery semantics the concurrent backends must reproduce.  No real
concurrency, but full wire accounting: every non-local send is counted
as a message with its payload bytes, so the measured-vs-predicted
cross-check exercises the same code path as the threaded and
multiprocess backends.
"""

from __future__ import annotations

import time

import numpy as np

from .base import (
    BufferPool,
    OpReceipt,
    RankOpStats,
    Transport,
    TransportError,
    combine_batch,
    pack_payload,
    reduce_batch,
    unpack_payload,
)
from .integrity import payload_crc
from .lowering import SCALAR_BYTES, LoweredComm, reduction_tree


class InlineTransport(Transport):
    """Sequential in-process execution of lowered schedules."""

    name = "inline"

    def __init__(self, nranks: int, watchdog_s: float = 30.0) -> None:
        super().__init__(nranks, watchdog_s)
        self.stats.backend = self.name
        # Single staging pool: the snapshot-then-install round structure
        # holds at most one round's payloads at a time, so the pool
        # reaches the widest round's buffer count and then stops
        # allocating for the rest of the run.
        self._pool = BufferPool()

    def execute(self, lowered: LoweredComm) -> OpReceipt:
        self._check_alive()
        chaos = self.chaos
        receipt = OpReceipt(algorithm=lowered.algorithm)
        # An operation without a round involves no rank: empty receipt.
        ranks = range(self.nranks) if lowered.rounds else ()
        per_rank = {r: RankOpStats() for r in ranks}
        for rnd in lowered.rounds:
            # Stage entries: (send, wire buf or None if dropped, count,
            # pristine copy, crc, duplicated).  Fault injection happens
            # at stage time, detection and repair at install time —
            # the sequential mirror of the concurrent backends'
            # sender/receiver split.
            staged = []
            for s in rnd:
                t0 = time.perf_counter()
                store = self.storage[s.src][s.array]
                count = s.nbytes // SCALAR_BYTES
                buf = self._pool.rent(count, per_rank[s.src])
                pack_payload(store.values, s, buf[:count])
                crc = payload_crc(buf[:count])
                pristine = None
                duplicated = False
                if chaos is not None and not s.is_local:
                    pristine = buf[:count].copy()
                    chaos.fires("delay", s.src, s.dst, s.seq)  # ledger only
                    if chaos.fires("drop", s.src, s.dst, s.seq):
                        self._pool.give(buf)
                        buf = None
                    elif chaos.fires("corrupt", s.src, s.dst, s.seq):
                        buf[:count].view(np.uint8)[0] ^= 0xFF
                    duplicated = chaos.fires("dup", s.src, s.dst, s.seq)
                entry = (s, buf, count, pristine, crc, duplicated)
                if (
                    chaos is not None and staged
                    and chaos.fires("reorder", s.src, s.dst, s.seq)
                ):
                    staged.insert(len(staged) - 1, entry)
                else:
                    staged.append(entry)
                per_rank[s.src].send_s += time.perf_counter() - t0
            for s, buf, count, pristine, crc, duplicated in staged:
                t0 = time.perf_counter()
                store = self.storage[s.dst][s.array]
                rs = per_rank[s.dst]
                if buf is None:  # dropped: NACK, install the retransmit
                    rs.nacks += 1
                    rs.retransmits += 1
                    rs.retrans_bytes += s.nbytes
                    unpack_payload(
                        store.values, store.valid, s, pristine[:count]
                    )
                else:
                    payload = buf[:count]
                    if payload_crc(payload) != crc:
                        rs.crc_failures += 1
                        if pristine is None:
                            raise TransportError(
                                f"inline transport: checksum mismatch "
                                f"on clean run (seq {s.seq})"
                            )
                        rs.retransmits += 1
                        rs.retrans_bytes += s.nbytes
                        payload = pristine[:count]
                    unpack_payload(store.values, store.valid, s, payload)
                    self._pool.give(buf)
                if duplicated:  # the duplicate frame is discarded
                    rs.dedup_drops += 1
                rs.recv_s += time.perf_counter() - t0
                if s.is_local:
                    rs.local_copies += 1
                else:
                    per_rank[s.src].count_send(s.src, s.dst, s.nbytes)
        for rank, rs in per_rank.items():
            receipt.absorb(rank, rs)
            self.stats.absorb(rank, rs)
        self.stats.count_op(lowered.members, bool(lowered.rounds))
        self._sync_injected()
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
