"""Threaded carrier: one worker thread per rank.

The protocol — round loop, wire integrity, NACK/retransmit repair,
crash recovery, watchdog — is the shared driver in
:mod:`repro.transport.base` over the sans-IO core in
:mod:`repro.transport.integrity`.  This module supplies only what
threads over in-process queues do differently:

* **channels** — a :class:`~repro.transport.base.Channel` over a
  ``queue.SimpleQueue`` per (src, dst) pair: a receiver with nothing to
  read blocks in the queue's own ``get`` and is woken by the ``put``;
* **frames** — ``(op_id, seq, crc, buf, count, pooled)``: the payload
  travels *in* the frame, in a buffer the sender rents from the pair's
  :class:`~repro.transport.base.BufferPool` and the receiver returns
  after install — steady-state rounds allocate nothing;
* **retransmit source** — a per-channel outbox dict the sender fills
  with a pristine copy of every in-flight payload (chaos only;
  GIL-atomic writes, keyed ``(op_id, seq)``);
* **death and respawn** — an injected crash raises
  :class:`~repro.transport.integrity.ChaosCrash`, which ends the worker
  thread without a completion; liveness is ``Thread.is_alive`` and a
  dead rank gets a fresh thread;
* **checkpoint** — copies of every rank's numpy storage;
* **stuck-rank report** — besides the status block, each stuck
  worker's Python stack from ``sys._current_frames``.
"""

from __future__ import annotations

import queue
import sys
import threading
import traceback

from .base import (
    BufferPool,
    Channel,
    ConcurrentTransport,
    RankPort,
    StatusBlock,
    _worker_loop,
    pack_payload,
    unpack_payload,
)
from .integrity import ChaosCrash, payload_crc
from .lowering import SCALAR_BYTES


def _give_back(pool: BufferPool, frame: tuple) -> None:
    """Return the pooled buffer ``frame`` owns, if it owns one (reduce
    frames and injected duplicates do not)."""
    if len(frame) == 6 and frame[5]:
        pool.give(frame[3])


class _ThreadPort(RankPort):
    """Rank endpoint over the transport's shared in-process state."""

    def __init__(self, transport: "ThreadedTransport", rank: int) -> None:
        self.rank = rank
        self.nranks = transport.nranks
        self.chaos = transport.chaos
        self.watchdog_s = transport.watchdog_s
        self.abort = transport._abort
        self.barrier = transport._barrier
        self.status = transport._status
        self.last_recv = transport._last_recv
        self.chans = transport._chan
        self._transport = transport
        self._stores: dict = {}  # this rank's storage, bound per operation
        self._pools = transport._pools
        self._local_pool = transport._local_pools[rank]
        self._outbox = transport._outbox

    def begin_op(self, wire) -> None:
        self._stores = self._transport.storage[self.rank]
        # Last operation's pristine copies are dead: the collector held
        # every receiver's completion of it before submitting this one.
        for dst in range(self.nranks):
            if dst != self.rank:
                self._outbox[(self.rank, dst)].clear()

    def views(self, array: str):
        store = self._stores[array]
        return store.values, store.valid

    def stage(self, s, rs, op_id: int) -> tuple:
        pair = (self.rank, s.dst)
        count = s.nbytes // SCALAR_BYTES
        pool = self._pools[pair]
        buf = pool.rent(count, rs)
        try:
            pack_payload(self._stores[s.array].values, s, buf[:count])
        except BaseException:
            pool.give(buf)  # nothing was posted: the buffer is still ours
            raise
        crc = payload_crc(buf[:count])
        if self.chaos is not None:
            self._outbox[pair][(op_id, s.seq)] = buf[:count].copy()
        return (op_id, s.seq, crc, buf, count, True)

    def payload(self, frame: tuple):
        return frame[3][:frame[4]]

    def duplicate(self, frame: tuple) -> tuple:
        return (*frame[:3], self.payload(frame).copy(), frame[4], False)

    def release(self, pair, frame: tuple) -> None:
        _give_back(self._pools[pair], frame)

    def retransmit(self, pair, op_id: int, seq: int):
        return self._outbox[pair].get((op_id, seq))

    def local_copy(self, s, rs) -> None:
        values, valid = self.views(s.array)
        count = s.nbytes // SCALAR_BYTES
        buf = self._local_pool.rent(count, rs)
        try:
            pack_payload(values, s, buf[:count])
            unpack_payload(values, valid, s, buf[:count])
        finally:
            self._local_pool.give(buf)

    def die(self) -> None:
        raise ChaosCrash(self.rank)


class ThreadedTransport(ConcurrentTransport):
    """Worker-per-rank execution over per-pair in-process channels."""

    name = "threaded"

    def __init__(self, nranks: int, watchdog_s: float = 30.0) -> None:
        super().__init__(nranks, watchdog_s)
        self.stats.backend = self.name
        self._status = StatusBlock([0] * (nranks * StatusBlock.STRIDE))
        self._chan = {
            (s, d): Channel(queue.SimpleQueue(), self._status, d)
            for s in range(nranks) for d in range(nranks) if s != d
        }
        # One send-buffer pool per channel (rented by the sender,
        # returned by the receiver after install) plus one per rank for
        # staging local copies; reused across rounds and operations.
        self._pools = {pair: BufferPool() for pair in self._chan}
        self._local_pools = [BufferPool() for _ in range(nranks)]
        self._outbox: dict = {pair: {} for pair in self._chan}
        self._cmd = [queue.SimpleQueue() for _ in range(nranks)]
        self._results: queue.SimpleQueue = queue.SimpleQueue()
        self._abort = threading.Event()
        self._barrier = threading.Barrier(nranks)
        self._last_recv = [-1] * (nranks * nranks)
        self._threads: list = [None] * nranks
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    def start(self, storage: dict) -> None:
        super().start(storage)
        if self._started:
            return
        for rank in range(self.nranks):
            self._spawn(rank)
        self._started = True

    def _spawn(self, rank: int) -> None:
        t = threading.Thread(
            target=_worker_loop,
            args=(_ThreadPort(self, rank), self._cmd[rank], self._results),
            name=f"transport-rank-{rank}", daemon=True,
        )
        t.start()
        self._threads[rank] = t

    def shutdown(self) -> None:
        if not self._started:
            return
        self._abort.set()
        for rank in range(self.nranks):
            self._cmd[rank].put(("stop",))
        for t in self._threads:
            t.join(timeout=5.0)
        self._started = False
        # Return any undelivered pooled frames so pool conservation
        # (free_count == misses) holds even after an aborted run.
        self._drain()

    # -- carrier hooks -----------------------------------------------------

    def _alive(self, rank: int) -> bool:
        return self._threads[rank].is_alive()

    def _snapshot(self) -> dict:
        return {
            rank: {
                name: (store.values.copy(), store.valid.copy())
                for name, store in stores.items()
            }
            for rank, stores in self.storage.items()
        }

    def _restore(self, snapshot: dict) -> None:
        for rank, stores in snapshot.items():
            for name, (values, valid) in stores.items():
                store = self.storage[rank][name]
                store.values[:] = values
                store.valid[:] = valid

    def _drain(self) -> None:
        while True:
            try:
                self._results.get_nowait()
            except queue.Empty:
                break
        for pair, chan in self._chan.items():
            for frame in chan.drain():
                _give_back(self._pools[pair], frame)

    def _stacks(self, missing: set[int]) -> dict[int, str]:
        frames = sys._current_frames()
        return {
            rank: "".join(traceback.format_stack(frames[t.ident]))
            for rank, t in enumerate(self._threads)
            if rank in missing and t.ident in frames
        }
