"""Threaded carrier: one worker thread per rank.

The protocol — round loop, wire integrity, NACK/retransmit repair,
crash recovery, watchdog — is the shared driver in
:mod:`repro.transport.base` over the sans-IO core in
:mod:`repro.transport.integrity`.  This module supplies only what
threads over in-process queues do differently:

* **channels** — a :class:`~repro.transport.base.Channel` over a
  ``queue.SimpleQueue`` per (src, dst) pair: a receiver with nothing to
  read blocks in the queue's own ``get`` and is woken by the ``put``;
* **frames** — ``(op_id, seq, crc, payload)``: the payload travels *in*
  the frame, a fresh array of exactly the send's size — packed from
  rank storage box by box (:func:`~repro.transport.base.pack`), or a
  reduce frame's partials — and never handed back; a duplicate is the
  same frame posted twice;
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

import numpy as np

from .base import (
    Channel,
    ConcurrentTransport,
    RankPort,
    StatusBlock,
    _worker_loop,
)
from .integrity import ChaosCrash, payload_crc
from .lowering import SCALAR_BYTES


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
        self._outbox = transport._outbox

    def begin_op(self, wire) -> None:
        self._stores = self._transport.storage[self.rank]
        if self.chaos is None:
            return  # nothing is ever put in the outbox
        # Last operation's pristine copies are dead: the collector held
        # every receiver's completion of it before submitting this one.
        for dst in range(self.nranks):
            if dst != self.rank:
                self._outbox[(self.rank, dst)].clear()

    def views(self, array: str):
        store = self._stores[array]
        return store.values, store.valid

    def stage(self, s, op_id: int, fill) -> tuple:
        payload = np.empty(s.nbytes // SCALAR_BYTES)
        fill(s, payload)
        crc = payload_crc(payload)
        if self.chaos is not None:
            self._outbox[(self.rank, s.dst)][(op_id, s.seq)] = payload.copy()
        return (op_id, s.seq, crc, payload)

    def payload(self, frame: tuple):
        return frame[3]

    def retransmit(self, pair, op_id: int, seq: int):
        return self._outbox[pair].get((op_id, seq))

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
        for chan in self._chan.values():
            chan.drain()

    def _stacks(self, missing: set[int]) -> dict[int, str]:
        frames = sys._current_frames()
        return {
            rank: "".join(traceback.format_stack(frames[t.ident]))
            for rank, t in enumerate(self._threads)
            if rank in missing and t.ident in frames
        }
