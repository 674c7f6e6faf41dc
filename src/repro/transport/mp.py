"""Multiprocess carrier: one OS process per rank.

The protocol — round loop, wire integrity, NACK/retransmit repair,
crash recovery, watchdog — is the shared driver in
:mod:`repro.transport.base` over the sans-IO core in
:mod:`repro.transport.integrity`.  This module supplies only what
processes over shared memory do differently:

* **storage** — rank storage lives in one
  ``multiprocessing.shared_memory`` arena (8-byte-aligned values +
  validity masks per (rank, array)); the main process and every worker
  map numpy views over the same segment, so compute results written by
  the executor are immediately visible to the rank that must send them;
* **channels** — a :class:`~repro.transport.base.Channel` over a
  pickling ``multiprocessing.Queue`` per (src, dst) pair (a pointwise
  round may post more tags than a pipe buffers, so this plane keeps
  the queue's feeder thread);
* **control plane** — one feeder-less pipe per rank and direction
  (:class:`_Pipe`): round scripts go down, per-op
  :class:`~repro.transport.base.RankOpStats` come back and are gathered
  with ``multiprocessing.connection.wait``.  At most one message is
  outstanding per pipe (a rank gets its next command only after the
  collector read its last completion) and each pipe has one writer, so
  there is no shared write lock a dying rank could hold;
* **frames** — the bare header tag ``(op_id, seq, crc)``.  The payload
  travels through a shared-memory *data* arena at the per-send offset
  the dispatcher assigned — a schedule send's or a reduce frame's
  alike: the sender writes the wire bytes there (for a schedule send,
  :func:`~repro.transport.base.pack`), then posts the tag; the
  queue's ordering is the happens-before edge that makes the bytes safe
  to read.  The arena is the wire, not a pool (the pool counters stay
  0); a duplicate is the same tag posted twice;
* **retransmit source** — a *mirror* arena (chaos only): the sender
  copies every pristine payload there and then publishes an
  ``(op_id << 32) | crc`` header in front of it, payload first, so a
  receiver repairing a loss reads it without the sender's involvement
  and can tell a torn or stale slot from a good one;
* **death and respawn** — an injected crash calls ``os._exit`` at a
  send boundary (a safe point holding no queue or barrier locks);
  liveness is ``Process.is_alive`` and a respawned worker re-attaches
  the shared segments by name and inherits its rank's two pipes;
* **checkpoint** — the bytes of the storage arena;
* **stuck-rank report** — the status block lives in shared memory and
  its heartbeat keeps counting while a rank waits on an empty queue;
  ``shutdown`` joins (or terminates) every worker so no zombie
  processes survive a deadlock.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import queue as queue_mod
import secrets
import time
from multiprocessing import connection, shared_memory

import numpy as np

from .base import (
    Channel,
    ConcurrentTransport,
    RankPort,
    StatusBlock,
    _worker_loop,
)
from .integrity import KINDS, ChaosState, payload_crc
from .lowering import SCALAR_BYTES

_ALIGN = 8


def _align(n: int) -> int:
    return (n + _ALIGN - 1) // _ALIGN * _ALIGN


def _np_views(sm: shared_memory.SharedMemory, entries):
    """(values, valid) views for ``entries`` of a storage layout table:
    (rank, name, shape, values_offset, valid_offset)."""
    views = {}
    for rank, name, shape, off_values, off_valid in entries:
        count = int(np.prod(shape)) if shape else 1
        values = np.ndarray(shape, dtype=np.float64, buffer=sm.buf,
                            offset=off_values)
        valid = np.ndarray(shape, dtype=bool, buffer=sm.buf,
                           offset=off_valid)
        assert values.size == count
        views[(rank, name)] = (values, valid)
    return views


def _f64_view(sm: shared_memory.SharedMemory, offset: int,
              count: int) -> np.ndarray:
    return np.ndarray((count,), dtype=np.float64, buffer=sm.buf,
                      offset=offset)


def _mirror_header(sm: shared_memory.SharedMemory, offset: int) -> np.ndarray:
    """The one-cell ``(op_id << 32) | crc`` header of a mirror slot."""
    return np.ndarray((1,), dtype=np.uint64, buffer=sm.buf, offset=offset)


class _Pipe:
    """One direction of one rank's control plane: a feeder-less pipe
    with a queue's ``put`` / ``get``.  The collector keeps both ends
    open, so a respawned rank inherits it and a dead one is no EOF."""

    __slots__ = ("reader", "_writer")

    def __init__(self, ctx) -> None:
        self.reader, self._writer = ctx.Pipe(duplex=False)

    def put(self, item) -> None:
        self._writer.send(item)

    def get(self):
        return self.reader.recv()

    def drain(self) -> None:
        while self.reader.poll():
            self.reader.recv()

    def close(self) -> None:
        self.reader.close()
        self._writer.close()


class _Completions:
    """The collector's end of every rank's completion pipe, gathered
    with ``connection.wait`` behind a queue's ``get(timeout=)``."""

    def __init__(self, pipes: list[_Pipe]) -> None:
        self._readers = [pipe.reader for pipe in pipes]

    def get(self, timeout: float):
        ready = connection.wait(self._readers, timeout)
        if not ready:
            raise queue_mod.Empty
        return ready[0].recv()


class _ProcessPort(RankPort):
    """Rank endpoint inside a worker process: attaches the shared
    segments by name and maps numpy views over them."""

    def __init__(self, rank, nranks, storage_name, layout, chans, barrier,
                 abort, status, watchdog_s, plan, ledger,
                 crash_counter, last_recv):
        self.rank = rank
        self.nranks = nranks
        self.barrier = barrier
        self.abort = abort
        self.status = status
        self.chans = chans
        self.watchdog_s = watchdog_s
        # Rebuild the chaos state locally over the shared primitives:
        # every process sees one ledger and one crash budget.
        self.chaos = (
            ChaosState(plan, nranks, ledger, crash_counter)
            if plan is not None else None
        )
        self.last_recv = last_recv
        self._storage_sm = shared_memory.SharedMemory(name=storage_name)
        self._views = _np_views(
            self._storage_sm, [e for e in layout if e[0] == rank]
        )
        self._arenas: dict[str, shared_memory.SharedMemory] = {}
        self._data = self._mirror = None
        self._slots: dict = {}

    def _arena(self, name: str | None):
        if name is None:
            return None
        sm = self._arenas.get(name)
        if sm is None:
            sm = self._arenas[name] = shared_memory.SharedMemory(name=name)
        return sm

    def begin_op(self, wire) -> None:
        data_name, mirror_name, self._slots = wire
        self._data = self._arena(data_name)
        self._mirror = self._arena(mirror_name)

    def views(self, array: str):
        return self._views[(self.rank, array)]

    def stage(self, s, op_id: int, fill) -> tuple:
        # Fill straight into the shared-memory arena: the arena view IS
        # the wire buffer.
        data_off, mirror_off, count = self._slots[s.seq]
        wire = _f64_view(self._data, data_off, count)
        fill(s, wire)
        crc = payload_crc(wire)
        if self.chaos is not None:
            # Mirror the pristine payload, then publish its header — the
            # write order receivers rely on when repairing from it.
            _f64_view(self._mirror, mirror_off + 8, count)[:] = wire
            _mirror_header(self._mirror, mirror_off)[0] = (
                ((op_id & 0xFFFFFFFF) << 32) | (crc & 0xFFFFFFFF)
            )
        return (op_id, s.seq, crc)

    def payload(self, frame: tuple):
        # The slot table is this operation's: a tag of another one, or
        # a seq no sender staged (schedule mismatch), names nothing.
        slot = self._slots.get(frame[1])
        if slot is None or self._data is None:
            return None
        return _f64_view(self._data, slot[0], slot[2])

    def retransmit(self, pair, op_id: int, seq: int):
        slot = self._slots.get(seq)
        if slot is None or self._mirror is None:
            return None
        _data_off, mirror_off, count = slot
        header = int(_mirror_header(self._mirror, mirror_off)[0])
        if (header >> 32) != (op_id & 0xFFFFFFFF):
            return None  # not staged for this operation (yet)
        payload = _f64_view(self._mirror, mirror_off + 8, count)
        if payload_crc(payload) != header & 0xFFFFFFFF:
            return None  # torn: the payload is mid-write
        return payload

    def die(self) -> None:
        # The short sleep lets the queues' feeder threads flush
        # in-flight puts so the survivors never observe a torn pickle.
        time.sleep(0.05)
        os._exit(13)

    def close(self) -> None:
        self._views = {}
        self._storage_sm.close()
        for sm in self._arenas.values():
            sm.close()


def _mp_worker(cmd_q, res_q, *port_args) -> None:
    port = _ProcessPort(*port_args)
    try:
        _worker_loop(port, cmd_q, res_q)
    finally:
        port.close()


class MultiprocessTransport(ConcurrentTransport):
    """One OS process per rank over shared-memory storage."""

    name = "multiprocess"

    def __init__(self, nranks: int, watchdog_s: float = 30.0) -> None:
        super().__init__(nranks, watchdog_s)
        self.stats.backend = self.name
        self._token = secrets.token_hex(4)
        self._ctx = mp.get_context()
        self._storage_sm: shared_memory.SharedMemory | None = None
        self._layout: list[tuple] = []
        # Wire arenas by kind ("dt" data, "mr" mirror): the current
        # segment, its generation, and grown-out ones still mapped.
        self._arenas: dict[str, shared_memory.SharedMemory] = {}
        self._arena_gen = {"dt": 0, "mr": 0}
        self._retired: list[shared_memory.SharedMemory] = []
        self._status = StatusBlock(
            self._ctx.RawArray("q", nranks * StatusBlock.STRIDE)
        )
        self._queues = {
            (s, d): self._ctx.Queue()
            for s in range(nranks) for d in range(nranks) if s != d
        }
        self._chans = {
            pair: Channel(q, self._status, pair[1])
            for pair, q in self._queues.items()
        }
        self._cmd = [_Pipe(self._ctx) for _ in range(nranks)]
        self._done = [_Pipe(self._ctx) for _ in range(nranks)]
        self._results = _Completions(self._done)
        self._abort = self._ctx.Event()
        self._barrier = self._ctx.Barrier(nranks)
        self._last_recv = self._ctx.RawArray("q", nranks * nranks)
        for i in range(nranks * nranks):
            self._last_recv[i] = -1
        self._ledger_arr = None
        self._crash_counter = None
        self._procs: list = [None] * nranks
        self._started = False
        self._shut_down = False

    def make_chaos_state(self, plan) -> ChaosState:
        """Chaos state over shared primitives so worker processes and
        the collector see one fault ledger and one crash budget."""
        self._ledger_arr = self._ctx.RawArray("q", self.nranks * len(KINDS))
        self._crash_counter = self._ctx.Value("q", 0)
        return ChaosState(
            plan, self.nranks, self._ledger_arr, self._crash_counter
        )

    # -- storage -----------------------------------------------------------

    def create_storage(self, specs):
        specs = list(specs)
        offset = 0
        layout = []
        for rank, name, shape in specs:
            count = int(np.prod(shape)) if shape else 1
            off_values = offset
            offset = _align(offset + count * 8)
            off_valid = offset
            offset = _align(offset + count)
            layout.append((rank, name, shape, off_values, off_valid))
        self._storage_sm = shared_memory.SharedMemory(
            create=True, size=max(offset, _ALIGN),
            name=f"repro-st-{self._token}",
        )
        # A new POSIX segment reads as zeros: nothing to clear.
        self._layout = layout
        return _np_views(self._storage_sm, layout)

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, rank: int) -> None:
        plan = self.chaos.plan if self.chaos is not None else None
        p = self._ctx.Process(
            target=_mp_worker,
            args=(self._cmd[rank], self._done[rank],
                  rank, self.nranks, self._storage_sm.name, self._layout,
                  self._chans, self._barrier, self._abort,
                  self._status, self.watchdog_s, plan,
                  self._ledger_arr, self._crash_counter, self._last_recv),
            name=f"transport-rank-{rank}",
            daemon=True,
        )
        p.start()
        self._procs[rank] = p

    def start(self, storage: dict) -> None:
        super().start(storage)
        if self._started:
            return
        if self._storage_sm is None:
            self.create_storage([])  # reduce-only session: empty arena
        for rank in range(self.nranks):
            self._spawn(rank)
        self._started = True

    def shutdown(self) -> None:
        if self._shut_down:
            return
        self._shut_down = True
        self._abort.set()
        if self._started:
            for rank in range(self.nranks):
                try:
                    self._cmd[rank].put(("stop",))
                except (ValueError, OSError):
                    pass
            deadline = time.monotonic() + 5.0
            for p in self._procs:
                p.join(timeout=max(0.1, deadline - time.monotonic()))
            for p in self._procs:
                if p.is_alive():
                    p.terminate()
                    p.join(timeout=2.0)
        for q in self._queues.values():
            q.cancel_join_thread()
            q.close()
        for pipe in (*self._cmd, *self._done):
            pipe.close()
        for sm in [self._storage_sm, *self._arenas.values(), *self._retired]:
            if sm is None:
                continue
            try:
                sm.close()
            except BufferError:
                pass  # executor still holds views; freed when they die
            try:
                sm.unlink()
            except FileNotFoundError:
                pass

    # -- carrier hooks -----------------------------------------------------

    def _ensure_arena(self, kind: str,
                      nbytes: int) -> shared_memory.SharedMemory:
        sm = self._arenas.get(kind)
        if sm is not None and sm.size >= nbytes:
            return sm
        if sm is not None:
            # Workers may still have the old generation mapped; retire
            # it and unlink everything at shutdown.
            self._retired.append(sm)
        self._arena_gen[kind] += 1
        sm = self._arenas[kind] = shared_memory.SharedMemory(
            create=True, size=1 << max(12, (max(nbytes, 1) - 1).bit_length()),
            name=f"repro-{kind}-{self._token}-g{self._arena_gen[kind]}",
        )
        return sm

    def _plan_wire(self, scripts) -> tuple:
        """Assign every send its data-arena and mirror-arena slot:
        ``(data arena name, mirror arena name, seq -> (data offset,
        mirror offset, element count))``.  Slots are reused from one
        operation to the next: the collector gathered every completion
        of the previous one, so no receiver is still reading it."""
        slots: dict[int, tuple[int, int, int]] = {}
        offset = m_offset = 0
        for script in scripts.values():
            for rnd in script:
                for s in rnd["send"]:
                    slots[s.seq] = (offset, m_offset, s.nbytes // SCALAR_BYTES)
                    offset = _align(offset + s.nbytes)
                    m_offset = _align(m_offset + 8 + s.nbytes)
        data = self._ensure_arena("dt", offset) if offset else None
        mirror = None
        if self.chaos is not None and m_offset:
            mirror = self._ensure_arena("mr", m_offset)
            # Stale headers must not validate against the new op.
            mirror.buf[:m_offset] = b"\x00" * m_offset
        return (
            data.name if data else None,
            mirror.name if mirror else None,
            slots,
        )

    def _alive(self, rank: int) -> bool:
        return self._procs[rank].is_alive()

    def _snapshot(self) -> bytes:
        return bytes(self._storage_sm.buf)

    def _restore(self, snapshot: bytes) -> None:
        self._storage_sm.buf[:] = snapshot

    def _drain(self) -> None:
        # A command pipe holds something only if its rank died before
        # reading it; the replacement must not run that command.
        for q in (*self._chans.values(), *self._cmd, *self._done):
            q.drain()

    def __del__(self) -> None:  # best-effort resource cleanup
        try:
            self.shutdown()
        except Exception:  # noqa: BLE001
            pass
