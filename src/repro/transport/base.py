"""Transport interface and wire accounting.

A :class:`Transport` executes the message traffic of a compiled SPMD
program: the per-rank flat transfers :mod:`repro.runtime.plans` produces
(lowered into rounds of :class:`~repro.transport.lowering.SendOp`
records) and the gather-tree reductions.  Three backends implement the
interface — inline (deterministic sequential reference), threaded (one
worker per rank over blocking per-pair queues), and multiprocess (one
OS process per rank over ``multiprocessing.shared_memory``).

A send is one frame with one flat payload on every backend, one numpy
copy per box: :func:`pack` copies the send's boxes (each
``values[box.index]``, compacted by its mask when there is one) one
after the other into a flat wire buffer, :func:`install` copies the
payload back into rank storage box by box and marks each region valid.
A frame of several boxes still has one header, one checksum, one arena
slot, one crash roll and one retransmit.  Nothing caches by geometry
and no buffer is handed back.

Every backend records :class:`WireStats` — per-pair message and byte
counts, per-rank send/receive/wait time, barrier stalls — and returns an
:class:`OpReceipt` per operation so the executor can cross-check the
measured traffic against the plan-time predictions *exactly*.  A
watchdog bounds every blocking wait; a schedule that would deadlock
(mismatched send/receive) raises a structured :class:`DeadlockError`
instead of hanging.

A reduction is lowered too (:func:`~repro.transport.lowering.
lower_reduction`), and its flat frames are staged, checksummed, faulted
and repaired exactly as a schedule send's.

The two concurrent backends share one driver, defined at the bottom of
this module: :class:`ConcurrentTransport` (the collector: op ids, round
scripts, checkpoint → submit → collect → quiesce → recover → replay)
and the rank-side functions ``_worker_loop`` / ``_run_op`` (the send /
local / recv round loop, over rank storage or a reduce's
:class:`_TreeWalk`), which feed the sans-IO protocol core of
:mod:`repro.transport.integrity`.  Both are written against
:class:`RankPort` and a handful of collector hooks — the *carrier*
interface — so ``threaded.py`` and ``mp.py`` hold only what differs
between threads over queues and processes over shared memory.

Synchronisation model.  Every wait blocks on the thing waited for: a
receive on its :class:`Channel`, the collector on its completion queue.
The collector's gather *is* the operation boundary — no rank is handed
operation k+1 before all P completions of operation k are in — so a
barrier separates only the rounds *inside* one operation, and what a
carrier reuses between operations (outboxes, arena slots) is free once
that gather is complete.  An operation is as large as the
executor can make it — every placed op of a firing, every reduction
tree of a statement — because each one costs a collector round trip (P
commands down, P completions up); a rank posts every send of a round,
or every tree's frame of an edge, before it blocks on the first
receive, and an operation without a round is not dispatched at all.
"""

from __future__ import annotations

import queue
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..errors import SimulationError
from .integrity import (
    ABORT,
    CORRUPT,
    DUPLICATE,
    HOLD,
    INSTALL,
    NACK,
    POST,
    SLEEP,
    STASH,
    ChannelReceiver,
    ChaosCrash,
    payload_crc,
    send_actions,
)
from .lowering import SCALAR_BYTES, LoweredComm, lower_reduction, tree_sizes


class TransportError(SimulationError):
    """A transport backend failed to execute a schedule."""


class RankCrashError(TransportError):
    """A worker rank died (injected crash or real) and the bounded
    restart budget could not bring the operation home.  The executor's
    degradation ladder catches this and re-executes on the inline
    backend; in strict contexts it propagates with the restart history."""

    def __init__(self, backend: str, dead_ranks: list[int],
                 restarts: int, max_restarts: int) -> None:
        self.backend = backend
        self.dead_ranks = dead_ranks
        self.restarts = restarts
        self.max_restarts = max_restarts
        super().__init__(
            f"{backend} transport: rank(s) {dead_ranks} died and the "
            f"restart budget is exhausted ({restarts}/{max_restarts} "
            f"restarts used)"
        )

    def to_dict(self) -> dict:
        return {
            "error": "rank_crash",
            "backend": self.backend,
            "dead_ranks": self.dead_ranks,
            "restarts": self.restarts,
            "max_restarts": self.max_restarts,
        }


class DeadlockError(TransportError):
    """The watchdog fired: one or more ranks were stuck past the
    timeout.  Carries a structured diagnostic instead of a hang —
    ``stuck`` lists, per stuck rank, what it was waiting on; ``stacks``
    (threaded backend) holds the formatted Python stack of each stuck
    worker."""

    def __init__(
        self,
        backend: str,
        timeout_s: float,
        stuck: list[dict],
        stacks: dict[int, str] | None = None,
        fault_context: dict | None = None,
    ) -> None:
        self.backend = backend
        self.timeout_s = timeout_s
        self.stuck = stuck
        self.stacks = stacks or {}
        self.fault_context = fault_context
        detail = "; ".join(
            f"rank {s['rank']}: {s.get('state', '?')}"
            + (f" (waiting on {s['waiting_on']})" if s.get("waiting_on") else "")
            for s in stuck
        ) or "no rank reported progress"
        super().__init__(
            f"{backend} transport deadlock: watchdog fired after "
            f"{timeout_s:.2f}s — {detail}"
        )

    def to_dict(self) -> dict:
        out = {
            "error": "deadlock",
            "backend": self.backend,
            "timeout_s": self.timeout_s,
            "stuck": self.stuck,
            "stacks": {str(r): s for r, s in self.stacks.items()},
        }
        if self.fault_context is not None:
            out["fault_context"] = self.fault_context
        return out


@dataclass
class RankOpStats:
    """One rank's measured contribution to one operation (picklable —
    the multiprocess backend ships these back over the control plane)."""

    sends: int = 0
    bytes_sent: int = 0
    local_copies: int = 0
    send_s: float = 0.0
    recv_s: float = 0.0
    wait_s: float = 0.0
    barrier_s: float = 0.0
    barrier_waits: int = 0
    barrier_stalls: int = 0
    crc_failures: int = 0
    dedup_drops: int = 0
    nacks: int = 0
    retransmits: int = 0
    retrans_bytes: int = 0
    pair_msgs: dict = field(default_factory=dict)   # (src, dst) -> count
    pair_bytes: dict = field(default_factory=dict)  # (src, dst) -> bytes
    injected: dict = field(default_factory=dict)    # fault kind -> count

    def count_send(self, src: int, dst: int, nbytes: int) -> None:
        """One logical wire message on the canonical per-pair ledger.
        Counted exactly once per send even when the frame is dropped or
        corrupted — repairs are ledgered separately (``retransmits``),
        keeping this equal to the lowering's prediction."""
        self.sends += 1
        self.bytes_sent += nbytes
        pair = (src, dst)
        self.pair_msgs[pair] = self.pair_msgs.get(pair, 0) + 1
        self.pair_bytes[pair] = self.pair_bytes.get(pair, 0) + nbytes


@dataclass
class OpReceipt:
    """What one executed operation actually put on the wire, in total
    and (``ranks``) as each rank measured its own part.  An operation
    without a round is never dispatched and leaves its receipt empty."""

    algorithm: str
    messages: int = 0
    bytes_sent: int = 0
    pair_msgs: dict = field(default_factory=dict)
    pair_bytes: dict = field(default_factory=dict)
    ranks: dict = field(default_factory=dict)  # rank -> RankOpStats

    def absorb(self, rank: int, rank_stats: RankOpStats) -> None:
        self.ranks[rank] = rank_stats
        self.messages += rank_stats.sends
        self.bytes_sent += rank_stats.bytes_sent
        for pair, n in rank_stats.pair_msgs.items():
            self.pair_msgs[pair] = self.pair_msgs.get(pair, 0) + n
        for pair, n in rank_stats.pair_bytes.items():
            self.pair_bytes[pair] = self.pair_bytes.get(pair, 0) + n


@dataclass
class WireStats:
    """Cumulative wire-level accounting for one transport instance."""

    backend: str
    #: Wire operations dispatched — on the concurrent backends one
    #: command to every rank and one gather of their completions.
    ops: int = 0
    #: Reduction trees run (one ``reduce`` may carry several).
    reduces: int = 0
    messages: int = 0
    bytes_sent: int = 0
    local_copies: int = 0
    barrier_waits: int = 0
    barrier_stalls: int = 0
    #: Always 0: a send allocates its buffer (or packs into the
    #: multiprocess arena); kept for readers of the names.
    pool_hits: int = 0
    pool_misses: int = 0
    crc_failures: int = 0
    dedup_drops: int = 0
    nacks: int = 0
    retransmits: int = 0
    retrans_bytes: int = 0
    restarts: int = 0
    recovery_s: float = 0.0
    #: Seconds the collector spent blocked in its gather: the ranks'
    #: idle time at the end of an op (``barrier_s``: between rounds).
    collect_s: float = 0.0
    injected: dict = field(default_factory=dict)  # fault kind -> count
    pair_msgs: dict = field(default_factory=dict)
    pair_bytes: dict = field(default_factory=dict)
    send_s: dict = field(default_factory=dict)     # rank -> seconds
    recv_s: dict = field(default_factory=dict)
    wait_s: dict = field(default_factory=dict)
    barrier_s: dict = field(default_factory=dict)
    #: algorithm -> placed ops (and trees) executed, dispatched or not.
    algorithms: dict = field(default_factory=dict)

    def absorb(self, rank: int, rs: RankOpStats) -> None:
        self.messages += rs.sends
        self.bytes_sent += rs.bytes_sent
        self.local_copies += rs.local_copies
        self.barrier_waits += rs.barrier_waits
        self.barrier_stalls += rs.barrier_stalls
        self.crc_failures += rs.crc_failures
        self.dedup_drops += rs.dedup_drops
        self.nacks += rs.nacks
        self.retransmits += rs.retransmits
        self.retrans_bytes += rs.retrans_bytes
        for kind, n in rs.injected.items():
            self.injected[kind] = self.injected.get(kind, 0) + n
        for pair, n in rs.pair_msgs.items():
            self.pair_msgs[pair] = self.pair_msgs.get(pair, 0) + n
        for pair, n in rs.pair_bytes.items():
            self.pair_bytes[pair] = self.pair_bytes.get(pair, 0) + n
        self.send_s[rank] = self.send_s.get(rank, 0.0) + rs.send_s
        self.recv_s[rank] = self.recv_s.get(rank, 0.0) + rs.recv_s
        self.wait_s[rank] = self.wait_s.get(rank, 0.0) + rs.wait_s
        self.barrier_s[rank] = self.barrier_s.get(rank, 0.0) + rs.barrier_s

    def count_op(self, members: Iterable[str], dispatched: bool) -> None:
        """One wire operation carrying the placed ops ``members``."""
        self.ops += dispatched
        for algorithm in members:
            self.algorithms[algorithm] = self.algorithms.get(algorithm, 0) + 1

    @property
    def faults_injected(self) -> int:
        return sum(self.injected.values())

    @property
    def faults_detected(self) -> int:
        """Faults the integrity layer caught and acted on: checksum
        failures, duplicate discards, and receive timeouts (NACKs)."""
        return self.crc_failures + self.dedup_drops + self.nacks

    def as_dict(self) -> dict:
        return {
            "backend": self.backend,
            "ops": self.ops,
            "reduces": self.reduces,
            "messages": self.messages,
            "bytes_sent": self.bytes_sent,
            "local_copies": self.local_copies,
            "barrier_waits": self.barrier_waits,
            "barrier_stalls": self.barrier_stalls,
            "collect_s": round(self.collect_s, 6),
            "pool_hits": self.pool_hits,
            "pool_misses": self.pool_misses,
            "integrity": {
                "crc_failures": self.crc_failures,
                "dedup_drops": self.dedup_drops,
                "nacks": self.nacks,
                "retransmits": self.retransmits,
                "retrans_bytes": self.retrans_bytes,
            },
            "faults": {
                "injected": dict(sorted(self.injected.items())),
                "injected_total": self.faults_injected,
                "detected_total": self.faults_detected,
                "restarts": self.restarts,
                "recovery_s": round(self.recovery_s, 6),
            },
            "algorithms": dict(sorted(self.algorithms.items())),
            "pair_msgs": {
                f"{s}->{d}": n for (s, d), n in sorted(self.pair_msgs.items())
            },
            "pair_bytes": {
                f"{s}->{d}": n for (s, d), n in sorted(self.pair_bytes.items())
            },
            "per_rank_s": {
                str(r): {
                    "send": round(self.send_s.get(r, 0.0), 6),
                    "recv": round(self.recv_s.get(r, 0.0), 6),
                    "wait": round(self.wait_s.get(r, 0.0), 6),
                    "barrier": round(self.barrier_s.get(r, 0.0), 6),
                }
                for r in sorted(
                    set(self.send_s) | set(self.recv_s) | set(self.wait_s)
                    | set(self.barrier_s)
                )
            },
        }


def pack(views, send, out: np.ndarray) -> None:
    """Copy one send's wire payload into ``out``, a flat float64 buffer
    of exactly its element count: box after box, each ``values[box.
    index]`` (a basic-index view) compacted by ``box.mask`` when it has
    one (the diagonal augmented exchanges), at the offset the boxes
    before it fill.  ``views(array)`` is the sender's ``(values,
    valid)`` storage of ``array``."""
    at = 0
    for box in send.boxes:
        block = views(box.array)[0][box.index]
        if box.mask is not None:
            block = block[box.mask]
        out[at:at + box.count].reshape(np.shape(block))[...] = block
        at += box.count


def install(views, send, buf: np.ndarray) -> None:
    """Copy a flat payload into rank storage box by box and mark each
    region valid, inverting :func:`pack`; ``views(array)`` is the
    receiver's ``(values, valid)`` storage of ``array``."""
    at = 0
    for box in send.boxes:
        values, valid = views(box.array)
        part = buf[at:at + box.count]
        if box.mask is None:
            values[box.index] = part.reshape(np.shape(values[box.index]))
            valid[box.index] = True
        else:
            values[box.index][box.mask] = part  # the view writes through
            valid[box.index][box.mask] = True
        at += box.count


class Transport:
    """Abstract message-passing backend.

    Lifecycle: construct with the rank count → ``create_storage`` (the
    multiprocess backend allocates shared memory here; others plain
    numpy) → ``start`` once the executor has built rank storage →
    ``execute``/``reduce`` per operation → ``shutdown``.  A watchdog
    timeout bounds every blocking wait; once it fires the transport is
    poisoned (subsequent operations raise) and only ``shutdown`` is
    valid.
    """

    name = "abstract"

    def __init__(self, nranks: int, watchdog_s: float = 30.0) -> None:
        self.nranks = nranks
        self.watchdog_s = watchdog_s
        self.stats = WireStats(backend=self.name)
        self._poisoned: str | None = None
        # ChaosState when fault injection is armed (concurrent backends
        # only: see :meth:`ConcurrentTransport.attach_chaos`).
        self.chaos = None
        self.max_rank_restarts = 2

    # -- storage ----------------------------------------------------------

    def create_storage(
        self, specs: Iterable[tuple[str, tuple[int, ...]]]
    ) -> dict[str, tuple[np.ndarray, np.ndarray]]:
        """Allocate, per ``(array, shape)`` of ``specs``, the stacked
        ``(values, valid)`` pair of every rank: two ``(nranks, *shape)``
        arrays whose ``[r]`` is rank ``r``'s storage.  The base
        implementation returns process-local numpy arrays; the
        multiprocess backend overrides this with shared-memory views."""
        return {
            name: (
                np.zeros((self.nranks, *shape)),
                np.zeros((self.nranks, *shape), dtype=bool),
            )
            for name, shape in specs
        }

    def start(self, storage: dict) -> None:
        """Begin execution against ``storage`` (rank -> name ->
        RankStorage).  Concurrent backends launch their workers here."""
        self.storage = storage

    # -- operations -------------------------------------------------------

    def execute(self, lowered: LoweredComm) -> OpReceipt:
        raise NotImplementedError

    def reduce(self, trees, ops) -> tuple:
        """The reduction trees of one statement as one wire operation.
        ``trees[t][m]`` is member ``m`` of tree ``t`` as a ``rank ->
        partial vector`` dict, ``ops[t][m]`` its reduction name.  The
        backend walks the rounds of :func:`~repro.transport.lowering.
        lower_reduction`: each tree gathers its members' partials up the
        binomial tree in its own frames, rank 0 combines every member in
        canonical order (:func:`combine`: bit-identical on every
        backend) and a tree's results broadcast back in one frame per
        edge; a rank posts the frames of all trees on an edge before it
        awaits any.  Returns ``(values, receipt)`` with ``values[t][m]``
        a float and one receipt for the whole operation."""
        raise NotImplementedError

    def shutdown(self) -> None:
        """Release workers and OS resources.  Idempotent."""

    # -- guards -----------------------------------------------------------

    def _check_alive(self) -> None:
        if self._poisoned:
            raise TransportError(
                f"{self.name} transport unusable after: {self._poisoned}"
            )

    def __enter__(self) -> "Transport":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


_EMPTY = np.zeros(0)


def combine(parts: list, op: str) -> float:
    """Canonical reduction combine: the concatenation of ``parts``, one
    member's flat partials in rank order, then one numpy reduction —
    exactly the element-wise executor's order, so the value is
    bit-stable across tree shapes and backends."""
    flat = np.concatenate(parts) if parts else _EMPTY
    if not flat.size:
        raise TransportError("reduction over empty partial set")
    if op == "SUM":
        return float(flat.sum())
    if op == "MAX":
        return float(flat.max())
    if op == "MIN":
        return float(flat.min())
    raise TransportError(f"unknown reduction op {op!r}")


def combine_pieces(pieces: dict[int, np.ndarray], op: str) -> float:
    """:func:`combine` of a ``rank -> partial`` dict."""
    return combine([np.ravel(pieces[rank]) for rank in sorted(pieces)], op)


def reduce_args(trees, ops, nranks: int) -> tuple[tuple, list, tuple]:
    """``reduce``'s arguments as the trees' sizes (what
    :func:`lower_reduction` lowers), per rank its flat partial of every
    member of every tree (``vectors[rank][t][m]``, empty where it owns
    none), and the ops as tuples."""
    ops = tuple(tuple(tree_ops) for tree_ops in ops)
    if [len(tree) for tree in trees] != [len(tree_ops) for tree_ops in ops]:
        raise TransportError(
            f"reduce: {[len(tree) for tree in trees]} members per tree "
            f"but ops for {[len(tree_ops) for tree_ops in ops]}"
        )
    vectors = [
        [
            [member[rank].ravel() if rank in member else _EMPTY
             for member in tree]
            for tree in trees
        ]
        for rank in range(nranks)
    ]
    return tree_sizes(trees, nranks), vectors, ops


class _TreeWalk:
    """One rank's side of a reduce operation.  ``parts[t][m]`` holds, in
    rank order, the partials of member ``m`` of tree ``t`` its subtree
    owns: a parent holding ranks ``[base, base+step)`` receives
    ``[base+step, base+2·step)``, so appending keeps that order."""

    barriers = False  # receives order the rounds

    def __init__(self, vectors: list, ops: tuple) -> None:
        self.parts = [[[vector] for vector in tree] for tree in vectors]
        self.ops = ops
        self.values: list = [None] * len(ops)

    def fill(self, s, out: np.ndarray) -> None:
        """Write frame ``s``'s flat payload into ``out``."""
        if s.counts is None:
            out[:] = self.result(s.tree)
        else:
            np.concatenate(
                [part for member in self.parts[s.tree] for part in member],
                out=out,
            )

    def deliver(self, s, payload: np.ndarray) -> None:
        if s.counts is None:
            self.values[s.tree] = tuple(payload.tolist())
            return
        at = 0
        for member, count in zip(self.parts[s.tree], s.counts):
            member.append(payload[at:at + count])
            at += count

    def result(self, tree: int) -> tuple:
        """Tree ``tree``'s values: broadcast to this rank, or — at the
        root — combined from everything gathered."""
        if self.values[tree] is None:
            self.values[tree] = tuple(
                combine(member, op)
                for member, op in zip(self.parts[tree], self.ops[tree])
            )
        return self.values[tree]


# ---------------------------------------------------------------------------
# The concurrent driver, written once against the carrier interface
# ---------------------------------------------------------------------------

#: A barrier arrival that waited longer than this counts as a stall.
_STALL_S = 0.001

#: How long the collector's gather sits idle before it probes liveness.
_LIVENESS_S = 0.05

#: Longest uninterrupted block of a channel wait: the latency of an abort.
_SLICE_S = 0.02

# Rank self-reported states for the watchdog's stuck-rank report.
_IDLE, _RUNNING, _RECV_WAIT, _BARRIER = 0, 1, 2, 3
_STATE_NAMES = {
    _IDLE: "idle",
    _RUNNING: "running",
    _RECV_WAIT: "waiting on recv",
    _BARRIER: "waiting at barrier",
}


class _Abort(Exception):
    """Internal: the collector cancelled the in-flight operation, or a
    rank's own backstop deadline passed."""


class _RankCrash(Exception):
    """Internal: the collector found dead workers; carries the dead
    rank list to the submit retry loop."""

    def __init__(self, dead: list[int]) -> None:
        super().__init__(f"dead ranks {dead}")
        self.dead = dead


class Channel:
    """One (src, dst) frame queue over anything with ``put`` and
    ``get(timeout=)`` raising ``queue.Empty`` (``SimpleQueue`` between
    threads, ``mp.Queue`` between processes).  The receiver blocks on
    the queue itself in slices of at most :data:`_SLICE_S`, between
    which it ticks its heartbeat and checks the abort flag."""

    __slots__ = ("_q", "_status", "_rank")

    def __init__(self, q, status: "StatusBlock", rank: int) -> None:
        self._q, self._status, self._rank = q, status, rank  # the receiver

    def put(self, item) -> None:
        self._q.put(item)

    def poll(self, deadline: float, abort):
        """The next item, or ``None`` once ``deadline`` has passed."""
        while True:
            timeout = min(_SLICE_S, max(deadline - time.monotonic(), 0.001))
            try:
                return self._q.get(timeout=timeout)
            except queue.Empty:
                self._status.beat(self._rank)
                if abort.is_set():
                    raise _Abort()
                if time.monotonic() > deadline:
                    return None

    def get(self, deadline: float, abort):
        """The next item; :class:`_Abort` once ``deadline`` has passed."""
        item = self.poll(deadline, abort)
        if item is None:
            raise _Abort()
        return item

    def drain(self) -> None:
        """Discard everything queued (only called while quiesced)."""
        while True:
            try:
                self._q.get_nowait()
            except queue.Empty:
                return
            except Exception:  # noqa: BLE001 - torn pickle from a kill
                continue


class StatusBlock:
    """Per-rank self-reported progress, ``[state, round, partner, seq,
    heartbeat, completed rounds]`` per rank over any integer array —
    a plain list between threads, a shared ``RawArray`` between
    processes.  Each rank writes only its own cells; the collector
    reads them when the watchdog fires."""

    STRIDE = 6

    def __init__(self, cells) -> None:
        self.cells = cells

    def set(self, rank: int, state: int, rnd: int = -1, partner: int = -1,
            seq: int = -1) -> None:
        base = rank * self.STRIDE
        cells = self.cells
        cells[base] = state
        cells[base + 1] = rnd
        cells[base + 2] = partner
        cells[base + 3] = seq
        cells[base + 4] += 1  # heartbeat

    def beat(self, rank: int) -> None:
        self.cells[rank * self.STRIDE + 4] += 1

    def round_done(self, rank: int, rnd: int) -> None:
        """Past the barrier that ends round ``rnd``: running again."""
        base = rank * self.STRIDE
        self.cells[base] = _RUNNING
        self.cells[base + 5] = rnd + 1

    def describe(self, rank: int) -> dict:
        """One ``DeadlockError.stuck`` entry."""
        state, rnd, partner, seq, heartbeat, completed = self.cells[
            rank * self.STRIDE:(rank + 1) * self.STRIDE
        ]
        waiting = None
        if state == _RECV_WAIT:
            waiting = f"message seq {seq} from rank {partner}"
        elif state == _BARRIER:
            waiting = f"barrier after round {rnd}"
        return {
            "rank": rank,
            "state": _STATE_NAMES.get(state, "unknown"),
            "waiting_on": waiting,
            "heartbeat": int(heartbeat),
            "completed_rounds": int(completed),
        }


class RankPort:
    """One rank's endpoint on a carrier — everything the rank-side
    driver needs that differs between carriers.

    A *frame* is a tuple whose first three fields are the header
    ``(op_id, seq, crc)``; what follows is the carrier's business (the
    threaded carrier appends the payload array, the multiprocess tag
    stops there because its payload sits in a shared arena).  A frame
    is never handed back: a duplicate is the same frame posted twice, a
    dropped or consumed one is simply let go.  The port is also the
    *side* (:func:`_run_op`) of a schedule operation: it packs a send
    from rank storage (:meth:`fill`) and installs a received payload
    (:meth:`deliver`); a reduce's side is a :class:`_TreeWalk`.

    Attributes the carrier sets: ``rank``, ``nranks``, ``chaos``
    (:class:`~repro.transport.integrity.ChaosState` or ``None``),
    ``watchdog_s``, ``abort`` (event), ``barrier``,
    ``status`` (:class:`StatusBlock`), ``last_recv`` (flat
    ``src * nranks + dst`` array of the last installed seq) and
    ``chans`` — ``(src, dst) ->`` :class:`Channel`.
    """

    #: Monotonic clock and sleep, overridable so a simulated carrier
    #: can drive the protocol without real time passing.
    clock = staticmethod(time.monotonic)
    sleep = staticmethod(time.sleep)

    barriers = True

    def begin_op(self, wire) -> None:
        """Attach whatever :meth:`ConcurrentTransport._plan_wire`
        prepared for this operation; nothing of the previous one is
        still being read (the collector gathered all its completions)."""

    def views(self, array: str) -> tuple[np.ndarray, np.ndarray]:
        """This rank's ``(values, valid)`` storage for ``array``."""
        raise NotImplementedError

    def fill(self, s, out: np.ndarray) -> None:
        pack(self.views, s, out)

    def deliver(self, s, payload: np.ndarray) -> None:
        install(self.views, s, payload)

    def stage(self, s, op_id: int, fill) -> tuple:
        """Have ``fill(s, buf)`` write send ``s``'s payload into a wire
        buffer no rank storage shares, checksum it, and return its
        frame; when chaos is armed also leave a pristine copy in the
        retransmit source *before* returning."""
        raise NotImplementedError

    def payload(self, frame: tuple) -> np.ndarray | None:
        """The wire payload ``frame`` names (``None`` if the carrier
        cannot locate it — a frame of some other operation)."""
        raise NotImplementedError

    def retransmit(self, pair: tuple[int, int], op_id: int,
                   seq: int) -> np.ndarray | None:
        """The pristine payload of ``seq`` from the retransmit source,
        or ``None`` if the sender has not staged it (yet)."""
        raise NotImplementedError

    def local_copy(self, s) -> None:
        """Install a ``src == dst`` send without touching the wire."""
        payload = np.empty(s.nbytes // SCALAR_BYTES)
        pack(self.views, s, payload)
        install(self.views, s, payload)

    def die(self) -> None:
        """An injected crash fired: kill this rank at once, reporting
        nothing."""
        raise NotImplementedError


def _post_send(port: RankPort, s, rs: RankOpStats, op_id: int,
               held: dict, fill) -> None:
    rank = port.rank
    chaos = port.chaos
    if chaos is not None and chaos.fires("crash", rank, s.dst, s.seq):
        port.die()
    t0 = time.perf_counter()
    frame = port.stage(s, op_id, fill)
    chan = port.chans[(rank, s.dst)]
    if chaos is None:
        chan.put(frame)
    else:
        for action in send_actions(chaos, rank, s.dst, s.seq, s.dst in held):
            if action is SLEEP:
                port.sleep(chaos.plan.delay_s)
            elif action is CORRUPT:
                frame = _corrupt(port, frame)
            elif action is DUPLICATE:
                chan.put(frame)  # the same frame, posted twice
            elif action is HOLD:
                held[s.dst] = frame  # posted after the channel's next frame
            elif action is POST:  # a DROP posts nothing
                chan.put(frame)
                late = held.pop(s.dst, None)
                if late is not None:
                    chan.put(late)
    rs.send_s += time.perf_counter() - t0
    rs.count_send(rank, s.dst, s.nbytes)


def _corrupt(port: RankPort, frame: tuple) -> tuple:
    """Flip the first payload byte after the checksum was taken — or,
    for an empty payload (a gather frame of a subtree owning nothing of
    its tree), the checksum itself."""
    payload = port.payload(frame)
    if payload.size:
        payload.view(np.uint8)[0] ^= 0xFF
        return frame
    return (frame[0], frame[1], frame[2] ^ 0xFF, *frame[3:])


def _flush_held(port: RankPort, held: dict) -> None:
    """End of a round's send phase: post any frame still held back by
    reorder injection so it arrives within its round."""
    while held:
        dst, frame = held.popitem()
        port.chans[(port.rank, dst)].put(frame)


def _receive(port: RankPort, s, rs: RankOpStats, op_id: int,
             deadline: float, rnd_no: int, receivers: dict, deliver) -> None:
    """Receive expected send ``s`` and ``deliver`` its payload: checked
    against its checksum on the clean path, repaired through the
    channel's :class:`ChannelReceiver` under chaos."""
    rank = port.rank
    pair = (s.src, rank)
    port.status.set(rank, _RECV_WAIT, rnd_no, s.src, s.seq)
    if port.chaos is not None:
        payload = _recv_chaotic(port, s, rs, op_id, deadline, receivers)
        t1 = time.perf_counter()
    else:
        t0 = time.perf_counter()
        frame = port.chans[pair].get(deadline, port.abort)
        t1 = time.perf_counter()
        rs.wait_s += t1 - t0
        if frame[0] != op_id or frame[1] != s.seq:
            raise TransportError(
                f"rank {rank}: message reorder from rank {s.src} "
                f"(got seq {frame[1]}, expected {s.seq})"
            )
        payload = port.payload(frame)
        if payload_crc(payload) != frame[2]:
            rs.crc_failures += 1
            raise TransportError(
                f"rank {rank}: checksum mismatch from rank {s.src} "
                f"on seq {s.seq} ({s.nbytes} bytes)"
            )
    deliver(s, payload)
    rs.recv_s += time.perf_counter() - t1
    # The state stays "waiting on recv" until the next recv or the
    # barrier overwrites it; nothing in between can block.
    port.last_recv[s.src * port.nranks + rank] = s.seq


def _recv_chaotic(port: RankPort, s, rs: RankOpStats, op_id: int,
                  deadline: float, receivers: dict) -> np.ndarray:
    """Receive one expected send under chaos: report frame arrivals and
    NACK-timer expiries to the channel's :class:`ChannelReceiver` and
    carry out what it answers, up to the payload it accepts.
    ``receivers`` holds, per source rank and for this operation attempt
    only, the receiver and the payloads it had stashed."""
    pair = (s.src, port.rank)
    try:
        rx, stash = receivers[s.src]
    except KeyError:
        rx, stash = receivers[s.src] = (
            ChannelReceiver(op_id, port.chaos.plan, rs, deadline), {}
        )
    chan = port.chans[pair]
    t0 = time.perf_counter()
    if rx.expect(s.seq, port.clock()):
        rs.wait_s += time.perf_counter() - t0
        return stash.pop(s.seq)
    while True:
        frame = chan.poll(rx.wake_at, port.abort)
        if frame is None:
            seq = s.seq
            action = rx.on_timeout(port.clock())
            if action is ABORT:
                raise _Abort()
        else:
            seq = frame[1]
            payload = port.payload(frame)
            action = rx.on_frame(
                frame[0], seq,
                payload is not None and payload_crc(payload) == frame[2],
            )
        if action is NACK:
            payload = port.retransmit(pair, op_id, seq)
            if payload is None:
                continue  # not staged yet: the timer keeps running
            action = rx.on_frame(
                op_id, seq, True,
                retransmit_bytes=payload.size * SCALAR_BYTES,
            )
        if action is INSTALL:
            rs.wait_s += time.perf_counter() - t0
            return payload
        if action is STASH:
            # Nothing rewrites a payload within its operation attempt.
            stash[seq] = payload


def _barrier_wait(port: RankPort, rs: RankOpStats, rnd_no: int) -> None:
    rank = port.rank
    port.status.set(rank, _BARRIER, rnd_no)
    t0 = time.perf_counter()
    try:
        port.barrier.wait(timeout=port.watchdog_s * 2)
    finally:
        stall = time.perf_counter() - t0
        rs.barrier_s += stall
        rs.barrier_waits += 1
        if stall > _STALL_S:
            rs.barrier_stalls += 1
    port.status.round_done(rank, rnd_no)


def _run_op(port: RankPort, op_id: int, script: list[dict], wire,
            side=None) -> RankOpStats:
    """One rank's side of one operation: per round, post the sends,
    install the local copies, receive what the script expects
    (per-source FIFO order).  ``side`` — the port itself unless given —
    writes each send's payload and takes each received one
    (:meth:`RankPort.fill` / :meth:`RankPort.deliver`); where it asks
    for ``barriers`` one separates consecutive rounds.  The last round
    ends in this rank's completion, for the collector's gather."""
    if side is None:
        side = port
    rs = RankOpStats()
    # 2x the collector's watchdog: the collector is the primary
    # detector (it reads the stuck-rank report while workers are still
    # stuck); this is only the backstop should the collector itself die.
    deadline = port.clock() + port.watchdog_s * 2
    port.begin_op(wire)
    held: dict = {}       # dst -> frame held back by reorder injection
    receivers: dict = {}  # src -> (ChannelReceiver, stash), chaos only
    for rnd_no, rnd in enumerate(script):
        if rnd_no and side.barriers:
            _barrier_wait(port, rs, rnd_no - 1)
        for s in rnd["send"]:
            _post_send(port, s, rs, op_id, held, side.fill)
        if held:
            _flush_held(port, held)
        for s in rnd["local"]:
            port.local_copy(s)
            rs.local_copies += 1
        for s in rnd["recv"]:
            _receive(port, s, rs, op_id, deadline, rnd_no, receivers,
                     side.deliver)
    return rs


def _run_reduce(port: RankPort, op_id: int, sizes: tuple, wire,
                vectors: list, ops: tuple) -> tuple[tuple, RankOpStats]:
    """One rank's side of a statement's reduce trees: the rounds of
    their lowering (:func:`lower_reduction`), against a :class:`_TreeWalk`
    over this rank's partials ``vectors[t][m]``.  Returns every tree's
    values and the rank's stats."""
    lowered = lower_reduction(sizes, port.nranks)
    walk = _TreeWalk(vectors, ops)
    rs = _run_op(port, op_id, _scripts(lowered, port.nranks)[port.rank],
                 wire, walk)
    return tuple(walk.result(t) for t in range(len(ops))), rs


def _scripts_for(lowered: LoweredComm, nranks: int) -> dict[int, list[dict]]:
    """Per-rank round scripts: what each rank sends, receives (in
    per-source FIFO order), and installs locally in every round."""
    scripts: dict[int, list[dict]] = {r: [] for r in range(nranks)}
    for rnd in lowered.rounds:
        per = {
            r: {"send": [], "recv": [], "local": []} for r in range(nranks)
        }
        for s in rnd:
            if s.is_local:
                per[s.src]["local"].append(s)
            else:
                per[s.src]["send"].append(s)
                per[s.dst]["recv"].append(s)
        for r in range(nranks):
            scripts[r].append(per[r])
    return scripts


def _scripts(lowered: LoweredComm, nranks: int) -> dict[int, list[dict]]:
    """:func:`_scripts_for`, kept on the lowering for its next run."""
    if lowered.scripts is None:
        lowered.scripts = _scripts_for(lowered, nranks)
    return lowered.scripts


def _worker_loop(port: RankPort, cmd_q, res_q) -> None:
    """A rank's command loop: run each operation the collector submits
    and post exactly one completion for it — unless the rank dies."""
    rank = port.rank
    while True:
        cmd = cmd_q.get()
        if cmd[0] == "stop":
            return
        op_id = cmd[1]
        port.status.set(rank, _RUNNING)
        try:
            if cmd[0] == "op":
                result = ("ok", rank, op_id, _run_op(port, *cmd[1:]), None)
            else:  # reduce
                value, rs = _run_reduce(port, *cmd[1:])
                result = ("ok", rank, op_id, rs, value)
        except ChaosCrash:
            return  # simulated rank death: no completion, the worker ends
        except (_Abort, threading.BrokenBarrierError):
            result = ("aborted", rank, op_id, None, None)
        except Exception:  # noqa: BLE001 - reported to the collector
            result = ("error", rank, op_id, traceback.format_exc(), None)
        res_q.put(result)
        port.status.set(rank, _IDLE)


class ConcurrentTransport(Transport):
    """Collector side of the concurrent driver: one worker per rank.

    A carrier subclass creates, before ``start``, the queues
    ``_cmd[rank]`` (``put`` here, ``get`` in the worker) and
    ``_results`` (``put`` in the workers, ``get(timeout=)`` raising
    ``queue.Empty`` here), the ``_abort`` event, the ``_barrier``,
    the ``_status`` :class:`StatusBlock` and the flat ``_last_recv``
    array its ports write, and implements the hooks below; its workers
    run :func:`_worker_loop` over a :class:`RankPort`.
    """

    def __init__(self, nranks: int, watchdog_s: float = 30.0) -> None:
        super().__init__(nranks, watchdog_s)
        self._op_counter = 0

    def attach_chaos(self, chaos) -> None:
        """Arm fault injection.  Called by :func:`~repro.transport.
        make_transport` before ``start``; the ports read ``chaos`` on
        their data paths and enable the repair machinery (outbox, dedup,
        NACK/retransmit) when it is set."""
        self.chaos = chaos

    def _sync_injected(self) -> None:
        """Mirror the chaos ledger's cumulative totals into the wire
        stats (the ledger is authoritative; this is the reporting
        copy), after each completed operation."""
        if self.chaos is None:
            return
        total: dict[str, int] = {}
        for row in self.chaos.ledger().values():
            for kind, n in row.items():
                total[kind] = total.get(kind, 0) + n
        self.stats.injected = total

    # -- carrier hooks -----------------------------------------------------

    def _alive(self, rank: int) -> bool:
        raise NotImplementedError

    def _spawn(self, rank: int) -> None:
        """(Re)start rank ``rank``'s worker."""
        raise NotImplementedError

    def _snapshot(self):
        """A checkpoint of all rank storage (``None``: nothing to
        save)."""
        raise NotImplementedError

    def _restore(self, snapshot) -> None:
        raise NotImplementedError

    def _drain(self) -> None:
        """Empty every channel and the results queue; only called while
        every live worker idles in its command loop."""
        raise NotImplementedError

    def _plan_wire(self, scripts: dict[int, list[dict]]):
        """Per-operation wire resources handed to every port's
        ``begin_op`` (the shared-memory carrier's arena layout)."""
        return None

    def _stacks(self, missing: set[int]) -> dict[int, str]:
        """Formatted stacks of the stuck workers, where the carrier can
        see them."""
        return {}

    # -- operations --------------------------------------------------------

    def execute(self, lowered: LoweredComm) -> OpReceipt:
        if lowered.rounds:
            receipt = self._dispatch(
                _scripts(lowered, self.nranks), lowered.algorithm
            )
        else:  # nothing to say to the ranks: no command, no gather
            self._check_alive()
            receipt = OpReceipt(algorithm=lowered.algorithm)
        self.stats.count_op(lowered.members, bool(lowered.rounds))
        return receipt

    def _dispatch(self, scripts, algorithm: str) -> OpReceipt:
        wire = self._plan_wire(scripts)
        _, receipt = self._submit(
            lambda rank, op_id: ("op", op_id, scripts[rank], wire),
            algorithm, checkpoint=True,
        )
        return receipt

    def reduce(self, trees, ops):
        sizes, vectors, ops = reduce_args(trees, ops, self.nranks)
        lowered = lower_reduction(sizes, self.nranks)
        wire = self._plan_wire(_scripts(lowered, self.nranks))
        # Reductions don't mutate rank storage, so a crashed attempt
        # replays without a checkpoint.  A rank lowers the sizes itself:
        # a few ints pickle in a fraction of the sends' time.
        values, receipt = self._submit(
            lambda rank, op_id: (
                "reduce", op_id, sizes, wire, vectors[rank], ops
            ),
            lowered.algorithm, checkpoint=False,
        )
        for t in range(len(ops)):
            distinct = {per_tree[t] for per_tree in values.values()}
            if len(distinct) != 1:
                raise TransportError(
                    f"reduce-tree broadcast diverged across ranks "
                    f"(tree {t}): {distinct}"
                )
        self.stats.reduces += len(ops)
        self.stats.count_op(lowered.members, True)
        return [list(tree_values) for tree_values in values[0]], receipt

    # -- dispatch ----------------------------------------------------------

    def _next_op(self) -> int:
        self._op_counter += 1
        return self._op_counter

    def _crash_armed(self) -> bool:
        return self.chaos is not None and self.chaos.plan.rate("crash") > 0.0

    def _submit(self, make_cmd, algorithm: str,
                checkpoint: bool) -> tuple[dict, OpReceipt]:
        """Dispatch one operation to every rank and collect completions,
        replaying from the operation-start checkpoint when injected
        crashes kill workers — up to ``max_rank_restarts`` times.  The
        caller ledgers it (:meth:`WireStats.count_op`)."""
        self._check_alive()
        snapshot = None
        if checkpoint and self._crash_armed():
            snapshot = self._snapshot()
        crashes = 0
        while True:
            op_id = self._next_op()
            for rank in range(self.nranks):
                self._cmd[rank].put(make_cmd(rank, op_id))
            receipt = OpReceipt(algorithm=algorithm)
            try:
                values = self._collect(op_id, receipt)
            except _RankCrash as crash:
                crashes += 1
                if crashes > self.max_rank_restarts:
                    self._poisoned = "rank crash budget exhausted"
                    raise RankCrashError(
                        self.name, crash.dead, crashes - 1,
                        self.max_rank_restarts,
                    ) from None
                t0 = time.monotonic()
                self._recover(crash.dead, snapshot)
                self.stats.restarts += len(crash.dead)
                self.stats.recovery_s += time.monotonic() - t0
                continue
            self._sync_injected()
            return values, receipt

    def _collect(self, op_id: int, receipt: OpReceipt) -> dict:
        """Gather one completion per rank — the operation boundary —
        enforcing the watchdog and probing worker liveness whenever the
        gather sat idle for ``_LIVENESS_S``.  Per-rank stats are
        absorbed only after every rank completed, so an abandoned
        attempt (crash, failure) leaves the canonical ledger alone."""
        deadline = time.monotonic() + self.watchdog_s
        done: dict = {}
        stats: list[tuple[int, RankOpStats]] = []
        failures: list[str] = []
        while len(done) < self.nranks:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._deadlock(set(range(self.nranks)) - set(done))
            t0 = time.perf_counter()
            try:
                msg = self._results.get(timeout=min(remaining, _LIVENESS_S))
            except queue.Empty:
                msg = None
            self.stats.collect_s += time.perf_counter() - t0
            if msg is None:
                dead = [
                    r for r in range(self.nranks)
                    if r not in done and not self._alive(r)
                ]
                if dead:
                    if self.chaos is not None:
                        self._quiesce_crash(op_id, done, dead)  # raises
                    self._poisoned = "worker died"
                    raise TransportError(
                        f"{self.name} transport: worker rank(s) {dead} died"
                    )
                continue
            status, rank, msg_op, payload, value = msg
            if msg_op != op_id:
                continue  # stale completion from an aborted operation
            if status == "ok":
                stats.append((rank, payload))
                done[rank] = value
            elif status == "aborted":
                if not failures:
                    self._deadlock(set(range(self.nranks)) - set(done))
                done[rank] = None
            else:
                failures.append(f"rank {rank}: {payload}")
                done[rank] = None
                # Release ranks blocked on the failed one, then keep
                # draining so every worker returns to its command loop.
                self._abort_fleet()
        if failures:
            self._poisoned = "worker failure"
            raise TransportError(
                f"{self.name} transport worker failed:\n"
                + "\n".join(failures)
            )
        for rank, rs in stats:
            receipt.absorb(rank, rs)
            self.stats.absorb(rank, rs)
        return done

    def _abort_fleet(self) -> None:
        self._abort.set()
        try:
            self._barrier.abort()
        except Exception:  # noqa: BLE001 - barrier may already be broken
            pass

    def _quiesce_crash(self, op_id: int, done: dict, dead: list[int]):
        """Dead workers found mid-collect: abort the survivors, wait for
        each to post its (aborted) completion so none is still touching
        a channel, then hand the dead list to the retry loop."""
        self._abort_fleet()
        waiting = {
            r for r in range(self.nranks)
            if r not in done and r not in dead
        }
        end = time.monotonic() + 5.0
        while waiting and time.monotonic() < end:
            for r in list(waiting):
                if not self._alive(r):
                    waiting.discard(r)
                    dead.append(r)
            try:
                msg = self._results.get(timeout=_LIVENESS_S)
            except queue.Empty:
                continue
            _status, rank, msg_op, _payload, _value = msg
            if msg_op == op_id:
                waiting.discard(rank)
        if waiting:
            self._deadlock(waiting)
        raise _RankCrash(sorted(set(dead)))

    def _recover(self, dead: list[int], snapshot) -> None:
        """Bring the fleet back to a clean pre-operation state: all
        survivors are idle in their command loops (guaranteed by
        :meth:`_quiesce_crash`), so drain stale frames and completions,
        roll storage back to the checkpoint, respawn the dead workers,
        and re-arm the barrier."""
        self._drain()
        if snapshot is not None:
            self._restore(snapshot)
        for rank in dead:
            self._spawn(rank)
        self._barrier.reset()
        self._abort.clear()

    def _fault_context(self) -> dict | None:
        if self.chaos is None:
            return None
        n = self.nranks
        return {
            "injected_by_rank": {
                str(rank): dict(kinds)
                for rank, kinds in sorted(self.chaos.ledger().items())
            },
            "last_recv_seq": {
                f"{s}->{d}": int(self._last_recv[s * n + d])
                for s in range(n) for d in range(n)
                if self._last_recv[s * n + d] >= 0
            },
        }

    def _deadlock(self, missing: set[int]):
        self._poisoned = "deadlock watchdog"
        # Read the report before aborting, while the ranks are still
        # where they were stuck.
        stuck = [self._status.describe(rank) for rank in sorted(missing)]
        stacks = self._stacks(missing)
        self._abort_fleet()
        raise DeadlockError(
            self.name, self.watchdog_s, stuck, stacks,
            fault_context=self._fault_context(),
        )
