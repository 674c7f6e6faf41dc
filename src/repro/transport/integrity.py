"""Wire integrity, the reliable-channel protocol core, and fault plans.

Three cooperating pieces live here:

* the **integrity layer** — every wire payload, a schedule send's or a
  reduce tree's, travels in a *frame* whose header is ``(op_id, seq,
  crc)``: the operation id, the send's sequence number in its
  operation, and a CRC32 checksum of the payload bytes;

* the **protocol core** — the one copy of the reliable-channel logic,
  written sans-IO: plain data in, actions out.  It never sleeps, reads
  a clock, touches a queue or owns a buffer; the concurrent driver in
  :mod:`repro.transport.base` feeds it events and carries out what it
  answers against whichever carrier (threads + queues, processes +
  shared memory, or a test's in-memory fake) is underneath.

  *Send side* (:func:`send_actions`), event "about to post send
  ``seq``": the fault plan is rolled in the fixed order drop → delay →
  corrupt → dup → reorder and answered as a tuple of actions the
  carrier applies in order — ``DROP`` alone, or any of ``SLEEP``,
  ``CORRUPT``, ``DUPLICATE`` followed by ``HOLD`` (keep the frame back
  until the channel's next post) or ``POST`` (post it, then release a
  held frame behind it).

  *Receive side* (:class:`ChannelReceiver`), one instance per channel
  per operation attempt.  ``seen`` is every sequence number already
  installed or stashed, ``expected`` the one the schedule needs now::

      event                    condition              action          charged
      -----------------------  ---------------------  --------------  ------------
      expect(seq, now)         seq in seen            install stash   -
                               otherwise              wait to wake_at -
      on_frame(op, seq, ok)    op is another attempt  DROP_STALE      -
                               seq in seen            DROP_DUPLICATE  dedup_drops
                               not ok (bad checksum)  NACK seq        crc_failures
                               seq == expected        INSTALL         -
                               seq != expected        STASH           -
      on_timeout(now)          now >= deadline        ABORT           -
                               otherwise              NACK expected   nacks; backoff
                                                                      doubles to cap

  ``NACK`` asks the carrier for the pristine copy in its *retransmit
  source* (the sender's per-channel outbox for threads, the
  header-last mirror arena for processes).  If the copy is there the
  driver reports it as one more ``on_frame`` with ``retransmit_bytes``
  set — which is where ``retransmits``/``retrans_bytes`` are charged,
  separately from the canonical per-pair ledger so measured-vs-predicted
  parity holds under faults; if it is not staged yet, nothing happens
  until the timer fires again.  Every frame is checksum-verified at this
  one point, on arrival, whether it is the expected one or runs ahead;

* the **fault plan** — a seeded, deterministic description of which
  faults to inject where.  Decisions are pure functions of
  ``(seed, kind, src, dst, seq)`` (a CRC32 hash, no mutable PRNG
  state), so the *set* of faulted wire events is identical across
  thread/process interleavings, across carriers, and across the replay
  attempts the crash-recovery path makes.  Rank crashes are the
  exception: they consume a shared budget (``crash_budget``), so a
  crashed rank comes back healthy after its restart instead of dying
  at the same program point forever.

Fault taxonomy (``KINDS``): ``drop`` (frame never enters the channel),
``dup`` (the same frame is posted a second time), ``corrupt``
(bytes of the wire copy flipped after the checksum was taken — the
checksum itself for an empty payload),
``delay`` (the sender sleeps before posting), ``reorder`` (the frame is
held back and posted after its successor), ``crash`` (the worker
thread/process dies at a send boundary — a safe point that holds no
queue locks).
"""

from __future__ import annotations

import struct
import threading
import zlib
from dataclasses import dataclass, fields

import numpy as np

#: Injectable fault kinds, in ledger order.
KINDS = ("drop", "dup", "corrupt", "delay", "reorder", "crash")
_KIND_ID = {kind: i for i, kind in enumerate(KINDS)}


class ChaosCrash(Exception):
    """Internal: a ``crash`` fault fired — the worker must die here
    (thread: exit the worker loop without reporting; process:
    ``os._exit``).  Never escapes a backend."""

    def __init__(self, rank: int) -> None:
        super().__init__(f"injected crash on rank {rank}")
        self.rank = rank


def payload_crc(buf: np.ndarray) -> int:
    """CRC32 of a contiguous float64 payload's bytes."""
    return zlib.crc32(buf)


def _roll(seed: int, kind: str, src: int, dst: int, seq: int) -> float:
    """Deterministic uniform [0, 1) draw for one wire event.  A pure
    hash — no shared PRNG state — so every thread/process/attempt
    agrees on which events fault."""
    key = struct.pack(
        "<IIiiI", seed & 0xFFFFFFFF, _KIND_ID[kind],
        src, dst, seq & 0xFFFFFFFF,
    )
    return zlib.crc32(key) / 4294967296.0


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, deterministic chaos specification.

    Rates are per-wire-send probabilities, decided by :func:`_roll`.
    ``crash_budget`` bounds the total number of injected crashes (shared
    across ranks and replay attempts); ``delay_s`` is the injected
    latency, deliberately longer than ``nack_timeout_s`` by default so
    delays exercise the spurious-retransmit + dedup path.  Picklable —
    the multiprocess workers receive it verbatim.
    """

    seed: int = 0
    drop: float = 0.0
    dup: float = 0.0
    corrupt: float = 0.0
    delay: float = 0.0
    reorder: float = 0.0
    crash: float = 0.0
    crash_budget: int = 1
    delay_s: float = 0.08
    nack_timeout_s: float = 0.03
    backoff_cap_s: float = 0.5

    def rate(self, kind: str) -> float:
        return float(getattr(self, kind))

    @property
    def active(self) -> bool:
        return any(self.rate(k) > 0.0 for k in KINDS)

    @classmethod
    def single(cls, kind: str, seed: int = 0, rate: float = 0.125,
               **overrides) -> "FaultPlan":
        """A single-fault-class plan: one kind at ``rate``, everything
        else off.  The seeded hash picks *which* sends fault."""
        if kind not in KINDS:
            raise ValueError(
                f"unknown fault kind {kind!r}; expected one of {KINDS}"
            )
        return cls(seed=seed, **{kind: rate}, **overrides)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a ``--chaos-spec`` string: comma-separated ``key=value``
        pairs over the dataclass fields, e.g.
        ``"seed=7,drop=0.05,corrupt=0.02,crash=0.01,crash_budget=2"``."""
        valid = {f.name: f.type for f in fields(cls)}
        kwargs: dict = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            name, sep, value = item.partition("=")
            name = name.strip()
            if not sep or name not in valid:
                known = ", ".join(sorted(valid))
                raise ValueError(
                    f"bad chaos spec item {item!r}: expected KEY=VALUE "
                    f"with KEY one of {known}"
                )
            kwargs[name] = (
                int(value) if name in ("seed", "crash_budget")
                else float(value)
            )
        return cls(**kwargs)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class ChaosState:
    """Mutable chaos bookkeeping shared by one transport's workers.

    Tracks the per-rank injected-fault ledger (what the plan actually
    fired, by kind) and the remaining crash budget.  The threaded
    backend uses plain process memory behind a lock; the multiprocess
    backend passes shared primitives (``ledger_array``: a flat
    ``RawArray('q', nranks * len(KINDS))``, ``crash_counter``: an
    ``mp.Value``) so worker processes and the collector see one ledger.
    """

    def __init__(
        self,
        plan: FaultPlan,
        nranks: int,
        ledger_array=None,
        crash_counter=None,
    ) -> None:
        self.plan = plan
        self.nranks = nranks
        self._ledger = ledger_array
        if ledger_array is None:
            self._local = [[0] * len(KINDS) for _ in range(nranks)]
        self._crashes = crash_counter
        self._crashes_local = 0
        self._lock = threading.Lock()

    # -- decisions ---------------------------------------------------------

    def fires(self, kind: str, src: int, dst: int, seq: int) -> bool:
        rate = self.plan.rate(kind)
        if rate <= 0.0:
            return False
        if _roll(self.plan.seed, kind, src, dst, seq) >= rate:
            return False
        if kind == "crash" and not self._take_crash():
            return False
        self.record(src, kind)
        return True

    def _take_crash(self) -> bool:
        """Consume one unit of the crash budget; False once exhausted —
        the restarted worker survives its old crash point."""
        if self._crashes is not None:
            with self._crashes.get_lock():
                if self._crashes.value >= self.plan.crash_budget:
                    return False
                self._crashes.value += 1
                return True
        with self._lock:
            if self._crashes_local >= self.plan.crash_budget:
                return False
            self._crashes_local += 1
            return True

    # -- ledger ------------------------------------------------------------

    def record(self, rank: int, kind: str) -> None:
        idx = _KIND_ID[kind]
        if self._ledger is not None:
            self._ledger[rank * len(KINDS) + idx] += 1
        else:
            with self._lock:
                self._local[rank][idx] += 1

    def ledger(self) -> dict[int, dict[str, int]]:
        """Per-rank injected-fault counts, only nonzero entries."""
        out: dict[int, dict[str, int]] = {}
        for rank in range(self.nranks):
            row = {}
            for kind, idx in _KIND_ID.items():
                n = (
                    self._ledger[rank * len(KINDS) + idx]
                    if self._ledger is not None
                    else self._local[rank][idx]
                )
                if n:
                    row[kind] = int(n)
            if row:
                out[rank] = row
        return out

    def injected_total(self) -> int:
        return sum(sum(row.values()) for row in self.ledger().values())


# ---------------------------------------------------------------------------
# The reliable-channel protocol core (sans-IO; see the module docstring)
# ---------------------------------------------------------------------------

#: Send-side actions, applied by the carrier in the order returned.
DROP = "drop"
SLEEP = "sleep"
CORRUPT = "corrupt"
DUPLICATE = "duplicate"
HOLD = "hold"
POST = "post"

#: Receive-side actions.
INSTALL = "install"
STASH = "stash"
DROP_DUPLICATE = "drop-duplicate"
DROP_STALE = "drop-stale"
NACK = "nack"
ABORT = "abort"


def send_actions(chaos: ChaosState, src: int, dst: int, seq: int,
                 holding: bool) -> tuple[str, ...]:
    """Event: ``src`` is about to post send ``seq`` to ``dst``.
    ``holding`` says a reorder-held frame already waits on this channel
    (only one is held at a time).  The rolls happen in one fixed order,
    and a dropped frame rolls nothing further, so every carrier fires —
    and ledgers — the same faults for the same plan."""
    if chaos.fires("drop", src, dst, seq):
        return (DROP,)
    actions = [
        action
        for kind, action in (
            ("delay", SLEEP), ("corrupt", CORRUPT), ("dup", DUPLICATE),
        )
        if chaos.fires(kind, src, dst, seq)
    ]
    held = chaos.fires("reorder", src, dst, seq) and not holding
    actions.append(HOLD if held else POST)
    return tuple(actions)


class ChannelReceiver:
    """Receive half of one (src → dst) channel for one operation attempt.

    ``stats`` is any object with integer ``dedup_drops``,
    ``crc_failures``, ``nacks``, ``retransmits`` and ``retrans_bytes``
    attributes (a :class:`~repro.transport.base.RankOpStats`).
    ``wake_at`` is when the NACK timer next fires; the driver waits for
    a frame until then and reports whichever comes first.
    """

    __slots__ = ("op_id", "stats", "deadline", "seen", "expected",
                 "backoff", "wake_at", "_first_s", "_cap_s")

    def __init__(self, op_id: int, plan: FaultPlan, stats,
                 deadline: float) -> None:
        self.op_id = op_id
        self.stats = stats
        self.deadline = deadline
        self.seen: set[int] = set()
        self.expected = -1
        self._first_s = plan.nack_timeout_s
        self._cap_s = plan.backoff_cap_s
        self.backoff = self._first_s
        self.wake_at = deadline

    def expect(self, seq: int, now: float) -> bool:
        """The schedule needs ``seq`` next.  True when it already
        arrived ahead of its turn — install it from the stash; False to
        wait for frames until ``wake_at``."""
        self.expected = seq
        self.backoff = self._first_s
        self.wake_at = min(now + self.backoff, self.deadline)
        return seq in self.seen

    def on_frame(self, op_id: int, seq: int, crc_ok: bool,
                 retransmit_bytes: int | None = None) -> str:
        """A frame header ``(op_id, seq)`` arrived and its payload did
        or did not match its checksum.  ``retransmit_bytes`` marks the
        carrier's answer to a ``NACK`` (its size, for the ledger)."""
        if op_id != self.op_id:
            return DROP_STALE
        if seq in self.seen:
            self.stats.dedup_drops += 1
            return DROP_DUPLICATE
        if not crc_ok:
            self.stats.crc_failures += 1
            return NACK
        if retransmit_bytes is not None:
            self.stats.retransmits += 1
            self.stats.retrans_bytes += retransmit_bytes
        self.seen.add(seq)
        return INSTALL if seq == self.expected else STASH

    def on_timeout(self, now: float) -> str:
        """The NACK timer fired at ``now`` with ``expected`` still
        missing: request its retransmission and back off, or give up at
        the deadline."""
        if now >= self.deadline:
            return ABORT
        self.stats.nacks += 1
        self.backoff = min(self.backoff * 2.0, self._cap_s)
        self.wake_at = min(now + self.backoff, self.deadline)
        return NACK
