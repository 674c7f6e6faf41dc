"""Deterministic simulation of the reliable-channel protocol.

The sans-IO core (:mod:`repro.transport.integrity`) and the rank-side
driver (:mod:`repro.transport.base`) run here over an in-memory fake
carrier: one channel, rank 0 sending to rank 1, no threads, no
processes, no sleeping — the carrier's clock only moves when the
schedule says a timer fired.  A *schedule* is a list of tokens consumed
each time the receiver polls its channel:

* ``"S"`` — the sender takes its next step (one ``_post_send``, or the
  end-of-round flush of reorder-held frames);
* ``"T"`` — nothing arrives before the receiver's NACK timer fires;
* ``k`` (an int) — the ``k``-th oldest in-flight frame is delivered, so
  frames may overtake one another in any order.

When the tokens run out the sender finishes its round and the channel
delivers FIFO.  Oracle: the run either installs every expected ``seq``
exactly once with the pristine bytes, or ends in ``_Abort`` at the
deadline having installed nothing wrong — and the integrity counters
add up against what the fault plan injected.  A failure prints a
``replay(...)`` call that reproduces it; to chase a chaos-matrix cell
(``tests/test_chaos.py``) that did not survive, feed its plan (and the
channel/seq its ``DeadlockError.fault_context`` names) to
:func:`replay`.

Sections (iii)-(v) widen the carrier to a mesh of two or three ranks;
(v) runs a reduce, whose ranks receive before they send, as one thread
per rank of which only the one holding the baton runs — still no
sleeping, and every step still picked by the test.
"""

from __future__ import annotations

import functools
import threading
from itertools import combinations, permutations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.base import (
    RankOpStats,
    RankPort,
    StatusBlock,
    _Abort,
    _flush_held,
    _post_send,
    _run_op,
    _run_reduce,
    _TreeWalk,
    combine_pieces,
    reduce_args,
)
from repro.transport.integrity import (
    ABORT,
    DROP_DUPLICATE,
    DROP_STALE,
    INSTALL,
    KINDS,
    NACK,
    STASH,
    ChannelReceiver,
    ChaosState,
    FaultPlan,
    payload_crc,
)
from repro.transport.inline import InlineTransport
from repro.transport.lowering import (
    Box,
    LoweredComm,
    SendOp,
    lower_reduction,
    merge_lowered,
)

OP_ID = 7
WIDTH = 3  # elements per send
FAULTS = ("drop", "dup", "corrupt", "reorder", "delay")


class World:
    """Everything both fake ports share: the clock, the channel, the
    retransmit source, rank storage, and the delivery schedule."""

    def __init__(self, plan: FaultPlan, rounds, schedule, watchdog_s=0.5):
        self.plan = plan
        self.chaos = ChaosState(plan, 2)
        self.now = 0.0
        self.watchdog_s = watchdog_s
        self.tokens = list(schedule)
        self.inflight: list[tuple] = []
        self.outbox: dict = {}
        self.delivered = 0
        self.timeouts = 0
        nseq = sum(len(r) for r in rounds)
        self.src = np.arange(1.0, nseq * WIDTH + 1.0)
        self.dst = np.zeros_like(self.src)
        self.valid = np.zeros(self.src.shape, dtype=bool)
        self.installs = np.zeros(self.src.shape, dtype=int)
        self.arrays, self.rounds = self.layout(rounds)
        self.sender = FakePort(self, 0)
        self.receiver = FakePort(self, 1)
        self.sender_stats = RankOpStats()
        self.steps: list = []   # the sender's remaining steps, this round
        self.round_no = -1

    def layout(self, rounds) -> tuple[dict, list]:
        """The arrays — name -> (offset, size) in the flat storage — and
        the rounds of sends: here one array, one box per frame."""
        nseq = sum(len(r) for r in rounds)
        return {"a": (0, nseq * WIDTH)}, [
            [
                SendOp(seq=seq, src=0, dst=1, boxes=(Box(
                    "a", (slice(seq * WIDTH, (seq + 1) * WIDTH, 1),),
                    None, WIDTH,
                ),), nbytes=WIDTH * 8)
                for seq in rnd
            ]
            for rnd in rounds
        ]

    # -- the sender, advanced one step at a time by the schedule -----------

    def begin_round(self) -> None:
        self.round_no += 1
        held: dict = {}
        port, rs = self.sender, self.sender_stats
        self.steps = [
            (lambda s=s: _post_send(port, s, rs, OP_ID, held, port.fill))
            for s in self.rounds[self.round_no]
        ]
        self.steps.append(lambda: _flush_held(port, held))

    def sender_step(self) -> None:
        if self.steps:
            self.steps.pop(0)()

    # -- the channel --------------------------------------------------------

    def put(self, frame) -> None:
        self.inflight.append(frame)

    def poll(self, deadline, abort):
        while True:
            token = self.tokens.pop(0) if self.tokens else None
            if token == "S":
                self.sender_step()
                continue
            if token == "T":
                break
            if token is None:  # schedule exhausted: finish, then FIFO
                while self.steps:
                    self.sender_step()
                token = 0
            if self.inflight:
                self.delivered += 1
                return self.inflight.pop(token % len(self.inflight))
            if token == 0 and not self.tokens:
                break  # nothing will ever arrive: only the timer is left
        self.timeouts += 1
        self.now = max(self.now, deadline) + 1e-9
        return None

    get = poll  # the chaos receive path only polls


    # -- the collector -----------------------------------------------------

    def gather(self) -> None:
        """The operation boundary: the collector holds the receiver's
        completion (``_run_op`` returned) and now waits for the
        sender's, so the sender runs to its end.  No barrier does this
        after the last round; frames the receiver did not need stay in
        flight into the next operation."""
        while self.steps:
            self.sender_step()


class FakeBarrier:
    """The barrier between two rounds of one operation."""

    def __init__(self, world: World) -> None:
        self.world = world

    def wait(self, timeout=None) -> None:
        # The real barrier lets the sender finish its round; frames the
        # receiver did not need stay in flight into the next one.
        self.world.gather()
        self.world.begin_round()


class FakePort(RankPort):
    """The in-memory carrier: frames are ``(op_id, seq, crc, buf)``."""

    nranks = 2
    abort = None

    def __init__(self, world: World, rank: int) -> None:
        self.world = world
        self.rank = rank
        self.chaos = world.chaos
        self.watchdog_s = world.watchdog_s
        self.barrier = FakeBarrier(world)
        self.status = StatusBlock([0] * (2 * StatusBlock.STRIDE))
        self.last_recv = [-1] * 4
        self.chans = {(0, 1): world}

    def clock(self) -> float:
        return self.world.now

    def sleep(self, seconds: float) -> None:
        self.world.now += seconds

    def views(self, array):
        world = self.world
        at, size = world.arrays[array]
        part = slice(at, at + size)
        if self.rank == 0:
            return world.src[part], np.ones(size, dtype=bool)
        return world.dst[part], world.valid[part]

    def deliver(self, s, payload):
        super().deliver(s, payload)
        for box in s.boxes:
            at, size = self.world.arrays[box.array]
            self.world.installs[at:at + size][box.index] += 1

    def stage(self, s, op_id, fill):
        buf = np.empty(WIDTH)
        fill(s, buf)
        self.world.outbox[(op_id, s.seq)] = buf.copy()
        return (op_id, s.seq, payload_crc(buf), buf)

    def payload(self, frame):
        return frame[3]

    def retransmit(self, pair, op_id, seq):
        return self.world.outbox.get((op_id, seq))


def simulate(plan: FaultPlan, rounds, schedule, watchdog_s=0.5,
             world_cls=None):
    """One run; returns ``(world, receiver stats or None if aborted)``."""
    world = (world_cls or World)(plan, rounds, schedule, watchdog_s)
    world.begin_round()
    script = [
        {"send": [], "local": [], "recv": list(rnd)} for rnd in world.rounds
    ]
    try:
        rs = _run_op(world.receiver, OP_ID, script, None)
    except _Abort:
        return world, None
    world.gather()
    return world, rs


def check(plan: FaultPlan, rounds, schedule, watchdog_s=0.5,
          may_abort=True, world_cls=None) -> None:
    try:
        world, rs = simulate(plan, rounds, schedule, watchdog_s, world_cls)
        _oracle(world, rs, may_abort)
    except Exception as exc:
        pytest.fail(
            f"{type(exc).__name__}: {exc}\n  replay({plan.as_dict()!r}, "
            f"{rounds!r}, {list(schedule)!r}, watchdog_s={watchdog_s}, "
            f"world_cls={(world_cls or World).__name__})"
        )


def replay(plan_fields: dict, rounds, schedule, watchdog_s=0.5,
           world_cls=None):
    """Re-run one printed failure (or a chaos-matrix cell's plan)."""
    return check(FaultPlan(**plan_fields), rounds, schedule, watchdog_s,
                 world_cls=world_cls)


def _oracle(world: World, rs, may_abort: bool) -> None:
    # Never a wrong install, nor a second one, finished or not.
    assert np.array_equal(world.dst[world.valid], world.src[world.valid])
    assert (world.installs <= 1).all(), "an element installed twice"
    if rs is None:
        assert may_abort, "aborted although every frame could be repaired"
        assert world.now >= world.watchdog_s * 2, "aborted before deadline"
        return
    nseq = sum(len(r) for r in world.rounds)
    assert world.valid.all(), "a recv returned without installing"
    assert (world.installs == 1).all()
    # Every frame handed over was dropped as duplicate, failed its
    # checksum, or was accepted; NACK answers are the other way in.
    # Accepting exactly nseq frames means each seq went in exactly once.
    accepted = (world.delivered - rs.dedup_drops - rs.crc_failures
                + rs.retransmits)
    assert accepted == nseq, f"{accepted} frames accepted for {nseq} seqs"
    injected = world.chaos.ledger().get(0, {})
    assert rs.crc_failures <= injected.get("corrupt", 0)
    assert rs.nacks == world.timeouts
    assert rs.retransmits <= rs.nacks + rs.crc_failures
    assert rs.retrans_bytes == rs.retransmits * WIDTH * 8
    assert rs.dedup_drops <= injected.get("dup", 0) + rs.retransmits
    # A dropped or corrupted send has no good copy on the wire.
    lost = {
        s.seq for rnd in world.rounds for s in rnd
        if any(
            plan_fires(world.plan, kind, s.seq)
            for kind in ("drop", "corrupt")
        )
    }
    assert rs.retransmits >= len(lost)
    # The canonical ledger counts each logical send once, faults or not.
    assert world.sender_stats.sends == nseq
    assert world.sender_stats.pair_bytes == {(0, 1): nseq * WIDTH * 8}


def plan_fires(plan: FaultPlan, kind: str, seq: int) -> bool:
    """Whether ``kind`` is injected on send ``seq`` of channel 0→1 —
    asked of a scratch ledger, so the run's own stays untouched.  A
    dropped send rolls no further faults."""
    scratch = ChaosState(plan, 2)
    if kind != "drop" and scratch.fires("drop", 0, 1, seq):
        return False
    return scratch.fires(kind, 0, 1, seq)


def _plan(kinds, seed: int, rate: float = 0.5) -> FaultPlan:
    return FaultPlan(seed=seed, **{kind: rate for kind in kinds})


# ---------------------------------------------------------------------------
# The state table, row by row
# ---------------------------------------------------------------------------


def test_receiver_state_table():
    rs = RankOpStats()
    rx = ChannelReceiver(OP_ID, FaultPlan(nack_timeout_s=1.0,
                                          backoff_cap_s=3.0), rs, 100.0)
    assert rx.expect(0, now=0.0) is False and rx.wake_at == 1.0
    assert rx.on_frame(OP_ID - 1, 0, True) is DROP_STALE
    assert rx.on_frame(OP_ID, 1, True) is STASH          # ran ahead
    assert rx.on_frame(OP_ID, 1, True) is DROP_DUPLICATE
    assert rx.on_frame(OP_ID, 2, False) is NACK          # early and corrupt
    assert rx.on_frame(OP_ID, 2, True, retransmit_bytes=24) is STASH
    assert rx.on_timeout(1.0) is NACK and rx.wake_at == 3.0   # 1 -> 2
    assert rx.on_timeout(3.0) is NACK and rx.wake_at == 6.0   # 2 -> cap 3
    assert rx.on_frame(OP_ID, 0, True) is INSTALL
    assert rx.expect(1, now=6.0) is True and rx.backoff == 1.0
    assert rx.on_timeout(100.0) is ABORT
    assert (rs.dedup_drops, rs.crc_failures, rs.nacks) == (1, 1, 2)
    assert (rs.retransmits, rs.retrans_bytes) == (1, 24)


# ---------------------------------------------------------------------------
# (i) Exhaustive: every fault subset x every small interleaving
# ---------------------------------------------------------------------------


def _subsets():
    for size in range(len(FAULTS) + 1):
        yield from combinations(FAULTS, size)


def _arrival_orders(nframes: int):
    """Sender done first; every delivery order of the in-flight frames,
    with no timer expiry or one at every position.  Frame ``j`` of the
    original FIFO order is the token that picks it out of what is left
    in flight."""
    for order in permutations(range(nframes)):
        left = list(range(nframes))
        tokens = []
        for frame in order:
            tokens.append(left.index(frame))
            left.remove(frame)
        yield tokens
        for at in range(nframes + 1):
            yield tokens[:at] + ["T"] + tokens[at:]


def _races(nsteps: int, ntimers: int = 2):
    """FIFO delivery; every interleaving of the sender's steps with
    ``ntimers`` timer expiries at the receiver."""
    slots = nsteps + ntimers
    for timers in combinations(range(slots), ntimers):
        yield ["T" if i in timers else "S" for i in range(slots)]


def _check_one_channel(kinds, world_cls=None) -> None:
    nsends = 2 if "dup" in kinds else 3  # a dup doubles the frames
    rounds = [list(range(nsends))]
    for seed in (1, 2):
        plan = _plan(kinds, seed)
        probe, _ = simulate(plan, rounds, ["S"] * (nsends + 1) + ["T"] * 99,
                            world_cls=world_cls)
        nframes = len(probe.inflight)
        assert nframes <= 4
        prefix = ["S"] * (nsends + 1)
        for tokens in _arrival_orders(nframes):
            check(plan, rounds, prefix + tokens, may_abort=False,
                  world_cls=world_cls)
        for tokens in _races(nsends + 1):
            check(plan, rounds, tokens, may_abort=False,
                  world_cls=world_cls)


@pytest.mark.parametrize(
    "kinds", list(_subsets()), ids=lambda kinds: "+".join(kinds) or "clean"
)
def test_every_interleaving_of_up_to_four_frames(kinds):
    _check_one_channel(kinds)


class BoxWorld(World):
    """Frames of two and three boxes over two arrays: even seqs carry
    ``a`` then ``b``, odd ones ``b``, ``a``, ``b`` — each frame still
    WIDTH elements in one payload, one checksum, one retransmit.  The
    boxes of one array take its elements in seq order."""

    SPLITS = ((("a", 1), ("b", 2)), (("b", 1), ("a", 1), ("b", 1)))

    def layout(self, rounds) -> tuple[dict, list]:
        used = {"a": 0, "b": 0}
        frames = {}
        for seq in sorted(seq for rnd in rounds for seq in rnd):
            boxes = []
            for array, count in self.SPLITS[seq % 2]:
                at = used[array]
                boxes.append(Box(array, (slice(at, at + count, 1),),
                                 None, count))
                used[array] += count
            frames[seq] = SendOp(seq=seq, src=0, dst=1, boxes=tuple(boxes),
                                 nbytes=WIDTH * 8)
        arrays = {"a": (0, used["a"]), "b": (used["a"], used["b"])}
        return arrays, [[frames[seq] for seq in rnd] for rnd in rounds]


@pytest.mark.parametrize(
    "kinds", list(_subsets()), ids=lambda kinds: "+".join(kinds) or "clean"
)
def test_every_interleaving_of_multi_box_frames(kinds):
    # Every box bitwise where it belongs and installed exactly once, or
    # (never here: every frame is repairable) the op ends in _Abort.
    _check_one_channel(kinds, BoxWorld)


def test_dead_sender_ends_in_abort_not_a_wrong_install():
    # The sender never takes a step: nothing is staged, every NACK
    # finds the retransmit source empty, and the backoff runs to the
    # deadline.
    world, rs = simulate(_plan(("drop",), 1), [[0, 1]], ["T"] * 50)
    assert rs is None
    assert not world.valid.any()
    assert world.now >= 1.0
    # 0.03 doubling to the 0.5 cap: a bounded number of NACKs, not a spin.
    assert 4 <= world.timeouts <= 8


# ---------------------------------------------------------------------------
# (ii) Seeded multi-fault plans over multi-round scripts
# ---------------------------------------------------------------------------

RATES = st.sampled_from([0.0, 0.2, 0.5, 1.0])


@st.composite
def scenarios(draw):
    plan = FaultPlan(
        seed=draw(st.integers(0, 2**16)),
        drop=draw(RATES), dup=draw(RATES), corrupt=draw(RATES),
        delay=draw(RATES), reorder=draw(RATES),
    )
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rounds, seq = [], 0
    for size in sizes:
        rounds.append(list(range(seq, seq + size)))
        seq += size
    schedule = draw(st.lists(
        st.one_of(st.just("S"), st.just("T"), st.integers(0, 5)),
        max_size=16,
    ))
    return plan, rounds, schedule


@settings(max_examples=250, deadline=None, derandomize=True)
@given(scenarios())
def test_multi_fault_plans_heal_or_abort(scenario):
    plan, rounds, schedule = scenario
    check(plan, rounds, schedule)


# ---------------------------------------------------------------------------
# (iii) Two consecutive operations, no barrier between them
# ---------------------------------------------------------------------------
#
# Up to three ranks, every rank sending one frame to every other, twice
# — operation k, a "compute" that changes what each rank owns, operation
# k+1.  Every rank runs the real ``_run_op``; a rank that has to wait
# runs the others further down the Python stack (a rank blocked in a
# receive has posted all its sends, so whoever runs nested under it can
# finish), which gives every start order and every point at which one
# rank's progress interleaves with another's without a thread.  The
# only thing between the two operations is the collector's gather: k+1
# starts once every ``_run_op`` of k has returned.  A *choice point* is
# a rank polling its channel; the options are every frame in flight on
# it, every rank not yet started, and (a bounded number of times per
# operation, and whenever nothing else is left) the NACK timer.


class NoBarrier:
    def wait(self, timeout=None) -> None:
        raise AssertionError("a single-round operation met at a barrier")


class SpyReceiver(ChannelReceiver):
    """Records what the core answered for frames of another operation,
    and for intact first copies of this one's that ran ahead of the
    ``seq`` the schedule was waiting for."""

    __slots__ = ()
    stale: list = []
    early: list = []

    def on_frame(self, op_id, seq, crc_ok, retransmit_bytes=None):
        ahead = (
            op_id == self.op_id and crc_ok and seq != self.expected
            and seq not in self.seen
        )
        action = super().on_frame(op_id, seq, crc_ok, retransmit_bytes)
        if op_id != self.op_id:
            SpyReceiver.stale.append((op_id, self.op_id, action))
        elif ahead:
            SpyReceiver.early.append((seq, self.expected, action))
        return action


class MeshChannel:
    def __init__(self, mesh: "Mesh") -> None:
        self.mesh = mesh
        self.inflight: list[tuple] = []

    def put(self, frame) -> None:
        self.inflight.append(frame)

    def poll(self, deadline, abort):
        mesh = self.mesh
        while True:
            options = [("take", i) for i in range(len(self.inflight))]
            options += [("run", rank) for rank in mesh.unstarted]
            if mesh.timers_left:
                options.append(("timer", None))
            if options:
                kind, arg = options[mesh.choose(len(options))]
            else:  # nothing will ever arrive: only the timer is left
                kind, arg = "timer", None
                mesh.timers_left += 1
            if kind == "take":
                return self.inflight.pop(arg)
            if kind == "run":
                mesh.run_rank(arg)
                continue
            mesh.timers_left -= 1
            mesh.now = max(mesh.now, deadline) + 1e-9
            return None

    get = poll  # chaos is always armed here: the receive path only polls


class MeshPort(RankPort):
    """Frames are ``(op_id, seq, crc, buf)``; the retransmit source
    is a per-rank outbox cleared in ``begin_op`` as the threaded
    carrier's is."""

    abort = None
    barrier = NoBarrier()
    watchdog_s = 0.5

    def __init__(self, mesh: "Mesh", rank: int) -> None:
        self.mesh = mesh
        self.rank = rank
        self.nranks = mesh.n
        self.chaos = mesh.chaos
        self.status = mesh.status
        self.last_recv = mesh.last_recv
        self.chans = mesh.chans
        self.outbox: dict = {}

    def clock(self) -> float:
        return self.mesh.now

    def sleep(self, seconds: float) -> None:
        self.mesh.now += seconds

    def begin_op(self, wire) -> None:
        # Safe only because of the gather: every receiver returned from
        # the previous operation before anyone began this one.
        self.outbox.clear()

    def views(self, array):
        store = self.mesh.stores[self.rank]
        return store.values, store.valid

    def stage(self, s, op_id, fill):
        buf = np.empty(s.nbytes // 8)
        fill(s, buf)
        self.outbox[(s.dst, op_id, s.seq)] = buf.copy()
        return (op_id, s.seq, payload_crc(buf), buf)

    def payload(self, frame):
        return frame[3]

    def retransmit(self, pair, op_id, seq):
        return self.mesh.ports[pair[0]].outbox.get((pair[1], op_id, seq))


class Mesh:
    def __init__(self, n: int, plan: FaultPlan, decisions, timers: int,
                 depth: int, members: int = 1):
        self.n = n
        self.chaos = ChaosState(plan, n)
        self.now = 0.0
        self.decisions = list(decisions)
        self.widths: list[int] = []  # options offered at each choice
        self.timers = timers
        self.depth = depth  # choice points enumerated per operation
        self.status = StatusBlock([0] * (n * StatusBlock.STRIDE))
        self.last_recv = [-1] * (n * n)
        self.chans = {
            (s, d): MeshChannel(self)
            for s in range(n) for d in range(n) if s != d
        }
        self.stores = self.fresh_stores(n, members)
        self.ports = [MeshPort(self, rank) for rank in range(n)]
        self.unstarted: list[int] = []
        # Each member is a placed op of its own — every rank sends its
        # slot of the member's stripe to every other, numbered from 0 —
        # and the wire operation is their merge.
        self.members = [
            LoweredComm("pointwise", [[
                SendOp(
                    seq=seq, src=s, dst=d, boxes=(Box(
                        "a", (slice((m * n + s) * WIDTH,
                                    (m * n + s + 1) * WIDTH, 1),),
                        None, WIDTH,
                    ),),
                    nbytes=WIDTH * 8,
                )
                for seq, (s, d) in enumerate(
                    (s, d) for s in range(n) for d in range(n) if s != d
                )
            ]])
            for m in range(members)
        ]
        self.sends = merge_lowered(self.members).rounds[0]

    @staticmethod
    def fresh_stores(n: int, members: int) -> list:
        return [
            SimpleNamespace(values=np.zeros(members * n * WIDTH),
                            valid=np.zeros(members * n * WIDTH, dtype=bool))
            for _ in range(n)
        ]

    def choose(self, width: int) -> int:
        self.choices_left -= 1
        if self.choices_left < 0:
            return 0  # past the enumerated depth: first option
        at = len(self.widths)
        self.widths.append(width)
        return self.decisions[at] if at < len(self.decisions) else 0

    def compute(self, stores, op_id: int) -> None:
        """Each rank overwrites the slot it owns of every member's
        stripe (and forgets the rest)."""
        for rank, store in enumerate(stores):
            store.valid[:] = False
            for m in range(len(self.members)):
                at = (m * self.n + rank) * WIDTH
                own = slice(at, at + WIDTH)
                store.values[own] = (
                    op_id * 100.0 + rank * 10.0 + m * 1000.0 + np.arange(WIDTH)
                )
                store.valid[own] = True

    def run_rank(self, rank: int) -> None:
        self.unstarted.remove(rank)
        script = [{
            "send": [s for s in self.sends if s.src == rank],
            "local": [],
            "recv": [s for s in self.sends if s.dst == rank],
        }]
        self.stats[rank] = _run_op(self.ports[rank], self.op_id, script, None)

    def run_op(self, op_id: int) -> dict:
        """Dispatch to every rank and gather every completion."""
        self.compute(self.stores, op_id)
        self.op_id = op_id
        self.stats: dict = {}
        self.timers_left = self.timers
        self.choices_left = self.depth
        self.unstarted = list(range(self.n))
        while self.unstarted:
            self.run_rank(self.unstarted[self.choose(len(self.unstarted))])
        assert sorted(self.stats) == list(range(self.n))
        return self.stats


def _inline_reference(mesh: Mesh, op_ids) -> list:
    """What ``inline`` installs for the same two operations, executing
    each member's own lowering one after the other."""
    stores = mesh.fresh_stores(mesh.n, len(mesh.members))
    inline = InlineTransport(mesh.n)
    inline.start({rank: {"a": store} for rank, store in enumerate(stores)})
    snapshots = []
    for op_id in op_ids:
        mesh.compute(stores, op_id)
        for member in mesh.members:
            inline.execute(member)
        snapshots.append([
            (store.values.copy(), store.valid.copy()) for store in stores
        ])
    return snapshots


def run_two_ops(n: int, plan: FaultPlan, decisions, timers: int = 0,
                depth: int = 99, members: int = 1):
    """Operations 7 and 8 back to back; returns the mesh and the stale
    frames seen, after checking both against the inline reference."""
    SpyReceiver.stale = []
    SpyReceiver.early = []
    mesh = Mesh(n, plan, decisions, timers, depth, members)
    reference = _inline_reference(mesh, (OP_ID, OP_ID + 1))
    for op_id, expected in zip((OP_ID, OP_ID + 1), reference):
        stats = mesh.run_op(op_id)
        for store, (values, valid) in zip(mesh.stores, expected):
            assert np.array_equal(store.valid, valid)
            assert np.array_equal(store.values, values), (
                f"op {op_id} installed something inline does not"
            )
        assert sum(rs.barrier_waits for rs in stats.values()) == 0
        assert sum(rs.sends for rs in stats.values()) == len(mesh.sends)
    return mesh, list(SpyReceiver.stale)


def every_interleaving(n: int, plan: FaultPlan, timers: int = 0,
                       depth: int = 99, members: int = 1):
    """Depth-first over every decision sequence: run with a prefix,
    default (option 0) beyond it, then advance the prefix like an
    odometer over the widths the run reported."""
    decisions: list[int] = []
    while True:
        mesh, stale = run_two_ops(n, plan, decisions, timers, depth, members)
        yield decisions, mesh, stale
        path = (decisions + [0] * len(mesh.widths))[:len(mesh.widths)]
        while path and path[-1] + 1 >= mesh.widths[len(path) - 1]:
            path.pop()
        if not path:
            return
        path[-1] += 1
        decisions = path


@pytest.fixture
def spy_receiver(monkeypatch):
    monkeypatch.setattr("repro.transport.base.ChannelReceiver", SpyReceiver)


def _check_every_interleaving(n, kinds, seed, timers, depth=99,
                              members=1) -> int:
    plan = _plan(kinds, seed)
    runs = 0
    for decisions, _mesh, stale in every_interleaving(
        n, plan, timers, depth, members
    ):
        runs += 1
        # A frame of the other operation is never anything but dropped.
        assert all(action is DROP_STALE for _, _, action in stale), (
            f"replay: run_two_ops({n}, {plan!r}, {decisions!r}, "
            f"{timers}, {depth}, {members})"
        )
    return runs


@pytest.mark.parametrize(
    "kinds", list(_subsets()), ids=lambda kinds: "+".join(kinds) or "clean"
)
def test_two_consecutive_ops_on_two_ranks(spy_receiver, kinds):
    for seed in (1, 2):
        assert _check_every_interleaving(2, kinds, seed, timers=1) > 1


@pytest.mark.parametrize("kinds,timers,depth", [
    ((), 0, 99), ((), 1, 5), (("drop",), 1, 99), (("dup",), 0, 5),
    (FAULTS, 1, 4),
], ids=lambda v: ("+".join(v) or "clean") if isinstance(v, tuple) else str(v))
def test_two_consecutive_ops_on_three_ranks(spy_receiver, kinds, timers,
                                            depth):
    # ``depth`` bounds the choice points enumerated per operation where
    # the full tree is too large; the rest take the first option.
    assert _check_every_interleaving(3, kinds, 1, timers, depth) > 1


def test_late_duplicate_of_op_k_is_drop_stale_in_op_k_plus_1(spy_receiver):
    # Every send is duplicated; each receiver installs the original and
    # returns, so the duplicates cross the operation boundary in flight.
    plan = FaultPlan(seed=1, dup=1.0)
    mesh, stale = run_two_ops(3, plan, [])
    assert stale, "no duplicate outlived its operation"
    assert {(frame_op, rx_op) for frame_op, rx_op, _ in stale} == {
        (OP_ID, OP_ID + 1)
    }
    assert all(action is DROP_STALE for _, _, action in stale)
    assert len(stale) == len(mesh.sends)  # one late duplicate per channel


# ---------------------------------------------------------------------------
# (iv) A merged operation: two placed ops in one wire operation
# ---------------------------------------------------------------------------
#
# The same mesh with two members per operation — each rank now has two
# frames in flight on every channel, member 1's ahead of member 2's in
# the script — against ``inline`` executing the two members one after
# the other.


@pytest.mark.parametrize(
    "kinds", list(_subsets()), ids=lambda kinds: "+".join(kinds) or "clean"
)
def test_merged_op_of_two_members_on_two_ranks(spy_receiver, kinds):
    # Every delivery order, every fault subset; ``depth`` bounds the
    # tree where a dup doubles the frames.
    depth = 5 if "dup" in kinds else 99
    for seed in (1, 2):
        assert _check_every_interleaving(
            2, kinds, seed, timers=0, depth=depth, members=2
        ) > 1


@pytest.mark.parametrize("kinds,timers,depth", [
    ((), 0, 5), (("drop",), 1, 4), (("reorder",), 0, 5), (FAULTS, 1, 3),
], ids=lambda v: ("+".join(v) or "clean") if isinstance(v, tuple) else str(v))
def test_merged_op_of_two_members_on_three_ranks(spy_receiver, kinds, timers,
                                                 depth):
    assert _check_every_interleaving(
        3, kinds, 1, timers, depth, members=2
    ) > 1


def test_member_two_ahead_of_member_one_is_stashed_not_stale(spy_receiver):
    # No fault armed: the only way a frame runs ahead is the channel
    # delivering member 2's before member 1's.  One operation id covers
    # both, so the core keeps it for its turn.
    overtakes = 0
    for _decisions, _mesh, stale in every_interleaving(
        2, _plan((), 1), members=2
    ):
        assert not stale
        overtakes += bool(SpyReceiver.early)
        assert all(
            action is STASH and seq > expected
            for seq, expected, action in SpyReceiver.early
        )
    assert overtakes, "no interleaving delivered member 2's frame first"


# ---------------------------------------------------------------------------
# (v) A reduce operation: the statement's trees as wire frames
# ---------------------------------------------------------------------------
#
# Every rank runs the real ``_run_reduce`` over the rounds of
# ``lower_reduction``.  A reduce rank receives before it sends (gather
# up, then broadcast down), so ranks cannot run nested as above: each
# is a thread, but only one runs at a time — a rank polling its channel
# hands the baton back to the scheduler, which picks the next step from
# the decision list exactly as ``Mesh.choose`` does.  A choice point is
# any rank polling; the options are every frame in flight to a polling
# rank, every rank not yet started, and (a bounded number of times) a
# polling rank's NACK timer.  With nothing else left, simulated time
# moves to the earliest timer.  Oracle: every rank's values equal
# ``combine_pieces`` of the inputs bitwise, or the rank ends in
# ``_Abort`` — and every payload any rank took in is bitwise the one
# its sender staged.


@functools.cache
def _tree_inputs(n: int):
    """Two trees: member 1 of the first has nothing on rank 1, and only
    rank 0 owns the second, so some gather frames are empty."""
    rng = np.random.default_rng(3)
    trees = [
        [{r: rng.standard_normal(1 + r % 2) for r in range(n)},
         {r: rng.standard_normal(1) for r in range(n) if r != 1}],
        [{0: rng.standard_normal(2)}],
    ]
    ops = [["SUM", "MAX"], ["MIN"]]
    expected = tuple(
        tuple(combine_pieces(member, op) for member, op in zip(tree, tops))
        for tree, tops in zip(trees, ops)
    )
    return trees, ops, expected


class CheckedWalk(_TreeWalk):
    """Refuses any payload that is not what its sender staged."""

    mesh = None

    def deliver(self, s, payload):
        pristine = CheckedWalk.mesh.ports[s.src].outbox[(s.dst, OP_ID, s.seq)]
        assert payload.tobytes() == pristine.tobytes(), (
            f"seq {s.seq} {s.src}->{s.dst}: a wrong payload was taken in"
        )
        super().deliver(s, payload)


class TreeChannel:
    def __init__(self, mesh: "TreeMesh", dst: int) -> None:
        self.mesh = mesh
        self.dst = dst
        self.inflight: list[tuple] = []

    def put(self, frame) -> None:
        self.inflight.append(frame)

    def poll(self, deadline, abort):
        """Pass the baton on and wait for it to come back with the
        answer: a frame, or ``None`` once the timer fired."""
        mesh = self.mesh
        mesh.polling[self.dst] = (self, deadline)
        mesh.pass_baton(self.dst)
        if mesh.stopped:
            raise _Abort()
        return mesh.answer.pop(self.dst)

    get = poll  # chaos is always armed here: the receive path only polls


class TreeMesh:
    """One ``_run_reduce`` on every rank, every step picked here.  The
    rank that gives up the baton picks the next step and hands it on,
    so a rank taking its own next frame keeps running."""

    def __init__(self, n: int, plan: FaultPlan, decisions, timers: int,
                 depth: int):
        self.n = n
        self.chaos = ChaosState(plan, n)
        self.now = 0.0
        self.decisions = list(decisions)
        self.widths: list[int] = []
        self.timers_left = timers
        self.choices_left = depth
        self.status = StatusBlock([0] * (n * StatusBlock.STRIDE))
        self.last_recv = [-1] * (n * n)
        self.chans = {
            (s, d): TreeChannel(self, d)
            for s in range(n) for d in range(n) if s != d
        }
        self.stores = Mesh.fresh_stores(n, 1)
        self.ports = [MeshPort(self, rank) for rank in range(n)]
        trees, ops, self.expected = _tree_inputs(n)
        self.sizes, self.vectors, self.ops = reduce_args(trees, ops, n)
        lowered = lower_reduction(self.sizes, n)
        self.sends = [s for rnd in lowered.rounds for s in rnd]
        self.unstarted = list(range(n))
        self.polling: dict = {}  # rank -> (channel, wake-up time)
        self.answer: dict = {}
        self.outcome: dict = {}  # rank -> (values, stats) | "abort"
        self.wake = [threading.Semaphore(0) for _ in range(n)]
        self.done = threading.Semaphore(0)
        self.stopped = False

    choose = Mesh.choose

    def _step(self) -> int:
        """Pick and apply the next step; the rank that takes it."""
        polling = sorted(self.polling)
        options = [
            ("take", rank, i)
            for rank in polling
            for i in range(len(self.polling[rank][0].inflight))
        ]
        options += [("run", rank, None) for rank in self.unstarted]
        if self.timers_left:
            options += [("timer", rank, None) for rank in polling]
        if options:
            kind, rank, at = options[self.choose(len(options))]
        else:  # only time is left: the earliest timer fires
            kind, at = "timer", None
            rank = min(polling, key=lambda r: self.polling[r][1])
            self.timers_left += 1
        if kind == "run":
            self.unstarted.remove(rank)
        elif kind == "take":
            chan, _ = self.polling.pop(rank)
            self.answer[rank] = chan.inflight.pop(at)
        else:
            self.timers_left -= 1
            _, wake_at = self.polling.pop(rank)
            self.now = max(self.now, wake_at) + 1e-9
            self.answer[rank] = None
        return rank

    def pass_baton(self, me) -> None:
        """``me`` — a polling rank, a finished one, or ``None`` for the
        caller of :meth:`run` — lets the next step run; a polling rank
        returns once the baton is back."""
        if self.stopped or len(self.outcome) == self.n:
            self.done.release()
            return
        rank = self._step()
        if rank == me:
            return
        self.wake[rank].release()
        if me is not None and me not in self.outcome:
            self.wake[me].acquire()

    def _rank(self, rank: int) -> None:
        self.wake[rank].acquire()
        try:
            if self.stopped:
                raise _Abort()
            outcome = _run_reduce(
                self.ports[rank], OP_ID, self.sizes, None,
                self.vectors[rank], self.ops,
            )
        except _Abort:
            outcome = "abort"
        except BaseException as exc:  # noqa: BLE001 - run_reduce raises it
            outcome = exc
        self.outcome[rank] = outcome
        self.pass_baton(rank)

    def run(self) -> dict:
        threads = [
            threading.Thread(target=self._rank, args=(rank,), daemon=True)
            for rank in range(self.n)
        ]
        for thread in threads:
            thread.start()
        self.pass_baton(None)
        finished = self.done.acquire(timeout=30.0)
        self.stopped = True
        for wake in self.wake:
            wake.release()
        for thread in threads:
            thread.join(5.0)
        assert finished, "the reduce mesh stalled"
        return self.outcome


def run_reduce(n: int, plan: FaultPlan, decisions, timers: int = 0,
               depth: int = 99) -> TreeMesh:
    """One reduce op on ``n`` ranks; checks the oracle, returns the mesh."""
    mesh = TreeMesh(n, plan, decisions, timers, depth)
    CheckedWalk.mesh = mesh
    for rank, outcome in sorted(mesh.run().items()):
        if isinstance(outcome, BaseException):
            raise outcome
        if outcome == "abort":
            continue
        values, rs = outcome
        assert [list(map(float.hex, tree)) for tree in values] == [
            list(map(float.hex, tree)) for tree in mesh.expected
        ], f"rank {rank} ended with values inline does not produce"
        assert rs.barrier_waits == 0
    finished = [o for o in mesh.outcome.values() if o != "abort"]
    if len(finished) == n:
        assert sum(rs.sends for _, rs in finished) == len(mesh.sends)
    return mesh


def every_reduce_interleaving(n: int, plan: FaultPlan, timers: int = 0,
                              depth: int = 99):
    """The odometer of :func:`every_interleaving`, over reduce runs."""
    decisions: list[int] = []
    while True:
        mesh = run_reduce(n, plan, decisions, timers, depth)
        yield decisions, mesh
        path = (decisions + [0] * len(mesh.widths))[:len(mesh.widths)]
        while path and path[-1] + 1 >= mesh.widths[len(path) - 1]:
            path.pop()
        if not path:
            return
        path[-1] += 1
        decisions = path


@pytest.fixture
def checked_walk(monkeypatch):
    monkeypatch.setattr("repro.transport.base._TreeWalk", CheckedWalk)


def _check_every_reduce_interleaving(n, kinds, seed, timers, depth) -> None:
    plan = _plan(kinds, seed)
    runs = finished = 0
    for decisions, mesh in every_reduce_interleaving(n, plan, timers, depth):
        runs += 1
        finished += "abort" not in mesh.outcome.values()
    assert runs > 1
    assert finished, f"no run of {plan!r} on {n} ranks finished"


@pytest.mark.parametrize(
    "kinds", list(_subsets()), ids=lambda kinds: "+".join(kinds) or "clean"
)
def test_reduce_on_two_ranks(checked_walk, kinds):
    for seed in (1, 2):
        _check_every_reduce_interleaving(2, kinds, seed, 1, 99)


@pytest.mark.parametrize(
    "kinds", list(_subsets()), ids=lambda kinds: "+".join(kinds) or "clean"
)
def test_reduce_on_three_ranks(checked_walk, kinds):
    # ``depth`` bounds the choice points enumerated, as on the mesh.
    _check_every_reduce_interleaving(3, kinds, 1, 1, 5)


def test_reduce_frames_draw_every_fault_and_heal(checked_walk):
    # Every kind at rate 1: each frame is dropped, or (a second plan)
    # delayed, corrupted, duplicated and held back — and still every
    # rank ends with the values ``combine_pieces`` gives.
    for plan in (FaultPlan(seed=1, drop=1.0),
                 FaultPlan(seed=1, delay=1.0, corrupt=1.0, dup=1.0,
                           reorder=1.0)):
        mesh = run_reduce(3, plan, [])
        assert "abort" not in mesh.outcome.values()
        injected = mesh.chaos.ledger()
        for kind in KINDS[:-1]:
            if plan.rate(kind):
                assert sum(row.get(kind, 0) for row in injected.values())
        stats = [rs for _, rs in mesh.outcome.values()]
        assert sum(rs.retransmits for rs in stats) > 0
        if plan.corrupt:
            assert sum(rs.crc_failures for rs in stats) > 0
