"""Collective lowering: CommPlans → transport send schedules.

The pattern classifier (:mod:`repro.comm.patterns`) already names the
shape of every placed operation; this module exploits it when turning a
:class:`~repro.runtime.plans.CommPlan` into wire traffic:

* **shift** → *neighbor exchange*: the plan's point-to-point transfers,
  posted concurrently in one round (diagonal augmented exchanges keep
  their phase structure: phase ``k`` forwards data phase ``k-1``
  delivered, so phases become barrier-separated rounds);
* **allgather** → *ring*: every owner's piece travels around the rank
  ring in ``P-1`` barrier-separated rounds, each rank forwarding the
  piece it received the round before — same total bytes as the direct
  broadcast, neighbor-only pairs;
* **reduction** → *log-P combining tree* (:func:`lower_reduction`):
  partial vectors gather up a binomial tree to rank 0, are combined in
  canonical order, and the scalar result broadcasts back down;
* **general** (and anything the recognizers decline) → raw
  point-to-point exactly as planned.

Every lowering carries its own *predicted* per-pair message/byte
accounting, computed from the same geometry the backend will execute —
the executor asserts measured == predicted exactly after every
operation, which is the repository's wire-level analogue of the §6.1
simulator check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from math import gcd

import numpy as np

from ..runtime.plans import CommPlan, PlannedTransfer


@dataclass
class SendOp:
    """One wire message (or local install when ``src == dst``): move
    the ``index`` box of ``array`` from rank ``src`` to rank ``dst``.
    Picklable — the multiprocess control plane ships these verbatim."""

    seq: int
    src: int
    dst: int
    array: str
    index: tuple
    nbytes: int
    mask: np.ndarray | None = None

    @property
    def is_local(self) -> bool:
        return self.src == self.dst


@dataclass
class LoweredComm:
    """One wire operation as rounds of sends: the lowering of one placed
    op, or (:func:`merge_lowered`) of the mutually independent placed
    ops that fire together.  All sends in a round read state as of the
    end of the previous round (a barrier separates rounds).  Within a
    round of a single placed op the written regions are disjoint per
    destination; a merged round may write one region twice (``orig``'s
    redundant messages), with equal values — every delivery of a firing
    carries what the sequential semantics hold at that program point —
    so delivery order cannot change the result either way.

    ``members`` names the algorithm of every placed op the operation
    carries; ``seq`` numbers are unique within it and increase in
    script order on every (src, dst) channel."""

    algorithm: str
    rounds: list[list[SendOp]]
    predicted_pairs: dict = field(default_factory=dict)  # (src,dst)->bytes
    predicted_msgs: dict = field(default_factory=dict)   # (src,dst)->count
    members: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.members:
            self.members = (self.algorithm,)


def _charge(lowered, src: int, dst: int, nbytes: int) -> None:
    """Predict one wire message of ``nbytes`` from ``src`` to ``dst``."""
    key = (src, dst)
    lowered.predicted_pairs[key] = lowered.predicted_pairs.get(key, 0) + nbytes
    lowered.predicted_msgs[key] = lowered.predicted_msgs.get(key, 0) + 1


def _predict(lowered: LoweredComm) -> LoweredComm:
    for rnd in lowered.rounds:
        for s in rnd:
            if not s.is_local:
                _charge(lowered, s.src, s.dst, s.nbytes)
    return lowered


def _pointwise_rounds(plan: CommPlan) -> list[list[SendOp]]:
    """The plan's transfers as sends, grouped by phase (round)."""
    by_phase: dict[int, list[SendOp]] = {}
    seq = 0
    for t in plan.transfers:
        for dst in t.dsts:
            by_phase.setdefault(t.phase, []).append(SendOp(
                seq=seq, src=t.src, dst=dst, array=t.array,
                index=t.index, nbytes=t.nbytes, mask=t.mask,
            ))
            seq += 1
    return [by_phase[p] for p in sorted(by_phase)]


def _ring_rounds(plan: CommPlan, nranks: int) -> list[list[SendOp]] | None:
    """Ring lowering of an all-destinations broadcast plan, or None when
    the plan does not have the expected shape (every transfer unmasked
    with the full rank set as destinations)."""
    pieces: list[PlannedTransfer] = []
    all_ranks = tuple(range(nranks))
    for t in plan.transfers:
        if t.mask is not None or tuple(sorted(t.dsts)) != all_ranks:
            return None
        pieces.append(t)
    if not pieces or nranks < 3:
        return None  # P<3: the ring degenerates to the direct sends
    rounds: list[list[SendOp]] = []
    seq = 0
    for step in range(1, nranks):
        rnd: list[SendOp] = []
        for t in pieces:
            src = (t.src + step - 1) % nranks
            dst = (t.src + step) % nranks
            rnd.append(SendOp(
                seq=seq, src=src, dst=dst, array=t.array,
                index=t.index, nbytes=t.nbytes,
            ))
            seq += 1
        rounds.append(rnd)
    return rounds


def lower_comm(
    kind: str, plan: CommPlan, nranks: int, collectives: bool = True
) -> LoweredComm:
    """Lower one plan to the cheapest collective its classified shape
    admits; anything unrecognized (or ``collectives=False``) stays raw
    point-to-point."""
    if collectives and kind == "allgather":
        ring = _ring_rounds(plan, nranks)
        if ring is not None:
            return _predict(LoweredComm("ring-allgather", ring))
    rounds = _pointwise_rounds(plan)
    if collectives and kind == "shift":
        algorithm = (
            "neighbor-exchange" if len(rounds) <= 1
            else "augmented-exchange"
        )
    else:
        algorithm = "pointwise"
    return _predict(LoweredComm(algorithm, rounds))


# ---------------------------------------------------------------------------
# Firings: the placed ops at one anchor as one wire operation
# ---------------------------------------------------------------------------


def _span(part) -> tuple:
    """(start, stop, step) of one dimension of a numpy index box."""
    if isinstance(part, slice):
        return part.start, part.stop, part.step or 1
    return part, part + 1, 1


def _may_overlap(a: tuple, b: tuple) -> bool:
    """Whether two index boxes can share an element: in every dimension
    the intervals meet and the strides' residues agree.  Conservative —
    an open-ended slice, or a shared residue that falls outside the
    common interval, answers True."""
    for (p0, p1, ps), (q0, q1, qs) in zip(map(_span, a), map(_span, b)):
        if None in (p0, p1, q0, q1):
            continue
        if p0 >= q1 or q0 >= p1 or (p0 - q0) % gcd(ps, qs):
            return False
    return True


def _touches(sends, boxes: dict) -> bool:
    """Whether a send reads or writes — ``boxes`` is keyed by what the
    caller asks about — a box already recorded for its rank and array."""
    return any(
        _may_overlap(index, box)
        for key, index in sends
        for box in boxes.get(key, ())
    )


def independent_runs(
    members: list[LoweredComm],
) -> tuple[list[list[int]], int]:
    """Split the lowerings of one firing, in schedule order, into runs
    whose members may share one wire operation.  Two members are
    independent when neither reads (sends from) a region the other
    delivers: the later one would miss a delivery it must see, and a
    forwarding round of the earlier one would be satisfied by a delivery
    the schedule never promised it — the validity oracle must keep
    refusing that.  A first round reads only what the rank held before
    the firing, so of the earlier members only rounds after the first
    are tested.  Writes need no test (see :class:`LoweredComm`).  The
    test is static, on index boxes, masks ignored.  Returns ``(runs of
    member indices, tests made)``."""
    runs: list[list[int]] = [[]]
    delivered: dict[tuple[int, str], list[tuple]] = {}
    forwarded: dict[tuple[int, str], list[tuple]] = {}
    tests = 0
    for i, member in enumerate(members):
        reads = [
            ((s.src, s.array), s.index) for rnd in member.rounds for s in rnd
        ]
        writes = [
            ((s.dst, s.array), s.index) for rnd in member.rounds for s in rnd
        ]
        if reads and delivered:
            tests += 1
            if _touches(reads, delivered) or _touches(writes, forwarded):
                runs.append([])
                delivered, forwarded = {}, {}
        runs[-1].append(i)
        for key, index in writes:
            delivered.setdefault(key, []).append(index)
        for rnd in member.rounds[1:]:
            for s in rnd:
                forwarded.setdefault((s.src, s.array), []).append(s.index)
    return runs, tests


def merge_lowered(members: list[LoweredComm]) -> LoweredComm:
    """The members of one independent run as one wire operation: round
    ``r`` is the members' rounds ``r`` one after the other, sends
    renumbered in that order; the prediction is the members' summed."""
    if len(members) == 1:
        return members[0]
    algorithms = tuple(a for m in members for a in m.members)
    merged = LoweredComm(
        "+".join(dict.fromkeys(algorithms)), [], members=algorithms
    )
    seq = 0
    for r in range(max(len(m.rounds) for m in members)):
        rnd: list[SendOp] = []
        for m in members:
            for s in m.rounds[r] if r < len(m.rounds) else ():
                rnd.append(replace(s, seq=seq))
                seq += 1
        merged.rounds.append(rnd)
    return _predict(merged)


# ---------------------------------------------------------------------------
# Reductions: binomial gather tree + broadcast
# ---------------------------------------------------------------------------


SCALAR_BYTES = 8


@dataclass
class ReduceLowering:
    """A log-P combining tree over all ranks: ``gather_rounds`` move the
    accumulated partial vectors toward rank 0 (payload grows as subtrees
    merge), rank 0 combines in canonical order, and ``bcast_rounds``
    fan the result — 8 bytes per batch member — back out along the
    reversed edges."""

    op: "str | tuple"
    gather_rounds: list[list[tuple[int, int]]]  # (src, dst) edges
    bcast_rounds: list[list[tuple[int, int]]]
    predicted_pairs: dict = field(default_factory=dict)
    predicted_msgs: dict = field(default_factory=dict)


def reduction_tree(nranks: int) -> list[list[tuple[int, int]]]:
    """Binomial-tree gather edges toward rank 0, round by round."""
    rounds: list[list[tuple[int, int]]] = []
    step = 1
    while step < nranks:
        edges = [
            (base + step, base)
            for base in range(0, nranks, 2 * step)
            if base + step < nranks
        ]
        rounds.append(edges)
        step *= 2
    return rounds


def lower_reduction(
    op, piece_bytes: dict[int, int], nranks: int, count: int = 1
) -> ReduceLowering:
    """Schedule one tree operation and predict its exact wire traffic
    from the per-rank partial sizes — summed over the ``count`` members
    of a batch, whose scalars share each broadcast message."""
    gather = reduction_tree(nranks)
    bcast = [[(dst, src) for src, dst in rnd] for rnd in reversed(gather)]
    lowered = ReduceLowering(op, gather, bcast)
    held = {rank: piece_bytes.get(rank, 0) for rank in range(nranks)}
    for rnd in gather:
        for src, dst in rnd:
            _charge(lowered, src, dst, held[src])
            held[dst] += held[src]
            held[src] = 0
    for rnd in bcast:
        for src, dst in rnd:
            _charge(lowered, src, dst, count * SCALAR_BYTES)
    return lowered
