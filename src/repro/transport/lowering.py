"""Collective lowering: CommPlans and reductions → transport send schedules.

The pattern classifier (:mod:`repro.comm.patterns`) already names the
shape of every placed operation; this module exploits it when turning a
:class:`~repro.runtime.plans.CommPlan` into wire traffic:

* **shift** → *neighbor exchange*: the plan's point-to-point transfers,
  one frame per partner carrying every section the op's combined
  entries send it, posted concurrently in one round (diagonal
  augmented exchanges keep their phase structure: phase ``k`` forwards
  data phase ``k-1`` delivered, so phases become barrier-separated
  rounds);
* **reduction** → *log-P combining tree* (:func:`lower_reduction`): the
  partials of a statement's reduction trees gather up a binomial tree
  to rank 0, are combined there in canonical order, and the results
  broadcast back down the reversed edges — numbered sends
  (:class:`TreeSend`) whose flat payloads travel as schedule frames do;
* anything else (and anything the recognizers decline) → raw
  point-to-point exactly as planned, again one frame per partner.

Every lowering carries its own *predicted* per-pair message/byte
accounting, computed from the same geometry the backend will execute —
the executor asserts measured == predicted exactly after every
operation, which is the repository's wire-level analogue of the §6.1
simulator check.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache
from math import gcd
from typing import NamedTuple

import numpy as np

from ..runtime.plans import CommPlan


class Box(NamedTuple):
    """One section of a frame: the ``index`` box of ``array`` (a numpy
    basic index), compacted by ``mask`` when there is one (the diagonal
    augmented exchanges), ``count`` elements on the wire."""

    array: str
    index: tuple
    mask: np.ndarray | None
    count: int


@dataclass
class SendOp:
    """One wire frame (or local install when ``src == dst``): the
    ``boxes`` of rank ``src``'s storage, one after the other in one flat
    payload of ``nbytes``, installed box by box on rank ``dst``.  A
    placed op sends one frame per (round, src, dst), carrying every
    section its combined entries move on that edge — Figure 5's one
    start-up plus one ``bcopy`` of the packed sections.  Picklable — the
    multiprocess control plane ships these verbatim."""

    seq: int
    src: int
    dst: int
    boxes: tuple[Box, ...]
    nbytes: int

    @property
    def is_local(self) -> bool:
        return self.src == self.dst


@dataclass
class LoweredComm:
    """One wire operation as rounds of sends: the lowering of one placed
    op, or (:func:`merge_lowered`) of the mutually independent placed
    ops that fire together.  All sends in a round read state as of the
    end of the previous round (a barrier separates rounds).  Within a
    round of a single placed op a destination receives each element at
    most once: one frame per partner, carrying the union of the plan's
    sections (:func:`~repro.runtime.plans.send_once` drops a nested
    box; partial overlaps, none of which the benchmarks plan, would
    stay).  A merged round may write one region twice (``orig``'s
    redundant messages), with equal values — every delivery of a firing
    carries what the sequential semantics hold at that program point —
    so delivery order cannot change the result either way.  A
    reduce-tree (:func:`lower_reduction`) is ordered by its receives
    instead, and waits at no barrier.

    ``members`` names the algorithm of every placed op the operation
    carries; ``seq`` numbers are unique within it and increase in
    script order on every (src, dst) channel."""

    algorithm: str
    rounds: list[list[SendOp | TreeSend]]
    predicted_pairs: dict = field(default_factory=dict)  # (src,dst)->bytes
    predicted_msgs: dict = field(default_factory=dict)   # (src,dst)->count
    members: tuple[str, ...] = ()
    #: rank -> its round script, filled by a concurrent transport on
    #: first dispatch.
    scripts: dict | None = field(default=None, compare=False, repr=False)

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
    """The plan's transfers as frames, one per (phase, src, dst) in
    order of first use, its boxes in transfer order; one round per
    phase."""
    frames: dict[tuple[int, int, int], list] = {}
    for t in plan.transfers:
        box = Box(t.array, t.index, t.mask, t.nbytes // SCALAR_BYTES)
        for dst in t.dsts:
            frame = frames.setdefault((t.phase, t.src, dst), [[], 0])
            frame[0].append(box)
            frame[1] += t.nbytes
    rounds: dict[int, list[SendOp]] = {}
    for seq, ((phase, src, dst), (boxes, nbytes)) in enumerate(
        sorted(frames.items(), key=lambda item: item[0][0])
    ):
        rounds.setdefault(phase, []).append(
            SendOp(seq, src, dst, tuple(boxes), nbytes)
        )
    return list(rounds.values())


def lower_comm(kind: str, plan: CommPlan) -> LoweredComm:
    """Lower one plan to its rounds of sends: a shift is a neighbor
    (or, with phases, augmented) exchange, anything else stays raw
    point-to-point."""
    rounds = _pointwise_rounds(plan)
    if kind == "shift":
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
            ((s.src, b.array), b.index)
            for rnd in member.rounds for s in rnd for b in s.boxes
        ]
        writes = [
            ((s.dst, b.array), b.index)
            for rnd in member.rounds for s in rnd for b in s.boxes
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
                for b in s.boxes:
                    forwarded.setdefault((s.src, b.array), []).append(b.index)
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


class TreeSend(NamedTuple):
    """One frame of a reduce-tree operation: tree ``tree``'s traffic on
    the edge ``src -> dst``.  A gather frame (``counts`` set) carries,
    member after member, the ``counts[m]`` partials the sender's subtree
    holds of member ``m`` in rank order; a broadcast frame (``counts``
    None) carries the tree's results, one per member.  Either is a flat
    float64 payload the rank builds whole."""

    seq: int
    src: int
    dst: int
    tree: int
    counts: tuple[int, ...] | None
    nbytes: int

    is_local = False


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


def tree_sizes(trees, nranks: int) -> tuple:
    """``sizes[t][m][rank]``: the element count of rank ``rank``'s
    partial (an array) of member ``m`` of tree ``t``, from
    ``trees[t][m]``, a ``rank -> partial`` dict."""
    return tuple(
        tuple(
            tuple(member[rank].size if rank in member else 0
                  for rank in range(nranks))
            for member in tree
        )
        for tree in trees
    )


@lru_cache(maxsize=256)
def lower_reduction(sizes: tuple, nranks: int) -> LoweredComm:
    """The reduction trees of one statement (their :func:`tree_sizes`)
    as one operation: every edge of the binomial gather toward rank 0,
    then every edge reversed for the broadcast, each tree's frame on an
    edge before the next edge's.  Receives, not barriers, order the
    rounds.  Kept per size pattern: a statement's trees have the same
    sizes on every execution."""
    held = [[list(member) for member in tree] for tree in sizes]
    gather = reduction_tree(nranks)
    rounds: list[list[TreeSend]] = []
    seq = 0
    for edges in gather:
        rnd = []
        for src, dst in edges:
            for t, tree in enumerate(held):
                counts = tuple(member[src] for member in tree)
                rnd.append(TreeSend(
                    seq, src, dst, t, counts, SCALAR_BYTES * sum(counts)
                ))
                seq += 1
                for member in tree:
                    member[dst] += member[src]
        rounds.append(rnd)
    for edges in reversed(gather):
        rnd = []
        for child, parent in edges:
            for t, tree in enumerate(held):
                rnd.append(TreeSend(
                    seq, parent, child, t, None, SCALAR_BYTES * len(tree)
                ))
                seq += 1
        rounds.append(rnd)
    return _predict(LoweredComm(
        "reduce-tree", rounds, members=("reduce-tree",) * len(sizes)
    ))
