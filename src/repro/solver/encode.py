"""Joint pseudo-boolean encoding of the whole placement problem.

Unlike the per-pass pipeline (§4.5 subset elimination, §4.6 redundancy
elimination, §4.7 greedy combining — each locally greedy), this model
encodes every placement decision for a program *jointly* and lets the
bounded solver of :mod:`repro.solver.bnb` minimize the true objective,
total message count (tie-break: bytes moved).

Variables (one boolean each):

* ``x[c,p]`` — entry ``c`` fires at candidate position ``p`` (``p``
  ranges over the entry's full legality chain from §4.4, not the
  heuristically narrowed working set).
* ``e[l,w,p]`` — loser ``l`` is eliminated by winner ``w`` placed at
  ``p``; created only where ``p`` lies in both candidate chains and the
  §4.6 subsumption predicate holds there, so every elimination the model
  can express satisfies Claim 4.7's coverage constraint by construction.
* ``g[c,r,p]`` — ``c`` joins the combined message led by representative
  ``r`` at ``p`` (``r.id ≤ c.id`` breaks group symmetry; ``g[r,r,p]`` is
  the *leader* variable that counts as one emitted message).

Constraints:

1. exactly-one: each entry is placed at one position or eliminated once;
2. winners fire: ``e[l,w,p] → x[w,p]``;
3. membership ties to placement: ``x[c,p] ↔ ∃r g[c,r,p]`` and
   ``g[c,r,p] → x[c,p]``;
4. leadership: ``g[c,r,p] → g[r,r,p]``;
5. pairwise §4.7 compatibility within a group;
6. combined-volume cap: members beyond the representative fit in
   ``threshold − vol(r,p)`` (a lone oversized message stays legal, the
   same rule the greedy partitioner applies);
7. (added per query) ``Σ leaders ≤ k`` — the binary-search bound.

:func:`decode_assignment` maps a satisfying assignment back to concrete
placement actions (placements, eliminations, combined groups) that
:mod:`repro.solver.search` applies to the real ``CommEntry`` objects —
the decoded schedule is verified by the existing oracle and simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..comm.compatibility import message_volume
from ..comm.entries import CommEntry
from ..core.context import AnalysisContext
from ..core.greedy import _combinable_at
from ..core.redundancy import subsumes_at
from ..ir.cfg import Position
from .bnb import PBModel, pos as plit


@dataclass
class DecodedSchedule:
    """A solver assignment translated back into placement actions."""

    #: entry id → chosen fire position (placed entries only).
    placements: dict[int, Position]
    #: loser entry id → winner entry id.
    eliminations: dict[int, int]
    #: one emitted message per item: (position, member entry ids).
    groups: list[tuple[Position, list[int]]]

    @property
    def messages(self) -> int:
        return len(self.groups)


@dataclass
class ExactModel:
    """The PB model plus every index needed to decode assignments."""

    ctx: AnalysisContext
    entries: list[CommEntry]
    model: PBModel
    x_index: dict[tuple[int, Position], int]
    e_index: dict[tuple[int, int, Position], int]
    g_index: dict[tuple[int, int, Position], int]
    leader_index: dict[tuple[int, Position], int]
    volumes: dict[tuple[int, int], int]
    weights: dict[Position, int] = field(default_factory=dict)

    # -- decision heuristics --------------------------------------------------

    def decide_order(self) -> list[int]:
        """Per-entry decision blocks, most-constrained entry first: try
        eliminations, then group memberships latest-position-first (the
        greedy pass's own tie-break bias), leaders last within a block."""
        order: list[int] = []
        for entry in sorted(self.entries, key=lambda e: (len(e.candidates), e.id)):
            for (loser, _w, _p), var in sorted(self.e_index.items()):
                if loser == entry.id:
                    order.append(var)
            for position in reversed(entry.candidates):
                members = [
                    var
                    for (c, r, p), var in self.g_index.items()
                    if c == entry.id and p == position and r != entry.id
                ]
                order.extend(sorted(members))
                leader = self.g_index.get((entry.id, entry.id, position))
                if leader is not None:
                    order.append(leader)
        return order

    def prefer(self) -> list[int]:
        """First value tried per variable: eliminations and group joins
        are message-saving, so try them True; everything else False."""
        want = [0] * self.model.num_vars
        for var in self.e_index.values():
            want[var] = 1
        for (c, r, _p), var in self.g_index.items():
            if c != r:
                want[var] = 1
        return want

    # -- objective ------------------------------------------------------------

    def leader_vars(self) -> list[int]:
        return sorted(self.leader_index.values())

    def volume_at(self, entry: CommEntry, position: Position) -> int:
        key = (entry.id, position.node_id)
        cached = self.volumes.get(key)
        if cached is not None:
            return cached
        ctx = self.ctx
        node = ctx.node_of(position)
        volume = message_volume(
            ctx.info,
            entry,
            ctx.sections.section_at(entry.use, node),
            ctx.sections.live_ranges_at(node),
        )
        self.volumes[key] = volume
        return volume

    def weight_of(self, position: Position) -> int:
        """Static trip weight: 8 per enclosing loop (the §6.1 model)."""
        cached = self.weights.get(position)
        if cached is not None:
            return cached
        node = self.ctx.node_of(position)
        weight = 8 ** len(node.loops_containing())
        self.weights[position] = weight
        return weight

    def bytes_moved(self, assignment: list[int]) -> int:
        by_id = {e.id: e for e in self.entries}
        total = 0
        for (eid, position), var in self.x_index.items():
            if assignment[var]:
                total += self.weight_of(position) * self.volume_at(
                    by_id[eid], position
                )
        return total

    # -- bounds ---------------------------------------------------------------

    def lower_bound(self) -> int:
        """A sound message-count floor: a greedy clique of entries that
        can neither be eliminated (no ``e`` variable targets them) nor
        ever share a message with each other (no shared position where
        §4.7 compatibility holds) — each clique member needs its own
        message in every feasible schedule."""
        if not self.entries:
            return 0
        eliminable = {loser for (loser, _w, _p) in self.e_index}
        can_share: set[tuple[int, int]] = set()
        for (c, r, _p) in self.g_index:
            if c != r:
                can_share.add((r, c))  # r.id ≤ c.id by construction
        hard = [e for e in self.entries if e.id not in eliminable]
        if not hard:
            return 1

        def conflicts(a: int, b: int) -> bool:
            key = (a, b) if a <= b else (b, a)
            return key not in can_share

        best = 1
        degree = {
            e.id: sum(1 for o in hard if o is not e and conflicts(e.id, o.id))
            for e in hard
        }
        for seed_key in (
            lambda e: (-degree[e.id], e.id),
            lambda e: e.id,
        ):
            clique: list[int] = []
            for e in sorted(hard, key=seed_key):
                if all(conflicts(e.id, member) for member in clique):
                    clique.append(e.id)
            best = max(best, len(clique))
        return best


class EncodingLimitError(Exception):
    """The model build blew past its deadline — the anytime driver treats
    this as 'no improvement found' and returns the greedy incumbent."""


def build_model(
    ctx: AnalysisContext,
    entries: list[CommEntry],
    deadline: Optional[float] = None,
) -> ExactModel:
    """Encode the joint placement problem for the given (alive) entries."""
    import time

    live = [e for e in entries if e.alive and e.candidates]
    live.sort(key=lambda e: e.id)
    model = PBModel()
    em = ExactModel(
        ctx=ctx,
        entries=live,
        model=model,
        x_index={},
        e_index={},
        g_index={},
        leader_index={},
        volumes={},
    )

    def check_deadline() -> None:
        if deadline is not None and time.monotonic() > deadline:
            raise EncodingLimitError("model build exceeded the solver budget")

    # Placement variables over the full legality chains.
    for entry in live:
        for position in entry.candidates:
            em.x_index[(entry.id, position)] = model.new_var()

    # Elimination variables where §4.6 subsumption actually holds.
    for winner in live:
        check_deadline()
        wset = winner.candidate_set()
        for loser in live:
            if loser is winner:
                continue
            shared = wset & loser.candidate_set()
            for position in sorted(shared):
                if subsumes_at(ctx, winner, loser, position):
                    em.e_index[(loser.id, winner.id, position)] = model.new_var()

    # Group-membership variables: per position, every §4.7-compatible
    # (member, representative) pair with rep.id ≤ member.id.
    members_at: dict[Position, list[CommEntry]] = {}
    for entry in live:
        for position in entry.candidates:
            members_at.setdefault(position, []).append(entry)
    for position, members in sorted(members_at.items()):
        check_deadline()
        members.sort(key=lambda e: e.id)
        for i, rep in enumerate(members):
            em.g_index[(rep.id, rep.id, position)] = model.new_var()
            em.leader_index[(rep.id, position)] = em.g_index[
                (rep.id, rep.id, position)
            ]
            for other in members[i + 1:]:
                if _combinable_at(ctx, other, rep, position):
                    em.g_index[(other.id, rep.id, position)] = model.new_var()

    # 1. Exactly one fate per entry: placed at one position or eliminated.
    choice: dict[int, list[int]] = {e.id: [] for e in live}
    for (eid, _position), var in em.x_index.items():
        choice[eid].append(plit(var))
    for (loser, _winner, _position), var in em.e_index.items():
        choice[loser].append(plit(var))
    for entry in live:
        model.add_exactly_one(choice[entry.id])

    # 2. A winner must fire at the covering position.
    for (loser, winner, position), var in em.e_index.items():
        model.add_implies(plit(var), plit(em.x_index[(winner, position)]))

    # 3. Placement ⇔ membership in some group at that position.
    group_choices: dict[tuple[int, Position], list[int]] = {}
    for (member, rep, position), var in em.g_index.items():
        group_choices.setdefault((member, position), []).append(plit(var))
        model.add_implies(plit(var), plit(em.x_index[(member, position)]))
        # 4. Groups need their leader.
        if member != rep:
            model.add_implies(
                plit(var), plit(em.g_index[(rep, rep, position)])
            )
    for (eid, position), var in em.x_index.items():
        lits = group_choices.get((eid, position), [])
        model.add_clause([plit(var) ^ 1] + lits)

    # 5./6. Within-group pairwise compatibility and the volume cap.
    by_id = {e.id: e for e in live}
    group_members: dict[tuple[int, Position], list[int]] = {}
    for (member, rep, position), _var in em.g_index.items():
        if member != rep:
            group_members.setdefault((rep, position), []).append(member)
    threshold = ctx.cost_model.threshold_bytes()
    for (rep, position), members in sorted(group_members.items()):
        check_deadline()
        rep_entry = by_id[rep]
        for i, a in enumerate(members):
            for b in members[i + 1:]:
                if not _combinable_at(ctx, by_id[a], by_id[b], position):
                    model.add_clause([
                        plit(em.g_index[(a, rep, position)]) ^ 1,
                        plit(em.g_index[(b, rep, position)]) ^ 1,
                    ])
        budget = threshold - em.volume_at(rep_entry, position)
        terms = [
            (em.volume_at(by_id[m], position),
             plit(em.g_index[(m, rep, position)]))
            for m in members
        ]
        terms = [(volume, lit) for volume, lit in terms if volume > 0]
        if budget <= 0:
            # An oversized message may exist alone but admits no members.
            for _volume, lit in terms:
                model.add_clause([lit ^ 1])
        elif terms and sum(volume for volume, _lit in terms) > budget:
            model.add_weighted_le(terms, budget)

    return em


def decode_assignment(
    em: ExactModel, assignment: list[int]
) -> DecodedSchedule:
    """Translate a satisfying assignment into placement actions.

    Each placed entry is put in exactly one group — the one led by its
    lowest-id representative with a true membership variable — so the
    decoded message count never exceeds the assignment's leader count.
    """
    placements: dict[int, Position] = {}
    for (eid, position), var in em.x_index.items():
        if assignment[var]:
            placements[eid] = position
    eliminations: dict[int, int] = {}
    for (loser, winner, _position), var in em.e_index.items():
        if assignment[var] and loser not in eliminations:
            eliminations[loser] = winner
    chosen_rep: dict[int, int] = {}
    for (member, rep, position), var in em.g_index.items():
        if not assignment[var]:
            continue
        if placements.get(member) != position:
            continue
        if member not in chosen_rep or rep < chosen_rep[member]:
            chosen_rep[member] = rep
    grouped: dict[tuple[int, Position], list[int]] = {}
    for member, position in placements.items():
        rep = chosen_rep[member]
        grouped.setdefault((rep, position), []).append(member)
    groups = [
        (position, sorted(members))
        for (_rep, position), members in grouped.items()
    ]
    groups.sort(key=lambda item: (item[0], item[1]))
    return DecodedSchedule(
        placements=placements, eliminations=eliminations, groups=groups
    )
