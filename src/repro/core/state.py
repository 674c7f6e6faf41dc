"""Placement state: the CommSet machinery of Figure 9.

``PlacementState`` tracks, for every communication entry, which candidate
positions are still *active* — the working sets the subset-elimination,
redundancy-elimination, and greedy passes shrink — while preserving each
entry's full candidate chain for the final push-late group placement
(the paper explicitly reuses "positions disabled during redundancy
elimination" at that step).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..comm.entries import CommEntry
from ..errors import PlacementError
from ..ir.cfg import Position
from .context import AnalysisContext


@dataclass
class PlacedComm:
    """One emitted communication operation: a group of combined entries at
    a final position."""

    position: Position
    entries: list[CommEntry]

    @property
    def kind(self) -> str:
        return self.entries[0].pattern.kind

    def __repr__(self) -> str:
        labels = "+".join(e.label for e in self.entries)
        return f"<placed {labels} @ {self.position}>"


class PlacementState:
    """Active candidate sets for a batch of entries."""

    def __init__(self, ctx: AnalysisContext, entries: list[CommEntry]) -> None:
        self.ctx = ctx
        self.entries = entries
        self.by_id = {e.id: e for e in entries}
        # Active positions per entry (subset of the entry's candidates).
        self.active: dict[int, set[Position]] = {
            e.id: set(e.candidates) for e in entries
        }
        # Inverted CommSet index: position -> ids of entries active there.
        # This is the exact dual of ``active`` (not a memo cache — every
        # mutation below updates both), turning the CommSet(S) view from a
        # scan over all entries into a dict lookup.
        self._at: dict[Position, set[int]] = {}
        for e in entries:
            for p in self.active[e.id]:
                self._at.setdefault(p, set()).add(e.id)
        # Constraint sets from redundancy elimination: when entry A absorbs
        # entry B, A's group must finally land in positions where the
        # subsumption of B holds.
        self.absorb_constraints: dict[int, list[set[Position]]] = {}

    def clone(self) -> "PlacementState":
        """Snapshot of the mutable working sets (entries are shared).

        The fault boundaries in :mod:`repro.core.pipeline` take a snapshot
        before each whole-pass mutation so a pass that raises midway can be
        rolled back instead of leaving half-applied deactivations behind.
        """
        new = object.__new__(PlacementState)
        new.ctx = self.ctx
        new.entries = self.entries
        new.by_id = self.by_id
        new.active = {eid: set(ps) for eid, ps in self.active.items()}
        new._at = {p: set(ids) for p, ids in self._at.items()}
        new.absorb_constraints = {
            eid: [set(c) for c in cs]
            for eid, cs in self.absorb_constraints.items()
        }
        return new

    # -- CommSet views -------------------------------------------------------

    def comm_set(self, pos: Position) -> set[int]:
        """Entry ids active at ``pos`` (the paper's CommSet(S)).

        Returns a live read-only view of the index — callers must not
        mutate it (all current callers iterate or copy).
        """
        ids = self._at.get(pos)
        return ids if ids is not None else set()

    def all_positions(self) -> list[Position]:
        return sorted(p for p, ids in self._at.items() if ids)

    def stmt_set(self, entry: CommEntry) -> set[Position]:
        """The paper's StmtSet(c): positions where the entry is active."""
        return self.active[entry.id]

    # -- mutations ------------------------------------------------------------

    def deactivate(self, entry: CommEntry, pos: Position) -> None:
        positions = self.active[entry.id]
        if pos in positions:
            positions.discard(pos)
            self._at[pos].discard(entry.id)

    def deactivate_dominated(self, entry: CommEntry, pos: Position) -> None:
        """Remove the entry from ``pos`` and every position it dominates
        (Fig 9f's dominance-ordered clearing)."""
        positions = self.active[entry.id]
        doomed = [
            p for p in positions if self.ctx.position_dominates(pos, p)
        ]
        for p in doomed:
            positions.discard(p)
            self._at[p].discard(entry.id)

    def restrict(self, entry: CommEntry, keep: set[Position]) -> None:
        positions = self.active[entry.id]
        for p in positions - keep:
            self._at[p].discard(entry.id)
        positions &= keep

    def alive_entries(self) -> list[CommEntry]:
        return [e for e in self.entries if e.alive]

    def mark_eliminated(
        self, victim: CommEntry, by: CommEntry, valid_positions: set[Position]
    ) -> None:
        if not valid_positions:
            raise PlacementError(
                f"eliminating {victim!r} with empty coverage constraint"
            )
        victim.eliminated_by = by.id
        by.absorbed.append(victim)
        self.absorb_constraints.setdefault(by.id, []).append(valid_positions)
        for p in self.active[victim.id]:
            self._at[p].discard(victim.id)
        self.active[victim.id] = set()

    def common_positions(
        self, entries: list[CommEntry], extra_constraints: list[set[Position]]
    ) -> set[Position]:
        """Positions common to every entry's full candidate chain and
        every constraint set (a dominance-total chain)."""
        common: set[Position] | None = None
        for e in entries:
            cset = e.candidate_set()
            common = cset if common is None else (common & cset)
        assert common is not None
        for constraint in extra_constraints:
            common &= constraint
        if not common:
            raise PlacementError("no common position for combined group")
        return common

    def latest_common_position(
        self, entries: list[CommEntry], extra_constraints: list[set[Position]]
    ) -> Position:
        """The dominance-latest position common to every entry's full
        candidate chain and every constraint set.

        Candidate chains are dominance-total, so their intersection is a
        chain; the latest element is the one dominated by all others.
        """
        common = self.common_positions(entries, extra_constraints)
        latest = None
        for p in common:
            if latest is None or self.ctx.position_dominates(latest, p):
                latest = p
        assert latest is not None
        return latest

    def earliest_common_position(
        self, entries: list[CommEntry], extra_constraints: list[set[Position]]
    ) -> Position:
        """The dominance-earliest common position (the overlap-maximizing
        choice the paper's §6 contrasts with the default)."""
        common = self.common_positions(entries, extra_constraints)
        earliest = None
        for p in common:
            if earliest is None or self.ctx.position_dominates(p, earliest):
                earliest = p
        assert earliest is not None
        return earliest
