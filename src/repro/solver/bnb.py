"""Bounded pseudo-boolean branch-and-bound solver (dependency-free).

The exact placement search (see :mod:`repro.solver.encode`) reduces the
whole-pipeline placement problem to a conjunction of *normalized*
pseudo-boolean constraints ``Σ coeff·lit ≥ bound`` with positive integer
coefficients over literals of boolean variables.  This module provides:

* :class:`PBModel` — the constraint store with normalizing builders
  (clauses, implications, exactly-one, weighted ≤, cardinality ≤ k);
  negative coefficients, duplicate literals, and complementary pairs are
  normalized away at add time so the solver core only ever sees the one
  canonical form.
* :class:`PBSolver` — chronological DFS with pseudo-boolean unit
  propagation: per constraint it tracks the maximum still-achievable
  left-hand side, detects violation early (``maxsum < bound``), and
  forces any unassigned literal whose coefficient exceeds the slack.
  The search is *bounded*: an optional wall-clock deadline and node
  limit turn it into an anytime decision procedure returning
  :data:`UNKNOWN` instead of running away — the contract the
  binary-search driver in :mod:`repro.solver.search` builds on.

Literals are ints: variable ``v`` has positive literal ``2v`` and
negation ``2v + 1`` (:func:`pos` / :func:`neg`; ``lit ^ 1`` negates).
"""

from __future__ import annotations

import time
from typing import Iterable, Optional, Sequence

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"


def pos(var: int) -> int:
    """The positive literal of ``var``."""
    return var << 1


def neg(var: int) -> int:
    """The negated literal of ``var``."""
    return (var << 1) | 1


class PBModel:
    """A conjunction of normalized constraints ``Σ coeff·lit ≥ bound``.

    Constraints are stored as immutable ``(lits, coeffs, bound)`` triples
    with strictly positive coefficients and strictly positive bounds
    (trivially-true constraints are dropped; a constraint whose maximum
    LHS is below its bound marks the whole model infeasible).
    """

    def __init__(self) -> None:
        self.num_vars = 0
        self.constraints: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        self.infeasible = False

    def new_var(self) -> int:
        var = self.num_vars
        self.num_vars += 1
        return var

    def copy(self) -> "PBModel":
        """Shallow copy sharing the (immutable) constraint triples — the
        binary-search driver layers one cardinality constraint per query
        on a copy instead of rebuilding the whole model."""
        clone = PBModel()
        clone.num_vars = self.num_vars
        clone.constraints = list(self.constraints)
        clone.infeasible = self.infeasible
        return clone

    # -- builders (all normalize to the canonical ≥ form) --------------------

    def add_ge(self, terms: Iterable[tuple[int, int]], bound: int) -> None:
        """Add ``Σ coeff·lit ≥ bound`` (coefficients may be negative)."""
        merged: dict[int, int] = {}
        for coeff, lit in terms:
            if coeff == 0:
                continue
            if coeff < 0:
                # c·l == |c|·¬l + c, so flip the literal and lift the bound.
                bound += -coeff
                lit, coeff = lit ^ 1, -coeff
            merged[lit] = merged.get(lit, 0) + coeff
        # Cancel complementary pairs: m·x + m·¬x is the constant m.
        for lit in [l for l in merged if (l ^ 1) in merged and l < (l ^ 1)]:
            m = min(merged[lit], merged[lit ^ 1])
            merged[lit] -= m
            merged[lit ^ 1] -= m
            bound -= m
        lits: list[int] = []
        coeffs: list[int] = []
        for lit in sorted(merged):
            if merged[lit] > 0:
                lits.append(lit)
                coeffs.append(merged[lit])
        if bound <= 0:
            return  # trivially satisfied
        if sum(coeffs) < bound:
            self.infeasible = True
            return
        self.constraints.append((tuple(lits), tuple(coeffs), bound))

    def add_clause(self, lits: Sequence[int]) -> None:
        self.add_ge([(1, lit) for lit in lits], 1)

    def add_implies(self, a: int, b: int) -> None:
        """Literal implication ``a → b``."""
        self.add_clause([a ^ 1, b])

    def add_at_most_one(self, lits: Sequence[int]) -> None:
        if len(lits) > 1:
            self.add_ge([(1, lit ^ 1) for lit in lits], len(lits) - 1)

    def add_exactly_one(self, lits: Sequence[int]) -> None:
        self.add_clause(lits)
        self.add_at_most_one(lits)

    def add_at_most_k(self, lits: Sequence[int], k: int) -> None:
        """Cardinality ``Σ lit ≤ k`` — the binary-search objective bound."""
        if k < 0:
            self.infeasible = True
            return
        if k < len(lits):
            self.add_ge([(1, lit ^ 1) for lit in lits], len(lits) - k)

    def add_weighted_le(self, terms: Iterable[tuple[int, int]], bound: int) -> None:
        """``Σ coeff·lit ≤ bound`` with non-negative coefficients — used
        for group-volume caps and the bytes-moved tie-break."""
        terms = list(terms)
        total = sum(coeff for coeff, _ in terms)
        self.add_ge([(coeff, lit ^ 1) for coeff, lit in terms], total - bound)

    # -- checking -------------------------------------------------------------

    def value(self, lit: int, assignment: Sequence[int]) -> bool:
        v = assignment[lit >> 1]
        return bool(v) if (lit & 1) == 0 else not v

    def satisfied(self, assignment: Sequence[int]) -> bool:
        """Does a complete 0/1 assignment satisfy every constraint?"""
        for lits, coeffs, bound in self.constraints:
            lhs = 0
            for lit, coeff in zip(lits, coeffs):
                if self.value(lit, assignment):
                    lhs += coeff
            if lhs < bound:
                return False
        return not self.infeasible


class PBSolver:
    """Chronological branch-and-bound DFS with PB unit propagation."""

    def __init__(self, model: PBModel) -> None:
        self.model = model
        cons = model.constraints
        self.bounds = [bound for _, _, bound in cons]
        self.maxcoef = [max(coeffs) if coeffs else 0 for _, coeffs, _ in cons]
        occ: list[list[tuple[int, int]]] = [[] for _ in range(2 * model.num_vars)]
        for ci, (lits, coeffs, _) in enumerate(cons):
            for lit, coeff in zip(lits, coeffs):
                occ[lit].append((ci, coeff))
        self.occ = occ

    def solve(
        self,
        decide_order: Optional[Sequence[int]] = None,
        prefer: Optional[Sequence[int]] = None,
        deadline: Optional[float] = None,
        node_limit: Optional[int] = None,
    ) -> tuple[str, Optional[list[int]], int]:
        """Run the DFS; returns ``(status, assignment, nodes)``.

        ``decide_order`` lists variables in decision order (vars missing
        from it are decided last, in index order); ``prefer`` gives the
        first value tried per variable (default 0).  ``deadline`` is an
        absolute :func:`time.monotonic` instant; past it (or past
        ``node_limit`` decisions) the result is :data:`UNKNOWN`.
        """
        model = self.model
        if model.infeasible:
            return UNSAT, None, 0
        n = model.num_vars
        cons = model.constraints
        bounds = self.bounds
        maxcoef = self.maxcoef
        occ = self.occ

        if decide_order is None:
            order = list(range(n))
        else:
            seen = set(decide_order)
            order = list(decide_order) + [v for v in range(n) if v not in seen]
        want = list(prefer) if prefer is not None else [0] * n
        if len(want) < n:
            want.extend([0] * (n - len(want)))

        assign = [-1] * n
        maxsum = [sum(coeffs) for _, coeffs, _ in cons]
        satsum = [0] * len(cons)
        trail: list[int] = []
        # One frame per decision: (trail length before it, var, first
        # value tried, resume index into ``order``, both-values-tried).
        frames: list[tuple[int, int, int, int, bool]] = []
        nodes = 0

        def assign_var(var: int, value: int, queue: list[int]) -> bool:
            assign[var] = value
            trail.append(var)
            falsified = (var << 1) + (1 if value else 0)
            ok = True
            for ci, coeff in occ[falsified]:
                maxsum[ci] -= coeff
                if maxsum[ci] < bounds[ci]:
                    ok = False
                else:
                    queue.append(ci)
            for ci, coeff in occ[falsified ^ 1]:
                satsum[ci] += coeff
            return ok

        def propagate(queue: list[int]) -> bool:
            while queue:
                ci = queue.pop()
                bound = bounds[ci]
                if satsum[ci] >= bound:
                    continue
                slack = maxsum[ci] - bound
                if slack < 0:
                    return False
                if slack >= maxcoef[ci]:
                    continue
                lits, coeffs, _ = cons[ci]
                for lit, coeff in zip(lits, coeffs):
                    if coeff > slack and assign[lit >> 1] == -1:
                        # maxsum - coeff < bound: the literal must hold.
                        if not assign_var(lit >> 1, 1 - (lit & 1), queue):
                            return False
                        if satsum[ci] >= bound:
                            break
            return True

        def undo_to(tlen: int) -> None:
            while len(trail) > tlen:
                var = trail.pop()
                value = assign[var]
                assign[var] = -1
                falsified = (var << 1) + (1 if value else 0)
                for ci, coeff in occ[falsified]:
                    maxsum[ci] += coeff
                for ci, coeff in occ[falsified ^ 1]:
                    satsum[ci] -= coeff

        queue = list(range(len(cons)))
        if not propagate(queue):
            return UNSAT, None, 0

        order_idx = 0
        while True:
            while order_idx < len(order) and assign[order[order_idx]] != -1:
                order_idx += 1
            if order_idx == len(order):
                return SAT, assign[:], nodes
            nodes += 1
            if node_limit is not None and nodes > node_limit:
                return UNKNOWN, None, nodes
            if (
                deadline is not None
                and (nodes & 63) == 0
                and time.monotonic() > deadline
            ):
                return UNKNOWN, None, nodes
            var = order[order_idx]
            value = 1 if want[var] else 0
            frames.append((len(trail), var, value, order_idx, False))
            queue = []
            ok = assign_var(var, value, queue) and propagate(queue)
            while not ok:
                # Unwind fully-explored decisions, then flip the newest
                # one-sided decision (chronological backtracking).
                while frames and frames[-1][4]:
                    tlen, _, _, _, _ = frames.pop()
                    undo_to(tlen)
                if not frames:
                    return UNSAT, None, nodes
                tlen, dvar, dval, oidx, _ = frames[-1]
                undo_to(tlen)
                frames[-1] = (tlen, dvar, dval, oidx, True)
                order_idx = oidx
                nodes += 1
                if node_limit is not None and nodes > node_limit:
                    return UNKNOWN, None, nodes
                if (
                    deadline is not None
                    and (nodes & 63) == 0
                    and time.monotonic() > deadline
                ):
                    return UNKNOWN, None, nodes
                queue = []
                ok = assign_var(dvar, 1 - dval, queue) and propagate(queue)
