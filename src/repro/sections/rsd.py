"""Regular Section Descriptors (RSDs).

An RSD describes a rectangular, possibly strided region of an array: one
arithmetic progression ``lo : hi : step`` per dimension.  This is the data
half of the paper's Available Section Descriptor (§4.6); subsumption,
intersection, and (approximate) union over RSDs drive redundancy
elimination and message combining.

All indices are 1-based and inclusive, matching the Fortran surface
language.  Bounds are concrete integers: the compiler resolves symbolic
parameters before building sections.

Intersections are computed *exactly* per dimension (two arithmetic
progressions intersect in an arithmetic progression with step
``lcm(s1, s2)``), so the dependence tests built on top are precise for
strided sections like the odd/even column writes of the paper's Figure 4.
Union is closed only approximately — :meth:`RSD.hull` returns the smallest
single descriptor containing both, along with an exactness flag, mirroring
the paper's "approximated by a single section descriptor" rule.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator


@dataclass(frozen=True, slots=True)
class DimSection:
    """One dimension of a section: the progression lo, lo+step, ... <= hi.

    A descriptor with ``lo > hi`` is empty.  ``step`` is always >= 1; the
    constructor normalizes ``hi`` down to the last actual element so equal
    element sets compare equal.  The hash is computed once at construction
    (descriptors are compared and set-probed heavily by the redundancy and
    combining passes).
    """

    lo: int
    hi: int
    step: int = 1
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        if self.step < 1:
            raise ValueError(f"section step must be >= 1, got {self.step}")
        if self.lo > self.hi:
            # Canonical empty form.
            object.__setattr__(self, "lo", 1)
            object.__setattr__(self, "hi", 0)
            object.__setattr__(self, "step", 1)
        else:
            last = self.lo + ((self.hi - self.lo) // self.step) * self.step
            object.__setattr__(self, "hi", last)
            if last == self.lo:
                object.__setattr__(self, "step", 1)
        object.__setattr__(self, "_hash", hash((self.lo, self.hi, self.step)))

    def __hash__(self) -> int:
        return self._hash

    # -- basics -------------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return self.lo > self.hi

    def count(self) -> int:
        if self.is_empty:
            return 0
        return (self.hi - self.lo) // self.step + 1

    def elements(self) -> Iterator[int]:
        return iter(range(self.lo, self.hi + 1, self.step))

    def contains_point(self, x: int) -> bool:
        return (
            not self.is_empty
            and self.lo <= x <= self.hi
            and (x - self.lo) % self.step == 0
        )

    # -- set algebra ----------------------------------------------------------

    def contains(self, other: "DimSection") -> bool:
        """True when every element of ``other`` is an element of ``self``."""
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        if not (self.lo <= other.lo and other.hi <= self.hi):
            return False
        if (other.lo - self.lo) % self.step != 0:
            return False
        if other.count() == 1:
            return True
        return other.step % self.step == 0

    def intersect(self, other: "DimSection") -> "DimSection":
        """Exact intersection: an arithmetic progression (possibly empty)."""
        if self.is_empty or other.is_empty:
            return EMPTY_DIM
        g = math.gcd(self.step, other.step)
        if (other.lo - self.lo) % g != 0:
            return EMPTY_DIM
        step = self.step * other.step // g
        # Solve lo1 + a*s1 == lo2 (mod s2) for the smallest combined element
        # >= max(lo1, lo2) via the extended Euclid inverse.
        s1, s2 = self.step, other.step
        diff = other.lo - self.lo
        # a ≡ (diff/g) * inv(s1/g) (mod s2/g)
        m = s2 // g
        if m == 1:
            a0 = 0
        else:
            a0 = (diff // g) * pow(s1 // g, -1, m) % m
        first = self.lo + a0 * s1
        lo = max(self.lo, other.lo)
        if first < lo:
            first += -(-((lo - first)) // step) * step
        hi = min(self.hi, other.hi)
        if first > hi:
            return EMPTY_DIM
        return DimSection(first, hi, step)

    def overlaps(self, other: "DimSection") -> bool:
        return not self.intersect(other).is_empty

    def hull(self, other: "DimSection") -> tuple["DimSection", bool]:
        """Smallest single progression containing both; the flag reports
        whether the hull is exact (contains no extra elements)."""
        if self.is_empty:
            return other, True
        if other.is_empty:
            return self, True
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        step = math.gcd(
            math.gcd(self.step, other.step), abs(other.lo - self.lo)
        )
        if step == 0:
            step = max(self.step, other.step)
        hull = DimSection(lo, hi, step)
        exact = hull.count() == self.union_count(other)
        return hull, exact

    def union_count(self, other: "DimSection") -> int:
        """|self ∪ other| computed by inclusion-exclusion (exact)."""
        return self.count() + other.count() - self.intersect(other).count()

    def shifted(self, delta: int) -> "DimSection":
        if self.is_empty:
            return self
        return DimSection(self.lo + delta, self.hi + delta, self.step)

    def clipped(self, lo: int, hi: int) -> "DimSection":
        """Restrict to the window [lo, hi] (same stride, exact)."""
        return self.intersect(DimSection(lo, hi, 1))

    def __str__(self) -> str:
        if self.is_empty:
            return "∅"
        if self.step == 1:
            return f"{self.lo}:{self.hi}"
        return f"{self.lo}:{self.hi}:{self.step}"


EMPTY_DIM = DimSection(1, 0)


@dataclass(frozen=True, slots=True)
class RSD:
    """A multi-dimensional regular section: the Cartesian product of one
    :class:`DimSection` per dimension."""

    dims: tuple[DimSection, ...]
    _hash: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_hash", hash(self.dims))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(*dims: DimSection | tuple[int, int] | tuple[int, int, int]) -> "RSD":
        """Convenience constructor from tuples: ``RSD.of((1, 8), (2, 10, 2))``."""
        out = []
        for d in dims:
            if isinstance(d, DimSection):
                out.append(d)
            else:
                out.append(DimSection(*d))
        return RSD(tuple(out))

    @staticmethod
    def whole(shape: tuple[int, ...]) -> "RSD":
        return RSD(tuple(DimSection(1, extent) for extent in shape))

    @property
    def rank(self) -> int:
        return len(self.dims)

    @property
    def is_empty(self) -> bool:
        return any(d.is_empty for d in self.dims)

    def count(self) -> int:
        if self.is_empty:
            return 0
        return math.prod(d.count() for d in self.dims)

    def contains(self, other: "RSD") -> bool:
        """Subsumption test: other ⊆ self (the paper's ``D1 ⊆ D2``)."""
        if other.is_empty:
            return True
        if self.is_empty or self.rank != other.rank:
            return False
        return all(a.contains(b) for a, b in zip(self.dims, other.dims))

    def intersect(self, other: "RSD") -> "RSD":
        if self.rank != other.rank:
            raise ValueError("rank mismatch in RSD intersection")
        return RSD(tuple(a.intersect(b) for a, b in zip(self.dims, other.dims)))

    def overlaps(self, other: "RSD") -> bool:
        return not self.intersect(other).is_empty

    def hull(self, other: "RSD") -> tuple["RSD", bool]:
        """Per-dimension hull; exact only when every dimension is exact and
        at most one dimension actually differs (otherwise the box fills in
        corner elements neither operand had)."""
        if self.rank != other.rank:
            raise ValueError("rank mismatch in RSD hull")
        if self.is_empty:
            return other, True
        if other.is_empty:
            return self, True
        dims = []
        all_exact = True
        differing = 0
        for a, b in zip(self.dims, other.dims):
            h, exact = a.hull(b)
            dims.append(h)
            all_exact = all_exact and exact
            if a != b:
                differing += 1
        hull = RSD(tuple(dims))
        if differing == 0:
            return hull, True
        if differing == 1 and all_exact:
            return hull, True
        # Conservative: the hull may contain extra elements; report exactness
        # by an (exact) cardinality check when cheap.
        exact = hull.count() == self.union_count(other)
        return hull, exact

    def union_count(self, other: "RSD") -> int:
        return self.count() + other.count() - self.intersect(other).count()

    def bytes(self, elem_bytes: int = 8) -> int:
        return self.count() * elem_bytes

    def __str__(self) -> str:
        return "[" + ", ".join(str(d) for d in self.dims) + "]"


def cover(sections) -> tuple[RSD, ...]:
    """The fewest descriptors this algebra finds for the union of
    ``sections``, element for element: a section another contains is
    dropped (§4.6 subsumption) and two whose :meth:`RSD.hull` is *exact*
    become that hull, until no pair allows either.  An inexact hull is
    never taken, so the result holds exactly the inputs' elements — a
    consumer that handles every member handles every input element and
    nothing else (members may still overlap).  The result is a function of the input *set*
    (members are kept sorted, the first mergeable pair in that order
    goes first), not of the order references happened to be written in.
    """
    def order(section: RSD) -> tuple:
        return tuple((d.lo, d.hi, d.step) for d in section.dims)

    work = sorted({s for s in sections if not s.is_empty}, key=order)
    while True:
        for a, b in itertools.combinations(work, 2):
            if a.contains(b):
                union = a
            elif b.contains(a):
                union = b
            elif sum(x != y for x, y in zip(a.dims, b.dims)) > 1:
                # the box around two sections that differ in two
                # dimensions has a corner neither holds
                continue
            else:
                union, exact = a.hull(b)
                if not exact:
                    continue
            rest = (s for s in work if s != a and s != b)
            work = sorted({union, *rest}, key=order)
            break
        else:
            return tuple(work)
