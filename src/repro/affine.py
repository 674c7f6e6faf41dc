"""Affine integer expressions over named symbols.

The whole analysis side of the compiler — subscript analysis, dependence
testing, section computation — works on *affine* forms::

    c0 + c1*x1 + c2*x2 + ...

where the ``xi`` are loop induction variables or program parameters (``n``,
``nsteps``).  :class:`Affine` is an immutable value type with exact integer
coefficients, supporting the small algebra the compiler needs: addition,
subtraction, scaling, substitution of a symbol by another affine form, and
interval evaluation under symbol ranges.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from .errors import DependenceError


class NonAffineError(DependenceError):
    """Raised when an expression cannot be put in affine form."""


class Affine:
    """An immutable affine form ``const + sum(coeff[s] * s)``.

    Zero coefficients are never stored, so two equal forms always compare
    and hash equal.
    """

    __slots__ = ("const", "coeffs", "_hash")

    def __init__(self, const: int = 0, coeffs: Mapping[str, int] | None = None) -> None:
        if type(const) is not int:
            const = int(const)
        self.const = const
        items = _NO_COEFFS
        if coeffs:
            items = {}
            for name, c in coeffs.items():
                if type(c) is not int:
                    c = int(c)  # bool, numpy.integer
                if c:
                    items[name] = c
            if len(items) > 1:
                items = dict(sorted(items.items()))
            elif not items:
                items = _NO_COEFFS
        self.coeffs = items
        self._hash = hash((const, tuple(items.items())))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def constant(value: int) -> "Affine":
        cached = _CONSTANTS.get(value)
        if cached is not None:
            return cached
        return Affine(value)

    @staticmethod
    def symbol(name: str, coeff: int = 1) -> "Affine":
        if coeff == 1:
            cached = _SYMBOLS.get(name)
            if cached is None:
                cached = Affine(0, {name: 1})
                if len(_SYMBOLS) < _SYMBOL_POOL_LIMIT:
                    _SYMBOLS[name] = cached
            return cached
        return Affine(0, {name: coeff})

    # -- predicates --------------------------------------------------------

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    @property
    def symbols(self) -> frozenset[str]:
        return frozenset(self.coeffs)

    def coeff(self, name: str) -> int:
        """Coefficient of ``name`` (0 if absent)."""
        return self.coeffs.get(name, 0)

    def depends_on(self, names: Iterable[str]) -> bool:
        return any(n in self.coeffs for n in names)

    # -- algebra -----------------------------------------------------------

    def __add__(self, other: "Affine | int") -> "Affine":
        if isinstance(other, int):
            return Affine(self.const + other, self.coeffs)
        merged = dict(self.coeffs)
        for name, c in other.coeffs.items():
            merged[name] = merged.get(name, 0) + c
        return Affine(self.const + other.const, merged)

    __radd__ = __add__

    def __neg__(self) -> "Affine":
        return Affine(-self.const, {n: -c for n, c in self.coeffs.items()})

    def __sub__(self, other: "Affine | int") -> "Affine":
        if isinstance(other, int):
            return Affine(self.const - other, self.coeffs)
        merged = dict(self.coeffs)
        for name, c in other.coeffs.items():
            merged[name] = merged.get(name, 0) - c
        return Affine(self.const - other.const, merged)

    def __rsub__(self, other: int) -> "Affine":
        return Affine(other - self.const, {n: -c for n, c in self.coeffs.items()})

    def scaled(self, factor: int) -> "Affine":
        if factor == 0:
            return Affine(0)
        return Affine(
            self.const * factor, {n: c * factor for n, c in self.coeffs.items()}
        )

    def __mul__(self, other: "Affine | int") -> "Affine":
        if isinstance(other, int):
            return self.scaled(other)
        if other.is_constant:
            return self.scaled(other.const)
        if self.is_constant:
            return other.scaled(self.const)
        raise NonAffineError(f"product of {self} and {other} is not affine")

    __rmul__ = __mul__

    def substitute(self, name: str, replacement: "Affine | int") -> "Affine":
        """Replace ``name`` with ``replacement`` throughout."""
        return self.substitute_all({name: replacement})

    def substitute_all(self, bindings: Mapping[str, "Affine | int"]) -> "Affine":
        """Apply ``bindings`` one after the other (a later binding sees
        the symbols an earlier replacement introduced)."""
        const = self.const
        merged: dict[str, int] | None = None
        for name, repl in bindings.items():
            c = (self.coeffs if merged is None else merged).get(name)
            if not c:
                continue
            if merged is None:
                merged = dict(self.coeffs)
            del merged[name]
            if isinstance(repl, int):
                const += c * repl
                continue
            const += c * repl.const
            for n, k in repl.coeffs.items():
                merged[n] = merged.get(n, 0) + c * k
        if merged is None:
            return self
        return Affine(const, merged)

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate to an integer; every symbol must be bound in ``env``."""
        total = self.const
        for name, c in self.coeffs.items():
            if name not in env:
                raise NonAffineError(f"unbound symbol {name!r} in {self}")
            total += c * env[name]
        return total

    def interval(self, ranges: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
        """Min/max of the form when each symbol varies over an inclusive
        [lo, hi] range.  Symbols absent from ``ranges`` raise."""
        lo = hi = self.const
        for name, c in self.coeffs.items():
            if name not in ranges:
                raise NonAffineError(f"no range for symbol {name!r} in {self}")
            rlo, rhi = ranges[name]
            if rlo > rhi:
                raise NonAffineError(f"empty range for symbol {name!r}")
            if c >= 0:
                lo += c * rlo
                hi += c * rhi
            else:
                lo += c * rhi
                hi += c * rlo
        return lo, hi

    # -- comparison / display ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Affine):
            return NotImplemented
        return self.const == other.const and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Affine({self})"

    def __str__(self) -> str:
        parts: list[str] = []
        for name, c in self.coeffs.items():
            if c == 1:
                term = name
            elif c == -1:
                term = f"-{name}"
            else:
                term = f"{c}*{name}"
            if parts and not term.startswith("-"):
                parts.append(f"+{term}")
            else:
                parts.append(term)
        if self.const or not parts:
            if parts and self.const > 0:
                parts.append(f"+{self.const}")
            else:
                parts.append(str(self.const))
        return "".join(parts)


# Every constant form shares this mapping; ``coeffs`` is never mutated.
_NO_COEFFS: dict[str, int] = {}

# Interning pools for the overwhelmingly common forms (Affine is immutable,
# so sharing is safe).  Constants cover typical bounds/offsets; the symbol
# pool is bounded because dependence testing mints fresh variable names.
_CONSTANTS: dict[int, Affine] = {v: Affine(v) for v in range(-64, 1025)}
_SYMBOL_POOL_LIMIT = 4096
_SYMBOLS: dict[str, Affine] = {}
