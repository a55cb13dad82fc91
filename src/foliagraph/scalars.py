"""Exact arithmetic over the rationals extended by declared irrational symbols.

Every value has the form ``q0 + q1*s1 + ... + qk*sk`` with rational
coefficients and symbols that the caller declares to be irrational and,
together with 1, Q-linearly independent.  That declaration is a contract:
this module only uses Q-linear structure (there are no symbol products),
so equality, rank and integer relations are decided exactly from the
coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Sequence

Rational = Fraction | int


class TableMismatchError(ValueError):
    """Scalars from different symbol tables were combined."""


@dataclass(frozen=True)
class SymbolDecl:
    """A named irrational with a rational enclosure ``[lo, hi]``.

    Only the name takes part in the arithmetic; the enclosure is kept for
    the file format.
    """

    name: str
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"symbol {self.name}: interval needs lo < hi")


@dataclass(frozen=True)
class SymbolTable:
    """An ordered collection of symbol declarations shared by scalars."""

    decls: tuple[SymbolDecl, ...] = ()

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate symbol names in table")

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decls)

    @cached_property
    def _coordinate(self) -> dict[str, int]:
        """Each symbol's index in a scalar's vector, keyed in name order,
        the order in which values print."""
        return dict(sorted(zip(self.names, range(1, len(self.names) + 1))))

    def rational(self, q: Rational) -> "ExactScalar":
        return ExactScalar.make(self, q)

    def symbol(self, name: str, coeff: Rational = 1) -> "ExactScalar":
        if name not in self._coordinate:
            raise KeyError(name)
        return ExactScalar.make(self, 0, {name: coeff})


def _coerce_tables(a: SymbolTable, b: SymbolTable) -> SymbolTable:
    """Common table of two operands; a symbol-free table embeds anywhere."""
    if a is b or a == b:
        return a
    if not a.decls:
        return b
    if not b.decls:
        return a
    raise TableMismatchError("operands use different symbol tables")


@dataclass(frozen=True)
class ExactScalar:
    """A rational plus a rational combination of declared symbols.

    ``vector`` holds the coordinates over the basis ``(1,) + table.names``,
    zeros included, so dataclass equality is exact coefficient-wise
    equality.  Values are immutable; all arithmetic returns new scalars.
    """

    table: SymbolTable
    vector: tuple[Fraction, ...]

    @staticmethod
    def make(
        table: SymbolTable,
        rational_part: Rational = 0,
        coeffs: dict[str, Rational] | None = None,
    ) -> "ExactScalar":
        vector = [Fraction(rational_part)] + [Fraction(0)] * len(table.names)
        for name, c in (coeffs or {}).items():
            if name not in table._coordinate:
                raise KeyError(f"unknown symbol {name!r}")
            vector[table._coordinate[name]] = Fraction(c)
        return ExactScalar(table, tuple(vector))

    def is_zero(self) -> bool:
        return not any(self.vector)

    def rebind(self, table: SymbolTable) -> "ExactScalar":
        """The same value viewed over ``table``: its own table, or any
        table if the value is over the symbol-free one."""
        if table is self.table or table == self.table:
            return self
        if self.table.decls:
            raise TableMismatchError("operands use different symbol tables")
        return ExactScalar(table, self.vector + (Fraction(0),) * len(table.names))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        if isinstance(other, (int, Fraction)):
            return ExactScalar(self.table, (self.vector[0] + other,) + self.vector[1:])
        if not isinstance(other, ExactScalar):
            return NotImplemented
        table = _coerce_tables(self.table, other.table)
        a, b = self.rebind(table).vector, other.rebind(table).vector
        return ExactScalar(table, tuple(x + y for x, y in zip(a, b)))

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(self.table, tuple(-x for x in self.vector))

    def __sub__(self, other) -> "ExactScalar":
        if not isinstance(other, (int, Fraction, ExactScalar)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "ExactScalar":
        return (-self) + other

    def __mul__(self, other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            raise TypeError("symbol products are outside this arithmetic")
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return ExactScalar(self.table, tuple(x * other for x in self.vector))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScalar":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __str__(self) -> str:
        parts = []
        if self.vector[0] or not any(self.vector[1:]):
            parts.append(str(self.vector[0]))
        for name, i in self.table._coordinate.items():
            c = self.vector[i]
            term = name if abs(c) == 1 else f"{abs(c)}*{name}"
            if c and parts:
                parts.append(f"{'-' if c < 0 else '+'} {term}")
            elif c:
                parts.append(term if c > 0 else f"-{term}")
        return " ".join(parts)


def _shared_table(values: Sequence[ExactScalar]) -> SymbolTable:
    table = values[0].table
    for v in values:
        table = _coerce_tables(table, v.table)
    return table


def _row_reduce(rows: list[list[Fraction]]) -> tuple[int, list[int]]:
    """In-place fraction Gaussian elimination that leaves zero entries
    untouched; returns (rank, pivot columns)."""
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return r, pivots


def qrank(values: Sequence[ExactScalar]) -> int:
    """Dimension over Q of the span of the given values."""
    values = list(values)
    if not values:
        raise ValueError("qrank of an empty list")
    table = _shared_table(values)
    rows = [list(v.rebind(table).vector) for v in values]
    rank, _ = _row_reduce(rows)
    return rank


def integer_relation(values: Sequence[ExactScalar]) -> tuple[int, ...] | None:
    """A nonzero integer vector a with sum(a[i]*values[i]) == 0, if one exists.

    Returns None exactly when the values are Q-linearly independent
    (equivalently, qrank(values) == len(values)).  The result is produced
    from an exact rational kernel vector with denominators cleared and the
    first nonzero entry positive.
    """
    values = list(values)
    if not values:
        raise ValueError("integer_relation of an empty list")
    table = _shared_table(values)
    # Columns of the matrix are the value vectors; a kernel vector of the
    # column space is the wanted relation.
    rows = [list(col) for col in zip(*(v.rebind(table).vector for v in values))]
    _, pivots = _row_reduce(rows)
    free = [c for c in range(len(values)) if c not in pivots]
    if not free:
        return None
    f = free[0]
    sol = [Fraction(0)] * len(values)
    sol[f] = Fraction(1)
    for r, c in enumerate(pivots):
        sol[c] = -rows[r][f]
    denom = 1
    for x in sol:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in sol]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)
