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
        names = [d.name for d in self.decls]
        if len(set(names)) != len(names):
            raise ValueError("duplicate symbol names in table")

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decls)

    def decl(self, name: str) -> SymbolDecl:
        for d in self.decls:
            if d.name == name:
                return d
        raise KeyError(name)

    def rational(self, q: Rational) -> "ExactScalar":
        return ExactScalar(self, Fraction(q), ())

    def symbol(self, name: str, coeff: Rational = 1) -> "ExactScalar":
        self.decl(name)
        c = Fraction(coeff)
        return ExactScalar(self, Fraction(0), ((name, c),) if c else ())


def _coerce_tables(a: SymbolTable, b: SymbolTable) -> SymbolTable:
    """Common table of two operands; a symbol-free table embeds anywhere."""
    if a == b:
        return a
    if not a.decls:
        return b
    if not b.decls:
        return a
    raise TableMismatchError("operands use different symbol tables")


@dataclass(frozen=True)
class ExactScalar:
    """A rational plus a rational combination of declared symbols.

    Canonical form: ``coeffs`` holds only nonzero coefficients, sorted by
    symbol name, so dataclass equality is exact coefficient-wise equality.
    Values are immutable; all arithmetic returns new scalars.
    """

    table: SymbolTable
    rational_part: Fraction
    coeffs: tuple[tuple[str, Fraction], ...]

    @staticmethod
    def make(
        table: SymbolTable,
        rational_part: Rational = 0,
        coeffs: dict[str, Rational] | None = None,
    ) -> "ExactScalar":
        known = set(table.names)
        cleaned = []
        for name, c in sorted((coeffs or {}).items()):
            if name not in known:
                raise KeyError(f"unknown symbol {name!r}")
            c = Fraction(c)
            if c:
                cleaned.append((name, c))
        return ExactScalar(table, Fraction(rational_part), tuple(cleaned))

    def coeff(self, name: str) -> Fraction:
        for n, c in self.coeffs:
            if n == name:
                return c
        return Fraction(0)

    def is_zero(self) -> bool:
        return not self.coeffs and self.rational_part == 0

    def vector(self) -> tuple[Fraction, ...]:
        """Coefficients over the basis ``(1,) + table.names``."""
        return (self.rational_part,) + tuple(
            self.coeff(n) for n in self.table.names
        )

    def rebind(self, table: SymbolTable) -> "ExactScalar":
        """The same value viewed over ``table`` (symbols must all exist)."""
        return ExactScalar.make(table, self.rational_part, dict(self.coeffs))

    # -- arithmetic ------------------------------------------------------

    def _promote(self, other) -> "ExactScalar | None":
        if isinstance(other, ExactScalar):
            return other
        if isinstance(other, (int, Fraction)):
            return ExactScalar(self.table, Fraction(other), ())
        return None

    def __add__(self, other) -> "ExactScalar":
        o = self._promote(other)
        if o is None:
            return NotImplemented
        table = _coerce_tables(self.table, o.table)
        acc = dict(self.coeffs)
        for name, c in o.coeffs:
            acc[name] = acc.get(name, Fraction(0)) + c
        return ExactScalar.make(table, self.rational_part + o.rational_part, acc)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return ExactScalar(
            self.table,
            -self.rational_part,
            tuple((n, -c) for n, c in self.coeffs),
        )

    def __sub__(self, other) -> "ExactScalar":
        o = self._promote(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other) -> "ExactScalar":
        return (-self) + other

    def __mul__(self, other) -> "ExactScalar":
        if isinstance(other, ExactScalar):
            raise TypeError("symbol products are outside this arithmetic")
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        q = Fraction(other)
        return ExactScalar.make(
            self.table,
            self.rational_part * q,
            {n: c * q for n, c in self.coeffs},
        )

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScalar":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __str__(self) -> str:
        parts = []
        if self.rational_part or not self.coeffs:
            parts.append(str(self.rational_part))
        for name, c in self.coeffs:
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            term = name if mag == 1 else f"{mag}*{name}"
            if not parts:
                parts.append(term if c > 0 else f"-{term}")
            else:
                parts.append(f"{sign} {term}")
        return " ".join(parts)


def _shared_table(values: Sequence[ExactScalar]) -> SymbolTable:
    table = SymbolTable()
    for v in values:
        table = _coerce_tables(table, v.table)
    return table


def _row_reduce(rows: list[list[Fraction]]) -> tuple[int, list[int]]:
    """In-place fraction Gaussian elimination; returns (rank, pivot columns)."""
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
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
    rows = [list(v.rebind(table).vector()) for v in values]
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
    vectors = [v.rebind(table).vector() for v in values]
    dim = len(vectors[0])
    # Columns of the matrix are the value vectors; a kernel vector of the
    # column space is the wanted relation.
    rows = [[vec[i] for vec in vectors] for i in range(dim)]
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
