"""Exact arithmetic over the rationals extended by declared irrational symbols.

Every value has the form ``q0 + q1*s1 + ... + qk*sk`` with rational
coefficients and symbols that the caller declares to be irrational and,
together with 1, Q-linearly independent.  That declaration is a contract:
this module only uses Q-linear structure (there are no symbol products),
so equality, rank and integer relations are decided exactly from the
coefficients.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

Rational = Fraction | int

# A symbol name: the grammar the text format reads.
SYMBOL_NAME = r"[A-Za-z_]\w*"


class TableMismatchError(ValueError):
    """Scalars from different symbol tables were combined."""


class _Record:
    """The base of the named-tuple records that check their fields or
    cache properties.  ``_make``, and ``_replace``, which calls it, go
    through the class, so every way to build one runs its ``__new__``
    checks.  No attribute can be assigned or deleted (AttributeError),
    though a subclass without ``__slots__`` keeps an instance dict, which
    only its cached properties write."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SymbolDecl(_Record, namedtuple("SymbolDecl", "name lo hi")):
    """A named irrational with a rational enclosure ``[lo, hi]``.

    Only the name takes part in the arithmetic; the enclosure is kept for
    the file format, so each bound is an int or a ``Fraction`` (not a
    bool or a float), which the format writes and reads back exactly.
    ValueError otherwise, and unless ``lo < hi``.
    """

    __slots__ = ()

    def __new__(cls, name: str, lo: Rational, hi: Rational):
        if not re.fullmatch(SYMBOL_NAME, name):
            raise ValueError(f"symbol name {name!r} does not match {SYMBOL_NAME}")
        for x in (lo, hi):
            if x.__class__ not in (int, Fraction):
                raise ValueError(f"symbol {name}: bound {x!r} is not an int or Fraction")
        if not lo < hi:
            raise ValueError(f"symbol {name}: interval needs lo < hi")
        return tuple.__new__(cls, (name, lo, hi))


class SymbolTable(_Record, namedtuple("SymbolTable", "decls")):
    """An ordered collection of symbol declarations shared by scalars."""

    def __new__(cls, decls: tuple[SymbolDecl, ...] = ()):
        self = tuple.__new__(cls, (decls,))
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate symbol names in table")
        return self

    @cached_property
    def names(self) -> tuple[str, ...]:
        return tuple(d.name for d in self.decls)

    @cached_property
    def _coordinate(self) -> dict[str, int]:
        """Each symbol's index in a scalar's vector, keyed in name order,
        the order in which values print."""
        return dict(sorted(zip(self.names, range(1, len(self.names) + 1))))

    def rational(self, q: Rational) -> "ExactScalar":
        q = Fraction(q)
        return _row(self, q.denominator, (q.numerator,) + (0,) * len(self.names))

    def symbol(self, name: str) -> "ExactScalar":
        i = self._coordinate[name]
        return _row(self, 1, tuple(int(k == i) for k in range(len(self.names) + 1)))


def _coerce_tables(a: SymbolTable, b: SymbolTable) -> SymbolTable:
    """Common table of two operands; a symbol-free table embeds anywhere."""
    if a is b or a == b:
        return a
    if not a.decls:
        return b
    if not b.decls:
        return a
    raise TableMismatchError("operands use different symbol tables")


class ExactScalar:
    """A rational plus a rational combination of declared symbols.

    Stored as its integer row: the coordinates over the basis
    ``(1,) + table.names``, zeros included, are ``ints[i] / den``, with
    ``den > 0`` and ``gcd(den, *ints) == 1``.  That form is canonical, as
    ``den`` is the lcm of the coordinates' reduced denominators, so equal
    rows are equal values; and it is the row ``qrank`` and
    ``integer_relation`` eliminate, since scaling by a positive integer
    changes no span and no dependency.  ``ExactScalar(table, vector)``
    takes the coordinates as ints or ``Fraction``s, and ``vector`` gives
    them back as ``Fraction``s, built on each read.  Values are immutable;
    all arithmetic returns new scalars.
    """

    __slots__ = ("table", "den", "ints")

    def __init__(self, table: SymbolTable, vector: Sequence[Rational]):
        if len(vector) != len(table.names) + 1:
            raise ValueError(f"a value over {len(table.names)} symbols needs {len(table.names) + 1} coordinates")
        if not all(isinstance(x, (int, Fraction)) for x in vector):
            raise TypeError("coordinates must be ints or Fractions")
        den = lcm(*(x.denominator for x in vector))
        _fill(self, table, den, tuple(x.numerator * (den // x.denominator) for x in vector))

    __setattr__, __delattr__ = _Record.__setattr__, _Record.__delattr__

    def __reduce__(self):
        return ExactScalar, (self.table, self.vector)

    @property
    def vector(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple(Fraction(x, den) for x in self.ints)

    def __eq__(self, other):
        if other.__class__ is not ExactScalar:
            return NotImplemented
        return (self.table, self.den, self.ints) == (other.table, other.den, other.ints)

    def __hash__(self):
        return hash((self.table, self.den, self.ints))

    def __repr__(self):
        return f"ExactScalar(table={self.table!r}, vector={self.vector!r})"

    def is_zero(self) -> bool:
        return not any(self.ints)

    def rebind(self, table: SymbolTable) -> "ExactScalar":
        """The same value viewed over ``table``: its own table, or any
        table if the value is over the symbol-free one."""
        if table is self.table or table == self.table:
            return self
        if self.table.decls:
            raise TableMismatchError("operands use different symbol tables")
        return _row(table, self.den, self.ints + (0,) * len(table.names))

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other) -> "ExactScalar":
        if isinstance(other, (int, Fraction)):
            return _sum(self, other.denominator, (other.numerator,) + (0,) * len(self.table.names))
        if not isinstance(other, ExactScalar):
            return NotImplemented
        table = _coerce_tables(self.table, other.table)
        other = other.rebind(table)
        return _sum(self.rebind(table), other.den, other.ints)

    __radd__ = __add__

    def __neg__(self) -> "ExactScalar":
        return _row(self.table, self.den, tuple(-x for x in self.ints))

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
        n = other.numerator
        return _reduced(self.table, self.den * other.denominator, [x * n for x in self.ints])

    __rmul__ = __mul__

    def __truediv__(self, other) -> "ExactScalar":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __str__(self) -> str:
        den, ints = self.den, self.ints
        parts = []
        if ints[0] or not any(ints[1:]):
            parts.append(_ratio_text(ints[0], den))
        for name, i in self.table._coordinate.items():
            n = ints[i]
            if not n:
                continue
            term = name if abs(n) == den else f"{_ratio_text(abs(n), den)}*{name}"
            if parts:
                parts.append(f"{'-' if n < 0 else '+'} {term}")
            else:
                parts.append(term if n > 0 else f"-{term}")
        return " ".join(parts)


def _fill(s: ExactScalar, table: SymbolTable, den: int, ints: tuple[int, ...]) -> ExactScalar:
    object.__setattr__(s, "table", table)
    object.__setattr__(s, "den", den)
    object.__setattr__(s, "ints", ints)
    return s


def _row(table: SymbolTable, den: int, ints: tuple[int, ...]) -> ExactScalar:
    """The scalar with the canonical row ``(den, ints)``, unchecked."""
    return _fill(object.__new__(ExactScalar), table, den, ints)


def _reduced(table: SymbolTable, den: int, ints: list[int]) -> ExactScalar:
    """The scalar ``ints / den`` for any ``den > 0``: the row divided
    through by ``gcd(den, *ints)``."""
    g = gcd(den, *ints)
    if g > 1:
        den //= g
        ints = [x // g for x in ints]
    return _row(table, den, tuple(ints))


def _sum(a: ExactScalar, den: int, ints: Sequence[int]) -> ExactScalar:
    """``a`` plus the row ``ints / den`` over ``a``'s table."""
    if den == a.den:
        return _reduced(a.table, den, [x + y for x, y in zip(a.ints, ints)])
    g = gcd(den, a.den)
    sa, sb = den // g, a.den // g
    return _reduced(a.table, a.den * sa, [x * sa + y * sb for x, y in zip(a.ints, ints)])


def _ratio_text(n: int, den: int) -> str:
    """``n / den`` as ``str(Fraction(n, den))`` writes it."""
    g = gcd(n, den)
    return str(n // g) if g == den else f"{n // g}/{den // g}"


def _shared_table(values: Sequence[ExactScalar]) -> SymbolTable:
    table = values[0].table
    for v in values:
        table = _coerce_tables(table, v.table)
    return table


def _echelon(rows: Iterable[Sequence[int]], width: int) -> Iterator[Sequence[int] | None]:
    """Integer echelon form built one row at a time, in the given order.

    Each row is reduced against the basis rows before it, in their
    insertion order: ``row = b[c]*row - row[c]*b`` at each basis pivot
    ``c``.  Yields None when the reduced row is nonzero in its first
    ``width`` entries, and the row then joins the basis with its first
    nonzero column as pivot, divided by the gcd of its entries (without
    that, entries double in length with each basis row); otherwise yields
    the reduced row.  Entries past ``width`` ride along, so a row extended
    by a unit vector carries its combination of the input rows.
    """
    basis: list[tuple[int, Sequence[int]]] = []
    for row in rows:
        for c, b in basis:
            x = row[c]
            if x:
                y = b[c]
                row = [y * r - x * s for r, s in zip(row, b)]
        pivot = next((c for c in range(width) if row[c]), None)
        if pivot is None:
            yield row
            continue
        g = gcd(*row)
        basis.append((pivot, [r // g for r in row] if g > 1 else row))
        yield None


def qrank(values: Sequence[ExactScalar]) -> int:
    """Dimension over Q of the span of the given values."""
    values = list(values)
    if not values:
        raise ValueError("qrank of an empty list")
    table = _shared_table(values)
    width = len(table.names) + 1
    rank = 0
    for reduced in _echelon((v.rebind(table).ints for v in values), width):
        if reduced is None:
            rank += 1
            if rank == width:
                # The span is the whole space: no later value can raise it.
                break
    return rank


def _rank_one(values: Sequence[ExactScalar]) -> bool:
    """``qrank(values) == 1`` by cross-multiplication: over the shared
    table, some row is nonzero, and every row r has ``r[i] * b[j] == r[j] *
    b[i]`` for all i, with b the first nonzero row and j its first nonzero
    entry."""
    table = _shared_table(values)
    rows = [v.rebind(table).ints for v in values]
    base = next((r for r in rows if any(r)), None)
    if base is None:
        return False
    j = next(i for i, x in enumerate(base) if x)
    return all(r[i] * base[j] == r[j] * x for r in rows for i, x in enumerate(base))


def integer_relation(values: Sequence[ExactScalar]) -> tuple[int, ...] | None:
    """A nonzero integer vector a with sum(a[i]*values[i]) == 0, if one exists.

    Returns None exactly when the values are Q-linearly independent
    (equivalently, qrank(values) == len(values)).  Otherwise the relation
    is the one between the first value that depends on those before it
    and the values before it; it is unique up to scale, and is returned
    with coprime entries and the first nonzero entry positive, zero past
    that value.
    """
    values = list(values)
    if not values:
        raise ValueError("integer_relation of an empty list")
    table = _shared_table(values)
    width = len(table.names) + 1
    # At most ``width`` values are independent, so the first dependent one
    # comes at index ``width`` or before; each row carries a unit vector
    # of that length to record its combination of the values.
    scaled = [v.rebind(table) for v in values[: width + 1]]
    rows = (v.ints + tuple(int(i == j) for j in range(len(scaled))) for i, v in enumerate(scaled))
    for reduced in _echelon(rows, width):
        if reduced is not None:
            # Row i is value i times its den, so the relation on the
            # values scales each entry by that den.
            rel = [a * v.den for a, v in zip(reduced[width:], scaled)]
            g = gcd(*rel)
            if next(a for a in rel if a) < 0:
                g = -g
            return tuple(a // g for a in rel) + (0,) * (len(values) - len(rel))
    return None
