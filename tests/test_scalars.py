import copy
import operator
import random
import re
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliagraph import (
    ExactScalar,
    SymbolDecl,
    SymbolTable,
    TableMismatchError,
    builtin,
    integer_relation,
    make_torus,
    parse,
    qrank,
    serialize,
)
from foliagraph.surfaces import parse_value
from foliagraph.scalars import _rank_one

from modelgen import example_table
from oracles import oracle_rank, rref_rank, rref_relation


@pytest.fixture
def table():
    return example_table()


rationals = st.fractions(max_denominator=12, min_value=-8, max_value=8)


def scalars(table):
    """Scalars over a three-symbol table: a rational, then one coefficient
    per symbol."""
    return st.builds(lambda q, cs: ExactScalar(table, (q, *cs)), rationals, st.tuples(rationals, rationals, rationals))


def test_canonical_form_drops_zero_coefficients(table):
    s = table.rational(Fraction(1, 2)) + 0 * table.symbol("lam") + 2 * table.symbol("mu")
    assert s.vector == (Fraction(1, 2), 0, 2, 0)
    assert str(s) == "1/2 + 2*mu"


def test_rational_arithmetic_examples(table):
    half = table.rational(Fraction(1, 2))
    assert (half + half) == table.rational(1)
    lam = table.symbol("lam")
    assert (lam + (-lam)).is_zero()
    assert 2 * (table.rational(1) + lam) == table.rational(2) + 2 * lam


def test_table_mismatch_rejected(table):
    other = SymbolTable(table.decls[:1])
    with pytest.raises(TableMismatchError):
        table.symbol("lam") + other.symbol("lam")


def test_symbol_free_table_embeds(table):
    plain = SymbolTable().rational(3)
    s = table.symbol("lam") + plain
    assert s.table == table and s.vector == (3, 1, 0, 0)
    assert plain.rebind(table).vector == (3, 0, 0, 0)


def test_str_texts(table):
    lam, mu, nu = (table.symbol(n) for n in ("lam", "mu", "nu"))
    assert str(table.rational(0)) == "0"
    assert str(-lam) == "-lam"
    assert str(Fraction(1, 2) - 3 * mu) == "1/2 - 3*mu"
    assert str(lam + Fraction(1, 2) * nu) == "lam + 1/2*nu"
    # Terms print by symbol name, whatever the declaration order.
    rev = SymbolTable(tuple(reversed(table.decls)))
    assert str(rev.symbol("nu") - rev.symbol("lam")) == "-lam + nu"


@settings(max_examples=60)
@given(data=st.data())
def test_str_parses_back(data):
    t = example_table()
    s = data.draw(scalars(t))
    assert parse_value(str(s), t) == s


def oracle_text(table: SymbolTable, vector: tuple[Fraction, ...]) -> str:
    """The text of a value, written term by term from its Fraction
    coordinates: the rational if nonzero or alone, then each nonzero
    symbol coefficient in name order, a unit coefficient left out."""
    parts = [str(vector[0])] if vector[0] or not any(vector[1:]) else []
    for name in sorted(table.names):
        c = vector[table.names.index(name) + 1]
        if c:
            term = name if abs(c) == 1 else f"{abs(c)}*{name}"
            sign = "-" if c < 0 else "+"
            parts.append(f"{sign} {term}" if parts else term if c > 0 else f"-{term}")
    return " ".join(parts)


def check_against_oracle(s: ExactScalar, table: SymbolTable, vector: tuple[Fraction, ...]) -> None:
    """``s`` is the value with coordinates ``vector`` over ``table``: its
    row is canonical and the lcm-scaled vector, and its view and text are
    the oracle's."""
    assert s.table == table and s.vector == vector
    assert all(type(x) is Fraction for x in s.vector)
    den = lcm(*(x.denominator for x in vector))
    assert s.den == den and s.ints == tuple(int(x * den) for x in vector)
    assert s.den > 0 and gcd(s.den, *s.ints) == 1
    assert str(s) == oracle_text(table, vector)
    assert parse_value(str(s), table) == s
    assert s.is_zero() == (not any(vector))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_scalar_agrees_with_the_fraction_vector_oracle(data):
    t, free = example_table(), SymbolTable()
    coords = st.lists(rationals, min_size=4, max_size=4)
    va, vb = data.draw(coords), data.draw(coords)
    a, b = ExactScalar(t, tuple(va)), ExactScalar(t, tuple(vb))
    q = data.draw(rationals)
    n = data.draw(st.integers(-5, 5))
    # The symbol-free table embeds as zero symbol coordinates.
    r = ExactScalar(free, (va[0],))
    check_against_oracle(r, free, (va[0],))
    check_against_oracle(r.rebind(t), t, (va[0], 0, 0, 0))
    cases = [
        (a, va),
        (a + b, [x + y for x, y in zip(va, vb)]),
        (a - b, [x - y for x, y in zip(va, vb)]),
        (a + r, [va[0] + va[0]] + va[1:]),
        (r - a, [va[0] - x if k == 0 else -x for k, x in enumerate(va)]),
        (-a, [-x for x in va]),
        (a + q, [va[0] + q] + va[1:]),
        (q - a, [q - va[0]] + [-x for x in va[1:]]),
        (a * q, [x * q for x in va]),
        (n * a, [n * x for x in va]),
        (t.rational(q), [q, 0, 0, 0]),
        (t.symbol("mu") * q, [0, 0, q, 0]),
    ]
    if q:
        cases.append((a / q, [x / q for x in va]))
    for s, vector in cases:
        check_against_oracle(s, t, tuple(Fraction(x) for x in vector))
    # Equality is equality of vectors, and hash agrees with it.
    for x, y in ((a, b), (a, 2 * a), (a, a / 2), (a + b, b + a), (a * q + a * q, a * (2 * q)), (a, r), (r.rebind(t), r)):
        assert (x == y) == (x.table == y.table and x.vector == y.vector)
        if x == y:
            assert hash(x) == hash(y)


def test_scalars_are_immutable(table):
    s = table.rational(Fraction(1, 2)) + table.symbol("lam")
    for field in ("table", "den", "ints", "vector", "other"):
        with pytest.raises(AttributeError):
            setattr(s, field, None)
    with pytest.raises(AttributeError):
        del s.den
    assert copy.copy(s) == copy.deepcopy(s) == s
    assert repr(s) == f"ExactScalar(table={table!r}, vector={s.vector!r})"


def test_constructor_takes_one_int_or_fraction_per_coordinate(table):
    assert ExactScalar(table, (1, Fraction(1, 2), 0, -3)) == 1 + table.symbol("lam") / 2 - 3 * table.symbol("nu")
    with pytest.raises(ValueError, match="needs 4 coordinates"):
        ExactScalar(table, (1, 2))
    with pytest.raises(TypeError, match="ints or Fractions"):
        ExactScalar(table, (0.5, 0, 0, 0))


def test_unknown_symbol_rejected(table):
    with pytest.raises(ValueError, match="unknown scalar 'xi'"):
        parse_value("1 + 2*xi", table)
    with pytest.raises(KeyError) as exc:
        table.symbol("xi")
    assert exc.value.args == ("xi",)


def test_foreign_operands_are_left_to_the_other_type(table):
    # Comparing with or combining with a type they do not know, graphs and
    # scalars return NotImplemented, so Python answers: unequal, or TypeError.
    assert (builtin("theta") == "theta") is False
    x = table.rational(3)
    assert (x == "3") is False
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        with pytest.raises(TypeError):
            op(x, "3")


def test_products_of_symbols_rejected(table):
    with pytest.raises(TypeError):
        table.symbol("lam") * table.symbol("mu")


@settings(max_examples=60)
@given(data=st.data())
def test_arith_laws(data):
    t = example_table()
    a = data.draw(scalars(t))
    b = data.draw(scalars(t))
    c = data.draw(scalars(t))
    q = data.draw(rationals)
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a - a == t.rational(0)
    assert q * (a + b) == q * a + q * b
    assert (a + b).vector == tuple(x + y for x, y in zip(a.vector, b.vector))


def test_qrank_examples(table):
    tau = SymbolTable((SymbolDecl("tau", Fraction(141, 100), Fraction(142, 100)),))
    assert qrank([tau.symbol("tau"), 3 * tau.symbol("tau")]) == 1
    assert qrank([table.rational(1), table.symbol("lam")]) == 2
    vals = [table.rational(1), table.rational(0), table.symbol("lam"), table.symbol("mu")]
    assert qrank(vals) == 3


def test_integer_relation_examples(table):
    t = SymbolTable()
    assert integer_relation([t.rational(1), t.rational(2)]) == (2, -1)
    assert integer_relation([table.rational(1), table.symbol("lam")]) is None
    vals = [table.rational(0), table.rational(1), table.symbol("mu"), table.symbol("lam")]
    rel = integer_relation(vals)
    assert rel is not None and any(rel)
    acc = table.rational(0)
    for a, v in zip(rel, vals):
        acc = acc + a * v
    assert acc.is_zero()


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_qrank_and_relation_against_minor_oracle(data):
    t = example_table()
    n = data.draw(st.integers(1, 6))
    values = [data.draw(scalars(t)) for _ in range(n)]
    matrix = [list(v.vector) for v in values]
    rank = qrank(values)
    assert rank == oracle_rank(matrix)
    rel = integer_relation(values)
    assert (rel is None) == (rank == n)
    if rel is not None:
        assert any(rel)
        acc = t.rational(0)
        for a, v in zip(rel, values):
            acc = acc + a * v
        assert acc.is_zero()


small_rationals = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6))


@st.composite
def value_lists(draw):
    """Up to 40 values over the example table, the symbol-free table, a mix
    of both, or all multiples of one value; zero values included."""
    t = example_table()
    free = SymbolTable()
    n = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(["table", "free", "mixed", "rank_one"]))
    coords = draw(st.lists(st.lists(small_rationals, min_size=4, max_size=4), min_size=n, max_size=n))
    if kind == "rank_one":
        base = ExactScalar(t, tuple(coords[0]))
        return [base * c[0] for c in coords]
    # A zero coordinate vector gives a zero value; about one in eight.
    zeros = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    tables = draw(st.lists(st.sampled_from({"table": [t], "free": [free], "mixed": [t, free]}[kind]), min_size=n, max_size=n))
    return [
        ExactScalar(tab, tuple(Fraction(0) if z == 0 else x for x in c[: len(tab.names) + 1]))
        for c, z, tab in zip(coords, zeros, tables)
    ]


@settings(max_examples=200, deadline=None)
@given(values=value_lists())
def test_rank_and_relation_equal_the_rref_reference(values):
    # Exact equality, not only a vanishing relation: surface-classify
    # prints the relation, so which one is returned is visible.
    table = next((v.table for v in values if v.table.decls), values[0].table)
    vectors = [v.rebind(table).vector for v in values]
    assert qrank(values) == rref_rank(vectors)
    assert integer_relation(values) == rref_relation(vectors)


def test_rank_one_test_equals_qrank_on_seeded_rows():
    # The two- and four-value rank-one test of the surface layer against
    # the echelon: rows over the example table, the symbol-free one and a
    # mix of both, with zero rows, and lists of multiples of one row.
    t, free = example_table(), SymbolTable()
    rng = random.Random(2026_18)

    def coords(width):
        # About one value in four is zero.
        zero = rng.random() < 0.25
        return tuple(Fraction(0 if zero else rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(width))

    seen = {True: 0, False: 0}
    for _ in range(3000):
        n = rng.choice((2, 4))
        kind = rng.choice(("table", "free", "mixed", "multiples"))
        if kind == "multiples":
            tab = rng.choice((t, free))
            base = ExactScalar(tab, coords(len(tab.names) + 1))
            values = [base * Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)]
        else:
            tables = {"table": [t], "free": [free], "mixed": [t, free]}[kind]
            values = [ExactScalar(tab, coords(len(tab.names) + 1)) for tab in (rng.choice(tables) for _ in range(n))]
        got = _rank_one(values)
        assert got == (qrank(values) == 1), values
        seen[got] += 1
    assert min(seen.values()) >= 500


def test_rank_and_relation_errors(table):
    other = SymbolTable(table.decls[:1])
    for fn in (qrank, integer_relation):
        with pytest.raises(ValueError, match="empty list"):
            fn([])
        # The mismatch comes after the first dependency and after full rank.
        late = [table.rational(1), table.rational(2), table.symbol("lam"), table.symbol("mu"), table.symbol("nu")]
        with pytest.raises(TableMismatchError):
            fn(late + [other.symbol("lam")])


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda t: SymbolDecl("x", Fraction(2), Fraction(2)), ValueError, "symbol x: interval needs lo < hi"),
        (lambda t: SymbolTable((t.decls[0], t.decls[0])), ValueError, "duplicate symbol names in table"),
        (
            lambda t: t.symbol("lam").rebind(SymbolTable(t.decls[:1])),
            TableMismatchError,
            "operands use different symbol tables",
        ),
    ],
)
def test_declarations_and_rebind_name_their_fault(table, build, error, message):
    # Raise sites that no parsed file reaches: the parser rejects an empty
    # interval and a repeated name at their line, and reads every value
    # over one table.
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build(table)


@pytest.mark.parametrize("name", ["a b", "", "1x", "lam#", "x-y"])
def test_symbol_name_outside_the_file_grammar_rejected(name):
    # ``parse`` reads a symbol name as [A-Za-z_]\w*; any other would
    # serialize to text that does not parse back.
    with pytest.raises(ValueError, match="does not match"):
        SymbolDecl(name, Fraction(1), Fraction(2))


@pytest.mark.parametrize("lo, hi, bad", [(0.1, 0.2, 0.1), (True, 2, True), (Fraction(1), 2.5, 2.5), (0, True, True)])
def test_a_bound_that_is_not_an_int_or_fraction_is_rejected(lo, hi, bad):
    # A float bound prints as a decimal that parses back as a different
    # Fraction, and a bool prints as text that does not parse at all.
    with pytest.raises(ValueError, match=f"^symbol lam: bound {re.escape(repr(bad))} is not an int or Fraction$"):
        SymbolDecl("lam", lo, hi)


def test_int_and_fraction_bounds_parse_back():
    table = SymbolTable((SymbolDecl("lam", 1, 2), SymbolDecl("mu", Fraction(1, 10), Fraction(1, 5))))
    m = make_torus(table.symbol("lam"), table.symbol("mu"))
    assert parse(serialize(m)).table == table
