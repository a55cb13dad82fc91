from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliagraph import (
    ExactScalar,
    SymbolDecl,
    SymbolTable,
    TableMismatchError,
    integer_relation,
    qrank,
)
from foliagraph.fileio import parse_value

from modelgen import example_table
from oracles import oracle_rank


@pytest.fixture
def table():
    return example_table()


rationals = st.fractions(max_denominator=12, min_value=-8, max_value=8)


def scalars(table, allow_symbols=True):
    def build(q, cs):
        coeffs = dict(zip(table.names, cs)) if allow_symbols else {}
        return ExactScalar.make(table, q, coeffs)

    return st.builds(build, rationals, st.tuples(rationals, rationals, rationals))


def test_canonical_form_drops_zero_coefficients(table):
    s = ExactScalar.make(table, Fraction(1, 2), {"lam": 0, "mu": Fraction(2)})
    assert s.vector == (Fraction(1, 2), 0, 2, 0)
    assert s == table.rational(Fraction(1, 2)) + 2 * table.symbol("mu")


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


def test_unknown_symbol_rejected(table):
    with pytest.raises(KeyError, match="unknown symbol 'xi'"):
        ExactScalar.make(table, 1, {"xi": 2})
    with pytest.raises(KeyError) as exc:
        table.symbol("xi")
    assert exc.value.args == ("xi",)


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
    assert qrank([tau.symbol("tau"), tau.symbol("tau", 3)]) == 1
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
