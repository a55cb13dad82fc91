import random
from fractions import Fraction

import pytest

from foliagraph import (
    ParseError,
    SurfaceModel,
    builtin,
    builtin_example,
    parse,
    serialize,
    serialize_graph,
    serialize_surface,
    to_dot,
    validate,
)
from foliagraph.fileio import parse_value
from foliagraph.scalars import SymbolDecl, SymbolTable

from graphgen import random_valid_graph
from modelgen import random_model

THETA_FIXTURE = """\
# the Calabi example
graph theta
  vertex m MERGE 3/4
  vertex s SPLIT 1/4
  edge e0 m.out0 -> s.in0 winding 0
  edge e1 s.out0 -> m.in0 winding 0
  edge e2 s.out1 -> m.in1 winding 0
end
"""


def test_theta_fixture_parses_to_builtin():
    assert parse(THETA_FIXTURE) == builtin("theta")


def test_graph_roundtrip_builtin():
    for name in ("theta", "dumbbell", "free-circle(2)"):
        g = builtin(name)
        text = serialize_graph(g)
        assert parse(text) == g
        assert serialize(parse(text)) == text


def test_graph_roundtrip_random():
    rng = random.Random(11)
    for _ in range(25):
        g = random_valid_graph(rng, max_pairs=4)
        assert parse(serialize_graph(g)) == g


def test_surface_roundtrip_examples():
    for n in (1, 2, 3, 4):
        m = builtin_example(n)
        text = serialize_surface(m)
        m2 = parse(text)
        assert isinstance(m2, SurfaceModel)
        assert serialize_surface(m2) == text
        assert [s.id for s in m2.summands] == [s.id for s in m.summands]
        assert m2.periods() == tuple(p.rebind(m2.table) for p in m.periods())


def test_surface_roundtrip_random():
    rng = random.Random(23)
    for _ in range(25):
        m = random_model(rng)
        text = serialize_surface(m)
        assert serialize_surface(parse(text)) == text


def test_decimal_angles_and_bounds_accepted():
    g = parse(THETA_FIXTURE.replace("3/4", "0.75").replace("1/4", "0.25"))
    assert g == builtin("theta")


def test_empty_file_diagnostic():
    with pytest.raises(ParseError) as exc:
        parse("")
    assert exc.value.line == 1


def test_bad_token_position():
    bad = "graph g\n  vertex a MERGE nope\nend\n"
    with pytest.raises(ParseError) as exc:
        parse(bad)
    assert exc.value.line == 2
    assert "rational" in exc.value.message


@pytest.mark.parametrize(
    "text, where",
    [
        # The angle "1" also occurs inside the vertex id "v1".
        ("graph g\n  vertex v1 MERGE 1\nend\n", "f:2:19: angle 1 outside"),
        # The summand id "u" also occurs inside "tube" and as the tube id.
        (
            "surface s\n  summand t periods (1, 0)\n  tube u t u kind A disks small small\nend\n",
            "f:3:12: unknown summand 'u'",
        ),
        # str.isdigit accepts a superscript two, which int() rejects.
        (
            THETA_FIXTURE.replace("e0 m.out0 -> s.in0 winding 0", "e0 m.out0 -> s.in0 winding ²"),
            "f:5:35: winding must be a natural number",
        ),
        ("graph c freecircle ² end\n", "f:1:20: freecircle winding must be a natural >= 1"),
    ],
)
def test_diagnostic_points_at_the_offending_word(text, where):
    with pytest.raises(ParseError) as exc:
        parse(text, "f")
    assert str(exc.value).startswith(where)


def test_angle_out_of_range():
    bad = "graph g\n  vertex a MERGE 5/4\nend\n"
    with pytest.raises(ParseError) as exc:
        parse(bad)
    assert "[0, 1)" in exc.value.message


def test_duplicate_angle_is_semantic_not_syntactic():
    text = THETA_FIXTURE.replace("1/4", "3/4")
    g = parse(text)  # parses fine
    report = validate(g)
    assert any("distinct" in v for v in report.violations)


def test_scalar_before_graph_rejected():
    with pytest.raises(ParseError) as exc:
        parse("scalar lam irrational approx [1/2, 2/3]\n" + THETA_FIXTURE)
    assert "surface files only" in exc.value.message


def test_unknown_directive():
    with pytest.raises(ParseError) as exc:
        parse("blorb g\nend\n")
    assert "unknown directive" in exc.value.message


def test_unknown_scalar_in_period():
    text = "surface s\n  summand a periods (zeta, 1)\nend\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert "zeta" in exc.value.message


def test_tube_cycle_diagnosed_at_end():
    text = (
        "surface s\n"
        "  summand a periods (1, 0)\n"
        "  summand b periods (2, 0)\n"
        "  tube u a b kind A disks small small\n"
        "  tube v a b kind B disks small ribbon(2)\n"
        "end\n"
    )
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert "cycle" in exc.value.message


def test_parse_value_forms():
    t = SymbolTable((SymbolDecl("lam", Fraction(1), Fraction(2)),))
    assert parse_value("1/2 + 3*lam", t) == t.rational(Fraction(1, 2)) + 3 * t.symbol("lam")
    assert parse_value("-lam + 1", t) == t.rational(1) - t.symbol("lam")
    assert parse_value("0.5", t) == t.rational(Fraction(1, 2))
    with pytest.raises(ValueError):
        parse_value("lam lam", t)


def test_dot_deterministic_and_labeled():
    th = builtin("theta")
    text = to_dot(th)
    assert text == to_dot(builtin("theta"))
    assert '"m" [label="MERGE@3/4"];' in text
    assert text.count('"s" -> "m" [label="w=0"];') == 2
    fc_dot = to_dot(builtin("free-circle(2)"))
    assert "w=2" in fc_dot
