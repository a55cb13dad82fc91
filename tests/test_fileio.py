import random
import re
from fractions import Fraction

import pytest

from foliagraph import (
    MERGE,
    SPLIT,
    Edge,
    End,
    FoliationGraph,
    FreeCircle,
    ParseError,
    SurfaceModel,
    Vertex,
    builtin,
    StuckError,
    builtin_example,
    complexity,
    harmonize,
    is_calabi,
    parse,
    serialize,
    serialize_graph,
    serialize_surface,
    to_dot,
    validate,
)
from foliagraph.cli import main
from foliagraph.surfaces import parse_value
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


def _theta(name: str = "theta", m: str = "m", s: str = "s", e0: str = "e0") -> FoliationGraph:
    """The builtin theta under other names."""
    return FoliationGraph(
        name,
        (Vertex(m, MERGE, Fraction(3, 4)), Vertex(s, SPLIT, Fraction(1, 4))),
        (
            Edge(e0, End(m, "out0"), End(s, "in0"), 0),
            Edge("e1", End(s, "out0"), End(m, "in0"), 0),
            Edge("e2", End(s, "out1"), End(m, "in1"), 0),
        ),
    )


def test_theta_fixture_parses_to_builtin():
    assert parse(THETA_FIXTURE) == builtin("theta")


def test_graph_roundtrip_builtin():
    for name in ("theta", "dumbbell", "free-circle(2)"):
        g = builtin(name)
        text = serialize_graph(g)
        assert parse(text) == g
        assert serialize(parse(text)) == text


def test_graph_roundtrip_ids_with_dots_and_dashes():
    # An edge end splits at its last ".", so a vertex id may hold one.
    g = _theta(m="m-1", s="s.1")
    assert validate(g).ok
    text = serialize_graph(g)
    assert "edge e1 s.1.out0 -> m-1.in0 winding 0" in text
    assert parse(text) == g


@pytest.mark.parametrize(
    "g, violation",
    [
        (_theta(name=""), "graph name '' is empty or holds whitespace or '#'"),
        (_theta(m="m 1"), "vertex id 'm 1' is empty or holds whitespace or '#'"),
        (_theta(s=""), "vertex id '' is empty or holds whitespace or '#'"),
        (_theta(e0="e#0"), "edge id 'e#0' is empty or holds whitespace or '#'"),
        # A line separator, where the parser's line split breaks the header.
        (FreeCircle("c\u20281", 2), "graph name 'c\\u20281' is empty or holds whitespace or '#'"),
    ],
)
def test_validate_rejects_ids_the_text_format_cannot_carry(g, violation):
    assert validate(g).violations == (violation,)
    if isinstance(g, FoliationGraph):
        assert validate(FoliationGraph(g.name, g.vertices, g.edges)).violations == (violation,)
    with pytest.raises(ParseError):
        parse(serialize(g))


def test_validate_reports_every_bad_id_in_order():
    # The ids are searched joined by "/", so neither a fault beside a good
    # id nor a "/" inside one may change the messages.
    assert validate(_theta(m="m 1", s="", e0="e#0")).violations == (
        "vertex id '' is empty or holds whitespace or '#'",
        "vertex id 'm 1' is empty or holds whitespace or '#'",
        "edge id 'e#0' is empty or holds whitespace or '#'",
    )
    assert validate(_theta(m="m/", s="/s", e0="e/0")).ok


def test_graph_roundtrip_random():
    rng = random.Random(11)
    for _ in range(25):
        g = random_valid_graph(rng, max_pairs=4)
        assert parse(serialize_graph(g)) == g


def test_surface_roundtrip_examples():
    for n in (1, 2, 3, 4):
        m = builtin_example(n)
        text = serialize_surface(m)
        assert serialize(m) == text
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
        # A zero denominator, in a number term and in a coefficient.
        ("surface s\n  summand t periods (1/0, 1)\nend\n", "f:2:22: expected a rational number, got '1/0'"),
        (
            "scalar lam irrational approx [1, 2]\nsurface s\n  summand t periods (2/0*lam, 1)\nend\n",
            "f:3:22: expected a rational number, got '2/0'",
        ),
        # An edge end names a slot of its own direction after a vertex id.
        (THETA_FIXTURE.replace("e0 m.out0", "e0 m.out2"), "f:5:11: tail 'm.out2' must be <vertex>.out0 or .out1"),
        (THETA_FIXTURE.replace("e1 s.out0", "e1 .out0"), "f:6:11: tail '.out0' must be <vertex>.out0 or .out1"),
        (THETA_FIXTURE.replace("e1 s.out0", "e1 m.in0"), "f:6:11: tail 'm.in0' must be <vertex>.out0 or .out1"),
        # Every other diagnostic of the two formats, where the code puts it.
        ("graph g\n  vertex a MERGE 1/2\n  face x\nend\n", "f:3:3: unexpected directive 'face' in graph block"),
        ("surface s t\nend\n", "f:1:1: expected 'surface <name>'"),
        ("surface s\n  summand t periods 1, 0\nend\n", "f:2:3: expected 'summand <id> periods (<p>, <q>)'"),
        ("surface s\n  summand t periods (1, 0, 2)\nend\n", "f:2:22: periods need exactly two values"),
        ("surface s\n  summand t periods (0, 0)\nend\n", "f:2:22: periods (0, 0) define no form"),
        (
            "surface s\n  summand t periods (1, 0)\n  tube v t t kind A\nend\n",
            "f:3:3: expected 'tube <id> <sid> <sid> kind A|B|C disks <disk> <disk>'",
        ),
        (
            "surface s\n  summand t periods (1, 0)\n  tube v t t kind D disks small small\nend\n",
            "f:3:19: tube kind must be A, B or C, got 'D'",
        ),
        ("surface s\n  vertex a MERGE 1/2\nend\n", "f:2:3: unexpected directive 'vertex' in surface block"),
        ("surface s\n  summand t periods (1, 0)\n", "f:2:1: unexpected end of file"),
        ("scalar lam irrational [1, 2]\n", "f:1:1: expected 'scalar <name> irrational approx [<lo>, <hi>]'"),
        ("scalar lam irrational approx [2, 1]\n", "f:1:31: interval needs lo < hi"),
        (
            "scalar lam irrational approx [1, 2]\nscalar lam irrational approx [3, 4]\n",
            "f:2:8: scalar 'lam' declared twice",
        ),
        (
            "surface s\n  summand t periods (1, 0)\nend\nscalar lam irrational approx [1, 2]\n",
            "f:4:1: scalar declarations must precede the surface block",
        ),
        (THETA_FIXTURE + "graph c freecircle 1 end\n", "f:9:1: only one graph or surface per file"),
        ("graph c freecircle 1 end\nsurface s\nend\n", "f:2:1: only one graph or surface per file"),
        # A block's "end" stands alone; the first word after it is located.
        (THETA_FIXTURE.replace("end\n", "end of the graph\n"), "f:8:5: expected 'end'"),
        ("surface s\n  summand t periods (1, 0)\nend now\n", "f:3:5: expected 'end'"),
        # SurfaceModel's own checks, reported at the id of the summand or
        # tube that makes the fault; a disconnected model at its "end".
        (
            "surface s\n  summand t periods (1, 0)\n  summand t periods (0, 1)\nend\n",
            "f:3:11: summand t: duplicate id",
        ),
        (
            "surface s\n  summand t periods (1, 0)\n  summand u periods (0, 1)\n  summand w periods (1, 1)\n"
            "  tube v t u kind A disks small small\n  tube v u w kind A disks small small\nend\n",
            "f:6:8: tube v: duplicate id",
        ),
        (
            "surface s\n  summand t periods (1, 0)\n  summand u periods (0, 1)\n"
            "  tube v t u kind A disks small small\n  tube w u t kind A disks small small\nend\n",
            "f:5:8: tube w: creates a cycle among summands",
        ),
        (
            "surface s\n  summand t periods (1, 0)\n  summand u periods (0, 1)\nend\n",
            "f:4:1: summand/tube incidence is not connected",
        ),
        (
            "surface s\n  summand t periods (1, 0)\n  summand u periods (0, 1)\n"
            "  tube v t u kind A disks small ribbon(0)\nend\n",
            "f:4:33: ribbon winding must be >= 1",
        ),
        # A ribbon winding is ASCII digits, like every other number.
        (
            "surface s\n  summand t periods (1, 0)\n  summand u periods (0, 1)\n"
            "  tube v t u kind A disks small ribbon(٣)\nend\n",
            "f:4:33: expected 'small' or 'ribbon(<w>)', got 'ribbon(٣)'",
        ),
    ],
)
def test_diagnostic_points_at_the_offending_word(text, where):
    with pytest.raises(ParseError) as exc:
        parse(text, "f")
    assert str(exc.value).startswith(where)


@pytest.mark.parametrize(
    "data, command, where",
    [
        (b"graph g\n  vertex a MERGE 1/2\n", "validate", "2:1: unexpected end of file"),
        (b"surface s\n  summand t periods (, 1)\nend\n", "surface-check", "2:22: empty value"),
        (
            b"surface s\n  summand t periods (1, 0)\n  summand u periods (0, 1)\n"
            b"  tube v t u kind A disks small big\nend\n",
            "surface-check",
            "4:33: expected 'small' or 'ribbon(<w>)', got 'big'",
        ),
        (b"graph \xff\nend\n", "calabi", "1:1: not valid UTF-8: "),
        (b"scalar lam irrational approx [1, 2]\n", "surface-classify", "1:1: file declares no graph or surface"),
        # Numbers with more digits than int() converts.
        pytest.param(
            b"graph c freecircle " + b"7" * 5000 + b" end\n",
            "validate",
            "1:20: Exceeds the limit",
            id="freecircle-5000-digits",
        ),
        pytest.param(
            THETA_FIXTURE.replace("s.in0 winding 0", "s.in0 winding " + "7" * 5000).encode(),
            "complexity",
            "5:35: Exceeds the limit",
            id="winding-5000-digits",
        ),
    ],
)
def test_cli_exits_2_with_file_line_col(capsys, tmp_path, data, command, where):
    path = tmp_path / "input"
    path.write_bytes(data)
    assert main([command, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"{path}:{where}")


@pytest.mark.parametrize(
    "text, where",
    [
        (THETA_FIXTURE.replace("s.in0 winding 0", "s.in0 winding " + "1" * 5000), "f:5:35: "),
        ("graph c freecircle " + "1" * 5000 + " end\n", "f:1:20: "),
        (THETA_FIXTURE.replace("MERGE 3/4", "MERGE 3/" + "4" * 5000), "f:3:18: "),
    ],
    ids=["winding", "freecircle", "angle"],
)
def test_numbers_too_long_for_int_are_located(text, where):
    # int() refuses more than sys.get_int_max_str_digits() digits; the
    # parser reports that at the number, like any other bad number.
    with pytest.raises(ParseError) as exc:
        parse(text, "f")
    assert str(exc.value).startswith(where) and "digits" in exc.value.message


# Every break str.splitlines knows besides "\n" and "\r\n".
OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def test_comments_run_to_the_end_of_the_line():
    # A comment ends at "\n" only, so line numbers are an editor's: the
    # fault here is the winding "x" on line 6.  Mid-line, the other breaks
    # separate words like any whitespace.
    text = (
        "graph g # note\x0cpage\n"
        f"  vertex m MERGE 3/4 # {OTHER_BREAKS} end\n"
        "  vertex\x0cs SPLIT 1/4\n"
        "  edge e0 m.out0 -> s.in0 winding 0\n"
        "  edge e1 s.out0 -> m.in0 winding 0\n"
        "  edge e2 s.out1 -> m.in1 winding x\n"
        "end\n"
    )
    with pytest.raises(ParseError) as exc:
        parse(text, "f")
    assert str(exc.value) == "f:6:35: winding must be a natural number"
    assert parse(text.replace("winding x", "winding 0")) == _theta(name="g")


def test_crlf_files_parse_as_their_lf_form():
    assert parse(THETA_FIXTURE.replace("\n", "\r\n")) == builtin("theta")
    for n in (1, 2, 3, 4):
        text = serialize_surface(builtin_example(n))
        assert serialize_surface(parse(text.replace("\n", "\r\n"))) == text
    with pytest.raises(ParseError) as exc:
        parse(THETA_FIXTURE.replace("\n", "\r\n").replace("m.in1 winding 0", "m.in1 winding -1"), "f")
    assert str(exc.value) == "f:7:35: winding must be a natural number"


def test_surface_comments_run_to_the_end_of_the_line():
    text = (
        "surface s # a\x0cb\n"
        f"  summand t periods (1, 0) # {OTHER_BREAKS}\n"
        "  summand u periods (0, 1)\r\n"
        "  tube v t u kind A disks small big\r\n"
        "end\r\n"
    )
    with pytest.raises(ParseError) as exc:
        parse(text, "f")
    assert str(exc.value) == "f:4:33: expected 'small' or 'ribbon(<w>)', got 'big'"
    m = parse(text.replace("big", "small"))
    assert [s.id for s in m.summands] == ["t", "u"] and [t.id for t in m.tubes] == ["v"]


def _routes_agree(g: FoliationGraph) -> None:
    """The parsed graph (tables filled from the text) and the one built
    from ``g``'s objects are ``g``, with its hash, repr and text."""
    text = serialize(g)
    for h in (parse(text), FoliationGraph(g.name, g.vertices, g.edges)):
        assert h == g and hash(h) == hash(g) and repr(h) == repr(g) and serialize(h) == text


def test_parsed_and_object_built_graphs_agree():
    rng = random.Random(16)
    graphs = [builtin("theta"), builtin("dumbbell")]
    graphs += [random_valid_graph(rng, max_pairs=rng.choice((1, 3, 6, 12))) for _ in range(60)]
    reglued = []
    for g in graphs:
        if not is_calabi(g).verdict:
            try:
                _, trace = harmonize(g)
            except StuckError as exc:
                trace = exc.trace
            reglued += [step.graph_after for step in trace.steps]
    assert len(reglued) > 20
    for g in graphs + reglued:
        _routes_agree(g)


def test_angles_print_in_lowest_terms_whatever_their_type():
    # serialize writes an angle from the graph's exact tables: a float or
    # int angle given to FoliationGraph prints as the Fraction it equals,
    # so the text parses back to an equal graph.
    g = FoliationGraph(
        "t",
        (Vertex("m", MERGE, 0.75), Vertex("s", SPLIT, 0), Vertex("x", SPLIT, 0.1)),
        _theta("t").edges,
    )
    text = serialize(g)
    assert "vertex m MERGE 3/4\n" in text and "vertex s SPLIT 0\n" in text
    assert "vertex x SPLIT 3602879701896397/36028797018963968\n" in text  # the float nearest 1/10
    assert parse(text) == g and serialize(parse(text)) == text


def test_objects_are_built_only_when_read():
    g = parse(serialize(random_valid_graph(random.Random(3), n_pairs=8)))
    validate(g), complexity(g), is_calabi(g), serialize(g), g == parse(serialize(g))
    try:
        h, trace = harmonize(g)
    except StuckError as exc:
        trace = exc.trace
    for graph in [g] + [step.graph_after for step in trace.steps]:
        assert "vertices" not in graph.__dict__ and "edges" not in graph.__dict__
    assert g.vertices[0].id == "m0" and "vertices" in g.__dict__


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
    t = SymbolTable((SymbolDecl("lam", Fraction(1), Fraction(2)), SymbolDecl("mu", Fraction(2), Fraction(3))))
    assert parse_value("1/2 + 3*lam", t) == t.rational(Fraction(1, 2)) + 3 * t.symbol("lam")
    assert parse_value("-lam + 1", t) == t.rational(1) - t.symbol("lam")
    assert parse_value("0.5", t) == t.rational(Fraction(1, 2))
    for number in ("-0", "-7/4", "-1.50", "007/010"):
        assert parse_value(number, t) == t.rational(Fraction(number))
    # Terms add into their coordinates, repeats and rationals included.
    assert parse_value("lam + lam", t) == 2 * t.symbol("lam")
    assert parse_value("0.5*mu - 1/2 - mu", t) == parse_value("-1/2*mu - 1/2", t) == -t.symbol("mu") / 2 - Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_value("lam lam", t)


BAD_RATIONALS = ["1_0/31", "1e-1", ".25", "\u0663/31", "\u0663", "1/", "1.", "0x1"]


@pytest.mark.parametrize("token", BAD_RATIONALS)
def test_rational_grammar_is_ascii_in_every_position(token):
    # Fraction(str) takes some of these, on some Python versions only; the
    # format reads one grammar, -?[0-9]+(/[0-9]+|.[0-9]+)?, everywhere.
    angle = THETA_FIXTURE.replace("SPLIT 1/4", f"SPLIT {token}")
    with pytest.raises(ParseError) as exc:
        parse(angle, "f")
    assert str(exc.value) == f"f:4:18: expected a rational number, got {token!r}"
    bound = f"scalar lam irrational approx [{token}, 2]\nsurface s\n  summand t periods (lam, 1)\nend\n"
    with pytest.raises(ParseError) as exc:
        parse(bound, "f")
    assert str(exc.value) == f"f:1:31: expected a rational number, got {token!r}"
    for value in (token, f"{token}*lam"):
        coefficient = f"scalar lam irrational approx [1, 2]\nsurface s\n  summand t periods ({value}, 1)\nend\n"
        with pytest.raises(ParseError) as exc:
            parse(coefficient, "f")
        assert (exc.value.line, exc.value.col) == (3, 22)


def test_dot_quotes_ids_with_quotes_and_backslashes():
    quoted = re.compile(r'"(?:[^"\\]|\\.)*"')
    g = _theta(name='th"eta\\', m='a"b', s='a\\"b')
    assert validate(g).ok
    text = to_dot(g)
    # Every quote opens or closes a well-formed quoted string.
    assert '"' not in quoted.sub("", text)
    lines = text.splitlines()
    names = [quoted.search(line).group() for line in lines[:3]]
    assert [re.sub(r"\\(.)", r"\1", q[1:-1]) for q in names] == [g.name] + [v.id for v in g.vertices]
    assert len(set(names)) == 3


def test_dot_deterministic_and_labeled():
    th = builtin("theta")
    text = to_dot(th)
    assert text == to_dot(builtin("theta"))
    assert '"m" [label="MERGE@3/4"];' in text
    assert text.count('"s" -> "m" [label="w=0"];') == 2
    fc_dot = to_dot(builtin("free-circle(2)"))
    assert "w=2" in fc_dot
