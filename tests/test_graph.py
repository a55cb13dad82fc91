import copy
import math
import os
import pickle
import random
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliagraph import (
    MERGE,
    SPLIT,
    CalabiCertificate,
    Edge,
    End,
    FoliationGraph,
    FreeCircle,
    Obstruction,
    ValidationReport,
    StuckError,
    Vertex,
    builtin,
    complexity,
    cut,
    euler_genus,
    harmonize,
    ParseError,
    is_calabi,
    parse,
    serialize,
    validate,
)

from graphgen import (
    exhaustive_valid_graphs,
    oracle_all_pairs_positive_path,
    oracle_crossing_count,
    oracle_end_faults,
    oracle_every_edge_on_cycle,
    oracle_root_walks,
    oracle_strongly_connected,
    random_valid_graph,
    regular_levels,
)


def test_builtins_are_valid():
    for name in ("theta", "dumbbell", "free-circle(1)"):
        assert validate(builtin(name)).ok


def test_theta_shape():
    th = builtin("theta")
    assert len(th.vertices) == 2 and len(th.edges) == 3
    assert th.merge_count() == th.split_count() == 1


def test_free_circle():
    fc = builtin("free-circle(3)")
    assert fc == FreeCircle("free-circle(3)", 3)
    assert complexity(fc) == (3, 0)
    assert is_calabi(fc).verdict
    assert euler_genus(fc) == (0, 1)
    with pytest.raises(ValueError):
        builtin("free-circle(0)")
    with pytest.raises(ValueError):
        builtin("trefoil")
    for digits in ("x", "\u0663", "1_0", " 3", "+3"):
        with pytest.raises(ValueError, match="expected a natural number"):
            builtin(f"free-circle({digits})")


def _graph(vertices, edges):
    return FoliationGraph("t", tuple(vertices), tuple(edges))


def _report(g, text_carries=True):
    """``validate(g).violations``, asserted the same for the graph rebuilt
    from ``g.vertices`` and ``g.edges`` and, when the text format carries
    ``g`` (it has no kind but MERGE and SPLIT), for the parsed graph."""
    violations = validate(g).violations
    routes = [FoliationGraph(g.name, g.vertices, g.edges)]
    if text_carries:
        routes.append(parse(serialize(g)))
    for h in routes:
        assert h == g and repr(h) == repr(g) and validate(h).violations == violations
    return violations


def test_validate_reports_all_failures():
    # Two edges into one slot, a parity failure and 2E != 3V at once.
    g = _graph(
        [Vertex("a", MERGE, Fraction(0)), Vertex("b", MERGE, Fraction(1, 2))],
        [
            Edge("e0", End("a", "out0"), End("b", "in0"), 0),
            Edge("e1", End("b", "out0"), End("b", "in0"), 1),
        ],
    )
    text = " ".join(_report(g))
    assert "reused" in text
    assert "#MERGE" in text
    assert "2E" in text


def test_validate_duplicate_angles():
    th = builtin("theta")
    g = _graph(
        [Vertex("s", SPLIT, Fraction(1, 4)), Vertex("m", MERGE, Fraction(1, 4))],
        th.edges,
    )
    assert any("distinct" in v for v in _report(g))


def test_validate_loop_winding():
    db = builtin("dumbbell")
    bad = _graph(db.vertices, [e if e.id != "e2" else Edge("e2", e.tail, e.head, 0) for e in db.edges])
    assert any("loop" in v for v in _report(bad))


@pytest.mark.parametrize("winding", [1.0, True, 2.5, Fraction(1), "1", None])
def test_validate_rejects_windings_that_are_not_ints(winding):
    # The text format carries only integer windings: a float, bool or
    # other number would validate, then serialize to text that parse
    # rejects.  A non-int winding gets one message and no range check.
    db = builtin("dumbbell")
    bad = _graph(db.vertices, [e._replace(winding=winding) if e.id == "e2" else e for e in db.edges])
    message = f"edge e2: winding {winding!r} is not an int"
    assert validate(bad).violations == (message,)
    assert oracle_end_faults(bad) == [message]
    with pytest.raises(ValueError, match="is not an int"):
        complexity(bad)
    circle = FreeCircle("c", winding)
    assert validate(circle).violations == (f"free circle winding {winding!r} is not an int",)
    with pytest.raises(ValueError, match="is not an int"):
        complexity(circle)


def test_integer_winding_messages_are_unchanged():
    db = builtin("dumbbell")
    bad = _graph(db.vertices, [e._replace(winding=-1) if e.id == "e2" else e for e in db.edges])
    assert validate(bad).violations == ("edge e2: negative winding", "edge e2: loop needs winding >= 1")
    assert validate(FreeCircle("c", 0)).violations == ("free circle winding must be >= 1",)


@pytest.mark.parametrize("ident", [7, True, 2.5, Fraction(1), None])
def test_names_and_ids_that_are_not_strs_are_rejected(ident):
    # The text formats carry only str names and ids.  An id that cannot be
    # sorted with the others stops the constructor, which names it; any
    # other is a violation, one per ident, and no TypeError escapes.
    db = builtin("dumbbell")
    renamed = [v._replace(id=ident) if v.id == db.vertices[0].id else v for v in db.vertices]
    with pytest.raises(ValueError, match=rf"^vertex id {re.escape(repr(ident))} is not a str$"):
        _graph(renamed, db.edges)
    renamed = [e._replace(id=ident) if e.id == "e2" else e for e in db.edges]
    with pytest.raises(ValueError, match=rf"^edge id {re.escape(repr(ident))} is not a str$"):
        _graph(db.vertices, renamed)

    message = f"graph name {ident!r} is not a str"
    for g in (FoliationGraph(ident, db.vertices, db.edges), FreeCircle(ident, 1)):
        assert validate(g).violations == (message,)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            complexity(g)

    # Ids that sort together, all ints here, reach validate.
    g = _graph(db.vertices, [e._replace(id=k + 10) for k, e in enumerate(db.edges)])
    assert validate(g).violations == ("edge id 10 is not a str", "edge id 11 is not a str", "edge id 12 is not a str")


def test_validate_disconnected():
    # Two disjoint theta copies in one record.
    th = builtin("theta")
    verts = list(th.vertices) + [
        Vertex("s2", SPLIT, Fraction(1, 8)),
        Vertex("m2", MERGE, Fraction(7, 8)),
    ]
    edges = list(th.edges) + [
        Edge("f0", End("m2", "out0"), End("s2", "in0"), 0),
        Edge("f1", End("s2", "out0"), End("m2", "in0"), 0),
        Edge("f2", End("s2", "out1"), End("m2", "in1"), 0),
    ]
    assert any("connected" in v for v in _report(_graph(verts, edges)))


def test_validate_rarely_reached_branches():
    # Exact reports, fixed before validate moved onto the shared indices.
    th = builtin("theta")
    e0, e1, e2 = th.edges
    by_id = {v.id: v for v in th.vertices}
    s, m = by_id["s"], by_id["m"]
    dangling = _graph(th.vertices, [Edge("e0", End("z", "out0"), e0.head, 0), e1, e2])
    # An unknown vertex skips the connectivity search.
    assert _report(dangling) == (
        "edge e0: unknown vertex z",
        "vertex m: slot out0 unused",
    )
    # A loop on an unknown vertex names it once, and so does the oracle.
    stray_loop = _graph(th.vertices, [Edge("e0", End("x", "out0"), End("x", "in0"), 1), e1, e2])
    faults = ("edge e0: unknown vertex x", "vertex m: slot out0 unused", "vertex s: slot in0 unused")
    assert _report(stray_loop) == faults and oracle_end_faults(stray_loop) == list(faults)
    twin_vertex = _graph(list(th.vertices) + [Vertex("s", MERGE, Fraction(1, 2))], th.edges)
    assert _report(twin_vertex) == (
        "duplicate vertex ids",
        "edge e2: slot s.out1 not an out-slot of a MERGE vertex",
        "vertex s: slot out1 unused",
        "vertex s: slot in1 unused",
        "#MERGE = 2 differs from #SPLIT = 1",
        "2E = 6 differs from 3V = 9",
        "underlying graph not connected",
    )
    twin_edge = _graph(th.vertices, list(th.edges) + [e1])
    assert _report(twin_edge) == (
        "duplicate edge ids",
        "vertex m: slot in0 reused (2 edge ends)",
        "vertex s: slot out0 reused (2 edge ends)",
        "2E = 8 differs from 3V = 6",
    )
    saddle = _graph([s, Vertex("m", "SADDLE", m.angle)], th.edges)
    assert _report(saddle, text_carries=False) == (
        "vertex m: unknown kind SADDLE",
        "edge e0: slot m.out0 not an out-slot of a SADDLE vertex",
        "edge e1: slot m.in0 not an in-slot of a SADDLE vertex",
        "edge e2: slot m.in1 not an in-slot of a SADDLE vertex",
        "#MERGE = 0 differs from #SPLIT = 1",
    )
    # A kind that merely reads like the unknown-vertex report still gets
    # the connectivity search: two disjoint thetas.
    phrase = _graph(
        [
            Vertex("s", "SPLIT unknown vertex", s.angle),
            m,
            Vertex("s2", SPLIT, Fraction(1, 8)),
            Vertex("m2", MERGE, Fraction(7, 8)),
        ],
        list(th.edges)
        + [
            Edge("f0", End("m2", "out0"), End("s2", "in0"), 0),
            Edge("f1", End("s2", "out0"), End("m2", "in0"), 0),
            Edge("f2", End("s2", "out1"), End("m2", "in1"), 0),
        ],
    )
    assert _report(phrase, text_carries=False) == (
        "vertex s: unknown kind SPLIT unknown vertex",
        "edge e0: slot s.in0 not an in-slot of a SPLIT unknown vertex vertex",
        "edge e1: slot s.out0 not an out-slot of a SPLIT unknown vertex vertex",
        "edge e2: slot s.out1 not an out-slot of a SPLIT unknown vertex vertex",
        "#MERGE = 2 differs from #SPLIT = 1",
        "underlying graph not connected",
    )
    # A graph record without vertices, which the text carries, and a free
    # circle without a winding, which it does not.
    assert _report(_graph([], [])) == ("graph has no vertices (use a free circle record instead)",)
    assert validate(FreeCircle("c", 0)).violations == ("free circle winding must be >= 1",)


def _level_count(g, a):
    """The crossings of the level ``a`` as ``complexity`` and ``cut`` count
    them: per edge, at the gap of the angle order holding ``a``."""
    _, gap = g._gap(a, "angle")
    return sum(g._crossings(gap))


def _malformed(rng, g):
    """``g`` with a few random faults: slots, ends naming unknown vertices,
    windings, kinds, angles, ids, and added or dropped rows."""
    vertices, edges = list(g.vertices), list(g.edges)
    slots = ("in0", "in1", "out0", "out1", "out2", "x")
    for _ in range(rng.randint(1, 3)):
        r = rng.randrange(8)
        if r == 0 and edges:
            i = rng.randrange(len(edges))
            edges[i] = Edge(edges[i].id, End(edges[i].tail.vertex, rng.choice(slots)), edges[i].head, edges[i].winding)
        elif r == 1 and edges:
            i = rng.randrange(len(edges))
            head = End(rng.choice([v.id for v in vertices] + ["zz"]), rng.choice(slots))
            edges[i] = Edge(edges[i].id, edges[i].tail, head, edges[i].winding)
        elif r == 2 and edges:
            i = rng.randrange(len(edges))
            edges[i] = Edge(edges[i].id, edges[i].tail, edges[i].head, rng.choice((-1, 0, 1)))
        elif r == 3:
            i = rng.randrange(len(vertices))
            vertices[i] = Vertex(vertices[i].id, rng.choice((MERGE, SPLIT, "SADDLE")), vertices[i].angle)
        elif r == 4:
            i = rng.randrange(len(vertices))
            angle = rng.choice((Fraction(0), Fraction(1), Fraction(-1, 3), vertices[0].angle, 1 - Fraction(1, 10**30)))
            vertices[i] = Vertex(vertices[i].id, vertices[i].kind, angle)
        elif r == 5:
            v = rng.choice(vertices)
            angle = Fraction(rng.randrange(97), 97)
            vertices.append(Vertex(rng.choice((v.id, "n")), rng.choice((MERGE, SPLIT)), angle))
        elif r == 6 and edges:
            e = rng.choice(edges)
            edges.append(Edge(rng.choice((e.id, "f")), e.tail, e.head, e.winding))
        elif edges:
            edges.pop(rng.randrange(len(edges)))
    return FoliationGraph(g.name, vertices, edges)


def test_validate_reports_end_faults_as_the_objects_count_them():
    # validate counts slot uses per port of the tables; its slot and
    # winding messages must be those of counting (vertex id, slot) pairs
    # on the objects, also where vertex ids repeat and so share their
    # slots.  Both construction routes report the same faults where the
    # text carries the graph.
    rng = random.Random(1616)
    faulty = parsed = shared = 0
    for _ in range(1500):
        g = _malformed(rng, random_valid_graph(rng, max_pairs=rng.choice((1, 2, 4))))
        faults = oracle_end_faults(g)
        violations = validate(g).violations
        assert [m for m in violations if m.startswith("edge ") or ": slot " in m] == faults
        faulty += bool(faults)
        shared += len({v.id for v in g.vertices}) < len(g.vertices)
        if all(v.kind in (MERGE, SPLIT) and 0 <= v.angle < 1 for v in g.vertices):
            try:
                h = parse(serialize(g))
            except ParseError:  # a slot name the text format rejects
                continue
            assert h == g and validate(h).violations == violations
            parsed += 1
    assert 500 < faulty < 1500 and parsed > 300 and shared > 100


def test_every_algorithm_raises_the_first_violation_of_an_invalid_graph():
    # complexity, is_calabi, euler_genus, cut and harmonize read only graphs
    # that validate accepts: each raises ValueError with the report's first
    # violation exactly when validate rejects the graph, whatever fault it
    # would meet first.  Each call gets its own copy of the graph, so its
    # gate builds the report itself.
    rng = random.Random(1619)
    rejected = 0
    for _ in range(1500):
        g = _malformed(rng, random_valid_graph(rng, max_pairs=rng.choice((1, 2, 4))))
        report = validate(g)
        level = complexity(FoliationGraph(g.name, g.vertices, g.edges))[1] if report.ok else Fraction(1, 3)
        for algorithm in (complexity, is_calabi, euler_genus, lambda h: cut(h, level), harmonize):
            try:
                algorithm(FoliationGraph(g.name, g.vertices, g.edges))
            except StuckError:
                assert report.ok
            except ValueError as exc:
                assert not report.ok and str(exc) == report.violations[0], (g, exc)
            else:
                assert report.ok, (g, algorithm)
        rejected += not report.ok
    assert 1000 < rejected < 1500


def test_equality_compares_what_the_objects_compare():
    # Equality reads the tables; it must agree with comparing (name,
    # vertices, edges), and equal graphs hash alike, also when the tables
    # carry names no vertex or slot has.
    rng = random.Random(1617)
    equal = 0
    for _ in range(600):
        g = random_valid_graph(rng, max_pairs=rng.choice((1, 2, 3)))
        a, b = _malformed(random.Random(rng.random()), g), _malformed(random.Random(rng.random()), g)
        for h in (a, b, FoliationGraph(a.name, a.vertices, a.edges)):
            same = (a.name, a.vertices, a.edges) == (h.name, h.vertices, h.edges)
            assert (a == h) == same and (a != h) != same
            if same:
                assert hash(a) == hash(h)
        equal += a == b
    assert 0 < equal < 300


def test_equal_graphs_hash_alike_whatever_type_their_angles_have():
    # Angles given as text or as floats are the same numbers as the
    # Fractions: the graphs are equal, so they hash alike.
    theta = builtin("theta")
    for angle in (str, float):
        g = FoliationGraph("theta", [Vertex(v.id, v.kind, angle(v.angle)) for v in theta.vertices], theta.edges)
        assert g == theta and validate(g).ok and serialize(g) == serialize(theta)
        assert hash(g) == hash(theta) and len({g, theta}) == 1
    # The hash reads the tables: it builds no vertex or edge objects.
    h = parse(serialize(theta))
    assert hash(h) == hash(theta) and not {"vertices", "edges"} & set(h.__dict__)


def test_records_keep_their_reprs():
    # Reprs are part of the output: these strings are what the recorded
    # output digests hash.
    assert repr(builtin("dumbbell")) == (
        "FoliationGraph(name='dumbbell', vertices=(Vertex(id='m', kind='MERGE', angle=Fraction(3, 4)), "
        "Vertex(id='s', kind='SPLIT', angle=Fraction(1, 4))), edges=("
        "Edge(id='e1', tail=End(vertex='s', slot='out0'), head=End(vertex='m', slot='in0'), winding=0), "
        "Edge(id='e2', tail=End(vertex='s', slot='out1'), head=End(vertex='s', slot='in0'), winding=1), "
        "Edge(id='e3', tail=End(vertex='m', slot='out0'), head=End(vertex='m', slot='in1'), winding=1)))"
    )
    assert repr(is_calabi(builtin("theta"))) == (
        "CalabiCertificate(verdict=True, cycles=(('e0', 'e1'), ('e0', 'e2')), obstruction=None)"
    )
    assert repr(is_calabi(builtin("dumbbell"))) == (
        "CalabiCertificate(verdict=False, cycles=(), "
        "obstruction=Obstruction(source='m', target='s', out_set=('m',)))"
    )
    assert repr(validate(FreeCircle("c", 0))) == (
        "ValidationReport(ok=False, violations=('free circle winding must be >= 1',))"
    )
    assert repr(builtin("free-circle(3)")) == "FreeCircle(name='free-circle(3)', winding=3)"


def test_records_and_graphs_are_frozen():
    dumbbell = builtin("dumbbell")
    certificate = is_calabi(dumbbell)
    records = [
        dumbbell.vertices[0],
        dumbbell.edges[0],
        dumbbell.edges[0].tail,
        FreeCircle("c", 1),
        validate(dumbbell),
        certificate,
        certificate.obstruction,
    ]
    for record in records:
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
    g = parse(serialize(dumbbell))
    for name in ("name", "vertices", "edges", "_ids", "_order", "anything"):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(g, name, None)
        with pytest.raises(AttributeError):
            delattr(g, name)
    # The cached indices still fill in on first read.
    assert g == dumbbell and complexity(g) == complexity(dumbbell) and "_order" in vars(g)


def test_records_replace_and_graphs_rebuild():
    g = builtin("dumbbell")
    v = g.vertices[0]._replace(angle=Fraction(1, 8))
    assert v == Vertex("m", MERGE, Fraction(1, 8)) == ("m", MERGE, Fraction(1, 8))
    assert g.edges[0]._replace(winding=3).winding == 3 and g.edges[0].winding == 0
    assert End("s", "in0") == ("s", "in0") and hash(End("s", "in0")) == hash(("s", "in0"))
    assert CalabiCertificate(True) == CalabiCertificate(True, (), None)
    assert CalabiCertificate(False, obstruction=Obstruction("a", "b", ("a",))).cycles == ()
    assert ValidationReport(True, ())._replace(ok=False) == (False, ())
    h = FoliationGraph(g.name, g.vertices, g.edges)
    assert h == g and hash(h) == hash(g) and repr(h) == repr(g)
    renamed = FoliationGraph("other", g.vertices, g.edges)
    assert renamed != g and renamed.vertices == g.vertices
    # Copies and pickles restore the instance dict without assigning.
    complexity(g)
    for twin in (copy.copy(g), copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert twin == g and hash(twin) == hash(g) and repr(twin) == repr(g)


def test_validate_reports_angles_outside_the_circle():
    # The range test is exact, also for angles a float cannot hold, and
    # building a graph with such an angle, or an infinite or nan float,
    # leaves the report to validate.
    th = builtin("theta")
    tiny, huge = Fraction(1, 10**400), Fraction(10**400)
    for angles, violations in (
        ((Fraction(1), Fraction(1, 4)), ("vertex m: angle 1 outside [0, 1)",)),
        ((Fraction(1, 2), -tiny), (f"vertex s: angle {-tiny} outside [0, 1)",)),
        (
            (Fraction(5, 4), Fraction(-1, 3)),
            ("vertex m: angle 5/4 outside [0, 1)", "vertex s: angle -1/3 outside [0, 1)"),
        ),
        ((1 - tiny, Fraction(0)), ()),
        ((huge, Fraction(1, 4)), (f"vertex m: angle {huge} outside [0, 1)",)),
        ((Fraction(1, 2), -huge), (f"vertex s: angle {-huge} outside [0, 1)",)),
        (
            (math.inf, math.inf),
            (
                "vertex m: angle inf outside [0, 1)",
                "vertex s: angle inf outside [0, 1)",
                "vertex angles not pairwise distinct (critical values must differ)",
            ),
        ),
        ((math.nan, -math.inf), ("vertex m: angle nan outside [0, 1)", "vertex s: angle -inf outside [0, 1)")),
    ):
        g = _graph([Vertex("m", MERGE, angles[0]), Vertex("s", SPLIT, angles[1])], th.edges)
        assert validate(g).violations == violations


def test_crossing_counts():
    db, th = builtin("dumbbell"), builtin("theta")
    assert _level_count(db, Fraction(0)) == oracle_crossing_count(db, Fraction(0)) == 2
    assert _level_count(db, Fraction(1, 2)) == oracle_crossing_count(db, Fraction(1, 2)) == 3
    assert _level_count(th, Fraction(0)) == oracle_crossing_count(th, Fraction(0)) == 1
    with pytest.raises(ValueError):
        _level_count(th, Fraction(1, 4))


def test_crossing_count_matches_angle_arithmetic_oracle():
    # Every regular level, levels below the lowest and above the highest
    # critical value, and random rational levels, some outside [0, 1).
    rng = random.Random(31)
    loops = 0
    for _ in range(200):
        g = random_valid_graph(rng, max_pairs=rng.choice((1, 3, 6, 10)))
        angles = sorted(v.angle for v in g.vertices)
        levels = regular_levels(g) + [angles[0] / 2, (angles[-1] + 1) / 2]
        levels += [Fraction(rng.randrange(-2000, 3000), 997) for _ in range(20)]
        for a in levels:
            if a - (a.numerator // a.denominator) not in angles:
                assert _level_count(g, a) == oracle_crossing_count(g, a), (g, a)
        loops += sum(e.tail.vertex == e.head.vertex for e in g.edges)
    assert loops


def test_complexity_values():
    assert complexity(builtin("dumbbell")) == (2, Fraction(0))
    assert complexity(builtin("theta")) == (1, Fraction(0))
    assert complexity(builtin("free-circle(3)")) == (3, 0)


def _two_thetas(angles):
    """Two thetas in a ring, critical values SPLIT, MERGE, SPLIT, MERGE at
    ``angles``: the gap above the first MERGE and the wrap-around gap above
    the last both cross one strand, the other two gaps cross two."""
    kinds = (SPLIT, MERGE, SPLIT, MERGE)
    vertices = tuple(Vertex(f"v{i}", k, a) for i, (k, a) in enumerate(zip(kinds, angles)))
    edges = (
        Edge("e0", End("v0", "out0"), End("v1", "in0"), 0),
        Edge("e1", End("v0", "out1"), End("v1", "in1"), 0),
        Edge("e2", End("v1", "out0"), End("v2", "in0"), 0),
        Edge("e3", End("v2", "out0"), End("v3", "in0"), 0),
        Edge("e4", End("v2", "out1"), End("v3", "in1"), 0),
        Edge("e5", End("v3", "out0"), End("v0", "in0"), 0),
    )
    return FoliationGraph("two-thetas", vertices, edges)


@pytest.mark.parametrize(
    "angles, witness",
    [
        # 3/8 + 7/8 >= 1: the wrap-around midpoint turns to 1/8, below 9/16.
        ((Fraction(3, 8), Fraction(1, 2), Fraction(5, 8), Fraction(7, 8)), Fraction(1, 8)),
        # 1/8 + 1/2 < 1: the wrap-around midpoint 13/16 stays above 5/16.
        ((Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)), Fraction(5, 16)),
    ],
)
def test_complexity_witness_breaks_wraparound_tie(angles, witness):
    g = _two_thetas(angles)
    assert validate(g).ok
    assert complexity(g) == (1, witness)
    assert complexity(g) == min((oracle_crossing_count(g, a), a) for a in regular_levels(g))


def test_sweep_keeps_the_gap_of_its_witness():
    # harmonize cuts at the sweep's witness gap without looking the witness
    # up, and picks another level from the sweep's counts without
    # recounting: gap k's count is ``counts[k - 1]``, and level a lies in
    # gap ``_gap(a)``.
    rng = random.Random(2026_11)
    graphs = [_two_thetas(angles) for angles in (
        (Fraction(3, 8), Fraction(1, 2), Fraction(5, 8), Fraction(7, 8)),
        (Fraction(1, 8), Fraction(1, 4), Fraction(3, 8), Fraction(1, 2)),
    )]
    graphs += [builtin("dumbbell"), builtin("theta")] + [random_valid_graph(rng, max_pairs=8) for _ in range(200)]
    for g in graphs:
        best, witness, gap, counts = g._sweep
        assert (best, witness) == complexity(g)
        assert gap == g._gap(witness, "witness")[1]
        assert counts[gap - 1] == best
        for a in regular_levels(g):
            assert counts[g._gap(a, "level")[1] - 1] == oracle_crossing_count(g, a)


def test_angles_closer_than_a_float_keep_their_exact_order():
    # Floats that tie fall back to the exact angles, in the sort, in the
    # distinctness check and in the gaps a level falls into.
    eps = Fraction(1, 10**30)
    a, b = Fraction(1, 3), Fraction(2, 3)
    for angles in ((a, a + eps, b, b + eps), (a + eps, a, b + eps, b), (a, b, a + eps, b + eps)):
        g = _two_thetas(angles)
        assert float(a) == float(a + eps)
        assert validate(g).ok and parse(serialize(g)) == g
        assert complexity(g) == min((oracle_crossing_count(g, x), x) for x in regular_levels(g))
        assert [g.vertices[v].angle for v in g._order] == sorted(angles)
    twins = _two_thetas((a, a, b, b + eps))
    assert validate(twins).violations == ("vertex angles not pairwise distinct (critical values must differ)",)


def test_complexity_is_computed_once_per_graph():
    g = random_valid_graph(random.Random(5), n_pairs=6)
    assert complexity(g) is complexity(g)


def test_is_calabi_certificates():
    th = builtin("theta")
    cert = is_calabi(th)
    assert cert.verdict
    covered = {e for cyc in cert.cycles for e in cyc}
    assert covered == {"e0", "e1", "e2"}
    assert set(cert.cycles) == {("e0", "e1"), ("e0", "e2")}

    db = builtin("dumbbell")
    cert = is_calabi(db)
    assert not cert.verdict
    assert cert.obstruction.source == "m"
    assert cert.obstruction.target == "s"
    assert cert.obstruction.out_set == ("m",)
    # The out-set is closed: no edge leaves it.
    outset = set(cert.obstruction.out_set)
    assert all(e.head.vertex in outset for e in db.edges if e.tail.vertex in outset)


def test_euler_genus():
    assert euler_genus(builtin("theta")) == (-2, 2)
    assert euler_genus(builtin("free-circle(5)")) == (0, 1)


def test_lemma_equivalence_exhaustive_small():
    for n_verts in (2, 4):
        for g in exhaustive_valid_graphs(n_verts):
            strong = oracle_strongly_connected(g)
            assert is_calabi(g).verdict == strong
            assert strong == oracle_every_edge_on_cycle(g)
            assert strong == oracle_all_pairs_positive_path(g)


def test_exhaustive_graphs_do_not_depend_on_the_hash_seed():
    # Each isomorphism class keeps the first key found for it; which key is
    # first must not follow set order, which PYTHONHASHSEED changes.
    tests = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(os.path.dirname(tests), "src"), tests])
    script = (
        "from foliagraph import serialize\n"
        "from graphgen import exhaustive_valid_graphs\n"
        "print(''.join(serialize(g) for n in (4, 6) for g in exhaustive_valid_graphs(n)))\n"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        for seed in ("0", "1")
    ]
    assert runs[0] == runs[1] and runs[0].count("graph ") == 17 + 199


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_lemma_equivalence_random(seed):
    g = random_valid_graph(random.Random(seed), max_pairs=5)
    strong = oracle_strongly_connected(g)
    assert is_calabi(g).verdict == strong
    assert strong == oracle_every_edge_on_cycle(g)
    assert strong == oracle_all_pairs_positive_path(g)


def test_oracles_do_not_read_the_graph_indices():
    # The oracles judge the tables and indices that ``is_calabi``,
    # ``complexity`` and ``validate`` read, so they must build their own
    # maps from ``vertices`` and ``edges``: once those are built, scrambling
    # every table and emptying the adjacency lists of a graph changes no
    # oracle's answer.
    rng = random.Random(41)
    for _ in range(40):
        g = random_valid_graph(rng, max_pairs=rng.choice((2, 4, 6)))
        clean = FoliationGraph(g.name, g.vertices, g.edges)
        levels = regular_levels(clean)
        assert g.vertices and g.edges
        tables = ("_ids", "_kinds", "_num", "_den", "_angle", "_eids", "_tail", "_head", "_winding")
        for table in tables + ("_order", "_rank"):
            g.__dict__[table] = getattr(g, table)[::-1]
        g.__dict__["_succ"] = g.__dict__["_pred"] = ([], [0] * (len(g._ids) + 1))
        for oracle in (oracle_strongly_connected, oracle_every_edge_on_cycle, oracle_all_pairs_positive_path):
            assert oracle(g) == oracle(clean)
        assert [oracle_crossing_count(g, a) for a in levels] == [oracle_crossing_count(clean, a) for a in levels]


def _crossing_profile_steps(g):
    """Pairs (vertex kind, count delta) across each critical angle."""
    import bisect

    levels = regular_levels(g)
    counts = [oracle_crossing_count(g, a) for a in levels]
    steps = []
    for v in g.vertices:
        i = bisect.bisect_left(levels, v.angle)
        # levels[i % n] is the first sample above the angle, levels[i - 1]
        # the last one below (cyclically).
        delta = counts[i % len(levels)] - counts[i - 1]
        steps.append((v.kind, delta))
    return steps


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_complexity_is_minimum_over_levels(seed):
    rng = random.Random(seed)
    g = random_valid_graph(rng, max_pairs=4)
    value, witness = complexity(g)
    assert oracle_crossing_count(g, witness) == value
    angles = {v.angle for v in g.vertices}
    for _ in range(30):
        a = Fraction(rng.randrange(0, 1009), 1009)
        if a not in angles:
            assert oracle_crossing_count(g, a) >= value


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_crossing_steps_and_structural_laws(seed):
    g = random_valid_graph(random.Random(seed), max_pairs=5)
    for kind, delta in _crossing_profile_steps(g):
        assert delta == (1 if kind == SPLIT else -1)
    value, witness = complexity(g)
    assert value >= 1
    assert g.merge_count() == g.split_count()
    assert 2 * len(g.edges) == 3 * len(g.vertices)
    chi, genus = euler_genus(g)
    assert chi == -len(g.vertices)
    assert genus == (len(g.vertices) + 2) // 2 == len(g.edges) - len(g.vertices) + 1


def _check_certificate(g, cert):
    """Check a Calabi certificate from its definition alone."""
    edges = {e.id: e for e in g.edges}
    if cert.verdict:
        assert len(cert.cycles) <= len(g.edges)
        for cycle in cert.cycles:
            assert 1 <= len(cycle) <= 2 * len(g.vertices) - 1
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                assert edges[a].head.vertex == edges[b].tail.vertex, (cycle, a, b)
        assert {e for cycle in cert.cycles for e in cycle} == set(edges)
    else:
        ob = cert.obstruction
        out = set(ob.out_set)
        assert ob.source in out
        assert ob.target not in out and ob.target in {v.id for v in g.vertices}
        assert all(e.head.vertex in out for e in g.edges if e.tail.vertex in out)


def test_certificates_check_independently():
    # Closed positive walks covering every edge prove strong connectivity;
    # a closed out-set missing a vertex disproves it.
    rng = random.Random(2026)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 100:
        g = random_valid_graph(rng, max_pairs=rng.choice((2, 4, 8)))
        cert = is_calabi(g)
        _check_certificate(g, cert)
        seen[cert.verdict] += 1
    assert sum(seen.values()) >= 200


def test_certificate_walks_equal_the_one_walk_per_edge_oracle():
    # Same walks in the same order as building one walk per edge and
    # dropping repeats, and exactly E - V + 1 of them: the genus.  Every
    # Calabi graph of up to 6 vertices, and 300 random ones of up to 64,
    # each also with its vertex ids and its edge ids shuffled: the
    # generators give the root's out-edge the smallest edge id, so only
    # shuffled ids make a walk start anywhere else.  Each shuffle is seeded
    # by the graph's text, so it does not depend on the graphs' order.
    def shuffled(g):
        rng = random.Random(serialize(g))
        vids, eids = [v.id for v in g.vertices], [e.id for e in g.edges]
        v_to = dict(zip(vids, rng.sample(vids, len(vids))))
        e_to = dict(zip(eids, rng.sample(eids, len(eids))))
        return FoliationGraph(
            g.name,
            [Vertex(v_to[v.id], v.kind, v.angle) for v in g.vertices],
            [Edge(e_to[e.id], End(v_to[e.tail.vertex], e.tail.slot), End(v_to[e.head.vertex], e.head.slot), e.winding) for e in g.edges],
        )

    def check(g):
        if not is_calabi(g).verdict:
            return False
        for h in (g, shuffled(g)):
            cycles = is_calabi(h).cycles
            assert cycles == oracle_root_walks(h), serialize(h)
            assert len(cycles) == len(h.edges) - len(h.vertices) + 1 == euler_genus(h)[1]
        return True

    assert sum(check(g) for n_verts in (2, 4, 6) for g in exhaustive_valid_graphs(n_verts)) == 39
    rng = random.Random(2026_18)
    checked = 0
    while checked < 300:
        checked += check(random_valid_graph(rng, n_pairs=rng.randint(1, 32)))


def test_complexity_matches_level_by_level_reference():
    rng = random.Random(77)
    wound = wrapping = 0
    for _ in range(200):
        g = random_valid_graph(rng, max_pairs=rng.choice((1, 3, 6, 10)))
        assert complexity(g) == min((oracle_crossing_count(g, a), a) for a in regular_levels(g))
        wound += sum(e.winding > 0 for e in g.edges)
        angle = {v.id: v.angle for v in g.vertices}
        wrapping += sum(angle[e.head.vertex] < angle[e.tail.vertex] for e in g.edges)
    # The sample exercises both terms of the count below the lowest level.
    assert wound and wrapping
