import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliagraph import (
    MERGE,
    SPLIT,
    Edge,
    End,
    FoliationGraph,
    FreeCircle,
    Vertex,
    builtin,
    complexity,
    crossing_count,
    euler_genus,
    is_calabi,
    validate,
)
from foliagraph.graph import regular_levels

from graphgen import (
    exhaustive_valid_graphs,
    oracle_all_pairs_positive_path,
    oracle_crossing_count,
    oracle_every_edge_on_cycle,
    oracle_strongly_connected,
    random_valid_graph,
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


def _graph(vertices, edges):
    return FoliationGraph("t", tuple(vertices), tuple(edges))


def test_validate_reports_all_failures():
    # Two edges into one slot, a parity failure and 2E != 3V at once.
    g = _graph(
        [Vertex("a", MERGE, Fraction(0)), Vertex("b", MERGE, Fraction(1, 2))],
        [
            Edge("e0", End("a", "out0"), End("b", "in0"), 0),
            Edge("e1", End("b", "out0"), End("b", "in0"), 1),
        ],
    )
    report = validate(g)
    assert not report.ok
    text = " ".join(report.violations)
    assert "reused" in text
    assert "#MERGE" in text
    assert "2E" in text


def test_validate_duplicate_angles():
    th = builtin("theta")
    g = _graph(
        [Vertex("s", SPLIT, Fraction(1, 4)), Vertex("m", MERGE, Fraction(1, 4))],
        th.edges,
    )
    assert any("distinct" in v for v in validate(g).violations)


def test_validate_loop_winding():
    db = builtin("dumbbell")
    bad = _graph(db.vertices, [e if e.id != "e2" else Edge("e2", e.tail, e.head, 0) for e in db.edges])
    assert any("loop" in v for v in validate(bad).violations)


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
    assert any("connected" in v for v in validate(_graph(verts, edges)).violations)


def test_validate_rarely_reached_branches():
    # Exact reports, fixed before validate moved onto the shared indices.
    th = builtin("theta")
    e0, e1, e2 = th.edges
    s, m = th.vertex("s"), th.vertex("m")
    dangling = _graph(th.vertices, [Edge("e0", End("z", "out0"), e0.head, 0), e1, e2])
    # An unknown vertex skips the connectivity search.
    assert validate(dangling).violations == (
        "edge e0: unknown vertex z",
        "vertex m: slot out0 unused",
    )
    twin_vertex = _graph(list(th.vertices) + [Vertex("s", MERGE, Fraction(1, 2))], th.edges)
    assert validate(twin_vertex).violations == (
        "duplicate vertex ids",
        "edge e2: slot s.out1 not an out-slot of a MERGE vertex",
        "vertex s: slot out1 unused",
        "vertex s: slot in1 unused",
        "#MERGE = 2 differs from #SPLIT = 1",
        "2E = 6 differs from 3V = 9",
        "underlying graph not connected",
    )
    twin_edge = _graph(th.vertices, list(th.edges) + [e1])
    assert validate(twin_edge).violations == (
        "duplicate edge ids",
        "vertex m: slot in0 reused (2 edge ends)",
        "vertex s: slot out0 reused (2 edge ends)",
        "2E = 8 differs from 3V = 6",
    )
    saddle = _graph([s, Vertex("m", "SADDLE", m.angle)], th.edges)
    assert validate(saddle).violations == (
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
    assert validate(phrase).violations == (
        "vertex s: unknown kind SPLIT unknown vertex",
        "edge e0: slot s.in0 not an in-slot of a SPLIT unknown vertex vertex",
        "edge e1: slot s.out0 not an out-slot of a SPLIT unknown vertex vertex",
        "edge e2: slot s.out1 not an out-slot of a SPLIT unknown vertex vertex",
        "#MERGE = 2 differs from #SPLIT = 1",
        "underlying graph not connected",
    )


def test_crossing_counts():
    db, th = builtin("dumbbell"), builtin("theta")
    assert crossing_count(db, Fraction(0)) == 2
    assert crossing_count(db, Fraction(1, 2)) == 3
    assert crossing_count(th, Fraction(0)) == 1
    with pytest.raises(ValueError):
        crossing_count(th, Fraction(1, 4))


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
                assert crossing_count(g, a) == oracle_crossing_count(g, a), (g, a)
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
    assert complexity(g) == min((crossing_count(g, a), a) for a in regular_levels(g))


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_lemma_equivalence_random(seed):
    g = random_valid_graph(random.Random(seed), max_pairs=5)
    strong = oracle_strongly_connected(g)
    assert is_calabi(g).verdict == strong
    assert strong == oracle_every_edge_on_cycle(g)
    assert strong == oracle_all_pairs_positive_path(g)


def _crossing_profile_steps(g):
    """Pairs (vertex kind, count delta) across each critical angle."""
    import bisect

    levels = regular_levels(g)
    counts = [crossing_count(g, a) for a in levels]
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
    assert crossing_count(g, witness) == value
    angles = {v.angle for v in g.vertices}
    for _ in range(30):
        a = Fraction(rng.randrange(0, 1009), 1009)
        if a not in angles:
            assert crossing_count(g, a) >= value


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


def test_complexity_matches_level_by_level_reference():
    rng = random.Random(77)
    wound = wrapping = 0
    for _ in range(200):
        g = random_valid_graph(rng, max_pairs=rng.choice((1, 3, 6, 10)))
        assert complexity(g) == min((crossing_count(g, a), a) for a in regular_levels(g))
        wound += sum(e.winding > 0 for e in g.edges)
        wrapping += sum(
            g.vertex(e.head.vertex).angle < g.vertex(e.tail.vertex).angle for e in g.edges
        )
    # The sample exercises both terms of the count below the lowest level.
    assert wound and wrapping
