"""Graph generators and brute-force oracles shared by the test suite.

The oracles deliberately use different algorithms from the package
(explicit path enumeration, minor-determinant rank) so that agreement is
meaningful.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from foliagraph import MERGE, SPLIT, Edge, End, FoliationGraph, Vertex, builtin, is_calabi, validate


def _stubs(n_pairs: int):
    merges = [f"m{i}" for i in range(n_pairs)]
    splits = [f"s{i}" for i in range(n_pairs)]
    outs = [(m, "out0") for m in merges] + [(s, sl) for s in splits for sl in ("out0", "out1")]
    ins = [(m, sl) for m in merges for sl in ("in0", "in1")] + [(s, "in0") for s in splits]
    return merges, splits, outs, ins


def _connected(pairs: list[tuple[str, str]], vids: list[str]) -> bool:
    parent = {v: v for v in vids}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    return len({find(v) for v in vids}) == 1


def from_matching(
    name: str,
    n_pairs: int,
    matching: tuple[int, ...],
    angles: list[Fraction],
    loop_winding: int = 1,
    windings: list[int] | None = None,
) -> FoliationGraph:
    """Graph from a bijection of out-stubs onto in-stubs."""
    merges, splits, outs, ins = _stubs(n_pairs)
    order = merges + splits
    vertices = tuple(
        Vertex(v, MERGE if v.startswith("m") else SPLIT, a) for v, a in zip(order, angles)
    )
    edges = []
    for i, j in enumerate(matching):
        t, h = outs[i], ins[j]
        if windings is not None:
            w = windings[i]
        else:
            w = loop_winding if t[0] == h[0] else 0
        edges.append(Edge(f"e{i}", End(*t), End(*h), w))
    return FoliationGraph(name, vertices, tuple(edges))


def canonical_angles(n_verts: int) -> list[Fraction]:
    return [Fraction(j + 1, n_verts + 2) for j in range(n_verts)]


def random_valid_graph(rng: random.Random, n_pairs: int | None = None, max_pairs: int = 6) -> FoliationGraph:
    """A uniformly scrambled valid graph: random stub matching (redrawn
    until connected), random distinct angles, random small windings."""
    if n_pairs is None:
        n_pairs = rng.randint(1, max_pairs)
    merges, splits, outs, ins = _stubs(n_pairs)
    n_stubs = 3 * n_pairs
    while True:
        matching = list(range(n_stubs))
        rng.shuffle(matching)
        pairs = [(outs[i][0], ins[matching[i]][0]) for i in range(n_stubs)]
        if _connected(pairs, merges + splits):
            break
    n_verts = 2 * n_pairs
    denom = 8 * n_verts + 1
    angles = [Fraction(k, denom) for k in rng.sample(range(denom), n_verts)]
    windings = [
        rng.randint(1, 2) if outs[i][0] == ins[matching[i]][0] else rng.randint(0, 2)
        for i in range(n_stubs)
    ]
    g = from_matching("random", n_pairs, tuple(matching), angles, windings=windings)
    report = validate(g)
    assert report.ok, report.violations
    return g


def random_non_calabi_graph(rng: random.Random, max_pairs: int = 6) -> FoliationGraph:
    for _ in range(10000):
        g = random_valid_graph(rng, max_pairs=max_pairs)
        if not is_calabi(g).verdict:
            return g
    raise AssertionError("could not find a non-Calabi graph")


# -- reduction checks ------------------------------------------------------


def reglue_rotates(g: FoliationGraph, a: Fraction, g2) -> bool:
    """Whether ``g2 = reglue(cut(g, a))`` is ``g`` under the rotation map
    ``v{i}`` -> the vertex of ``g`` at position ``(gap + i) mod V`` in
    angle order, where ``gap`` counts the vertices below the level ``a``.

    Every vertex kind must match, and so must the multiset of edge
    five-tuples (tail, tail slot, head, head slot, winding): stronger than
    isomorphism, which ignores slots and windings, and O(V + E) after the
    sorts.
    """
    if not isinstance(g2, FoliationGraph):
        return False
    order = sorted(g.vertices, key=lambda v: v.angle)
    n, level = len(order), a % 1
    gap = sum(v.angle < level for v in order)
    rename = {f"v{i}": order[(gap + i) % n].id for i in range(n)}
    kinds = {v.id: v.kind for v in g.vertices}
    if len(g2.vertices) != n or {rename.get(v.id): v.kind for v in g2.vertices} != kinds:
        return False

    def five_tuples(edges, name):
        return sorted((name[e.tail.vertex], e.tail.slot, name[e.head.vertex], e.head.slot, e.winding) for e in edges)

    return five_tuples(g2.edges, rename) == five_tuples(g.edges, {vid: vid for vid in kinds})


def is_theta(g) -> bool:
    """Whether ``g`` is theta as a directed multigraph with vertex kinds.

    With one MERGE and one SPLIT a vertex's kind names it, so the vertex
    kinds and the multiset of (tail kind, head kind) over the edges fix
    the graph."""

    def shape(g):
        kind = {v.id: v.kind for v in g.vertices}
        return sorted(kind.values()), sorted((kind[e.tail.vertex], kind[e.head.vertex]) for e in g.edges)

    return isinstance(g, FoliationGraph) and shape(g) == shape(builtin("theta"))


def _multigraph_keys(n_pairs: int):
    """All connected directed multigraphs with the right degrees, as
    sorted (tail vid, head vid) edge multisets."""
    merges, splits, outs, _ = _stubs(n_pairs)
    vids = merges + splits
    capacity = {v: 2 if v.startswith("m") else 1 for v in vids}
    owners = [t[0] for t in outs]
    found: set[tuple[tuple[str, str], ...]] = set()

    def assign(i: int, picked: list[str]):
        if i == len(owners):
            key = tuple(sorted(zip(owners, picked)))
            if key not in found and _connected(list(key), vids):
                found.add(key)
            return
        for v in vids:
            if capacity[v]:
                capacity[v] -= 1
                picked.append(v)
                assign(i + 1, picked)
                picked.pop()
                capacity[v] += 1

    assign(0, [])
    return found


def _canonical_class(key: tuple[tuple[str, str], ...], n_pairs: int):
    merges = [f"m{i}" for i in range(n_pairs)]
    splits = [f"s{i}" for i in range(n_pairs)]
    best = None
    for mp in itertools.permutations(range(n_pairs)):
        for sp in itertools.permutations(range(n_pairs)):
            relabel = {f"m{i}": f"m{mp[i]}" for i in range(n_pairs)}
            relabel.update({f"s{i}": f"s{sp[i]}" for i in range(n_pairs)})
            cand = tuple(sorted((relabel[a], relabel[b]) for a, b in key))
            if best is None or cand < best:
                best = cand
    return best


def _graph_from_key(key: tuple[tuple[str, str], ...], n_pairs: int, name: str) -> FoliationGraph:
    # Reconstruct a slot-level matching from the vertex-level multiset.
    merges, splits, outs, ins = _stubs(n_pairs)
    in_slots = {v: list(sl for (w, sl) in ins if w == v) for v in merges + splits}
    out_iter = {v: [i for i, t in enumerate(outs) if t[0] == v] for v in merges + splits}
    matching = [None] * len(outs)
    for tail, head in key:
        i = out_iter[tail].pop(0)
        slot = in_slots[head].pop(0)
        matching[i] = ins.index((head, slot))
    return from_matching(name, n_pairs, tuple(matching), canonical_angles(2 * n_pairs))


_CLASS_CACHE: dict[int, list[FoliationGraph]] = {}


def exhaustive_valid_graphs(n_verts: int) -> list[FoliationGraph]:
    """One valid graph per isomorphism class of connected graphs with the
    given (even) number of vertices, with canonical angles and minimal
    loop windings."""
    n_pairs = n_verts // 2
    if n_pairs not in _CLASS_CACHE:
        classes = {}
        for key in _multigraph_keys(n_pairs):
            classes.setdefault(_canonical_class(key, n_pairs), key)
        graphs = []
        for idx, key in enumerate(sorted(classes.values())):
            g = _graph_from_key(key, n_pairs, f"exh{n_verts}_{idx}")
            report = validate(g)
            assert report.ok, report.violations
            graphs.append(g)
        _CLASS_CACHE[n_pairs] = graphs
    return _CLASS_CACHE[n_pairs]


# -- brute-force oracles ---------------------------------------------------


def enum_reachable(g: FoliationGraph, x: str) -> set[str]:
    """Endpoints of all simple positive paths out of x (plus x itself),
    by explicit path enumeration."""
    succ = {v.id: [e.head.vertex for e in g.out_edges(v.id)] for v in g.vertices}
    reached = {x}

    def extend(path: list[str]):
        for w in succ[path[-1]]:
            if w not in path:
                reached.add(w)
                extend(path + [w])

    extend([x])
    return reached


def oracle_crossing_count(g: FoliationGraph, a: Fraction) -> int:
    """Crossings of the regular level ``a`` by angle arithmetic: an edge
    crosses it ``winding`` times, once more if ``a`` lies strictly inside
    the arc turning up from its tail's angle to its head's."""

    def turn(x: Fraction) -> Fraction:
        return x - (x.numerator // x.denominator)

    count = 0
    for e in g.edges:
        t = g.vertex(e.tail.vertex).angle
        h = g.vertex(e.head.vertex).angle
        count += e.winding + (0 < turn(a - t) < turn(h - t))
    return count


def oracle_strongly_connected(g: FoliationGraph) -> bool:
    ids = [v.id for v in g.vertices]
    return all(enum_reachable(g, x) == set(ids) for x in ids)


def oracle_every_edge_on_cycle(g: FoliationGraph) -> bool:
    for e in g.edges:
        u, v = e.tail.vertex, e.head.vertex
        if u == v:
            continue
        if u not in enum_reachable(g, v):
            return False
    return True


def oracle_all_pairs_positive_path(g: FoliationGraph) -> bool:
    ids = [v.id for v in g.vertices]
    for x in ids:
        reach = enum_reachable(g, x)
        for y in ids:
            if x == y:
                # Needs a closed positive path: some successor reaches back.
                succ = {e.head.vertex for e in g.out_edges(x)}
                if x in succ:
                    continue
                if not any(x in enum_reachable(g, w) for w in succ):
                    return False
            elif y not in reach:
                return False
    return True
