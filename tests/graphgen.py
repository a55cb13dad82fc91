"""Graph generators and brute-force oracles shared by the test suite.

The oracles deliberately use different algorithms from the package
(explicit path enumeration, minor-determinant rank) so that agreement is
meaningful.
"""

from __future__ import annotations

import itertools
import os
import random
from fractions import Fraction
from operator import attrgetter

from foliagraph import (
    MERGE,
    SPLIT,
    CutGraph,
    Edge,
    End,
    Event,
    FoliationGraph,
    NotSortableError,
    Vertex,
    builtin,
    complexity,
    contiguous,
    cut,
    is_calabi,
    reglue,
    sort_events,
    validate,
)

# A valid non-Calabi graph on which no level has more strands than merges,
# so no single-level cut sorts: ``harmonize`` raises StuckError on it.
DEAD_END_V6 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "dead_end_v6.graph")

# The builtin dumbbell with loop e2 at winding 10**20: valid, but its cut
# levels hold more strands than a list can index.
HUGE_WINDING = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "huge_winding.graph")


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


def regular_levels(g: FoliationGraph) -> list[Fraction]:
    """One regular sample angle per interval between consecutive critical
    values, in increasing order: the circular midpoints, from the vertex
    angles alone."""
    angles = sorted(v.angle for v in g.vertices)
    wrap = (angles[-1] + angles[0] + 1) / 2
    return sorted([(a + b) / 2 for a, b in zip(angles, angles[1:])] + [wrap % 1])


def random_non_calabi_graph(rng: random.Random, max_pairs: int = 6) -> FoliationGraph:
    for _ in range(10000):
        g = random_valid_graph(rng, max_pairs=max_pairs)
        if not is_calabi(g).verdict:
            return g
    raise AssertionError("could not find a non-Calabi graph")


def random_reusing_word(rng: random.Random, n_ids: int = 8) -> CutGraph:
    """A valid cut whose strand ids come from a pool of ``n_ids``, so that
    events re-emit ids consumed below them; ``cut`` gives every segment
    its own id, so its words never do."""
    while True:
        bottom = rng.sample(range(n_ids), rng.randint(1, 4))
        live, events = list(bottom), []
        for _ in range(rng.randint(0, 12)):
            if len(live) >= 2 and rng.random() < 0.5:
                a, b = rng.sample(live, 2)
                out = rng.choice([s for s in range(n_ids) if s not in live] + [a, b])
                live = [s for s in live if s not in (a, b)] + [out]
                events.append(Event(MERGE, (a, b), (out,)))
            else:
                x = rng.choice(live)
                free = [s for s in range(n_ids) if s not in live or s == x]
                if len(free) >= 2:
                    outs = tuple(rng.sample(free, 2))
                    live = [s for s in live if s != x] + list(outs)
                    events.append(Event(SPLIT, (x,), outs))
        if len(live) == len(bottom):
            # Both boundaries shuffled: ``top[i]`` continues into ``bottom[i]``.
            top = rng.sample(live, len(live))
            return CutGraph(tuple(rng.sample(bottom, len(bottom))), tuple(top), tuple(events), "word")


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
        # Sorted, so that each class's representative is the same in every run.
        for key in sorted(_multigraph_keys(n_pairs)):
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


def _successors(g: FoliationGraph) -> dict[str, list[str]]:
    """Each vertex's edge heads, read from ``g.vertices`` and ``g.edges``
    and not from the graph's own indices, which the oracles judge."""
    succ: dict[str, list[str]] = {v.id: [] for v in g.vertices}
    for e in g.edges:
        succ[e.tail.vertex].append(e.head.vertex)
    return succ


def enum_reachable(g: FoliationGraph, x: str) -> set[str]:
    """Endpoints of all simple positive paths out of x (plus x itself),
    by explicit path enumeration."""
    succ = _successors(g)
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

    angle = {v.id: v.angle for v in g.vertices}
    count = 0
    for e in g.edges:
        t, h = angle[e.tail.vertex], angle[e.head.vertex]
        count += e.winding + (0 < turn(a - t) < turn(h - t))
    return count


def oracle_cut_level(g: FoliationGraph) -> Fraction:
    """The level ``harmonize``'s rule cuts ``g`` at, by angle arithmetic:
    with c the least crossing count over ``regular_levels`` and m the
    merges, the complexity witness if more than m strands cross it;
    otherwise the level with the fewest strands k such that m < k < c + m,
    ties going to the lowest gap (gap 0 lies above the highest angle and
    below the lowest, gap i just below the i-th lowest); the witness if no
    level qualifies."""
    m, witness = sum(v.kind == MERGE for v in g.vertices), complexity(g)[1]
    if oracle_crossing_count(g, witness) > m:
        return witness
    levels = regular_levels(g)
    counts = [oracle_crossing_count(g, a) for a in levels]
    c, angles = min(counts), [v.angle for v in g.vertices]
    fits = [(k, sum(x < a for x in angles) % len(angles), a) for a, k in zip(levels, counts) if m < k < c + m]
    return min(fits)[2] if fits else witness


def oracle_end_faults(g: FoliationGraph) -> list[str]:
    """The slot and winding messages of ``validate``, by counting each
    (vertex id, slot) pair's edge ends on the objects."""
    kind = {v.id: v.kind for v in g.vertices}
    legal = {"out": {MERGE: ("out0",), SPLIT: ("out0", "out1")}, "in": {MERGE: ("in0", "in1"), SPLIT: ("in0",)}}
    bad, uses = [], {}
    for e in g.edges:
        for end, direction in ((e.tail, "out"), (e.head, "in")):
            if end.vertex not in kind:
                # A loop names its unknown vertex once.
                if direction == "out" or e.tail.vertex != e.head.vertex:
                    bad.append(f"edge {e.id}: unknown vertex {end.vertex}")
            elif end.slot not in legal[direction].get(kind[end.vertex], ()):
                bad.append(
                    f"edge {e.id}: slot {end.vertex}.{end.slot} not an {direction}-slot of a {kind[end.vertex]} vertex"
                )
            else:
                uses[(end.vertex, end.slot)] = uses.get((end.vertex, end.slot), 0) + 1
        if type(e.winding) is not int:
            bad.append(f"edge {e.id}: winding {e.winding!r} is not an int")
            continue
        if e.winding < 0:
            bad.append(f"edge {e.id}: negative winding")
        if e.tail.vertex == e.head.vertex and e.winding < 1:
            bad.append(f"edge {e.id}: loop needs winding >= 1")
    for v in g.vertices:
        for slot in legal["in"].get(v.kind, ()) + legal["out"].get(v.kind, ()):
            n = uses.get((v.id, slot), 0)
            if n != 1:
                bad.append(f"vertex {v.id}: slot {slot} " + ("unused" if n == 0 else f"reused ({n} edge ends)"))
    return bad


def oracle_root_walks(g: FoliationGraph) -> tuple[tuple[str, ...], ...]:
    """The Calabi certificate's walks by their first construction: per
    edge, in edge order, the forward breadth-first tree path from the root
    (the smallest vertex id) to its tail, the edge, and the reverse tree
    path from its head back to the root, rotated to start at its smallest
    edge id; repeats dropped with ``dict.fromkeys``.  The searches visit
    out- and in-edges in edge order, read from ``g.vertices`` and
    ``g.edges``."""
    ids = sorted(v.id for v in g.vertices)
    out: dict[str, list[Edge]] = {v: [] for v in ids}
    inc: dict[str, list[Edge]] = {v: [] for v in ids}
    for e in g.edges:
        out[e.tail.vertex].append(e)
        inc[e.head.vertex].append(e)

    def tree(adjacent: dict[str, list[Edge]], far) -> dict[str, Edge | None]:
        via: dict[str, Edge | None] = {ids[0]: None}
        queue = [ids[0]]
        for v in queue:
            for e in adjacent[v]:
                w = far(e).vertex
                if w not in via:
                    via[w] = e
                    queue.append(w)
        return via

    down = tree(out, lambda e: e.head)
    up = tree(inc, lambda e: e.tail)

    def into(v: str) -> list[str]:
        path = []
        while down[v] is not None:
            path.append(down[v].id)
            v = down[v].tail.vertex
        return path[::-1]

    def back(v: str) -> list[str]:
        path = []
        while up[v] is not None:
            path.append(up[v].id)
            v = up[v].head.vertex
        return path

    walks = []
    for e in g.edges:
        walk = tuple(into(e.tail.vertex) + [e.id] + back(e.head.vertex))
        k = walk.index(min(walk))
        walks.append(walk[k:] + walk[:k])
    return tuple(dict.fromkeys(walks))


_handed = attrgetter("_order", "_rank", "_succ", "_sweep")  # what ``reglue`` hands its graph


def check_trace(g: FoliationGraph, result, trace) -> list[str]:
    """The faults of ``trace`` as the certificate of ``harmonize(g)``, whose
    result is ``result``, or None for a run that raised StuckError.  By the
    oracles above and the public checked calls, on graphs rebuilt from
    their records: the chain of graphs from ``g`` to ``result``, each valid
    and keeping the saddle counts; the recorded complexities, each the
    count at its witness, falling strictly; each cut angle, the rule's
    regular level, with m < k < c + m strands for m merges; each word and
    rewrite count, as ``sort_events`` of ``cut`` gives them; each
    ``graph_after``, as ``reglue`` gives it, equal to its rebuilt graph and
    holding the indices that graph derives; and the result's walks,
    ``oracle_root_walks``'s, closed, positive and covering every edge, or,
    for a stuck run, a non-Calabi graph with no level of more than m
    strands.  A broken chain or an invalid graph is reported alone.  Only
    ``oracle_cut_level`` at a witness that jams and a stuck run scan every
    level.
    """
    steps = trace.steps
    graphs = [g, *(s.graph_after for s in steps)]
    faults = [f"step {i}: graph_before is not the graph before it" for i, s in enumerate(steps) if s.graph_before != graphs[i]]
    if result is not None and result != graphs[-1]:
        faults.append("the result is not the last graph of the chain")
    faults += [f"step {i}: graph_after is invalid: {validate(h).violations}" for i, h in enumerate(graphs[1:]) if not validate(h).ok]
    if faults:
        return faults

    rebuilt = [FoliationGraph(h.name, h.vertices, h.edges) for h in graphs]
    counts = [complexity(h) for h in rebuilt]
    m = g.merge_count()
    for i, (h, (c, witness)) in enumerate(zip(rebuilt, counts)):
        if oracle_crossing_count(h, witness) != c:
            faults.append(f"graph {i}: complexity {c} is not the strand count at its witness {witness}")
        if not contiguous(g, h):
            faults.append(f"graph {i}: merge and split counts differ from the input's")
    if len(steps) > counts[0][0]:
        faults.append(f"{len(steps)} steps, more than the input's complexity {counts[0][0]}")

    for i, s in enumerate(steps):
        before, a, c, after = rebuilt[i], s.cut_angle, counts[i][0], counts[i + 1][0]
        if (s.complexity_before, s.complexity_after) != (c, after):
            faults.append(f"step {i}: records complexity {s.complexity_before} -> {s.complexity_after}, not {c} -> {after}")
        if after >= c:
            faults.append(f"step {i}: complexity {c} -> {after} does not fall")
        if a not in regular_levels(before):
            faults.append(f"step {i}: cut angle {a} is not a regular level")
            continue
        k, want = oracle_crossing_count(before, a), oracle_cut_level(before)
        if not m < k < c + m:
            faults.append(f"step {i}: cut angle {a} has {k} strands, {m} merges and complexity {c}")
        if a != want:
            faults.append(f"step {i}: cut angle {a} is not the rule's level {want}")
        try:
            sorted_cut, rewrites = sort_events(cut(before, a))
        except NotSortableError as exc:
            faults.append(f"step {i}: the cut at {a} does not sort: {exc}")
            continue
        if (sorted_cut.events, rewrites) != (s.word, s.rewrites):
            faults.append(f"step {i}: the word and rewrites differ from sort_events' ({rewrites} rewrites)")
        if reglue(sorted_cut) != s.graph_after:
            faults.append(f"step {i}: graph_after is not reglue of the sorted cut")
        if s.graph_after != rebuilt[i + 1] or _handed(s.graph_after) != _handed(rebuilt[i + 1]):
            faults.append(f"step {i}: graph_after or its handed order, rank, out-edges or sweep differs from its rebuilt graph's")

    if result is None:
        k = max(oracle_crossing_count(rebuilt[-1], a) for a in regular_levels(rebuilt[-1]))
        if k > m:
            faults.append(f"the run stopped at a graph with a level of {k} strands, more than its {m} merges")
        if is_calabi(rebuilt[-1]).verdict:
            faults.append("the run stopped at a Calabi graph")
        return faults
    cert = is_calabi(result)
    if not cert.verdict:
        return faults + ["the result is not Calabi"]
    walks = cert.cycles
    if walks != oracle_root_walks(result):
        faults.append("the result's walks differ from oracle_root_walks")
    edges = {e.id: e for e in result.edges}
    if any(edges[x].head.vertex != edges[y].tail.vertex for w in walks for x, y in zip(w, w[1:] + w[:1])):
        faults.append("a walk of the result is not a closed positive walk")
    if {x for w in walks for x in w} != set(edges):
        faults.append("the result's walks miss an edge")
    return faults


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
    successors = _successors(g)
    for x in ids:
        reach = enum_reachable(g, x)
        for y in ids:
            if x == y:
                # Needs a closed positive path: some successor reaches back.
                succ = set(successors[x])
                if x in succ:
                    continue
                if not any(x in enum_reachable(g, w) for w in succ):
                    return False
            elif y not in reach:
                return False
    return True
