"""Oriented trivalent foliation graphs with a circle-valued height.

A graph models a closed surface carrying a rank-one Morse form with all
leaves compact: vertices are the saddle leaves (MERGE = two leaves flowing
into one, SPLIT = one into two), edges are annuli of regular leaves, the
vertex angle is the critical value on the circle (in turn units), and an
edge's winding counts the extra full turns its annulus makes.  The Calabi
property of the form becomes strong connectivity of the directed graph.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter, deque
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from fractions import Fraction

MERGE = "MERGE"
SPLIT = "SPLIT"

IN_SLOTS = {MERGE: ("in0", "in1"), SPLIT: ("in0",)}
OUT_SLOTS = {MERGE: ("out0",), SPLIT: ("out0", "out1")}


@dataclass(frozen=True)
class Vertex:
    id: str
    kind: str
    angle: Fraction


@dataclass(frozen=True)
class End:
    vertex: str
    slot: str


@dataclass(frozen=True)
class Edge:
    id: str
    tail: End
    head: End
    winding: int


@dataclass(frozen=True)
class FoliationGraph:
    name: str
    vertices: tuple[Vertex, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        # Canonical id order makes equality structural and serialization
        # order-independent; every index below inherits it.
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices, key=lambda v: v.id)))
        object.__setattr__(self, "edges", tuple(sorted(self.edges, key=lambda e: e.id)))

    # Indices and derived values, built on first use; the dataclass is
    # frozen, so they never go stale.  cached_property keeps them out of
    # the compared fields.

    @cached_property
    def _vertex_by_id(self) -> dict[str, Vertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def _succ(self) -> dict[str, list[Edge]]:
        succ: dict[str, list[Edge]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            succ.setdefault(e.tail.vertex, []).append(e)
        return succ

    @cached_property
    def _pred(self) -> dict[str, list[Edge]]:
        pred: dict[str, list[Edge]] = {v.id: [] for v in self.vertices}
        for e in self.edges:
            pred.setdefault(e.head.vertex, []).append(e)
        return pred

    @cached_property
    def _order(self) -> tuple[Vertex, ...]:
        """Vertices by increasing angle: the circular order of the critical
        values.  Gap ``k`` of this order holds the regular levels just below
        ``_order[k]``; gap 0 also holds those above the highest one.
        ``reglue`` seeds it, since it builds its vertices in angle order."""
        return tuple(sorted(self.vertices, key=lambda v: v.angle))

    @cached_property
    def _rank(self) -> dict[str, int]:
        return {v.id: k for k, v in enumerate(self._order)}

    @cached_property
    def _complexity(self) -> tuple[int, Fraction]:
        """The sweep behind ``complexity``: start from the crossing count
        below the lowest critical value (gap 0); crossing a SPLIT adds a
        strand and crossing a MERGE removes one.  Midpoints rise with rank
        but for the last, which wraps, so the witness is the midpoint of
        the first minimizing gap or of the last one."""
        start = sum(self._crossings(e, 0) for e in self.edges)
        counts = list(accumulate((1 if v.kind == SPLIT else -1 for v in self._order), initial=start))[1:]
        best = min(counts)
        return best, min(self._midpoint(k) for k in (counts.index(best), len(counts) - 1) if counts[k] == best)

    def _midpoint(self, k: int) -> Fraction:
        """The circular midpoint of the gap above the critical value of rank ``k``."""
        lo = self._order[k].angle
        hi = self._order[k + 1].angle if k + 1 < len(self._order) else self._order[0].angle + 1
        return _turn((lo + hi) / 2)

    def _gap(self, a: Fraction, noun: str) -> tuple[Fraction, int]:
        """The angle ``a`` turned into [0, 1) and the gap holding it; a
        critical value raises ValueError, naming it as ``noun``."""
        a = _turn(Fraction(a))
        k = bisect_left(self._order, a, key=lambda v: v.angle)
        if k < len(self._order) and self._order[k].angle == a:
            raise ValueError(f"{noun} {a} is a critical value")
        return a, k if k < len(self._order) else 0

    def _crossings(self, e: Edge, gap: int) -> int:
        """How many times edge ``e`` crosses a level in ``gap``: ``winding``
        times, once more if the gap lies on its arc from tail up to head."""
        n, t, h = len(self._order), self._rank[e.tail.vertex], self._rank[e.head.vertex]
        return e.winding + (0 < (gap - t) % n <= (h - t) % n)

    def vertex(self, vid: str) -> Vertex:
        return self._vertex_by_id[vid]

    def merge_count(self) -> int:
        return sum(1 for v in self.vertices if v.kind == MERGE)

    def split_count(self) -> int:
        return sum(1 for v in self.vertices if v.kind == SPLIT)

    def out_edges(self, vid: str) -> list[Edge]:
        return list(self._succ.get(vid, ()))


@dataclass(frozen=True)
class FreeCircle:
    """Vertex-free foliation graph: the height map is a degree-w covering."""

    name: str
    winding: int


Foliation = FoliationGraph | FreeCircle


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[str, ...]


@dataclass(frozen=True)
class Obstruction:
    """Witness that no positive path runs from ``source`` to ``target``.

    ``out_set`` is everything positively reachable from ``source``; by
    construction it has no outgoing edges leaving it.
    """

    source: str
    target: str
    out_set: tuple[str, ...]


@dataclass(frozen=True)
class CalabiCertificate:
    verdict: bool
    cycles: tuple[tuple[str, ...], ...] = ()
    obstruction: Obstruction | None = None


def _turn(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def validate(g: Foliation) -> ValidationReport:
    """Check every structural invariant, reporting all failures."""
    bad: list[str] = []
    if isinstance(g, FreeCircle):
        if g.winding < 1:
            bad.append("free circle winding must be >= 1")
        return ValidationReport(not bad, tuple(bad))

    if len(g._vertex_by_id) != len(g.vertices):
        bad.append("duplicate vertex ids")
    eids = [e.id for e in g.edges]
    if len(set(eids)) != len(eids):
        bad.append("duplicate edge ids")
    if not g.vertices:
        bad.append("graph has no vertices (use a free circle record instead)")
        return ValidationReport(False, tuple(bad))

    for v in g.vertices:
        if v.kind not in (MERGE, SPLIT):
            bad.append(f"vertex {v.id}: unknown kind {v.kind}")
        if not 0 <= v.angle < 1:
            bad.append(f"vertex {v.id}: angle {v.angle} outside [0, 1)")

    # Slot discipline: every slot of every vertex used by exactly one
    # edge end (an edge may occupy two slots of one vertex).
    usage: Counter[tuple[str, str]] = Counter()
    dangling = False
    for e in g.edges:
        for end, direction in ((e.tail, "out"), (e.head, "in")):
            v = g._vertex_by_id.get(end.vertex)
            if v is None:
                bad.append(f"edge {e.id}: unknown vertex {end.vertex}")
                dangling = True
                continue
            legal = OUT_SLOTS if direction == "out" else IN_SLOTS
            if end.slot not in legal.get(v.kind, ()):
                bad.append(
                    f"edge {e.id}: slot {end.vertex}.{end.slot} not an "
                    f"{direction}-slot of a {v.kind} vertex"
                )
            else:
                usage[(end.vertex, end.slot)] += 1
        if e.winding < 0:
            bad.append(f"edge {e.id}: negative winding")
        if e.tail.vertex == e.head.vertex and e.winding < 1:
            bad.append(f"edge {e.id}: loop needs winding >= 1")
    for v in g.vertices:
        if v.kind not in (MERGE, SPLIT):
            continue
        for slot in IN_SLOTS[v.kind] + OUT_SLOTS[v.kind]:
            n = usage.get((v.id, slot), 0)
            if n == 0:
                bad.append(f"vertex {v.id}: slot {slot} unused")
            elif n > 1:
                bad.append(f"vertex {v.id}: slot {slot} reused ({n} edge ends)")

    angles = [v.angle for v in g.vertices]
    if len(set(angles)) != len(angles):
        bad.append("vertex angles not pairwise distinct (critical values must differ)")

    if g.merge_count() != g.split_count():
        bad.append(
            f"#MERGE = {g.merge_count()} differs from #SPLIT = {g.split_count()}"
        )
    if 2 * len(g.edges) != 3 * len(g.vertices):
        bad.append(f"2E = {2 * len(g.edges)} differs from 3V = {3 * len(g.vertices)}")

    if not dangling and not _connected(g):
        bad.append("underlying graph not connected")

    return ValidationReport(not bad, tuple(bad))


def _connected(g: FoliationGraph) -> bool:
    """Whether the underlying undirected graph (no dangling edges) is connected."""
    seen = {g.vertices[0].id}
    queue = deque(seen)
    while queue:
        v = queue.popleft()
        for w in [e.head.vertex for e in g._succ[v]] + [e.tail.vertex for e in g._pred[v]]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(g.vertices)


def builtin(name: str) -> Foliation:
    """Built-in graphs: ``theta``, ``dumbbell``, ``free-circle(w)``.

    theta is the classic Calabi genus-2 graph (complexity 1); dumbbell is
    its non-Calabi companion (complexity 2) with a loop on each vertex.
    """
    if name == "theta":
        s = Vertex("s", SPLIT, Fraction(1, 4))
        m = Vertex("m", MERGE, Fraction(3, 4))
        return FoliationGraph(
            "theta",
            (s, m),
            (
                Edge("e0", End("m", "out0"), End("s", "in0"), 0),
                Edge("e1", End("s", "out0"), End("m", "in0"), 0),
                Edge("e2", End("s", "out1"), End("m", "in1"), 0),
            ),
        )
    if name == "dumbbell":
        s = Vertex("s", SPLIT, Fraction(1, 4))
        m = Vertex("m", MERGE, Fraction(3, 4))
        return FoliationGraph(
            "dumbbell",
            (s, m),
            (
                Edge("e1", End("s", "out0"), End("m", "in0"), 0),
                Edge("e2", End("s", "out1"), End("s", "in0"), 1),
                Edge("e3", End("m", "out0"), End("m", "in1"), 1),
            ),
        )
    if name.startswith("free-circle(") and name.endswith(")"):
        w = int(name[len("free-circle(") : -1])
        if w < 1:
            raise ValueError("free circle winding must be >= 1")
        return FreeCircle(name, w)
    raise ValueError(f"unknown builtin graph {name!r}")


def crossing_count(g: Foliation, a: Fraction) -> int:
    """Cardinality of the height preimage of the regular angle ``a``."""
    if isinstance(g, FreeCircle):
        return g.winding
    _, gap = g._gap(a, "angle")
    return sum(g._crossings(e, gap) for e in g.edges)


def regular_levels(g: FoliationGraph) -> list[Fraction]:
    """One regular sample angle per interval between consecutive critical
    values, in increasing order: the circular midpoints."""
    return sorted(g._midpoint(k) for k in range(len(g._order)))


def complexity(g: Foliation) -> tuple[int, Fraction]:
    """Minimum crossing count over regular levels, with the smallest
    minimizing sample angle as witness.  One sweep per graph: the result
    is kept on the (immutable) graph, so repeat calls return it.
    """
    if isinstance(g, FreeCircle):
        return g.winding, Fraction(0)
    return g._complexity


def _bfs_tree(g: FoliationGraph, start: str, reverse: bool = False) -> dict[str, Edge | None]:
    """Breadth-first tree over out-edges (in-edges if ``reverse``), in
    edge-id order: each reached vertex, in visiting order, mapped to the
    edge it was reached along (None for ``start``)."""
    adjacent = g._pred if reverse else g._succ
    tree: dict[str, Edge | None] = {start: None}
    queue = deque([start])
    while queue:
        for e in adjacent[queue.popleft()]:
            w = e.tail.vertex if reverse else e.head.vertex
            if w not in tree:
                tree[w] = e
                queue.append(w)
    return tree


def is_calabi(g: Foliation) -> CalabiCertificate:
    """Decide the Calabi property: every point lies on a positive cycle.

    For a connected oriented graph this coincides with strong
    connectivity, decided by a forward and a reverse breadth-first search
    from the root, the smallest vertex id.  The certificate is either a
    family of closed positive walks through the root, at most one per
    edge (tree path root->tail, the edge, tree path head->root, each
    rotated to start at its smallest edge id), covering every edge; or
    the smallest-id vertex that does not reach everything, with the
    smallest-id vertex outside its positive out-set.
    """
    if isinstance(g, FreeCircle) or not g.vertices:
        return CalabiCertificate(True)
    root = g.vertices[0].id
    down = _bfs_tree(g, root)
    if len(down) == len(g.vertices):
        up = _bfs_tree(g, root, reverse=True)
        if len(up) == len(g.vertices):
            return CalabiCertificate(True, cycles=_root_walks(g, down, up))
        # Everything is reachable from the root, so exactly the vertices
        # that cannot reach the root fail to reach everything.
        source = next(v.id for v in g.vertices if v.id not in up)
        reach = _bfs_tree(g, source)
    else:
        source, reach = root, down
    target = next(v.id for v in g.vertices if v.id not in reach)
    return CalabiCertificate(False, obstruction=Obstruction(source, target, tuple(sorted(reach))))


def _root_walks(g: FoliationGraph, down: dict, up: dict) -> tuple[tuple[str, ...], ...]:
    into = {}  # tree path root -> v, in BFS order so parents come first
    for v, e in down.items():
        into[v] = () if e is None else into[e.tail.vertex] + (e.id,)
    back = {}  # tree path v -> root
    for v, e in up.items():
        back[v] = () if e is None else (e.id,) + back[e.head.vertex]
    walks = []
    for e in g.edges:
        walk = into[e.tail.vertex] + (e.id,) + back[e.head.vertex]
        k = walk.index(min(walk))
        walks.append(walk[k:] + walk[:k])
    return tuple(dict.fromkeys(walks))


def euler_genus(g: Foliation) -> tuple[int, int]:
    """Euler characteristic and genus of the modeled surface."""
    if isinstance(g, FreeCircle):
        return 0, 1
    nv, ne = len(g.vertices), len(g.edges)
    genus = (nv + 2) // 2
    betti = ne - nv + 1
    if genus != betti or (nv + 2) % 2:
        raise ValueError("graph violates 2E = 3V; validate it first")
    return -nv, genus
