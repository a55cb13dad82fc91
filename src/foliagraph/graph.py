"""Oriented trivalent foliation graphs with a circle-valued height.

A graph models a closed surface carrying a rank-one Morse form with all
leaves compact: vertices are the saddle leaves (MERGE = two leaves flowing
into one, SPLIT = one into two), edges are annuli of regular leaves, the
vertex angle is the critical value on the circle (in turn units), and an
edge's winding counts the extra full turns its annulus makes.  The Calabi
property of the form becomes strong connectivity of the directed graph.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from collections import namedtuple
from functools import cached_property
from itertools import accumulate
from fractions import Fraction
from operator import attrgetter, eq, itemgetter

MERGE = "MERGE"
SPLIT = "SPLIT"

IN_SLOTS = {MERGE: ("in0", "in1"), SPLIT: ("in0",)}
OUT_SLOTS = {MERGE: ("out0",), SPLIT: ("out0", "out1")}

# Slot indices.  Each kind's in-slots are a prefix of SLOTS[:2] and its
# out-slots a prefix of SLOTS[2:], so slot s of vertex v is port 4 * v + s,
# and a kind's ports are 4 * v + (0 .. ins - 1, 2 .. 2 + outs - 1).
SLOTS = IN_SLOTS[MERGE] + OUT_SLOTS[SPLIT]
ARITY = {kind: (len(IN_SLOTS[kind]), len(OUT_SLOTS[kind])) for kind in IN_SLOTS}
_SLOT_INDEX = {slot: s for s, slot in enumerate(SLOTS)}
_PORTS = {kind: tuple(_SLOT_INDEX[s] for s in IN_SLOTS[kind] + OUT_SLOTS[kind]) for kind in ARITY}
_IN_PORTS = {kind: frozenset(_SLOT_INDEX[s] for s in slots) for kind, slots in IN_SLOTS.items()}
_OUT_PORTS = {kind: frozenset(_SLOT_INDEX[s] for s in slots) for kind, slots in OUT_SLOTS.items()}


# The records are named tuples: immutable, with a repr, equality and hash
# by their fields, and ``_replace``.  Ends are (vertex id, slot name).
Vertex = namedtuple("Vertex", "id kind angle")
End = namedtuple("End", "vertex slot")
Edge = namedtuple("Edge", "id tail head winding")


# The tables of a FoliationGraph, by the names ``_make`` takes them.
_TABLES = (
    "name", "_ids", "_kinds", "_num", "_den",
    "_eids", "_tail", "_tail_slot", "_head", "_head_slot", "_winding", "_slots",
)


def _tables(name: str, vertices: list[tuple], edges: list[tuple]) -> dict:
    """The tables of a graph, by their ``_TABLES`` names, from rows in any order:
    (id, kind, angle numerator, angle denominator), as ``_lowest_terms``
    gives them, per vertex, and (id, tail vertex id, tail slot name, head
    vertex id, head slot name, winding) per edge.

    Rows go into id order (a stable sort, so equal ids keep their given
    order).  An end names the last vertex with its id.  Ids that no vertex
    carries, and slot names outside SLOTS, which only an invalid graph
    has, are numbered after the vertices and after SLOTS, in order of
    first use, so the tables keep every name they were given.
    """
    ids, kinds, num, den = _columns(sorted(vertices, key=itemgetter(0)), 4)
    eids, tails, tail_slots, heads, head_slots, windings = _columns(sorted(edges, key=itemgetter(0)), 6)
    slots = list(SLOTS)

    def numbered(names: list, table: list, index: dict) -> list[int]:
        found = [index.get(x) for x in names]
        if None in found:
            for x in names:
                if x not in index:
                    index[x] = len(table)
                    table.append(x)
            found = [index[x] for x in names]
        return found

    vindex = {vid: v for v, vid in enumerate(ids)}
    sindex = dict(_SLOT_INDEX)
    tail, head = numbered(tails, ids, vindex), numbered(heads, ids, vindex)
    tail_slot, head_slot = numbered(tail_slots, slots, sindex), numbered(head_slots, slots, sindex)
    return dict(zip(_TABLES, (
        name, ids, kinds, num, den, eids, tail, tail_slot, head, head_slot, windings,
        SLOTS if len(slots) == len(SLOTS) else tuple(slots),
    )))


def _lowest_terms(angle) -> tuple:
    """``angle`` in lowest terms, as (numerator, denominator); an infinite
    or nan float, or a value that is no number, which only an invalid graph
    has, as (angle, 1)."""
    try:
        a = Fraction(angle)
    except (OverflowError, TypeError, ValueError):
        return angle, 1
    return a.numerator, a.denominator


def _columns(rows: list[tuple], width: int) -> list[list]:
    return [list(column) for column in zip(*rows)] or [[] for _ in range(width)]


class FoliationGraph:
    """A foliation graph, held as flat tables indexed by position in id
    order.  ``FoliationGraph(name, vertices, edges)`` converts the objects
    once, or raises ValueError naming a non-str id if the ids do not sort;
    ``parse`` and ``reglue`` hand their tables to ``_make``.  ``vertices``
    and ``edges`` are built from the tables on first read.  Equality and
    hash compare the tables, so angles compare as the numbers they are;
    repr is ``FoliationGraph(name=..., vertices=..., edges=...)``, in id
    order.

    Per vertex: ``_ids``, ``_kinds`` and the angle as ``_num``/``_den`` in
    lowest terms; ``_order`` computes each angle's nearest float to sort.
    Per edge: ``_eids``, each end as a vertex index (``_tail``,
    ``_head``) and an index into ``_slots`` (``_tail_slot``,
    ``_head_slot``), and ``_winding``.
    ``_ids`` and ``_slots`` go on past the vertices and SLOTS with the
    names an invalid graph's ends use but no vertex or slot carries.
    Every index below, the angles as ``Fraction``s among them, is built
    on first use from these, or handed to ``_make`` by ``reglue``, which
    has the order, rank and out-edges in hand; the graph is frozen, so
    none goes stale: assigning or deleting an attribute raises
    AttributeError.  Only the two constructors and the cached properties
    write the instance dict.
    """

    def __init__(self, name: str, vertices, edges):
        vertices = list(vertices)
        rows = [(e.id, e.tail.vertex, e.tail.slot, e.head.vertex, e.head.slot, e.winding) for e in edges]
        try:
            vertices.sort(key=attrgetter("id"))
            tables = _tables(name, [(v.id, v.kind, *_lowest_terms(v.angle)) for v in vertices], rows)
        except TypeError:
            # Ids that do not sort together: name the first that is not a str.
            for noun, x in [("vertex id", v.id) for v in vertices] + [("edge id", r[0]) for r in rows]:
                if not isinstance(x, str):
                    raise ValueError(f"{noun} {x!r} is not a str") from None
            raise
        self.__dict__.update(tables)
        # The angles as given, so that ``vertices`` returns them unchanged.
        self.__dict__["_angle"] = [v.angle for v in vertices]

    @classmethod
    def _make(cls, **tables) -> FoliationGraph:
        """An unchecked graph from its tables, by their ``_TABLES`` names, plus
        any of ``_order``, ``_rank`` and ``_succ`` the builder holds:
        ``reglue`` hands over all three."""
        g = object.__new__(cls)
        g.__dict__.update(tables)
        return g

    @cached_property
    def _angle(self) -> list[Fraction]:
        return list(map(Fraction, self._num, self._den))

    @cached_property
    def vertices(self) -> tuple[Vertex, ...]:
        return tuple(map(Vertex, self._ids, self._kinds, self._angle))

    @cached_property
    def edges(self) -> tuple[Edge, ...]:
        ids, slots = self._ids, self._slots
        return tuple(
            Edge(e, End(ids[t], slots[ts]), End(ids[h], slots[hs]), w)
            for e, t, ts, h, hs, w in zip(
                self._eids, self._tail, self._tail_slot, self._head, self._head_slot, self._winding
            )
        )

    def __repr__(self):
        return f"FoliationGraph(name={self.name!r}, vertices={self.vertices!r}, edges={self.edges!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Equal tables hold equal names in equal places: the same test as
        # comparing (name, vertices, edges).
        return all(self.__dict__[t] == other.__dict__[t] for t in _TABLES)

    def __hash__(self):
        d = self.__dict__
        return hash((self.name, *(tuple(d[t]) for t in _TABLES[1:])))

    @cached_property
    def _report(self) -> ValidationReport:
        """The checks behind ``validate``, O(V + E) over the tables.  No
        caller seeds it, so it always judges the tables themselves."""
        bad = _token_faults("graph name", [self.name])
        ids, kinds, num, den, eids = self._ids, self._kinds, self._num, self._den, self._eids
        nv = len(kinds)
        bad += _token_faults("vertex id", ids[:nv]) + _token_faults("edge id", eids)
        if len(set(ids[:nv])) != nv:
            bad.append("duplicate vertex ids")
        if len(set(eids)) != len(eids):
            bad.append("duplicate edge ids")
        if not nv:
            bad.append("graph has no vertices (use a free circle record instead)")
            return ValidationReport(False, tuple(bad))

        sortable = True  # whether every angle is a number, so that they sort
        for v, (vid, kind) in enumerate(zip(ids, kinds)):
            if kind not in ARITY:
                bad.append(f"vertex {vid}: unknown kind {kind}")
            try:
                inside = 0 <= num[v] < den[v]
            except (TypeError, ArithmeticError):
                # Only ``FoliationGraph(...)`` takes such an angle: text that
                # is no number, None, or a decimal NaN, which does not compare.
                bad.append(f"vertex {vid}: angle {self._angle[v]!r} is not a number")
                sortable = False
            else:
                if not inside:
                    bad.append(f"vertex {vid}: angle {self._angle[v]} outside [0, 1)")

        bad += _end_faults(self)

        # Sorted, equal angles are adjacent.
        angles = [(num[v], den[v]) for v in self._order] if sortable else []
        if any(map(eq, angles, angles[1:])):
            bad.append("vertex angles not pairwise distinct (critical values must differ)")

        if self.merge_count() != self.split_count():
            bad.append(f"#MERGE = {self.merge_count()} differs from #SPLIT = {self.split_count()}")
        if 2 * len(eids) != 3 * nv:
            bad.append(f"2E = {2 * len(eids)} differs from 3V = {3 * nv}")

        # An end naming no vertex (numbered past the vertices) skips the search.
        if len(ids) == nv and not _connected(self):
            bad.append("underlying graph not connected")

        return ValidationReport(not bad, tuple(bad))

    @cached_property
    def _succ(self) -> tuple[list[int], list[int]]:
        """Each vertex's out-edges, as ``_incident`` lists them.  ``reglue``
        hands it over."""
        return _incident(len(self._ids), self._tail)

    @cached_property
    def _pred(self) -> tuple[list[int], list[int]]:
        """Each vertex's in-edges, as ``_incident`` lists them."""
        return _incident(len(self._ids), self._head)

    @cached_property
    def _order(self) -> list[int]:
        """Vertex indices by increasing angle: the circular order of the
        critical values.  Gap ``k`` of this order holds the regular levels
        just below the ``k``-th; gap 0 also holds those above the highest
        one.  Sorting by float is exact but where floats tie: a correctly
        rounded float never reverses two angles.  Ties, which only angles
        within a rounding step of each other or outside [0, 1) make, are
        sorted again by the exact angles, read off ``_num``/``_den``: n/d,
        or n itself where d is 1, as for an infinite or nan float.  Angles
        outside [0, 1), which only an invalid graph has and whose quotient
        may not fit in a float, all take 1.0.  Every angle must be a number,
        as ``validate`` checks before it sorts.  ``reglue`` hands it over,
        since it builds its vertices in angle order."""
        num, den = self._num, self._den
        flo = [n / d if 0 <= n < d else 1.0 for n, d in zip(num, den)]
        order = sorted(range(len(flo)), key=flo.__getitem__)
        if len(set(flo)) < len(flo):
            order.sort(key=lambda v: (flo[v], num[v] if den[v] == 1 else Fraction(num[v], den[v])))
        return order

    @cached_property
    def _rank(self) -> list[int]:
        """Each vertex's position in ``_order``.  ``reglue`` hands it over."""
        rank = [0] * len(self._order)
        for k, v in enumerate(self._order):
            rank[v] = k
        return rank

    @cached_property
    def _sweep(self) -> tuple[int, Fraction, int, list[int]]:
        """The sweep behind ``complexity``, as (minimum, witness, witness
        gap, counts): start from the crossing count below the lowest
        critical value (gap 0); crossing a SPLIT adds a strand
        and crossing a MERGE removes one.  The count above rank k is
        ``counts[k]``, so gap g's is ``counts[g - 1]``.  Midpoints rise
        with rank but for the last, which wraps, so the witness is the
        midpoint of the first minimizing gap or of the last one; the gap
        above rank k is gap k + 1, or gap 0 for the last.  No builder hands
        it over: ``harmonize`` sweeps only its input, and reads each later
        graph's counts off the sorted word it reglued."""
        kinds, base = self._kinds, sum(self._crossings(0))
        counts = list(accumulate((1 if kinds[v] == SPLIT else -1 for v in self._order), initial=base))[1:]
        best, n = min(counts), len(counts)
        ranks = [k for k in (counts.index(best), n - 1) if counts[k] == best]
        witness, gap = min((self._midpoint(k), (k + 1) % n) for k in ranks)
        return best, witness, gap, counts

    def _midpoint(self, k: int) -> Fraction:
        """The circular midpoint of the gap above the critical value of rank
        ``k``, turned into [0, 1): with angles a/b below and c/d above (plus
        one turn if the gap wraps), (a * d + c * b) / (2 * b * d) mod 1."""
        order, num, den = self._order, self._num, self._den
        lo, hi = order[k], order[(k + 1) % len(order)]
        b, d = den[lo], den[hi]
        n = num[lo] * d + num[hi] * b + (b * d if k + 1 == len(order) else 0)
        return Fraction(n % (2 * b * d), 2 * b * d)

    def _gap(self, a: Fraction, noun: str) -> tuple[Fraction, int]:
        """The angle ``a`` turned into [0, 1) and the gap holding it; a
        critical value raises ValueError, naming it as ``noun``."""
        a = _turn(Fraction(a))
        p, q, num, den, order = a.numerator, a.denominator, self._num, self._den, self._order
        # With positive denominators, n/d < p/q exactly when n * q < p * d.
        k = bisect_left(order, 0, key=lambda v: num[v] * q - p * den[v])
        if k < len(order) and num[order[k]] * q == p * den[order[k]]:
            raise ValueError(f"{noun} {a} is a critical value")
        return a, k if k < len(order) else 0

    def _crossings(self, gap: int) -> list[int]:
        """How many times each edge, in edge order, crosses a level in
        ``gap``: ``winding`` times, once more if the gap lies on its arc
        from tail up to head."""
        n, rank = len(self._order), self._rank
        return [
            w + (0 < (gap - rank[t]) % n <= (rank[h] - rank[t]) % n)
            for w, t, h in zip(self._winding, self._tail, self._head)
        ]

    def merge_count(self) -> int:
        return self._kinds.count(MERGE)

    def split_count(self) -> int:
        return self._kinds.count(SPLIT)


def _incident(n: int, ends: list[int]) -> tuple[list[int], list[int]]:
    """For each of ``n`` vertices, the edges whose end in ``ends`` it is, in
    edge order, in two flat lists (edges, start): vertex v's are
    ``edges[start[v]:start[v + 1]]``.  Two lists per graph, not one per
    vertex, keep the collector's work per graph small."""
    edges = sorted(range(len(ends)), key=ends.__getitem__)
    start = [0] * (n + 1)
    for v in ends:
        start[v + 1] += 1
    return edges, list(accumulate(start))


FreeCircle = namedtuple("FreeCircle", "name winding")
FreeCircle.__doc__ = "Vertex-free foliation graph: the height map is a degree-w covering."


Foliation = FoliationGraph | FreeCircle


ValidationReport = namedtuple("ValidationReport", "ok violations")

Obstruction = namedtuple("Obstruction", "source target out_set")
Obstruction.__doc__ = """Witness that no positive path runs from ``source`` to ``target``.

``out_set`` is everything positively reachable from ``source``; by
construction it has no outgoing edges leaving it.
"""

# A Calabi verdict carries ``cycles``, its closed positive walks as tuples
# of edge ids; any other carries an ``Obstruction``.
CalabiCertificate = namedtuple("CalabiCertificate", "verdict cycles obstruction", defaults=((), None))


_TOKEN_BREAK = re.compile(r"[\s#]")


def _token_faults(noun: str, idents: list[str]) -> list[str]:
    """One message per ident the text formats cannot carry, named as
    ``noun``: not a str, or empty, or broken by them, since they split
    lines at whitespace, as ``str.split`` does, and drop what follows "#".
    One search over the idents joined by "/", which the pattern cannot
    match, finds whether there is any; the join fails on a non-str."""
    try:
        if all(idents) and not _TOKEN_BREAK.search("/".join(idents)):
            return []
    except TypeError:
        pass
    return [
        f"{noun} {ident!r} " + ("is empty or holds whitespace or '#'" if isinstance(ident, str) else "is not a str")
        for ident in idents
        if not isinstance(ident, str) or not ident or _TOKEN_BREAK.search(ident)
    ]


def _turn(x: Fraction) -> Fraction:
    return x - (x.numerator // x.denominator)


def validate(g: Foliation) -> ValidationReport:
    """Check every structural invariant, reporting all failures.  A graph
    keeps its report.  ``complexity``, ``is_calabi``, ``euler_genus``, ``cut``
    and ``harmonize`` raise ValueError with its first violation, if any."""
    if isinstance(g, FreeCircle):
        bad = _token_faults("graph name", [g.name])
        if g.winding.__class__ is not int:
            bad.append(f"free circle winding {g.winding!r} is not an int")
        elif g.winding < 1:
            bad.append("free circle winding must be >= 1")
        return ValidationReport(not bad, tuple(bad))
    return g._report


def _require_valid(g: Foliation) -> None:
    """ValueError with ``validate``'s first violation, unless it accepts ``g``."""
    report = validate(g)
    if not report.ok:
        raise ValueError(report.violations[0])


def _end_faults(g: FoliationGraph) -> list[str]:
    """The messages of ``validate``'s end checks, edge by edge and then
    vertex by vertex: every slot of every vertex used by exactly one edge
    end (an edge may occupy two slots of one vertex), and windings: each
    an ``int`` (not a bool, float or other number, which the text format
    cannot carry), and only then in range.  Uses are counted per port; an
    end names the last vertex with its id, so vertices that share an id
    share that vertex's slots."""
    ids, kinds, slots, nv = g._ids, g._kinds, g._slots, len(g._kinds)
    bad = []
    use = [0] * (4 * nv)
    for eid, t, ts, h, hs, w in zip(g._eids, g._tail, g._tail_slot, g._head, g._head_slot, g._winding):
        if t >= nv:
            bad.append(f"edge {eid}: unknown vertex {ids[t]}")
        elif ts in _OUT_PORTS.get(kinds[t], ()):
            use[4 * t + ts] += 1
        else:
            bad.append(f"edge {eid}: slot {ids[t]}.{slots[ts]} not an out-slot of a {kinds[t]} vertex")
        if h >= nv:
            if h != t:  # a loop names its unknown vertex once
                bad.append(f"edge {eid}: unknown vertex {ids[h]}")
        elif hs in _IN_PORTS.get(kinds[h], ()):
            use[4 * h + hs] += 1
        else:
            bad.append(f"edge {eid}: slot {ids[h]}.{slots[hs]} not an in-slot of a {kinds[h]} vertex")
        if w.__class__ is not int:
            bad.append(f"edge {eid}: winding {w!r} is not an int")
            continue
        if w < 0:
            bad.append(f"edge {eid}: negative winding")
        if t == h and w < 1:
            bad.append(f"edge {eid}: loop needs winding >= 1")
    last = {vid: v for v, vid in enumerate(ids[:nv])}
    for vid, kind in zip(ids, kinds):
        port = 4 * last[vid]
        for s in _PORTS.get(kind, ()):
            n = use[port + s]
            if n != 1:
                bad.append(f"vertex {vid}: slot {SLOTS[s]} " + ("unused" if n == 0 else f"reused ({n} edge ends)"))
    return bad


def _connected(g: FoliationGraph) -> bool:
    """Whether the underlying undirected graph is connected: union-find
    over the edges, with path halving."""
    root = list(range(len(g._ids)))
    parts = len(root)
    for t, h in zip(g._tail, g._head):
        while root[t] != t:
            root[t] = t = root[root[t]]
        while root[h] != h:
            root[h] = h = root[root[h]]
        if t != h:
            root[t] = h
            parts -= 1
    return parts == 1


def _natural(text: str) -> int:
    """``text`` as a natural number, read as the file grammar reads one:
    ASCII digits only, where int() also takes '٣', '1_0' and spaces."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"expected a natural number, got {text!r}")
    return int(text)


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
        w = _natural(name[len("free-circle(") : -1])
        if w < 1:
            raise ValueError("free circle winding must be >= 1")
        return FreeCircle(name, w)
    raise ValueError(f"unknown builtin graph {name!r}")


def complexity(g: Foliation) -> tuple[int, Fraction]:
    """Minimum crossing count over regular levels, with the smallest
    minimizing sample angle as witness.  One sweep per graph: the result
    is kept on the (immutable) graph, so repeat calls return it.  Reads
    only valid graphs (see ``validate``).
    """
    _require_valid(g)
    if isinstance(g, FreeCircle):
        return g.winding, Fraction(0)
    return g._sweep[:2]


def _bfs(g: FoliationGraph, start: int, reverse: bool = False) -> tuple[list[int], list[int | None]]:
    """Breadth-first search over out-edges (in-edges if ``reverse``), in
    edge order: the vertices reached, in visiting order, and for each
    vertex the edge it was reached along (-1 for ``start``, None if
    unreached)."""
    (edges, at), far = (g._pred, g._tail) if reverse else (g._succ, g._head)
    via: list[int | None] = [None] * len(g._ids)
    via[start] = -1
    reached = [start]
    for v in reached:
        for e in edges[at[v] : at[v + 1]]:
            w = far[e]
            if via[w] is None:
                via[w] = e
                reached.append(w)
    return reached, via


def is_calabi(g: Foliation) -> CalabiCertificate:
    """Decide the Calabi property: every point lies on a positive cycle.

    For a connected oriented graph this coincides with strong
    connectivity, decided by a forward and a reverse breadth-first search
    from the root, the smallest vertex id.  The certificate is either a
    family of closed positive walks through the root, one per edge (tree
    path root->tail, the edge, tree path head->root, each rotated to start
    at its smallest edge id) with repeats dropped, covering every edge; or
    the smallest-id vertex that does not reach everything, with the
    smallest-id vertex outside its positive out-set.  There are exactly
    E - V + 1 walks, the genus, each built once: each non-root vertex has
    exactly one reverse-tree out-edge, and it repeats the walk of the
    forward-tree edge into that vertex.  Reads only valid graphs (see
    ``validate``).
    """
    _require_valid(g)
    if isinstance(g, FreeCircle):
        return CalabiCertificate(True)
    nv = len(g._kinds)
    down, up = _root_trees(g)
    if len(up[0]) == nv:
        return CalabiCertificate(True, cycles=_root_walks(g, down, up))
    if len(down[0]) == nv:
        # Everything is reachable from the root, so exactly the vertices
        # that cannot reach the root fail to reach everything.
        source = up[1].index(None)
        reached, via = _bfs(g, source)
    else:
        source, (reached, via) = 0, down
    ids = g._ids
    out_set = tuple(ids[v] for v in sorted(reached))
    return CalabiCertificate(False, obstruction=Obstruction(ids[source], ids[via.index(None)], out_set))


def _root_trees(g: FoliationGraph) -> tuple[tuple[list, list], tuple[list, list]]:
    """The forward search from the root, vertex 0 (the smallest id), and
    the reverse one if the forward search spans the graph (else one that
    reaches nothing): the graph is strongly connected iff the reverse
    search spans it too."""
    down = _bfs(g, 0)
    up = _bfs(g, 0, reverse=True) if len(down[0]) == len(g._kinds) else ([], [])
    return down, up


def _calabi_verdict(g: Foliation) -> bool:
    """``is_calabi(g).verdict`` of a valid graph, without the certificate."""
    return isinstance(g, FreeCircle) or len(_root_trees(g)[1][0]) == len(g._kinds)


def _root_walks(g: FoliationGraph, down: tuple[list, list], up: tuple[list, list]) -> tuple[tuple[str, ...], ...]:
    """The distinct walks ``into[t] + (e,) + back[h]`` of the edges
    e = t -> h, each rotated to start at its smallest edge id, in the order
    of their first edges.  A walk is keyed by its last edge, read from the
    root, that is not its tail's reverse-tree edge, and built at the first
    edge with a new key: each non-root vertex has exactly one reverse-tree
    out-edge, and it repeats the walk of the forward-tree edge into its
    tail (``up_via[t] == e`` gives ``back[t] == (e,) + back[h]``).  That
    leaves E - V + 1 keys, whose walks differ: the root is the tail of only
    a walk's first edge."""
    eids, tail, head = g._eids, g._tail, g._head
    into: list[tuple[str, ...]] = [()] * len(g._ids)  # tree path root -> v, built parents first
    key = [0] * len(g._ids)  # the key of the walk into[v] + back[v]
    reached, down_via = down
    up_via = up[1]
    for v in reached[1:]:
        e = down_via[v]
        t = tail[e]
        into[v] = into[t] + (eids[e],)
        key[v] = key[t] if up_via[t] == e else e
    back: list[tuple[str, ...]] = [()] * len(g._ids)  # tree path v -> root
    for v in up[0][1:]:
        e = up_via[v]
        back[v] = (eids[e],) + back[head[e]]
    walks = []
    built = bytearray(len(eids))
    for e, (t, h) in enumerate(zip(tail, head)):
        k = key[t] if up_via[t] == e else e
        if not built[k]:
            built[k] = 1
            walk = into[t] + (eids[e],) + back[h]
            i = walk.index(min(walk))
            walks.append(walk[i:] + walk[:i])
    return tuple(walks)


def euler_genus(g: Foliation) -> tuple[int, int]:
    """Euler characteristic -V and genus E - V + 1 = V/2 + 1 of the modeled
    surface.  Reads only valid graphs (see ``validate``)."""
    _require_valid(g)
    if isinstance(g, FreeCircle):
        return 0, 1
    nv = len(g._kinds)
    return -nv, nv // 2 + 1
