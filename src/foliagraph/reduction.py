"""Complexity reduction: cut at a minimal regular level, rearrange the
crossing events so every merge happens below every split, and reglue.

Cutting the circle at a regular angle turns the graph into a word of
MERGE/SPLIT events acting on strands (edge segments crossing the cut),
plus a gluing bijection from top strands back to bottom strands.  Sorting
the word by adjacent transpositions is the combinatorial shadow of
rearranging the Morse function to be self-indexing; regluing the sorted
word yields a graph with strictly smaller complexity and the same number
of merges and splits.  Iterating reaches a Calabi graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Collection, Iterator, Sequence

from .graph import (
    IN_SLOTS,
    MERGE,
    OUT_SLOTS,
    SPLIT,
    Edge,
    End,
    Foliation,
    FoliationGraph,
    FreeCircle,
    Vertex,
    _connected,
    complexity,
    is_calabi,
)


class NotSortableError(ValueError):
    """A split/merge bubble blocked sorting: no strand to borrow.

    Carries the blocking pattern (split input, its two outputs, the merge
    output) and the number of strands live below the bubble.
    """

    def __init__(self, bubble: tuple[int, int, int, int], live: int):
        x, x1, x2, y = bubble
        super().__init__(
            f"bubble SPLIT({x}->{x1},{x2}); MERGE({x1},{x2}->{y}) with "
            f"{live} live strand(s) and nothing to borrow"
        )
        self.bubble = bubble
        self.live = live


class RegluingError(ValueError):
    """Regluing produced a disconnected object."""


class StuckError(RuntimeError):
    """A reduction step could not be completed; wraps the diagnostic."""

    def __init__(self, message: str, cause: Exception, trace: "ReductionTrace | None" = None):
        super().__init__(message)
        self.cause = cause
        self.trace = trace


@dataclass(frozen=True)
class Merge:
    inputs: tuple[int, int]
    output: int


@dataclass(frozen=True)
class Split:
    input: int
    outputs: tuple[int, int]


Event = Merge | Split


@dataclass(frozen=True)
class CutGraph:
    """The graph cut open along a regular level.

    ``bottom``/``top`` list the strands at heights 0 and 1, ``events`` is
    the height-ordered word acting on the live strand set, and ``glue``
    maps each top strand to the bottom strand it continues into.

    Construction checks the cut: the word replays from ``bottom`` to
    ``top`` (see ``live_after``), both boundaries have the same size, and
    ``glue`` is a bijection from top onto bottom.  ValueError otherwise.
    """

    bottom: tuple[int, ...]
    top: tuple[int, ...]
    events: tuple[Event, ...]
    glue: tuple[tuple[int, int], ...]
    source: str
    cut_angle: Fraction

    def __post_init__(self):
        if live_after(self.bottom, self.events) != set(self.top) or len(self.top) != len(set(self.top)):
            raise ValueError("replaying events does not yield the top strands")
        if len(self.bottom) != len(self.top):
            raise ValueError("boundary strand counts differ")
        # Both boundaries are duplicate-free and equally long by now.
        gm = self.glue_map
        if gm.keys() != set(self.top) or set(gm.values()) != set(self.bottom):
            raise ValueError("glue is not a bijection from top onto bottom")

    @property
    def glue_map(self) -> dict[int, int]:
        return dict(self.glue)

    def merge_count(self) -> int:
        return sum(1 for e in self.events if isinstance(e, Merge))

    def split_count(self) -> int:
        return sum(1 for e in self.events if isinstance(e, Split))


def live_after(bottom: tuple[int, ...], events: Sequence[Event]) -> set[int]:
    """The strands live after the word ``events`` runs from ``bottom``,
    replayed with one mutable set in O(n + k).

    Raises ValueError if the bottom repeats a strand, an event consumes a
    dead strand, a merge consumes one strand twice, or an output collides
    with a live strand.
    """
    live = set(bottom)
    if len(live) != len(bottom):
        raise ValueError("duplicate bottom strands")
    for i, ev in enumerate(events):
        _apply(live, ev, i)
    return live


def _apply(live: set[int], ev: Event, i: int) -> None:
    """Run event number ``i`` on ``live`` in place; see ``live_after``."""
    if isinstance(ev, Merge):
        a, b = ev.inputs
        if a == b:
            raise ValueError(f"event {i}: merge consumes strand {a} twice")
        consumed, produced = (a, b), (ev.output,)
    else:
        consumed, produced = (ev.input,), ev.outputs
        if len(set(produced)) != 2:
            raise ValueError(f"event {i}: split outputs collide")
    if not live.issuperset(consumed):
        raise ValueError(f"event {i}: consumes dead strand(s) {sorted(set(consumed) - live)}")
    live.difference_update(consumed)
    for s in produced:
        if s in live:
            raise ValueError(f"event {i}: output {s} already live")
    live.update(produced)


def cut(g: FoliationGraph, a: Fraction) -> CutGraph:
    """Cut open the graph along the regular level ``a``.

    Each edge falls into crossing-count + 1 segments; consecutive segments
    of one edge are glued across the cut.  Events are the vertices ordered
    by height above the cut: the circular order rotated at its gap.
    """
    if isinstance(g, FreeCircle):
        raise ValueError("cannot cut a vertex-free graph")
    a, gap = g._gap(a, "cut angle")

    fresh = iter(range(10**9))
    strand: dict[tuple[str, str], int] = {}  # the segment at each (vertex id, slot)
    bottom: list[int] = []
    top: list[int] = []
    glue: list[tuple[int, int]] = []
    for e in g.edges:
        segs = [next(fresh) for _ in range(g._crossings(e, gap) + 1)]
        strand[e.tail.vertex, e.tail.slot], strand[e.head.vertex, e.head.slot] = segs[0], segs[-1]
        bottom.extend(segs[1:])
        top.extend(segs[:-1])
        glue.extend(zip(segs, segs[1:]))

    events: list[Event] = []
    for v in g._order[gap:] + g._order[:gap]:
        ins = tuple(strand[v.id, slot] for slot in IN_SLOTS[v.kind])
        outs = tuple(strand[v.id, slot] for slot in OUT_SLOTS[v.kind])
        events.append(Merge(ins, outs[0]) if v.kind == MERGE else Split(ins[0], outs))

    return CutGraph(tuple(bottom), tuple(top), tuple(events), tuple(glue), g.name, a)


def _transpose(
    split: Split, merge: Merge, live_before: Collection[int], fresh: Iterator[int]
) -> tuple[Merge, Split]:
    """Rewrite the adjacent pair (split; merge) into (merge; split).

    The net strand interface of the pair (strands consumed from outside,
    strands handed on) is preserved in all three cases, so the rest of the
    word and the boundary data stay untouched.
    """
    x, (x1, x2) = split.input, split.outputs
    y1, y2 = merge.inputs
    y = merge.output
    shared = {x1, x2} & {y1, y2}
    if not shared:
        # Disjoint: the events commute as written.
        return merge, split
    if len(shared) == 1:
        # One split output feeds the merge: merge first, split the result.
        s = shared.pop()
        other_x = x2 if s == x1 else x1
        other_y = y2 if s == y1 else y1
        z = next(fresh)
        return Merge((x, other_y), z), Split(z, (other_x, y))
    # Bubble: both split outputs feed the merge.  Borrow a parallel live
    # strand, merge into it, and split it back off unchanged.  Only this
    # case reads ``live_before``.
    w = min((s for s in live_before if s != x), default=None)
    if w is None:
        raise NotSortableError((x, x1, x2, y), len(live_before))
    z = next(fresh)
    return Merge((x, w), z), Split(z, (y, w))


def sort_events(c: CutGraph) -> tuple[CutGraph, int]:
    """Rewrite the event word until every merge precedes every split.

    Repeatedly fixes the lowest adjacent (split, merge) inversion with the
    transposition table; each fix removes one inversion, so at most
    merges*splits rewrites happen.  Boundaries and glue are unchanged.
    Raises NotSortableError when a bubble has no strand to borrow.
    """
    # Every strand that is ever live is a bottom strand or an event output.
    born = [s for ev in c.events for s in (ev.outputs if isinstance(ev, Split) else (ev.output,))]
    fresh = iter(range(max((*c.bottom, *born), default=-1) + 1, 10**9))

    events = list(c.events)
    rewrites = 0
    bound = c.merge_count() * c.split_count() + 1
    # No inversion lies below ``pos``; a rewrite at ``pos`` can create one
    # only at ``pos - 1``.
    pos = 0
    while pos < len(events) - 1:
        split, merge = events[pos], events[pos + 1]
        if not (isinstance(split, Split) and isinstance(merge, Merge)):
            pos += 1
            continue
        # Only a bubble borrows a strand, so only it reads the live set.
        bubble = split.outputs[0] in merge.inputs and split.outputs[1] in merge.inputs
        live = live_after(c.bottom, events[:pos]) if bubble else ()
        events[pos], events[pos + 1] = _transpose(split, merge, live, fresh)
        rewrites += 1
        if rewrites > bound:
            raise AssertionError("event sorting failed to terminate")
        pos = max(pos - 1, 0)

    return replace(c, events=tuple(events)), rewrites


def reglue(c: CutGraph) -> Foliation:
    """Reassemble a foliation graph from a cut.

    Events become vertices at increasing angles in word order (merges of a
    sorted word land in (0, 1/2), splits in (1/2, 1)); maximal strand runs
    through the glue become edges, winding once per glue pass except that
    a run ending at an earlier vertex spends one pass wrapping the circle.
    """
    n = len(c.events)
    gm = c.glue_map
    name = c.source if c.source.endswith("-reglued") else f"{c.source}-reglued"

    if n == 0:
        # No events: the glue orbits are covering circles; only a single
        # orbit regains a connected graph.
        if not c.bottom:
            raise RegluingError("empty cut")
        orbit = {c.bottom[0]}
        s = gm[c.bottom[0]]
        while s not in orbit:
            orbit.add(s)
            s = gm[s]
        if len(orbit) != len(c.bottom):
            raise RegluingError("glue splits into several covering circles")
        return FreeCircle(name, len(c.bottom))

    # A strand id may label several disjoint segments of the word (the
    # bubble rule borrows and re-emits strands), so segments are tracked
    # positionally: each runs from a birth (event out-slot or the cut)
    # to a death (event in-slot or the cut).
    Point = tuple  # ("ev", index, slot) or ("cut", strand id)
    by_birth: dict[Point, Point] = {}
    live: dict[int, Point] = {b: ("cut", b) for b in c.bottom}
    for i, ev in enumerate(c.events):
        ins = ev.inputs if isinstance(ev, Merge) else (ev.input,)
        for k, s in enumerate(ins):
            by_birth[live.pop(s)] = ("ev", i, f"in{k}")
        outs = (ev.output,) if isinstance(ev, Merge) else ev.outputs
        for k, s in enumerate(outs):
            live[s] = ("ev", i, f"out{k}")
    for t in c.top:
        by_birth[live.pop(t)] = ("cut", t)

    vertices = tuple(
        Vertex(f"v{i}", MERGE if isinstance(ev, Merge) else SPLIT, Fraction(i + 1, n + 1))
        for i, ev in enumerate(c.events)
    )

    edges = []
    used: set[Point] = set()
    for birth in sorted(p for p in by_birth if p[0] == "ev"):
        _, i, slot = birth
        point, passes = birth, 0
        while True:
            used.add(point)
            death = by_birth[point]
            if death[0] == "ev":
                break
            point = ("cut", gm[death[1]])
            passes += 1
        _, j, in_slot = death
        winding = passes - 1 if j < i else passes
        edges.append(
            Edge(f"e{len(edges)}", End(f"v{i}", slot), End(f"v{j}", in_slot), winding)
        )

    orphans = sorted(p[1] for p in by_birth if p not in used)
    if orphans:
        raise RegluingError(
            f"glue orbit through strands {orphans} avoids every vertex"
        )

    # The checked cut guarantees every invariant of validate but connectivity.
    g = FoliationGraph(name, vertices, tuple(edges))
    # Word order is angle order: seed the circular order instead of sorting.
    g.__dict__["_order"] = vertices
    if not _connected(g):
        raise RegluingError("reglued graph is disconnected")
    return g


@dataclass(frozen=True)
class ReductionStep:
    """One completed reduction.  ``graph_before``/``graph_after`` carry the
    graphs themselves; they stay out of equality, which compares the
    deterministic record."""

    cut_angle: Fraction
    complexity_before: int
    complexity_after: int
    rewrites: int
    word: tuple[Event, ...]
    graph_before: FoliationGraph = field(compare=False, repr=False)
    graph_after: Foliation = field(compare=False, repr=False)


@dataclass(frozen=True)
class ReductionTrace:
    steps: tuple[ReductionStep, ...] = ()


def reduce_once(g: FoliationGraph) -> FoliationGraph:
    """One reduction pass on a non-Calabi graph: cut at the complexity
    witness, sort, reglue.  Complexity strictly decreases and the numbers
    of merges and splits are preserved."""
    if isinstance(g, FreeCircle) or not g.vertices:
        raise ValueError("reduction needs a graph with vertices")
    if is_calabi(g).verdict:
        raise ValueError("graph is already Calabi; nothing to reduce")
    return _reduce_step(g).graph_after


def _reduce_step(g: FoliationGraph) -> ReductionStep:
    """Reduce a graph already known not to be Calabi."""
    before, witness = complexity(g)
    c = cut(g, witness)
    try:
        sorted_cut, rewrites = sort_events(c)
        g2 = reglue(sorted_cut)
    except (NotSortableError, RegluingError) as exc:
        raise StuckError(f"reduction of {g.name} stuck: {exc}", exc) from exc
    after, _ = complexity(g2)
    if after >= before:
        raise AssertionError("reduction did not decrease complexity")
    return ReductionStep(witness, before, after, rewrites, sorted_cut.events, g, g2)


def harmonize(g: Foliation) -> tuple[Foliation, ReductionTrace]:
    """Reduce until the Calabi condition holds.

    The result is Calabi and contiguous to the input; since complexity is
    a positive integer that strictly decreases, at most complexity(g)
    reductions happen.  A stuck step raises StuckError carrying the trace
    of the completed steps.
    """
    steps: list[ReductionStep] = []
    current = g
    while not is_calabi(current).verdict:
        try:
            step = _reduce_step(current)
        except StuckError as exc:
            raise StuckError(str(exc), exc.cause, ReductionTrace(tuple(steps))) from exc
        steps.append(step)
        current = step.graph_after
    return current, ReductionTrace(tuple(steps))


def contiguous(g1: Foliation, g2: Foliation) -> bool:
    """Equal numbers of merges and of splits (hence equal genus).

    Class preservation is not recomputed from the graphs: the reduction
    edits only the interior of the cut, keeping the boundary gluing, so
    provenance guarantees it.
    """

    def counts(g: Foliation) -> tuple[int, int]:
        if isinstance(g, FreeCircle):
            return 0, 0
        return g.merge_count(), g.split_count()

    return counts(g1) == counts(g2)
