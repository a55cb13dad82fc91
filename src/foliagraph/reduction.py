"""Complexity reduction: cut at a minimal regular level, rearrange the
crossing events so every merge happens below every split, and reglue.

Cutting the circle at a regular angle turns the graph into a word of
events acting on strands (edge segments crossing the cut) between two
aligned boundaries: each top strand continues into the bottom strand at
the same position.  An event is a vertex in the graph layer's slot
vocabulary: ``Event(kind, inputs, outputs)`` holds one strand per slot
of ``IN_SLOTS[kind]`` and ``OUT_SLOTS[kind]``, in slot order, so ``cut``
reads it off a vertex's ports and ``reglue`` writes it back into the
graph's tables, both by the graph layer's slot indices (``SLOTS``).
Sorting the word by adjacent transpositions is the combinatorial shadow of rearranging the Morse
function to be self-indexing; regluing the sorted word yields a graph
with strictly smaller complexity and the same number of merges and
splits.  Iterating reaches a Calabi graph.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict
from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import gcd
from typing import Collection, Iterator, NamedTuple, Sequence

from .graph import (
    ARITY,
    MERGE,
    SLOTS,
    SPLIT,
    Foliation,
    FoliationGraph,
    FreeCircle,
    _calabi_verdict,
    _connected,
    complexity,
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
    """A reduction step could not be completed; wraps the diagnostic
    (``cause``) and the trace of the steps completed before it."""

    def __init__(self, message: str, cause: Exception, trace: "ReductionTrace"):
        super().__init__(message)
        self.cause = cause
        self.trace = trace


class Event(NamedTuple):
    """A vertex of ``kind`` crossed by the cut word: it consumes the
    strands ``inputs`` and produces ``outputs``, which line up with its
    slots ``IN_SLOTS[kind]`` and ``OUT_SLOTS[kind]``.  Immutable; a named
    tuple because ``cut`` and every rewrite build one per event, at less
    than half a frozen dataclass's cost."""

    kind: str
    inputs: tuple[int, ...]
    outputs: tuple[int, ...]


@dataclass(frozen=True)
class CutGraph:
    """The graph cut open along a regular level.

    ``bottom``/``top`` list the strands at heights 0 and 1, aligned:
    ``top[i]`` continues across the cut into ``bottom[i]``.  ``events`` is
    the height-ordered word acting on the live strand set.

    Construction checks the cut: the word replays from ``bottom`` to
    ``top`` (see ``live_after``) and both boundaries have the same size,
    so the alignment is a bijection.  ValueError otherwise.
    """

    bottom: tuple[int, ...]
    top: tuple[int, ...]
    events: tuple[Event, ...]
    source: str

    def __post_init__(self):
        if live_after(self.bottom, self.events) != set(self.top) or len(self.top) != len(set(self.top)):
            raise ValueError("replaying events does not yield the top strands")
        if len(self.bottom) != len(self.top):
            raise ValueError("boundary strand counts differ")


def live_after(bottom: tuple[int, ...], events: Sequence[Event]) -> set[int]:
    """The strands live after the word ``events`` runs from ``bottom``,
    replayed with one mutable set in O(n + k).

    Raises ValueError naming the event if the bottom repeats a strand, an
    event's kind is unknown or its strand counts do not fit the kind's
    slots, an event consumes a dead strand or one strand twice, its
    outputs collide, or an output collides with a live strand.
    """
    live = set(bottom)
    if len(live) != len(bottom):
        raise ValueError("duplicate bottom strands")
    for i, (kind, consumed, produced) in enumerate(events):
        arity = ARITY.get(kind)
        if arity != (len(consumed), len(produced)):
            if arity is None:
                raise ValueError(f"event {i}: unknown kind {kind!r}")
            raise ValueError(f"event {i}: {kind} takes {arity[0]} input(s) and {arity[1]} output(s)")
        # A kind has at most two slots a side, so a repeat involves the first.
        if consumed[0] in consumed[1:]:
            raise ValueError(f"event {i}: {kind.lower()} consumes strand {consumed[0]} twice")
        if produced[0] in produced[1:]:
            raise ValueError(f"event {i}: {kind.lower()} outputs collide")
        if not live.issuperset(consumed):
            raise ValueError(f"event {i}: consumes dead strand(s) {sorted(set(consumed) - live)}")
        live.difference_update(consumed)
        if not live.isdisjoint(produced):
            raise ValueError(f"event {i}: output {next(s for s in produced if s in live)} already live")
        live.update(produced)
    return live


def cut(g: FoliationGraph, a: Fraction) -> CutGraph:
    """Cut open the graph along the regular level ``a``.

    Each edge falls into crossing-count + 1 segments; consecutive segments
    of one edge are glued across the cut: ``top[i]`` continues into
    ``bottom[i]``.  Events are the vertices ordered by height above the
    cut: the circular order rotated at its gap.
    """
    if isinstance(g, FreeCircle):
        raise ValueError("cannot cut a vertex-free graph")
    _, gap = g._gap(a, "cut angle")

    at = [0] * (4 * len(g._kinds))  # port 4 * vertex + slot -> segment
    bottom: list[int] = []
    top: list[int] = []
    k = 0  # the next strand id; an edge's segments are consecutive
    for t, ts, h, hs, n in zip(g._tail, g._tail_slot, g._head, g._head_slot, g._crossings(gap)):
        at[4 * t + ts], at[4 * h + hs] = k, k + n
        bottom.extend(range(k + 1, k + n + 1))
        top.extend(range(k, k + n))
        k += n + 1

    events = []
    kinds = g._kinds
    for v in g._order[gap:] + g._order[:gap]:
        kind = kinds[v]
        ins, outs = ARITY[kind]
        p = 4 * v  # its in-slots are ports p, p + 1 and its out-slots p + 2, p + 3
        events.append(Event(kind, tuple(at[p : p + ins]), tuple(at[p + 2 : p + 2 + outs])))
    return CutGraph(tuple(bottom), tuple(top), tuple(events), g.name)


def _transpose(
    split: Event, merge: Event, live_before: Collection[int], fresh: Iterator[int]
) -> tuple[Event, Event]:
    """Rewrite the adjacent pair (split; merge) into (merge; split).

    The net strand interface of the pair (strands consumed from outside,
    strands handed on) is preserved in all three cases, so the rest of the
    word and the boundary data stay untouched.
    """
    (x,), (x1, x2) = split.inputs, split.outputs
    (y1, y2), (y,) = merge.inputs, merge.outputs
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
        return Event(MERGE, (x, other_y), (z,)), Event(SPLIT, (z,), (other_x, y))
    # Bubble: both split outputs feed the merge.  Borrow a parallel live
    # strand, merge into it, and split it back off unchanged.  Only this
    # case reads ``live_before``.
    w = min((s for s in live_before if s != x), default=None)
    if w is None:
        raise NotSortableError((x, x1, x2, y), len(live_before))
    z = next(fresh)
    return Event(MERGE, (x, w), (z,)), Event(SPLIT, (z,), (y, w))


def sort_events(c: CutGraph) -> tuple[CutGraph, int]:
    """Rewrite the event word until every merge precedes every split.

    Insertion sort by merge: the word read so far is sorted (its merges,
    then its splits), and each next merge sinks through the split block
    to its bottom by adjacent transpositions, one rewrite per split it
    passes.  Passing a split that makes none of the merge's current
    inputs is a commute that changes neither event, so only the splits
    that make one are rewritten, the highest first, found by one bisect
    per input in each strand's ascending list of the splits that output
    it.  This costs O(n + k), plus O(log n + r) per rewrite whose split
    and merge share a strand, for r splits that output one strand (a
    bubble re-emits its borrowed strand; r <= 2 on the perfbench
    harmonize cuts), plus O(n + k) per bubble.  Boundaries are
    unchanged.  Raises NotSortableError when a bubble has no strand to
    borrow.

    On a cut that ``cut`` makes, with k strands and m merges, it raises
    exactly when k <= m.  If k <= m, no sorted word exists: its m-th merge
    would run on k - (m - 1) < 2 live strands; a rewrite fails only at a
    bubble with nothing to borrow, and one that succeeds keeps the word
    valid, so the sort stops at such a bubble.  If k > m, the bubble met
    while the j-th merge passes split i (from 0) sees k - (j - 1) + i >=
    k - (m - 1) >= 2 strands live below it, one besides the split's input
    to borrow.  A borrow restricted to fewer strands, such as one sheet
    of a divisible class, must prove its own rule.

    A word that re-emits a consumed strand id (``cut`` never makes one)
    is sorted by the same rule, so a rewrite can emit an id still live
    where it lands; the checked replay of a bubble's prefix or of the
    result then raises ValueError naming the event, even where another
    rewrite order would succeed.  Of 3,000 such words from
    ``tests/graphgen.random_reusing_word`` (``random.Random(4444)``), 23
    are rejected so; the full-replay reference sorts 14 of those, 4 to a
    valid word.
    """
    # Every strand that is ever live is a bottom strand or an event output.
    born = [s for ev in c.events for s in ev.outputs]
    fresh = iter(range(max((*c.bottom, *born), default=-1) + 1, 10**9))

    merges: list[Event] = []
    splits: list[Event] = []
    # Strand -> the ascending indices of the splits that output it now.
    made: defaultdict[int, list[int]] = defaultdict(list)

    def maker(s: int, below: int) -> int:
        """The highest split below index ``below`` that outputs ``s``, or -1."""
        at = made.get(s, ())
        k = bisect_left(at, below)
        return at[k - 1] if k else -1

    rewrites = 0
    for ev in c.events:
        if ev.kind == SPLIT:
            for s in ev.outputs:
                made[s].append(len(splits))
            splits.append(ev)
            continue
        rewrites += len(splits)
        merge, below = ev, len(splits)
        while (j := max(maker(merge.inputs[0], below), maker(merge.inputs[1], below))) >= 0:
            split = splits[j]
            # Only a bubble borrows a strand, so only it reads the live set.
            bubble = split.outputs[0] in merge.inputs and split.outputs[1] in merge.inputs
            live = live_after(c.bottom, merges + splits[:j]) if bubble else ()
            merge, splits[j] = _transpose(split, merge, live, fresh)
            for s in split.outputs:
                made[s].remove(j)
            for s in splits[j].outputs:
                insort(made[s], j)
            below = j
        merges.append(merge)

    return replace(c, events=tuple(merges + splits)), rewrites


def reglue(c: CutGraph) -> Foliation:
    """Reassemble a foliation graph from a cut.

    Events become vertices at increasing angles in word order (merges of a
    sorted word land in (0, 1/2), splits in (1/2, 1)); maximal strand runs
    through the glue become edges, winding once per glue pass except that
    a run ending at an earlier vertex spends one pass wrapping the circle.
    """
    n = len(c.events)
    name = c.source if c.source.endswith("-reglued") else f"{c.source}-reglued"

    if n == 0:
        # No events: the glue orbits are covering circles; only a single
        # orbit regains a connected graph.
        if not c.bottom:
            raise RegluingError("empty cut")
        glue = dict(zip(c.top, c.bottom))
        orbit = {c.bottom[0]}
        s = glue[c.bottom[0]]
        while s not in orbit:
            orbit.add(s)
            s = glue[s]
        if len(orbit) != len(c.bottom):
            raise RegluingError("glue splits into several covering circles")
        return FreeCircle(name, len(c.bottom))

    # A strand id may label several disjoint segments of the word (the
    # bubble rule borrows and re-emits strands), so segments are numbered
    # by birth: the bottom strands in order, then the out-slots in word
    # order.  Each ends at an event's in-slot or at the top, where the
    # glue hands it on to the bottom segment at the same position.
    b = len(c.bottom)
    live = {s: k for k, s in enumerate(c.bottom)}  # strand -> its current segment
    # Event i's slot s is port 4 * i + s, as in the graph layer: in-slots
    # from 4 * i, out-slots from 4 * i + 2.
    born: list[int] = []  # the out-port of segment b + m
    dies: dict[int, int] = {}  # segment -> the in-port it ends at
    for i, (_, ins, outs) in enumerate(c.events):
        for port, s in enumerate(ins, start=4 * i):
            dies[live.pop(s)] = port
        for port, s in enumerate(outs, start=4 * i + 2):
            live[s] = b + len(born)
            born.append(port)
    wraps = {live[t]: k for k, t in enumerate(c.top)}

    heads, windings = [], []  # per edge m, from born[m]: its head's in-port and winding
    passed = [False] * b  # bottom segments some edge runs through
    for m, port in enumerate(born):
        seg, passes = b + m, 0
        while seg not in dies:
            seg = wraps[seg]
            passed[seg] = True
            passes += 1
        head = dies[seg]
        heads.append(head)
        windings.append(passes - 1 if head >> 2 < port >> 2 else passes)

    orphans = sorted(s for s, seen in zip(c.bottom, passed) if not seen)
    if orphans:
        raise RegluingError(
            f"glue orbit through strands {orphans} avoids every vertex"
        )

    # The tables go in id order, where "v10" sorts before "v2": event i
    # is the vertex at position at[i], and the edges go in the order eo.
    ids = [f"v{i}" for i in range(n)]
    vo = sorted(range(n), key=ids.__getitem__)
    at = [0] * n
    for p, i in enumerate(vo):
        at[i] = p
    eids = [f"e{m}" for m in range(len(born))]
    eo = sorted(range(len(born)), key=eids.__getitem__)
    tails, heads = [born[m] for m in eo], [heads[m] for m in eo]
    g = FoliationGraph._make(
        name,
        [ids[i] for i in vo],
        [c.events[i].kind for i in vo],
        [(i + 1) // gcd(i + 1, n + 1) for i in vo],
        [(n + 1) // gcd(i + 1, n + 1) for i in vo],
        [eids[m] for m in eo],
        [at[p >> 2] for p in tails],
        [p & 3 for p in tails],
        [at[p >> 2] for p in heads],
        [p & 3 for p in heads],
        [windings[m] for m in eo],
        SLOTS,
    )
    # Word order is angle order: seed the circular order instead of sorting.
    g.__dict__["_order"] = at
    # The checked cut guarantees every invariant of validate but connectivity.
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


def harmonize(g: Foliation) -> tuple[Foliation, ReductionTrace]:
    """Reduce until the Calabi condition holds.

    The result is Calabi and contiguous to the input; since complexity is
    a positive integer that strictly decreases, at most complexity(g)
    reductions happen.  A stuck step raises StuckError carrying the trace
    of the completed steps.
    """
    steps: list[ReductionStep] = []
    current = g
    while not _calabi_verdict(current):
        before, witness = complexity(current)
        c = cut(current, witness)
        try:
            sorted_cut, rewrites = sort_events(c)
            after_graph = reglue(sorted_cut)
        except (NotSortableError, RegluingError) as exc:
            raise StuckError(f"reduction of {current.name} stuck: {exc}", exc, ReductionTrace(tuple(steps))) from exc
        after, _ = complexity(after_graph)
        if after >= before:
            raise AssertionError("reduction did not decrease complexity")
        steps.append(ReductionStep(witness, before, after, rewrites, sorted_cut.events, current, after_graph))
        current = after_graph
    return current, ReductionTrace(tuple(steps))


def contiguous(g1: Foliation, g2: Foliation) -> bool:
    """Equal numbers of merges and of splits (hence equal genus).

    Compares these counts only, not the cohomology class: a bubble
    rewrite in ``harmonize`` can change the class, for example its
    divisibility (the gcd of the cycle periods) from 2 to 1.
    """

    def counts(g: Foliation) -> tuple[int, int]:
        if isinstance(g, FreeCircle):
            return 0, 0
        return g.merge_count(), g.split_count()

    return counts(g1) == counts(g2)
