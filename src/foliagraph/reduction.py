"""Complexity reduction: cut at a regular level, rearrange the crossing
events so every merge happens below every split, and reglue.

Cutting the circle at a regular angle turns the graph into a word of
events acting on strands (edge segments crossing the cut) between two
aligned boundaries: each top strand continues into the bottom strand at
the same position.  An event is a vertex in the graph layer's slot
vocabulary: ``Event(kind, inputs, outputs)`` holds one strand per slot
of ``IN_SLOTS[kind]`` and ``OUT_SLOTS[kind]``, in slot order, so ``cut``
reads it off a vertex's ports and ``reglue`` writes it back into the
graph's tables, both by the graph layer's slot indices (``SLOTS``).
Sorting the word by adjacent transpositions is the combinatorial shadow
of rearranging the Morse function to be self-indexing; regluing the
sorted word yields a graph with strictly smaller complexity and the same
number of merges and splits.  Iterating reaches a Calabi graph, or a
dead end (see ``harmonize``).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import defaultdict, namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, count
from math import gcd
from sys import maxsize

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
    _incident,
    _require_valid,
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


Event = namedtuple("Event", "kind inputs outputs")
Event.__doc__ = """A vertex of ``kind`` crossed by the cut word: it consumes the
strands ``inputs`` and produces ``outputs``, which line up with its slots
``IN_SLOTS[kind]`` and ``OUT_SLOTS[kind]``.  ``cut`` (per event) and the
sort (per rewritten split, and per moved merge as it lands) build them as
``tuple.__new__(Event, (kind, inputs, outputs))``: ``Event._make`` without
its length check, about 0.17 µs against 0.30 µs for ``Event(kind, inputs,
outputs)`` (CPython 3.11, ``timeit``)."""


class CutGraph(namedtuple("CutGraph", "bottom top events source")):
    """The graph cut open along a regular level.

    ``bottom``/``top`` list the strands at heights 0 and 1, aligned:
    ``top[i]`` continues across the cut into ``bottom[i]``.  ``events`` is
    the height-ordered word acting on the live strand set.

    Construction checks the cut: the word replays from ``bottom`` to
    ``top`` in one pass of ``live_after``, which raises at the first
    failing check, naming the event, and both boundaries have the same
    size, so the alignment is a bijection.  ValueError otherwise.  The
    named tuple's own ``_make``, and ``_replace``, which calls it, skip the
    check.  Two callers use ``_make``: ``cut``, since a valid graph's word
    replays by construction, and ``harmonize`` for its sorted cuts, since
    a sort of such a word that succeeds keeps it valid (see
    ``sort_events``).  ``sort_events`` itself checks its result.
    """

    __slots__ = ()

    def __new__(cls, bottom: tuple[int, ...], top: tuple[int, ...], events: tuple[Event, ...], source: str):
        live = set(top)
        if live_after(bottom, events) != live or len(top) != len(live):
            raise ValueError("replaying events does not yield the top strands")
        if len(bottom) != len(top):
            raise ValueError("boundary strand counts differ")
        return tuple.__new__(cls, (bottom, top, events, source))


def live_after(bottom: tuple[int, ...], events: Sequence[Event]) -> set[int]:
    """The strands live after the word ``events`` runs from ``bottom``,
    replayed with one mutable set in O(n + k), in one pass that raises
    ValueError at the first failing check: the bottom repeats a strand,
    or an event (named) has an unknown kind or strand counts that do not
    fit its kind's slots, consumes one strand twice, has colliding
    outputs, consumes a dead strand or, its inputs gone, outputs a live one.
    """
    live = set(bottom)
    if len(live) != len(bottom):
        raise ValueError("duplicate bottom strands")
    remove, add = live.remove, live.add
    for i, (kind, consumed, produced) in enumerate(events):
        if kind == MERGE and len(consumed) == 2 and len(produced) == 1:
            a, b = consumed
            if a == b:
                raise ValueError(f"event {i}: merge consumes strand {a} twice")
            if a not in live or b not in live:
                raise ValueError(f"event {i}: consumes dead strand(s) {sorted({a, b} - live)}")
            remove(a)
            remove(b)
            (y,) = produced
            if y in live:
                raise ValueError(f"event {i}: output {y} already live")
            add(y)
        elif kind == SPLIT and len(consumed) == 1 and len(produced) == 2:
            (x,) = consumed
            y, z = produced
            if y == z:
                raise ValueError(f"event {i}: split outputs collide")
            if x not in live:
                raise ValueError(f"event {i}: consumes dead strand(s) {[x]}")
            remove(x)
            if y in live or z in live:
                raise ValueError(f"event {i}: output {y if y in live else z} already live")
            add(y)
            add(z)
        elif kind in ARITY:
            raise ValueError(f"event {i}: {kind} takes {ARITY[kind][0]} input(s) and {ARITY[kind][1]} output(s)")
        else:
            raise ValueError(f"event {i}: unknown kind {kind!r}")
    return live


def cut(g: FoliationGraph, a: Fraction) -> CutGraph:
    """Cut open the graph along the regular level ``a``.

    Each edge falls into crossing-count + 1 segments; consecutive segments
    of one edge are glued across the cut: ``top[i]`` continues into
    ``bottom[i]``.  Events are the vertices ordered by height above the
    cut: the circular order rotated at its gap.  Reads only valid graphs
    (see ``validate``).  ValueError, from ``harmonize`` too, if the level
    holds more strands than a list can index.
    """
    _require_valid(g)
    if isinstance(g, FreeCircle):
        raise ValueError("cannot cut a vertex-free graph")
    return _cut(g, g._gap(a, "cut angle")[1])


def _cut(g: FoliationGraph, gap: int) -> CutGraph:
    """``cut`` of a valid graph at a level in ``gap`` of ``g._order``."""
    crossings = g._crossings(gap)
    strands = sum(crossings)
    if strands > maxsize:
        raise ValueError(f"cut level holds {strands} strands, more than a list can index")
    at = [0] * (4 * len(g._kinds))  # port 4 * vertex + slot -> segment
    bottom: list[int] = []
    top: list[int] = []
    k = 0  # the next strand id; an edge's segments are consecutive
    for t, ts, h, hs, n in zip(g._tail, g._tail_slot, g._head, g._head_slot, crossings):
        at[4 * t + ts] = k
        if n:
            bottom.extend(range(k + 1, k + n + 1))
            top.extend(range(k, k + n))
            k += n
        at[4 * h + hs] = k
        k += 1

    # Events are built as the Event docstring says, by tuple.__new__.
    new, events, kinds, order = tuple.__new__, [], g._kinds, g._order
    for v in order[gap:] + order[:gap]:
        kind = kinds[v]
        p = 4 * v  # its in-slots are ports p, p + 1 and its out-slots p + 2, p + 3
        if kind == MERGE:
            events.append(new(Event, (kind, (at[p], at[p + 1]), (at[p + 2],))))
        else:
            events.append(new(Event, (kind, (at[p],), (at[p + 2], at[p + 3]))))
    return CutGraph._make((tuple(bottom), tuple(top), tuple(events), g.name))


def sort_events(c: CutGraph) -> tuple[CutGraph, int]:
    """Rewrite the event word until every merge precedes every split.

    Insertion sort by merge: the word read so far is sorted (its merges,
    then its splits), and each next merge sinks through the split block
    to its bottom by adjacent transpositions, one rewrite per split it
    passes.  Passing a split that makes none of the merge's current
    inputs is a commute that changes neither event, so only the splits
    that make one are rewritten, the highest first, found by one bisect
    per input in each strand's ascending list of the splits that output
    it.  With z fresh, (x -> s, t; s, u -> y) becomes (x, u -> z; z -> t,
    y), moving only s to y in those lists, and a bubble (x -> s, t; s, t
    -> y) borrows the least strand w != x live below it and becomes (x,
    w -> z; z -> y, w).  The sinking merge is held as strands and built
    once, where it lands.  This costs O(n + k), plus O(log n + r) per
    rewrite whose split and merge share a strand, for r splits that
    output one strand (a bubble re-emits its borrowed strand; r <= 2 on
    the perfbench harmonize cuts), plus O(n + k) per bubble, which
    replays the word below it.  Boundaries are unchanged.  Raises
    NotSortableError when a bubble has no strand to borrow.

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

    The result is a checked ``CutGraph``: its word replays once more,
    which ``harmonize`` skips (see ``CutGraph``).
    """
    events, rewrites = _sort_events(c)
    return CutGraph(c.bottom, c.top, events, c.source), rewrites


def _sort_events(c: CutGraph) -> tuple[tuple[Event, ...], int]:
    """``sort_events``' word and rewrite count, without the check of the
    word it returns."""
    # Every strand that is ever live is a bottom strand or an event output.
    born = [s for ev in c.events for s in ev.outputs]
    fresh = count(max((*c.bottom, *born), default=-1) + 1)

    merges: list[Event] = []
    splits: list[Event] = []
    # Strand -> the ascending indices of the splits that output it now.
    made: defaultdict[int, list[int]] = defaultdict(list)
    get, new = made.get, tuple.__new__

    rewrites = 0
    for ev in c.events:
        if ev.kind == SPLIT:
            for s in ev.outputs:
                made[s].append(len(splits))
            splits.append(ev)
            continue
        # The sinking merge is (a, b) -> y, and an Event once it lands.
        n = below = len(splits)
        rewrites += n
        (a, b), (y,) = ev.inputs, ev.outputs
        while True:
            # The highest split below index ``below`` that outputs an input
            # of the merge, or -1: one bisect per input.
            at = get(a, ())
            k = bisect_left(at, below)
            j = at[k - 1] if k else -1
            at = get(b, ())
            k = bisect_left(at, below)
            if k and at[k - 1] > j:
                j = at[k - 1]
            if j < 0:
                break
            (x,), (x1, x2) = splits[j].inputs, splits[j].outputs
            z = next(fresh)
            if x1 in (a, b) and x2 in (a, b) and x1 != x2:
                # A bubble, the only rewrite that reads the live set.
                live = live_after(c.bottom, merges + splits[:j])
                w = min((s for s in live if s != x), default=None)
                if w is None:
                    raise NotSortableError((x, x1, x2, y), len(live))
                splits[j] = new(Event, (SPLIT, (z,), (y, w)))
                made[x1].remove(j)
                made[x2].remove(j)
                insort(made[y], j)
                insort(made[w], j)
                a, b = x, w
            else:
                # One output s feeds the merge (or x1 == x2, where a
                # rewrite re-emitted an id).
                s, other_x = (x1, x2) if x1 in (a, b) else (x2, x1)
                splits[j] = new(Event, (SPLIT, (z,), (other_x, y)))
                made[s].remove(j)
                insort(made[y], j)
                a, b = x, b if s == a else a
            y, below = z, j
        merges.append(ev if below == n else new(Event, (MERGE, (a, b), (y,))))

    return tuple(merges + splits), rewrites


@lru_cache(maxsize=16)
def _layout(kinds: tuple[str, ...]) -> tuple[dict, list[tuple[int, int]], tuple]:
    """What a graph reglued from a word takes from the word's kinds alone,
    MERGE or SPLIT in word order as a checked cut has them: the tables and
    indices its graphs share, by the names ``FoliationGraph._make`` takes,
    its edge starts, and its sweep less the bottom strand count.

    Memoized on the kinds for the last 16 word shapes, so ``harmonize``
    and ``reglue`` share one build per shape, and graphs of any call may
    hold the same lists: they are frozen, and nothing writes them.  A
    layout takes about 0.3 KB per event at 32 events, 0.6 KB at 800
    (``tracemalloc``, CPython 3.11): at most 160 KB for 32-event words.

    Event i becomes vertex ``v{i}`` at angle (i + 1)/(n + 1), and its
    out-slots, in word order, start the edges ``e0``, ``e1``, ...  The
    tables go in id order, where "v10" sorts before "v2": event i is the
    vertex at position ``_order[i]`` (which makes ``_order`` the circular
    order) and vertex v is event ``_rank[v]``.  So the vertex and edge ids,
    the kinds and angles, every edge's tail and the out-edge lists
    (``_succ``) are all fixed before any strand is read.  The starts hold,
    per edge in id order, its number m (its first segment is the m-th
    born, b + m for b bottom strands) and its tail's event.

    The sweep is fixed too, as (low, witness, witness gap, balance): the
    circular order is the word order and the count at gap 0 is b (see
    ``reglue``), so the count above rank k is b + ``balance[k]``, the
    running sum of +1 per SPLIT and -1 per MERGE, and its minimum is
    b + low.  The gap above rank k < n - 1 has midpoint
    (2k + 3)/(2n + 2); the last one wraps to 0, so it is the witness
    whenever it minimizes, and otherwise the first minimizing gap is.  An
    eventless word, which no graph has, gets witness 0 at gap 0, as a
    free circle has.
    """
    n = len(kinds)
    born: list[int] = []  # edge m starts at out-port born[m]; event i's are 4 * i + 2, 4 * i + 3
    for i, kind in enumerate(kinds):
        born += (4 * i + 2,) if kind == MERGE else (4 * i + 2, 4 * i + 3)
    ids = [f"v{i}" for i in range(n)]
    rank = sorted(range(n), key=ids.__getitem__)
    order = [0] * n
    for v, i in enumerate(rank):
        order[i] = v
    eids = [f"e{m}" for m in range(len(born))]
    eo = sorted(range(len(born)), key=eids.__getitem__)
    tail = [order[born[m] >> 2] for m in eo]
    common = [gcd(i + 1, n + 1) for i in rank]  # of each angle's numerator and denominator
    balance = list(accumulate(1 if kind == SPLIT else -1 for kind in kinds))
    low = min(balance, default=0)
    if not balance or balance[-1] == low:
        witness, gap = Fraction(0), 0
    else:
        k = balance.index(low)
        witness, gap = Fraction(2 * k + 3, 2 * n + 2), k + 1
    return dict(
        _ids=[ids[i] for i in rank],
        _kinds=[kinds[i] for i in rank],
        _num=[(i + 1) // d for i, d in zip(rank, common)],
        _den=[(n + 1) // d for d in common],
        _eids=[eids[m] for m in eo],
        _tail=tail,
        _tail_slot=[born[m] & 3 for m in eo],
        _slots=SLOTS,
        _order=order,
        _rank=rank,
        _succ=_incident(n, tail),
    ), [(m, born[m] >> 2) for m in eo], (low, witness, gap, balance)


def reglue(c: CutGraph) -> FoliationGraph:
    """Reassemble a foliation graph from a cut.

    Events become vertices at increasing angles in word order (merges of a
    sorted word land in (0, 1/2), splits in (1/2, 1)); maximal strand runs
    through the glue become edges, winding once per glue pass except that
    a run ending at an earlier vertex spends one pass wrapping the circle.

    The vertices, the edge ids and tails, the circular order, the
    out-edge lists and the sweep less its base depend only on the word's
    kinds: they are its layout (``_layout``), built once per word shape
    and shared with ``harmonize`` and every later call.  Only the heads and
    windings, and the checks, read the strands.  The graph is handed its
    order, rank and out-edges from the layout, and its sweep: the layout's
    plus the crossing count at gap 0, which is the cut's level.  Each
    crossing there is one glue pass, and every bottom segment is passed
    exactly once (at least once, as the orphan check asserts, and at most
    once, since each segment follows one segment only), so the count is
    ``len(c.bottom)``.  The word replays from ``bottom`` to ``top``, as
    ``CutGraph`` checks and ``cut`` of a valid graph has it.  RegluingError is
    raised on a glue orbit that avoids every vertex and on a disconnected
    graph: two checks for hand-built cuts, an eventless one among them
    (``cut`` never makes one).  ``harmonize`` keeps the first, which
    ``_reglue`` makes as it walks the edges, and skips the union-find of
    the second: a reglued graph of a valid graph is connected.
    """
    g = _reglue(c, *_layout(tuple([ev.kind for ev in c.events])))
    if not _connected(g):
        raise RegluingError("reglued graph is disconnected")
    return g


def _reglue(c: CutGraph, shared: dict, starts: list[tuple[int, int]], sweep: tuple) -> FoliationGraph:
    """``reglue`` of a cut, given the layout of its word's kinds, without
    the connectivity check."""
    name = c.source if c.source.endswith("-reglued") else f"{c.source}-reglued"

    # A strand id may label several disjoint segments of the word (the
    # bubble rule borrows and re-emits strands), so segments are numbered
    # by birth: the bottom strands in order, then the out-slots in word
    # order.  Each ends at an event's in-slot or at the top, where the
    # glue hands it on to the bottom segment at the same position.  A
    # cut's events have their kind's arity: each MERGE two inputs and one
    # output, and each SPLIT one input and two outputs.
    b = len(c.bottom)
    live = dict(zip(c.bottom, range(b)))  # strand -> its current segment
    pop = live.pop
    # Event i's slot s is port 4 * i + s, as in the graph layer: in-slots
    # from 4 * i, out-slots from 4 * i + 2.
    dies = [-1] * (b + len(starts))  # segment -> the in-port it ends at, or -1 at the top
    seg, p = b, 0  # the next segment, and the event's first port
    for kind, ins, outs in c.events:
        dies[pop(ins[0])] = p
        if kind == MERGE:
            dies[pop(ins[1])] = p + 1
            live[outs[0]] = seg
            seg += 1
        else:
            live[outs[0]], live[outs[1]] = seg, seg + 1
            seg += 2
        p += 4
    wraps = [0] * len(dies)  # a segment that reaches the top -> its bottom segment
    for k, t in enumerate(c.top):
        wraps[live[t]] = k

    # Each edge runs from its out-port through the glue to an in-port.
    head, head_slot, winding = [], [], []
    passed = [False] * b  # bottom segments some edge runs through
    order = shared["_order"]
    for m, t in starts:
        seg, passes = b + m, 0
        while dies[seg] < 0:
            seg = wraps[seg]
            passed[seg] = True
            passes += 1
        h = dies[seg]
        head.append(order[h >> 2])
        head_slot.append(h & 3)
        winding.append(passes - 1 if h >> 2 < t else passes)

    if not all(passed):
        orphans = sorted(s for s, seen in zip(c.bottom, passed) if not seen)
        raise RegluingError(
            f"glue orbit through strands {orphans} avoids every vertex"
        )

    # Hand over what the layout and the cut already hold (see reglue).
    low, witness, gap, balance = sweep
    return FoliationGraph._make(
        **shared, name=name, _head=head, _head_slot=head_slot, _winding=winding,
        _sweep=(b + low, witness, gap, [b + x for x in balance]),
    )


class ReductionStep(namedtuple(
    "ReductionStep", "cut_angle complexity_before complexity_after rewrites word graph_before graph_after"
)):
    """One completed reduction.  ``graph_before``/``graph_after`` carry the
    graphs themselves; equality compares them too, but the repr and the
    hash show only the deterministic record, the first five fields."""

    __slots__ = ()

    def __repr__(self):
        return (
            "ReductionStep(cut_angle={!r}, complexity_before={!r}, complexity_after={!r}, rewrites={!r}, word={!r})"
        ).format(*self[:5])

    def __hash__(self):
        return hash(self[:5])


ReductionTrace = namedtuple("ReductionTrace", "steps", defaults=((),))


def harmonize(g: Foliation) -> tuple[Foliation, ReductionTrace]:
    """Reduce until the Calabi condition holds.

    The result is Calabi and contiguous to the input; since complexity is
    a positive integer that strictly decreases, at most complexity(g)
    reductions happen.  Each step cuts at a level the sweep counted.  With
    complexity c and m merges, it is the witness if the witness level has
    c > m strands.  Otherwise it is the level with the fewest strands k
    such that m < k < c + m, ties going to the lowest gap (gap 0 wraps):
    by ``sort_events``' rule a cut with k > m strands sorts, and the
    reglued level between the merge block and the split block has
    k - m < c strands.  If no level qualifies, the step cuts at the
    witness, the sort jams, and StuckError is raised carrying the trace of
    the completed steps.  That is the one case left: adjacent levels
    differ by one strand and a graph of complexity 1 is Calabi, so no
    level qualifies only where every level has at most m strands, as in
    ``tests/data/dead_end_v6.graph``.  A completed step's graph is never
    such a dead end: its merges lie below its splits, so the level above
    its lowest merge has c + m - 1 > m strands.  Reads only valid graphs
    (see ``validate``): it validates its input, and each step's graph is
    valid when its source is, so the loop runs no ``validate`` and a
    RegluingError would be a bug, which propagates.

    The loop keeps the public calls' checks only where they can fail.  It
    sorts with ``_sort_events`` and builds the sorted cut unchecked, with
    ``CutGraph._make`` (as ``_replace`` would): the cut of a valid graph
    replays, and a rewrite that succeeds keeps its word valid (see
    ``sort_events``).  It reglues with ``_reglue``, which skips the
    connectivity test, since the graph is valid.  Every sorted word of
    the chain has the same kinds, its m merges and then as many splits,
    so every step reglues with the one layout (see ``reglue``) of that
    shape, which the memo builds for a merge count no recent call had,
    and each reglued graph holds its sweep from it: only the input is swept.
    """
    _require_valid(g)
    steps: list[ReductionStep] = []
    current, layout = g, None
    while not _calabi_verdict(current):
        if layout is None:
            merges = current.merge_count()
            layout = _layout((MERGE,) * merges + (SPLIT,) * merges)
        before, angle, gap, counts = current._sweep
        if before <= merges:
            # The witness level jams: take the fewest strands that sort and
            # still lower complexity, if any level has them, at the lowest
            # gap.  The level above rank r is in gap r + 1, or 0 for the last.
            fits = [(k, (r + 1) % len(counts), r) for r, k in enumerate(counts) if merges < k < before + merges]
            if fits:
                _, gap, r = min(fits)
                angle = current._midpoint(r)
        c = _cut(current, gap)
        try:
            events, rewrites = _sort_events(c)
            after_graph = _reglue(CutGraph._make((c.bottom, c.top, events, c.source)), *layout)
        except NotSortableError as exc:
            raise StuckError(f"reduction of {current.name} stuck: {exc}", exc, ReductionTrace(tuple(steps))) from exc
        after = after_graph._sweep[0]
        if after >= before:
            raise AssertionError("reduction did not decrease complexity")
        steps.append(ReductionStep(angle, before, after, rewrites, events, current, after_graph))
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
