import random
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliagraph import (
    MERGE,
    SPLIT,
    CutGraph,
    FreeCircle,
    Merge,
    NotSortableError,
    Split,
    StuckError,
    builtin,
    complexity,
    contiguous,
    cut,
    harmonize,
    is_calabi,
    reduce_once,
    reglue,
    sort_events,
    validate,
)
from foliagraph.graph import FoliationGraph, regular_levels
import foliagraph.reduction as reduction
from foliagraph.reduction import RegluingError, _transpose

from graphgen import is_theta, random_non_calabi_graph, random_valid_graph, reglue_rotates


def test_cut_dumbbell_matches_hand_replay():
    c = cut(builtin("dumbbell"), Fraction(0))
    assert len(c.bottom) == len(c.top) == 2
    assert len(c.events) == 2
    split, merge = c.events
    assert isinstance(split, Split) and isinstance(merge, Merge)
    p, q = c.bottom
    # The split consumes one bottom strand, the merge eats one split
    # output together with the other bottom strand.
    assert split.input == p
    p1, p2 = split.outputs
    assert set(merge.inputs) == {p1, q}
    r = merge.output
    assert set(c.top) == {p2, r}
    assert c.glue_map == {p2: p, r: q}


def test_cut_theta_single_strand():
    c = cut(builtin("theta"), Fraction(0))
    assert len(c.bottom) == 1 and len(c.top) == 1
    assert isinstance(c.events[0], Split) and isinstance(c.events[1], Merge)


def test_cut_rejects_free_circle_and_singular_angle():
    with pytest.raises(ValueError):
        cut(builtin("free-circle(2)"), Fraction(0))
    with pytest.raises(ValueError):
        cut(builtin("theta"), Fraction(1, 4))


def test_sort_dumbbell_one_rewrite():
    c = cut(builtin("dumbbell"), Fraction(0))
    sorted_cut, rewrites = sort_events(c)
    assert rewrites == 1
    merge, split = sorted_cut.events
    assert isinstance(merge, Merge) and isinstance(split, Split)
    # Case (ii): merge the split's input with the other bottom strand,
    # then split into the original outward strands.
    assert set(merge.inputs) == set(c.bottom)
    assert set(split.outputs) == set(c.top)
    assert sorted_cut.bottom == c.bottom
    assert sorted_cut.top == c.top
    assert sorted_cut.glue == c.glue


def test_sort_already_sorted_is_identity():
    c = cut(builtin("dumbbell"), Fraction(0))
    once, _ = sort_events(c)
    twice, rewrites = sort_events(once)
    assert rewrites == 0
    assert twice.events == once.events


def test_sort_single_strand_bubble_not_sortable():
    c = cut(builtin("theta"), Fraction(0))
    with pytest.raises(NotSortableError) as exc:
        sort_events(c)
    assert exc.value.live == 1


def test_sort_borrows_smallest_strand():
    # A bubble beside a parallel strand is sortable via the borrow rule.
    word = (Split(0, (2, 3)), Merge((2, 3), 4))
    c = CutGraph((0, 1), (4, 1), word, ((4, 0), (1, 1)), "bubble", Fraction(0))
    sorted_cut, rewrites = sort_events(c)
    assert rewrites == 1
    merge, split = sorted_cut.events
    assert merge.inputs == (0, 1)
    assert split.outputs == (4, 1)
    levels = replay(sorted_cut.bottom, sorted_cut.events)
    assert levels[1] == frozenset({merge.output})


@pytest.mark.parametrize(
    "bottom, top, events, glue, message",
    [
        ((0, 0), (0, 0), (), ((0, 0),), "duplicate bottom strands"),
        ((0,), (2,), (Merge((0, 1), 2),), ((2, 0),), "dead strand"),
        ((0, 1), (2, 1), (Merge((0, 0), 2),), ((2, 0), (1, 1)), "consumes strand 0 twice"),
        ((0,), (1, 1), (Split(0, (1, 1)),), ((1, 0),), "split outputs collide"),
        ((0, 1), (1, 2), (Split(0, (1, 2)),), ((1, 0), (2, 1)), "output 1 already live"),
        ((0,), (1,), (Split(0, (1, 2)),), ((1, 0),), "does not yield the top strands"),
        ((0, 1), (2,), (Merge((0, 1), 2),), ((2, 0),), "boundary strand counts differ"),
        ((0, 1), (0, 1), (), ((0, 0), (1, 0)), "glue is not a bijection"),
    ],
)
def test_malformed_cut_rejected_at_construction(bottom, top, events, glue, message):
    with pytest.raises(ValueError, match=message):
        CutGraph(bottom, top, events, glue, "bad", Fraction(0))


def test_reglue_sorted_dumbbell_is_theta():
    assert is_theta(builtin("theta")) and not is_theta(builtin("dumbbell"))
    c, _ = sort_events(cut(builtin("dumbbell"), Fraction(0)))
    g = reglue(c)
    assert validate(g).ok
    assert is_theta(g)
    assert complexity(g)[0] == 1


def test_reglue_roundtrip_without_sorting():
    for name in ("dumbbell", "theta"):
        g = builtin(name)
        assert reglue_rotates(g, Fraction(0), reglue(cut(g, Fraction(0))))


def test_reglue_roundtrip_at_400_vertices():
    # Out of reach of an isomorphism search; the rotation map is O(V + E).
    g = random_valid_graph(random.Random(400), n_pairs=200)
    levels = regular_levels(g)
    for a in levels[:: len(levels) // 20][:20]:
        assert reglue_rotates(g, a, reglue(cut(g, a)))


def test_reglue_rotates_rejects_mutants():
    g = random_valid_graph(random.Random(41), n_pairs=6)
    a = regular_levels(g)[3]
    g2 = reglue(cut(g, a))
    assert reglue_rotates(g, a, g2)

    first, *rest = g2.edges
    assert not reglue_rotates(g, a, replace(g2, edges=(replace(first, winding=first.winding + 1), *rest)))

    m = next(v.id for v in g2.vertices if v.kind == MERGE)
    e0, e1 = (e for e in g2.edges if e.head.vertex == m)
    others = tuple(e for e in g2.edges if e not in (e0, e1))
    swapped = replace(g2, edges=(*others, replace(e0, head=e1.head), replace(e1, head=e0.head)))
    assert not reglue_rotates(g, a, swapped)

    s = next(v.id for v in g2.vertices if v.kind == SPLIT)
    flip = {m: SPLIT, s: MERGE}
    flipped = replace(g2, vertices=tuple(replace(v, kind=flip.get(v.id, v.kind)) for v in g2.vertices))
    assert not reglue_rotates(g, a, flipped)


def test_reglue_vertex_free_cut():
    c = CutGraph((0, 1, 2), (0, 1, 2), (), ((0, 1), (1, 2), (2, 0)), "cover", Fraction(0))
    fc = reglue(c)
    assert fc == FreeCircle("cover-reglued", 3)
    # Two orbits cannot reassemble into one connected object.
    c2 = CutGraph((0, 1), (0, 1), (), ((0, 0), (1, 1)), "split-cover", Fraction(0))
    with pytest.raises(RegluingError):
        reglue(c2)


def test_reglue_rejects_two_component_word():
    # Two bubbles on separate strands reglue into two disjoint thetas.
    word = (Split(0, (2, 3)), Merge((2, 3), 4), Split(1, (5, 6)), Merge((5, 6), 7))
    c = CutGraph((0, 1), (4, 7), word, ((4, 0), (7, 1)), "pair", Fraction(0))
    with pytest.raises(RegluingError, match="disconnected"):
        reglue(c)


def test_reduce_once_dumbbell():
    g = reduce_once(builtin("dumbbell"))
    assert is_theta(g)
    assert complexity(g)[0] == 1


def test_reduce_once_rejects_calabi_input():
    with pytest.raises(ValueError):
        reduce_once(builtin("theta"))


def test_harmonize_fixed_points():
    th = builtin("theta")
    result, trace = harmonize(th)
    assert result == th and trace.steps == ()
    fc = builtin("free-circle(4)")
    result, trace = harmonize(fc)
    assert result == fc and trace.steps == ()


def test_harmonize_dumbbell():
    result, trace = harmonize(builtin("dumbbell"))
    assert len(trace.steps) == 1
    assert is_theta(result)
    step = trace.steps[0]
    assert (step.cut_angle, step.complexity_before, step.complexity_after) == (0, 2, 1)
    assert step.rewrites == 1


MULTISTEP_FIXTURE = """\
graph slow
  vertex m0 MERGE 4/17
  vertex s0 SPLIT 9/17
  edge e0 m0.out0 -> m0.in0 winding 1
  edge e1 s0.out0 -> m0.in1 winding 2
  edge e2 s0.out1 -> s0.in0 winding 1
end
"""


def test_harmonize_multi_step():
    # A heavily wound two-vertex graph needs three reductions: 4 -> 3 -> 2 -> 1.
    from foliagraph import parse

    g = parse(MULTISTEP_FIXTURE)
    assert validate(g).ok and not is_calabi(g).verdict
    result, trace = harmonize(g)
    assert [(s.complexity_before, s.complexity_after) for s in trace.steps] == [
        (4, 3),
        (3, 2),
        (2, 1),
    ]
    assert is_theta(result)
    assert contiguous(g, result)


def test_contiguous():
    assert contiguous(builtin("dumbbell"), builtin("theta"))
    assert not contiguous(builtin("theta"), builtin("free-circle(1)"))
    g = builtin("dumbbell")
    assert contiguous(g, g)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_roundtrip_at_random_regular_angle(seed):
    rng = random.Random(seed)
    g = random_valid_graph(rng, max_pairs=4)
    angles = {v.angle for v in g.vertices}
    while True:
        a = Fraction(rng.randrange(1, 997), 997)
        if a not in angles:
            break
    c = cut(g, a)
    g2 = reglue(c)
    assert validate(g2).ok and reglue_rotates(g, a, g2)
    # reglue checks only connectivity; the rest follows from the cut.
    try:
        sorted_cut, _ = sort_events(c)
        g3 = reglue(sorted_cut)
    except (NotSortableError, RegluingError):
        return
    assert validate(g3).ok


def test_reglued_graph_keeps_angle_order():
    # ``reglue`` hands its graph the circular order instead of sorting the
    # angles; it must be the order the angles give.
    rng = random.Random(606)
    id_order_differs = 0
    for _ in range(60):
        g = random_valid_graph(rng, max_pairs=rng.choice((2, 4, 8)))
        for a in regular_levels(g):
            c = cut(g, a)
            cuts = [c]
            try:
                cuts.append(sort_events(c)[0])
            except NotSortableError:
                pass
            for c2 in cuts:
                try:
                    g2 = reglue(c2)
                except RegluingError:
                    continue
                by_angle = tuple(sorted(g2.vertices, key=lambda v: v.angle))
                assert g2._order == by_angle
                assert g2._rank == {v.id: k for k, v in enumerate(by_angle)}
                id_order_differs += g2.vertices != by_angle
    # Ids v10, v11, ... sort before v2, so the id order is no stand-in.
    assert id_order_differs


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_sort_preserves_interface_and_counting(seed):
    rng = random.Random(seed)
    g = random_non_calabi_graph(rng, max_pairs=4)
    k, witness = complexity(g)
    c = cut(g, witness)
    assert len(c.bottom) == k
    try:
        sorted_cut, _ = sort_events(c)
    except NotSortableError:
        assert k <= c.merge_count()
        return
    assert sorted_cut.bottom == c.bottom
    assert sorted_cut.top == c.top
    assert sorted_cut.glue == c.glue
    assert sorted_cut.merge_count() == c.merge_count()
    assert sorted_cut.split_count() == c.split_count()
    kinds = [type(e) for e in sorted_cut.events]
    assert kinds == sorted(kinds, key=lambda t: t is Split)
    # Separator level: everything merged, nothing split yet.
    levels = replay(sorted_cut.bottom, sorted_cut.events)
    separator = levels[sorted_cut.merge_count()]
    assert len(separator) == len(c.bottom) - c.merge_count() >= 1
    if c.events:
        assert len(separator) < len(c.bottom)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_reduce_once_contract(seed):
    rng = random.Random(seed)
    g = random_non_calabi_graph(rng, max_pairs=5)
    before, _ = complexity(g)
    try:
        g2 = reduce_once(g)
    except StuckError:
        assert before <= g.merge_count()
        return
    assert validate(g2).ok
    assert complexity(g2)[0] < before
    assert contiguous(g, g2)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_harmonize_contract(seed):
    rng = random.Random(seed)
    g = random_non_calabi_graph(rng, max_pairs=5)
    before, _ = complexity(g)
    try:
        result, trace = harmonize(g)
    except StuckError:
        return
    assert is_calabi(result).verdict
    assert contiguous(g, result)
    assert 1 <= len(trace.steps) <= before
    pairs = [(s.complexity_before, s.complexity_after) for s in trace.steps]
    assert all(a > b for a, b in pairs)
    assert all(pairs[i][1] == pairs[i + 1][0] for i in range(len(pairs) - 1))


def replay(bottom, events):
    """Every level of a valid word, each recomputed from the one below:
    the live strand set before each event and after the last one."""
    levels = [frozenset(bottom)]
    for ev in events:
        ins, outs = (ev.inputs, (ev.output,)) if isinstance(ev, Merge) else ((ev.input,), ev.outputs)
        levels.append(levels[-1].difference(ins).union(outs))
    return levels


def _sort_events_by_full_replay(c):
    """Reference sorter: replays the whole word before every rewrite and
    fixes the lowest (split, merge) inversion."""
    used = {s for pair in c.glue for s in pair}
    for ev in c.events:
        used.update((ev.inputs + (ev.output,)) if isinstance(ev, Merge) else ((ev.input,) + ev.outputs))
    fresh = iter(range(max(used, default=-1) + 1, 10**9))
    events, rewrites = list(c.events), 0
    while True:
        levels = replay(c.bottom, tuple(events))
        pos = next(
            (i for i in range(len(events) - 1) if isinstance(events[i], Split) and isinstance(events[i + 1], Merge)),
            None,
        )
        if pos is None:
            return tuple(events), rewrites
        events[pos], events[pos + 1] = _transpose(events[pos], events[pos + 1], levels[pos], fresh)
        rewrites += 1


def test_sort_events_matches_full_replay_reference():
    rng = random.Random(4242)
    sorted_words = stuck = 0
    for _ in range(60):
        g = random_valid_graph(rng, max_pairs=rng.choice((2, 4, 8)))
        for a in regular_levels(g):
            c = cut(g, a)
            try:
                want = _sort_events_by_full_replay(c)
            except NotSortableError as exc:
                with pytest.raises(NotSortableError, match=re.escape(str(exc))):
                    sort_events(c)
                stuck += 1
                continue
            sorted_cut, rewrites = sort_events(c)
            assert (sorted_cut.events, rewrites) == want
            sorted_words += 1
    assert sorted_words and stuck


def test_harmonize_replays_each_word_at_most_twice_per_step(monkeypatch):
    # Two full-word checks per step, when ``cut`` and ``sort_events`` each
    # construct a CutGraph, plus one prefix replay per bubble, the only
    # rewrite that reads a live set.  No event runs outside a replay, so
    # commuting and shared-strand rewrites build no set.
    replays = replayed = applied = bubbles = 0
    real_live_after, real_apply, real_transpose = reduction.live_after, reduction._apply, _transpose

    def counting_live_after(bottom, events):
        nonlocal replays, replayed
        replays += 1
        replayed += len(events)
        return real_live_after(bottom, events)

    def counting_apply(live, ev, i):
        nonlocal applied
        applied += 1
        return real_apply(live, ev, i)

    def counting_transpose(split, merge, live_before, fresh):
        nonlocal bubbles
        bubbles += set(split.outputs) == set(merge.inputs)
        return real_transpose(split, merge, live_before, fresh)

    monkeypatch.setattr(reduction, "live_after", counting_live_after)
    monkeypatch.setattr(reduction, "_apply", counting_apply)
    monkeypatch.setattr(reduction, "_transpose", counting_transpose)
    rng = random.Random(2024_11)
    steps = rewrites = 0
    for _ in range(40):
        g = random_non_calabi_graph(rng, max_pairs=8)
        try:
            _, trace = harmonize(g)
            steps += len(trace.steps)
        except StuckError as exc:
            trace = exc.trace
            steps += len(trace.steps) + 1
        rewrites += sum(s.rewrites for s in trace.steps)
    assert steps and bubbles and rewrites > 10 * bubbles
    assert replays <= 2 * steps + bubbles
    assert applied == replayed


def test_harmonize_sweeps_each_graph_once(monkeypatch):
    # ``_reduce_step`` needs the complexity of the graph it produced, and
    # the next step needs it again for its witness: one sweep serves both.
    sweep = FoliationGraph.__dict__["_complexity"]
    real_sweep = sweep.func
    calls = 0

    def counting_sweep(g):
        nonlocal calls
        calls += 1
        return real_sweep(g)

    monkeypatch.setattr(sweep, "func", counting_sweep)
    rng = random.Random(2024_12)
    graphs = 0
    for _ in range(40):
        g = random_non_calabi_graph(rng, max_pairs=8)
        try:
            _, trace = harmonize(g)
        except StuckError as exc:
            trace = exc.trace
        graphs += 1 + len(trace.steps)
    assert graphs > 40 and calls <= graphs
