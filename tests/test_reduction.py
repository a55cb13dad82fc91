import hashlib
import itertools
import random
import re
from collections.abc import Collection, Iterator
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foliagraph import (
    MERGE,
    SPLIT,
    CutGraph,
    End,
    Event,
    FreeCircle,
    NotSortableError,
    ReductionTrace,
    StuckError,
    builtin,
    complexity,
    contiguous,
    cut,
    euler_genus,
    harmonize,
    is_calabi,
    parse,
    reglue,
    serialize,
    sort_events,
    validate,
    ValidationReport,
    Vertex,
)
from foliagraph.graph import _TABLES, FoliationGraph
import foliagraph.reduction as reduction
from foliagraph.reduction import RegluingError, live_after

from graphgen import (
    DEAD_END_V6,
    HUGE_WINDING,
    check_trace,
    exhaustive_valid_graphs,
    is_theta,
    oracle_crossing_count,
    random_non_calabi_graph,
    random_reusing_word,
    random_valid_graph,
    reglue_rotates,
    regular_levels,
)


def test_cut_dumbbell_matches_hand_replay():
    c = cut(builtin("dumbbell"), Fraction(0))
    assert len(c.bottom) == len(c.top) == 2
    assert len(c.events) == 2
    split, merge = c.events
    assert (split.kind, merge.kind) == (SPLIT, MERGE)
    p, q = c.bottom
    # The split consumes one bottom strand, the merge eats one split
    # output together with the other bottom strand.
    assert split.inputs == (p,)
    p1, p2 = split.outputs
    assert set(merge.inputs) == {p1, q}
    (r,) = merge.outputs
    assert dict(zip(c.top, c.bottom)) == {p2: p, r: q}


def test_cut_theta_single_strand():
    c = cut(builtin("theta"), Fraction(0))
    assert len(c.bottom) == 1 and len(c.top) == 1
    assert [ev.kind for ev in c.events] == [SPLIT, MERGE]


def test_cut_rejects_free_circle_and_singular_angle():
    with pytest.raises(ValueError):
        cut(builtin("free-circle(2)"), Fraction(0))
    with pytest.raises(ValueError):
        cut(builtin("theta"), Fraction(1, 4))


def _builtin_with(name, vertex=None, edge=None):
    """The builtin graph ``name`` with its vertex ``s`` or its edge ``e1``
    replaced by what the given function makes of it."""
    g = builtin(name)
    return FoliationGraph(
        "broken",
        [vertex(v) if vertex and v.id == "s" else v for v in g.vertices],
        [edge(e) if edge and e.id == "e1" else e for e in g.edges],
    )


def _saddle(v):
    return Vertex(v.id, "SADDLE", v.angle)


def _algorithms(g):
    """Every algorithm that reads only valid graphs, as calls on ``g``."""
    return [
        lambda: complexity(g),
        lambda: is_calabi(g),
        lambda: euler_genus(g),
        lambda: cut(g, Fraction(0)),
        lambda: harmonize(g),
    ]


@pytest.mark.parametrize(
    "g, message",
    [
        (_builtin_with("dumbbell", vertex=_saddle), "vertex s: unknown kind SADDLE"),
        (_builtin_with("dumbbell", edge=lambda e: e._replace(tail=End("zz", e.tail.slot))), "edge e1: unknown vertex zz"),
        (_builtin_with("dumbbell", edge=lambda e: e._replace(head=End("zz", e.head.slot))), "edge e1: unknown vertex zz"),
        (
            _builtin_with("dumbbell", edge=lambda e: e._replace(tail=End("s", "out7"))),
            "edge e1: slot s.out7 not an out-slot of a SPLIT vertex",
        ),
        # Theta is Calabi whatever its kinds say, so its strong
        # connectivity alone would pass it, and harmonize's loop never runs.
        (_builtin_with("theta", vertex=_saddle), "vertex s: unknown kind SADDLE"),
        (FoliationGraph("empty", [], []), "graph has no vertices (use a free circle record instead)"),
        (FreeCircle("x", 0), "free circle winding must be >= 1"),
    ],
)
def test_cut_and_harmonize_name_what_an_invalid_graph_breaks(g, message):
    # Each algorithm raises validate's first violation, whichever part of
    # the graph it reads first.
    assert validate(g).violations[0] == message
    for call in _algorithms(g):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def _is_exact_event(ev):
    want = Event(kind=ev.kind, inputs=ev.inputs, outputs=ev.outputs)
    return type(ev) is Event and ev == want and repr(ev) == repr(want)


def test_cut_and_sort_events_return_exact_events():
    rng = random.Random(2026_09)
    graphs = [builtin("dumbbell"), builtin("theta")] + [random_valid_graph(rng, max_pairs=6) for _ in range(30)]
    cuts = sorted_cuts = 0
    for g in graphs:
        for a in regular_levels(g):
            c = cut(g, a)
            assert all(map(_is_exact_event, c.events))
            cuts += 1
            try:
                sorted_cut, _ = sort_events(c)
            except NotSortableError:
                continue
            assert all(map(_is_exact_event, sorted_cut.events))
            sorted_cuts += 1
    assert sorted_cuts > 100 and cuts > sorted_cuts


def _digest_graphs():
    """The digest test's 300 seeded non-Calabi graphs of up to 32 vertices."""
    rng = random.Random(2026_10)
    return [random_non_calabi_graph(rng, max_pairs=16) for _ in range(300)]


def test_harmonize_outputs_match_the_recorded_digest():
    # One sha256 over harmonize's whole output on 300 seeded graphs: the
    # result text, then each step's record and graph_after text.  Any
    # change to a word, strand id, angle or message moves it.  A second
    # digest covers only the runs whose every step cut at the complexity
    # witness, 275 of the 300: cutting only there, the other 25 get stuck.
    # Every run passes check_trace, and some steps leave the witness,
    # because its level has too few strands to sort.
    digest, at_witness = hashlib.sha256(), hashlib.sha256()
    stuck = witness_runs = steps = rerouted = 0
    for g in _digest_graphs():
        try:
            result, trace = harmonize(g)
        except StuckError:
            stuck += 1
            continue
        assert check_trace(g, result, trace) == []
        lines = [serialize(result)]
        for step in trace.steps:
            lines += [repr(step), serialize(step.graph_after)]
        text = "\n".join(lines).encode() + b"\0"
        digest.update(text)
        off_witness = sum(step.cut_angle != complexity(step.graph_before)[1] for step in trace.steps)
        steps += len(trace.steps)
        rerouted += off_witness
        if not off_witness:
            witness_runs += 1
            at_witness.update(text)
    assert witness_runs == 275
    assert at_witness.hexdigest() == "ce81ce73cfd13810920708687c4f88d2e74b0dc0cb95be97ed4223a0b50a9582"
    assert stuck == 0
    assert digest.hexdigest() == "ecdf4feb86ad8ef198680f559e5d59ab1205649be3ff4934fae40f364d223aa6"
    assert steps > 600 and rerouted >= 25


def test_harmonize_takes_the_wrapping_gap_first_among_ties():
    # Turning every angle by one amount turns each level with its
    # crossings.  The first graph of this seed jams at the witness of its
    # second step's graph; turned so that the level the rule picks there
    # wraps, it lies in gap 0, which wins its tie with another level of as
    # many strands.
    g = random_non_calabi_graph(random.Random(2024_03), max_pairs=6)
    step = harmonize(g)[1].steps[1]
    h = step.graph_before
    assert step.cut_angle != complexity(h)[1]
    turned = FoliationGraph("turned", [v._replace(angle=(v.angle - step.cut_angle) % 1) for v in h.vertices], h.edges)
    result, trace = harmonize(turned)
    first = trace.steps[0]
    assert first.cut_angle == 0 and check_trace(turned, result, trace) == []
    assert (first.complexity_before, first.complexity_after) == (step.complexity_before, step.complexity_after)


def test_sort_dumbbell_one_rewrite():
    c = cut(builtin("dumbbell"), Fraction(0))
    sorted_cut, rewrites = sort_events(c)
    assert rewrites == 1
    merge, split = sorted_cut.events
    assert (merge.kind, split.kind) == (MERGE, SPLIT)
    # Case (ii): merge the split's input with the other bottom strand,
    # then split into the original outward strands.
    assert set(merge.inputs) == set(c.bottom)
    assert set(split.outputs) == set(c.top)
    assert sorted_cut.bottom == c.bottom
    assert sorted_cut.top == c.top


def test_sort_draws_fresh_ids_past_any_bound():
    # A bubble's fresh strand comes after the largest id in the word,
    # however large: the word at offset 10**9 sorts to the offset-0 result
    # with every id shifted.
    def word(b):
        events = (Event(SPLIT, (b,), (b + 2, b + 3)), Event(MERGE, (b + 2, b + 1), (b + 4,)))
        return CutGraph((b, b + 1), (b + 3, b + 4), events, "big")

    def shifted(ev, b):
        return Event(ev.kind, tuple(s + b for s in ev.inputs), tuple(s + b for s in ev.outputs))

    b = 10**9
    (small, rewrites), (big, big_rewrites) = sort_events(word(0)), sort_events(word(b))
    assert big_rewrites == rewrites == 1
    assert big.events == tuple(shifted(ev, b) for ev in small.events)


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
    word = (Event(SPLIT, (0,), (2, 3)), Event(MERGE, (2, 3), (4,)))
    c = CutGraph((0, 1), (4, 1), word, "bubble")
    sorted_cut, rewrites = sort_events(c)
    assert rewrites == 1
    merge, split = sorted_cut.events
    assert merge.inputs == (0, 1)
    assert split.outputs == (4, 1)
    levels = replay(sorted_cut.bottom, sorted_cut.events)
    assert levels[1] == frozenset(merge.outputs)


@pytest.mark.parametrize(
    "bottom, top, events, message",
    [
        ((0, 0), (0, 0), (), "duplicate bottom strands"),
        ((0,), (2,), (Event(MERGE, (0, 1), (2,)),), "dead strand"),
        ((0, 1), (2, 1), (Event(MERGE, (0, 0), (2,)),), "consumes strand 0 twice"),
        ((0,), (1, 1), (Event(SPLIT, (0,), (1, 1)),), "split outputs collide"),
        ((0, 1), (1, 2), (Event(SPLIT, (0,), (1, 2)),), "output 1 already live"),
        ((0,), (1,), (Event(SPLIT, (0,), (1, 2)),), "does not yield the top strands"),
        ((0, 1), (2,), (Event(MERGE, (0, 1), (2,)),), "boundary strand counts differ"),
        ((0,), (1,), (Event("SADDLE", (0,), (1,)),), r"event 0: unknown kind 'SADDLE'"),
        ((0, 1, 2), (3,), (Event(MERGE, (0, 1, 2), (3,)),), r"event 0: MERGE takes 2 input\(s\) and 1 output\(s\)"),
        ((0,), (1, 2, 3), (Event(SPLIT, (0,), (1, 2, 3)),), r"event 0: SPLIT takes 1 input\(s\) and 2 output\(s\)"),
    ],
)
def test_malformed_cut_rejected_at_construction(bottom, top, events, message):
    with pytest.raises(ValueError, match=message):
        CutGraph(bottom, top, events, "bad")


def _live_after_reference(bottom, events):
    """The checked replay event by event with set operations and the
    checks in ``live_after``'s order: its reference."""
    live = set(bottom)
    if len(live) != len(bottom):
        raise ValueError("duplicate bottom strands")
    for i, (kind, consumed, produced) in enumerate(events):
        arity = {MERGE: (2, 1), SPLIT: (1, 2)}.get(kind)
        if arity is None:
            raise ValueError(f"event {i}: unknown kind {kind!r}")
        if arity != (len(consumed), len(produced)):
            raise ValueError(f"event {i}: {kind} takes {arity[0]} input(s) and {arity[1]} output(s)")
        if len(set(consumed)) < len(consumed):
            raise ValueError(f"event {i}: {kind.lower()} consumes strand {consumed[0]} twice")
        if len(set(produced)) < len(produced):
            raise ValueError(f"event {i}: {kind.lower()} outputs collide")
        if not live.issuperset(consumed):
            raise ValueError(f"event {i}: consumes dead strand(s) {sorted(set(consumed) - live)}")
        live.difference_update(consumed)
        if not live.isdisjoint(produced):
            raise ValueError(f"event {i}: output {next(s for s in produced if s in live)} already live")
        live.update(produced)
    return live


def _outcome(events, result):
    """Which of ``live_after``'s raise sites ``result`` (a live set or a
    message) came from: the event's kind and fault, and for a split's
    live output which output it was."""
    if not isinstance(result, str):
        return "ok"
    if result == "duplicate bottom strands":
        return "duplicate bottom"
    i, fault = re.fullmatch(r"event (\d+): (.*)", result).groups()
    kind, _, outputs = events[int(i)]
    if fault.startswith("unknown kind"):
        return "unknown kind"
    if "already live" in fault:
        live = int(fault.split()[1])
        return f"{kind} output live" if kind == MERGE else f"{kind} output {outputs.index(live)} live"
    faults = (("takes", "arity"), ("twice", "consumes twice"), ("collide", "outputs collide"), ("dead", "dead"))
    for word, name in faults:
        if word in fault:
            return f"{kind} {name}"
    raise AssertionError(result)


def test_live_after_matches_its_reference_on_random_words():
    # ``live_after`` runs each kind's checks in one pass and raises at the
    # first that fails: it must accept and reject the same words, with the
    # same messages, as the set-by-set replay, and the words must reach
    # every one of its raise sites.
    rng = random.Random(2026_12)
    outcomes = set()
    for _ in range(20_000):
        bottom = tuple(rng.sample(range(8), rng.randint(0, 5))) if rng.random() < 0.95 else (1, 1)
        events = []
        for _ in range(rng.randint(0, 4)):
            kind = rng.choice((MERGE, SPLIT, MERGE, SPLIT, "SADDLE"))
            ins, outs = {MERGE: (2, 1), SPLIT: (1, 2)}.get(kind, (1, 1))
            if rng.random() < 0.3:
                ins, outs = rng.randint(0, 3), rng.randint(0, 3)
            strands = [rng.randrange(8) for _ in range(ins + outs)]
            events.append(Event(kind, tuple(strands[:ins]), tuple(strands[ins:])))
        results = []
        for replay_ in (live_after, _live_after_reference):
            try:
                results.append(sorted(replay_(bottom, events)))
            except ValueError as exc:
                results.append(str(exc))
        assert results[0] == results[1], (bottom, events)
        outcomes.add(_outcome(events, results[0]))
    assert outcomes == {
        "ok",
        "duplicate bottom",
        "unknown kind",
        "MERGE arity",
        "SPLIT arity",
        "MERGE consumes twice",
        "SPLIT outputs collide",
        "MERGE dead",
        "SPLIT dead",
        "MERGE output live",
        "SPLIT output 0 live",
        "SPLIT output 1 live",
    }


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
    assert not reglue_rotates(g, a, FoliationGraph(g2.name, g2.vertices, (first._replace(winding=first.winding + 1), *rest)))

    m = next(v.id for v in g2.vertices if v.kind == MERGE)
    e0, e1 = (e for e in g2.edges if e.head.vertex == m)
    others = tuple(e for e in g2.edges if e not in (e0, e1))
    swapped = FoliationGraph(g2.name, g2.vertices, (*others, e0._replace(head=e1.head), e1._replace(head=e0.head)))
    assert not reglue_rotates(g, a, swapped)

    s = next(v.id for v in g2.vertices if v.kind == SPLIT)
    flip = {m: SPLIT, s: MERGE}
    flipped = FoliationGraph(g2.name, tuple(v._replace(kind=flip.get(v.id, v.kind)) for v in g2.vertices), g2.edges)
    assert not reglue_rotates(g, a, flipped)


def test_reglue_vertex_free_cut():
    # ``cut`` never makes an eventless word; a hand-built one meets the
    # general checks.  Its glue orbits avoid every vertex, and with no
    # strands at all the graph has no vertex to connect.
    for bottom, top in (((1, 2, 0), (0, 1, 2)), ((0, 1), (0, 1))):
        with pytest.raises(RegluingError) as exc:
            reglue(CutGraph(bottom, top, (), "cover"))
        assert str(exc.value) == f"glue orbit through strands {sorted(bottom)} avoids every vertex"
    with pytest.raises(RegluingError, match="^reglued graph is disconnected$"):
        reglue(CutGraph((), (), (), "e"))


def test_reglue_rejects_two_component_word():
    # Two bubbles on separate strands reglue into two disjoint thetas.
    word = (
        Event(SPLIT, (0,), (2, 3)),
        Event(MERGE, (2, 3), (4,)),
        Event(SPLIT, (1,), (5, 6)),
        Event(MERGE, (5, 6), (7,)),
    )
    c = CutGraph((0, 1), (4, 7), word, "pair")
    with pytest.raises(RegluingError, match="disconnected"):
        reglue(c)


def test_reglue_rejects_orphan_glue_orbit():
    # Strand 9 is glued to itself and meets no event: a covering circle
    # beside the graph.
    word = (Event(SPLIT, (0,), (1, 2)), Event(MERGE, (1, 2), (3,)))
    c = CutGraph((0, 9), (3, 9), word, "x")
    with pytest.raises(RegluingError) as exc:
        reglue(c)
    assert str(exc.value) == "glue orbit through strands [9] avoids every vertex"


def test_dead_end_v6_has_no_level_that_sorts():
    g = parse(Path(DEAD_END_V6).read_text())
    assert validate(g).ok and not is_calabi(g).verdict
    assert complexity(g)[0] == 2 and g.merge_count() == 3
    assert max(oracle_crossing_count(g, a) for a in regular_levels(g)) <= 3
    with pytest.raises(StuckError) as exc:
        harmonize(g)
    assert isinstance(exc.value.cause, NotSortableError)
    assert exc.value.trace == ReductionTrace()
    assert check_trace(g, None, exc.value.trace) == []


def test_cut_and_harmonize_name_a_level_too_large_to_index():
    # Valid, but every level holds over sys.maxsize strands: the word
    # cannot be built, and both say so before building it.
    g = parse(Path(HUGE_WINDING).read_text())
    assert validate(g).ok and complexity(g)[0] == 10**20 + 1
    message = f"cut level holds {10**20 + 1} strands, more than a list can index"
    for run in (lambda: cut(g, 0), lambda: harmonize(g)):
        with pytest.raises(ValueError, match=re.escape(message)):
            run()


def test_stuck_error_carries_the_completed_steps_and_its_cause(monkeypatch):
    g = parse(Path(DEAD_END_V6).read_text())
    with pytest.raises(StuckError) as exc:
        harmonize(g)
    stuck = exc.value
    assert isinstance(stuck.cause, NotSortableError)
    assert stuck.__cause__ is stuck.cause
    assert str(stuck) == f"reduction of x stuck: {stuck.cause}"

    # No known input gets stuck after a completed step: a step's graph
    # has its merges below its splits, so the level above its lowest
    # merge sorts unless complexity is 1, and such a graph is Calabi.  A
    # sort that jams from its second call on stands in for one; harmonize
    # calls the private sort, which skips the result check.
    real_sort, calls = reduction._sort_events, 0

    def jam_after_one(c):
        nonlocal calls
        calls += 1
        if calls > 1:
            raise NotSortableError((0, 1, 2, 3), 1)
        return real_sort(c)

    monkeypatch.setattr(reduction, "_sort_events", jam_after_one)
    g = parse(MULTISTEP_FIXTURE)
    with pytest.raises(StuckError) as exc:
        harmonize(g)
    stuck = exc.value
    assert len(stuck.trace.steps) == 1 and stuck.trace.steps[0].graph_before == g
    assert isinstance(stuck.cause, NotSortableError)
    assert stuck.__cause__ is stuck.cause
    with pytest.raises(StuckError) as exc:
        harmonize(stuck.trace.steps[0].graph_after)
    assert exc.value.trace == ReductionTrace()
    assert str(exc.value) == str(stuck)


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
    g = parse(MULTISTEP_FIXTURE)
    assert validate(g).ok and not is_calabi(g).verdict
    result, trace = harmonize(g)
    assert [(s.complexity_before, s.complexity_after) for s in trace.steps] == [(4, 3), (3, 2), (2, 1)]
    assert is_theta(result) and check_trace(g, result, trace) == []


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
    # reglue checks only what the replay leaves open; validity follows from the cut.
    try:
        sorted_cut, _ = sort_events(c)
        g3 = reglue(sorted_cut)
    except (NotSortableError, RegluingError):
        return
    assert validate(g3).ok


def _seeded_values(g):
    """What ``reglue`` hands its graph, and the sweep it derives from them."""
    return (g._order, g._rank, g._succ, complexity(g), g._sweep)


# What ``reglue`` hands ``FoliationGraph._make`` besides the tables, and
# every other index a graph builds on first read, the sweep among them.
_HANDED = {"_order", "_rank", "_succ"}
_LAZY = {name for name, attr in vars(FoliationGraph).items() if isinstance(attr, cached_property)} - _HANDED


def test_validate_rejects_a_reglued_name_the_text_cannot_carry():
    # reglue names its graph after the cut's source, which it does not
    # check, so validate judges the graph it builds like any other.
    word = (Event(MERGE, (0, 1), (2,)), Event(SPLIT, (2,), (1, 0)))
    g = reglue(CutGraph((0, 1), (1, 0), word, "a b"))
    message = "graph name 'a b-reglued' is empty or holds whitespace or '#'"
    assert validate(g) == ValidationReport(False, (message,))
    for call in _algorithms(g):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()


def test_cut_words_replay_to_their_top():
    # ``cut`` builds its CutGraph without the construction check, because
    # a valid graph's word replays by construction.  The check must pass
    # on every cut: every graph of up to 6 vertices and 200 random ones,
    # at every regular level.
    rng = random.Random(2026_23)
    graphs = [g for n in (2, 4, 6) for g in exhaustive_valid_graphs(n)]
    graphs += [random_valid_graph(rng, max_pairs=rng.choice((2, 4, 8))) for _ in range(200)]
    cuts = 0
    for g in graphs:
        for a in regular_levels(g):
            c = cut(g, a)
            assert live_after(c.bottom, c.events) == set(c.top)
            assert len(c.bottom) == len(c.top) == len(set(c.top))
            cuts += 1
    assert cuts > 2000


def test_reglued_graph_keeps_angle_order():
    # ``reglue`` hands its graph the circular order, the rank and the
    # out-edges instead of deriving them; each must be what a fresh graph
    # derives, on sorted and unsorted cuts alike.  A reglued graph holds
    # exactly the tables and those indices, so the layout a chain shares
    # can neither leak a key nor miss a table, and no sweep is handed: it
    # sweeps on first read.  A sorted cut with b strands and m merges
    # reglues to the counts ``harmonize`` reads off the word: b - 1, ...,
    # b - m, then b - m + 1, ..., b, with the minimum at 1/2, in gap m.
    rng = random.Random(606)
    id_order_differs = sorted_cuts = 0
    witness_gaps = set()
    for _ in range(60):
        g = random_valid_graph(rng, max_pairs=rng.choice((2, 4, 8)))
        for a in regular_levels(g):
            c = cut(g, a)
            cuts = [(c, False)]
            try:
                cuts.append((sort_events(c)[0], True))
            except NotSortableError:
                pass
            for c2, is_sorted in cuts:
                try:
                    g2 = reglue(c2)
                except RegluingError:
                    continue
                assert set(g2.__dict__) == set(_TABLES) | _HANDED
                if is_sorted:
                    b, m = len(c2.bottom), g2.merge_count()
                    counts = [*range(b - 1, b - m - 1, -1), *range(b - m + 1, b + 1)]
                    assert g2._sweep == (b - m, Fraction(1, 2), m, counts)
                    sorted_cuts += 1
                # The handed-over order is the angles' order, and the one a
                # fresh graph sorts.
                by_angle = sorted(g2.vertices, key=lambda v: v.angle)
                assert [g2.vertices[v] for v in g2._order] == by_angle
                assert [by_angle[k] for k in g2._rank] == list(g2.vertices)
                assert sum(g2._crossings(0)) == len(c2.bottom)
                fresh = FoliationGraph(g2.name, g2.vertices, g2.edges)
                assert g2 == fresh
                assert _seeded_values(g2) == _seeded_values(fresh)
                id_order_differs += g2._order != sorted(g2._order)
                # The witness at gap 0, where the last gap wraps, or above.
                witness_gaps.add(g2._sweep[2] == 0)
    # Ids v10, v11, ... sort before v2, so the id order is no stand-in.
    assert id_order_differs and sorted_cuts
    assert witness_gaps == {True, False}

    # Every graph of a harmonize chain is reglued with the layout of its
    # first step; long chains on 10 or more vertices cover the ids where
    # "v10" sorts before "v2".
    rng = random.Random(2024_13)
    long_chains = 0
    for _ in range(40):
        g = random_non_calabi_graph(rng, max_pairs=10)
        _, trace = harmonize(g)
        for step in trace.steps:
            # Besides what harmonize read of it on first use.
            assert set(step.graph_after.__dict__) - _LAZY == set(_TABLES) | _HANDED
        long_chains += len(trace.steps) >= 3 and len(g.vertices) >= 10
    assert long_chains >= 20


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_sort_preserves_interface_and_counting(seed):
    rng = random.Random(seed)
    g = random_non_calabi_graph(rng, max_pairs=4)
    k, witness = complexity(g)
    c = cut(g, witness)
    assert len(c.bottom) == k
    merges = sum(e.kind == MERGE for e in c.events)
    try:
        sorted_cut, _ = sort_events(c)
    except NotSortableError:
        assert k <= merges
        return
    assert sorted_cut.bottom == c.bottom
    assert sorted_cut.top == c.top
    kinds = [e.kind for e in sorted_cut.events]
    assert len(kinds) == len(c.events) and kinds.count(MERGE) == merges
    assert kinds == sorted(kinds, key=lambda k: k == SPLIT)
    # Separator level: everything merged, nothing split yet.
    levels = replay(sorted_cut.bottom, sorted_cut.events)
    separator = levels[merges]
    assert len(separator) == len(c.bottom) - merges >= 1
    if c.events:
        assert len(separator) < len(c.bottom)


def test_sort_fails_exactly_when_strands_are_at_most_merges():
    # The rule proved in sort_events' docstring, at every regular level of
    # random non-Calabi graphs and of every graph their reductions reach.
    rng = random.Random(2024_14)
    outcomes = set()
    for _ in range(150):
        g = random_non_calabi_graph(rng, max_pairs=8)
        try:
            steps = harmonize(g)[1].steps
        except StuckError as exc:
            steps = exc.trace.steps
        for h in (g, *(step.graph_after for step in steps)):
            for a in regular_levels(h):
                c = cut(h, a)
                try:
                    sort_events(c)
                    stuck = False
                except NotSortableError:
                    stuck = True
                assert stuck == (len(c.bottom) <= h.merge_count()), (serialize(h), a)
                outcomes.add(stuck)
    assert outcomes == {False, True}


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_harmonize_trace_is_its_certificate(seed):
    g = random_non_calabi_graph(random.Random(seed), max_pairs=5)
    try:
        result, trace = harmonize(g)
    except StuckError as exc:
        result, trace = None, exc.trace
    assert check_trace(g, result, trace) == []


def replay(bottom, events):
    """Every level of a valid word, each recomputed from the one below:
    the live strand set before each event and after the last one."""
    levels = [frozenset(bottom)]
    for ev in events:
        levels.append(levels[-1].difference(ev.inputs).union(ev.outputs))
    return levels


def _transpose(
    split: Event, merge: Event, live_before: Collection[int], fresh: Iterator[int]
) -> tuple[Event, Event]:
    """Rewrite the adjacent pair (split; merge) into (merge; split).

    The net strand interface of the pair (strands consumed from outside,
    strands handed on) is preserved in all three cases, so the rest of the
    word and the boundary data stay untouched.
    """
    (x,), (x1, x2) = split.inputs, split.outputs
    ins, (y,) = merge.inputs, merge.outputs
    y1, y2 = ins
    fed1, fed2 = x1 in ins, x2 in ins
    if not (fed1 or fed2):
        # Disjoint: the events commute as written.
        return merge, split
    if not (fed1 and fed2) or x1 == x2:
        # One split output feeds the merge (x1 == x2 only where a rewrite
        # re-emitted an id): merge first, split the result.
        s = x1 if fed1 else x2
        other_x = x2 if s == x1 else x1
        other_y = y2 if s == y1 else y1
        z = next(fresh)
        return tuple.__new__(Event, (MERGE, (x, other_y), (z,))), tuple.__new__(Event, (SPLIT, (z,), (other_x, y)))
    # Bubble: both split outputs feed the merge.  Borrow a parallel live
    # strand, merge into it, and split it back off unchanged.  Only this
    # case reads ``live_before``.
    w = min((s for s in live_before if s != x), default=None)
    if w is None:
        raise NotSortableError((x, x1, x2, y), len(live_before))
    z = next(fresh)
    return tuple.__new__(Event, (MERGE, (x, w), (z,))), tuple.__new__(Event, (SPLIT, (z,), (y, w)))


def _sort_events_by_full_replay(c):
    """Reference sorter: replays the whole word before every rewrite and
    fixes the lowest (split, merge) inversion."""
    used = set(c.bottom + c.top)
    for ev in c.events:
        used.update(ev.inputs + ev.outputs)
    fresh = itertools.count(max(used, default=-1) + 1)
    events, rewrites = list(c.events), 0
    while True:
        levels = replay(c.bottom, tuple(events))
        pos = next(
            (i for i in range(len(events) - 1) if (events[i].kind, events[i + 1].kind) == (SPLIT, MERGE)),
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


def _rewrite_case(split, merge):
    """Which of ``_transpose``'s cases rewrites the pair (split; merge)."""
    fed = [x in merge.inputs for x in split.outputs]
    if not any(fed):
        return "commute"
    if all(fed) and split.outputs[0] != split.outputs[1]:
        return "bubble"
    return "shared"


def _reference_rewrites(c, monkeypatch):
    """The cases of the rewrites the full-replay reference makes on ``c``,
    in order, a bubble that jams included, and whether it jammed."""
    cases, real = [], _transpose

    def recording(split, merge, live_before, fresh):
        cases.append(_rewrite_case(split, merge))
        return real(split, merge, live_before, fresh)

    with monkeypatch.context() as m:
        m.setitem(globals(), "_transpose", recording)
        try:
            _sort_events_by_full_replay(c)
        except NotSortableError:
            return cases, True
    return cases, False


def _count_sort_work(monkeypatch):
    """Spy on the sort's two costly calls: ``insort``, which moves a split
    into a strand's list, and ``live_after``, the checked replay.  Returns
    the running counts as a dict."""
    counts = {"insort": 0, "live_after": 0}
    for name in counts:
        real = getattr(reduction, name)

        def counting(*args, _real=real, _name=name):
            counts[_name] += 1
            return _real(*args)

        monkeypatch.setattr(reduction, name, counting)
    return counts


def test_sort_events_transposes_only_interactions(monkeypatch):
    # Every rewrite counts, but only one whose split and merge share a
    # strand changes an event: a shared-strand rewrite moves the one split
    # output that changed (one ``insort``), and a bubble both outputs (two)
    # after the one replay of its prefix; a disjoint commute does neither.
    # The reference's word history says which rewrite is which.
    counts = _count_sort_work(monkeypatch)
    rng = random.Random(4343)
    interactions = commutes = bubbles = 0
    for _ in range(60):
        g = random_valid_graph(rng, max_pairs=rng.choice((2, 4, 8)))
        for a in regular_levels(g):
            c = cut(g, a)
            cases, jammed = _reference_rewrites(c, monkeypatch)
            counts.update(insort=0, live_after=0)
            try:
                _, rewrites = sort_events(c)
                assert rewrites == len(cases)
            except NotSortableError:
                assert jammed
            # A jammed bubble replays its prefix and stops before it moves
            # a strand; a sorted word is replayed once more, as a CutGraph.
            done = cases.count("bubble") - jammed
            assert counts["insort"] == cases.count("shared") + 2 * done
            assert counts["live_after"] == cases.count("bubble") + (not jammed)
            interactions += len(cases) - cases.count("commute")
            commutes += cases.count("commute")
            bubbles += done
    assert interactions and commutes and bubbles


def test_sort_events_matches_reference_on_reused_strands():
    # Hand-made words may re-emit a strand id above a split that made it,
    # so a merge's input can have several makers; the one it meets is the
    # highest below it.
    # The counts are those the ``sort_events`` docstring states: a replay
    # that accepts or rejects another set of words changes them.
    rng = random.Random(4444)
    same = stuck = rejected = reference_sorts = reference_valid = 0
    for _ in range(3000):
        c = random_reusing_word(rng)
        try:
            want = _sort_events_by_full_replay(c)
        except NotSortableError as exc:
            want = exc
        try:
            got = sort_events(c)
        except NotSortableError as exc:
            got = exc
        except ValueError as exc:
            # A rewrite can collide with a reused id; the checked replay
            # of a bubble's prefix or of the result names the event.
            assert str(exc).startswith("event ")
            rejected += 1
            if not isinstance(want, NotSortableError):
                reference_sorts += 1
                try:
                    CutGraph(c.bottom, c.top, want[0], c.source)
                    reference_valid += 1
                except ValueError:
                    pass
            continue
        if isinstance(want, NotSortableError):
            assert isinstance(got, NotSortableError) and str(got) == str(want)
            stuck += 1
        else:
            assert not isinstance(got, NotSortableError)
            assert (got[0].events, got[1]) == want
            same += 1
    assert (same, stuck, rejected) == (1534, 1443, 23)
    assert (reference_sorts, reference_valid) == (14, 4)


def test_harmonize_replays_each_word_at_most_twice_per_step(monkeypatch):
    # One prefix replay per bubble, the only rewrite that reads a live set,
    # so commuting and shared-strand rewrites build no set, and one
    # ``insort`` per strand a rewrite moves.  No step replays its whole
    # word: ``cut`` of a valid graph and the sort of its word are valid by
    # construction, so harmonize builds both unchecked.  The reference
    # rewrites each step's cut, and the witness cut a stuck run jams on.
    counts = _count_sort_work(monkeypatch)
    rng = random.Random(2024_11)
    steps = rewrites = bubbles = 0
    for _ in range(40):
        g = random_non_calabi_graph(rng, max_pairs=8)
        counts.update(insort=0, live_after=0)
        try:
            _, trace = harmonize(g)
            stuck = None
        except StuckError as exc:
            trace = exc.trace
            stuck = trace.steps[-1].graph_after if trace.steps else g
        inserts, replays = counts["insort"], counts["live_after"]
        cuts = [cut(s.graph_before, s.cut_angle) for s in trace.steps]
        if stuck is not None:
            cuts.append(cut(stuck, complexity(stuck)[1]))
        cases = [case for c in cuts for case in _reference_rewrites(c, monkeypatch)[0]]
        done = cases.count("bubble") - (stuck is not None)
        assert replays == cases.count("bubble")
        assert inserts == cases.count("shared") + 2 * done
        steps += len(cuts)
        rewrites += len(cases)
        bubbles += cases.count("bubble")
    assert steps and bubbles and rewrites > 10 * bubbles


def test_harmonize_sweeps_each_graph_once(monkeypatch):
    # Each ``harmonize`` step needs the complexity of the graph it produced,
    # and the next step needs it again for its witness.  A reglued graph's
    # counts are fixed by its sorted word's merge count and the cut's strand
    # count, which ``harmonize`` reads off the word, so only the input
    # graph is swept.
    sweep = FoliationGraph.__dict__["_sweep"]
    real_sweep = sweep.func
    calls = 0

    def counting_sweep(g):
        nonlocal calls
        calls += 1
        return real_sweep(g)

    monkeypatch.setattr(sweep, "func", counting_sweep)
    rng = random.Random(2024_12)
    inputs = steps = 0
    for _ in range(40):
        g = random_non_calabi_graph(rng, max_pairs=8)
        try:
            _, trace = harmonize(g)
        except StuckError as exc:
            trace = exc.trace
        inputs += 1
        steps += len(trace.steps)
    assert steps > inputs and calls == inputs


def _layout_inputs(seed, n):
    rng = random.Random(seed)
    return [random_non_calabi_graph(rng, max_pairs=8) for _ in range(n)]


def _harmonize_outcome(g):
    try:
        return harmonize(g)
    except StuckError as exc:
        return str(exc), exc.trace


def test_harmonize_builds_one_layout_per_word_shape():
    # Every sorted word of a chain has the same kinds, its m merges and
    # then m splits, so one layout serves every step, and the memo serves
    # every later call with m merges, and the public ``reglue`` of such a
    # word.
    graphs = _layout_inputs(2024_14, 40)
    shapes = {g.merge_count() for g in graphs}
    reduction._layout.cache_clear()
    steps = 0
    for g in graphs:
        _, trace = _harmonize_outcome(g)
        steps += len(trace.steps)
    assert steps > 40 and 1 < len(shapes) <= 16
    info = reduction._layout.cache_info()
    assert info.misses == len(shapes)
    for g in graphs:
        _harmonize_outcome(g)
    assert reduction._layout.cache_info().misses == info.misses
    step = next(s for g in graphs for s in _harmonize_outcome(g)[1].steps)
    c = cut(step.graph_before, step.cut_angle)
    assert reglue(sort_events(c)[0]) == step.graph_after
    assert reduction._layout.cache_info().misses == info.misses


def test_harmonize_does_not_depend_on_the_memo():
    # Graphs of different calls share the memo's tables, so no call may
    # see what an earlier one did: results and traces are the same in any
    # order, and from an empty memo.
    graphs = _layout_inputs(2032, 30)
    forward = [_harmonize_outcome(g) for g in graphs]
    backward = [_harmonize_outcome(g) for g in reversed(graphs)][::-1]
    reduction._layout.cache_clear()
    cleared = [_harmonize_outcome(g) for g in graphs]
    assert forward == backward == cleared


def test_harmonize_leaves_the_cached_layouts_as_built():
    # Nothing writes a layout: after harmonize, public reglue calls and
    # every read of the graphs they return, each cached layout equals a
    # fresh build of its kinds.
    shapes = set()
    for g in _layout_inputs(2032_2, 12):
        reduction._layout.cache_clear()
        keys = set()
        _, trace = _harmonize_outcome(g)
        for step in trace.steps:
            keys.add(tuple(ev.kind for ev in step.word))
            c = cut(step.graph_before, step.cut_angle)
            keys.add(tuple(ev.kind for ev in c.events))
            for h in (step.graph_after, reglue(c)):
                validate(h), complexity(h), is_calabi(h), euler_genus(h), serialize(h)
                h.vertices, h.edges, h._pred
        assert len(keys) <= 16
        for kinds in keys:
            before = reduction._layout.cache_info()
            cached = reduction._layout(kinds)
            assert reduction._layout.cache_info().hits == before.hits + 1
            assert cached == reduction._layout.__wrapped__(kinds)
        shapes |= keys
    assert len(shapes) > 16


def test_layout_memo_is_bounded():
    # Words of 24 different lengths: the memo keeps at most 16 layouts.
    reduction._layout.cache_clear()
    rng = random.Random(2032_3)
    for n_pairs in range(1, 25):
        g = random_valid_graph(rng, n_pairs=n_pairs)
        reglue(cut(g, regular_levels(g)[0]))
    info = reduction._layout.cache_info()
    assert info.misses == 24 and info.maxsize == 16 and info.currsize <= 16
