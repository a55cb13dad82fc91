"""Size sweep of the graph, reduction, scalar and surface layers: time
``parse``, ``validate``, ``complexity``, ``is_calabi``, ``cut``,
``sort_events``, ``reglue`` and ``harmonize`` at doubling vertex counts, ``qrank`` and
``integer_relation`` at doubling value counts, and ``parse``,
``classify_leaves``, ``consistency_check`` and ``serialize`` of surface
models at doubling summand counts, and check every answer.

    python3 benchmarks/sweep.py [SIZE ...]

SIZE is a vertex count out of the recorded ones, 100, 200, 400 and 800
(all of them by default).  The input at V vertices is
``tests/graphgen.random_valid_graph(random.Random(1), n_pairs=V // 2)``.
``parse`` reads its canonical text; ``validate``, ``complexity`` and
``is_calabi`` run in that order on each parsed graph, as a ``decide``
would, so each builds what it needs itself.  ``cut`` cuts the graph at
the complexity witness, after ``complexity`` has built its angle order,
``sort_events`` sorts that cut, ``reglue`` reglues the sorted cut, and
``harmonize`` reduces the graph itself (every recorded input is
non-Calabi).  ``reglue`` is the public call.  The layout of a word's
kinds (ids, angles, tails, order, out-edges) is memoized per word shape
and shared with ``harmonize``, so in the best-of-3 timings only the
first ``reglue`` call builds it, for the sorted word's shape, and the
other calls, ``harmonize``'s among them, reuse it.
``is_calabi_calabi_s`` times ``is_calabi`` on a freshly parsed
and validated Calabi input, so that it times the decision alone (each
algorithm validates its input, and the graph keeps the report): the
first Calabi graph among the draws of that same generator (draw 6, 18, 4
and 6 at 100, 200, 400 and 800 vertices; draw 1 is the input above).
The
scalar rows always cover all recorded value counts, 48, 96, 192 and 384:
at N values the inputs are N random values over the three-symbol table of
``tests/modelgen.example_table`` (rank 4, the table's full width) and N
random positive multiples of one value (rank 1, so no early stop in
``qrank``), both drawn from ``random.Random(N)``.  Each timing is the
best of 3 calls, with ``time.perf_counter``; each scalar call gets fresh
copies of its values.  The surface rows always cover all recorded
summand counts, 24, 48, 96 and 192: at g summands the inputs are the
canonical texts of ``tests/modelgen.random_model(random.Random(g),
n_summands=g)``, a generic model and then a rank-one one, drawn in that
order.  ``parse`` reads the text, and ``classify_leaves``,
``consistency_check`` (which adds the class report and the cup vanisher)
and ``serialize`` run in that order on each parsed model, as
``surface-check`` would.

Prints one JSON object.  Exits nonzero on a wrong answer: a text that
does not parse back to the graph and to itself (``serialize(parse(text))
== text`` and the parsed graph equal to the one built from objects), a
cut that ``CutGraph``'s construction check rejects (``cut`` skips it)
or whose strand count differs from the recorded one, a sorted word with
a split below a merge, a reglued graph that fails ``validate``, a
harmonize trace that ``tests/graphgen.check_trace`` faults (harmonize
skips the public calls' checks), a rewrite or step count that differs
from the recorded one, a Calabi input's draw, certificate cycle count or
total walk length that differs from the recorded one, a rank or relation
that differs from the recorded one, a surface text that does not parse
back to the model and to itself, a failed consistency check, or a period
rank that differs from the recorded one.  Timings gate nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import foliagraph as fg  # noqa: E402
from graphgen import check_trace, random_valid_graph  # noqa: E402
from modelgen import example_table, random_model  # noqa: E402

REPEAT = 3
# Per size: the witness cut's strand count and the rewrites of its sort,
# and harmonize's steps with their rewrites in total (every recorded
# input completes; a stuck run would record the steps completed before
# it, with rewrites None); and the Calabi input's draw, its certificate's
# cycle count and the total length of its walks.
RECORDED = {
    100: {"cut_strands": 204, "sort_rewrites": 1562, "harmonize_steps": 5, "harmonize_rewrites": 9212,
          "calabi_draw": 6, "calabi_cycles": 51, "calabi_walk_edges": 1238},
    200: {"cut_strands": 474, "sort_rewrites": 5774, "harmonize_steps": 3, "harmonize_rewrites": 25774,
          "calabi_draw": 18, "calabi_cycles": 101, "calabi_walk_edges": 3720},
    400: {"cut_strands": 911, "sort_rewrites": 23399, "harmonize_steps": 1, "harmonize_rewrites": 23399,
          "calabi_draw": 4, "calabi_cycles": 201, "calabi_walk_edges": 7738},
    800: {"cut_strands": 1768, "sort_rewrites": 84801, "harmonize_steps": 2, "harmonize_rewrites": 244801,
          "calabi_draw": 6, "calabi_cycles": 401, "calabi_walk_edges": 14732},
}

# Per value count and input: the rank, and the relation's nonzero entries
# as (index, coefficient) pairs.
RECORDED_SCALARS = {
    48: {
        "generic": (4, ((0, 410058484), (1, 1170519), (2, -244093014), (3, -39338535), (4, -38198985))),
        "rank_one": (1, ((0, 2), (1, -1))),
    },
    96: {
        "generic": (4, ((0, 40832165), (1, 39857355), (2, -21437872), (3, -10489283), (4, -39070332))),
        "rank_one": (1, ((0, 42), (1, -55))),
    },
    192: {
        "generic": (4, ((0, 240576417), (1, 69770388), (2, -91955980), (3, -91076356), (4, 113717580))),
        "rank_one": (1, ((0, 7), (1, -4))),
    },
    384: {
        "generic": (4, ((0, 7317580), (1, 5466540), (2, -11862004), (3, 22495385), (4, 10220211))),
        "rank_one": (1, ((0, 12), (1, -11))),
    },
}

# Per summand count and input: the rank of the model's periods.
RECORDED_SURFACES = {
    24: {"generic": 4, "rank_one": 1},
    48: {"generic": 4, "rank_one": 1},
    96: {"generic": 4, "rank_one": 1},
    192: {"generic": 4, "rank_one": 1},
}


def fail(size: int, what: str, unit: str = "vertices") -> None:
    raise SystemExit(f"sweep: wrong answer at {size} {unit}: {what}")


def best_of(fn):
    """The smallest wall time of ``REPEAT`` calls, and the last result."""
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return min(times), result


def harmonize_outcome(g):
    try:
        result, trace = fg.harmonize(g)
    except fg.StuckError as exc:
        return exc.trace, None
    return trace, result


def staged(text: str, stages: dict) -> tuple[dict, object]:
    """The best of ``REPEAT`` times of ``parse`` of ``text`` and of each
    of ``stages`` (name -> function) after it, in order, each round on a
    freshly parsed object; and the last parsed object."""
    best = [float("inf")] * (len(stages) + 1)
    for _ in range(REPEAT):
        start = time.perf_counter()
        obj = fg.parse(text)
        times = [time.perf_counter() - start]
        for stage in stages.values():
            start = time.perf_counter()
            stage(obj)
            times.append(time.perf_counter() - start)
        best = [min(pair) for pair in zip(best, times)]
    return dict(zip(["parse_s", *stages], best)), obj


def sweep_one(size: int) -> dict:
    rng = random.Random(1)
    g = random_valid_graph(rng, n_pairs=size // 2)
    text = fg.serialize(g)
    stage_s, parsed = staged(text, {"validate_s": fg.validate, "complexity_s": fg.complexity, "is_calabi_s": fg.is_calabi})
    if parsed != g or fg.serialize(parsed) != text:
        fail(size, "the parsed graph differs from the object-built one or from its text")
    if not fg.validate(g).ok or fg.is_calabi(g).verdict:
        fail(size, "input is not a valid non-Calabi graph")

    draw, calabi = 1, g
    while not fg.is_calabi(calabi).verdict:
        draw, calabi = draw + 1, random_valid_graph(rng, n_pairs=size // 2)
    calabi_text = fg.serialize(calabi)
    calabi_s, parsed = staged(calabi_text, {"validate_s": fg.validate, "is_calabi_calabi_s": fg.is_calabi})
    if parsed != calabi or fg.serialize(parsed) != calabi_text:
        fail(size, "the parsed Calabi graph differs from the object-built one or from its text")
    cycles = fg.is_calabi(parsed).cycles
    k, witness = fg.complexity(g)
    try:
        cut_s, c = best_of(lambda: fg.cut(g, witness))
        # ``cut`` skips the construction check; run it here, untimed.
        fg.CutGraph(c.bottom, c.top, c.events, c.source)
    except ValueError as exc:
        fail(size, f"cut rejected: {exc}")
    sort_s, (sorted_cut, rewrites) = best_of(lambda: fg.sort_events(c))
    kinds = [ev.kind == fg.SPLIT for ev in sorted_cut.events]
    if kinds != sorted(kinds):
        fail(size, "sorted word has a split below a merge")
    reglue_s, reglued = best_of(lambda: fg.reglue(sorted_cut))
    if not fg.validate(reglued).ok:
        fail(size, "reglued sorted cut is invalid")

    harmonize_s, (trace, result) = best_of(lambda: harmonize_outcome(g))
    # harmonize skips the public calls' checks; check its trace, untimed.
    faults = check_trace(g, result, trace)
    if faults:
        fail(size, f"harmonize's trace: {faults[0]}")

    got = {
        "cut_strands": len(c.bottom),
        "sort_rewrites": rewrites,
        "harmonize_steps": len(trace.steps),
        "harmonize_rewrites": None if result is None else sum(s.rewrites for s in trace.steps),
        "calabi_draw": draw,
        "calabi_cycles": len(cycles),
        "calabi_walk_edges": sum(map(len, cycles)),
    }
    if got != RECORDED[size]:
        fail(size, f"counts {got} differ from the recorded {RECORDED[size]}")
    return {
        "vertices": size,
        "complexity": k,
        **{name: round(t, 5) for name, t in stage_s.items()},
        "is_calabi_calabi_s": round(calabi_s["is_calabi_calabi_s"], 5),
        "cut_s": round(cut_s, 5),
        "sort_events_s": round(sort_s, 4),
        "reglue_s": round(reglue_s, 5),
        "harmonize_s": round(harmonize_s, 4),
        "harmonize_stuck": result is None,
        **got,
    }


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 12))


def scalar_inputs(n: int) -> dict:
    rng = random.Random(n)
    table = example_table()

    def value():
        # The coordinates over (1, lam, mu, nu), drawn in that order.
        return fg.ExactScalar(table, tuple(_random_rational(rng) for _ in range(len(table.names) + 1)))

    base = value()
    while base.is_zero():
        base = value()
    return {
        "generic": [value() for _ in range(n)],
        "rank_one": [base * Fraction(rng.randint(1, 9), rng.randint(1, 12)) for _ in range(n)],
    }


def best_of_fresh(fn, values):
    """``best_of`` with each call on fresh copies of ``values``, so that no
    call reads what a value cached in an earlier one."""
    copies = iter([[fg.ExactScalar(v.table, v.vector) for v in values] for _ in range(REPEAT)])
    return best_of(lambda: fn(next(copies)))


def sweep_scalars(n: int) -> dict:
    row = {"values": n}
    for name, values in scalar_inputs(n).items():
        qrank_s, rank = best_of_fresh(fg.qrank, values)
        relation_s, relation = best_of_fresh(fg.integer_relation, values)
        support = tuple((i, a) for i, a in enumerate(relation or ()) if a)
        if (rank, support) != RECORDED_SCALARS[n][name]:
            fail(n, f"{name}: rank {rank}, relation {support} differ from the recorded", "values")
        row[name] = {"rank": rank, "relation_support": len(support), "qrank_s": round(qrank_s, 6), "integer_relation_s": round(relation_s, 6)}
    return row


def sweep_surfaces(n: int) -> dict:
    rng = random.Random(n)
    row = {"summands": n}
    for name in ("generic", "rank_one"):
        model = random_model(rng, n_summands=n, rank_one=name == "rank_one")
        text = fg.serialize(model)
        stage_s, parsed = staged(
            text,
            {
                "classify_leaves_s": fg.classify_leaves,
                "consistency_check_s": fg.consistency_check,
                "serialize_s": fg.serialize,
            },
        )
        if parsed != model or fg.serialize(parsed) != text:
            fail(n, f"{name}: the parsed model differs from the object-built one or from its text", "summands")
        if not fg.consistency_check(parsed).ok:
            fail(n, f"{name}: consistency check failed", "summands")
        rank = fg.class_report(parsed).rank
        if rank != RECORDED_SURFACES[n][name]:
            fail(n, f"{name}: rank {rank} differs from the recorded", "summands")
        row[name] = {"rank": rank, **{stage: round(t, 6) for stage, t in stage_s.items()}}
    return row


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("sizes", nargs="*", type=int, help=f"vertex counts out of {sorted(RECORDED)}")
    args = ap.parse_args()
    unknown = set(args.sizes) - set(RECORDED)
    if unknown:
        ap.error(f"no recorded counts for {sorted(unknown)} vertices")
    rows = [sweep_one(size) for size in args.sizes or sorted(RECORDED)]
    scalar_rows = [sweep_scalars(n) for n in sorted(RECORDED_SCALARS)]
    surface_rows = [sweep_surfaces(n) for n in sorted(RECORDED_SURFACES)]
    print(
        json.dumps(
            {
                "python": platform.python_version(),
                "repeat": REPEAT,
                "rows": rows,
                "scalar_rows": scalar_rows,
                "surface_rows": surface_rows,
            },
            indent=1,
        )
    )


if __name__ == "__main__":
    main()
