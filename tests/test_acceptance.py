"""Acceptance suite: one test per criterion, each printing a pass/fail
line (through capsys.disabled(), so the lines always appear)."""

import random
import time
from fractions import Fraction

from foliagraph import (
    CutGraph,
    StuckError,
    builtin,
    builtin_example,
    calabi_status,
    class_report,
    classify_leaves,
    complexity,
    consistency_check,
    contiguous,
    cup_product,
    cup_vanisher,
    cut,
    harmonize,
    integer_relation,
    is_calabi,
    qrank,
    reglue,
    serialize_graph,
    validate,
)

from graphgen import (
    exhaustive_valid_graphs,
    is_theta,
    level_rule_faults,
    oracle_all_pairs_positive_path,
    oracle_every_edge_on_cycle,
    oracle_strongly_connected,
    random_non_calabi_graph,
    random_valid_graph,
    reglue_rotates,
)
from modelgen import example_table, random_model
from oracles import oracle_rank
from test_graph import _crossing_profile_steps
import pytest


@pytest.fixture
def announce(capsys):
    def fn(line: str):
        with capsys.disabled():
            print(line, flush=True)

    return fn


def _finish(announce, num: int, name: str, failures: list[str], started: float, budget: float):
    elapsed = time.time() - started
    ok = not failures and elapsed < budget
    announce(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert not failures, failures[:5]
    assert elapsed < budget, f"criterion {num} exceeded its {budget}s budget"


def test_criterion_1_builtin_pair(announce):
    started = time.time()
    failures = []
    dumbbell, theta = builtin("dumbbell"), builtin("theta")
    if complexity(dumbbell)[0] != 2:
        failures.append("complexity(dumbbell) != 2")
    if complexity(theta)[0] != 1:
        failures.append("complexity(theta) != 1")
    if is_theta(dumbbell) or not is_theta(theta):
        failures.append("the theta check does not tell theta from dumbbell")
    if is_calabi(dumbbell).verdict or not is_calabi(theta).verdict:
        failures.append("Calabi verdicts wrong on the builtin pair")
    result, trace = harmonize(dumbbell)
    if len(trace.steps) != 1:
        failures.append(f"harmonize(dumbbell) took {len(trace.steps)} steps, not 1")
    if not is_theta(result):
        failures.append("harmonize(dumbbell) is not theta")
    _finish(announce, 1, "theta/dumbbell reproduction", failures, started, 1.0)


def test_criterion_2_lemma_oracle_equivalence(announce):
    started = time.time()
    failures = []
    checked = 0

    def check(g, label):
        nonlocal checked
        checked += 1
        verdict = is_calabi(g).verdict
        strong = oracle_strongly_connected(g)
        cycles = oracle_every_edge_on_cycle(g)
        pairs = oracle_all_pairs_positive_path(g)
        if not (verdict == strong == cycles == pairs):
            failures.append(
                f"{label}: verdict={verdict} strong={strong} cycles={cycles} pairs={pairs}"
            )

    for n_verts in (2, 4, 6):
        for g in exhaustive_valid_graphs(n_verts):
            check(g, g.name)
    rng = random.Random(2024_02)
    for i in range(500):
        check(random_valid_graph(rng, max_pairs=6), f"random#{i}")
    announce(f"    lemma equivalence over {checked} graphs")
    _finish(announce, 2, "Lemma 1 oracle equivalence", failures, started, 30.0)


def test_criterion_3_reduction_contract(announce):
    started = time.time()
    failures = []
    findings = []
    rng = random.Random(2024_03)
    harmonized = 0
    for i in range(500):
        g = random_non_calabi_graph(rng, max_pairs=6)
        k0, witness = complexity(g)
        if not reglue_rotates(g, witness, reglue(cut(g, witness))):
            failures.append(f"graph#{i}: reglue(cut(g)) is not g under the rotation map")
        try:
            result, trace = harmonize(g)
        except StuckError as exc:
            findings.append((f"graph#{i} {'harmonize' if exc.trace.steps else 'first step'}: {exc}", g))
            failures.append(f"graph#{i}: harmonize got stuck")
            result, trace = None, exc.trace
        for step in trace.steps:
            failures += [f"graph#{i}: {fault}" for fault in level_rule_faults(step)]
            # harmonize builds its sorted cut and reglued graph unchecked;
            # both must pass the checks it skips.
            c = cut(step.graph_before, step.cut_angle)
            try:
                CutGraph(c.bottom, c.top, step.word, c.source)
            except ValueError as exc:
                failures.append(f"graph#{i}: a step's sorted word does not replay: {exc}")
            if not validate(step.graph_after).ok:
                failures.append(f"graph#{i}: a step's output is invalid")
        if trace.steps:
            g2 = trace.steps[0].graph_after
            if complexity(g2)[0] >= k0:
                failures.append(f"graph#{i}: complexity did not decrease")
            if not contiguous(g, g2):
                failures.append(f"graph#{i}: merge/split counts changed")
        if result is not None:
            harmonized += 1
            if len(trace.steps) > k0:
                failures.append(f"graph#{i}: more steps than the initial complexity")
            if not is_calabi(result).verdict:
                failures.append(f"graph#{i}: harmonize output is not Calabi")
            if not contiguous(g, result):
                failures.append(f"graph#{i}: harmonize changed saddle counts")
    if findings:
        announce(
            f"    FINDING: {len(findings)} stuck reduction(s) in 500 runs "
            f"({harmonized} harmonized cleanly); a step gets stuck only where "
            f"no level has k strands with #merges < k < complexity + #merges. "
            f"First witness:"
        )
        message, witness_graph = findings[0]
        announce("    " + message)
        for line in serialize_graph(witness_graph).strip().splitlines():
            announce("      " + line)
    _finish(announce, 3, "reduction contract", failures, started, 60.0)


def test_criterion_4_structural_invariants(announce):
    started = time.time()
    failures = []

    def check(g, label):
        if g.merge_count() != g.split_count():
            failures.append(f"{label}: #MERGE != #SPLIT")
        if 2 * len(g.edges) != 3 * len(g.vertices):
            failures.append(f"{label}: 2E != 3V")
        nv, ne = len(g.vertices), len(g.edges)
        if (nv + 2) // 2 != ne - nv + 1:
            failures.append(f"{label}: genus formulas disagree")
        for kind, delta in _crossing_profile_steps(g):
            want = 1 if kind == "SPLIT" else -1
            if delta != want:
                failures.append(f"{label}: crossing step {delta} at a {kind}")
                break

    for n_verts in (2, 4, 6):
        for g in exhaustive_valid_graphs(n_verts):
            check(g, g.name)
    rng = random.Random(2024_04)
    for i in range(300):
        check(random_valid_graph(rng, max_pairs=6), f"random#{i}")
    _finish(announce, 4, "structural invariants", failures, started, 10.0)


def test_criterion_5_example_matrix(announce):
    started = time.time()
    failures = []
    roster = {
        1: dict(rank=3, calabi=True, compact=True, allnc=False, sing=0),
        2: dict(rank=2, split=True, calabi=True, compact=False, allnc=True, sing=0),
        3: dict(ci=True, calabi=False, compact=True, sing=0),
        4: dict(calabi=False, generic=False, compact=False, allnc=True, sing=1),
    }
    for n, want in roster.items():
        m = builtin_example(n)
        cls = class_report(m)
        leaves = classify_leaves(m)
        got = dict(
            rank=cls.rank,
            split=cls.split,
            ci=cls.completely_irrational,
            calabi=calabi_status(m),
            compact=leaves.has_compact_regular_leaf,
            allnc=leaves.all_regular_leaves_noncompact,
            sing=leaves.compact_singular_components,
            generic=leaves.generic,
        )
        for key, value in want.items():
            if got[key] != value:
                failures.append(f"example {n}: {key}={got[key]}, expected {value}")
        if not consistency_check(m).ok:
            failures.append(f"example {n}: consistency check failed")
    _finish(announce, 5, "surface example matrix", failures, started, 1.0)


def test_criterion_6_surface_implications(announce):
    started = time.time()
    failures = []
    rng = random.Random(2024_06)
    for i in range(1000):
        m = random_model(rng)
        report = consistency_check(m)
        if not report.ok:
            failures.append(f"model#{i}: {report.violations}")
            continue
        cls = class_report(m)
        theta = cup_vanisher(m)
        dependent = qrank(list(cls.periods)) < 2 * cls.genus
        if (theta is not None) != dependent:
            failures.append(f"model#{i}: vanisher presence disagrees with rank")
        if theta is not None:
            if not any(theta):
                failures.append(f"model#{i}: zero vanisher vector")
            if not cup_product(m, theta).is_zero():
                failures.append(f"model#{i}: vanisher does not annihilate the class")
    _finish(announce, 6, "surface implications as properties", failures, started, 60.0)


def test_criterion_7_exact_arithmetic_oracle(announce):
    started = time.time()
    failures = []
    table = example_table()
    rng = random.Random(2024_07)

    def random_scalar():
        value = table.rational(0)
        for name in table.names:
            if rng.random() < 0.4:
                value += Fraction(rng.randint(-6, 6), rng.randint(1, 4)) * table.symbol(name)
        return value + Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    for i in range(1000):
        values = [random_scalar() for _ in range(rng.randint(1, 6))]
        matrix = [list(v.vector) for v in values]
        rank = qrank(values)
        if rank != oracle_rank(matrix):
            failures.append(f"instance#{i}: qrank disagrees with the minor oracle")
        rel = integer_relation(values)
        if (rel is None) != (rank == len(values)):
            failures.append(f"instance#{i}: relation presence disagrees with rank")
        if rel is not None:
            acc = table.rational(0)
            for a, v in zip(rel, values):
                acc = acc + a * v
            if not acc.is_zero():
                failures.append(f"instance#{i}: relation does not re-substitute to zero")
    _finish(announce, 7, "exact arithmetic oracle", failures, started, 30.0)
