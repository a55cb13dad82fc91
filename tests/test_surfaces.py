import random
import re

import pytest

from foliagraph import (
    SMALL,
    Disk,
    SurfaceModel,
    Tube,
    builtin_example,
    calabi_status,
    class_report,
    classify_leaves,
    connect_sum,
    consistency_check,
    cup_product,
    cup_vanisher,
    make_torus,
    parse,
    qrank,
    ribbon,
    serialize,
)
import foliagraph.surfaces as surfaces

from modelgen import example_table, random_model


def test_make_torus_ranks():
    t = example_table()
    lam, mu = t.symbol("lam"), t.symbol("mu")
    assert class_report(make_torus(1, 0)).rank == 1
    assert class_report(make_torus(lam, 0 * lam)).rank == 1
    assert class_report(make_torus(1 + 0 * lam, lam)).rank == 2


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: make_torus(1, 0, name="my model"), "model name 'my model'"),
        (lambda: make_torus(1, 0, name=""), "model name ''"),
        (lambda: make_torus(1, 0, summand_id="a b"), "summand id 'a b'"),
        (
            lambda: connect_sum(
                make_torus(1, 0, summand_id="a"), make_torus(2, 0, summand_id="c"), "A", SMALL, SMALL, ("a", "c"), "u#1"
            ),
            "tube id 'u#1'",
        ),
    ],
)
def test_model_ids_the_text_format_cannot_carry_rejected(build, message):
    # graph ``validate``'s rule: the text format splits lines at whitespace
    # and drops what follows "#", so such an id would not parse back.
    with pytest.raises(ValueError, match=f"^{message} is empty or holds whitespace or '#'$"):
        build()


def _torus_with_tube(kind: str, right: str) -> SurfaceModel:
    """One torus t0 and a tube from it, built without ``connect_sum``."""
    t = make_torus(1, 0)
    return SurfaceModel("s", t.table, t.summands, (Tube("v", "t0", right, kind, SMALL, SMALL),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Disk(-1), "disk winding must be >= 0"),
        (lambda: _torus_with_tube("D", "t0"), "tube v: unknown kind D"),
        (lambda: _torus_with_tube("A", "x"), "tube v: unknown summand id"),
        (lambda: cup_product(make_torus(1, 0), (1,)), "class vector needs 2*genus entries"),
    ],
)
def test_constructors_and_cup_product_name_their_fault(build, message):
    # Raise sites that no parsed file reaches: the parser rejects a bad
    # disk or tube at its line, and ``cup_product`` is public API only.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_make_torus_rejects_zero_form():
    with pytest.raises(ValueError):
        make_torus(0, 0)


def test_connect_sum_shapes():
    t = example_table()
    m = connect_sum(
        make_torus(1, 0, summand_id="a"),
        make_torus(t.symbol("lam"), t.symbol("mu"), summand_id="b"),
        "A",
        SMALL,
        SMALL,
        ("a", "b"),
    )
    assert m.genus == 2
    assert class_report(m).m1 == 2
    assert [s.id for s in m.summands] == ["a", "b"]


def test_connect_sum_rejects_cycles_and_unknown_ids():
    m1 = make_torus(1, 0, summand_id="a")
    m2 = make_torus(2, 0, summand_id="b")
    with pytest.raises(ValueError):
        connect_sum(m1, m1, "A", SMALL, SMALL, ("a", "a"))
    with pytest.raises(KeyError):
        connect_sum(m1, m2, "A", SMALL, SMALL, ("a", "zz"))
    with pytest.raises(ValueError):
        connect_sum(m1, m2, "D", SMALL, SMALL, ("a", "b"))


def test_calabi_status():
    assert calabi_status(builtin_example(1))
    assert calabi_status(builtin_example(2))
    assert not calabi_status(builtin_example(3))
    assert not calabi_status(builtin_example(4))
    assert calabi_status(make_torus(1, 0))


def test_example2_both_variants_verbatim():
    # Ribbon disks with an irrational ratio force every leaf open...
    m = builtin_example(2)
    report = classify_leaves(m)
    assert report.all_regular_leaves_noncompact
    assert not report.has_compact_regular_leaf
    # ...while small disks keep every leaf closed.
    t = example_table()
    small = connect_sum(
        make_torus(1 + 0 * t.symbol("lam"), 0, summand_id="t1"),
        make_torus(t.symbol("lam"), 0, summand_id="t2"),
        "A",
        SMALL,
        SMALL,
        ("t1", "t2"),
    )
    report = classify_leaves(small)
    assert report.has_compact_regular_leaf
    assert not report.all_regular_leaves_noncompact


def test_example_matrix():
    expectations = {
        1: dict(rank=3, calabi=True, compact=True, allnc=False, sing=0, generic=True, ci=False, split=False),
        2: dict(rank=2, calabi=True, compact=False, allnc=True, sing=0, generic=True, ci=False, split=True),
        3: dict(rank=4, calabi=False, compact=True, allnc=False, sing=0, generic=True, ci=True, split=False),
        4: dict(rank=3, calabi=False, compact=False, allnc=True, sing=1, generic=False, ci=False, split=False),
    }
    for n, want in expectations.items():
        m = builtin_example(n)
        cls = class_report(m)
        leaves = classify_leaves(m)
        assert cls.genus == 2 and cls.m1 == 2
        assert cls.rank == want["rank"]
        assert cls.completely_irrational == want["ci"]
        assert cls.split == want["split"]
        assert calabi_status(m) == want["calabi"]
        assert leaves.has_compact_regular_leaf == want["compact"]
        assert leaves.all_regular_leaves_noncompact == want["allnc"]
        assert leaves.compact_singular_components == want["sing"]
        assert leaves.generic == want["generic"]
        assert consistency_check(m).ok


def test_example1_periods_order():
    cls = class_report(builtin_example(1))
    assert [str(p) for p in cls.periods] == ["1", "0", "lam", "mu"]


def test_cup_vanisher_examples():
    m1 = builtin_example(1)
    theta = cup_vanisher(m1)
    assert theta is not None
    assert cup_product(m1, theta).is_zero()
    assert cup_vanisher(builtin_example(3)) is None
    torus = make_torus(1, 0)
    theta = cup_vanisher(torus)
    assert theta is not None and cup_product(torus, theta).is_zero()


def test_example_range():
    with pytest.raises(ValueError):
        builtin_example(5)


def test_consistency_check_reports_structure():
    report = consistency_check(builtin_example(4))
    assert report.ok and report.violations == ()
    assert report.checked == ("I1", "I2", "I3", "I4")


def test_mutated_example4_with_a_tubes_is_calabi_and_consistent():
    m = builtin_example(4)
    forced = SurfaceModel(
        "example4-forced-A",
        m.table,
        m.summands,
        tuple(Tube(t.id, t.left, t.right, "A", t.left_disk, t.right_disk) for t in m.tubes),
    )
    leaves = classify_leaves(forced)
    assert leaves.generic and leaves.all_regular_leaves_noncompact
    assert leaves.compact_singular_components == 0
    assert calabi_status(forced)
    assert consistency_check(forced).ok


def test_leaf_report_mutual_exclusion_and_invariants_random():
    rng = random.Random(4231)
    for _ in range(150):
        m = random_model(rng)
        leaves = classify_leaves(m)
        cls = class_report(m)
        assert not (leaves.has_compact_regular_leaf and leaves.all_regular_leaves_noncompact)
        assert leaves.has_compact_regular_leaf != leaves.all_regular_leaves_noncompact
        assert cls.genus == len(m.summands)
        assert cls.m1 == 2 * len(m.tubes) == 2 * cls.genus - 2
        assert cls.rank <= 2 * cls.genus
        assert cls.completely_irrational == (cls.rank == 2 * cls.genus)
        theta = cup_vanisher(m)
        assert (theta is None) == (qrank(list(cls.periods)) == 2 * cls.genus)
        if theta is not None:
            assert any(theta)
            assert cup_product(m, theta).is_zero()
        assert consistency_check(m).ok


def test_three_summand_chain():
    t = example_table()
    lam = t.symbol("lam")
    chain = connect_sum(
        connect_sum(
            make_torus(1 + 0 * lam, 0, summand_id="a"),
            make_torus(lam, 0, summand_id="b"),
            "A",
            SMALL,
            ribbon(2),
            ("a", "b"),
            tube_id="u0",
        ),
        make_torus(t.symbol("mu"), t.symbol("nu"), summand_id="c"),
        "B",
        SMALL,
        SMALL,
        ("b", "c"),
        tube_id="u1",
    )
    assert chain.genus == 3
    cls = class_report(chain)
    assert cls.m1 == 4
    assert cls.rank == 4
    assert not cls.split
    leaves = classify_leaves(chain)
    assert leaves.has_compact_regular_leaf  # the B tube's neck leaves
    assert not calabi_status(chain)
    assert consistency_check(chain).ok


def test_consistency_check_tests_each_summand_once(monkeypatch):
    # One qrank for the class rank, one rank-one test per summand's
    # compactness (shared by the leaf flags and the splitness) and at most
    # one per tube.
    calls = 0

    def counting(real):
        def wrapper(values):
            nonlocal calls
            calls += 1
            return real(values)

        return wrapper

    for name in ("qrank", "_rank_one"):
        monkeypatch.setattr(surfaces, name, counting(getattr(surfaces, name)))
    rng = random.Random(2024_13)
    for _ in range(100):
        m = random_model(rng, max_summands=8)
        calls = 0
        consistency_check(m)
        assert calls <= len(m.summands) + len(m.tubes) + 1


def test_reports_are_computed_once_per_model(monkeypatch):
    # As the benchmark does: class_report, cup_vanisher, then
    # consistency_check, which reads the reports already in hand.
    calls = {"qrank": 0, "integer_relation": 0}

    def counting(name):
        real = getattr(surfaces, name)

        def wrapper(values):
            calls[name] += 1
            return real(values)

        return wrapper

    for name in calls:
        monkeypatch.setattr(surfaces, name, counting(name))
    rng = random.Random(2026_10)
    for _ in range(50):
        m = random_model(rng, max_summands=8)
        calls.update(qrank=0, integer_relation=0)
        class_report(m)
        cup_vanisher(m)
        consistency_check(m)
        assert calls["integer_relation"] == 1
        assert calls["qrank"] <= len(m.summands) + len(m.tubes) + 1
        assert class_report(m) is class_report(m)
        with pytest.raises(KeyError) as exc:
            m.summand("zz")
        assert exc.value.args == ("zz",)


@pytest.mark.parametrize(
    "build, winding",
    [(lambda: ribbon(2.5), 2.5), (lambda: ribbon(0.5), 0.5), (lambda: ribbon("2"), "2"), (lambda: ribbon(True), True)]
    + [(lambda: Disk(True), True), (lambda: Disk(3.0), 3.0)],
)
def test_a_disk_winding_that_is_not_an_int_is_rejected(build, winding):
    # ``serialize`` would write ``ribbon(2.5)`` or ``ribbon(True)``, which
    # ``parse`` rejects; ``validate`` rejects such edge windings alike.
    with pytest.raises(ValueError, match=f"^disk winding {re.escape(repr(winding))} is not an int$"):
        build()


def test_integer_disk_windings_keep_their_messages_and_parse_back():
    assert Disk() == Disk(0) == SMALL and SMALL.is_small and ribbon(3) == Disk(3)
    for w in (0, -1):
        with pytest.raises(ValueError, match="^ribbon winding must be >= 1$"):
            ribbon(w)
    t = make_torus(1, 0, summand_id="a")
    m = connect_sum(t, make_torus(2, 0, summand_id="c"), "B", ribbon(4), SMALL, ("a", "c"))
    assert parse(serialize(m)) == m
