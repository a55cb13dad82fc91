"""The records of the reduction, scalar and surface layers are named tuples.

Their reprs are pinned as the earlier frozen dataclasses printed them;
every record is frozen and survives ``copy`` and ``pickle``; and a
checked record runs its constructor's checks through ``_replace`` too,
except ``CutGraph``, whose ``_make`` is the unchecked constructor that
``cut`` and ``harmonize`` use.
"""

import copy
import hashlib
import pickle
import re
from fractions import Fraction

import pytest

from foliagraph import (
    SMALL,
    CutGraph,
    Event,
    ReductionTrace,
    builtin,
    builtin_example,
    class_report,
    classify_leaves,
    complexity,
    consistency_check,
    cut,
    harmonize,
    sort_events,
)

DUMBBELL_CUT = (
    "CutGraph(bottom=(2, 4), top=(1, 3), events=(Event(kind='SPLIT', inputs=(2,), outputs=(0, 1)), "
    "Event(kind='MERGE', inputs=(0, 4), outputs=(3,))), source='dumbbell')"
)
DUMBBELL_SORTED = (
    "(CutGraph(bottom=(2, 4), top=(1, 3), events=(Event(kind='MERGE', inputs=(2, 4), outputs=(5,)), "
    "Event(kind='SPLIT', inputs=(5,), outputs=(1, 3))), source='dumbbell'), 1)"
)
DUMBBELL_TRACE = (
    "ReductionTrace(steps=(ReductionStep(cut_angle=Fraction(0, 1), complexity_before=2, complexity_after=1, "
    "rewrites=1, word=(Event(kind='MERGE', inputs=(2, 4), outputs=(5,)), "
    "Event(kind='SPLIT', inputs=(5,), outputs=(1, 3)))),))"
)


def _dumbbell():
    g = builtin("dumbbell")
    c = cut(g, complexity(g)[1])
    return g, c, harmonize(g)[1]


def test_reprs_match_the_dataclass_reprs():
    # The four examples and their three reports print 12,926 characters,
    # each table in full inside every scalar, so they are pinned by digest.
    text = "\n".join(
        repr(x)
        for n in range(1, 5)
        for m in [builtin_example(n)]
        for x in (m, classify_leaves(m), class_report(m), consistency_check(m))
    )
    assert hashlib.sha256(text.encode()).hexdigest() == "ad2825059d848800b88c3ef537aa9cbe9d5da6428afa9a92b0f49f8d9f89836f"
    m = builtin_example(4)
    assert repr(consistency_check(m)) == "ConsistencyReport(ok=True, violations=(), checked=('I1', 'I2', 'I3', 'I4'))"
    assert repr(classify_leaves(m)) == (
        "LeafReport(has_compact_regular_leaf=False, all_regular_leaves_noncompact=True, "
        "compact_singular_components=1, generic=False)"
    )
    assert repr(builtin_example(2).tubes) == (
        "(Tube(id='u', left='t1', right='t2', kind='A', left_disk=Disk(winding=3), right_disk=Disk(winding=2)),)"
    )
    _, c, trace = _dumbbell()
    assert repr(c) == DUMBBELL_CUT
    assert repr(sort_events(c)) == DUMBBELL_SORTED
    assert repr(trace) == DUMBBELL_TRACE
    assert repr(ReductionTrace()) == "ReductionTrace(steps=())"


def test_reduction_step_equality_compares_its_graphs():
    g, _, trace = _dumbbell()
    (step,) = trace.steps
    assert step == tuple(step) and hash(step) == hash(step[:5])
    other = step._replace(graph_before=builtin("theta"))
    assert other != step and hash(other) == hash(step) and repr(other) == repr(step)
    assert step.graph_before == g


@pytest.mark.parametrize("name", ["model", "cut", "trace"])
def test_records_are_frozen_and_survive_copy_and_pickle(name):
    m = builtin_example(2)
    class_report(m), m.summands[0].compact  # fill the cached properties
    _, c, trace = _dumbbell()
    record = {"model": m, "cut": c, "trace": trace}[name]
    for field in record._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
        with pytest.raises(AttributeError):
            delattr(record, field)
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert clone == record and type(clone) is type(record) and repr(clone) == repr(record)
    if name == "model":
        clone = pickle.loads(pickle.dumps(m))
        assert class_report(clone) == class_report(m) and consistency_check(clone) == consistency_check(m)


def test_cached_properties_of_frozen_records_fill_once():
    m = builtin_example(1)
    assert m.table.names is m.table.names
    assert m.summands[1].compact is False and "compact" in vars(m.summands[1])
    for record in (m, m.table, m.summands[0]):
        with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
            record.x = 1


@pytest.mark.parametrize(
    "replace, message",
    [
        (lambda m: m._replace(tubes=m.tubes * 2), "tube u: duplicate id"),
        (lambda m: m._replace(name="a b"), "model name 'a b' is empty or holds whitespace or '#'"),
        (lambda m: m._replace(summands=()), "a surface model needs at least one summand"),
        (lambda m: m.table._replace(decls=m.table.decls * 2), "duplicate symbol names in table"),
        (lambda m: m.table.decls[0]._replace(lo=Fraction(2)), "symbol lam: interval needs lo < hi"),
        (lambda m: m.table.decls[0]._replace(name="1x"), r"symbol name '1x' does not match [A-Za-z_]\w*"),
        (lambda m: m.tubes[0].left_disk._replace(winding=-1), "disk winding must be >= 0"),
        (lambda m: SMALL._replace(winding=0.5), "disk winding 0.5 is not an int"),
    ],
)
def test_replace_on_a_checked_record_runs_its_checks(replace, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        replace(builtin_example(2))


def test_a_cuts_make_and_replace_skip_the_replay_check():
    _, c, _ = _dumbbell()
    with pytest.raises(ValueError, match="^replaying events does not yield the top strands$"):
        CutGraph(c.bottom, (9, 9), c.events, c.source)
    assert c._replace(top=(9, 9)).top == (9, 9)
    assert CutGraph._make((c.bottom, (9, 9), c.events, c.source)).top == (9, 9)


def test_records_equal_plain_tuples():
    _, c, _ = _dumbbell()
    assert c == (c.bottom, c.top, c.events, c.source)
    assert c.events[0] == ("SPLIT", (2,), (0, 1)) and Event(*c.events[0]) == c.events[0]
    assert SMALL == (0,) and ReductionTrace() == ((),)
