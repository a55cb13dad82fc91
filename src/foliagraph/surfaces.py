"""Connected sums of torus forms with exact periods, and their analysis.

A surface model is a tree of torus summands, each carrying the linear
form p*dtheta + q*dphi with exact periods p, q, joined by tubes of three
kinds: A glues the attaching disks at overlapping levels, B at disjoint
levels, and C at overlapping levels with the tube's two saddle points on
one level.  The attaching disk on each side is either small (misses many
leaves of a compact-leaved summand) or a ribbon winding around the torus
(meets every leaf).  On this family leaf compactness, the rank and
splitness of the class, genericity, Calabi-ness and integral cup-product
annihilators are all decidable exactly from the period data.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .scalars import (
    ExactScalar,
    Rational,
    SymbolDecl,
    SymbolTable,
    _coerce_tables,
    integer_relation,
    qrank,
)

TUBE_KINDS = ("A", "B", "C")


@dataclass(frozen=True)
class Disk:
    """Attaching disk: winding 0 is a small disk, >= 1 a winding ribbon."""

    winding: int = 0

    def __post_init__(self):
        if self.winding < 0:
            raise ValueError("disk winding must be >= 0")

    @property
    def is_small(self) -> bool:
        return self.winding == 0


SMALL = Disk(0)


def ribbon(w: int) -> Disk:
    if w < 1:
        raise ValueError("ribbon winding must be >= 1")
    return Disk(w)


@dataclass(frozen=True)
class Summand:
    id: str
    p: ExactScalar
    q: ExactScalar

    @cached_property
    def compact(self) -> bool:
        """Commensurable periods: the torus form has all leaves compact."""
        return qrank([self.p, self.q]) == 1


@dataclass(frozen=True)
class Tube:
    id: str
    left: str
    right: str
    kind: str
    left_disk: Disk
    right_disk: Disk


@dataclass(frozen=True)
class SurfaceModel:
    name: str
    table: SymbolTable
    summands: tuple[Summand, ...]
    tubes: tuple[Tube, ...]

    def __post_init__(self):
        if not self.summands:
            raise ValueError("a surface model needs at least one summand")
        ids = [s.id for s in self.summands]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate summand ids")
        tids = [t.id for t in self.tubes]
        if len(set(tids)) != len(tids):
            raise ValueError("duplicate tube ids")
        for s in self.summands:
            if s.p.is_zero() and s.q.is_zero():
                raise ValueError(f"summand {s.id}: (p, q) must not be (0, 0)")
        # The incidence structure must be a tree over the summands.
        parent = {i: i for i in ids}

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for t in self.tubes:
            if t.kind not in TUBE_KINDS:
                raise ValueError(f"tube {t.id}: unknown kind {t.kind}")
            if t.left not in parent or t.right not in parent:
                raise ValueError(f"tube {t.id}: unknown summand id")
            a, b = find(t.left), find(t.right)
            if a == b:
                raise ValueError(f"tube {t.id}: creates a cycle among summands")
            parent[a] = b
        if len({find(i) for i in ids}) != 1:
            raise ValueError("summand/tube incidence is not connected")

    def summand(self, sid: str) -> Summand:
        for s in self.summands:
            if s.id == sid:
                return s
        raise KeyError(sid)

    @property
    def genus(self) -> int:
        return len(self.summands)

    def periods(self) -> tuple[ExactScalar, ...]:
        out: list[ExactScalar] = []
        for s in self.summands:
            out.extend((s.p, s.q))
        return tuple(out)

    @cached_property
    def _leaf_flags(self) -> tuple[bool, bool]:
        """(some regular leaf compact, some regular leaf non-compact)."""
        ribboned = {
            sid
            for t in self.tubes
            for sid, disk in ((t.left, t.left_disk), (t.right, t.right_disk))
            if not disk.is_small
        }
        exists_compact = False
        exists_noncompact = False
        for s in self.summands:
            if not s.compact:
                # Irrational slope: every regular leaf of this summand is a
                # dense line meeting every disk.
                exists_noncompact = True
            elif s.id not in ribboned:
                # Derived rule: compact leaves avoiding every (small) disk
                # survive the sum untouched, whatever the tube kinds are.
                exists_compact = True
        for t in self.tubes:
            if t.kind == "B":
                # Disjoint levels: the tube caps leaves off and inserts new
                # compact neck leaves.
                exists_compact = True
                continue
            # A joins leaves level-by-level; the C case away from its singular
            # level is a derived extension of the same rule.
            ls, rs = self.summand(t.left), self.summand(t.right)
            joined_compact = (
                ls.compact
                and rs.compact
                and (
                    (t.left_disk.is_small and t.right_disk.is_small)
                    or qrank([ls.p, ls.q, rs.p, rs.q]) == 1
                )
            )
            if joined_compact:
                exists_compact = True
            else:
                exists_noncompact = True
        return exists_compact, exists_noncompact


@dataclass(frozen=True)
class LeafReport:
    has_compact_regular_leaf: bool
    all_regular_leaves_noncompact: bool
    compact_singular_components: int
    generic: bool


@dataclass(frozen=True)
class ClassReport:
    periods: tuple[ExactScalar, ...]
    rank: int
    completely_irrational: bool
    split: bool
    m1: int
    genus: int


@dataclass(frozen=True)
class ConsistencyReport:
    ok: bool
    violations: tuple[str, ...]
    checked: tuple[str, ...]


def make_torus(
    p: ExactScalar | Rational,
    q: ExactScalar | Rational,
    name: str = "torus",
    summand_id: str = "t0",
) -> SurfaceModel:
    """A single torus with form p*dtheta + q*dphi; (p, q) != (0, 0)."""
    table = SymbolTable()
    for v in (p, q):
        if isinstance(v, ExactScalar):
            table = _coerce_tables(table, v.table)
    ps, qs = (v.rebind(table) if isinstance(v, ExactScalar) else table.rational(v) for v in (p, q))
    return SurfaceModel(name, table, (Summand(summand_id, ps, qs),), ())


def connect_sum(
    m1: SurfaceModel,
    m2: SurfaceModel,
    kind: str,
    d1: Disk,
    d2: Disk,
    at: tuple[str, str],
    tube_id: str | None = None,
    name: str | None = None,
) -> SurfaceModel:
    """Join two disjoint models by one tube between the named summands.

    Adds two index-1 critical points; the result stays a tree, so any
    overlap of summand ids (in particular summing a model with itself)
    is rejected as a cycle.
    """
    if kind not in TUBE_KINDS:
        raise ValueError(f"unknown tube kind {kind!r}")
    overlap = {s.id for s in m1.summands} & {s.id for s in m2.summands}
    if overlap:
        raise ValueError(f"connected sum would create a cycle: shared ids {sorted(overlap)}")
    left, right = at
    m1.summand(left), m2.summand(right)
    table = _coerce_tables(m1.table, m2.table)
    summands = tuple(
        Summand(s.id, s.p.rebind(table), s.q.rebind(table))
        for s in m1.summands + m2.summands
    )
    tid = tube_id or f"u{len(m1.tubes) + len(m2.tubes)}"
    tubes = m1.tubes + m2.tubes + (Tube(tid, left, right, kind, d1, d2),)
    return SurfaceModel(name or f"{m1.name}+{m2.name}", table, summands, tubes)


def calabi_status(m: SurfaceModel) -> bool:
    """A-tubes preserve the Calabi property; B and C destroy it.  A lone
    torus carries a non-singular form, which is always Calabi."""
    return all(t.kind == "A" for t in m.tubes)


def classify_leaves(m: SurfaceModel) -> LeafReport:
    """Decision table for the leaf structure of the summed form.

    Per summand, compact leaves exist iff its two periods are
    commensurable.  A-tubes join leaves at equal levels and the joined
    leaves close up only when both sides are compact and either both
    disks are small (each leaf crosses at most once) or all four periods
    are commensurable; B-tubes always create new compact leaves; each
    C-tube creates exactly one compact singular leaf component and ties
    two critical points to one level, killing genericity.
    """
    exists_compact, _ = m._leaf_flags
    singular = sum(1 for t in m.tubes if t.kind == "C")
    generic = all(t.kind != "C" for t in m.tubes)
    return LeafReport(
        has_compact_regular_leaf=exists_compact,
        all_regular_leaves_noncompact=not exists_compact,
        compact_singular_components=singular,
        generic=generic,
    )


def class_report(m: SurfaceModel) -> ClassReport:
    periods = m.periods()
    rank = qrank(periods)
    genus = m.genus
    # Splitness: the class factors through a free group exactly when each
    # summand contributes a cyclic period group (rank <= 1 there); a rank-2
    # summand forces a Z^2 through any such factorization.
    split = all(s.compact for s in m.summands)
    return ClassReport(
        periods=periods,
        rank=rank,
        completely_irrational=rank == 2 * genus,
        split=split,
        m1=2 * len(m.tubes),
        genus=genus,
    )


def cup_vanisher(m: SurfaceModel) -> tuple[int, ...] | None:
    """A nonzero integral class with vanishing cup product against the form.

    In the standard symplectic basis a class (a_1, b_1, ..., a_g, b_g)
    pairs with the form to sum(a_i*q_i - b_i*p_i), so an annihilator is an
    exact integer relation among (q_1, -p_1, ..., q_g, -p_g); it exists
    exactly when the 2g periods are rationally dependent.
    """
    paired: list[ExactScalar] = []
    for s in m.summands:
        paired.extend((s.q, -s.p))
    return integer_relation(paired)


def cup_product(m: SurfaceModel, theta: tuple[int, ...]) -> ExactScalar:
    """Exact value of the cup pairing of an integral class with the form."""
    if len(theta) != 2 * m.genus:
        raise ValueError("class vector needs 2*genus entries")
    acc = m.table.rational(0)
    for s, (a, b) in zip(m.summands, zip(theta[::2], theta[1::2])):
        acc = acc + s.q * a - s.p * b
    return acc


def _example_table() -> SymbolTable:
    return SymbolTable(
        (
            SymbolDecl("lam", Fraction(141, 100), Fraction(142, 100)),
            SymbolDecl("mu", Fraction(173, 100), Fraction(174, 100)),
            SymbolDecl("nu", Fraction(223, 100), Fraction(224, 100)),
        )
    )


def builtin_example(n: int) -> SurfaceModel:
    """The four reference genus-2 sums over symbols lam, mu, nu.

    1: T(1,0) joined by an A-tube with small disks to T(lam,mu);
    2: T(1,0) joined by an A-tube with ribbons (3 and 2 turns) to T(lam,0);
    3: T(1,lam) joined by a B-tube with small disks to T(mu,nu);
    4: T(1,lam) joined by a C-tube with small disks to T(1,mu).
    """
    t = _example_table()
    lam, mu, nu = t.symbol("lam"), t.symbol("mu"), t.symbol("nu")
    one, zero = t.rational(1), t.rational(0)
    if n == 1:
        left = make_torus(one, zero, name="example1", summand_id="t1")
        right = make_torus(lam, mu, summand_id="t2")
        return connect_sum(left, right, "A", SMALL, SMALL, ("t1", "t2"), "u", "example1")
    if n == 2:
        left = make_torus(one, zero, name="example2", summand_id="t1")
        right = make_torus(lam, zero, summand_id="t2")
        return connect_sum(left, right, "A", ribbon(3), ribbon(2), ("t1", "t2"), "u", "example2")
    if n == 3:
        left = make_torus(one, lam, name="example3", summand_id="t1")
        right = make_torus(mu, nu, summand_id="t2")
        return connect_sum(left, right, "B", SMALL, SMALL, ("t1", "t2"), "u", "example3")
    if n == 4:
        left = make_torus(one, lam, name="example4", summand_id="t1")
        right = make_torus(one, mu, summand_id="t2")
        return connect_sum(left, right, "C", SMALL, SMALL, ("t1", "t2"), "u", "example4")
    raise ValueError("examples are numbered 1 to 4")


def consistency_check(m: SurfaceModel) -> ConsistencyReport:
    """Evaluate the implications tying the class data, the leaf structure
    and the Calabi property together.  Violations are reported, never
    raised.

    On this model family each implication follows from the decision table
    itself, so a pass restates the rules and is no independent evidence:
    I1 because at rank 1 every summand and every joined tube is compact;
    I2 because a generic non-Calabi model has a B-tube, and a B-tube sets
    a compact leaf; I3 because with no vanisher the rank is 2g, so no
    summand is compact and no A-tube joins compact leaves; I4 because both
    sides read the span of the same 2g periods.  The independent evidence
    is the oracle checks in the tests and in the benchmark.
    """
    leaves = classify_leaves(m)
    cls = class_report(m)
    calabi = calabi_status(m)
    vanisher = cup_vanisher(m)
    _, exists_noncompact = m._leaf_flags

    checks: list[tuple[str, bool, str]] = [
        (
            "I1",
            not (cls.rank == 1 and exists_noncompact),
            "a rank-one class must have all regular leaves compact",
        ),
        (
            "I2",
            not (
                leaves.generic
                and leaves.all_regular_leaves_noncompact
                and leaves.compact_singular_components == 0
                and not calabi
            ),
            "a generic form with no compact leaves must be Calabi",
        ),
        (
            "I3",
            not (calabi and leaves.has_compact_regular_leaf and vanisher is None),
            "a Calabi form with a compact leaf needs an integral cup annihilator",
        ),
        (
            "I4",
            not (cls.completely_irrational and vanisher is not None),
            "a completely irrational class admits no integral cup annihilator",
        ),
    ]
    violations = tuple(f"{tag}: {msg}" for tag, ok, msg in checks if not ok)
    return ConsistencyReport(
        ok=not violations,
        violations=violations,
        checked=tuple(tag for tag, _, _ in checks),
    )
