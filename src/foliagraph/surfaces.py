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

The surface half of the text format is here too (``parse_value``,
``serialize_surface`` and the ``scalar`` and ``surface`` directives that
``fileio.parse`` hands over), so that reading a graph file never loads
this layer.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from math import gcd

from .fileio import _RATIONAL, _col, _fail, _Lines, _ratio, _ratio_parts
from .graph import _token_faults
from .scalars import (
    SYMBOL_NAME,
    ExactScalar,
    Rational,
    SymbolDecl,
    SymbolTable,
    _coerce_tables,
    _Record,
    _rank_one,
    _reduced,
    integer_relation,
    qrank,
)

TUBE_KINDS = ("A", "B", "C")


class Disk(_Record, namedtuple("Disk", "winding")):
    """Attaching disk: winding 0 is a small disk, >= 1 a winding ribbon.
    ValueError unless the winding is an int (not a bool) and >= 0."""

    __slots__ = ()

    def __new__(cls, winding: int = 0):
        if winding.__class__ is not int:
            raise ValueError(f"disk winding {winding!r} is not an int")
        if winding < 0:
            raise ValueError("disk winding must be >= 0")
        return tuple.__new__(cls, (winding,))

    @property
    def is_small(self) -> bool:
        return self.winding == 0


SMALL = Disk(0)


def ribbon(w: int) -> Disk:
    if w < 1:
        raise ValueError("ribbon winding must be >= 1")
    return Disk(w)


class Summand(_Record, namedtuple("Summand", "id p q")):
    @cached_property
    def compact(self) -> bool:
        """Commensurable periods: the torus form has all leaves compact."""
        return _rank_one([self.p, self.q])


Tube = namedtuple("Tube", "id left right kind left_disk right_disk")


class ModelFault(ValueError):
    """A fault of one part of a surface model: the ``part`` ("summand" or
    "tube") at ``index`` in the model's tuple of them.  The message names
    the part by its id; the parser reports the fault at the part's line."""

    def __init__(self, message: str, part: str, index: int):
        super().__init__(message)
        self.part = part
        self.index = index


class SurfaceModel(_Record, namedtuple("SurfaceModel", "name table summands tubes")):
    def __new__(cls, name: str, table: SymbolTable, summands: tuple[Summand, ...], tubes: tuple[Tube, ...]):
        faults = (
            _token_faults("model name", [name])
            + _token_faults("summand id", [s.id for s in summands])
            + _token_faults("tube id", [t.id for t in tubes])
        )
        if faults:
            raise ValueError(faults[0])
        if not summands:
            raise ValueError("a surface model needs at least one summand")
        ids = [s.id for s in summands]
        for part, names in (("summand", ids), ("tube", [t.id for t in tubes])):
            if len(set(names)) != len(names):
                i = next(i for i, x in enumerate(names) if x in names[:i])
                raise ModelFault(f"{part} {names[i]}: duplicate id", part, i)
        for i, s in enumerate(summands):
            if s.p.is_zero() and s.q.is_zero():
                raise ModelFault(f"summand {s.id}: (p, q) must not be (0, 0)", "summand", i)
        # The incidence structure must be a tree over the summands.
        parent = {i: i for i in ids}

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i, t in enumerate(tubes):
            if t.kind not in TUBE_KINDS:
                raise ModelFault(f"tube {t.id}: unknown kind {t.kind}", "tube", i)
            if t.left not in parent or t.right not in parent:
                raise ModelFault(f"tube {t.id}: unknown summand id", "tube", i)
            a, b = find(t.left), find(t.right)
            if a == b:
                raise ModelFault(f"tube {t.id}: creates a cycle among summands", "tube", i)
            parent[a] = b
        if len({find(i) for i in ids}) != 1:
            raise ValueError("summand/tube incidence is not connected")
        return tuple.__new__(cls, (name, table, summands, tubes))

    @cached_property
    def _summand_by_id(self) -> dict[str, Summand]:
        return {s.id: s for s in self.summands}

    def summand(self, sid: str) -> Summand:
        return self._summand_by_id[sid]

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
                    or _rank_one([ls.p, ls.q, rs.p, rs.q])
                )
            )
            if joined_compact:
                exists_compact = True
            else:
                exists_noncompact = True
        return exists_compact, exists_noncompact

    @cached_property
    def _class_report(self) -> ClassReport:
        periods = self.periods()
        rank = qrank(periods)
        # Splitness: the class factors through a free group exactly when
        # each summand contributes a cyclic period group (rank <= 1 there);
        # a rank-2 summand forces a Z^2 through any such factorization.
        return ClassReport(
            periods=periods,
            rank=rank,
            completely_irrational=rank == 2 * self.genus,
            split=all(s.compact for s in self.summands),
            m1=2 * len(self.tubes),
            genus=self.genus,
        )

    @cached_property
    def _cup_vanisher(self) -> tuple[int, ...] | None:
        # A relation on (q_1, p_1, ...) with the p entries negated is one on
        # (q_1, -p_1, ...); relating the periods themselves negates no scalar.
        paired: list[ExactScalar] = []
        for s in self.summands:
            paired.extend((s.q, s.p))
        rel = integer_relation(paired)
        if rel is None:
            return None
        theta = [-a if k % 2 else a for k, a in enumerate(rel)]
        sign = -1 if next(a for a in theta if a) < 0 else 1
        return tuple(sign * a for a in theta)


LeafReport = namedtuple(
    "LeafReport", "has_compact_regular_leaf all_regular_leaves_noncompact compact_singular_components generic"
)
ClassReport = namedtuple("ClassReport", "periods rank completely_irrational split m1 genus")
ConsistencyReport = namedtuple("ConsistencyReport", "ok violations checked")


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

    Adds two index-1 critical points.  KeyError if ``at`` names a summand
    that its model lacks.  The ``SurfaceModel`` it builds rejects an
    unknown tube kind and any overlap of summand ids (in particular
    summing a model with itself), with ValueError.
    """
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
    """Rank, splitness and complete irrationality of the class; computed
    once per model."""
    return m._class_report


def cup_vanisher(m: SurfaceModel) -> tuple[int, ...] | None:
    """A nonzero integral class with vanishing cup product against the form.

    In the standard symplectic basis a class (a_1, b_1, ..., a_g, b_g)
    pairs with the form to sum(a_i*q_i - b_i*p_i), so an annihilator is an
    exact integer relation among (q_1, -p_1, ..., q_g, -p_g); it exists
    exactly when the 2g periods are rationally dependent.  Computed once
    per model.
    """
    return m._cup_vanisher


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


# -- the surface text format ------------------------------------------------

# A value splits at its signs into terms; a term is a coefficient times a
# symbol, a symbol, or a rational.  Groups: the coefficient's three
# ``_RATIONAL`` groups, the symbol, the rational's three.
_SIGNS = re.compile(r"\s*([+-])\s*")
_TERM = re.compile(rf"(?:{_RATIONAL.pattern}\s*\*\s*)?({SYMBOL_NAME})|{_RATIONAL.pattern}")


def parse_value(expr: str, table: SymbolTable) -> ExactScalar:
    """Parse ``q0 + q1*name1 - ...`` over the given table, term by term:
    each term's integer numerator goes into the integer row over one
    running common denominator, which grows only when a term's
    denominator does not divide it."""
    text = expr.strip()
    if not text:
        raise ValueError("empty value")
    chunks = _SIGNS.split(text)
    if chunks[0] == "":
        chunks = chunks[1:]
    else:
        chunks = ["+"] + chunks
    coordinate = table._coordinate
    ints = [0] * (len(table.names) + 1)
    den = 1
    for sign, term in zip(chunks[::2], chunks[1::2]):
        m = _TERM.fullmatch(term)
        if not m:
            raise ValueError(f"malformed term {term!r}")
        whole, d, frac, name, *number = m.groups()
        if name is None:
            i = 0
            whole, d, frac = number
        else:
            i = coordinate.get(name)
            if i is None:
                raise ValueError(f"unknown scalar {name!r}")
        n, q = (1, 1) if whole is None else _ratio_parts(whole, d, frac)
        if den % q:
            grow = q // gcd(den, q)
            ints = [x * grow for x in ints]
            den *= grow
        ints[i] += (n if sign == "+" else -n) * (den // q)
    return _reduced(table, den, ints)


_DISK_RE = re.compile(r"^(small|ribbon\(([0-9]+)\))$")
_SUMMAND_RE = re.compile(r"^\s*summand\s+(\S+)\s+periods\s+\((.+)\)\s*$")
_SCALAR_RE = re.compile(rf"^\s*scalar\s+({SYMBOL_NAME})\s+irrational\s+approx\s+\[\s*(\S+?)\s*,\s*(\S+?)\s*\]\s*$")


def _parse_scalar(lines: _Lines, lineno: int, text: str, decls: list[SymbolDecl]) -> SymbolDecl:
    """The declaration on a ``scalar`` line, whose name ``decls`` lacks."""
    m = _SCALAR_RE.match(text)
    if not m:
        _fail(lines, lineno, _col(text, 0), "expected 'scalar <name> irrational approx [<lo>, <hi>]'")
    bounds = []
    for k in (2, 3):
        try:
            bounds.append(Fraction(*_ratio(m.group(k))))
        except ValueError as exc:
            _fail(lines, lineno, m.start(k) + 1, str(exc))
    lo, hi = bounds
    if not lo < hi:
        _fail(lines, lineno, m.start(2) + 1, "interval needs lo < hi")
    if any(d.name == m.group(1) for d in decls):
        _fail(lines, lineno, m.start(1) + 1, f"scalar {m.group(1)!r} declared twice")
    return SymbolDecl(m.group(1), lo, hi)


def _parse_disk(token: str) -> Disk:
    m = _DISK_RE.match(token)
    if not m:
        raise ValueError(f"expected 'small' or 'ribbon(<w>)', got {token!r}")
    return SMALL if m.group(2) is None else ribbon(int(m.group(2)))


def _parse_surface(lines: _Lines, lineno: int, header: str, decls: list[SymbolDecl]) -> SurfaceModel:
    words = header.split()
    if len(words) != 2:
        _fail(lines, lineno, _col(header, 0), "expected 'surface <name>'")
    name = words[1]
    table = SymbolTable(tuple(decls))
    summands: list[Summand] = []
    known: set[str] = set()
    tubes: list[Tube] = []
    # Per part kind, in order, each part's line number and text: a
    # ModelFault of that part is reported at its id, the line's second word.
    at: dict[str, list[tuple[int, str]]] = {"summand": [], "tube": []}
    for lno, text in lines:
        ws = text.split()
        if ws[0] == "end":
            if len(ws) > 1:
                _fail(lines, lno, _col(text, 1), "expected 'end'")
            try:
                return SurfaceModel(name, table, tuple(summands), tuple(tubes))
            except ModelFault as exc:
                part_lno, part_text = at[exc.part][exc.index]
                _fail(lines, part_lno, _col(part_text, 1), str(exc))
            except ValueError as exc:
                _fail(lines, lno, _col(text, 0), str(exc))
        if ws[0] == "summand":
            m = _SUMMAND_RE.match(text)
            if not m:
                _fail(lines, lno, _col(text, 0), "expected 'summand <id> periods (<p>, <q>)'")
            parts = m.group(2).split(",")
            if len(parts) != 2:
                _fail(lines, lno, m.start(2) + 1, "periods need exactly two values")
            try:
                p = parse_value(parts[0], table)
                q = parse_value(parts[1], table)
            except ValueError as exc:
                _fail(lines, lno, m.start(2) + 1, str(exc))
            if p.is_zero() and q.is_zero():
                _fail(lines, lno, m.start(2) + 1, "periods (0, 0) define no form")
            summands.append(Summand(m.group(1), p, q))
            at["summand"].append((lno, text))
            known.add(m.group(1))
        elif ws[0] == "tube":
            if len(ws) != 9 or ws[4] != "kind" or ws[6] != "disks":
                _fail(lines, lno, _col(text, 0), "expected 'tube <id> <sid> <sid> kind A|B|C disks <disk> <disk>'")
            if ws[5] not in TUBE_KINDS:
                _fail(lines, lno, _col(text, 5), f"tube kind must be A, B or C, got {ws[5]!r}")
            for k in (2, 3):
                if ws[k] not in known:
                    _fail(lines, lno, _col(text, k), f"unknown summand {ws[k]!r}")
            disks = []
            for k in (7, 8):
                try:
                    disks.append(_parse_disk(ws[k]))
                except ValueError as exc:
                    _fail(lines, lno, _col(text, k), str(exc))
            tubes.append(Tube(ws[1], ws[2], ws[3], ws[5], *disks))
            at["tube"].append((lno, text))
        else:
            _fail(lines, lno, _col(text, 0), f"unexpected directive {ws[0]!r} in surface block")
    lines.end_of_file()


def _disk_str(d: Disk) -> str:
    return "small" if d.is_small else f"ribbon({d.winding})"


def serialize_surface(m: SurfaceModel) -> str:
    out = []
    for d in m.table.decls:
        out.append(f"scalar {d.name} irrational approx [{d.lo}, {d.hi}]")
    out.append(f"surface {m.name}")
    for s in m.summands:
        out.append(f"  summand {s.id} periods ({s.p}, {s.q})")
    for t in m.tubes:
        out.append(
            f"  tube {t.id} {t.left} {t.right} kind {t.kind} "
            f"disks {_disk_str(t.left_disk)} {_disk_str(t.right_disk)}"
        )
    out.append("end")
    return "\n".join(out) + "\n"
