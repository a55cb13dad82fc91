"""Line-oriented text formats for graphs and surface models, plus DOT.

Graph files:

    graph <name>
      vertex <id> MERGE|SPLIT <angle in turns, rational>
      edge <id> <vid>.<out0|out1> -> <vid>.<in0|in1> winding <nat>
    end

or ``graph <name> freecircle <w> end`` on one line.  Surface files:

    scalar <name> irrational approx [<lo>, <hi>]
    surface <name>
      summand <id> periods (<value>, <value>)
      tube <id> <sid> <sid> kind A|B|C disks small|ribbon(<w>) small|ribbon(<w>)
    end

Rationals are written ``p/q``; on input every angle, interval bound and
coefficient is an ASCII integer, fraction or decimal: ``-?[0-9]+``,
optionally followed by ``/[0-9]+`` or ``.[0-9]+``.  Values are rational
combinations of declared scalars like ``1/2 + 3*lam - mu``.
``#`` starts a comment.  Serialization is canonical (sorted ids, p/q
rationals) and parsing a serialized object reproduces it exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .graph import (
    ARITY,
    IN_SLOTS,
    MERGE,
    OUT_SLOTS,
    SPLIT,
    Foliation,
    FoliationGraph,
    FreeCircle,
    _tables,
)
from .scalars import SYMBOL_NAME, ExactScalar, SymbolDecl, SymbolTable, _reduced
from .surfaces import SMALL, TUBE_KINDS, Disk, ModelFault, Summand, SurfaceModel, Tube, ribbon

ParsedFile = FoliationGraph | FreeCircle | SurfaceModel


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str, filename: str = "<input>"):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.filename = filename
        self.message = message


class _Lines:
    """A file's lines that hold more than whitespace and a comment, as
    (line number, text without the comment), read once, in order, by
    iterating."""

    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.rows: list[tuple[int, str]] = []
        # Lines end at "\n" only, as in an editor: str.splitlines also
        # breaks at form feeds and other separators, which would end a
        # comment early and shift every later line number.  The "\r" of a
        # CRLF line end is trailing whitespace, like a form feed mid-line.
        for i, raw in enumerate(text.split("\n"), start=1):
            if "#" in raw:
                raw = raw[: raw.index("#")]
            if raw and not raw.isspace():
                self.rows.append((i, raw))
        self._rest = iter(self.rows)

    def __iter__(self):
        return self._rest

    def end_of_file(self):
        last = self.rows[-1][0] if self.rows else 1
        raise ParseError(last, 1, "unexpected end of file", self.filename)


def _fail(lines: _Lines, lineno: int, col: int, message: str):
    raise ParseError(lineno, col, message, lines.filename)


def _col(text: str, word: int) -> int:
    """1-based column of the ``word``-th word of ``text``, located by its
    position: its spelling may also occur earlier in the line."""
    return [m.start() + 1 for m in re.finditer(r"\S+", text)][word]


# The one grammar of a rational on input, the same on every Python version
# (``Fraction(str)`` also takes "1_0", "1e-1" and non-ASCII digits, some
# only on newer versions).
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+)|\.([0-9]+))?")


def _ratio(token: str) -> tuple[int, int]:
    """The rational ``token`` as an integer numerator and a positive
    denominator, not reduced."""
    m = _RATIONAL.fullmatch(token)
    if m is None:
        raise ValueError(f"expected a rational number, got {token!r}")
    return _ratio_parts(*m.groups())


def _ratio_parts(whole: str, den: str | None, frac: str | None) -> tuple[int, int]:
    """``_ratio`` of the rational whose ``_RATIONAL`` groups are given."""
    if den is not None:
        d = int(den)
        if d == 0:
            raise ValueError(f"expected a rational number, got {whole + '/' + den!r}")
        return int(whole), d
    if frac is not None:  # whole.frac = int(whole + frac) / 10**len(frac)
        return int(whole + frac), 10 ** len(frac)
    return int(whole), 1


def _rational(token: str) -> Fraction:
    return Fraction(*_ratio(token))


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


def _parse_graph(lines: _Lines, lineno: int, header: str) -> Foliation:
    words = header.split()
    if len(words) < 2:
        _fail(lines, lineno, _col(header, 0), "graph needs a name")
    name = words[1]
    if len(words) == 5 and words[2] == "freecircle" and words[4] == "end":
        # ASCII digits only: str.isdigit also accepts '²', which int() rejects.
        try:
            w = int(words[3]) if words[3].isascii() and words[3].isdigit() else -1
        except ValueError as exc:  # more digits than int() converts
            _fail(lines, lineno, _col(header, 3), str(exc))
        if w < 1:
            _fail(lines, lineno, _col(header, 3), "freecircle winding must be a natural >= 1")
        return FreeCircle(name, w)
    if len(words) != 2:
        _fail(lines, lineno, _col(header, 2), "expected 'graph <name>' or 'graph <name> freecircle <w> end'")

    # The graph's rows in file order; _tables sorts them into id order.
    vertices: list[tuple[str, str, int, int]] = []
    edges: list[tuple[str, str, str, str, str, int]] = []
    for lno, text in lines:
        ws = text.split()
        if ws[0] == "end":
            if len(ws) > 1:
                _fail(lines, lno, _col(text, 1), "expected 'end'")
            return FoliationGraph._make(**_tables(name, vertices, edges))
        if ws[0] == "vertex":
            if len(ws) != 4 or ws[2] not in ARITY:
                _fail(lines, lno, _col(text, 0), "expected 'vertex <id> MERGE|SPLIT <angle>'")
            try:
                num, den = _ratio(ws[3])
            except ValueError as exc:
                _fail(lines, lno, _col(text, 3), str(exc))
            if not 0 <= num < den:
                _fail(lines, lno, _col(text, 3), f"angle {ws[3]} outside [0, 1) turns")
            g = gcd(num, den)
            vertices.append((ws[1], MERGE if ws[2] == MERGE else SPLIT, num // g, den // g))
        elif ws[0] == "edge":
            if len(ws) != 7 or ws[3] != "->" or ws[5] != "winding":
                _fail(lines, lno, _col(text, 0), "expected 'edge <id> <v>.<out> -> <v>.<in> winding <nat>'")
            # (vertex, slot) split at the last ".", so a vertex id may hold dots.
            tail, _, tail_slot = ws[2].rpartition(".")
            head, _, head_slot = ws[4].rpartition(".")
            if not tail or tail_slot not in OUT_SLOTS[SPLIT]:
                _fail(lines, lno, _col(text, 2), f"tail {ws[2]!r} must be <vertex>.out0 or .out1")
            if not head or head_slot not in IN_SLOTS[MERGE]:
                _fail(lines, lno, _col(text, 4), f"head {ws[4]!r} must be <vertex>.in0 or .in1")
            if not (ws[6].isascii() and ws[6].isdigit()):
                _fail(lines, lno, _col(text, 6), "winding must be a natural number")
            try:
                winding = int(ws[6])
            except ValueError as exc:  # more digits than int() converts
                _fail(lines, lno, _col(text, 6), str(exc))
            edges.append((ws[1], tail, tail_slot, head, head_slot, winding))
        else:
            _fail(lines, lno, _col(text, 0), f"unexpected directive {ws[0]!r} in graph block")
    lines.end_of_file()


_DISK_RE = re.compile(r"^(small|ribbon\(([0-9]+)\))$")
_SUMMAND_RE = re.compile(r"^\s*summand\s+(\S+)\s+periods\s+\((.+)\)\s*$")
_SCALAR_RE = re.compile(rf"^\s*scalar\s+({SYMBOL_NAME})\s+irrational\s+approx\s+\[\s*(\S+?)\s*,\s*(\S+?)\s*\]\s*$")


def _parse_disk(token: str) -> Disk:
    m = _DISK_RE.match(token)
    if not m:
        raise ValueError(f"expected 'small' or 'ribbon(<w>)', got {token!r}")
    return SMALL if m.group(2) is None else ribbon(int(m.group(2)))


def _parse_surface(lines: _Lines, lineno: int, header: str, table: SymbolTable) -> SurfaceModel:
    words = header.split()
    if len(words) != 2:
        _fail(lines, lineno, _col(header, 0), "expected 'surface <name>'")
    name = words[1]
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


def parse(data: bytes | str, filename: str = "<input>") -> ParsedFile:
    """Parse a graph or surface file, detected from its first directive."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(1, 1, f"not valid UTF-8: {exc}", filename) from exc
    else:
        text = data
    lines = _Lines(text, filename)
    if not lines.rows:
        raise ParseError(1, 1, "empty file", filename)

    decls: list[SymbolDecl] = []
    result: ParsedFile | None = None
    for lineno, text_line in lines:
        words = text_line.split()
        if words[0] == "scalar":
            m = _SCALAR_RE.match(text_line)
            if not m:
                _fail(lines, lineno, _col(text_line, 0), "expected 'scalar <name> irrational approx [<lo>, <hi>]'")
            bounds = []
            for k in (2, 3):
                try:
                    bounds.append(_rational(m.group(k)))
                except ValueError as exc:
                    _fail(lines, lineno, m.start(k) + 1, str(exc))
            lo, hi = bounds
            if not lo < hi:
                _fail(lines, lineno, m.start(2) + 1, "interval needs lo < hi")
            if any(d.name == m.group(1) for d in decls):
                _fail(lines, lineno, m.start(1) + 1, f"scalar {m.group(1)!r} declared twice")
            if result is not None:
                _fail(lines, lineno, _col(text_line, 0), "scalar declarations must precede the surface block")
            decls.append(SymbolDecl(m.group(1), lo, hi))
        elif words[0] == "graph":
            if result is not None:
                _fail(lines, lineno, _col(text_line, 0), "only one graph or surface per file")
            if decls:
                _fail(lines, lineno, _col(text_line, 0), "scalar declarations apply to surface files only")
            result = _parse_graph(lines, lineno, text_line)
        elif words[0] == "surface":
            if result is not None:
                _fail(lines, lineno, _col(text_line, 0), "only one graph or surface per file")
            result = _parse_surface(lines, lineno, text_line, SymbolTable(tuple(decls)))
        else:
            _fail(lines, lineno, _col(text_line, 0), f"unknown directive {words[0]!r}")
    if result is None:
        raise ParseError(1, 1, "file declares no graph or surface", filename)
    return result


def parse_path(path: str) -> ParsedFile:
    with open(path, "rb") as fh:
        return parse(fh.read(), filename=path)


def serialize(obj: ParsedFile) -> str:
    if isinstance(obj, (FoliationGraph, FreeCircle)):
        return serialize_graph(obj)
    return serialize_surface(obj)


def serialize_graph(g: Foliation) -> str:
    if isinstance(g, FreeCircle):
        return f"graph {g.name} freecircle {g.winding} end\n"
    ids, slots = g._ids, g._slots
    out = [f"graph {g.name}"]
    out += [
        f"  vertex {v} {kind} {n}/{d}" if d != 1 else f"  vertex {v} {kind} {n}"
        for v, kind, n, d in zip(ids, g._kinds, g._num, g._den)
    ]
    out += [
        f"  edge {e} {ids[t]}.{slots[ts]} -> {ids[h]}.{slots[hs]} winding {w}"
        for e, t, ts, h, hs, w in zip(g._eids, g._tail, g._tail_slot, g._head, g._head_slot, g._winding)
    ]
    out.append("end")
    return "\n".join(out) + "\n"


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


def _dot_quoted(ident: str) -> str:
    """``ident`` as a DOT quoted string: backslash and quote escaped."""
    return '"' + ident.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Foliation) -> str:
    """Deterministic DOT export: nodes labeled KIND@angle, edges w=<winding>."""
    out = [f"digraph {_dot_quoted(g.name)} {{"]
    if isinstance(g, FreeCircle):
        out.append(f'  "circle" [label="CIRCLE w={g.winding}" shape=doublecircle];')
    else:
        for v in g.vertices:
            out.append(f'  {_dot_quoted(v.id)} [label="{v.kind}@{v.angle}"];')
        for e in g.edges:
            out.append(
                f'  {_dot_quoted(e.tail.vertex)} -> {_dot_quoted(e.head.vertex)} [label="w={e.winding}"];'
            )
    out.append("}")
    return "\n".join(out) + "\n"
