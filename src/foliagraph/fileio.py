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

Rationals are written ``p/q`` (decimals are accepted on input); values are
rational combinations of declared scalars like ``1/2 + 3*lam - mu``.
``#`` starts a comment.  Serialization is canonical (sorted ids, p/q
rationals) and parsing a serialized object reproduces it exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .graph import (
    MERGE,
    SPLIT,
    Edge,
    End,
    Foliation,
    FoliationGraph,
    FreeCircle,
    Vertex,
)
from .scalars import ExactScalar, SymbolDecl, SymbolTable
from .surfaces import SMALL, Disk, Summand, SurfaceModel, Tube, ribbon

ParsedFile = FoliationGraph | FreeCircle | SurfaceModel


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str, filename: str = "<input>"):
        super().__init__(f"{filename}:{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.filename = filename
        self.message = message


class _Lines:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.rows: list[tuple[int, str]] = []
        for i, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0].rstrip()
            if body.strip():
                self.rows.append((i, body))
        self.pos = 0

    def peek(self) -> tuple[int, str] | None:
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def take(self) -> tuple[int, str]:
        row = self.peek()
        if row is None:
            last = self.rows[-1][0] if self.rows else 1
            raise ParseError(last, 1, "unexpected end of file", self.filename)
        self.pos += 1
        return row


def _fail(lines: _Lines, lineno: int, col: int, message: str):
    raise ParseError(lineno, col, message, lines.filename)


def _col(text: str, word: int) -> int:
    """1-based column of the ``word``-th word of ``text``, located by its
    position: its spelling may also occur earlier in the line."""
    return [m.start() + 1 for m in re.finditer(r"\S+", text)][word]


def _rational(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational number, got {token!r}") from None


_TERM = re.compile(r"(?:(?P<coeff>-?\d+(?:/\d+|\.\d+)?)\s*\*\s*)?(?P<sym>[A-Za-z_]\w*)$|(?P<num>-?\d+(?:/\d+|\.\d+)?)$")


def parse_value(expr: str, table: SymbolTable) -> ExactScalar:
    """Parse ``q0 + q1*name1 - ...`` over the given table."""
    text = expr.strip()
    if not text:
        raise ValueError("empty value")
    # Normalize into signed terms.
    chunks = re.split(r"\s*([+-])\s*", text)
    if chunks[0] == "":
        chunks = chunks[1:]
    else:
        chunks = ["+"] + chunks
    if len(chunks) % 2:
        raise ValueError(f"malformed value {expr!r}")
    rational = Fraction(0)
    coeffs: dict[str, Fraction] = {}
    for sign, term in zip(chunks[::2], chunks[1::2]):
        m = _TERM.match(term.strip())
        if not m:
            raise ValueError(f"malformed term {term!r}")
        factor = Fraction(-1) if sign == "-" else Fraction(1)
        if m.group("num") is not None:
            rational += factor * Fraction(m.group("num"))
        else:
            name = m.group("sym")
            if name not in table.names:
                raise ValueError(f"unknown scalar {name!r}")
            coeff = Fraction(m.group("coeff")) if m.group("coeff") else Fraction(1)
            coeffs[name] = coeffs.get(name, Fraction(0)) + factor * coeff
    return ExactScalar.make(table, rational, coeffs)


def _parse_graph(lines: _Lines, lineno: int, header: str) -> Foliation:
    words = header.split()
    if len(words) < 2:
        _fail(lines, lineno, _col(header, 0), "graph needs a name")
    name = words[1]
    if len(words) == 5 and words[2] == "freecircle" and words[4] == "end":
        # ASCII digits only: str.isdigit also accepts '²', which int() rejects.
        w = int(words[3]) if words[3].isascii() and words[3].isdigit() else -1
        if w < 1:
            _fail(lines, lineno, _col(header, 3), "freecircle winding must be a natural >= 1")
        return FreeCircle(name, w)
    if len(words) != 2:
        _fail(lines, lineno, _col(header, 2), "expected 'graph <name>' or 'graph <name> freecircle <w> end'")

    vertices: list[Vertex] = []
    edges: list[Edge] = []
    end_re = re.compile(r"^(\w+)\.(out0|out1|in0|in1)$")
    while True:
        lno, text = lines.take()
        ws = text.split()
        if ws[0] == "end":
            return FoliationGraph(name, tuple(vertices), tuple(edges))
        if ws[0] == "vertex":
            if len(ws) != 4 or ws[2] not in (MERGE, SPLIT):
                _fail(lines, lno, _col(text, 0), "expected 'vertex <id> MERGE|SPLIT <angle>'")
            try:
                angle = _rational(ws[3])
            except ValueError as exc:
                _fail(lines, lno, _col(text, 3), str(exc))
            if not 0 <= angle < 1:
                _fail(lines, lno, _col(text, 3), f"angle {ws[3]} outside [0, 1) turns")
            vertices.append(Vertex(ws[1], ws[2], angle))
        elif ws[0] == "edge":
            if len(ws) != 7 or ws[3] != "->" or ws[5] != "winding":
                _fail(lines, lno, _col(text, 0), "expected 'edge <id> <v>.<out> -> <v>.<in> winding <nat>'")
            mt = end_re.match(ws[2])
            mh = end_re.match(ws[4])
            if not mt or not mt.group(2).startswith("out"):
                _fail(lines, lno, _col(text, 2), f"tail {ws[2]!r} must be <vertex>.out0 or .out1")
            if not mh or not mh.group(2).startswith("in"):
                _fail(lines, lno, _col(text, 4), f"head {ws[4]!r} must be <vertex>.in0 or .in1")
            if not (ws[6].isascii() and ws[6].isdigit()):
                _fail(lines, lno, _col(text, 6), "winding must be a natural number")
            edges.append(
                Edge(ws[1], End(mt.group(1), mt.group(2)), End(mh.group(1), mh.group(2)), int(ws[6]))
            )
        else:
            _fail(lines, lno, _col(text, 0), f"unexpected directive {ws[0]!r} in graph block")


_DISK_RE = re.compile(r"^(small|ribbon\((\d+)\))$")


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
    tubes: list[Tube] = []
    while True:
        lno, text = lines.take()
        ws = text.split()
        if ws[0] == "end":
            try:
                return SurfaceModel(name, table, tuple(summands), tuple(tubes))
            except ValueError as exc:
                _fail(lines, lno, _col(text, 0), str(exc))
        if ws[0] == "summand":
            m = re.match(r"^\s*summand\s+(\S+)\s+periods\s+\((.+)\)\s*$", text)
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
        elif ws[0] == "tube":
            if len(ws) != 9 or ws[4] != "kind" or ws[6] != "disks":
                _fail(lines, lno, _col(text, 0), "expected 'tube <id> <sid> <sid> kind A|B|C disks <disk> <disk>'")
            if ws[5] not in ("A", "B", "C"):
                _fail(lines, lno, _col(text, 5), f"tube kind must be A, B or C, got {ws[5]!r}")
            known = {s.id for s in summands}
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
        else:
            _fail(lines, lno, _col(text, 0), f"unexpected directive {ws[0]!r} in surface block")


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
    if lines.peek() is None:
        raise ParseError(1, 1, "empty file", filename)

    decls: list[SymbolDecl] = []
    result: ParsedFile | None = None
    while lines.peek() is not None:
        lineno, text_line = lines.take()
        words = text_line.split()
        if words[0] == "scalar":
            m = re.match(
                r"^\s*scalar\s+([A-Za-z_]\w*)\s+irrational\s+approx\s+\[\s*(\S+?)\s*,\s*(\S+?)\s*\]\s*$",
                text_line,
            )
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
    out = [f"graph {g.name}"]
    for v in g.vertices:
        out.append(f"  vertex {v.id} {v.kind} {v.angle}")
    for e in g.edges:
        out.append(
            f"  edge {e.id} {e.tail.vertex}.{e.tail.slot} -> "
            f"{e.head.vertex}.{e.head.slot} winding {e.winding}"
        )
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


def to_dot(g: Foliation) -> str:
    """Deterministic DOT export: nodes labeled KIND@angle, edges w=<winding>."""
    out = [f'digraph "{g.name}" {{']
    if isinstance(g, FreeCircle):
        out.append(f'  "circle" [label="CIRCLE w={g.winding}" shape=doublecircle];')
    else:
        for v in g.vertices:
            out.append(f'  "{v.id}" [label="{v.kind}@{v.angle}"];')
        for e in g.edges:
            out.append(
                f'  "{e.tail.vertex}" -> "{e.head.vertex}" [label="w={e.winding}"];'
            )
    out.append("}")
    return "\n".join(out) + "\n"
