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

This module holds the graph half and the shared grammar.  The surface
half (``parse_value``, ``serialize_surface`` and the ``scalar`` and
``surface`` directives) is in ``surfaces``, which loads with the scalar
layer when ``parse`` meets such a directive or ``serialize`` gets a
surface model.  The annotations here name that layer's ``SurfaceModel``
and ``SymbolDecl`` without importing them.
"""

from __future__ import annotations

import re
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


def parse(data: bytes | str, filename: str = "<input>") -> Foliation | SurfaceModel:
    """Parse a graph or surface file, detected from its first directive.
    The surface layer loads at the first ``scalar`` or ``surface``
    directive, which a graph file does not hold."""
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
    result: Foliation | SurfaceModel | None = None
    for lineno, text_line in lines:
        word = text_line.split()[0]
        if word == "graph":
            if result is not None:
                _fail(lines, lineno, _col(text_line, 0), "only one graph or surface per file")
            if decls:
                _fail(lines, lineno, _col(text_line, 0), "scalar declarations apply to surface files only")
            result = _parse_graph(lines, lineno, text_line)
        elif word == "scalar":
            from . import surfaces

            decl = surfaces._parse_scalar(lines, lineno, text_line, decls)
            if result is not None:
                _fail(lines, lineno, _col(text_line, 0), "scalar declarations must precede the surface block")
            decls.append(decl)
        elif word == "surface":
            from . import surfaces

            if result is not None:
                _fail(lines, lineno, _col(text_line, 0), "only one graph or surface per file")
            result = surfaces._parse_surface(lines, lineno, text_line, decls)
        else:
            _fail(lines, lineno, _col(text_line, 0), f"unknown directive {word!r}")
    if result is None:
        raise ParseError(1, 1, "file declares no graph or surface", filename)
    return result


def parse_path(path: str) -> Foliation | SurfaceModel:
    with open(path, "rb") as fh:
        return parse(fh.read(), filename=path)


def serialize(obj: Foliation | SurfaceModel) -> str:
    if isinstance(obj, (FoliationGraph, FreeCircle)):
        return serialize_graph(obj)
    from . import surfaces

    return surfaces.serialize_surface(obj)


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
