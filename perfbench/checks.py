"""The benchmark's own view of its inputs and outputs, and the output checks.

Nothing here imports the program.  Graphs and surface models are read
from their canonical text with a small reader of the benchmark's own, and
every property is recomputed by a different method from the program's:
strong connectivity by one forward and one backward search, complexity by
a step-law sweep, integer relations by exact coefficient sums.  A check
that fails raises ``CheckError``; the worker then exits nonzero and names
the input file.
"""

from __future__ import annotations

from fractions import Fraction

MERGE, SPLIT = "MERGE", "SPLIT"


class CheckError(Exception):
    """An output of the program disagrees with the benchmark's own check."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# -- graphs -------------------------------------------------------------
#
# A graph is (name, vertices, edges): vertices maps id -> (kind, angle),
# edges maps id -> (tail, tail slot, head, head slot, winding).


def graph_text(name: str, vertices: dict, edges: dict) -> str:
    """Canonical graph text: ids in string order, angles as p/q."""
    out = [f"graph {name}"]
    for vid in sorted(vertices):
        kind, angle = vertices[vid]
        out.append(f"  vertex {vid} {kind} {angle}")
    for eid in sorted(edges):
        t, ts, h, hs, w = edges[eid]
        out.append(f"  edge {eid} {t}.{ts} -> {h}.{hs} winding {w}")
    out.append("end")
    return "\n".join(out) + "\n"


def read_graph(text: str) -> tuple[str, dict, dict]:
    lines = text.split("\n")
    name = lines[0].split()[1]
    vertices, edges = {}, {}
    for line in lines[1:]:
        ws = line.split()
        if ws and ws[0] == "vertex":
            vertices[ws[1]] = (ws[2], Fraction(ws[3]))
        elif ws and ws[0] == "edge":
            t, ts = ws[2].split(".")
            h, hs = ws[4].split(".")
            edges[ws[1]] = (t, ts, h, hs, int(ws[6]))
    return name, vertices, edges


def _reach(adj: dict, start: str) -> set:
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def strongly_connected(vertices: dict, edges: dict) -> bool:
    """Everything is reachable from one root and reaches it back."""
    succ = {v: [] for v in vertices}
    pred = {v: [] for v in vertices}
    for t, _, h, _, _ in edges.values():
        succ[t].append(h)
        pred[h].append(t)
    root = min(vertices)
    n = len(vertices)
    return len(_reach(succ, root)) == n and len(_reach(pred, root)) == n


def kind_counts(vertices: dict) -> tuple[int, int]:
    kinds = [k for k, _ in vertices.values()]
    return kinds.count(MERGE), kinds.count(SPLIT)


def sweep_complexity(vertices: dict, edges: dict) -> tuple[int, list, list]:
    """Complexity by the step law, from the edge data alone.

    In the gap below the lowest critical value a level meets each edge
    once per winding, plus once if the edge wraps (head below tail).
    Sweeping upward, a level gains one strand at each SPLIT and loses one
    at each MERGE.  Returns the minimum, the sorted critical angles and
    the count on each interval (index k: after the k lowest vertices).
    """
    base = sum(
        w + (1 if vertices[h][1] < vertices[t][1] else 0)
        for t, _, h, _, w in edges.values()
    )
    order = sorted(vertices.values(), key=lambda kv: kv[1])
    counts = [base]
    for kind, _ in order[:-1]:
        counts.append(counts[-1] + (1 if kind == SPLIT else -1))
    return min(counts), [a for _, a in order], counts


def check_decide(vertices, edges, report, cx, cert) -> None:
    require(report.ok, f"validate rejected a valid graph: {report.violations}")

    value, witness = cx
    best, angles, counts = sweep_complexity(vertices, edges)
    require(value == best, f"complexity {value} != step-law minimum {best}")
    require(0 <= witness < 1 and witness not in angles, f"witness {witness} is not a regular level")
    below = sum(1 for a in angles if a < witness)
    level = counts[below] if below < len(angles) else counts[0]
    require(level == value, f"witness {witness} lies on a level of count {level}, not {value}")

    sc = strongly_connected(vertices, edges)
    require(cert.verdict == sc, f"is_calabi says {cert.verdict}, strong connectivity says {sc}")
    if sc:
        covered = set()
        for cycle in cert.cycles:
            require(len(cycle) > 0, "empty certificate cycle")
            for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                require(edges[a][2] == edges[b][0], f"cycle {cycle} is not a closed positive walk at {a}->{b}")
            covered.update(cycle)
        require(covered == set(edges), f"cycles miss edges {sorted(set(edges) - covered)[:5]}")
    else:
        ob = cert.obstruction
        require(ob is not None, "non-Calabi verdict without an obstruction")
        out = set(ob.out_set)
        require(ob.source in out and ob.target in vertices, "obstruction endpoints malformed")
        require(ob.target not in out, f"obstruction out-set contains its target {ob.target}")
        leak = [e for e, (t, _, h, _, _) in edges.items() if t in out and h not in out]
        require(not leak, f"obstruction out-set is not closed: edges {leak[:5]} leave it")


def check_steps(steps, start_complexity: int) -> None:
    """Each reduction step strictly lowers complexity, and the chain is
    continuous from the input's complexity."""
    current = start_complexity
    for k, step in enumerate(steps, start=1):
        require(step.complexity_before == current, f"step {k} starts at {step.complexity_before}, not {current}")
        require(step.complexity_after < step.complexity_before, f"step {k} does not lower complexity")
        current = step.complexity_after


def check_harmonized(vertices, edges, steps, out_text: str) -> None:
    require(len(steps) >= 1, "a non-Calabi input was returned unreduced")
    check_steps(steps, sweep_complexity(vertices, edges)[0])
    _, rv, re_ = read_graph(out_text)
    require(strongly_connected(rv, re_), "harmonize result is not Calabi")
    require(kind_counts(rv) == kind_counts(vertices), "harmonize result is not contiguous to its input")
    require(sweep_complexity(rv, re_)[0] == steps[-1].complexity_after, "final complexity differs from the trace")


# -- surface models -------------------------------------------------------
#
# A period is a coefficient vector over the basis (1, lam, mu, nu).

SYMBOLS = ("lam", "mu", "nu")
# Enclosures of sqrt(2), sqrt(3) and sqrt(5) to two decimals.
SYMBOL_DECLS = (
    ("lam", Fraction(141, 100), Fraction(142, 100)),
    ("mu", Fraction(173, 100), Fraction(174, 100)),
    ("nu", Fraction(223, 100), Fraction(224, 100)),
)


def scalar_text(vec: tuple) -> str:
    """Canonical value text: rational part, then symbols by name."""
    parts = []
    if vec[0] or not any(vec[1:]):
        parts.append(str(vec[0]))
    for name, c in zip(SYMBOLS, vec[1:]):
        if not c:
            continue
        mag = abs(c)
        term = name if mag == 1 else f"{mag}*{name}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"{'-' if c < 0 else '+'} {term}")
    return " ".join(parts)


def read_scalar(text: str) -> tuple:
    vec = [Fraction(0)] * 4
    tokens = text.split()
    signs = ["+"] + tokens[1::2]
    for sign, term in zip(signs, tokens[0::2]):
        neg = (sign == "-") != term.startswith("-")
        term = term.lstrip("-")
        coeff, _, sym = term.rpartition("*") if "*" in term else ("1", "", term)
        if sym in SYMBOLS:
            c = Fraction(coeff)
            vec[1 + SYMBOLS.index(sym)] += -c if neg else c
        else:
            vec[0] += -Fraction(sym) if neg else Fraction(sym)
    return tuple(vec)


def read_periods(text: str) -> list[tuple]:
    """Period vectors in the model's order: p_1, q_1, ..., p_g, q_g."""
    out = []
    for line in text.split("\n"):
        ws = line.split()
        if ws and ws[0] == "summand":
            inner = line[line.index("(") + 1 : line.rindex(")")]
            p, q = inner.split(",")
            out.extend((read_scalar(p), read_scalar(q)))
    return out


def _combination(coeffs, vecs) -> tuple:
    return tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(4))


def _proportional(vecs) -> bool:
    nonzero = [v for v in vecs if any(v)]
    first = nonzero[0]
    k = next(i for i, x in enumerate(first) if x)
    return all(tuple(x * first[k] for x in v) == tuple(x * v[k] for x in first) for v in nonzero)


def check_surface(text, periods, consistent, vanisher, cup_is_zero, rank, relation, out_text) -> None:
    g = len(periods) // 2
    require(consistent.ok, f"consistency check failed: {consistent.violations}")
    # Pairing a class (a_1, b_1, ...) with the form gives sum(a_i q_i - b_i p_i).
    paired = [v for i in range(g) for v in (periods[2 * i + 1], tuple(-x for x in periods[2 * i]))]
    if vanisher is None:
        require(rank == 2 * g, f"no cup annihilator although rank {rank} < {2 * g}")
    else:
        require(any(vanisher), "cup annihilator is the zero class")
        require(cup_is_zero, "cup_product with the annihilator is not zero")
        require(not any(_combination(vanisher, paired)), "cup annihilator fails the exact pairing")
    require(1 <= rank <= min(4, 2 * g), f"rank {rank} outside [1, {min(4, 2 * g)}]")
    if _proportional(periods):
        require(rank == 1, f"proportional periods with rank {rank}")
    require((relation is None) == (rank == 2 * g), f"integer_relation {relation} disagrees with rank {rank} at genus {g}")
    if relation is not None:
        require(any(relation), "integer relation is zero")
        require(not any(_combination(relation, periods)), "integer relation does not vanish on the periods")
    require(out_text == text, "serialize(parse(text)) is not the canonical input text")
