"""Seeded input generators, writing canonical text.

These follow the test-suite generators (``tests/graphgen.py``,
``tests/modelgen.py``) but produce text directly, without importing the
program: generating inputs is the benchmark's own work and must neither
depend on nor exercise the code under measurement.  The same seed gives
the same files.
"""

from __future__ import annotations

import random
from fractions import Fraction

from checks import SPLIT, MERGE, SYMBOL_DECLS, graph_text, scalar_text, strongly_connected


def _connected(pairs, vids) -> bool:
    parent = {v: v for v in vids}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(v) for v in vids}) == 1


def random_graph(rng: random.Random, n_pairs: int) -> tuple[dict, dict]:
    """A valid graph: random stub matching (redrawn until connected),
    random distinct angles, random small windings (loops at least 1)."""
    merges = [f"m{i}" for i in range(n_pairs)]
    splits = [f"s{i}" for i in range(n_pairs)]
    outs = [(m, "out0") for m in merges] + [(s, sl) for s in splits for sl in ("out0", "out1")]
    ins = [(m, sl) for m in merges for sl in ("in0", "in1")] + [(s, "in0") for s in splits]
    n_stubs = 3 * n_pairs
    while True:
        matching = list(range(n_stubs))
        rng.shuffle(matching)
        if _connected([(outs[i][0], ins[matching[i]][0]) for i in range(n_stubs)], merges + splits):
            break
    n_verts = 2 * n_pairs
    denom = 8 * n_verts + 1
    angles = [Fraction(k, denom) for k in rng.sample(range(denom), n_verts)]
    vertices = {
        v: (MERGE if v.startswith("m") else SPLIT, a) for v, a in zip(merges + splits, angles)
    }
    edges = {}
    for i, j in enumerate(matching):
        (t, ts), (h, hs) = outs[i], ins[j]
        w = rng.randint(1, 2) if t == h else rng.randint(0, 2)
        edges[f"e{i}"] = (t, ts, h, hs, w)
    return vertices, edges


def graph_with_verdict(rng: random.Random, n_vertices: int, calabi: bool, name: str) -> str:
    """Rejection-sample a graph whose Calabi verdict is ``calabi``."""
    while True:
        vertices, edges = random_graph(rng, n_vertices // 2)
        if strongly_connected(vertices, edges) == calabi:
            return graph_text(name, vertices, edges)


def _random_scalar(rng: random.Random) -> tuple:
    vec = [Fraction(rng.randint(-2, 2))]
    for _ in SYMBOL_DECLS:
        vec.append(Fraction(rng.randint(-2, 2)) if rng.random() < 0.3 else Fraction(0))
    return tuple(vec)


def _disk(rng: random.Random) -> str:
    return "small" if rng.random() < 0.6 else f"ribbon({rng.randint(1, 3)})"


def surface_text(rng: random.Random, n_summands: int, rank_one: bool, name: str) -> str:
    """A random tree of torus summands over the symbols lam, mu, nu.

    A rank-one model draws every period as a small integer multiple of
    one base value; a generic model draws each period independently.
    """
    base = None
    while rank_one and (base is None or not any(base)):
        base = _random_scalar(rng)
    lines = [f"scalar {s} irrational approx [{lo}, {hi}]" for s, lo, hi in SYMBOL_DECLS]
    lines.append(f"surface {name}")
    for i in range(n_summands):
        while True:
            if rank_one:
                kp, kq = rng.randint(-3, 3), rng.randint(-3, 3)
                p, q = tuple(kp * x for x in base), tuple(kq * x for x in base)
            else:
                p, q = _random_scalar(rng), _random_scalar(rng)
            if any(p) or any(q):
                break
        lines.append(f"  summand t{i} periods ({scalar_text(p)}, {scalar_text(q)})")
    for i in range(1, n_summands):
        parent = rng.randrange(i)
        kind = rng.choice("AABC")
        lines.append(f"  tube u{i - 1} t{parent} t{i} kind {kind} disks {_disk(rng)} {_disk(rng)}")
    lines.append("end")
    return "\n".join(lines) + "\n"
