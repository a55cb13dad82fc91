"""Independent exact-arithmetic oracles for rank and relations.

``oracle_rank`` hunts for the largest nonvanishing minor with
Laplace-expansion determinants -- a genuinely different (and much slower)
route than the package's integer echelon kernel.  ``rref_rank`` and
``rref_relation`` are fraction Gaussian elimination to reduced row
echelon form, the reference whose exact outputs the package must
reproduce.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def det(rows: list[list[Fraction]]) -> Fraction:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * det(minor)
        total += term if j % 2 == 0 else -term
    return total


def oracle_rank(matrix: list[list[Fraction]]) -> int:
    nrows, ncols = len(matrix), len(matrix[0]) if matrix else 0
    for k in range(min(nrows, ncols), 0, -1):
        for rsel in combinations(range(nrows), k):
            for csel in combinations(range(ncols), k):
                sub = [[matrix[r][c] for c in csel] for r in rsel]
                if det(sub) != 0:
                    return k
    return 0


def _rref(rows: list[list[Fraction]]) -> list[int]:
    """In-place fraction Gaussian elimination to reduced row echelon
    form; returns the pivot columns."""
    pivots: list[int] = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def rref_rank(vectors: list[list[Fraction]]) -> int:
    """Rank of the given coordinate vectors."""
    return len(_rref([list(v) for v in vectors]))


def rref_relation(vectors: list[list[Fraction]]) -> tuple[int, ...] | None:
    """The kernel vector of the first free column of the reduced matrix
    whose columns are the vectors, with denominators cleared, coprime
    entries and the first nonzero entry positive; None when there is no
    free column."""
    rows = [list(col) for col in zip(*vectors)]
    pivots = _rref(rows)
    free = [c for c in range(len(vectors)) if c not in pivots]
    if not free:
        return None
    f = free[0]
    sol = [Fraction(0)] * len(vectors)
    sol[f] = Fraction(1)
    for r, c in enumerate(pivots):
        sol[c] = -rows[r][f]
    denom = 1
    for x in sol:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in sol]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(ints)
