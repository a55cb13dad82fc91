"""Random surface models over a fixed three-symbol table."""

from __future__ import annotations

import random
from fractions import Fraction

from foliagraph import (
    SMALL,
    ExactScalar,
    Summand,
    SurfaceModel,
    SymbolDecl,
    SymbolTable,
    Tube,
    ribbon,
)


def example_table() -> SymbolTable:
    return SymbolTable(
        (
            SymbolDecl("lam", Fraction(141, 100), Fraction(142, 100)),
            SymbolDecl("mu", Fraction(173, 100), Fraction(174, 100)),
            SymbolDecl("nu", Fraction(223, 100), Fraction(224, 100)),
        )
    )


def _random_scalar(rng: random.Random, table: SymbolTable) -> ExactScalar:
    value = table.rational(0)
    for name in table.names:
        if rng.random() < 0.3:
            value += rng.randint(-2, 2) * table.symbol(name)
    return value + rng.randint(-2, 2)


def _random_disk(rng: random.Random):
    return SMALL if rng.random() < 0.6 else ribbon(rng.randint(1, 3))


def random_model(
    rng: random.Random, max_summands: int = 3, n_summands: int | None = None, rank_one: bool | None = None
) -> SurfaceModel:
    """A random tree of torus summands: ``n_summands`` of them, or from 1
    to ``max_summands`` if that is None.  It is a rank-one model (all
    periods proportional to one value) as ``rank_one`` says, or, if that
    is None, about a third of the time, so every implication fires."""
    table = example_table()
    n = rng.randint(1, max_summands) if n_summands is None else n_summands
    if rank_one is None:
        rank_one = rng.random() < 0.35
    base = None
    if rank_one:
        while base is None or base.is_zero():
            base = _random_scalar(rng, table)
    summands = []
    for i in range(n):
        while True:
            if rank_one:
                p = rng.randint(-3, 3) * base
                q = rng.randint(-3, 3) * base
            else:
                p = _random_scalar(rng, table)
                q = _random_scalar(rng, table)
            if not (p.is_zero() and q.is_zero()):
                break
        summands.append(Summand(f"t{i}", p, q))
    tubes = []
    for i in range(1, n):
        parent = rng.randrange(i)
        tubes.append(
            Tube(
                f"u{i - 1}",
                f"t{parent}",
                f"t{i}",
                rng.choice("AABC"),
                _random_disk(rng),
                _random_disk(rng),
            )
        )
    return SurfaceModel("random", table, tuple(summands), tuple(tubes))
