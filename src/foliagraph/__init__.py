"""Combinatorics of rank-one circle-valued Morse data on surfaces:
Calabi decisions on oriented foliation graphs, complexity reduction to a
contiguous Calabi graph, and exact period analysis of torus connected
sums.

``import foliagraph`` loads the graph core only: ``graph`` and the graph
half of ``fileio``, which is all that parsing, validating and deciding a
graph needs.  The exports of ``reduction``, ``scalars`` and ``surfaces``
load their module the first time one of them is read (``harmonize``,
``make_torus``, ...), as does parsing a surface file.  ``import
foliagraph.reduction`` and the other submodule imports work as before.
"""

from .fileio import ParseError, parse, parse_path, serialize, serialize_graph, to_dot
from .graph import (
    MERGE,
    SPLIT,
    CalabiCertificate,
    Edge,
    End,
    Foliation,
    FoliationGraph,
    FreeCircle,
    Obstruction,
    ValidationReport,
    Vertex,
    builtin,
    complexity,
    euler_genus,
    is_calabi,
    validate,
)

# Each export of a layer that loads on first use, and its module.
_LAZY = {
    **dict.fromkeys(
        (
            "CutGraph",
            "Event",
            "NotSortableError",
            "ReductionStep",
            "ReductionTrace",
            "RegluingError",
            "StuckError",
            "contiguous",
            "cut",
            "harmonize",
            "reglue",
            "sort_events",
        ),
        "reduction",
    ),
    **dict.fromkeys(
        ("ExactScalar", "SymbolDecl", "SymbolTable", "TableMismatchError", "integer_relation", "qrank"),
        "scalars",
    ),
    **dict.fromkeys(
        (
            "SMALL",
            "ClassReport",
            "ConsistencyReport",
            "Disk",
            "LeafReport",
            "Summand",
            "SurfaceModel",
            "Tube",
            "builtin_example",
            "calabi_status",
            "class_report",
            "classify_leaves",
            "connect_sum",
            "consistency_check",
            "cup_product",
            "cup_vanisher",
            "make_torus",
            "ribbon",
            "serialize_surface",
        ),
        "surfaces",
    ),
}

__all__ = [
    "ParseError",
    "parse",
    "parse_path",
    "serialize",
    "serialize_graph",
    "to_dot",
    "MERGE",
    "SPLIT",
    "CalabiCertificate",
    "Edge",
    "End",
    "Foliation",
    "FoliationGraph",
    "FreeCircle",
    "Obstruction",
    "ValidationReport",
    "Vertex",
    "builtin",
    "complexity",
    "euler_genus",
    "is_calabi",
    "validate",
    *_LAZY,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    """An export of a layer not yet read: loads its module once, then
    keeps the value here, so later reads are plain attribute reads."""
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
