"""Combinatorics of rank-one circle-valued Morse data on surfaces:
Calabi decisions on oriented foliation graphs, complexity reduction to a
contiguous Calabi graph, and exact period analysis of torus connected
sums."""

from .fileio import ParseError, parse, parse_path, serialize, serialize_graph, serialize_surface, to_dot
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
from .reduction import (
    CutGraph,
    Event,
    NotSortableError,
    ReductionStep,
    ReductionTrace,
    RegluingError,
    StuckError,
    contiguous,
    cut,
    harmonize,
    reglue,
    sort_events,
)
from .scalars import (
    ExactScalar,
    SymbolDecl,
    SymbolTable,
    TableMismatchError,
    integer_relation,
    qrank,
)
from .surfaces import (
    SMALL,
    ClassReport,
    ConsistencyReport,
    Disk,
    LeafReport,
    Summand,
    SurfaceModel,
    Tube,
    builtin_example,
    calabi_status,
    class_report,
    classify_leaves,
    connect_sum,
    consistency_check,
    cup_product,
    cup_vanisher,
    make_torus,
    ribbon,
)

__version__ = "0.1.0"
