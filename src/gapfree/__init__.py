"""Interval (gap-free) edge colorings of graph products.

Construct the five standard graph products, compose interval edge colorings
of products from colorings of their factors, verify interval colorings, and
cross-check everything against an exhaustive small-graph oracle.
"""

from types import ModuleType as _ModuleType

from .chromatic import (
    ChromaticIndexResult,
    bipartite_regular_coloring,
    exact_chromatic_index,
    regular_membership,
)
from .colorings import (
    EdgeColoring,
    GapViolation,
    IntervalReport,
    PropernessViolation,
    load_coloring,
    to_dot,
    verify_interval,
    write_coloring,
)
from .constructions import (
    BoundReport,
    bound_report,
    cartesian_interval,
    lex_empty_interval,
    lex_regular_interval,
    strong_interval,
    strong_tensor_interval,
    tensor_interval,
    torus_hamming_membership,
)
from .errors import (
    BadParameter,
    BudgetExceeded,
    ConstructionFailed,
    DuplicateEdge,
    EmptyFactor,
    GapfreeError,
    InvalidAlpha,
    LoopEdge,
    NotBipartite,
    NotClass1,
    NotRegular,
    VertexOutOfRange,
)
from .families import generate
from .graph import (
    Graph,
    build_graph,
    is_bipartite,
    read_edge_list,
    write_edge_list,
)
from .oracle import (
    CrossCheckReport,
    OracleResult,
    cross_validate,
    find_interval_coloring,
    oracle,
    proven_ceiling,
    search_ceiling,
)
from .products import (
    EdgeOrigin,
    ProductGraph,
    ProductKind,
    product,
    read_provenance,
    write_provenance,
)
from .search import DEFAULT_BUDGET

# the public names are every name bound here that is not private or a module
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
