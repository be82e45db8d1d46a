"""Interval (gap-free) edge colorings of graph products.

Construct the five standard graph products, compose interval edge colorings
of products from colorings of their factors, verify interval colorings, and
cross-check everything against an exhaustive small-graph oracle.

A submodule is imported when one of its names is first used (PEP 562), so
`import gapfree` alone imports none of them.
"""

import sys as _sys
from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

# submodule -> the public names the package takes from it
_EXPORTS = {
    "chromatic": (
        "ChromaticIndexResult",
        "bipartite_regular_coloring",
        "exact_chromatic_index",
        "regular_membership",
    ),
    "colorings": (
        "EdgeColoring",
        "GapViolation",
        "IntervalReport",
        "PropernessViolation",
        "load_coloring",
        "to_dot",
        "verify_interval",
        "write_coloring",
    ),
    "constructions": (
        "BoundReport",
        "bound_report",
        "cartesian_interval",
        "lex_empty_interval",
        "lex_regular_interval",
        "strong_interval",
        "strong_tensor_interval",
        "tensor_interval",
        "torus_hamming_membership",
    ),
    "errors": (
        "BadParameter",
        "BudgetExceeded",
        "ConstructionFailed",
        "DuplicateEdge",
        "EmptyFactor",
        "GapfreeError",
        "InvalidAlpha",
        "LoopEdge",
        "NotBipartite",
        "NotClass1",
        "NotRegular",
        "VertexOutOfRange",
    ),
    "families": ("generate",),
    "graph": (
        "Graph",
        "build_graph",
        "is_bipartite",
        "read_edge_list",
        "write_edge_list",
    ),
    "oracle": (
        "CrossCheckReport",
        "OracleResult",
        "cross_validate",
        "find_interval_coloring",
        "oracle",
        "proven_ceiling",
        "search_ceiling",
    ),
    "products": (
        "EdgeOrigin",
        "ProductGraph",
        "ProductKind",
        "product",
        "read_provenance",
        "write_provenance",
    ),
    "search": ("DEFAULT_BUDGET",),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)


def __getattr__(name):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{module}"), name)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(_ModuleType):
    """The package's module type. Importing the submodule gapfree.oracle
    makes the import system set the package attribute `oracle` to that
    module; as a data descriptor, `oracle` here stays the function."""

    @property
    def oracle(self):
        return vars(self).get("oracle") or __getattr__("oracle")

    @oracle.setter
    def oracle(self, value):
        if value is not _sys.modules.get(f"{__name__}.oracle"):
            vars(self)["oracle"] = value


_sys.modules[__name__].__class__ = _Package
