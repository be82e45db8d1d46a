"""Named graph generators: paths, cycles, cliques, bicliques, hypercubes,
grids, cylinders, tori, Hamming graphs, and a few fixed small graphs.

Hypercubes and the grid-like families are assembled with the product builder
rather than ad hoc index arithmetic, so their labelings agree with everything
else in the package.
"""

from __future__ import annotations

from functools import reduce

from .errors import BadParameter
from .graph import Graph, build_graph
from .products import ProductKind, product


def path(n: int) -> Graph:
    if n < 1:
        raise BadParameter(f"path needs n >= 1, got {n}")
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise BadParameter(f"cycle needs n >= 3, got {n}")
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    if n < 1:
        raise BadParameter(f"complete graph needs n >= 1, got {n}")
    return build_graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def biclique(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise BadParameter(f"biclique needs both sides >= 1, got {m},{n}")
    return build_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])


def empty_graph(n: int) -> Graph:
    """n*K1: n vertices, no edges."""
    if n < 1:
        raise BadParameter(f"empty graph needs n >= 1, got {n}")
    return build_graph(n, [])


def _cartesian(*factors: Graph) -> Graph:
    """Cartesian product of the factors, folded from the left."""
    return reduce(lambda a, b: product(ProductKind.CARTESIAN, a, b).graph, factors)


def hypercube(n: int) -> Graph:
    """Q_n as the n-fold Cartesian power of K2."""
    if n < 1:
        raise BadParameter(f"hypercube needs n >= 1, got {n}")
    return _cartesian(*[complete(2)] * n)


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return build_graph(10, outer + inner + spokes)


def k113() -> Graph:
    """Complete tripartite graph with parts of sizes 1, 1, 3."""
    parts = [[0], [1], [2, 3, 4]]
    edges = []
    for a in range(3):
        for b in range(a + 1, 3):
            edges += [(u, v) for u in parts[a] for v in parts[b]]
    return build_graph(5, edges)


def k13_plus_e() -> Graph:
    """The 3-star on center 0 with one extra edge between two leaves."""
    return build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])


def grid(*dims: int) -> Graph:
    """Cartesian product of paths, one per dimension."""
    if not dims:
        raise BadParameter("grid needs at least one dimension")
    return _cartesian(*[path(d) for d in dims])


def cylinder(m: int, k: int) -> Graph:
    """P_m x C_k under the Cartesian product."""
    return _cartesian(path(m), cycle(k))


def _cycle_factor(k: int) -> Graph:
    # a 2-cycle is not simple; its simple-graph reading is a single edge
    if k < 2:
        raise BadParameter(f"torus dimension must be >= 2, got {k}")
    return complete(2) if k == 2 else cycle(k)


def torus(a: int, b: int) -> Graph:
    """Cartesian product of two cycles (dimension 2 read as K2)."""
    return _cartesian(_cycle_factor(a), _cycle_factor(b))


def hamming(*dims: int) -> Graph:
    """Cartesian product of complete graphs, one per dimension."""
    if not dims:
        raise BadParameter("hamming needs at least one dimension")
    if any(d < 2 for d in dims):
        raise BadParameter(f"hamming dimensions must be >= 2, got {dims}")
    return _cartesian(*[complete(d) for d in dims])


# name -> (builder, parameter count, or None for any number), one row per
# family with all its names
_FAMILIES = {
    name: (build, arity)
    for build, arity, names in [
        (petersen, 0, "petersen"),
        (k113, 0, "k113 k_1_1_3"),
        (k13_plus_e, 0, "k13e k13+e k_1_3_e"),
        (path, 1, "p path"),
        (cycle, 1, "c cycle"),
        (complete, 1, "k complete"),
        (empty_graph, 1, "nk1 empty"),
        (hypercube, 1, "q hypercube cube"),
        (biclique, 2, "kmn biclique"),
        (cylinder, 2, "cylinder cyl"),
        (torus, 2, "torus t"),
        (grid, None, "grid g"),
        (hamming, None, "hamming h"),
    ]
    for name in names.split()
}

_ARITY = ("takes no parameters", "takes exactly one parameter", "takes exactly two parameters")


def generate(family: str, *params: int) -> Graph:
    """Build a named family instance, e.g. generate("C", 5) or generate("grid", 4, 4)."""
    try:
        build, arity = _FAMILIES[family.strip().lower()]
    except KeyError:
        raise BadParameter(f"unknown family {family!r}") from None
    if arity is not None and len(params) != arity:
        raise BadParameter(f"{family} {_ARITY[arity]}")
    return build(*params)
