"""The five standard graph products, with pair coordinates and edge-origin tags.

A product vertex (i, j) is stored at index i * |V(H)| + j (row-major), fixed
globally so colorings and provenance files stay comparable across runs. Each
edge carries an origin tag derived from its endpoints' coordinates:

    G_layer  left coordinates differ, right equal
    H_layer  left equal, right differ
    cross    both differ
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator
from enum import Enum
from functools import cached_property
from itertools import product as iterproduct

from .errors import BadParameter, EmptyFactor
from .graph import Graph, _Record, data_rows


class ProductKind(Enum):
    CARTESIAN = "cartesian"
    TENSOR = "tensor"
    STRONG_TENSOR = "strong_tensor"
    STRONG = "strong"
    LEXICOGRAPHIC = "lexicographic"


class EdgeOrigin(Enum):
    G_LAYER = "G_layer"
    H_LAYER = "H_layer"
    CROSS = "cross"


class ProductGraph(_Record):
    """A product's graph together with its factor-pair provenance."""

    graph: Graph
    kind: ProductKind
    left_n: int
    right_n: int

    @cached_property
    def coords(self) -> tuple[tuple[int, int], ...]:
        return tuple(divmod(v, self.right_n) for v in range(self.graph.n))

    @cached_property
    def edge_origin(self) -> tuple[EdgeOrigin, ...]:
        return tuple(_origins(self))


def _origins(prod: ProductGraph) -> Iterator[EdgeOrigin]:
    """Each edge's origin tag, in edge-id order, one at a time."""
    # u = i*m + p and v = j*m + q: i == j iff u // m == v // m, and
    # p == q iff u and v agree mod m
    m = prod.right_n
    g_layer, h_layer, cross = EdgeOrigin.G_LAYER, EdgeOrigin.H_LAYER, EdgeOrigin.CROSS
    return (
        h_layer if u // m == v // m else g_layer if (v - u) % m == 0 else cross
        for u, v in prod.graph.edges
    )


def product(kind: ProductKind, g: Graph, h: Graph) -> ProductGraph:
    """Build the product of two nonempty graphs; deterministic for equal inputs.

    Every edge is emitted once, lower endpoint first (i < j or p < q), so the
    sorted list is already canonical.
    """
    if not isinstance(kind, ProductKind):
        raise BadParameter(f"kind must be a ProductKind, got {kind!r}")
    if g.n == 0 or h.n == 0:
        raise EmptyFactor("product factors must have at least one vertex")
    m = h.n
    # every edge end is taken from rows, so each vertex is one int object
    # however many edges it has; rows[i][p] is vertex i * m + p
    rows = [list(range(i * m, i * m + m)) for i in range(g.n)]
    edges: list[tuple[int, int]] = []
    if kind in (ProductKind.CARTESIAN, ProductKind.STRONG_TENSOR, ProductKind.STRONG):
        for i, j in g.edges:
            edges += zip(rows[i], rows[j])
    if kind in (ProductKind.CARTESIAN, ProductKind.STRONG, ProductKind.LEXICOGRAPHIC):
        edges += [(row[p], row[q]) for row in rows for p, q in h.edges]
    if kind in (ProductKind.TENSOR, ProductKind.STRONG_TENSOR, ProductKind.STRONG):
        for i, j in g.edges:
            a, b = rows[i], rows[j]
            for p, q in h.edges:
                edges += ((a[p], b[q]), (a[q], b[p]))
    if kind is ProductKind.LEXICOGRAPHIC:
        for i, j in g.edges:
            edges += iterproduct(rows[i], rows[j])
    edges.sort()
    return ProductGraph(
        graph=Graph(g.n * m, tuple(edges)),
        kind=kind,
        left_n=g.n,
        right_n=m,
    )


def write_provenance(path, prod: ProductGraph) -> None:
    """Sidecar file: one "edge_id origin i p j q" line per edge.

    The origin tags are made as the lines are written, not cached on prod."""
    # "i p" for vertex i * right_n + p, formatted once per vertex, not per edge
    pairs = [f"{i} {p}" for i in range(prod.left_n) for p in range(prod.right_n)]
    with open(path, "w", encoding="ascii") as fh:
        for k, ((u, v), origin) in enumerate(zip(prod.graph.edges, _origins(prod))):
            fh.write(f"{k} {origin._value_} {pairs[u]} {pairs[v]}\n")


def read_provenance(path) -> list[tuple[int, EdgeOrigin, int, int, int, int]]:
    """Read a provenance sidecar row by row. A malformed row is raised once
    the whole file is read, so that a non-ASCII byte anywhere wins."""
    rows = data_rows(path)
    parsed = []
    append = parsed.append
    for line in rows:
        try:
            k, origin, i, p, j, q = line.split()
            append((int(k), EdgeOrigin(origin), int(i), int(p), int(j), int(q)))
        except ValueError:
            deque(rows, 0)  # read to the end: a non-ASCII byte still wins
            raise BadParameter(f"{path}: malformed provenance line {line!r}") from None
    return parsed
