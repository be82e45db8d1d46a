"""The five standard graph products, with pair coordinates and edge-origin tags.

A product vertex (i, j) is stored at index i * |V(H)| + j (row-major), fixed
globally so colorings and provenance files stay comparable across runs. Each
edge carries an origin tag derived from its endpoints' coordinates:

    G_layer  left coordinates differ, right equal
    H_layer  left equal, right differ
    cross    both differ
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property

from .errors import BadParameter, EmptyFactor
from .graph import Graph, _Record, data_lines


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
        # u = i*m + p and v = j*m + q: i == j iff u // m == v // m, and
        # p == q iff u and v agree mod m
        m = self.right_n
        g_layer, h_layer, cross = EdgeOrigin.G_LAYER, EdgeOrigin.H_LAYER, EdgeOrigin.CROSS
        return tuple(
            h_layer if u // m == v // m else g_layer if (v - u) % m == 0 else cross
            for u, v in self.graph.edges
        )


def product(kind: ProductKind, g: Graph, h: Graph) -> ProductGraph:
    """Build the product of two nonempty graphs; deterministic for equal inputs.

    Every edge is emitted once, lower endpoint first (i < j or p < q), so the
    sorted list is already canonical and needs no re-validation.
    """
    if not isinstance(kind, ProductKind):
        raise BadParameter(f"kind must be a ProductKind, got {kind!r}")
    if g.n == 0 or h.n == 0:
        raise EmptyFactor("product factors must have at least one vertex")
    m = h.n
    edges: list[tuple[int, int]] = []
    if kind in (ProductKind.CARTESIAN, ProductKind.STRONG_TENSOR, ProductKind.STRONG):
        edges += [(i * m + p, j * m + p) for i, j in g.edges for p in range(m)]
    if kind in (ProductKind.CARTESIAN, ProductKind.STRONG, ProductKind.LEXICOGRAPHIC):
        edges += [(i * m + p, i * m + q) for i in range(g.n) for p, q in h.edges]
    if kind in (ProductKind.TENSOR, ProductKind.STRONG_TENSOR, ProductKind.STRONG):
        for i, j in g.edges:
            for p, q in h.edges:
                edges += ((i * m + p, j * m + q), (i * m + q, j * m + p))
    if kind is ProductKind.LEXICOGRAPHIC:
        edges += [
            (i * m + p, j * m + q) for i, j in g.edges for p in range(m) for q in range(m)
        ]
    edges.sort()
    return ProductGraph(
        graph=Graph(g.n * m, tuple(edges)),
        kind=kind,
        left_n=g.n,
        right_n=m,
    )


def write_provenance(path, prod: ProductGraph) -> None:
    """Sidecar file: one "edge_id origin i p j q" line per edge."""
    # "i p" for vertex i * right_n + p, formatted once per vertex, not per edge
    pairs = [f"{i} {p}" for i in range(prod.left_n) for p in range(prod.right_n)]
    with open(path, "w", encoding="ascii") as fh:
        for k, ((u, v), origin) in enumerate(zip(prod.graph.edges, prod.edge_origin)):
            fh.write(f"{k} {origin._value_} {pairs[u]} {pairs[v]}\n")


def read_provenance(path) -> list[tuple[int, EdgeOrigin, int, int, int, int]]:
    rows = []
    for line in data_lines(path):
        try:
            k, origin, i, p, j, q = line.split()
            rows.append((int(k), EdgeOrigin(origin), int(i), int(p), int(j), int(q)))
        except ValueError:
            raise BadParameter(f"{path}: malformed provenance line {line!r}") from None
    return rows
