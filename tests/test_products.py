import random

import pytest

import gapfree as gf
from gapfree import EdgeOrigin, ProductKind
from gapfree.errors import BadParameter, EmptyFactor

from helpers import SEED, named

KINDS = list(ProductKind)


def brute_product_edges(kind: ProductKind, g: gf.Graph, h: gf.Graph) -> set:
    """Independent re-derivation: test every vertex quadruple against the
    textbook definition of each product."""
    m = h.n
    edges = set()
    for u1 in range(g.n):
        for v1 in range(h.n):
            for u2 in range(g.n):
                for v2 in range(h.n):
                    a, b = u1 * m + v1, u2 * m + v2
                    if a >= b:
                        continue
                    ge = u2 in g.adjacency[u1]
                    he = v2 in h.adjacency[v1]
                    if kind is ProductKind.CARTESIAN:
                        keep = (u1 == u2 and he) or (v1 == v2 and ge)
                    elif kind is ProductKind.TENSOR:
                        keep = ge and he
                    elif kind is ProductKind.STRONG_TENSOR:
                        keep = (ge and he) or (v1 == v2 and ge)
                    elif kind is ProductKind.STRONG:
                        keep = (ge and he) or (u1 == u2 and he) or (v1 == v2 and ge)
                    else:
                        keep = ge or (u1 == u2 and he)
                    if keep:
                        edges.add((a, b))
    return edges


def small_factors():
    return [
        named("P", 2),
        named("P", 3),
        named("P", 4),
        named("C", 3),
        named("C", 4),
        named("C", 5),
        named("K", 2),
        named("K", 3),
        named("K", 4),
    ]


def test_edge_sets_match_definitions():
    factors = small_factors()
    for g in factors:
        for h in factors:
            for kind in KINDS:
                prod = gf.product(kind, g, h)
                assert set(prod.graph.edges) == brute_product_edges(kind, g, h), (
                    kind,
                    g,
                    h,
                )


def random_graph(rng: random.Random, n: int, p: float = 0.5) -> gf.Graph:
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return gf.build_graph(n, edges)


def test_size_identities_on_random_factors():
    rng = random.Random(SEED)
    for _ in range(20):
        g = random_graph(rng, rng.randint(1, 6))
        h = random_graph(rng, rng.randint(1, 6))
        eg, eh, vg, vh = g.m, h.m, g.n, h.n
        assert gf.product(ProductKind.TENSOR, g, h).graph.m == 2 * eg * eh
        assert gf.product(ProductKind.CARTESIAN, g, h).graph.m == vg * eh + vh * eg
        assert gf.product(ProductKind.STRONG_TENSOR, g, h).graph.m == 2 * eg * eh + vh * eg
        assert (
            gf.product(ProductKind.STRONG, g, h).graph.m
            == vg * eh + vh * eg + 2 * eg * eh
        )
        assert (
            gf.product(ProductKind.LEXICOGRAPHIC, g, h).graph.m
            == vg * eh + vh * vh * eg
        )
        for kind in KINDS:
            p = gf.product(kind, g, h)
            assert gf.build_graph(p.graph.n, p.graph.edges) == p.graph


def test_tensor_p4_c5_sizes():
    prod = gf.product(ProductKind.TENSOR, named("P", 4), named("C", 5))
    assert (prod.graph.n, prod.graph.m) == (20, 30)


def test_strong_p4_c4_sizes():
    prod = gf.product(ProductKind.STRONG, named("P", 4), named("C", 4))
    assert (prod.graph.n, prod.graph.m) == (16, 52)


def test_lex_k2_2k1_is_c4():
    prod = gf.product(ProductKind.LEXICOGRAPHIC, named("K", 2), named("nk1", 2))
    g = prod.graph
    assert (g.n, g.m) == (4, 4)
    assert g.regularity == 2
    ok, _ = gf.is_bipartite(g)
    assert ok


def test_cartesian_k2_k2_is_c4():
    prod = gf.product(ProductKind.CARTESIAN, named("K", 2), named("K", 2))
    g = prod.graph
    assert (g.n, g.m) == (4, 4)
    assert g.regularity == 2


def test_empty_factor_rejected():
    with pytest.raises(EmptyFactor):
        gf.product(ProductKind.TENSOR, gf.build_graph(0, []), named("K", 2))


def test_kind_must_be_a_product_kind():
    for kind in ("tensor", None):
        with pytest.raises(BadParameter, match=f"^kind must be a ProductKind, got {kind!r}$"):
            gf.product(kind, named("P", 3), named("C", 4))


def test_origin_tags_consistent_with_coords():
    for kind in KINDS:
        prod = gf.product(kind, named("P", 3), named("C", 4))
        for tag, (u, v) in zip(prod.edge_origin, prod.graph.edges):
            (i, p), (j, q) = prod.coords[u], prod.coords[v]
            if tag is EdgeOrigin.G_LAYER:
                assert i != j and p == q
            elif tag is EdgeOrigin.H_LAYER:
                assert i == j and p != q
            else:
                assert i != j and p != q


def test_origin_tag_counts():
    g, h = named("P", 3), named("C", 4)
    prod = gf.product(ProductKind.STRONG, g, h)
    counts = {tag: prod.edge_origin.count(tag) for tag in EdgeOrigin}
    assert counts[EdgeOrigin.G_LAYER] == g.m * h.n
    assert counts[EdgeOrigin.H_LAYER] == g.n * h.m
    assert counts[EdgeOrigin.CROSS] == 2 * g.m * h.m
    lex = gf.product(ProductKind.LEXICOGRAPHIC, g, h)
    assert lex.edge_origin.count(EdgeOrigin.G_LAYER) == g.m * h.n
    assert lex.edge_origin.count(EdgeOrigin.H_LAYER) == g.n * h.m
    assert lex.edge_origin.count(EdgeOrigin.CROSS) == g.m * (h.n * h.n - h.n)


def test_regular_degree_laws():
    # a-regular strong b-regular -> (ab+a+b)-regular; lex -> (b + a|V(H)|)-regular
    cases = [(named("C", 4), named("K", 2)), (named("K", 4), named("C", 4))]
    for g, h in cases:
        a = g.regularity
        b = h.regularity
        strong = gf.product(ProductKind.STRONG, g, h).graph
        assert strong.regularity == a * b + a + b
        lex = gf.product(ProductKind.LEXICOGRAPHIC, g, h).graph
        assert lex.regularity == b + a * h.n


def test_provenance_roundtrip(tmp_path):
    prod = gf.product(ProductKind.STRONG, named("P", 3), named("C", 4))
    path = tmp_path / "prod.prov"
    gf.write_provenance(path, prod)
    rows = gf.read_provenance(path)
    assert len(rows) == prod.graph.m
    for k, origin, i, p, j, q in rows:
        u, v = prod.graph.edges[k]
        assert prod.coords[u] == (i, p)
        assert prod.coords[v] == (j, q)
        assert prod.edge_origin[k] is origin


def test_write_provenance_caches_no_tags(tmp_path):
    # the origin tags are made as the lines are written, not kept on prod
    prod = gf.product(ProductKind.STRONG, named("P", 3), named("C", 4))
    gf.write_provenance(tmp_path / "prod.prov", prod)
    assert "edge_origin" not in prod.__dict__ and "coords" not in prod.__dict__
    assert [row[1] for row in gf.read_provenance(tmp_path / "prod.prov")] == list(prod.edge_origin)


@pytest.mark.parametrize("kind", KINDS)
def test_product_shares_one_int_per_vertex(kind):
    # every edge end comes from one int object per product vertex (400 here,
    # beyond CPython's small-int cache)
    g = gf.product(kind, named("P", 20), named("C", 20)).graph
    ends = [x for e in g.edges for x in e]
    assert len({id(x) for x in ends}) == len(set(ends)) == 400


def test_determinism():
    a = gf.product(ProductKind.STRONG, named("P", 4), named("C", 4))
    b = gf.product(ProductKind.STRONG, named("P", 4), named("C", 4))
    assert a.graph == b.graph and a.edge_origin == b.edge_origin
