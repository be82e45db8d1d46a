import hashlib
import random
import re

import pytest

import gapfree as gf
from gapfree.errors import (
    BadParameter,
    DuplicateEdge,
    LoopEdge,
    VertexOutOfRange,
)
from gapfree.graph import _automorphism_generators, bfs_edge_order

from helpers import SEED, edge_group, named


def test_build_graph_canonicalizes():
    g = gf.build_graph(4, [(3, 0), (1, 0), (2, 1)])
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    assert g.adjacency[0] == (1, 3)
    # pairs given as lists are stored as tuples too
    listed = gf.build_graph(4, [[0, 3], [1, 0], [1, 2]])
    assert listed == g and all(type(e) is tuple for e in listed.edges)


def test_build_graph_k2():
    g = gf.build_graph(2, [(0, 1)])
    assert (g.n, g.m) == (2, 1)


def test_build_graph_k13e_example():
    g = gf.build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
    assert g.max_degree == 3
    assert g.edges == named("k13e").edges


def test_loop_rejected():
    with pytest.raises(LoopEdge):
        gf.build_graph(3, [(1, 1)])


def test_unordered_duplicate_rejected():
    with pytest.raises(DuplicateEdge):
        gf.build_graph(3, [(0, 1), (1, 0)])


def test_vertex_out_of_range():
    with pytest.raises(VertexOutOfRange):
        gf.build_graph(3, [(0, 3)])
    with pytest.raises(VertexOutOfRange):
        gf.build_graph(3, [(-1, 2)])


def test_hand_built_graph_needs_canonical_edge_order():
    # unsorted edges would pair adjacency with the wrong edge ids: the matching
    # peel once returned the invalid (2, 1, 1, 2) for this C4. Graph itself
    # refuses such a list, so no reader has to check it again
    unsorted = ((2, 3), (0, 1), (1, 2), (0, 3))
    swapped, repeated = ((0, 1), (2, 1)), ((0, 1), (0, 1))
    for n, edges in ((4, unsorted), (3, swapped), (3, repeated)):
        with pytest.raises(ValueError, match=r"^edge 1 \(\d, 1\): Graph needs strictly"):
            gf.Graph(n, edges)
    fixed = gf.build_graph(4, unsorted)
    coloring = gf.bipartite_regular_coloring(fixed)
    assert gf.verify_interval(fixed, coloring, 2).valid


def test_graph_refuses_a_non_canonical_edge_list():
    # each fault is refused where the Graph is made, naming the first edge
    # out of place; an end >= n once reached degrees as an IndexError
    bad = [
        (3, ((1, 0),), "edge 0 (1, 0)"),  # a swapped pair
        (3, ((0, 1), (0, 1)), "edge 1 (0, 1)"),  # a repeated pair
        (3, ((0, 2), (0, 1)), "edge 1 (0, 1)"),  # an unsorted list
        (3, ((0, 1), (1, 1)), "edge 1 (1, 1)"),  # a loop
        (2, ((0, 5),), "edge 0 (0, 5)"),  # an end >= n
        (3, ((-1, 0), (0, 1)), "edge 0 (-1, 0)"),  # a negative end
    ]
    for n, edges, where in bad:
        with pytest.raises(ValueError, match=rf"^{re.escape(where)}: Graph needs strictly"):
            gf.Graph(n, edges)


def test_graph_refuses_a_negative_vertex_count():
    # with no edges, no edge is out of place: the count is checked on its own
    for edges in ((), ((0, 1),)):
        with pytest.raises(ValueError, match=r"^Graph needs a vertex count >= 0, got -1$"):
            gf.Graph(-1, edges)


def test_adjacency_is_ascending_without_a_sort():
    # edges sorted as canonical pairs list each vertex's lesser neighbours,
    # ascending, before its greater ones, so adjacency needs no sort
    def ascending(g):
        return all(list(a) == sorted(a) for a in g.adjacency)

    nx = pytest.importorskip("networkx")
    for a in nx.graph_atlas_g():
        assert ascending(gf.build_graph(a.number_of_nodes(), list(a.edges())))
    left, right = named("P", 3), named("kmn", 2, 3)
    for kind in gf.ProductKind:
        assert ascending(gf.product(kind, left, right).graph), kind
        assert ascending(gf.product(kind, right, left).graph), kind


def test_path_generator():
    p4 = named("P", 4)
    assert (p4.n, p4.m, p4.max_degree) == (4, 3, 2)


def test_cycle_generator():
    c5 = named("C", 5)
    assert (c5.n, c5.m) == (5, 5)
    assert c5.regularity == 2


def test_petersen_generator():
    p = named("petersen")
    assert (p.n, p.m) == (10, 15)
    assert p.regularity == 3


def test_bad_parameters():
    with pytest.raises(BadParameter):
        gf.generate("C", 2)
    with pytest.raises(BadParameter):
        gf.generate("P", 0)
    with pytest.raises(BadParameter):
        gf.generate("nosuchfamily", 3)
    with pytest.raises(BadParameter):
        gf.generate("petersen", 5)


def test_degree_profile_k4():
    assert named("K", 4).regularity == 3


def test_degree_profile_k13e():
    g = named("k13e")
    assert g.regularity is None and g.max_degree == 3


def test_degree_profile_cylinder_2_4():
    # C(2,4) = P2 box C4 is the 3-cube: every vertex has degree 1 + 2
    g = named("cylinder", 2, 4)
    assert g.max_degree == 3
    assert g.degrees == (3,) * 8
    assert g.regularity == 3


def test_regularity():
    # the common degree, 0 when there are no edges, None for an irregular graph
    assert gf.Graph(0, ()).regularity == 0
    assert named("nk1", 1).regularity == 0
    assert named("nk1", 4).regularity == 0
    assert named("k13e").regularity is None
    assert named("P", 3).regularity is None
    assert gf.build_graph(3, [(0, 1)]).regularity is None  # K2 plus an isolated vertex
    assert named("K", 2).regularity == 1
    assert named("C", 5).regularity == 2
    assert named("petersen").regularity == 3
    assert named("Q", 3).regularity == 3


def test_hypercube_counts():
    for n in range(1, 7):
        q = named("Q", n)
        assert q.n == 2**n
        assert q.m == n * 2 ** (n - 1)
        assert q.regularity == n
        ok, _ = gf.is_bipartite(q)
        assert ok


def test_handshake_across_families():
    zoo = [
        named("P", 5),
        named("C", 6),
        named("K", 5),
        named("kmn", 2, 3),
        named("nk1", 4),
        named("Q", 3),
        named("petersen"),
        named("k113"),
        named("k13e"),
        named("grid", 3, 4),
        named("cylinder", 3, 4),
        named("torus", 3, 4),
        named("hamming", 2, 3),
    ]
    for g in zoo:
        assert sum(g.degrees) == 2 * g.m


def test_k113_shape():
    g = named("k113")
    assert (g.n, g.m, g.max_degree) == (5, 7, 4)


def test_torus_and_hamming_shapes():
    t34 = named("torus", 3, 4)
    assert (t34.n, t34.m) == (12, 24)
    assert t34.regularity == 4
    t24 = named("torus", 2, 4)  # dimension 2 read as K2
    assert (t24.n, t24.m) == (8, 12)
    assert t24.regularity == 3
    h22 = named("hamming", 2, 2)
    assert (h22.n, h22.m) == (4, 4)
    assert h22.regularity == 2


def test_is_bipartite_examples():
    ok, sides = gf.is_bipartite(named("C", 4))
    assert ok
    ok_odd, sides_odd = gf.is_bipartite(named("C", 5))
    assert not ok_odd and sides_odd is None
    cover = gf.product(gf.ProductKind.TENSOR, named("K", 2), named("C", 5))
    ok, _ = gf.is_bipartite(cover.graph)
    assert ok


def test_bipartite_partition_has_no_internal_edges():
    for g in [named("C", 4), named("P", 5), named("Q", 3), named("kmn", 2, 3)]:
        ok, sides = gf.is_bipartite(g)
        assert ok
        for u, v in g.edges:
            assert sides[u] != sides[v]


def test_edge_list_roundtrip(tmp_path):
    g = named("petersen")
    path = tmp_path / "petersen.g"
    gf.write_edge_list(path, g)
    again = gf.read_edge_list(path)
    assert again == g
    path2 = tmp_path / "copy.g"
    gf.write_edge_list(path2, again)
    assert path.read_bytes() == path2.read_bytes()


def _int_objects(g):
    """(int objects, distinct values) over the ends of g's edges."""
    ends = [x for e in g.edges for x in e]
    return len({id(x) for x in ends}), len(set(ends))


def test_read_edge_list_shares_one_int_per_vertex(tmp_path):
    # above 256 CPython caches no ints, so every vertex's int is shared on
    # purpose: a vertex named by many edges, or spelt two ways, is one object
    path = tmp_path / "strong.g"
    gf.write_edge_list(path, gf.product(gf.ProductKind.STRONG, named("P", 20), named("C", 20)).graph)
    g = gf.read_edge_list(path)
    assert g.n == 400 and _int_objects(g) == (400, 400)
    path.write_text("301 3\n0 300\n1 0300\n299 +300\n")
    assert _int_objects(gf.read_edge_list(path)) == (4, 4)


def test_edge_list_comments_ignored(tmp_path):
    path = tmp_path / "with_comments.g"
    path.write_text("# a graph\n3 2\n0 1\n# middle comment\n1 2\n")
    g = gf.read_edge_list(path)
    assert g.edges == ((0, 1), (1, 2))


def test_edge_list_malformed(tmp_path):
    path = tmp_path / "bad.g"
    path.write_text("3 5\n0 1\n")
    with pytest.raises(BadParameter):
        gf.read_edge_list(path)


def test_bfs_edge_order_pin():
    # every atlas entry (1,253, the 0-vertex one included) plus seeded random
    # graphs; digest recorded from the dict-index walk before it was replaced
    nx = pytest.importorskip("networkx")
    digest = hashlib.sha256()
    for a in nx.graph_atlas_g():
        g = gf.build_graph(a.number_of_nodes(), list(a.edges()))
        digest.update(repr(bfs_edge_order(g)).encode())
    rng = random.Random(SEED)
    for _ in range(200):
        n, p = rng.randint(1, 40), rng.random()
        g = gf.build_graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        )
        digest.update(repr(bfs_edge_order(g)).encode())
    assert digest.hexdigest()[:16] == "5e88957266674710"



def test_walk_lists_the_components():
    # per component with an edge, in the walk's order (by least vertex): its
    # vertex set and its edge ids as networkx finds them; the edge lists,
    # concatenated, are the BFS edge order. Isolated vertices get no entry
    nx = pytest.importorskip("networkx")
    rng = random.Random(SEED + 7)
    graphs = [gf.build_graph(a.number_of_nodes(), list(a.edges())) for a in nx.graph_atlas_g()]
    for _ in range(200):
        n, p = rng.randint(1, 40), rng.random() / 4
        graphs.append(gf.build_graph(
            n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]))
    split = 0
    for g in graphs:
        ids = {e: k for k, e in enumerate(g.edges)}
        nxg = nx.Graph(g.edges)
        want = sorted(
            (sorted(c), sorted(ids[tuple(sorted(e))] for e in nxg.subgraph(c).edges))
            for c in nx.connected_components(nxg))
        components = g._walk[2]
        assert [(list(v), sorted(e)) for v, e in components] == want, g
        assert all(list(v) == sorted(v) for v, _ in components)
        assert sum((e for _, e in components), ()) == bfs_edge_order(g)
        split += len(components) > 1
    assert split == 124  # graphs with two or more components that hold an edge


# every family name and alias generate() accepts, by parameter count (None: any)
FAMILY_NAMES = {
    0: ["petersen", "k113", "k_1_1_3", "k13e", "k13+e", "k_1_3_e"],
    1: ["p", "path", "c", "cycle", "k", "complete", "nk1", "empty", "q", "hypercube", "cube"],
    2: ["kmn", "biclique", "cylinder", "cyl", "torus", "t"],
    None: ["grid", "g", "hamming", "h"],
}


def test_generate_pin():
    # sha256 over every name and alias at small parameters, each giving
    # (n, edges) or the exception it raises; recorded before the family
    # tables were merged into one
    calls = [(name, ()) for name in FAMILY_NAMES[0]]
    calls += [(name, (a,)) for name in FAMILY_NAMES[1] for a in range(7)]
    calls += [(name, (a, b)) for name in FAMILY_NAMES[2] for a in range(5) for b in range(5)]
    calls += [
        (name, dims)
        for name in FAMILY_NAMES[None]
        for dims in [(), (1,), (3,), (2, 3), (3, 1), (2, 2, 2)]
    ]
    digest = hashlib.sha256()
    for name, params in calls:
        for spelling in (name, f" {name.upper()} "):
            try:
                g = gf.generate(spelling, *params)
                digest.update(repr((spelling, params, g.n, g.edges)).encode())
            except BadParameter as exc:
                digest.update(repr((spelling, params, str(exc))).encode())
    assert len(calls) == 6 + 77 + 150 + 24
    assert digest.hexdigest()[:16] == "868a5cea9265469e"


@pytest.mark.parametrize("family, params, message", [
    ("petersen", (5,), "petersen takes no parameters"),
    (" K13+E ", (1, 2), " K13+E  takes no parameters"),
    ("C", (), "C takes exactly one parameter"),
    ("cube", (2, 2), "cube takes exactly one parameter"),
    ("torus", (3,), "torus takes exactly two parameters"),
    ("Kmn", (1, 2, 3), "Kmn takes exactly two parameters"),
    ("grid", (), "grid needs at least one dimension"),
    ("nosuchfamily", (3,), "unknown family 'nosuchfamily'"),
    ("", (), "unknown family ''"),
])
def test_generate_messages(family, params, message):
    with pytest.raises(BadParameter) as info:
        gf.generate(family, *params)
    assert type(info.value) is BadParameter
    assert str(info.value) == message


def _is_edge_automorphism(g: gf.Graph, perm) -> bool:
    """Whether perm is a bijection of g's edge ids that keeps each edge's end
    degrees and keeps two edges meeting exactly when their images meet."""
    if sorted(perm) != list(range(g.m)):
        return False
    ends = [set(e) for e in g.edges]
    degree_pair = [sorted(g.degrees[x] for x in e) for e in g.edges]
    return all(degree_pair[perm[e]] == degree_pair[e] for e in range(g.m)) and all(
        bool(ends[e] & ends[f]) == bool(ends[perm[e]] & ends[perm[f]])
        for e in range(g.m) for f in range(e + 1, g.m)
    )


def test_automorphism_generators_generate_the_group():
    # on every non-empty atlas graph with at most 6 vertices, each generator
    # is an edge automorphism, none fixes every edge, and together they
    # generate the permutations of the edges that networkx's matcher finds
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    counted = 0
    for a in nx.graph_atlas_g():
        if not a.number_of_edges() or a.number_of_nodes() > 6:
            continue
        g = gf.build_graph(a.number_of_nodes(), list(a.edges()))
        ids = {e: k for k, e in enumerate(g.edges)}
        induced = {
            tuple(ids[tuple(sorted((s[u], s[v])))] for u, v in g.edges)
            for s in GraphMatcher(a, a).isomorphisms_iter()
        }
        generators = _automorphism_generators(g)
        assert tuple(range(g.m)) not in generators, g
        for perm in generators:
            assert _is_edge_automorphism(g, perm), (g, perm)
        assert len(edge_group(generators, g.m)) == len(induced), g
        counted += len(generators)
    assert counted > 300


def test_automorphism_generators_of_named_graphs():
    # the Frucht graph is cubic and asymmetric; K_{1,3} plus an isolated
    # vertex has S3 on its edges, and a K2 component's swap moves no edge
    frucht = gf.build_graph(12, [
        (0, 1), (0, 6), (0, 7), (1, 2), (1, 7), (2, 3), (2, 8), (3, 4), (3, 9),
        (4, 5), (4, 9), (5, 6), (5, 10), (6, 10), (7, 11), (8, 9), (8, 11), (10, 11),
    ])
    assert frucht.regularity == 3 and _automorphism_generators(frucht) == ()
    star = gf.build_graph(5, [(0, 1), (0, 2), (0, 3)])
    assert len(edge_group(_automorphism_generators(star), 3)) == 6
    assert _automorphism_generators(gf.build_graph(2, [(0, 1)])) == ()
    assert _automorphism_generators(gf.build_graph(0, [])) == ()
    assert len(edge_group(_automorphism_generators(named("petersen")), 15)) == 120


def test_orbit_of_the_first_edge():
    # the orbit bound's positions, found by a walk over the generators, are
    # the first edge's orbit under the whole group: every edge of Q3,
    # Petersen and K4,5, and 4 of grid 3x4's 17 (its group has order 4)
    for g, size in [(named("Q", 3), 12), (named("petersen"), 15),
                    (named("kmn", 4, 5), 20), (named("grid", 3, 4), 4)]:
        order = bfs_edge_order(g)
        stop, _, _, orbit = g._symmetry_plan
        whole = {perm[order[0]] for perm in edge_group(g._automorphisms, g.m)}
        assert {order[p] for p in orbit} | {order[0]} == whole
        assert len(whole) == size and 0 not in orbit and stop[1]


def test_symmetries_stop_at_the_vertex_limit(monkeypatch):
    # the interval search computes generators and its plan, once per graph,
    # only up to SYMMETRY_VERTICES vertices and only for the BFS order; proper
    # searches never compute them. gf.generate, not the cached named(): each
    # graph here must be new, with nothing cached by another test
    import gapfree.graph
    import gapfree.search
    from gapfree.search import SYMMETRY_VERTICES, Budget, _lex_leader_plan, first_coloring

    computed = []
    planned = []

    def counted(g):
        computed.append(g)
        return _automorphism_generators(g)

    def plan(g):
        planned.append(g)
        return _lex_leader_plan(g)

    monkeypatch.setattr(gapfree.graph, "_automorphism_generators", counted)
    monkeypatch.setattr(gapfree.search, "_lex_leader_plan", plan)

    def search(g, k, interval=True, order=None):
        order = bfs_edge_order(g) if order is None else order
        return first_coloring(g, order, k, Budget(100_000), interval)

    assert SYMMETRY_VERTICES == 12
    c12, c13, grid = gf.generate("C", 12), gf.generate("C", 13), gf.generate("grid", 4, 5)
    assert search(c12, 2) is not None
    assert computed == planned == [c12] and c12._automorphisms != ()
    # C13 has automorphisms too, but more vertices than the limit
    assert search(c13, 3) is None and search(grid, 4) is not None
    assert computed == planned == [c12] and _automorphism_generators(c13) != ()
    # an order that misses an edge, or any order but the BFS one, gets none
    c10 = gf.generate("C", 10)
    search(c10, 2, order=bfs_edge_order(c10)[:-1])
    assert search(c10, 2, order=bfs_edge_order(c10)[::-1]) is not None
    assert computed == planned == [c12]

    # chi' and the class-2 search are proper searches
    petersen = gf.generate("petersen")
    assert gf.exact_chromatic_index(petersen).chi_prime == 4
    assert search(petersen, 3, interval=False) is None
    assert computed == planned == [c12]

    # two oracle calls on one graph compute its generators and plan once
    q3 = gf.generate("Q", 3)
    assert gf.oracle(q3) == gf.oracle(q3)
    assert computed == planned == [c12, q3]


def test_automorphism_generator_pin():
    # the lex-leader cut's node counts depend on the generator list and its
    # order, so the generators themselves are pinned: over every non-empty
    # atlas graph on at most 6 vertices, then Petersen, Q3, grid 3x4 and K4,5
    nx = pytest.importorskip("networkx")
    graphs = [
        gf.build_graph(a.number_of_nodes(), list(a.edges()))
        for a in nx.graph_atlas_g()
        if a.number_of_edges() and a.number_of_nodes() <= 6
    ]
    graphs += [named("petersen"), named("Q", 3), named("grid", 3, 4), named("kmn", 4, 5)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(repr(_automorphism_generators(g)).encode() + b";")
    assert digest.hexdigest()[:16] == "2ec087d232d78e6c"
