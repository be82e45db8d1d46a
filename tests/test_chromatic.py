import hashlib
import random

import pytest

import gapfree as gf
from gapfree.cli import run
from gapfree.errors import BudgetExceeded, NotBipartite, NotRegular

from helpers import SEED, named, spectrum


def bipartite_regular_zoo():
    k2 = named("K", 2)
    return [
        k2,
        named("C", 4),
        named("C", 6),
        named("C", 8),
        named("kmn", 3, 3),
        named("kmn", 4, 4),
        named("Q", 3),
        named("Q", 4),
        gf.product(gf.ProductKind.TENSOR, k2, named("C", 5)).graph,
        gf.product(gf.ProductKind.TENSOR, k2, named("C", 4)).graph,
    ]


def test_single_edge():
    coloring = gf.bipartite_regular_coloring(named("K", 2))
    assert coloring.colors == (1,)


def test_c4_alternating():
    c4 = named("C", 4)
    coloring = gf.bipartite_regular_coloring(c4)
    assert sorted(coloring.palette) == [1, 2]
    for v in range(4):
        assert spectrum(c4, coloring, v) == (1, 2)


def test_double_cover_of_c5():
    cover = gf.product(gf.ProductKind.TENSOR, named("K", 2), named("C", 5)).graph
    assert cover.regularity == 2
    assert cover.n == 10
    coloring = gf.bipartite_regular_coloring(cover)
    for v in range(cover.n):
        assert spectrum(cover, coloring, v) == (1, 2)


def test_every_vertex_sees_full_palette():
    for g in bipartite_regular_zoo():
        r = g.regularity
        coloring = gf.bipartite_regular_coloring(g)
        assert sorted(coloring.palette) == list(range(1, r + 1))
        for v in range(g.n):
            assert spectrum(g, coloring, v) == tuple(range(1, r + 1))
        report = gf.verify_interval(g, coloring, r)
        assert report.valid


def test_color_classes_are_perfect_matchings():
    # equivalent to the peeling invariant: after removing classes 1..k the
    # residue is (r-k)-regular
    for g in bipartite_regular_zoo():
        r = g.regularity
        coloring = gf.bipartite_regular_coloring(g)
        for k in range(1, r + 1):
            hits = [0] * g.n
            for e, (u, v) in enumerate(g.edges):
                if coloring.colors[e] == k:
                    hits[u] += 1
                    hits[v] += 1
            assert hits == [1] * g.n


def test_not_bipartite_rejected():
    with pytest.raises(NotBipartite):
        gf.bipartite_regular_coloring(named("C", 5))


def test_not_regular_rejected():
    with pytest.raises(NotRegular):
        gf.bipartite_regular_coloring(named("P", 3))
    with pytest.raises(NotRegular):
        gf.bipartite_regular_coloring(named("nk1", 3))


def test_chi_prime_petersen():
    result = gf.exact_chromatic_index(named("petersen"))
    assert result.chi_prime == 4 and not result.class1
    report = gf.verify_interval(named("petersen"), result.witness, result.witness.t)
    assert not report.properness_violations
    assert sorted(result.witness.palette) == [1, 2, 3, 4]


def test_chi_prime_k4():
    result = gf.exact_chromatic_index(named("K", 4))
    assert result.chi_prime == 3 and result.class1


def test_chi_prime_c3():
    result = gf.exact_chromatic_index(named("C", 3))
    assert result.chi_prime == 3 and not result.class1


def test_chi_prime_empty():
    result = gf.exact_chromatic_index(named("nk1", 3))
    assert result.chi_prime == 0 and result.class1


def test_witness_is_lex_least_deterministic():
    a = gf.exact_chromatic_index(named("petersen")).witness
    b = gf.exact_chromatic_index(named("petersen")).witness
    assert a == b


def _search_order(g):
    from gapfree.graph import bfs_edge_order

    rank = {e: i for i, e in enumerate(bfs_edge_order(g))}
    return sorted(
        range(g.m),
        key=lambda e: (-(g.degrees[g.edges[e][0]] + g.degrees[g.edges[e][1]]), rank[e]),
    )


def test_witness_is_lex_least_against_brute_force():
    # plain enumeration of every proper k-coloring, no symmetry tricks; the
    # search's witness must be the lexicographically least color sequence
    for g in [named("C", 4), named("C", 5), named("K", 4), named("P", 4)]:
        result = gf.exact_chromatic_index(g)
        k = result.chi_prime
        order = _search_order(g)
        best = None

        def enum(pos, seq, at_vertex):
            nonlocal best
            if best is not None:
                return  # first hit in ascending order is the minimum
            if pos == g.m:
                best = tuple(seq)
                return
            e = order[pos]
            u, v = g.edges[e]
            for c in range(1, k + 1):
                if c in at_vertex[u] or c in at_vertex[v]:
                    continue
                at_vertex[u].add(c)
                at_vertex[v].add(c)
                enum(pos + 1, seq + [c], at_vertex)
                at_vertex[u].remove(c)
                at_vertex[v].remove(c)

        enum(0, [], [set() for _ in range(g.n)])
        assert best == tuple(result.witness.colors[e] for e in order)


def _random_graph(rng, n, p=0.5):
    return gf.build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_vizing_bound_on_random_graphs():
    rng = random.Random(SEED + 2)
    for _ in range(30):
        g = _random_graph(rng, rng.randint(2, 8))
        result = gf.exact_chromatic_index(g)
        assert result.chi_prime in (g.max_degree, g.max_degree + 1)
        report = gf.verify_interval(g, result.witness, result.witness.t)
        assert not report.properness_violations


def test_regular_membership_examples():
    assert gf.regular_membership(named("C", 5)) is False
    assert gf.regular_membership(named("C", 4)) is True
    assert gf.regular_membership(named("torus", 3, 3)) is False
    with pytest.raises(NotRegular):
        gf.regular_membership(named("P", 4))
    # 0-regular and vacuously class 1, but no coloring uses color 1
    assert gf.regular_membership(named("nK1", 3)) is False
    # an odd clique is overfull, so it is settled before any search: at
    # budget 0 a search would raise BudgetExceeded
    assert gf.regular_membership(named("K", 13), budget=0) is False


def test_overfull_component_skips_the_delta_search(monkeypatch):
    # K5 plus an isolated vertex: whole, its 10 edges fit 4 * floor(6/2),
    # but the K5 component has more than 4 * floor(5/2), so the k = 4 search,
    # which would fail after 14 nodes, never runs: one proper search, k = 5
    import gapfree.chromatic

    searches = []
    search = gapfree.chromatic.first_coloring

    def counted(g, order, k, budget, interval, **cuts):
        searches.append(k)
        return search(g, order, k, budget, interval, **cuts)

    monkeypatch.setattr(gapfree.chromatic, "first_coloring", counted)
    g = gf.build_graph(6, named("K", 5).edges)
    assert g.m <= 4 * (g.n // 2)
    result = gf.exact_chromatic_index(g)
    assert (result.chi_prime, result.class1, searches) == (5, False, [5])


def test_t33_is_class_2_with_witness_at_5():
    result = gf.exact_chromatic_index(named("torus", 3, 3))
    assert result.chi_prime == 5 and not result.class1


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        gf.exact_chromatic_index(named("petersen"), budget=10)


def test_membership_agrees_with_oracle_on_small_regular_graphs():
    for g in [named("C", 4), named("C", 5), named("C", 6), named("K", 4),
              named("K", 2), named("Q", 3), named("torus", 2, 3),
              named("torus", 3, 3)]:
        assert gf.regular_membership(g) == gf.oracle(g).member


def test_clique_witness_pins():
    # recorded from the recursive search this engine replaced
    k6 = gf.exact_chromatic_index(named("K", 6))
    assert (k6.chi_prime, k6.class1) == (5, True)
    assert k6.witness.colors == (1, 2, 3, 4, 5, 3, 4, 5, 2, 5, 1, 4, 2, 1, 3)
    k7 = gf.exact_chromatic_index(named("K", 7))
    assert (k7.chi_prime, k7.class1) == (7, False)
    assert k7.witness.colors == (
        1, 2, 3, 4, 5, 6, 3, 2, 5, 4, 7, 1, 6, 7, 4, 7, 6, 5, 1, 2, 3,
    )


def test_budget_is_exact():
    # Petersen is class 2: the search at 3 colors fails after 59 nodes and
    # the one at 4 colors succeeds after 18 more, on the same budget
    petersen = named("petersen")
    for limit in (0, 1, 58, 59, 60, 76):
        with pytest.raises(BudgetExceeded) as exc:
            gf.exact_chromatic_index(petersen, budget=limit)
        assert exc.value.nodes == limit + 1
    assert gf.exact_chromatic_index(petersen, budget=77).chi_prime == 4


def test_regular_membership_reads_only_the_max_degree_search():
    # Petersen's 3-coloring search proves class 2 after 59 nodes: that
    # settles membership, with no budget left over for the 4-coloring that
    # exact_chromatic_index goes on to find
    petersen = named("petersen")
    assert gf.regular_membership(petersen, budget=59) is False
    with pytest.raises(BudgetExceeded) as exc:
        gf.regular_membership(petersen, budget=58)
    assert exc.value.nodes == 59


def test_cli_long_path(tmp_path, capsys):
    graph = tmp_path / "p1500.g"
    out = tmp_path / "p1500.col"
    assert run(["gen", "--family", "P", "--n", "1500", "--out", str(graph)]) == 0
    assert run(["chi-prime", str(graph), "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith("chi_prime=2 class1=True max_degree=2\n")
    g = gf.read_edge_list(graph)
    t, coloring = gf.load_coloring(out, g)
    report = gf.verify_interval(g, coloring, t)
    assert t == 2 and not report.properness_violations and not report.unused_colors


def test_peel_coloring_pin():
    # the zoo, the K2 x H and K2 (x) H double covers and Q5; digest recorded
    # from the edge-id-dict peel before it read ids from g.incident
    k2 = named("K", 2)
    hs = [named("C", n) for n in range(3, 30)]
    hs += [named("K", n) for n in range(2, 9)] + [named("petersen")]
    graphs = bipartite_regular_zoo() + [
        gf.product(kind, k2, h).graph
        for h in hs
        for kind in (gf.ProductKind.TENSOR, gf.ProductKind.STRONG_TENSOR)
    ] + [named("Q", 5)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(repr(gf.bipartite_regular_coloring(g).colors).encode())
    assert len(graphs) == 81
    assert digest.hexdigest()[:16] == "b73df1aa51e4e3e5"


def test_proper_search_tree_pin():
    # the proper search's node counts, which exact_chromatic_index does not
    # expose, at k = max degree and max degree + 1 on every non-empty atlas
    # graph with at most 6 vertices plus K7, K9, Petersen and the 3x3 torus;
    # a search over the budget records its node count and no coloring.
    # Recorded while the search still kept per-color edge counts
    nx = pytest.importorskip("networkx")
    from gapfree.search import Budget, first_coloring

    graphs = [
        gf.build_graph(a.number_of_nodes(), list(a.edges()))
        for a in nx.graph_atlas_g()
        if a.number_of_edges() and a.number_of_nodes() <= 6
    ]
    graphs += [named("K", 7), named("K", 9), named("petersen"), named("torus", 3, 3)]
    digest = hashlib.sha256()
    for g in graphs:
        order = _search_order(g)
        for k in (g.max_degree, g.max_degree + 1):
            budget = Budget(20_000)
            try:
                colors = first_coloring(g, order, k, budget, interval=False)
                nodes = budget.used
            except BudgetExceeded as exc:
                colors, nodes = None, exc.nodes
            digest.update(repr((k, nodes, colors)).encode())
    assert len(graphs) == 206
    assert digest.hexdigest()[:16] == "5e5baa72f9e55786"
