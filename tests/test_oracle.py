import hashlib
import importlib
import random
from math import gcd

import pytest

import gapfree as gf
from gapfree.cli import run
from gapfree.errors import BudgetExceeded
from gapfree.graph import bfs_edge_order

from helpers import SEED, edge_group, naive_oracle, named, oracle_cached, spectrum


def test_find_c3_cases():
    c3 = named("C", 3)
    assert gf.find_interval_coloring(c3, 2) is None
    assert gf.find_interval_coloring(c3, 3) is None


def test_find_c4():
    c4 = named("C", 4)
    found = gf.find_interval_coloring(c4, 2)
    assert found is not None
    assert gf.verify_interval(c4, found, 2).valid


def test_find_p4():
    p4 = named("P", 4)
    found = gf.find_interval_coloring(p4, 3)
    assert found is not None and found.colors == (1, 2, 3)
    assert gf.find_interval_coloring(p4, 4) is None  # only 3 edges


def test_search_ceiling():
    assert gf.search_ceiling(named("P", 4)) == 3  # capped at |E|
    assert gf.search_ceiling(named("C", 3)) == 2  # 2|V|-4
    assert gf.search_ceiling(named("K", 2)) == 1  # 2|V|-3 below 3 vertices
    assert gf.search_ceiling(named("K", 4)) == 4
    assert gf.search_ceiling(named("petersen")) == 15


def _spider() -> gf.Graph:
    # three legs of length 2 from vertex 0
    return gf.build_graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])


def test_proven_ceiling_pins():
    tensor = gf.product(gf.ProductKind.TENSOR, named("P", 4), named("C", 5)).graph
    pins = [
        (named("K", 4), (4, "2|V|-4")),  # W = 4, below the degree-path 5
        (named("grid", 3, 3), (7, "degree-path")),
        (named("grid", 3, 4), (9, "degree-path")),  # W = 8
        (named("Q", 3), (7, "degree-path")),
        (named("petersen"), (7, "degree-path")),
        (tensor, (12, "degree-path")),
        (named("torus", 4, 4), (13, "degree-path")),
        (_spider(), (5, "degree-path")),  # W = 5 < |E| = 6: trees gain too
        (gf.build_graph(4, [(0, 1), (2, 3)]), (2, "degree-path")),  # 1 per K2, summed
        (named("K", 2), (1, "degree-path")),  # ties go to the degree-path rule
        (named("nk1", 3), (0, "degree-path")),
    ]
    for g, want in pins:
        assert gf.proven_ceiling(g) == want, g
    assert oracle_cached(_spider()).W == 5


def test_proven_ceiling_is_sound():
    # the pruned search itself, not the oracle that stops at the ceiling,
    # proves every t above it absent on the non-empty atlas graphs with at
    # most 6 vertices; the |E| cap of search_ceiling never undercuts it
    nx = pytest.importorskip("networkx")
    probes = 0
    for a in nx.graph_atlas_g():
        if not a.number_of_edges() or a.number_of_nodes() > 6:
            continue
        g = gf.build_graph(a.number_of_nodes(), list(a.edges()))
        ceiling, _ = gf.proven_ceiling(g)
        assert ceiling <= g.m, g
        for t in range(ceiling + 1, gf.search_ceiling(g) + 1):
            assert gf.find_interval_coloring(g, t, 200_000) is None, (g, t)
            probes += 1
    assert probes == 175


def test_naive_w_within_proven_ceiling():
    # the reference with only the t <= |E| ceiling, on the atlas graphs with
    # at most 6 edges
    nx = pytest.importorskip("networkx")
    for a in nx.graph_atlas_g():
        if not 0 < a.number_of_edges() <= 6:
            continue
        g = gf.build_graph(a.number_of_nodes(), list(a.edges()))
        _, _, W = naive_oracle(g)
        assert W is None or W <= gf.proven_ceiling(g)[0], g


def test_path_never_computes_proven_ceiling(monkeypatch):
    # every probe of P60 finds a coloring up to |E|, so no probe proves
    # absence and the all-pairs paths behind proven_ceiling are never paid for
    module = importlib.import_module("gapfree.oracle")
    calls = []
    pair_pass = module._degree_path_bound

    def counted(g):
        calls.append(g)
        return pair_pass(g)

    monkeypatch.setattr(module, "_degree_path_bound", counted)
    path = named("P", 60)
    result = gf.oracle(path)
    assert (result.member, result.w, result.W, result.status) == (True, 2, 59, "complete")
    assert calls == []
    grid = named("grid", 3, 3)
    assert gf.oracle(grid).W == 6 and calls == [grid]


def test_oracle_k4():
    result = oracle_cached(named("K", 4))
    assert (result.member, result.w, result.W) == (True, 3, 4)
    assert result.status == "complete"


def test_oracle_negative_examples():
    assert oracle_cached(named("C", 5)).member is False
    assert oracle_cached(named("k113")).member is False
    assert oracle_cached(named("C", 3)).member is False


def test_oracle_edgeless():
    result = gf.oracle(named("nk1", 3))
    assert result.member is False and result.w is None


def test_oracle_known_brackets():
    for name_args, expected in [
        (("C", 4), (True, 2, 3)),
        (("C", 6), (True, 2, 4)),
        (("k13e",), (True, 3, 3)),
        (("P", 4), (True, 2, 3)),
        (("Q", 3), (True, 3, 6)),
    ]:
        result = oracle_cached(named(*name_args))
        assert (result.member, result.w, result.W) == expected, name_args


def test_witness_soundness():
    for g in [named("K", 4), named("C", 4), named("C", 6), named("P", 4),
              named("k13e"), named("Q", 3)]:
        result = oracle_cached(g)
        assert result.member
        assert result.w <= result.W
        assert result.w in result.witnesses and result.W in result.witnesses
        for t, witness in result.witnesses.items():
            assert gf.verify_interval(g, witness, t).valid


def test_naive_agreement_on_small_graphs():
    graphs = [
        named("P", 2),
        named("P", 3),
        named("P", 4),
        named("k13e"),
        named("C", 4),
        named("K", 4),
        named("K", 2),
        named("C", 6),
        named("C", 3),
        named("C", 5),
        named("k113"),
        gf.product(gf.ProductKind.TENSOR, named("P", 3), named("K", 2)).graph,
        gf.product(gf.ProductKind.STRONG_TENSOR, named("P", 3), named("K", 2)).graph,
        gf.product(gf.ProductKind.CARTESIAN, named("P", 3), named("K", 2)).graph,
        gf.product(gf.ProductKind.STRONG, named("K", 2), named("K", 2)).graph,
        gf.product(gf.ProductKind.LEXICOGRAPHIC, named("K", 2), named("nk1", 2)).graph,
    ]
    for g in graphs:
        result = gf.oracle(g)
        assert result.status == "complete"
        assert (result.member, result.w, result.W) == naive_oracle(g), g


def test_naive_agreement_on_atlas():
    # every non-empty atlas graph (at most 7 vertices) with at most 6 edges:
    # the pruned search, with its ceiling, regular early exit and reflection
    # cut, against a reference that has none of them
    nx = pytest.importorskip("networkx")
    checked = 0
    for a in nx.graph_atlas_g():
        if not 0 < a.number_of_edges() <= 6:
            continue
        g = gf.build_graph(a.number_of_nodes(), list(a.edges()))
        result = gf.oracle(g)
        assert result.status == "complete"
        assert (result.member, result.w, result.W) == naive_oracle(g), g
        checked += 1
    assert checked == 172


def test_regular_contiguity():
    # feasible color counts of a regular graph form one contiguous block
    for g in [named("C", 4), named("C", 6), named("K", 4), named("Q", 3),
              named("torus", 2, 3), named("K", 2)]:
        feasible = [
            t
            for t in range(g.max_degree, gf.search_ceiling(g) + 1)
            if gf.find_interval_coloring(g, t) is not None
        ]
        if feasible:
            assert feasible == list(range(feasible[0], feasible[-1] + 1))
        result = oracle_cached(g)
        if feasible:
            assert (result.w, result.W) == (feasible[0], feasible[-1])
        else:
            assert result.member is False


def test_naive_agreement_on_random_graphs():
    rng = random.Random(SEED + 3)
    checked = 0
    while checked < 30:
        n = rng.randint(2, 6)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        g = gf.build_graph(n, edges)
        if g.m > 7:
            continue
        result = gf.oracle(g)
        assert result.status == "complete"
        assert (result.member, result.w, result.W) == naive_oracle(g), g
        checked += 1


def test_budget_tri_state():
    grid = named("grid", 3, 3)
    with pytest.raises(BudgetExceeded):
        gf.find_interval_coloring(grid, 5, budget=10)
    partial = gf.oracle(grid, budget=10)
    assert partial.status == "budget_exceeded"
    assert partial.W is None
    full = gf.oracle(grid)
    assert full.status == "complete" and full.member


def test_partial_bracket_keeps_proven_w():
    # generous enough to find the first witness, too small to finish the scan
    g = named("grid", 3, 3)
    full = gf.oracle(g)
    probe = gf.oracle(g, budget=full.nodes_explored - 1)
    assert probe.status == "budget_exceeded"
    if probe.w is not None:
        assert probe.w == full.w


def test_cross_validate_consistent():
    c4 = named("C", 4)
    _, coloring = gf.lex_empty_interval(named("K", 2), gf.EdgeColoring((1,)), 2, "w")
    report = gf.cross_validate(coloring, oracle_cached(c4))
    assert report.consistent and coloring.t == 2

    _, strong = gf.strong_interval(named("K", 2), gf.EdgeColoring((1,)), named("K", 2))
    report = gf.cross_validate(strong, oracle_cached(named("K", 4)))
    assert report.consistent and strong.t == 3


def test_cross_validate_flags_contradiction():
    bracket = oracle_cached(named("C", 5))  # not a member
    report = gf.cross_validate(gf.EdgeColoring((1, 2, 1, 2, 3)), bracket)
    assert not report.consistent

    k4 = oracle_cached(named("K", 4))  # w=3, W=4
    too_few = gf.cross_validate(gf.EdgeColoring((1, 2)), k4)
    assert not too_few.consistent  # 2 colors is below the proven least 3
    too_many = gf.cross_validate(gf.EdgeColoring((1, 2, 3, 4, 5, 6)), k4)
    assert too_many.notes == ("construction count 6 exceeds oracle greatest count 4",)
    assert not too_many.consistent


def test_cross_validate_partial_note():
    partial = gf.oracle(named("grid", 3, 3), budget=10)
    report = gf.cross_validate(gf.EdgeColoring((1,) * 5), partial)
    assert any("partial" in note for note in report.notes)


def _witness_digest(witnesses) -> str:
    text = repr(sorted((t, c.colors) for t, c in witnesses.items()))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_search_tree_pins():
    # witnesses recorded from the recursive search this engine replaced; node
    # counts recorded with the reflection cut, the degree-path ceiling, the
    # top-color and color-1 cuts, the degree-path windows, the class-1
    # premise, the lex-leader cut and the orbit bound, none of which moves a
    # witness. The tensor product (20 vertices, above SYMMETRY_VERTICES) stays
    # capped: the top-color cut reaches t = 10 within the budget, and its
    # witnesses for t <= 9 are the ones recorded before it
    tensor = gf.product(gf.ProductKind.TENSOR, named("P", 4), named("C", 5)).graph
    pins = [
        (named("grid", 3, 4), (True, 4, 8, "complete", 9655), "135f1f530daa57b5"),
        (named("Q", 3), (True, 3, 6, "complete", 89), "14ffcb31b319e9f5"),
        (named("petersen"), (False, None, None, "complete", 35), "4f53cda18c2baa0c"),
        (named("kmn", 4, 5), (True, 8, 8, "complete", 1108), "c29c630a20eaeb60"),
        (named("kmn", 4, 6), (True, 8, 9, "complete", 1861), "350e1de096172874"),
        (tensor, (True, 4, None, "budget_exceeded", 200001), "67b79302397eba1a"),
    ]
    for g, verdict, digest in pins:
        result = gf.oracle(g, 200_000)
        assert (result.member, result.w, result.W, result.status,
                result.nodes_explored) == verdict
        assert _witness_digest(result.witnesses) == digest
        for t, witness in result.witnesses.items():
            assert gf.verify_interval(g, witness, t).valid
    assert sorted(result.witnesses) == [4, 5, 6, 7, 8, 9, 10]
    below_10 = {t: c for t, c in result.witnesses.items() if t < 10}
    assert _witness_digest(below_10) == "59dc31c5559d1e85"


def test_atlas_search_tree_pin():
    # every non-empty atlas graph on at most 6 vertices. The oracle runs at a
    # budget that completes all of them: its verdicts and witnesses were
    # recorded before the reflection cut, its node counts after it, the
    # degree-path ceiling and windows, the top-color and color-1 cuts, the
    # class-1 premise, the lex-leader cut and the orbit bound (23,983 nodes in
    # all). The chi' search runs at a budget that caps a few; recorded from
    # the recursive search it replaced
    nx = pytest.importorskip("networkx")
    witness_digest = hashlib.sha256()
    node_digest = hashlib.sha256()
    chi_digest = hashlib.sha256()
    for a in nx.graph_atlas_g():
        if not a.number_of_edges() or a.number_of_nodes() > 6:
            continue
        g = gf.build_graph(a.number_of_nodes(), list(a.edges()))
        r = gf.oracle(g, 200_000)
        witness_digest.update(repr((
            r.member, r.w, r.W, r.status,
            sorted((t, c.colors) for t, c in r.witnesses.items()),
        )).encode())
        node_digest.update(repr(r.nodes_explored).encode() + b",")
        try:
            chi = gf.exact_chromatic_index(g, 2000)
            chi_digest.update(repr((chi.chi_prime, chi.witness.colors)).encode())
        except BudgetExceeded as exc:
            chi_digest.update(repr(("budget", exc.nodes, str(exc))).encode())
    assert witness_digest.hexdigest()[:16] == "637b04407a44d277"
    assert node_digest.hexdigest()[:16] == "25f65d8184464800"
    assert chi_digest.hexdigest()[:16] == "08f375341e34e90a"


def test_witnesses_obey_the_orbit_bound():
    # the search returns the least coloring a, which is no greater than its
    # image under any automorphism, reflected or not: so a(e0) <= a(f) <=
    # t+1-a(e0) for every f in the first edge e0's orbit under the whole
    # group. Over every non-empty atlas graph on at most 6 vertices, Q3,
    # Petersen (no witness), grid 3x3, K4,5 and K4,6
    nx = pytest.importorskip("networkx")
    graphs = [
        gf.build_graph(a.number_of_nodes(), list(a.edges()))
        for a in nx.graph_atlas_g()
        if a.number_of_edges() and a.number_of_nodes() <= 6
    ]
    graphs += [named("Q", 3), named("petersen"), named("grid", 3, 3),
               named("kmn", 4, 5), named("kmn", 4, 6)]
    moved = 0  # witnesses with a(e0) > 1 on an orbit of more than e0
    for g in graphs:
        result = gf.oracle(g, 200_000)
        assert result.status == "complete"
        e0 = bfs_edge_order(g)[0]
        orbit = {perm[e0] for perm in edge_group(g._automorphisms, g.m)}
        for t, witness in result.witnesses.items():
            a = witness.colors
            assert all(a[e0] <= a[f] <= t + 1 - a[e0] for f in orbit), (g, t)
            moved += a[e0] > 1 and len(orbit) > 1
    assert moved > 0


def test_allowed_color_masks():
    # the search keeps, per vertex, the colors it may still take: 1..k ANDed
    # with the near-table row of each color it holds. For held colors X at a
    # vertex of degree d that must equal the interval rule,
    # [max X - d + 1, min X + d - 1] within 1..k, less X, or the search tree
    # would change. The proper search clears each held color
    from itertools import combinations

    from gapfree.search import _near

    def colors(lo, hi, k):
        return set(range(max(lo, 1), min(hi, k) + 1))

    def mask(cs):
        return sum(1 << (c - 1) for c in cs)

    for d in range(1, 7):
        for k in range(1, 11):
            near = _near(d, k)
            for size in range(1, min(d, k) + 1):
                for held in combinations(range(1, k + 1), size):
                    interval = proper = (1 << k) - 1
                    for c in held:
                        interval &= near[c]
                        proper ^= 1 << (c - 1)
                    window = colors(max(held) - d + 1, min(held) + d - 1, k)
                    assert interval == mask(window - set(held)), (d, k, held)
                    assert proper == mask(colors(1, k, k) - set(held)), (k, held)


def test_top_color_cut_skips_long_orders(monkeypatch):
    # above TOP_CUT_EDGES edges the search keeps no masks and cuts no more:
    # grid 3x4 then takes the nodes it took before the top-color cut, with
    # the lex-leader cut and the orbit bound (34,063 without either)
    import gapfree.search

    monkeypatch.setattr(gapfree.search, "TOP_CUT_EDGES", 16)  # grid 3x4 has 17
    result = gf.oracle(named("grid", 3, 4), 200_000)
    assert (result.W, result.nodes_explored) == (8, 13110)
    assert _witness_digest(result.witnesses) == "135f1f530daa57b5"


def test_top_color_cut_settles_a_capped_graph():
    # networkx atlas graph 205: 6 vertices, 13 edges. Without the top-color
    # cut 20k nodes run out at t = 8; the verdict and witnesses below were
    # recorded without it at a budget that completes (27,482 nodes)
    g = gf.build_graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (1, 2), (1, 3),
                           (1, 4), (1, 5), (2, 3), (2, 4), (3, 4), (4, 5)])
    result = gf.oracle(g, 20_000)
    assert (result.member, result.w, result.W, result.status) == (True, 5, 6, "complete")
    assert {t: c.colors for t, c in result.witnesses.items()} == {
        5: (1, 2, 3, 5, 4, 3, 5, 4, 2, 4, 1, 2, 3),
        6: (1, 2, 3, 4, 5, 3, 5, 2, 4, 4, 5, 6, 3),
    }
    for t, witness in result.witnesses.items():
        assert gf.verify_interval(g, witness, t).valid


def test_budget_is_exact():
    grid = named("grid", 3, 3)
    for limit in (0, 1, 10):
        with pytest.raises(BudgetExceeded) as exc:
            gf.find_interval_coloring(grid, 5, budget=limit)
        assert exc.value.nodes == limit + 1
    # one budget shared by the probes of a bracket: limits that run out in
    # the first, a middle and the last probe all stop at exactly limit + 1
    full = gf.oracle(grid).nodes_explored
    for limit in (0, 7, full // 3, full // 2, full - 1):
        partial = gf.oracle(grid, budget=limit)
        assert partial.status == "budget_exceeded"
        assert partial.nodes_explored == limit + 1
    assert gf.oracle(grid, budget=full).status == "complete"


def test_long_path_has_no_depth_limit():
    path = named("P", 5001)
    found = gf.find_interval_coloring(path, 2)
    assert found is not None and gf.verify_interval(path, found, 2).valid


def test_cli_long_path_probe(tmp_path, capsys):
    graph = tmp_path / "p1500.g"
    out = tmp_path / "p1500.col"
    assert run(["gen", "--family", "P", "--n", "1500", "--out", str(graph)]) == 0
    assert run(["oracle", str(graph), "--t", "2", "--out", str(out)]) == 0
    g = gf.read_edge_list(graph)
    t, coloring = gf.load_coloring(out, g)
    assert t == 2 and gf.verify_interval(g, coloring, 2).valid
    capsys.readouterr()


def test_tensor_of_two_non_members_is_a_member():
    # K3 and H (K_{2,3} plus one edge inside its 3-side) admit no interval
    # coloring, yet their tensor product has an interval 8-coloring
    k3 = named("K", 3)
    h = gf.build_graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 4)])
    for factor in (k3, h):
        result = gf.oracle(factor)
        assert (result.member, result.status) == (False, "complete")
    g = gf.product(gf.ProductKind.TENSOR, k3, h).graph
    assert (g.n, g.m) == (15, 42)
    witness = gf.find_interval_coloring(g, 8, 20_000)
    assert gf.verify_interval(g, witness, 8).valid
    # again without the verifier: per vertex, distinct contiguous colors, one
    # per incident edge; over the graph, exactly the colors 1..8
    for v in range(g.n):
        at_v = [witness.colors[e] for e in g.incident[v]]
        spec = spectrum(g, witness, v)
        assert len(spec) == len(at_v) == g.degrees[v]
        assert spec == tuple(range(spec[0], spec[0] + len(spec)))
    assert set(witness.colors) == set(range(1, 9))


def _small_atlas():
    """Every non-empty networkx atlas graph on at most 6 vertices."""
    nx = pytest.importorskip("networkx")
    for a in nx.graph_atlas_g():
        if a.number_of_edges() and a.number_of_nodes() <= 6:
            yield gf.build_graph(a.number_of_nodes(), list(a.edges()))


def test_members_fold_to_class_1():
    # the class-1 premise, checked on the data rather than through the oracle's
    # shortcuts: each member's least witness, every color folded mod the max
    # degree D, is a proper D-coloring
    members = 0
    for g in _small_atlas():
        result = gf.oracle(g, 200_000)
        assert result.status == "complete"
        if not result.member:
            continue
        members += 1
        delta = g.max_degree
        folded = [(c - 1) % delta + 1 for c in result.witnesses[result.w].colors]
        for v in range(g.n):
            at_v = [folded[e] for e in g.incident[v]]
            assert len(set(at_v)) == len(at_v), (g, v)
        assert max(folded) <= delta
    assert members == 174


def _brute_eccentricities(g: gf.Graph) -> list[int]:
    """ecc(e) = max over edges f of min over x in e, y in f of D(x, y), with D
    the least vertex-weight sum (weight deg - 1, both ends included) of an
    x-y path, by Floyd-Warshall; every edge of g must share one component."""
    inf = float("inf")
    weight = [d - 1 for d in g.degrees]
    dist = [[inf] * g.n for _ in range(g.n)]
    for x in range(g.n):
        dist[x][x] = weight[x]
    for x, y in g.edges:
        dist[x][y] = dist[y][x] = weight[x] + weight[y]
    for z in range(g.n):
        for x in range(g.n):
            for y in range(g.n):
                # z counted once: it ends one part and starts the other
                if dist[x][z] + dist[z][y] - weight[z] < dist[x][y]:
                    dist[x][y] = dist[x][z] + dist[z][y] - weight[z]
    return [
        max(min(dist[x][y] for x in e for y in f) for f in g.edges)
        for e in g.edges
    ]


def test_witnesses_lie_in_degree_path_windows():
    # in a graph whose edges share one component, an interval t-coloring
    # colors e within [t - ecc(e), 1 + ecc(e)]. The atlas witnesses (pinned
    # by test_atlas_search_tree_pin since before the windows existed) are
    # checked against eccentricities recomputed here by brute force
    nx = pytest.importorskip("networkx")
    checked = 0
    for g in _small_atlas():
        core = nx.Graph(g.edges)
        if not nx.is_connected(core):
            continue
        ecc = _brute_eccentricities(g)
        for t, witness in gf.oracle(g, 200_000).witnesses.items():
            for e, c in enumerate(witness.colors):
                assert t - ecc[e] <= c <= 1 + ecc[e], (g, t, e)
            checked += 1
    assert checked > 300


def test_color_1_cut_settles_k6():
    # K6 is networkx atlas graph 208. Without the color-1 cut 20k nodes run
    # out at t = 7; the verdict and witnesses below were recorded without it
    # at a budget that completes (29,702 nodes). K6 is regular, so neither
    # the windows nor the class-2 search play a part
    g = named("K", 6)
    result = gf.oracle(g, 20_000)
    assert (result.member, result.w, result.W, result.status) == (True, 5, 7, "complete")
    assert {t: c.colors for t, c in result.witnesses.items()} == {
        5: (1, 2, 3, 4, 5, 3, 4, 5, 2, 5, 1, 4, 2, 1, 3),
        6: (1, 2, 3, 4, 5, 3, 4, 5, 2, 5, 1, 4, 2, 6, 3),
        7: (1, 2, 3, 4, 5, 3, 4, 5, 2, 5, 6, 4, 7, 6, 3),
    }
    for t, witness in result.witnesses.items():
        assert gf.verify_interval(g, witness, t).valid


def test_kamalian_complete_bipartite():
    # R. R. Kamalian (1989): K_{m,n} has w = m + n - gcd(m, n) and
    # W = m + n - 1. The lex-leader cut settles K4,5 in 2,108 nodes and K4,6
    # in 3,060 (1,242,379 and over 5M without it)
    pairs = [(m, n) for m in (1, 2, 3) for n in range(max(m, 2), 7) if m + n > 3]
    pairs += [(4, 4), (4, 5), (4, 6)]
    assert len(pairs) == 16
    for m, n in pairs:
        g = gf.build_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])
        result = gf.oracle(g)
        assert result.status == "complete"
        assert (result.member, result.w, result.W) == (True, m + n - gcd(m, n), m + n - 1), (m, n)


def _petersen_minus_vertex() -> gf.Graph:
    return gf.build_graph(9, [(u - 1, v - 1) for u, v in named("petersen").edges if u])


def test_overfull_graphs_search_nothing():
    # an overfull component (|E(C)| > D(C) * floor(|V(C)| / 2)) rules out an
    # interval coloring: both entry points return before their first node,
    # which at budget 0 would raise BudgetExceeded
    k3_and_star = gf.build_graph(9, [(0, 1), (0, 2), (1, 2)] + [(3, v) for v in range(4, 9)])
    for g in (named("K", 3), named("K", 7), k3_and_star):
        for t in range(g.max_degree, g.m + 1):
            assert gf.find_interval_coloring(g, t, budget=0) is None, (g, t)
        result = gf.oracle(g, budget=0)
        assert (result.member, result.status, result.nodes_explored, result.premise) == (
            False, "complete", 0, "overfull")
    # whole, K3 + K1,5 is not overfull (8 edges, 5 * 4 allowed): only its
    # triangle is, judged by its own max degree
    assert k3_and_star.m <= k3_and_star.max_degree * (k3_and_star.n // 2)
    with pytest.raises(BudgetExceeded):
        gf.find_interval_coloring(named("P", 4), 3, budget=0)


def test_class_2_search_settles_non_members(monkeypatch):
    # Petersen minus a vertex is class 2 yet not overfull (12 edges, 3 * 4
    # allowed): the proper 3-coloring search that follows the t = 3 absence
    # proves it a non-member. K2,3 also has no interval 3-coloring, but is
    # bipartite, hence class 1, so it skips that search
    module = importlib.import_module("gapfree.oracle")
    proper_searches = []
    interval_search = module.first_coloring

    def counted(g, order, k, budget, interval, **cuts):
        if not interval:
            proper_searches.append(g)
        return interval_search(g, order, k, budget, interval, **cuts)

    monkeypatch.setattr(module, "first_coloring", counted)
    g = _petersen_minus_vertex()
    assert g.m <= g.max_degree * (g.n // 2)
    assert gf.exact_chromatic_index(g).chi_prime == 4
    full = gf.oracle(g)
    assert (full.member, full.status, full.premise) == (False, "complete", "class 2")
    assert proper_searches == [g]
    # a class-2 search that runs out of budget leaves the verdict unknown
    cut = gf.oracle(g, budget=full.nodes_explored - 1)
    assert (cut.member, cut.status, cut.premise) == (None, "budget_exceeded", None)
    k23 = gf.build_graph(5, [(i, 2 + j) for i in range(2) for j in range(3)])
    result = gf.oracle(k23)
    assert (result.member, result.w, result.W, result.premise) == (True, 4, 4, None)
    assert proper_searches == [g, g]
