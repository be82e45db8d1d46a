import hashlib

import pytest

import gapfree as gf
from gapfree.errors import (
    BadParameter,
    InvalidAlpha,
    NotClass1,
    NotRegular,
)

import random

from helpers import (
    K13E_ALPHA_3,
    P4_ALPHA_W,
    SEED,
    collect_matrix,
    named,
    oracle_cached,
    spectrum,
)


def test_matrix_soundness():
    """Every constructor output verifies with exactly the predicted color count."""
    entries = collect_matrix()
    assert len(entries) >= 100
    for entry in entries:
        prod, coloring = entry["build"]()
        if entry["expected"] is not None:
            assert coloring.t == entry["expected"], entry["label"]
            report = gf.verify_interval(prod.graph, coloring, entry["expected"])
        else:
            assert coloring.t <= entry["bound"], entry["label"]
            report = gf.verify_interval(prod.graph, coloring, coloring.t)
        assert report.valid, entry["label"]


def test_constructors_cache_no_table_on_the_product():
    # each constructor colours by a local coordinate table and self-verifies
    # without the incidence table, so neither stays cached on what it returns
    theorems = set()
    for entry in collect_matrix():
        if entry["theorem"] in theorems:
            continue
        theorems.add(entry["theorem"])
        prod, _ = entry["build"]()
        assert "coords" not in prod.__dict__, entry["label"]
        assert "edge_origin" not in prod.__dict__, entry["label"]
        assert "incident" not in prod.graph.__dict__, entry["label"]
    assert theorems == {"t2", "t12", "t13", "t14", "t16w", "t16W", "t17"}


def test_stride_containment():
    """Tensor-style colors at a vertex stay inside its left spectrum's block range."""
    for entry in collect_matrix():
        if entry["theorem"] not in ("t12", "t13"):
            continue
        g, alpha, h = entry["g"], entry["alpha"], entry["h"]
        r = h.regularity
        stride = r if entry["theorem"] == "t12" else r + 1
        prod, coloring = entry["build"]()
        for x in range(prod.graph.n):
            i, _ = prod.coords[x]
            spec_g = spectrum(g, alpha, i)
            spec_x = spectrum(prod.graph, coloring, x)
            if not spec_x:
                continue
            assert spec_x[0] >= (spec_g[0] - 1) * stride + 1
            assert spec_x[-1] <= spec_g[-1] * stride


def test_oracle_consistency_on_small_products():
    checked = 0
    for entry in collect_matrix():
        prod, coloring = entry["build"]()
        if prod.graph.m > 9:
            continue
        bracket = gf.oracle(prod.graph, budget=2_000_000)
        report = gf.cross_validate(coloring, bracket)
        assert report.consistent, entry["label"]
        checked += 1
    assert checked >= 5


def test_tensor_trivial_case():
    # both factors a single edge: the product is two parallel edges, one block
    prod, coloring = gf.tensor_interval(named("K", 2), gf.EdgeColoring((1,)), named("K", 2))
    assert prod.graph.m == 2 and coloring.colors == (1, 1)
    assert gf.verify_interval(prod.graph, coloring, 1).valid


def test_tensor_w_coloring_of_p4():
    prod, coloring = gf.tensor_interval(named("P", 4), gf.EdgeColoring((1, 2, 1)), named("C", 5))
    assert coloring.t == 4
    assert gf.verify_interval(prod.graph, coloring, 4).valid


def test_strong_tensor_k2_c4_is_cover_coloring():
    prod, coloring = gf.strong_tensor_interval(named("K", 2), gf.EdgeColoring((1,)), named("C", 4))
    assert prod.graph.regularity == 3
    assert coloring.t == 3
    assert gf.verify_interval(prod.graph, coloring, 3).valid


def test_strong_tensor_p3_k2():
    prod, coloring = gf.strong_tensor_interval(named("P", 3), gf.EdgeColoring((1, 2)), named("K", 2))
    assert coloring.t == 4
    assert gf.verify_interval(prod.graph, coloring, 4).valid


def test_strong_k2_k2_is_k4():
    prod, coloring = gf.strong_interval(named("K", 2), gf.EdgeColoring((1,)), named("K", 2))
    assert prod.graph.edges == named("K", 4).edges
    assert coloring.t == 3
    assert gf.verify_interval(prod.graph, coloring, 3).valid


def test_strong_rejects_class2_right_factor():
    with pytest.raises(NotClass1):
        gf.strong_interval(named("P", 4), gf.EdgeColoring((1, 2, 3)), named("C", 5))
    with pytest.raises(NotClass1):
        gf.lex_regular_interval(named("P", 4), gf.EdgeColoring((1, 2, 3)), named("petersen"))


def test_regularity_required():
    with pytest.raises(NotRegular):
        gf.tensor_interval(named("P", 4), gf.EdgeColoring((1, 2, 3)), named("P", 3))
    with pytest.raises(NotRegular):
        gf.strong_tensor_interval(named("P", 4), gf.EdgeColoring((1, 2, 3)), named("nk1", 3))


def test_invalid_alpha_rejected():
    with pytest.raises(InvalidAlpha):
        gf.tensor_interval(named("P", 4), gf.EdgeColoring((1, 1, 2)), named("K", 2))
    with pytest.raises(InvalidAlpha):  # palette must start at 1
        gf.tensor_interval(named("P", 4), gf.EdgeColoring((2, 3, 2)), named("K", 2))
    with pytest.raises(InvalidAlpha):  # wrong length
        gf.tensor_interval(named("P", 4), gf.EdgeColoring((1, 2)), named("K", 2))
    with pytest.raises(InvalidAlpha):  # edgeless left factor
        gf.lex_empty_interval(named("nk1", 2), gf.EdgeColoring(()), 2, "w")


def test_lex_empty_k2_w_form_exact_colors():
    prod, coloring = gf.lex_empty_interval(named("K", 2), gf.EdgeColoring((1,)), 2, "w")
    by_pair = {}
    for k, (u, v) in enumerate(prod.graph.edges):
        (_, p), (_, q) = prod.coords[u], prod.coords[v]
        by_pair[(p, q)] = coloring.colors[k]
    assert by_pair == {(0, 0): 1, (0, 1): 2, (1, 0): 2, (1, 1): 1}
    assert gf.verify_interval(prod.graph, coloring, 2).valid


def test_lex_empty_k2_W_form_exact_colors():
    prod, coloring = gf.lex_empty_interval(named("K", 2), gf.EdgeColoring((1,)), 2, "W")
    assert coloring.t == 3
    assert sorted(coloring.colors) == [1, 2, 2, 3]
    assert gf.verify_interval(prod.graph, coloring, 3).valid


def test_lex_empty_n1_is_identity():
    g = named("P", 4)
    alpha = gf.EdgeColoring((1, 2, 3))
    prod, coloring = gf.lex_empty_interval(g, alpha, 1, "w")
    assert prod.graph.edges == g.edges
    assert coloring == alpha


def test_lex_empty_bad_n():
    with pytest.raises(BadParameter, match=r"^copy count must be >= 1, got 0$"):
        gf.lex_empty_interval(named("K", 2), gf.EdgeColoring((1,)), 0, "w")
    with pytest.raises(BadParameter):
        gf.lex_empty_interval(named("K", 2), gf.EdgeColoring((1,)), 2, "x")


def test_lex_regular_k2_k2():
    prod, coloring = gf.lex_regular_interval(named("K", 2), gf.EdgeColoring((1,)), named("K", 2))
    assert prod.graph.edges == named("K", 4).edges
    assert coloring.t == 3
    assert gf.verify_interval(prod.graph, coloring, 3).valid


def test_lex_regular_p3_c4():
    prod, coloring = gf.lex_regular_interval(named("P", 3), gf.EdgeColoring((1, 2)), named("C", 4))
    assert coloring.t == 2 * 4 + 2
    assert gf.verify_interval(prod.graph, coloring, 10).valid


def test_cartesian_k2_k2():
    prod, coloring = gf.cartesian_interval(
        named("K", 2), gf.EdgeColoring((1,)), named("K", 2), gf.EdgeColoring((1,))
    )
    assert coloring.t == 2
    assert gf.verify_interval(prod.graph, coloring, 2).valid


def test_cartesian_cylinder_c24():
    # P2 box C4 with least-count factor colorings: 3 colors, the max degree
    c4_alpha = gf.bipartite_regular_coloring(named("C", 4))
    prod, coloring = gf.cartesian_interval(
        named("P", 2), gf.EdgeColoring((1,)), named("C", 4), c4_alpha
    )
    assert coloring.t <= 3
    assert gf.verify_interval(prod.graph, coloring, coloring.t).valid
    assert oracle_cached(prod.graph).w == 3  # matches the max degree


def test_cartesian_grid44():
    p4 = named("P", 4)
    alpha = gf.EdgeColoring((1, 2, 1))
    prod, coloring = gf.cartesian_interval(p4, alpha, p4, alpha)
    assert coloring.t <= 4
    assert gf.verify_interval(prod.graph, coloring, coloring.t).valid


def test_cartesian_fiber_restriction_is_shift():
    g, h = named("P", 4), named("C", 4)
    alpha_g = gf.EdgeColoring((1, 2, 3))
    alpha_h = gf.bipartite_regular_coloring(h)
    prod, coloring = gf.cartesian_interval(g, alpha_g, h, alpha_h)
    for p in range(h.n):
        offsets = set()
        for k, (u, v) in enumerate(prod.graph.edges):
            (i, pu), (j, qv) = prod.coords[u], prod.coords[v]
            if pu == qv == p and i != j:
                offsets.add(coloring.colors[k] - alpha_g.colors[g.edges.index((i, j))])
        assert len(offsets) == 1  # one constant shift per fiber


def test_membership_parity_examples():
    assert gf.torus_hamming_membership([3, 3], "torus") is False
    assert gf.torus_hamming_membership([2, 4], "torus") is True
    assert gf.torus_hamming_membership([3, 3, 3], "hamming") is False
    assert gf.torus_hamming_membership([2, 2], "hamming") is True
    assert gf.torus_hamming_membership([2], "hamming") is True


def test_membership_bad_dims():
    with pytest.raises(BadParameter, match=r"^a torus has exactly 2 dimensions, got 1$"):
        gf.torus_hamming_membership([3], "torus")
    with pytest.raises(BadParameter, match=r"^torus dimensions must be >= 2, got \(1, 4\)$"):
        gf.torus_hamming_membership([1, 4], "torus")
    with pytest.raises(BadParameter, match=r"^a Hamming graph needs at least one dimension$"):
        gf.torus_hamming_membership([], "hamming")
    with pytest.raises(BadParameter, match=r"^Hamming dimensions must be >= 2, got \(1, 2\)$"):
        gf.torus_hamming_membership([1, 2], "hamming")
    with pytest.raises(BadParameter):
        gf.torus_hamming_membership([2, 2], "grid")


def test_membership_parity_agrees_with_exact_search():
    cases = [
        ("torus", (3, 3)),
        ("torus", (2, 3)),
        ("torus", (2, 4)),
        ("hamming", (2, 2)),
        ("hamming", (3, 3)),
    ]
    for family, dims in cases:
        parity = gf.torus_hamming_membership(dims, family)
        g = gf.generate(family, *dims)
        assert parity == gf.regular_membership(g), (family, dims)


def test_torus_edge_count_identity():
    for dims in [(3, 3), (3, 4), (4, 4)]:
        g = gf.generate("torus", *dims)
        assert g.m == 2 * dims[0] * dims[1]


def test_constructors_on_random_colorable_factors():
    # widen the alpha diversity beyond the fixed matrix: random small left
    # factors with a witness at every feasible count
    rng = random.Random(SEED + 4)
    rights = [named("K", 2), named("C", 4), named("K", 4)]
    built = 0
    while built < 15:
        n = rng.randint(2, 5)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.6
        ]
        if not edges:
            continue
        g = gf.build_graph(n, edges)
        result = gf.oracle(g)
        if not result.member:
            continue
        for t, alpha in result.witnesses.items():
            h = rights[built % len(rights)]
            r = h.regularity
            for build, expected in [
                (lambda: gf.tensor_interval(g, alpha, h), t * r),
                (lambda: gf.strong_tensor_interval(g, alpha, h), t * (r + 1)),
                (lambda: gf.strong_interval(g, alpha, h), t * (r + 1) + r),
                (lambda: gf.lex_regular_interval(g, alpha, h), t * h.n + r),
                (lambda: gf.lex_empty_interval(g, alpha, 3, "w"), t * 3),
                (lambda: gf.lex_empty_interval(g, alpha, 3, "W"), t * 3 + 2),
            ]:
                prod, coloring = build()
                assert coloring.t == expected
                assert gf.verify_interval(prod.graph, coloring, expected).valid
        built += 1


def test_budgeted_bracket_on_p4_c5_tensor():
    # 30-edge product: the bracket may or may not complete within the budget,
    # but either way it must stay consistent with both constructions
    p4, c5 = named("P", 4), named("C", 5)
    _, least = gf.tensor_interval(p4, gf.EdgeColoring((1, 2, 1)), c5)
    prod, widest = gf.tensor_interval(p4, gf.EdgeColoring((1, 2, 3)), c5)
    assert (least.t, widest.t) == (4, 6)
    bracket = gf.oracle(prod.graph, budget=200_000)
    for coloring in (least, widest):
        report = gf.cross_validate(coloring, bracket)
        assert report.consistent
        if bracket.status != "complete":
            assert any("partial" in note for note in report.notes)


def test_isolated_vertices_in_factors():
    # interval-colorable graphs may carry isolated vertices; the offset
    # formulas must degrade to no shift there
    g = gf.build_graph(3, [(0, 1)])
    alpha = gf.EdgeColoring((1,))
    k2 = named("K", 2)
    builders = [
        lambda: gf.tensor_interval(g, alpha, k2),
        lambda: gf.strong_tensor_interval(g, alpha, k2),
        lambda: gf.strong_interval(g, alpha, k2),
        lambda: gf.lex_regular_interval(g, alpha, k2),
        lambda: gf.lex_empty_interval(g, alpha, 2, "w"),
        lambda: gf.lex_empty_interval(g, alpha, 2, "W"),
    ]
    for build in builders:
        prod, coloring = build()
        assert gf.verify_interval(prod.graph, coloring, coloring.t).valid
    h = gf.build_graph(3, [(1, 2)])
    prod, coloring = gf.cartesian_interval(g, alpha, h, gf.EdgeColoring((1,)))
    assert gf.verify_interval(prod.graph, coloring, coloring.t).valid


def test_construction_pins():
    # edges and colours of every theorem variant, recorded before the
    # constructors became colour rules over one shared loop
    lefts = [
        (named("k13e"), gf.EdgeColoring(K13E_ALPHA_3)),
        (named("P", 4), gf.EdgeColoring(P4_ALPHA_W)),
    ]
    rights = [named("C", 4), named("K", 4)]

    def least(h):
        result = oracle_cached(h)
        return result.witnesses[result.w]

    builds = {
        "t2": lambda g, a, h: gf.cartesian_interval(g, a, h, least(h)),
        "t12": gf.tensor_interval,
        "t13": gf.strong_tensor_interval,
        "t14": gf.strong_interval,
        "t16w": lambda g, a, h: gf.lex_empty_interval(g, a, h.n - 1, "w"),
        "t16W": lambda g, a, h: gf.lex_empty_interval(g, a, h.n - 1, "W"),
        "t17": gf.lex_regular_interval,
    }
    pins = {
        "t2": "ecf27221813ee027",
        "t12": "fd38b7e4fb95cf2a",
        "t13": "b320bfac911c0c64",
        "t14": "47d2fe823e646ac2",
        "t16w": "93b5b016dddd32b5",
        "t16W": "6092d275731d481a",
        "t17": "ff09ac43689d5e0a",
    }
    got = {}
    for theorem, build in builds.items():
        digest = hashlib.sha256()
        for g, alpha in lefts:
            for h in rights:
                prod, coloring = build(g, alpha, h)
                digest.update(repr((prod.graph.n, prod.graph.edges, coloring.colors)).encode())
        got[theorem] = digest.hexdigest()[:16]
    assert got == pins


def test_wrong_rule_color_is_refused(monkeypatch, tmp_path, capsys):
    # a rule that colours every cross edge 1 must not ship its coloring
    from gapfree import constructions
    from gapfree.cli import run
    from gapfree.errors import ConstructionFailed

    monkeypatch.setattr(constructions, "_lex_cross_color", lambda *args: 1)
    with pytest.raises(ConstructionFailed, match="invalid coloring"):
        gf.lex_empty_interval(named("P", 3), gf.EdgeColoring((1, 2)), 2, "w")
    gf.write_edge_list(tmp_path / "p3.g", named("P", 3))
    out = tmp_path / "o.col"
    code = run(["construct", "--theorem", "t16w", "--left", str(tmp_path / "p3.g"),
                "--n", "2", "--out", str(out)])
    assert code == 3 and not out.exists()
    assert capsys.readouterr().err.startswith("error: lexicographic blow-up (w variant)")
