"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import random
import time

import gapfree as gf

from helpers import (
    K4_ALPHA_4,
    K13E_ALPHA_3,
    P4_ALPHA_3,
    SEED,
    collect_matrix,
    naive_oracle,
    named,
    oracle_cached,
)


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def test_criterion_1_reference_color_counts():
    """Five constructions hit their exact reference color counts, each < 1s."""
    p4 = named("P", 4)
    alpha3 = gf.EdgeColoring(P4_ALPHA_3)
    assert gf.verify_interval(p4, alpha3, 3).valid
    k13e = named("k13e")
    alpha_k = gf.EdgeColoring(K13E_ALPHA_3)
    assert gf.verify_interval(k13e, alpha_k, 3).valid
    k4 = named("K", 4)
    alpha4 = gf.EdgeColoring(K4_ALPHA_4)
    assert gf.verify_interval(k4, alpha4, 4).valid

    cases = [
        ("t12 P4xC5", lambda: gf.tensor_interval(p4, alpha3, named("C", 5)), 6),
        ("t13 P4(x)C5", lambda: gf.strong_tensor_interval(p4, alpha3, named("C", 5)), 9),
        ("t14 P4 strong C4", lambda: gf.strong_interval(p4, alpha3, named("C", 4)), 11),
        ("t16w K13e[2K1]", lambda: gf.lex_empty_interval(k13e, alpha_k, 2, "w"), 6),
        ("t17 K4[K2]", lambda: gf.lex_regular_interval(k4, alpha4, named("K", 2)), 9),
    ]
    for label, build, expected in cases:
        (prod, coloring), elapsed = _timed(build)
        assert coloring.t == expected, label
        assert gf.verify_interval(prod.graph, coloring, expected).valid, label
        assert elapsed < 1.0, (label, elapsed)
        print(f"PASS criterion 1: {label} t={expected} ({elapsed:.3f}s)")


def test_criterion_2_negative_knowledge():
    """Exhaustive proofs of non-membership, each < 10s."""
    for label, g in [("C3", named("C", 3)), ("C5", named("C", 5)), ("K113", named("k113"))]:
        result, elapsed = _timed(lambda g=g: gf.oracle(g))
        assert result.status == "complete" and result.member is False, label
        assert elapsed < 10.0, (label, elapsed)
        print(f"PASS criterion 2: oracle proves {label} not colorable ({elapsed:.3f}s)")
    result, elapsed = _timed(lambda: gf.exact_chromatic_index(named("petersen")))
    assert result.chi_prime == 4 and not result.class1
    assert gf.regular_membership(named("petersen")) is False
    assert elapsed < 10.0
    print(f"PASS criterion 2: Petersen is class 2, hence not colorable ({elapsed:.3f}s)")


def test_criterion_3_torus_cross_check():
    """Parity decision vs exhaustive chromatic index and vs construction, < 60s."""
    start = time.perf_counter()
    assert gf.torus_hamming_membership([3, 3], "torus") is False
    assert gf.regular_membership(named("torus", 3, 3)) is False

    assert gf.torus_hamming_membership([2, 4], "torus") is True
    alpha_c4 = gf.bipartite_regular_coloring(named("C", 4))
    prod, coloring = gf.cartesian_interval(
        named("K", 2), gf.EdgeColoring((1,)), named("C", 4), alpha_c4
    )
    assert gf.verify_interval(prod.graph, coloring, coloring.t).valid
    assert prod.graph.edges == named("torus", 2, 4).edges
    assert oracle_cached(named("torus", 2, 4)).member is True
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"PASS criterion 3: T(3,3) class 2, T(2,4) constructed ({elapsed:.3f}s)")


def test_criterion_4_bound_arithmetic():
    """Exact integer equality of the evaluated formulas."""
    checks = [
        ("W(K4) >= 4", gf.bound_report("t7", n=2).W_lower, 4),
        ("W(Q3) >= 6", gf.bound_report("t6", n=3).W_lower, 6),
        ("W(T(4,4)) >= 8", gf.bound_report("t5", m=2, n=2).W_lower, 8),
        ("W(C(1,4)) >= 3", gf.bound_report("t4", m=1, n=2).W_lower, 3),
    ]
    for label, got, expected in checks:
        assert got == expected, label
        print(f"PASS criterion 4: {label} (evaluated {got})")


def test_criterion_5_property_suite():
    """Every matrix construction verifies with exactly the formula count, < 120s."""
    start = time.perf_counter()
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
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"PASS criterion 5: {len(entries)} matrix constructions verified ({elapsed:.3f}s)")


def test_criterion_6_oracle_vs_naive():
    """Exact (member, w, W) agreement with the naive generate-and-filter."""
    start = time.perf_counter()
    graphs = {
        "P2": named("P", 2),
        "P3": named("P", 3),
        "P4": named("P", 4),
        "K13e": named("k13e"),
        "C4": named("C", 4),
        "K4": named("K", 4),
        "K2": named("K", 2),
        "C6": named("C", 6),
        "2K1": named("nk1", 2),
        "3K1": named("nk1", 3),
        "4K1": named("nk1", 4),
        "C3": named("C", 3),
        "C5": named("C", 5),
        "K113": named("k113"),
    }
    for label, g in graphs.items():
        assert g.m <= 12
        result = gf.oracle(g)
        assert result.status == "complete"
        naive = naive_oracle(g)
        assert (result.member, result.w, result.W) == naive, label
    elapsed = time.perf_counter() - start
    print(f"PASS criterion 6: oracle == naive on {len(graphs)} graphs ({elapsed:.3f}s)")


def _random_member(rng):
    while True:
        n = rng.randint(2, 5)
        edges = [
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.6
        ]
        if not edges:
            continue
        g = gf.build_graph(n, edges)
        result = gf.oracle(g)
        if result.member:
            return g, result


def test_criterion_7_cartesian_composition():
    """20 random factor pairs: compose, verify, and bracket-check the counts."""
    rng = random.Random(SEED)
    print(f"criterion 7 seed: {SEED}")
    start = time.perf_counter()
    oracle_checked = 0
    for index in range(20):
        g, res_g = _random_member(rng)
        h, res_h = _random_member(rng)

        prod, least = gf.cartesian_interval(
            g, res_g.witnesses[res_g.w], h, res_h.witnesses[res_h.w]
        )
        assert gf.verify_interval(prod.graph, least, least.t).valid
        assert least.t <= res_g.w + res_h.w

        _, widest = gf.cartesian_interval(
            g, res_g.witnesses[res_g.W], h, res_h.witnesses[res_h.W]
        )
        assert gf.verify_interval(prod.graph, widest, widest.t).valid
        assert widest.t <= res_g.W + res_h.W

        if prod.graph.m <= 12:
            bracket = gf.oracle(prod.graph, budget=3_000_000)
            if bracket.status == "complete":
                oracle_checked += 1
                assert bracket.member is True
                assert bracket.w <= res_g.w + res_h.w
                assert bracket.W >= res_g.W + res_h.W
                assert gf.cross_validate(least, bracket).consistent
    elapsed = time.perf_counter() - start
    assert oracle_checked >= 3
    print(
        f"PASS criterion 7: 20 compositions verified,"
        f" {oracle_checked} oracle-bracketed ({elapsed:.3f}s)"
    )
