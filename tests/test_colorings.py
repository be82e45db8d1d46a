import hashlib
import itertools
import random
import tracemalloc

import pytest

import gapfree as gf
import gapfree.colorings
from gapfree.errors import BadParameter

from helpers import P4_ALPHA_3, SEED, named


def test_verify_c4_alternating():
    c4 = named("C", 4)
    coloring = gf.bipartite_regular_coloring(c4)
    report = gf.verify_interval(c4, coloring, 2)
    assert report.valid and report.t == 2


def test_c3_has_no_interval_coloring_at_all():
    # exhaust every proper 3-coloring of the triangle: each is a permutation
    # of {1,2,3} on the three mutually adjacent edges, and never interval
    c3 = named("C", 3)
    for perm in itertools.permutations((1, 2, 3)):
        report = gf.verify_interval(c3, gf.EdgeColoring(perm), 3)
        assert not report.valid
        assert report.gap_violations  # some vertex sees {1,3}
    # and with 2 colors properness alone is impossible
    assert gf.find_interval_coloring(c3, 2) is None


def test_declared_t_above_max_used():
    g = named("P", 3)
    report = gf.verify_interval(g, gf.EdgeColoring((1, 2)), 3)
    assert not report.valid
    assert report.unused_colors == (3,)


def test_out_of_range_colors_flagged():
    g = named("P", 3)
    report = gf.verify_interval(g, gf.EdgeColoring((1, 5)), 2)
    assert not report.valid
    assert 2 in report.unused_colors and 5 in report.unused_colors


def test_valid_implies_palette_is_exactly_1_to_t():
    for g in [named("C", 4), named("K", 4), named("P", 4)]:
        result = gf.oracle(g)
        for t, witness in result.witnesses.items():
            report = gf.verify_interval(g, witness, t)
            assert report.valid
            assert min(witness.palette) == 1 and max(witness.palette) == t


def test_properness_violations_all_reported():
    # star with all edges the same color: 3 same-colored pairs at the center
    star = gf.build_graph(4, [(0, 1), (0, 2), (0, 3)])
    report = gf.verify_interval(star, gf.EdgeColoring((1, 1, 1)), 1)
    assert len(report.properness_violations) == 3
    assert not report.valid


def _random_graph(rng, n, p=0.4):
    return gf.build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
    )


def test_shift_preserves_properness_and_gap_verdicts():
    rng = random.Random(SEED)
    for _ in range(50):
        g = _random_graph(rng, rng.randint(2, 8))
        if g.m == 0:
            continue
        t = rng.randint(1, 5)
        coloring = gf.EdgeColoring(tuple(rng.randint(1, t) for _ in range(g.m)))
        before = gf.verify_interval(g, coloring, t)
        shifted = gf.EdgeColoring(tuple(c + 3 for c in coloring.colors))
        after = gf.verify_interval(g, shifted, t + 3)
        assert [
            (pv.vertex, pv.first_edge, pv.second_edge, pv.color + 3)
            for pv in before.properness_violations
        ] == [
            (pv.vertex, pv.first_edge, pv.second_edge, pv.color)
            for pv in after.properness_violations
        ]
        assert [gv.vertex for gv in before.gap_violations] == [
            gv.vertex for gv in after.gap_violations
        ]


def _naive_verify(g, coloring, t):
    """Quadratic re-implementation of the three interval-coloring conditions."""
    proper_bad = set()
    for e1 in range(g.m):
        for e2 in range(e1 + 1, g.m):
            u1, v1 = g.edges[e1]
            u2, v2 = g.edges[e2]
            share = {u1, v1} & {u2, v2}
            if share and coloring.colors[e1] == coloring.colors[e2]:
                proper_bad.add((e1, e2))
    gap_bad = set()
    for v in range(g.n):
        cols = sorted(
            {coloring.colors[e] for e, (a, b) in enumerate(g.edges) if v in (a, b)}
        )
        if cols and cols[-1] - cols[0] + 1 != len(cols):
            gap_bad.add(v)
    usage_bad = set(range(1, t + 1)) - set(coloring.colors)
    usage_bad |= {c for c in coloring.colors if c > t}
    valid = not (proper_bad or gap_bad or usage_bad)
    return valid, proper_bad, gap_bad, usage_bad


def test_verifier_matches_naive_reimplementation():
    rng = random.Random(SEED + 1)
    checked = 0
    while checked < 200:
        g = _random_graph(rng, rng.randint(2, 10))
        if g.m == 0:
            continue
        t = rng.randint(1, 6)
        coloring = gf.EdgeColoring(tuple(rng.randint(1, max(t, 1)) for _ in range(g.m)))
        report = gf.verify_interval(g, coloring, t)
        valid, proper_bad, gap_bad, usage_bad = _naive_verify(g, coloring, t)
        assert report.valid == valid
        got_pairs = {
            (min(pv.first_edge, pv.second_edge), max(pv.first_edge, pv.second_edge))
            for pv in report.properness_violations
        }
        assert got_pairs == proper_bad
        assert {gv.vertex for gv in report.gap_violations} == gap_bad
        assert set(report.unused_colors) == usage_bad
        checked += 1


def test_regular_class1_coloring_is_interval():
    # any proper coloring of an r-regular graph with palette exactly 1..r is interval
    for g in [named("C", 4), named("C", 6), named("K", 4), named("Q", 3), named("kmn", 3, 3)]:
        r = g.regularity
        result = gf.exact_chromatic_index(g)
        assert result.class1
        report = gf.verify_interval(g, result.witness, r)
        assert report.valid


def test_coloring_file_roundtrip(tmp_path):
    g = named("k13e")
    coloring = gf.EdgeColoring((1, 3, 2, 2))
    path = tmp_path / "a.col"
    gf.write_coloring(path, g, coloring)
    t, loaded = gf.load_coloring(path, g)
    assert t == 3 and loaded == coloring
    path2 = tmp_path / "b.col"
    gf.write_coloring(path2, g, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_coloring_file_mismatch(tmp_path):
    g = named("k13e")
    path = tmp_path / "a.col"
    gf.write_coloring(path, g, gf.EdgeColoring((1, 3, 2, 2)))
    with pytest.raises(BadParameter):
        gf.load_coloring(path, named("P", 4))


def test_total_coloring_required():
    with pytest.raises(ValueError):
        gf.verify_interval(named("P", 4), gf.EdgeColoring((1,)), 1)
    with pytest.raises(ValueError):
        gf.EdgeColoring((0, 1))
    with pytest.raises(ValueError, match=">= 0"):  # a negative declared count
        gf.verify_interval(named("P", 2), gf.EdgeColoring((1,)), -1)


def test_to_dot_requires_a_total_coloring():
    # the CLI cannot get here (load_coloring checks the row count first)
    g = named("P", 4)
    assert gf.to_dot(g, gf.EdgeColoring((1, 2, 1))).count("[label=") == 3
    for colors in ((1, 2), (1, 2, 1, 2)):
        with pytest.raises(ValueError, match=f"{len(colors)} entries for a graph with 3 edges"):
            gf.to_dot(g, gf.EdgeColoring(colors))


def test_corrupted_product_report_pin():
    # the full report, in order, recorded before the verifier became one pass
    prod, coloring = gf.strong_interval(
        named("P", 4), gf.EdgeColoring(P4_ALPHA_3), named("C", 4)
    )
    t = coloring.t
    colors = list(coloring.colors)
    first, second = prod.graph.incident[5][:2]
    colors[second] = colors[first]
    colors[0] = 10**12
    colors[9] = t + 5
    colors[30] = 1
    report = gf.verify_interval(prod.graph, gf.EdgeColoring(tuple(colors)), t + 3)
    assert not report.valid
    assert report.unused_colors == (t + 1, t + 2, t + 3, t + 5, 10**12)
    assert (
        len(report.properness_violations),
        len(report.gap_violations),
        len(report.unused_colors),
    ) == (3, 6, 5)
    assert hashlib.sha256(repr(report).encode()).hexdigest()[:16] == "d248b38e57bbcfe6"


def test_verify_builds_no_incidence_table():
    # the verifier reads each vertex's colours in a pass of its own; the
    # product's cached incidence table would outlive the check
    prod, coloring = gf.strong_interval(named("P", 4), gf.EdgeColoring(P4_ALPHA_3), named("C", 4))
    g = prod.graph
    assert gf.verify_interval(g, coloring, coloring.t).valid
    colors = list(coloring.colors)
    colors[0] = colors[1]
    assert not gf.verify_interval(g, gf.EdgeColoring(tuple(colors)), coloring.t).valid
    assert "incident" not in g.__dict__


def test_load_coloring_reads_its_file_once(tmp_path, monkeypatch):
    # each colour goes into its edge's slot as its row is read; an id the
    # rows read so far do not pass is judged once the whole file is counted
    path = tmp_path / "c.col"
    g = named("P", 4)
    coloring = gf.EdgeColoring((1, 2, 1))
    gf.write_coloring(path, g, coloring)
    reads = []
    data_rows = gapfree.colorings.data_rows

    def counted(p):
        reads.append(p)
        return data_rows(p)

    monkeypatch.setattr(gapfree.colorings, "data_rows", counted)
    assert gf.load_coloring(path, g) == (2, coloring)
    assert reads == [path]
    path.write_text("t=1\n5 0 1 1\n0 0 1 x\n")
    with pytest.raises(BadParameter, match=r"c\.col: edge id 5 outside 0\.\.1$"):
        gf.load_coloring(path, g)
    assert reads == [path, path]


def test_verifier_matches_naive_at_large_colors():
    # the first pass follows colours below _MASK_BITS only; a vertex with a
    # greater colour takes the exact pass, with the same verdicts
    rng = random.Random(SEED + 2)
    bits = gapfree.colorings._MASK_BITS
    for base in (bits - 4, bits - 1, bits, 10**12):
        checked = 0
        while checked < 40:
            g = _random_graph(rng, rng.randint(2, 8))
            if g.m == 0:
                continue
            coloring = gf.EdgeColoring(tuple(base + rng.randint(0, 5) for _ in range(g.m)))
            report = gf.verify_interval(g, coloring, 3)
            valid, proper_bad, gap_bad, usage_bad = _naive_verify(g, coloring, 3)
            assert report.valid == valid
            pairs = {(pv.first_edge, pv.second_edge) for pv in report.properness_violations}
            assert pairs == proper_bad
            assert {gv.vertex for gv in report.gap_violations} == gap_bad
            assert set(report.unused_colors) == usage_bad
            checked += 1


def test_verify_first_pass_holds_one_int_per_vertex():
    # each vertex's colours as one small int, not a list: on a valid
    # colouring the verifier's peak stays well under a list per vertex
    prod, coloring = gf.strong_interval(
        named("P", 20), gf.EdgeColoring(tuple(1 + k % 2 for k in range(19))), named("C", 20)
    )
    g = prod.graph
    tracemalloc.start()
    try:
        report = gf.verify_interval(g, coloring, coloring.t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.valid
    assert peak < 64 * g.n
