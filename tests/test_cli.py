import hashlib
import json

import pytest

import gapfree as gf
from gapfree.cli import run


def lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


def test_gen_product_pipeline(tmp_path, capsys):
    p4 = tmp_path / "p4.g"
    c5 = tmp_path / "c5.g"
    out = tmp_path / "t.g"
    assert run(["gen", "--family", "P", "--n", "4", "--out", str(p4)]) == 0
    assert run(["gen", "--family", "C", "--n", "5", "--out", str(c5)]) == 0
    assert run([
        "product", "--kind", "tensor", "--left", str(p4), "--right", str(c5),
        "--out", str(out),
    ]) == 0
    assert out.read_text().splitlines()[0] == "20 30"
    assert (tmp_path / "t.g.prov").exists()
    capsys.readouterr()


def test_construct_t16w_and_verify(tmp_path, capsys):
    k13e = tmp_path / "k13e.g"
    a3 = tmp_path / "a3.col"
    out = tmp_path / "b.col"
    lex = tmp_path / "lex.g"
    assert run(["gen", "--family", "k13e", "--out", str(k13e)]) == 0
    assert run(["oracle", str(k13e), "--t", "3", "--out", str(a3)]) == 0
    capsys.readouterr()
    assert run([
        "construct", "--theorem", "t16w", "--left", str(k13e),
        "--left-coloring", str(a3), "--n", "2",
        "--out", str(out), "--product-out", str(lex),
    ]) == 0
    assert lines(capsys)[-1].startswith("t=6")
    assert run(["verify", str(lex), str(out)]) == 0
    summary = json.loads(lines(capsys)[-1])
    assert summary == {"schema": "gapfree.verify/1", "valid": True, "t": 6}


def test_construct_default_colorings(tmp_path, capsys):
    left = tmp_path / "p3.g"
    right = tmp_path / "c4.g"
    out = tmp_path / "cart.col"
    graph_out = tmp_path / "cart.g"
    run(["gen", "--family", "P", "--n", "3", "--out", str(left)])
    run(["gen", "--family", "C", "--n", "4", "--out", str(right)])
    assert run([
        "construct", "--theorem", "t2", "--left", str(left), "--right", str(right),
        "--out", str(out), "--product-out", str(graph_out),
    ]) == 0
    capsys.readouterr()
    assert run(["verify", str(graph_out), str(out)]) == 0
    capsys.readouterr()


def test_construct_every_theorem(tmp_path, capsys):
    left = tmp_path / "p3.g"
    right = tmp_path / "c4.g"
    run(["gen", "--family", "P", "--n", "3", "--out", str(left)])
    run(["gen", "--family", "C", "--n", "4", "--out", str(right)])
    for theorem in ["t2", "t12", "t13", "t14", "t16w", "t16W", "t17"]:
        col = tmp_path / f"{theorem}.col"
        graph = tmp_path / f"{theorem}.g"
        argv = ["construct", "--theorem", theorem, "--left", str(left),
                "--out", str(col), "--product-out", str(graph)]
        if theorem.startswith("t16"):
            argv += ["--n", "2"]
        else:
            argv += ["--right", str(right)]
        assert run(argv) == 0, theorem
        assert (tmp_path / f"{theorem}.g.prov").exists()
        assert run(["verify", str(graph), str(col)]) == 0, theorem
    capsys.readouterr()


def test_verify_reports_violations(tmp_path, capsys):
    g = tmp_path / "p3.g"
    col = tmp_path / "bad.col"
    run(["gen", "--family", "P", "--n", "3", "--out", str(g)])
    col.write_text("t=2\n0 0 1 1\n1 1 2 1\n")
    capsys.readouterr()
    assert run(["verify", str(g), str(col)]) == 1
    out = lines(capsys)
    rows = [json.loads(line) for line in out]
    kinds = [row["kind"] for row in rows if "kind" in row]
    assert "properness" in kinds and "palette" in kinds
    assert rows[-1]["valid"] is False


def test_membership_exit_codes(capsys):
    assert run(["membership", "--family", "torus", "--dims", "3,3"]) == 1
    assert "not interval colorable" in lines(capsys)[-1]
    assert run(["membership", "--family", "torus", "--dims", "2,4"]) == 0
    assert run(["membership", "--family", "hamming", "--dims", "2,2,3", "--json"]) == 0
    row = json.loads(lines(capsys)[-1])
    assert row["member"] is True and row["dims"] == [2, 2, 3]


def test_oracle_json(tmp_path, capsys):
    g = tmp_path / "k4.g"
    run(["gen", "--family", "K", "--n", "4", "--out", str(g)])
    assert run(["oracle", str(g), "--json"]) == 0
    row = json.loads(lines(capsys)[-1])
    assert row["schema"] == "gapfree.oracle/1"
    assert (row["member"], row["w"], row["W"], row["status"]) == (True, 3, 4, "complete")


def test_oracle_probe_exit_codes(tmp_path, capsys):
    c3 = tmp_path / "c3.g"
    run(["gen", "--family", "C", "--n", "3", "--out", str(c3)])
    assert run(["oracle", str(c3), "--t", "2"]) == 1
    assert run(["oracle", str(c3)]) == 1
    capsys.readouterr()


def test_oracle_budget_exit(tmp_path, capsys):
    g = tmp_path / "grid.g"
    run(["gen", "--family", "grid", "--dims", "3,3", "--out", str(g)])
    assert run(["oracle", str(g), "--budget", "10"]) == 2
    capsys.readouterr()


def test_env_budget(tmp_path, capsys, monkeypatch):
    g = tmp_path / "grid.g"
    run(["gen", "--family", "grid", "--dims", "3,3", "--out", str(g)])
    monkeypatch.setenv("INTERVAL_BUDGET", "10")
    assert run(["oracle", str(g)]) == 2
    monkeypatch.delenv("INTERVAL_BUDGET")
    assert run(["oracle", str(g)]) == 0
    capsys.readouterr()


def test_bounds_cli(capsys):
    assert run(["bounds", "--theorem", "t7", "--params", "n=2", "--json"]) == 0
    row = json.loads(lines(capsys)[-1])
    assert row["W_lower"] == 4 and row["source"] == "t7"
    assert run(["bounds", "--theorem", "t3", "--family", "cylinder", "--dims", "2,4"]) == 0
    assert "w_upper=3" in lines(capsys)[-1]
    assert run(["bounds", "--theorem", "t12", "--params", "w_g=2,W_g=3,r=2"]) == 0
    assert "w_upper=4 W_lower=6" in lines(capsys)[-1]


def test_export_dot(tmp_path, capsys):
    g = tmp_path / "c4.g"
    col = tmp_path / "c4.col"
    dot = tmp_path / "c4.dot"
    run(["gen", "--family", "C", "--n", "4", "--out", str(g)])
    run(["bipartite-color", str(g), "--out", str(col)])
    assert run(["export-dot", str(g), str(col), "--out", str(dot)]) == 0
    text = dot.read_text()
    assert text.startswith("graph {")
    assert "[label=1" in text and "[label=2" in text
    assert 'color="red"' in text and 'color="blue"' in text
    capsys.readouterr()
    assert run(["export-dot", str(g)]) == 0
    assert "--" in capsys.readouterr().out


def test_chi_prime_cli(tmp_path, capsys):
    pet = tmp_path / "petersen.g"
    c4 = tmp_path / "c4.g"
    run(["gen", "--family", "petersen", "--out", str(pet)])
    run(["gen", "--family", "C", "--n", "4", "--out", str(c4)])
    assert run(["chi-prime", str(pet), "--json"]) == 1
    row = json.loads(lines(capsys)[-1])
    assert row["chi_prime"] == 4 and row["class1"] is False
    assert run(["chi-prime", str(c4)]) == 0
    capsys.readouterr()


def test_bipartite_color_cli(tmp_path, capsys):
    g = tmp_path / "k33.g"
    col = tmp_path / "k33.col"
    run(["gen", "--family", "kmn", "--m", "3", "--n", "3", "--out", str(g)])
    assert run(["bipartite-color", str(g), "--out", str(col)]) == 0
    graph = gf.read_edge_list(g)
    t, coloring = gf.load_coloring(col, graph)
    assert t == 3 and gf.verify_interval(graph, coloring, 3).valid
    capsys.readouterr()


def test_usage_errors(tmp_path, capsys):
    assert run(["nope"]) == 3
    assert run(["gen", "--out", "x.g"]) == 3
    assert run(["gen", "--family", "C", "--n", "2", "--out", str(tmp_path / "c2.g")]) == 3
    k2 = tmp_path / "k2.g"
    run(["gen", "--family", "K", "--n", "2", "--out", str(k2)])
    assert run(["construct", "--theorem", "t16w", "--left", str(k2), "--out", str(tmp_path / "o.col")]) == 3
    assert run(["construct", "--theorem", "t12", "--left", str(k2), "--out", str(tmp_path / "o.col")]) == 3
    c5 = tmp_path / "c5.g"
    run(["gen", "--family", "C", "--n", "5", "--out", str(c5)])
    # C5 admits no interval coloring, so it cannot serve as a colored factor
    assert run(["construct", "--theorem", "t12", "--left", str(c5), "--right", str(k2), "--out", str(tmp_path / "o.col")]) == 3
    assert run(["verify", str(k2), str(tmp_path / "missing.col")]) == 3
    capsys.readouterr()


def test_malformed_files_exit_3(tmp_path, capsys):
    bad_graph = tmp_path / "bad.g"
    bad_graph.write_text("x y\n")
    assert run(["oracle", str(bad_graph)]) == 3
    bad_graph.write_text("2 1\n0 z\n")
    assert run(["oracle", str(bad_graph)]) == 3
    good = tmp_path / "k2.g"
    run(["gen", "--family", "K", "--n", "2", "--out", str(good)])
    bad_col = tmp_path / "bad.col"
    bad_col.write_text("t=1\n0 0 1 0\n")  # color 0 out of range
    assert run(["verify", str(good), str(bad_col)]) == 3
    bad_col.write_text("t=q\n0 0 1 1\n")
    assert run(["verify", str(good), str(bad_col)]) == 3
    bad_col.write_text("nonsense\n")
    assert run(["verify", str(good), str(bad_col)]) == 3
    bad_col.write_text("t=-1\n0 0 1 1\n")
    assert run(["verify", str(good), str(bad_col)]) == 3
    capsys.readouterr()


# every malformed-input message, recorded before the readers were rewritten:
# (reader, file text, exception type, message with {path} for the file)
MALFORMED = [
    ("edges", "", gf.BadParameter, "{path}: empty edge-list file"),
    ("edges", "x y\n", gf.BadParameter, "{path}: malformed header 'x y'"),
    ("edges", "2 1\n0 1 2\n", gf.BadParameter, "{path}: malformed edge line '0 1 2'"),
    ("edges", "2 1\n0\n", gf.BadParameter, "{path}: malformed edge line '0'"),
    ("edges", "2 1\n0 z\n", gf.BadParameter, "{path}: malformed edge line '0 z'"),
    ("edges", "3 5\n0 1\n", gf.BadParameter, "{path}: header declares 5 edges, found 1"),
    # the count is checked before any edge line, every line before the graph
    ("edges", "3 2\n0 z\n", gf.BadParameter, "{path}: header declares 2 edges, found 1"),
    ("edges", "3 2\n1 1\n0 z\n", gf.BadParameter, "{path}: malformed edge line '0 z'"),
    ("edges", "-1 0\n", gf.BadParameter, "vertex count must be >= 0, got -1"),
    ("edges", "3 3\n0 5\n1 1\n0 1\n", gf.VertexOutOfRange, "edge (0,5) outside 0..2"),
    ("edges", "3 2\n-1 0\n0 1\n", gf.VertexOutOfRange, "edge (-1,0) outside 0..2"),
    ("edges", "3 3\n0 1\n1 1\n0 5\n", gf.LoopEdge, "loop at vertex 1"),
    ("edges", "3 3\n1 0\n0 1\n2 2\n", gf.DuplicateEdge, "edge (0, 1) listed twice"),
    ("coloring", "nonsense\n", gf.BadParameter, "{path}: missing t=<K> header"),
    ("coloring", "t=q\n0 0 1 1\n", gf.BadParameter, "{path}: malformed header 't=q'"),
    ("coloring", "t=-1\n0 0 1 1\n", gf.BadParameter,
     "{path}: declared color count must be >= 0, got -1"),
    ("coloring", "t=1\n0 0 1\n", gf.BadParameter, "{path}: malformed coloring line '0 0 1'"),
    ("coloring", "t=1\n0 0 1 x\n", gf.BadParameter, "{path}: malformed coloring line '0 0 1 x'"),
    ("coloring", "t=1\n5 0 1 1\n", gf.BadParameter, "{path}: edge id 5 outside 0..0"),
    ("coloring", "t=1\n0 0 1 1\n0 1 2 1\n", gf.BadParameter, "{path}: duplicate edge id 0"),
    ("coloring", "t=1\n0 0 1 0\n", gf.BadParameter, "{path}: edge 0 has non-positive color 0"),
    # two faults: the earlier row wins, and within a row id range, then
    # duplicate, then colour
    ("coloring", "t=1\n0 0 1 0\n1 0 1 x\n", gf.BadParameter,
     "{path}: edge 0 has non-positive color 0"),
    ("coloring", "t=1\n1 0 1 x\n0 0 1 0\n", gf.BadParameter,
     "{path}: malformed coloring line '1 0 1 x'"),
    ("coloring", "t=1\n7 0 1 0\n", gf.BadParameter, "{path}: edge id 7 outside 0..0"),
    ("coloring", "t=1\n0 0 1 1\n0 1 2 -3\n", gf.BadParameter, "{path}: duplicate edge id 0"),
    ("load", "t=1\n0 0 1 1\n", gf.BadParameter, "{path}: 1 colored edges for a graph with 2"),
    ("load", "t=2\n0 0 1 1\n1 0 2 2\n", gf.BadParameter,
     "{path}: edge id 1 is (0,2) but the graph has (1, 2)"),
    ("load", "t=2\n1 2 1 2\n0 1 2 1\n", gf.BadParameter,
     "{path}: edge id 0 is (1,2) but the graph has (0, 1)"),
    ("prov", "0 cross 0 0 1\n", gf.BadParameter, "{path}: malformed provenance line '0 cross 0 0 1'"),
    ("prov", "0 cross x 0 1 1\n", gf.BadParameter,
     "{path}: malformed provenance line '0 cross x 0 1 1'"),
    ("prov", "0 diagonal 0 0 1 1\n", gf.BadParameter,
     "{path}: malformed provenance line '0 diagonal 0 0 1 1'"),
]

READERS = {
    "edges": gf.read_edge_list,
    "coloring": gf.read_coloring,
    "load": lambda path: gf.load_coloring(path, gf.build_graph(3, [(0, 1), (1, 2)])),
    "prov": gf.read_provenance,
}


@pytest.mark.parametrize("reader, text, exc, message", MALFORMED)
def test_malformed_input_messages(tmp_path, reader, text, exc, message):
    path = tmp_path / "input.txt"
    path.write_text(text)
    with pytest.raises(exc) as info:
        READERS[reader](path)
    assert type(info.value) is exc
    assert str(info.value) == message.format(path=path)


def test_declared_t_above_edge_count_exits_3(tmp_path, capsys):
    # m edges carry at most m colours; the header is rejected before the
    # verifier would list every colour of 1..t as unused
    good = tmp_path / "k2.g"
    run(["gen", "--family", "K", "--n", "2", "--out", str(good)])
    capsys.readouterr()
    col = tmp_path / "huge.col"
    for t in (2, 10**12):
        col.write_text(f"t={t}\n0 0 1 1\n")
        assert run(["verify", str(good), str(col)]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert f"declared color count must be <= the edge count 1, got {t}" in err
    col.write_text("t=1\n0 1 0 1\n")  # endpoints in either order
    assert run(["verify", str(good), str(col)]) == 0
    capsys.readouterr()


def test_byte_identical_reruns(tmp_path, capsys):
    def pipeline(tag):
        base = tmp_path / tag
        base.mkdir()
        p4 = base / "p4.g"
        c4 = base / "c4.g"
        col = base / "out.col"
        graph = base / "out.g"
        outputs = []
        for argv in [
            ["gen", "--family", "P", "--n", "4", "--out", str(p4)],
            ["gen", "--family", "C", "--n", "4", "--out", str(c4)],
            ["construct", "--theorem", "t14", "--left", str(p4), "--right", str(c4),
             "--out", str(col), "--product-out", str(graph)],
            ["verify", str(graph), str(col)],
            ["oracle", str(p4), "--json"],
        ]:
            assert run(argv) in (0, 1)
            outputs.append(capsys.readouterr().out)
        return outputs, p4.read_bytes(), col.read_bytes(), graph.read_bytes()

    first = pipeline("a")
    second = pipeline("b")
    assert first == second


def test_t12_with_a_long_cycle(tmp_path, capsys):
    # the matching peel on the 6002-vertex double cover needs no recursion
    left = tmp_path / "p2.g"
    right = tmp_path / "c3001.g"
    out = tmp_path / "t12.col"
    graph = tmp_path / "t12.g"
    run(["gen", "--family", "P", "--n", "2", "--out", str(left)])
    run(["gen", "--family", "C", "--n", "3001", "--out", str(right)])
    assert run([
        "construct", "--theorem", "t12", "--left", str(left), "--right", str(right),
        "--out", str(out), "--product-out", str(graph),
    ]) == 0
    assert lines(capsys)[-1] == "t=2 vertices=6002 edges=6002"
    assert run(["verify", str(graph), str(out)]) == 0
    capsys.readouterr()


def test_bad_budgets_exit_3(tmp_path, capsys, monkeypatch):
    g = tmp_path / "k2.g"
    run(["gen", "--family", "K", "--n", "2", "--out", str(g)])
    assert run(["oracle", str(g), "--budget", "-5"]) == 3
    assert run(["chi-prime", str(g), "--budget=-1"]) == 3
    for value in ("abc", "-1"):
        monkeypatch.setenv("INTERVAL_BUDGET", value)
        assert run(["oracle", str(g)]) == 3
        assert "INTERVAL_BUDGET" in capsys.readouterr().err
    monkeypatch.setenv("INTERVAL_BUDGET", "0")
    assert run(["oracle", str(g)]) == 2  # zero is a budget, not an error
    capsys.readouterr()


def test_non_ascii_files_exit_3(tmp_path, capsys):
    good = tmp_path / "k2.g"
    run(["gen", "--family", "K", "--n", "2", "--out", str(good)])
    bad_graph = tmp_path / "bad.g"
    bad_graph.write_bytes(b"2 1\n0 1 \xe9\n")
    assert run(["oracle", str(bad_graph)]) == 3
    bad_col = tmp_path / "bad.col"
    bad_col.write_bytes(b"t=1\n0 0 1 1 \xff\n")
    assert run(["verify", str(good), str(bad_col)]) == 3
    assert "non-ASCII" in capsys.readouterr().err
    bad_prov = tmp_path / "bad.prov"
    bad_prov.write_bytes(b"0 cross 0 0 1 1\n# caf\xc3\xa9\n")
    with pytest.raises(gf.BadParameter, match="non-ASCII"):
        gf.read_provenance(bad_prov)
    for row in (b"0 cross x 0 1 1\n", b"0 diagonal 0 0 1 1\n"):
        bad_prov.write_bytes(row)
        with pytest.raises(gf.BadParameter):
            gf.read_provenance(bad_prov)


def test_construct_output_pin(tmp_path, capsys):
    # t14 output files, recorded before the constructors shared one loop
    left = tmp_path / "p4.g"
    right = tmp_path / "c4.g"
    col = tmp_path / "s.col"
    graph = tmp_path / "s.g"
    run(["gen", "--family", "P", "--n", "4", "--out", str(left)])
    run(["gen", "--family", "C", "--n", "4", "--out", str(right)])
    assert run([
        "construct", "--theorem", "t14", "--left", str(left), "--right", str(right),
        "--out", str(col), "--product-out", str(graph),
    ]) == 0
    assert lines(capsys)[-1] == "t=8 vertices=16 edges=52"
    digests = [
        hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        for path in (col, graph, tmp_path / "s.g.prov")
    ]
    assert digests == ["c813b1c88b3ef9da", "b470d95076ab0b85", "66dd24a335a7f3b4"]


@pytest.mark.parametrize("theorem, summary, want", [
    # t13 emits G_layer and cross edges, t14 all three origin tags
    ("t13", "t=6 vertices=144 edges=396",
     ["b938cf2205dd073b", "6e80176ead4608e8", "f70bdc8800b18896"]),
    ("t14", "t=8 vertices=144 edges=540",
     ["ad1d27125730102e", "f684245ea7a4f158", "cb6948f1065700cc"]),
])
def test_construct_output_pin_multi_digit(tmp_path, capsys, theorem, summary, want):
    # output files with multi-digit ids, recorded before the writers streamed
    left = tmp_path / "p12.g"
    right = tmp_path / "c12.g"
    col = tmp_path / "s.col"
    graph = tmp_path / "s.g"
    run(["gen", "--family", "P", "--n", "12", "--out", str(left)])
    run(["gen", "--family", "C", "--n", "12", "--out", str(right)])
    assert run([
        "construct", "--theorem", theorem, "--left", str(left), "--right", str(right),
        "--out", str(col), "--product-out", str(graph),
    ]) == 0
    assert lines(capsys)[-1] == summary
    digests = [
        hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        for path in (col, graph, tmp_path / "s.g.prov")
    ]
    assert digests == want
