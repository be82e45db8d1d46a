import gc
import hashlib
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

import gapfree as gf
from gapfree.cli import main, run


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


def test_only_the_cli_process_turns_off_the_cyclic_gc(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(gc, "disable", lambda: calls.append("disable"))
    argv = ["bounds", "--theorem", "t7", "--params", "n=2"]
    assert run(argv) == 0 and calls == []
    monkeypatch.setattr(sys, "argv", ["gapfree", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == 0 and calls == ["disable"]
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


def test_oracle_out_needs_t(tmp_path, capsys):
    # a full scan has no one witness to write: --out without --t is an input
    # error, raised before the graph is read (here it does not exist)
    out = tmp_path / "w.col"
    assert run(["oracle", str(tmp_path / "missing.g"), "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --out needs --t: only a single-t probe writes a witness\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["gen", "--family", "P", "--n", "4"],
    ["product", "--kind", "tensor", "--left", "missing.g", "--right", "missing.g"],
    ["construct", "--theorem", "t12", "--left", "missing.g", "--right", "missing.g"],
    ["oracle", "missing.g", "--t", "3"],
    ["oracle", "missing.g"],
    ["export-dot", "missing.g"],
    ["chi-prime", "missing.g"],
    ["bipartite-color", "missing.g"],
], ids=lambda argv: " ".join(argv[:1] + [a for a in argv if a == "--t"]))
def test_empty_out_is_an_input_error(tmp_path, capsys, monkeypatch, argv):
    # an empty path would be skipped by a test of --out for truth, the command
    # writing nothing (export-dot: to stdout) with exit 0; it is an input
    # error, raised before any graph is read (here none exists)
    monkeypatch.chdir(tmp_path)
    assert run([*argv, "--out", ""]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --out needs a non-empty path\n"
    assert list(tmp_path.iterdir()) == []


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

# a coloring file's parse faults come before its checks against the graph,
# so the "coloring" rows give the same message on any graph
READERS = {
    "edges": gf.read_edge_list,
    "coloring": lambda path: gf.load_coloring(path, gf.build_graph(1, [])),
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


# The whole CLI surface, one invocation per row, run in order in one directory
# so later rows read the files earlier rows wrote. Each row pins the exit code
# and the sha256 (first 16 hex digits) of stdout, of stderr ("" when empty) and
# of every file the invocation created or changed. A leading NAME=value token
# sets an environment variable for that row only. Recorded before the result
# printing was folded into one helper; the rows whose stdout prints an oracle
# node count were re-recorded after the interval search's reflection cut, and
# the c3.g and grid33.g oracle rows again after the overfull exit and the
# color-1 cut (3 -> 0 and 1,909 -> 1,782 nodes), and the grid33.g rows after
# the lex-leader cut (1,782 -> 743 nodes).
TRANSCRIPT_INPUTS = {
    "bad.g": "2 1\n0 z\n",
    "bad.col": "t=q\n0 0 1 1\n",
    # P4 edges coloured 1, 1, 3 under t=5: a repeated colour at vertex 1, the
    # gap {1, 3} at vertex 2, and colours 2, 4, 5 unused
    "viol.col": "t=5\n0 0 1 1\n1 1 2 1\n2 2 3 3\n",
}

TRANSCRIPT = [
    ('gen --family P --n 4 --out p4.g', 0, '0a6020e517e920b2', '',
     {'p4.g': '4e79e0ded6808ee2'}),
    ('gen --family P --n 3 --out p3.g', 0, 'efc3a13c572082bf', '',
     {'p3.g': 'de1c2550646acf29'}),
    ('gen --family C --n 4 --out c4.g', 0, '8e2c6d32987cb8ad', '',
     {'c4.g': 'e1720ca3c36618f0'}),
    ('gen --family C --n 3 --out c3.g', 0, 'fe83a524d84a578d', '',
     {'c3.g': '7c0343f77a3c54a7'}),
    ('gen --family C --n 5 --out c5.g', 0, 'f15257df5ef389b2', '',
     {'c5.g': '4a66125c2bb3dbfa'}),
    ('gen --family K --n 2 --out k2.g', 0, '14e2d26ded9520fe', '',
     {'k2.g': '4a6ae7226283a4b6'}),
    ('gen --family K --n 4 --out k4.g', 0, 'cc393b5fdf59fa04', '',
     {'k4.g': '9c3528d98663acb8'}),
    ('gen --family grid --dims 3,3 --out grid33.g', 0, '749738d41f4f0514', '',
     {'grid33.g': '7910b832ee375203'}),
    ('gen --family petersen --out pet.g', 0, '5e37dbeb0601635d', '',
     {'pet.g': '223b9bae4baa1733'}),
    ('gen --family k13e --out k13e.g', 0, '8e2c6d32987cb8ad', '',
     {'k13e.g': 'f169dd2b86f8a54b'}),
    ('gen --family kmn --m 3 --n 3 --out k33.g', 0, '5f304aad459fb71d', '',
     {'k33.g': '293f3e7299792f75'}),
    ('gen --family nK1 --n 3 --out e3.g', 0, 'e21eaedd1e175c3e', '',
     {'e3.g': 'f447e635ef60d86f'}),
    ('gen --family C --n 2 --out c2.g', 3, '', '5a588648dc0985ba',
     {}),
    ('gen --family nope --n 3 --out x.g', 3, '', '1b2dff9ee6d73655',
     {}),
    ('gen --family grid --dims 3,x --out x.g', 3, '', 'fa3bee41cc16557c',
     {}),
    ('gen --out x.g', 3, '', '5941dc1bf8f823d7',
     {}),
    ('product --kind cartesian --left p3.g --right c4.g --out cart.g', 0, '638e54a45f3befd3', '',
     {'cart.g': 'b75f072d2e624d54', 'cart.g.prov': 'f6ea3b9d96b0c0de'}),
    ('product --kind tensor --left p3.g --right c4.g --out tens.g', 0, '84968db70c5f292c', '',
     {'tens.g': '78e836c11bc93a49', 'tens.g.prov': '9892dac77849a03c'}),
    ('product --kind strong-tensor --left p3.g --right c4.g --out stens.g', 0, '6fecd9790c5feb28', '',
     {'stens.g': '89efcec8db3377df', 'stens.g.prov': 'a4fb6b4330f886ce'}),
    ('product --kind strong --left p3.g --right c4.g --out strong.g --provenance strong.side', 0, 'f0cba9413a2aceb9', '',
     {'strong.g': '2a9ed7ea706c7c02', 'strong.side': '11610b4582039716'}),
    ('product --kind lex --left p3.g --right c4.g --out lex.g', 0, '9b138090ec254361', '',
     {'lex.g': 'cceee9a57035b7a9', 'lex.g.prov': '8674b46c2861061a'}),
    ('product --kind diagonal --left p3.g --right c4.g --out x.g', 3, '', '4453a81557bb0d11',
     {}),
    ('product --kind tensor --left p3.g --right missing.g --out x.g', 3, '', '9f7e8fb8245adae0',
     {}),
    ('oracle p4.g', 0, '22df7319e012cf74', '',
     {}),
    ('oracle p4.g --json', 0, '3c3ff22fefcd1344', '',
     {}),
    ('oracle k4.g --json', 0, 'f4415f1edfee9e67', '',
     {}),
    ('oracle c3.g', 1, 'c46914a7c5b2b161', '',
     {}),
    ('oracle c3.g --json', 1, 'fe117455802f4a47', '',
     {}),
    ('oracle e3.g', 1, 'c46914a7c5b2b161', '',
     {}),
    ('oracle e3.g --json', 1, 'fe117455802f4a47', '',
     {}),
    ('oracle k13e.g --t 3 --out a3.col', 0, 'e9b546c0838df6b8', '',
     {'a3.col': 'dcbe07f015b3bc7b'}),
    ('oracle k13e.g --t 3 --json', 0, 'dfd8387adb68bbc9', '',
     {}),
    ('oracle c4.g --t 2 --out c4.col', 0, '6ab5b4ab4b6c5c9a', '',
     {'c4.col': '1f75ad9e6e7bbd8c'}),
    ('oracle c3.g --t 2', 1, '4a94b3730eeab731', '',
     {}),
    ('oracle c3.g --t 2 --json', 1, '9ae15dd0ca25ba34', '',
     {}),
    ('oracle p4.g --t 1', 1, 'b9bce4e7ccc70dee', '',
     {}),
    ('oracle grid33.g', 0, '0f4713ea7f9aff8e', '',
     {}),
    ('oracle grid33.g --budget 10', 2, 'c8b244e67b82d8b1', '',
     {}),
    ('oracle grid33.g --budget 10 --json', 2, 'a23296b89063e156', '',
     {}),
    ('oracle grid33.g --t 4 --budget 3', 2, '', 'fefc67fbca066a5c',
     {}),
    ('oracle grid33.g --t 4 --budget 3 --json', 2, '', 'fefc67fbca066a5c',
     {}),
    ('INTERVAL_BUDGET=10 oracle grid33.g', 2, 'c8b244e67b82d8b1', '',
     {}),
    ('INTERVAL_BUDGET=10 oracle grid33.g --budget 100000', 0, '0f4713ea7f9aff8e', '',
     {}),
    ('INTERVAL_BUDGET=abc oracle k2.g', 3, '', '21b9acacc268d381',
     {}),
    ('oracle k2.g --budget -5', 3, '', '9964958b8650bce9',
     {}),
    ('oracle missing.g', 3, '', '9f7e8fb8245adae0',
     {}),
    ('oracle bad.g', 3, '', '8df7bfbb58a19813',
     {}),
    ('construct --theorem t2 --left p3.g --right c4.g --out t2.col --product-out t2.g', 0, '594573e7f2e3c3bd', '',
     {'t2.col': '43dcbc2310fa4cd5', 't2.g': 'b75f072d2e624d54', 't2.g.prov': 'f6ea3b9d96b0c0de'}),
    ('construct --theorem t2 --left p3.g --right c4.g --right-coloring c4.col --out t2b.col', 0, '594573e7f2e3c3bd', '',
     {'t2b.col': '43dcbc2310fa4cd5'}),
    ('construct --theorem t12 --left p3.g --right c4.g --out t12.col --product-out t12.g', 0, 'a68c62aca08bbb92', '',
     {'t12.col': 'a5b89166fcd1ea34', 't12.g': '78e836c11bc93a49', 't12.g.prov': '9892dac77849a03c'}),
    ('construct --theorem t13 --left p3.g --right c4.g --out t13.col --product-out t13.g', 0, 'd21d6dc93fc47142', '',
     {'t13.col': 'efc8b0e50f10e641', 't13.g': '89efcec8db3377df', 't13.g.prov': 'a4fb6b4330f886ce'}),
    ('construct --theorem t14 --left p3.g --right c4.g --out t14.col --product-out t14.g', 0, '718a049a6c6bade1', '',
     {'t14.col': '308246ff723ddb49', 't14.g': '2a9ed7ea706c7c02', 't14.g.prov': '11610b4582039716'}),
    ('construct --theorem t16w --left k13e.g --left-coloring a3.col --n 2 --out t16w.col --product-out t16w.g', 0, '1721af7ae867d24b', '',
     {'t16w.col': 'f9a5740e06f8b474', 't16w.g': '76407c5d54cf7cb8', 't16w.g.prov': '4d66ad23c975dc25'}),
    ('construct --theorem t16W --left p3.g --n 2 --out t16W.col --product-out t16W.g', 0, '9a2d424614ba6421', '',
     {'t16W.col': 'c6429c6daa0c49e7', 't16W.g': '9d25c4396afbb938', 't16W.g.prov': '3c1ffcae27fafb0e'}),
    ('construct --theorem t17 --left p3.g --right c4.g --out t17.col --product-out t17.g', 0, '8f16e595928bafb6', '',
     {'t17.col': '7d0ef9eefdf20c65', 't17.g': 'cceee9a57035b7a9', 't17.g.prov': '8674b46c2861061a'}),
    ('construct --theorem t12 --left p3.g --right c4.g --out t12b.col', 0, 'a68c62aca08bbb92', '',
     {'t12b.col': 'a5b89166fcd1ea34'}),
    ('construct --theorem t16w --left k2.g --out o.col', 3, '', 'd37b2b0c42e44f38',
     {}),
    ('construct --theorem t12 --left k2.g --out o.col', 3, '', '2fd787a6575b2d41',
     {}),
    ('construct --theorem t12 --left c5.g --right k2.g --out o.col', 3, '', '9d37437287826065',
     {}),
    ('construct --theorem t12 --left grid33.g --right c4.g --out o.col --budget 10', 2, '', '0ea1c60da0e6cf31',
     {}),
    ('construct --theorem t14 --left p3.g --right c3.g --out o.col', 3, '', '307c108ba560afd8',
     {}),
    ('construct --theorem t12 --left p3.g --right p3.g --out o.col', 3, '', '95c72f12701d1987',
     {}),
    ('construct --theorem t16w --left p3.g --n 0 --out o.col', 3, '', '82aa1046d620541f',
     {}),
    ('construct --theorem t99 --left p3.g --out o.col', 3, '', '9e992be4aeeab344',
     {}),
    ('verify t12.g t12.col', 0, '55a4d9ae2b7947cf', '',
     {}),
    ('verify t16w.g t16w.col', 0, '9a112fc75b3611d7', '',
     {}),
    ('verify p4.g viol.col', 3, '', 'e24542447573c5aa',
     {}),
    ('verify k2.g missing.col', 3, '', '0388c306bc4c541f',
     {}),
    ('verify k2.g bad.col', 3, '', 'ca1d37da1e370404',
     {}),
    ('verify bad.g t12.col', 3, '', '8df7bfbb58a19813',
     {}),
    ('export-dot c4.g c4.col --out c4.dot', 0, '', '',
     {'c4.dot': 'a21bd3e5fc1c80f6'}),
    ('export-dot c4.g', 0, '237ccf8fe405f624', '',
     {}),
    ('export-dot c4.g c4.col --out -', 0, 'a21bd3e5fc1c80f6', '',
     {}),
    ('chi-prime pet.g', 1, '2ec313618bfb906d', '',
     {}),
    ('chi-prime pet.g --json', 1, 'e3a40e7893068f9f', '',
     {}),
    ('chi-prime c4.g --out c4chi.col', 0, '950e59fc741f6b57', '',
     {'c4chi.col': '1f75ad9e6e7bbd8c'}),
    ('chi-prime c4.g --json', 0, 'bc87d536f4922b10', '',
     {}),
    ('chi-prime e3.g', 0, '8373903de886a27f', '',
     {}),
    ('chi-prime pet.g --budget 10', 2, '', '0e0d2e5537811417',
     {}),
    ('bipartite-color k33.g --out k33.col', 0, 'd000a916b9206b0e', '',
     {'k33.col': '05af3296957fea88'}),
    ('bipartite-color c3.g', 3, '', '53482e2d8f69c2d2',
     {}),
    ('bipartite-color p3.g', 3, '', '6aa725a52c4f77cd',
     {}),
    ('bounds --theorem t2 --params w_g=2,W_g=3,w_h=2,W_h=2', 0, '7b718d3ca995467d', '',
     {}),
    ('bounds --theorem t12 --params w_g=2,W_g=3,r=2 --json', 0, 'acf5bccb74c18eab', '',
     {}),
    ('bounds --theorem t13 --params w_g=2,W_g=3,r=2 --json', 0, '0e506a03ab4da84a', '',
     {}),
    ('bounds --theorem t14 --params w_g=2,W_g=3,r=2', 0, 'b304d5024f6cfc05', '',
     {}),
    ('bounds --theorem t16 --params w_g=2,W_g=3,n=2', 0, '9bf6bdaa41b5e650', '',
     {}),
    ('bounds --theorem t17 --params w_g=2,W_g=3,r=2,n=3 --json', 0, 'f8c9ae8174cb2797', '',
     {}),
    ('bounds --theorem t3 --family cylinder --dims 2,4', 0, 'f09093db944c5293', '',
     {}),
    ('bounds --theorem t3 --family grid --dims 3,3 --json', 0, 'd9c983b6d8bed457', '',
     {}),
    ('bounds --theorem t4 --params m=2,n=3', 0, '23d6a6311503e68c', '',
     {}),
    ('bounds --theorem t5 --params m=2,n=2 --json', 0, '546021057eb57261', '',
     {}),
    ('bounds --theorem t6 --params n=3', 0, 'a619567dfb3708d4', '',
     {}),
    ('bounds --theorem t7 --params n=2 --json', 0, '42d5cc6f7040e320', '',
     {}),
    ('bounds --theorem t8 --params n=2,k=2', 0, '24e3d58a7235b985', '',
     {}),
    ('bounds --theorem t16 --params w_g=1,W_g=2,n=0', 3, '', 'd6d907f4a08fcecd',
     {}),
    ('bounds --theorem t7 --json', 3, '', 'dca4a9744c5d4a81',
     {}),
    ('bounds --theorem t99', 3, '', 'd6f53d62e41fb966',
     {}),
    ('bounds --theorem t7 --params n=x', 3, '', 'feffa342edf7ef5b',
     {}),
    ('bounds --theorem t7 --params n', 3, '', 'fd118ee983ff011f',
     {}),
    ('membership --family torus --dims 3,3', 1, '7a8423280d78503b', '',
     {}),
    ('membership --family torus --dims 3,3 --json', 1, 'b46d36d3d181af65', '',
     {}),
    ('membership --family torus --dims 2,4 --json', 0, 'a615b52dce427aec', '',
     {}),
    ('membership --family hamming --dims 2,2,3 --json', 0, '5e920972cf1737ed', '',
     {}),
    ('membership --family hamming --dims 3,3', 1, '7a8423280d78503b', '',
     {}),
    ('membership --family torus --dims 3', 3, '', '5319d8f6a88c57ba',
     {}),
    ('--help', 0, 'c505f4e9d595836e', '',
     {}),
    ('construct --help', 0, '6538c5f27458d67e', '',
     {}),
    ('oracle --help', 0, '1a0239febaf0678f', '',
     {}),
    ('nope', 3, '', '8ff35796ecd85152',
     {}),
    # bad bounds parameters are input errors; construct checks its operand
    # before the oracle searches for a left colouring
    ('bounds --theorem t3 --family grid --params dims=3', 3, '', 'd5f0a71a51fd6728',
     {}),
    ('bounds --theorem t3 --params family=1,dims=2', 3, '', '48c0c6e37059fece',
     {}),
    ('bounds --theorem t4 --params m=1,n=2,m=5', 3, '', '3b7b40499a9263d7',
     {}),
    ('bounds --theorem t12 --params w_g=1,W_g=2,r=1,extra=3', 3, '', '962792767c1b64a3',
     {}),
    ('bounds --theorem t12 --params w_g=1,W_g=2,r=1,=3', 3, '', 'cd9912a78fa990ca',
     {}),
    ('bounds --theorem t7 --params n=2,', 0, 'c5f0f1d1092152a9', '',
     {}),
    ('construct --theorem t12 --left grid33.g --out o.col --budget 10', 3, '', '2fd787a6575b2d41',
     {}),
    ('construct --theorem t16w --left grid33.g --n 0 --budget 10 --out o.col', 3, '', '82aa1046d620541f',
     {}),
    ('construct --theorem t12 --left grid33.g --right p3.g --budget 10 --out o.col', 3, '', '95c72f12701d1987',
     {}),
]


def _sha16(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16] if data else ""


def _transcript_row(root, capsys, monkeypatch, line):
    """Run one transcript line; returns (exit, stdout, stderr, written files)."""
    tokens = line.split()
    env = {}
    while "=" in tokens[0] and not tokens[0].startswith("-"):
        name, value = tokens.pop(0).split("=", 1)
        env[name] = value
    before = {p.name: p.read_bytes() for p in root.iterdir()}
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    try:
        code = run(tokens)
    finally:
        for name in env:
            monkeypatch.delenv(name)
    out, err = capsys.readouterr()
    written = {
        p.name: _sha16(p.read_bytes())
        for p in sorted(root.iterdir())
        if before.get(p.name) != p.read_bytes()
    }
    return code, _sha16(out.encode()), _sha16(err.encode()), written


def test_construct_checks_its_operand_before_searching(tmp_path, capsys, monkeypatch):
    # a missing --right or --n is a usage error whatever the budget: no oracle run
    import gapfree.cli

    def no_search(*args):
        raise AssertionError("the oracle ran before the operand check")

    monkeypatch.setattr(gapfree.cli, "oracle", no_search)
    left = tmp_path / "grid45.g"
    gf.write_edge_list(left, gf.generate("grid", 4, 5))
    for theorem, operand in (("t12", "right"), ("t17", "right"), ("t16w", "n")):
        for budget in ("10", "2000000"):
            code = run(["construct", "--theorem", theorem, "--left", str(left),
                        "--budget", budget, "--out", str(tmp_path / "o.col")])
            assert code == 3
            assert capsys.readouterr().err == f"error: --{operand} is required for {theorem}\n"
    # an unreadable right factor is an input error too, not an unknown verdict
    missing = tmp_path / "missing.g"
    for budget in ("10", "2000000"):
        code = run(["construct", "--theorem", "t12", "--left", str(left), "--right",
                    str(missing), "--budget", budget, "--out", str(tmp_path / "o.col")])
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{missing}'\n")
    # so is an invalid operand: a copy count below 1, or a right factor that
    # is not regular where the theorem needs one
    right = tmp_path / "p3.g"
    gf.write_edge_list(right, gf.generate("P", 3))
    invalid = [("t16w", "--n", "0", "error: copy count must be >= 1, got 0\n"),
               ("t16W", "--n", "-1", "error: copy count must be >= 1, got -1\n")]
    invalid += [(theorem, "--right", str(right), "error: the right factor must be"
                 " r-regular with r >= 1, degrees {1, 2}\n")
                for theorem in ("t12", "t13", "t14", "t17")]
    for theorem, option, value, message in invalid:
        code = run(["construct", "--theorem", theorem, "--left", str(left), option, value,
                    "--budget", "2000000", "--out", str(tmp_path / "o.col")])
        assert code == 3
        assert capsys.readouterr().err == message


def test_cli_transcript_pin(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # --help wraps to the terminal width
    monkeypatch.delenv("INTERVAL_BUDGET", raising=False)
    for name, text in TRANSCRIPT_INPUTS.items():
        (tmp_path / name).write_text(text)
    capsys.readouterr()
    for line, *want in TRANSCRIPT:
        got = _transcript_row(tmp_path, capsys, monkeypatch, line)
        assert list(got) == want, line


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    # the fenced block under "## CLI", run line by line in an empty directory;
    # a line's exit code is its "# exit N" comment, 0 without one
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"^## CLI\n+```sh\n(.*?)^```", readme, re.M | re.S).group(1)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("INTERVAL_BUDGET", raising=False)
    commands = block.replace("\\\n", "").splitlines()
    assert len(commands) >= 10
    for line in commands:
        argv = shlex.split(line, comments=True)
        assert argv[0] == "gapfree", line
        exit_note = re.search(r"# exit (\d+)", line)
        want = int(exit_note.group(1)) if exit_note else 0
        assert run(argv[1:]) == want, (line, capsys.readouterr().err)
