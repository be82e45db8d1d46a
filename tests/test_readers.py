"""The block readers against the row readers they replaced.

Every file is read twice, by the reference reader (tests/reference_readers.py)
and by the library's, with the block size patched down to a few dozen bytes,
so that blocks cut through rows, and strict blocks (parsed whole) and other
blocks (parsed row by row) mix in one file. Both must give the same result,
or the same exception class with the same message.
"""

import random
import sys
import tracemalloc
from unittest import mock

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import gapfree as gf
import gapfree.graph

import reference_readers as ref

# edits to the text of a file's rows, drawn as (kind, position, field); a
# position is taken modulo the row count, a field modulo the row's field
# count. The edge and colouring edits are faults of the format (_edit_row).
ROW_EDITS = ("comment", "blank", "zero", "plus", "underscore", "minus", "letter",
             "extra", "short", "non_ascii", "tab")
EDGE_EDITS = ("far", "loop", "duplicate", "reverse")
COLORING_EDITS = ("id_high", "id_negative", "id_duplicate", "color_zero", "reverse", "wrong_end")
ENDINGS = ("\n", "\n", "\r\n", "\r")


def _outcome(read, path):
    try:
        return read(path)
    except Exception as exc:  # the class and the message are compared
        return type(exc), str(exc)


def _vertices_shared(g: gf.Graph) -> bool:
    """Whether each vertex of g is one int object in all its edges."""
    ends = [x for e in g.edges for x in e]
    return len({id(x) for x in ends}) == len(set(ends))


def _edit_token(token: str, kind: str) -> str:
    return {
        "zero": "0" + token,
        "plus": "+" + token,
        "underscore": token[0] + "_" + token[1:] if len(token) > 1 else token,
        "minus": "-" + token,
        "letter": token + "x",
    }.get(kind, token)


@st.composite
def _text(draw, header, rows, row_edits=()):
    """The bytes of a file made of `header` and `rows` (lists of int fields),
    with a few drawn edits and a drawn line ending: first faults of the
    format (`row_edits`, see _edit_row), then faults of the text."""
    rows = [list(row) for row in rows]
    if rows:
        for kind, at in draw(st.lists(st.tuples(st.sampled_from(row_edits),
                                                st.integers(0, 10**6)), max_size=2)):
            k = at % len(rows)
            rows[k] = _edit_row(rows[k], kind, rows, at)
    rows = [list(map(str, row)) for row in rows]
    edits = draw(st.lists(st.tuples(st.sampled_from(ROW_EDITS), st.integers(0, 10**6),
                                    st.integers(0, 3)), max_size=3))
    for kind, at, field in edits:
        if not rows:
            break
        k = at % len(rows)
        row = rows[k]
        if kind == "comment":
            rows.insert(k, ["# a", "comment"])
        elif kind == "blank":
            rows.insert(k, [])
        elif not row:
            continue
        elif kind == "extra":
            row.append("1")
        elif kind == "short":
            row.pop()
        elif kind == "non_ascii":
            row[field % len(row)] += "\xe9"
        elif kind == "tab":
            rows[k] = ["\t".join(row)]
        else:
            row[field % len(row)] = _edit_token(row[field % len(row)], kind)
    lines = [" ".join(map(str, header))] if header is not None else []
    lines += [" ".join(row) for row in rows]
    ending = draw(st.sampled_from(ENDINGS))
    text = ending.join(lines)
    if lines and draw(st.booleans()):
        text += ending  # else the last row has no newline
    return text.encode("latin-1")


def _edit_row(row, kind, rows, at):
    """A row of an edge list (2 ints) or a colouring (4) with one fault."""
    row = list(row)
    if kind == "far":
        row[at % 2] += 1000
    elif kind == "loop":
        row[1] = row[0]
    elif kind == "duplicate":
        row = list(rows[(at // 7) % len(rows)])
    elif kind == "reverse":  # the two ends, in either format
        a = len(row) // 4  # 0 in an edge row, 1 in a colouring row
        row[a], row[a + 1] = row[a + 1], row[a]
    elif kind == "id_high":
        row[0] += len(rows) + at % 3
    elif kind == "id_negative":
        row[0] = -1 - at % 2
    elif kind == "id_duplicate":
        row[0] = rows[(at // 7) % len(rows)][0]
    elif kind == "color_zero":
        row[3] = -(at % 2)
    elif kind == "wrong_end":
        row[2] += 1
    return row


@st.composite
def _graphs(draw):
    """(n, canonical edges): a random small graph, or a long path that spans
    many blocks, sometimes with vertex ids above 256 (ints not cached)."""
    if draw(st.booleans()):
        n = draw(st.integers(0, 9))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        edges = sorted(draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else [])
    else:
        n = draw(st.integers(2, 60))
        edges = [(k, k + 1) for k in range(n - 1)]
    base = draw(st.sampled_from((0, 0, 300)))
    if base:
        n += base
        edges = [(u + base, v + base) for u, v in edges]
    return n, edges


@st.composite
def edge_files(draw):
    n, edges = draw(_graphs())
    if draw(st.booleans()):
        edges = draw(st.permutations(edges))
    m = len(edges) + draw(st.sampled_from((0, 0, 0, 1, -1)))
    header = draw(st.sampled_from(([n, m], [n, m], [n, m], [n], [-n - 1, m], None)))
    return draw(_text(header, edges, EDGE_EDITS))


@st.composite
def coloring_files(draw):
    n, edges = draw(_graphs())
    rows = [[k, u, v, draw(st.integers(1, 4))] for k, (u, v) in enumerate(edges)]
    if draw(st.booleans()):
        rows = draw(st.permutations(rows))
    t = draw(st.sampled_from((4, 4, 4, len(edges) + 1, -1, "x")))
    header = draw(st.sampled_from(([f"t={t}"], [f"t={t}"], [f"t={t}"], ["x"], None)))
    return gf.Graph(n, tuple(edges)), draw(_text(header, rows, COLORING_EDITS))


READ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _compare(tmp_path, data, block, old, new):
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    want = _outcome(old, path)
    with mock.patch.object(gapfree.graph, "_BLOCK", block):
        got = _outcome(new, path)
    assert got == want
    return got


# a non-ASCII byte inside an otherwise strict block; a fault in the last of
# many blocks; a last row without a newline
FAR_TAIL = ("61 60\n" + "".join(f"{k} {k + 1}\n" for k in range(59)) + "59 90\n").encode()


@READ
@given(data=edge_files(), block=st.integers(1, 64))
@example(data=b"3 2\n0 1\n1 2\xe9\n", block=40)
@example(data=FAR_TAIL, block=16)
@example(data=FAR_TAIL[:-1], block=16)
@example(data=b"3 2\n0 1\n1 2", block=4)
@example(data=b"3 2\n0 1\n12", block=4)
def test_edge_reader_matches_row_reader(tmp_path, data, block):
    got = _compare(tmp_path, data, block, ref.read_edge_list, gf.read_edge_list)
    if isinstance(got, gf.Graph):
        assert _vertices_shared(got)


P4 = gf.Graph(4, ((0, 1), (1, 2), (2, 3)))


@READ
@given(case=coloring_files(), block=st.integers(1, 64))
# a strict block of rows is taken whole only with positive colours, empty
# slots (row 0 fills slot 2 first), the graph's ends and the next ids
@example(case=(P4, b"t=2\n0 0 1 1\n1 1 2 0\n2 2 3 1\n"), block=4)
@example(case=(P4, b"t=2\n2 0 1 1\n1 1 2 2\n2 2 3 1\n"), block=4)
@example(case=(P4, b"t=2\n0 1 0 1\n1 1 3 2\n2 2 3 1\n"), block=4)
@example(case=(P4, b"t=2\n0 0 1 1\n2 2 3 1\n1 1 2 2\n"), block=4)
def test_coloring_reader_matches_row_reader(tmp_path, case, block):
    g, data = case
    _compare(tmp_path, data, block, lambda p: ref.load_coloring(p, g),
             lambda p: gf.load_coloring(p, g))


def test_readers_match_on_files_of_many_blocks(tmp_path):
    # P2001 with vertex ids above 256, on the strict path and the row path
    # at once: a fault in the last block, a row edited anywhere, and the
    # default block size
    rng = random.Random(33)
    n = 2001
    edges = [(k, k + 1) for k in range(n - 1)]
    g = gf.Graph(n, tuple(edges))
    plain = f"{n} {n - 1}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    colored = "t=2\n" + "".join(f"{k} {u} {v} {1 + k % 2}\n" for k, (u, v) in enumerate(edges))
    for _ in range(40):
        block = rng.choice((16, 100, 1 << 14))
        for text, old, new in ((plain, ref.read_edge_list, gf.read_edge_list),
                               (colored, lambda p: ref.load_coloring(p, g),
                                lambda p: gf.load_coloring(p, g))):
            rows = text.split("\n")
            k = rng.choice((rng.randrange(1, len(rows)), len(rows) - 2))
            rows[k] = rng.choice(("# note", "", rows[k] + "\r", rows[k].replace(" ", "\t"),
                                  "0" + rows[k], rows[k] + " 1", rows[k][:-1] + "\xe9",
                                  rows[k].replace(" ", " 0", 1)))
            got = _compare(tmp_path, "\n".join(rows).encode("latin-1"), block, old, new)
            if isinstance(got, gf.Graph):
                assert _vertices_shared(got)


def test_edge_reader_holds_less_than_its_rows(tmp_path):
    # the vertex map is a dict keyed by int value, never a map of token
    # strings, and the file is read in blocks whatever ends its rows: on a
    # P20001 file, what the reader allocates above the graph it returns
    # stays below the size of the file's row strings (1.18 MB), on the
    # strict path and on the row path. The row readers this replaced held
    # 2.73 MB.
    n = 20001
    rows = [f"{k} {k + 1}" for k in range(n - 1)]
    limit = sum(map(sys.getsizeof, rows))
    path = tmp_path / "p.g"
    for text in (f"{n} {n - 1}\n" + "\n".join(rows) + "\n",  # strict
                 f"{n} {n - 1}\n# a\n" + "\n".join(rows) + "\n",
                 f"{n} {n - 1}\r\n" + "\r\n".join(rows) + "\r\n",  # all rows on the row path
                 f"{n} {n - 1}\r" + "\r".join(rows) + "\r",  # no "\n" in the file
                 f"{3 * n} {n - 1}\n" + "\n".join(rows) + "\n"):  # n > 2m
        path.write_bytes(text.encode())
        tracemalloc.start()
        try:
            g = gf.read_edge_list(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.m == n - 1 and _vertices_shared(g)
        assert peak - held < limit, text[:20]
