"""The row-by-row edge-list and colouring readers that the block readers of
gapfree.graph and gapfree.colorings replaced, kept as test-only reference
code: test_readers.py checks that both give the same result, or the same
exception with the same message, on every file it makes."""

from collections import deque

from gapfree import EdgeColoring, build_graph
from gapfree.errors import BadParameter


def data_rows(path):
    """The stripped lines of an ASCII text file, one at a time, without blank
    and '#' comment lines; a byte outside ASCII raises BadParameter when the
    read reaches it."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            for s in map(str.strip, fh):
                if s and s[0] != "#":
                    yield s
    except UnicodeDecodeError as exc:
        raise BadParameter(
            f"{path}: non-ASCII byte {exc.object[exc.start]:#04x}"
        ) from None


def read_edge_list(path):
    rows = data_rows(path)
    header = next(rows, None)
    if header is None:
        raise BadParameter(f"{path}: empty edge-list file")
    try:
        n, m = map(int, header.split())
    except ValueError:
        deque(rows, 0)
        raise BadParameter(f"{path}: malformed header {header!r}") from None
    edges = []
    append = edges.append
    vertex = {}
    get = vertex.get
    bad = None
    for row in rows:
        try:
            a, b = row.split()
            u = get(a)
            if u is None:
                u = int(a)
                u = vertex[a] = vertex.setdefault(u, u)
            v = get(b)
            if v is None:
                v = int(b)
                v = vertex[b] = vertex.setdefault(v, v)
        except ValueError:
            bad = row
            break
        append((u, v))
    found = len(edges) + (bad is not None) + sum(1 for _ in rows)
    if found != m:
        raise BadParameter(f"{path}: header declares {m} edges, found {found}")
    if bad is not None:
        raise BadParameter(f"{path}: malformed edge line {bad!r}")
    del vertex
    return build_graph(n, edges)


def load_coloring(path, g):
    rows = data_rows(path)
    header = next(rows, None)
    try:
        if header is None or not header.startswith("t="):
            raise BadParameter(f"{path}: missing t=<K> header")
        try:
            t = int(header[2:])
        except ValueError:
            raise BadParameter(f"{path}: malformed header {header!r}") from None
        if t < 0:
            raise BadParameter(f"{path}: declared color count must be >= 0, got {t}")
    except BadParameter:
        deque(rows, 0)
        raise
    edges = g.edges
    n_edges = len(edges)
    colors = [0] * n_edges
    beyond = set()
    ahead = []
    odd = []
    fault = None
    i = -1
    for i, row in enumerate(rows):
        try:
            k, u, v, c = row.split()
            k, u, v, c = int(k), int(u), int(v), int(c)
        except ValueError:
            fault = f"{path}: malformed coloring line {row!r}"
            break
        if k > i and (not ahead or k > ahead[-1][1]) or k < 0:
            ahead.append((i, k))
            if k < 0:
                break
        if colors[k] if k < n_edges else k in beyond:
            fault = f"{path}: duplicate edge id {k}"
            break
        if c < 1:
            fault = f"{path}: edge {k} has non-positive color {c}"
            break
        if k >= n_edges:
            beyond.add(k)
        else:
            colors[k] = c
            if (u, v) != edges[k] and (v, u) != edges[k]:
                odd.append((k, u, v))
    m = i + 1 + sum(1 for _ in rows)
    for _, k in ahead:
        if not 0 <= k < m:
            raise BadParameter(f"{path}: edge id {k} outside 0..{m - 1}")
    if fault is not None:
        raise BadParameter(fault)
    if m != n_edges:
        raise BadParameter(f"{path}: {m} colored edges for a graph with {n_edges}")
    if t > n_edges:
        raise BadParameter(f"{path}: declared color count must be <= the edge count {n_edges}, got {t}")
    if odd:
        k, u, v = min(odd)
        raise BadParameter(
            f"{path}: edge id {k} is ({u},{v}) but the graph has {edges[k]}"
        )
    return t, EdgeColoring(tuple(colors))
