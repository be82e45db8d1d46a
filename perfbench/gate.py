"""The benchmark's correctness gate, written independently of gapfree.

Colourings and witnesses are checked by the small interval checker below,
never by gapfree's own verifier. Product edge sets are checked edge by edge
against each product's adjacency rule and as a whole against its edge-count
formula; construction colour counts against the theorem's formula. Every
function returns a list of problems, empty when the output is correct.
"""

from __future__ import annotations

import json
import random
from collections import Counter

Edges = list[tuple[int, int]]

# theorem -> (product kind, expected colour count from the left count t, the
# right factor's regularity r and its vertex count n)
THEOREMS = {
    "t12": ("tensor", lambda t, r, n: t * r),
    "t13": ("strong-tensor", lambda t, r, n: t * (r + 1)),
    "t14": ("strong", lambda t, r, n: t * (r + 1) + r),
    "t16w": ("lex", lambda t, r, n: t * n),
    "t17": ("lex", lambda t, r, n: t * n + r),
}


# ---------------------------------------------------------------- file formats


def format_graph(n: int, edges: Edges) -> str:
    """gapfree's edge-list format; edges must already be canonical and sorted."""
    return f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)


def format_coloring(t: int, edges: Edges, colors: list[int]) -> str:
    return f"t={t}\n" + "".join(
        f"{k} {u} {v} {c}\n" for k, ((u, v), c) in enumerate(zip(edges, colors))
    )


def parse_graph(text: str) -> tuple[int, Edges]:
    lines = text.split("\n")
    n, m = (int(x) for x in lines[0].split())
    edges = [tuple(int(x) for x in line.split()) for line in lines[1 : m + 1]]
    if len(edges) != m or any(len(e) != 2 for e in edges) or lines[m + 1 :] not in ([], [""]):
        raise ValueError(f"edge-list file does not hold the {m} edges its header declares")
    return n, edges


def parse_coloring(text: str, edges: Edges) -> tuple[int, list[int]]:
    """Header t and the colour of each edge id; the file must list the graph's
    edges in id order."""
    lines = text.split("\n")
    if not lines[0].startswith("t="):
        raise ValueError(f"colouring header {lines[0]!r} is not t=<K>")
    t = int(lines[0][2:])
    colors = []
    for k, (u, v) in enumerate(edges):
        row = lines[k + 1].split()
        if [int(x) for x in row[:3]] != [k, u, v] or len(row) != 4:
            raise ValueError(f"colouring line {k + 1} {lines[k + 1]!r} does not match edge {k} ({u},{v})")
        colors.append(int(row[3]))
    if lines[len(edges) + 1 :] not in ([], [""]):
        raise ValueError("colouring file lists more edges than the graph has")
    return t, colors


# ------------------------------------------------------------ interval checker


def count_violations(n: int, edges: Edges, colors: list[int], t: int) -> dict[str, int]:
    """Violations as `gapfree verify` reports them, one line each.

    properness: one per pair of same-coloured edges at a vertex; gap: one per
    vertex whose distinct colours are not a block of consecutive integers;
    palette: one per colour of 1..t that no edge uses and per used colour
    above t.
    """
    at: list[list[int]] = [[] for _ in range(n)]
    for (u, v), c in zip(edges, colors):
        at[u].append(c)
        at[v].append(c)
    properness = gap = 0
    for cs in at:
        if not cs:
            continue
        distinct = set(cs)
        if len(distinct) != len(cs):
            properness += sum(k * (k - 1) // 2 for k in Counter(cs).values())
        if max(distinct) - min(distinct) + 1 != len(distinct):
            gap += 1
    used = set(colors)
    palette = sum(c not in used for c in range(1, t + 1)) + sum(c > t for c in used)
    return {"properness": properness, "gap": gap, "palette": palette}


def interval_problems(n: int, edges: Edges, colors: list[int], t: int, what: str) -> list[str]:
    """Empty iff colors is an interval t-colouring of the graph."""
    if len(colors) != len(edges) or min(colors, default=1) < 1:
        return [f"{what}: {len(colors)} positive colours expected for {len(edges)} edges"]
    found = count_violations(n, edges, colors, t)
    if any(found.values()):
        return [f"{what} is not an interval {t}-colouring: {found}"]
    return []


def proper_problems(edges: Edges, colors: list[int], k: int, what: str) -> list[str]:
    """Empty iff colors is a proper edge colouring with exactly the colours 1..k."""
    seen: set[tuple[int, int]] = set()
    for (u, v), c in zip(edges, colors):
        if (u, c) in seen or (v, c) in seen:
            return [f"{what}: colour {c} repeats at an endpoint of edge ({u},{v})"]
        seen.add((u, c))
        seen.add((v, c))
    if len(colors) != len(edges) or set(colors) != set(range(1, k + 1)):
        return [f"{what}: palette is not exactly 1..{k}"]
    return []


# ----------------------------------------------------------------- products


def product_edge_count(kind: str, gn: int, gm: int, hn: int, hm: int) -> int:
    return {
        "tensor": 2 * gm * hm,
        "strong-tensor": gm * hn + 2 * gm * hm,
        "strong": gn * hm + gm * hn + 2 * gm * hm,
        "lex": gn * hm + gm * hn * hn,
    }[kind]


def product_problems(
    kind: str, g: tuple[int, Edges], h: tuple[int, Edges], prod: tuple[int, Edges]
) -> list[str]:
    """Empty iff prod is exactly the product of g and h.

    Vertex (i, p) is i * |V(H)| + p. Every listed edge must obey the kind's
    adjacency rule and no edge may repeat; with the edge count equal to the
    formula, the listed set is then the whole product.
    """
    (gn, g_edges), (hn, h_edges), (pn, p_edges) = g, h, prod
    e_g, e_h = set(g_edges), set(h_edges)
    expected = product_edge_count(kind, gn, len(g_edges), hn, len(h_edges))
    problems = []
    if pn != gn * hn:
        problems.append(f"{kind} product has {pn} vertices, expected {gn * hn}")
    if len(p_edges) != expected:
        problems.append(f"{kind} product has {len(p_edges)} edges, formula gives {expected}")
    if len(set(p_edges)) != len(p_edges):
        problems.append(f"{kind} product lists an edge twice")
    for a, b in p_edges:
        i, p = divmod(a, hn)
        j, q = divmod(b, hn)
        g_adj = (min(i, j), max(i, j)) in e_g
        h_adj = (min(p, q), max(p, q)) in e_h
        if kind == "tensor":
            ok = g_adj and h_adj
        elif kind == "strong-tensor":
            ok = g_adj and (p == q or h_adj)
        elif kind == "strong":
            ok = (i == j and h_adj) or (g_adj and (p == q or h_adj))
        else:
            ok = (i == j and h_adj) or g_adj
        if not ok or a >= b:
            problems.append(f"({a},{b}) is not a canonical edge of the {kind} product")
            break
    return problems


# ------------------------------------------------------------ corrupted inputs


def corrupt(colors: list[int], t: int, rng: random.Random, share: float = 0.01) -> list[int]:
    """Recolour about `share` of the edges, each to another colour of 1..t."""
    bad = list(colors)
    for k in rng.sample(range(len(colors)), max(1, round(share * len(colors)))):
        bad[k] = rng.choice([c for c in range(1, t + 1) if c != colors[k]])
    return bad


def verify_output_problems(stdout: str, t: int, expected: dict[str, int]) -> list[str]:
    """Compare `gapfree verify` output with our own violation counts."""
    lines = [json.loads(line) for line in stdout.splitlines()]
    got = Counter(line["kind"] for line in lines[:-1] if line.get("schema") == "gapfree.violation/1")
    valid = not any(expected.values())
    problems = []
    if len(lines[:-1]) != sum(got.values()):
        problems.append("verify printed lines that are not violations")
    if {k: got.get(k, 0) for k in expected} != expected:
        problems.append(f"verify reported {dict(got)}, our checker counts {expected}")
    if not lines or lines[-1] != {"schema": "gapfree.verify/1", "valid": valid, "t": t}:
        problems.append(f"verify summary {lines[-1] if lines else None} should say valid={valid} t={t}")
    return problems


# ------------------------------------------------------------------- verdicts


def exit_problems(got: int, want: int) -> list[str]:
    return [] if got == want else [f"exit {got}, expected {want}"]


def verdict_problems(
    got_exit: int, stdout: str, want_exit: int, want: dict | None
) -> list[str]:
    """Compare an exit code and the fields of a --json result line with a table entry.

    want None means the command must print nothing on stdout.
    """
    problems = exit_problems(got_exit, want_exit)
    if want is None:
        if stdout.strip():
            problems.append(f"unexpected output {stdout.strip()[:200]!r}")
        return problems
    try:
        line = json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return problems + [f"no JSON result line in {stdout.strip()[:200]!r}"]
    diff = {k: line.get(k) for k, v in want.items() if line.get(k) != v}
    if diff:
        problems.append(f"got {diff}, expected { {k: want[k] for k in diff} }")
    return problems
