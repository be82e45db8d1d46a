"""Shared fixtures for the test suite: the construction test matrix and a few
frozen factor colorings."""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

import gapfree as gf

# recorded seed for every randomized test in the suite
SEED = 20250810

# frozen interval colorings (edge-id order) used by the reference-count tests;
# each is re-verified where used
P4_ALPHA_W = (1, 2, 1)
P4_ALPHA_3 = (1, 2, 3)
K13E_ALPHA_3 = (1, 3, 2, 2)
K4_ALPHA_4 = (1, 2, 3, 3, 2, 4)


@lru_cache(maxsize=None)
def named(name: str, *params: int) -> gf.Graph:
    return gf.generate(name, *params)


def edge_group(generators, m: int) -> set[tuple[int, ...]]:
    """The group of edge permutations of m edges that the generators
    generate, as a set of tuples (entry e: the image of edge e)."""
    identity = tuple(range(m))
    group = {identity}
    frontier = [identity]
    while frontier:
        a = frontier.pop()
        for perm in generators:
            b = tuple([perm[e] for e in a])
            if b not in group:
                group.add(b)
                frontier.append(b)
    return group


@lru_cache(maxsize=None)
def oracle_cached(g: gf.Graph, budget: int = gf.DEFAULT_BUDGET) -> gf.OracleResult:
    return gf.oracle(g, budget)


def factor_alphas(g: gf.Graph) -> list[gf.EdgeColoring]:
    """Least- and greatest-count witnesses from the oracle (deduplicated)."""
    result = oracle_cached(g)
    assert result.member, "matrix factors must be interval colorable"
    alphas = [result.witnesses[result.w]]
    if result.W != result.w:
        alphas.append(result.witnesses[result.W])
    return alphas


def g_pool() -> list[tuple[str, gf.Graph]]:
    return [
        ("P2", named("P", 2)),
        ("P3", named("P", 3)),
        ("P4", named("P", 4)),
        ("K13e", named("k13e")),
        ("C4", named("C", 4)),
        ("K4", named("K", 4)),
    ]


def h_pool_regular() -> list[tuple[str, gf.Graph]]:
    return [
        ("K2", named("K", 2)),
        ("C4", named("C", 4)),
        ("C6", named("C", 6)),
        ("K4", named("K", 4)),
    ]


N_POOL = (2, 3, 4)


def collect_matrix() -> list[dict]:
    """All (theorem, G, alpha, right-hand side) triples of the test matrix.

    Each entry carries a build() thunk returning (product, coloring) and the
    exact color count the construction must hit.
    """
    entries: list[dict] = []
    for gname, g in g_pool():
        for alpha in factor_alphas(g):
            t = alpha.t
            for hname, h in h_pool_regular():
                r = h.regularity
                entries.append(
                    dict(
                        theorem="t12",
                        label=f"t12 {gname}(t={t}) x {hname}",
                        g=g, alpha=alpha, h=h,
                        expected=t * r,
                        build=lambda g=g, alpha=alpha, h=h: gf.tensor_interval(g, alpha, h),
                    )
                )
                entries.append(
                    dict(
                        theorem="t13",
                        label=f"t13 {gname}(t={t}) (x) {hname}",
                        g=g, alpha=alpha, h=h,
                        expected=t * (r + 1),
                        build=lambda g=g, alpha=alpha, h=h: gf.strong_tensor_interval(g, alpha, h),
                    )
                )
                entries.append(
                    dict(
                        theorem="t14",
                        label=f"t14 {gname}(t={t}) strong {hname}",
                        g=g, alpha=alpha, h=h,
                        expected=t * (r + 1) + r,
                        build=lambda g=g, alpha=alpha, h=h: gf.strong_interval(g, alpha, h),
                    )
                )
                entries.append(
                    dict(
                        theorem="t17",
                        label=f"t17 {gname}(t={t})[{hname}]",
                        g=g, alpha=alpha, h=h,
                        expected=t * h.n + r,
                        build=lambda g=g, alpha=alpha, h=h: gf.lex_regular_interval(g, alpha, h),
                    )
                )
                h_alpha = factor_alphas(h)[0]
                entries.append(
                    dict(
                        theorem="t2",
                        label=f"t2 {gname}(t={t}) box {hname}",
                        g=g, alpha=alpha, h=h,
                        expected=None,  # bounded by t + t_h, not exact
                        bound=t + h_alpha.t,
                        build=lambda g=g, alpha=alpha, h=h, b=h_alpha: gf.cartesian_interval(g, alpha, h, b),
                    )
                )
            for n in N_POOL:
                entries.append(
                    dict(
                        theorem="t16w",
                        label=f"t16w {gname}(t={t})[{n}K1]",
                        g=g, alpha=alpha, h=None,
                        expected=t * n,
                        build=lambda g=g, alpha=alpha, n=n: gf.lex_empty_interval(g, alpha, n, "w"),
                    )
                )
                entries.append(
                    dict(
                        theorem="t16W",
                        label=f"t16W {gname}(t={t})[{n}K1]",
                        g=g, alpha=alpha, h=None,
                        expected=t * n + n - 1,
                        build=lambda g=g, alpha=alpha, n=n: gf.lex_empty_interval(g, alpha, n, "W"),
                    )
                )
    return entries


def spectrum(g: gf.Graph, coloring: gf.EdgeColoring, v: int) -> tuple[int, ...]:
    """Distinct colors on the edges at v, ascending."""
    return tuple(sorted({coloring.colors[e] for e in g.incident[v]}))


def _naive_exists(g: gf.Graph, t: int) -> bool:
    """Generate-and-filter: enumerate proper colorings (edge id order, colors
    descending), keep one iff it is an interval t-coloring."""
    at_vertex: list[set[int]] = [set() for _ in range(g.n)]
    colors = [0] * g.m

    def leaf_ok() -> bool:
        if set(colors) != set(range(1, t + 1)):
            return False
        for v in range(g.n):
            spect = sorted(at_vertex[v])
            if spect and spect[-1] - spect[0] + 1 != len(spect):
                return False
        return True

    def rec(e: int) -> bool:
        if e == g.m:
            return leaf_ok()
        u, v = g.edges[e]
        for c in range(t, 0, -1):
            if c in at_vertex[u] or c in at_vertex[v]:
                continue
            at_vertex[u].add(c)
            at_vertex[v].add(c)
            colors[e] = c
            if rec(e + 1):
                return True
            at_vertex[u].remove(c)
            at_vertex[v].remove(c)
        return False

    return rec(0)


@lru_cache(maxsize=None)
def naive_oracle(g: gf.Graph) -> tuple[bool, Optional[int], Optional[int]]:
    """Slow reference verdict (member, least t, greatest t) for tiny graphs.

    Independent of the pruned search: different edge order, different color
    order, and only the trivial ceiling t <= |E|. Intended for cross-checking
    in tests; cost grows violently past a dozen edges, so verdicts are cached
    for the session.
    """
    feasible = [t for t in range(1, g.m + 1) if _naive_exists(g, t)]
    if feasible:
        return True, feasible[0], feasible[-1]
    return False, None, None
