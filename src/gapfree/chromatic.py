"""Proper edge colorings feeding the interval constructions.

Two routes: bipartite regular graphs get an exact max-degree coloring by
peeling perfect matchings (each color class is one matching, so every vertex
ends up seeing all colors 1..r), and arbitrary small graphs get their exact
chromatic index by a pruned exhaustive search that tries the max degree first
and falls back to max degree + 1.
"""

from __future__ import annotations

from collections import deque

from .colorings import EdgeColoring
from .errors import NotBipartite, NotRegular
from .graph import Graph, _Record, bfs_edge_order, is_bipartite
from .search import DEFAULT_BUDGET, Budget, first_coloring

_INF = float("inf")


def _hopcroft_karp(left: list[int], adj: dict[int, dict[int, int]]) -> dict[int, int]:
    """Maximum matching on a bipartite graph, deterministic for equal inputs."""
    match_l: dict[int, int] = {}
    match_r: dict[int, int] = {}
    dist: dict[int, float] = {}

    def bfs() -> bool:
        queue: deque[int] = deque()
        for u in left:
            if u not in match_l:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = _INF
        reachable_free = False
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                z = match_r.get(w)
                if z is None:
                    reachable_free = True
                elif dist[z] == _INF:
                    dist[z] = dist[u] + 1
                    queue.append(z)
        return reachable_free

    def augment(root: int) -> None:
        # depth-first along the BFS layers, in the order a recursive search
        # would take; stack[i + 1] is the partner of taken[i], tried from stack[i]
        stack = [(root, iter(adj[root]))]
        taken: list[int] = []
        while stack:
            u, nbrs = stack[-1]
            for w in nbrs:
                z = match_r.get(w)
                if z is None or dist[z] == dist[u] + 1:
                    break
            else:
                dist[u] = _INF
                stack.pop()
                del taken[-1:]
                continue
            taken.append(w)
            if z is None:
                # flip the augmenting path, deepest vertex first
                for (u, _), w in zip(reversed(stack), reversed(taken)):
                    match_l[u] = w
                    match_r[w] = u
                return
            stack.append((z, iter(adj[z])))

    while bfs():
        for u in left:
            if u not in match_l:
                augment(u)
    return match_l


def bipartite_regular_coloring(g: Graph) -> EdgeColoring:
    """Proper coloring of an r-regular bipartite graph with palette exactly 1..r.

    Peels one perfect matching per color; regular bipartite graphs always have
    one, and the residue stays regular, so the peeling never gets stuck. Every
    vertex is covered by each matching, hence sees every color: the result is
    automatically an interval r-coloring.
    """
    r = g.regularity
    if not r:
        raise NotRegular(f"need an r-regular graph with r >= 1, degrees {set(g.degrees)}")
    ok, sides = is_bipartite(g)
    if not ok:
        raise NotBipartite("graph contains an odd cycle")
    left = [v for v in range(g.n) if sides[v] == 0]
    # neighbour -> edge id; a matched edge is popped, and the keys keep the
    # ascending-neighbour order in which _hopcroft_karp tries them
    adj = {u: dict(zip(g.adjacency[u], g.incident[u])) for u in left}
    colors = [0] * g.m
    for k in range(1, r + 1):
        matching = _hopcroft_karp(left, adj)
        if len(matching) != len(left):
            raise AssertionError("perfect matching missing in a regular bipartite graph")
        for u in left:
            colors[adj[u].pop(matching[u])] = k
    return EdgeColoring(tuple(colors))


def _overfull(g: Graph, k: int | None = None) -> bool:
    """Whether some component C has more than d*floor(|V(C)|/2) edges, with
    d = k, or C's own max degree when k is None: then chi'(C) > d, as each
    of d color classes is a matching of at most |V(C)|//2 edges."""
    degrees = g.degrees
    for vertices, edges in g._walk[2]:
        d = max([degrees[v] for v in vertices]) if k is None else k
        if len(edges) > d * (len(vertices) // 2):
            return True
    return False


class ChromaticIndexResult(_Record):
    chi_prime: int
    witness: EdgeColoring
    class1: bool


def _max_degree_search(g: Graph, tracker: Budget) -> tuple[list[int], tuple[int, ...] | None]:
    """The chi' search's edge order, descending degree sum with BFS order
    breaking ties, and the first proper max-degree coloring in that order,
    or None when none exists (at once where g is overfull at its max degree).
    """
    # a stable sort keeps BFS order among equal degree sums
    order = sorted(
        bfs_edge_order(g), key=lambda e: -(g.degrees[g.edges[e][0]] + g.degrees[g.edges[e][1]])
    )
    if _overfull(g, g.max_degree):
        return order, None
    return order, first_coloring(g, order, g.max_degree, tracker, interval=False)


def exact_chromatic_index(g: Graph, budget: int = DEFAULT_BUDGET) -> ChromaticIndexResult:
    """Exact chi' with a witness; raises BudgetExceeded when the search gives up.

    Only max degree and max degree + 1 are possible for simple graphs, so the
    search at max degree decides the class and the fallback always succeeds.
    Each search finds the first proper edge k-coloring in lexicographic order,
    trying edges in descending degree-sum order, BFS order breaking ties.
    """
    delta = g.max_degree
    if g.m == 0:
        return ChromaticIndexResult(0, EdgeColoring(()), True)
    tracker = Budget(budget)
    order, found = _max_degree_search(g, tracker)
    if found is not None:
        return ChromaticIndexResult(delta, EdgeColoring(found), True)
    # no overfull test at delta + 1: a component of n_c vertices has at most
    # n_c * min(delta, n_c - 1) / 2 <= (delta + 1) * (n_c // 2) edges
    found = first_coloring(g, order, delta + 1, tracker, interval=False)
    if found is None:
        raise AssertionError("no (max degree + 1)-edge-coloring found; simple graphs always have one")
    return ChromaticIndexResult(delta + 1, EdgeColoring(found), False)


def regular_membership(g: Graph, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether a regular graph admits an interval coloring: true iff chi' = max degree.

    Edgeless graphs are vacuously class 1 but admit no coloring that uses
    color 1, so they are reported as non-members; so is a graph with an
    overfull component, before any search (chi' = max degree + 1, Vizing).
    Only the max-degree search runs, so the budget need not cover a
    (max degree + 1)-coloring of a class-2 graph.
    """
    if g.regularity is None:
        raise NotRegular(f"graph is not regular, degrees {set(g.degrees)}")
    return g.m > 0 and _max_degree_search(g, Budget(budget))[1] is not None
