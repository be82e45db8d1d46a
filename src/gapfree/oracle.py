"""Exhaustive ground truth for small graphs: interval-colorability, the least
and greatest feasible color counts, and witness colorings.

The search (gapfree.search) colors edges in BFS order. Colorings are probed
for every t from the max degree up to a proven ceiling, so "no result" means
"no such coloring exists", not "gave up" -- giving up is a distinct
budget-exceeded state. The ceiling starts at search_ceiling (2|V|-4, at most
|E|); in a non-regular graph it drops to proven_ceiling's degree-path bound
at the first t without a coloring: colors along a path rise by at most
deg - 1 per vertex, so no interval coloring spans more colors than a
component's paths allow; the BFS walk behind the edge order names them. The
same path lengths, handed to the search as each edge's eccentricity, confine
each edge's color to a window, and the class-1 premise (a member has
chromatic index equal to its max degree) settles overfull and class-2
graphs without a scan. On small graphs the search also skips, by itself,
colorings that a symmetry maps to a lexicographically lesser one.
"""

from __future__ import annotations

from itertools import islice

from .colorings import EdgeColoring
from .errors import BudgetExceeded
from .graph import Graph, _Record, bfs_edge_order, is_bipartite
from .search import DEFAULT_BUDGET, Budget, first_coloring

COMPLETE = "complete"
BUDGET_EXCEEDED = "budget_exceeded"
OVERFULL = "overfull"
CLASS_2 = "class 2"


class OracleResult(_Record):
    """member/w/W are None where the verdict is unknown (budget exceeded)."""

    member: bool | None
    w: int | None
    W: int | None
    witnesses: dict[int, EdgeColoring]
    nodes_explored: int = 0
    status: str = COMPLETE
    premise: str | None = None  # OVERFULL or CLASS_2 where it settled a non-member


def find_interval_coloring(
    g: Graph, t: int, budget: int = DEFAULT_BUDGET
) -> EdgeColoring | None:
    """First interval t-coloring in search order, or None if provably absent.

    Raises BudgetExceeded when the search gives up, so None is always a proof.
    """
    if t < 1 or t < g.max_degree or t > g.m or _overfull(g):
        # properness needs t >= max degree; using every color needs t <= |E|;
        # an overfull component has no interval coloring (see oracle)
        return None
    found = first_coloring(g, bfs_edge_order(g), t, Budget(budget), interval=True)
    return EdgeColoring(found) if found is not None else None


def search_ceiling(g: Graph) -> int:
    """The ceiling that needs no path computation: the 2|V|-4 bound (2|V|-3
    below 3 vertices), never below the max degree, capped at |E| since every
    color needs an edge. oracle() probes up to it until its first absence."""
    raw = 2 * g.n - 4 if g.n >= 3 else 2 * g.n - 3
    return min(max(g.max_degree, raw), g.m)


def _path_weights(g: Graph, weight: list[int], source: int) -> list[int]:
    """D(source, y) for every vertex y: the least sum of weight over the
    vertices of a source-y path, both ends included; -1 off source's
    component. Dijkstra where entering y costs weight[y] from any neighbour,
    so y's first distance is final and each vertex is pushed once."""
    # imported here: every gapfree process imports this module at start-up
    from heapq import heappop, heappush

    dist = [-1] * g.n
    dist[source] = weight[source]
    heap = [(weight[source], source)]
    while heap:
        d, u = heappop(heap)
        for v in g.adjacency[u]:
            if dist[v] < 0:
                dist[v] = dv = d + weight[v]
                heappush(heap, (dv, v))
    return dist


def _degree_path_bound(g: Graph) -> tuple[int, list[int] | None]:
    """The degree-path bound on t, and each edge's eccentricity when one
    component holds every edge (else None).

    With vertex weight deg - 1, gap(e, f) is the min over x in e, y in f of
    D(x, y), and ecc(e) the max of gap(e, f) over the edges f of e's
    component. Along a path x0..xk from an end of e to an end of f,
    consecutive path edges (and e at x0, f at xk) meet at a vertex whose
    colors form an interval of deg colors, so they differ by at most deg - 1
    there: the colors of e and f differ by at most gap(e, f). So a
    component's colors fit in an interval of 1 + max ecc colors, the
    components' colors together cover 1..t, and the bound is the sum of
    1 + max ecc over the components (isolated vertices add 0). In one
    component, edges colored 1 and t lie within ecc(e) of e, so e's color
    lies in [t - ecc(e), 1 + ecc(e)]. D is symmetric, so each unordered pair
    (with e = f) is visited once; a pair across components has gap -1.
    """
    weight = [d - 1 for d in g.degrees]
    rows = [_path_weights(g, weight, v) if g.adjacency[v] else None for v in range(g.n)]
    ecc = [0] * g.m
    for i, (a, b) in enumerate(g.edges):
        near = list(map(min, rows[a], rows[b]))  # min over x in e of D(x, y)
        gaps = [min(near[c], near[d]) for c, d in islice(g.edges, i, None)]
        ecc[i:] = map(max, ecc[i:], gaps)  # gap(e, f) for every f >= e
        ecc[i] = max(ecc[i], max(gaps))
    root = g._walk[2]
    widest: dict[int, int] = {}  # per component, keyed by its BFS root
    for (a, _), gap in zip(g.edges, ecc):
        widest[root[a]] = max(widest.get(root[a], 0), gap)
    bound = sum(1 + gap for gap in widest.values())
    return bound, ecc if len(widest) == 1 else None


def proven_ceiling(g: Graph) -> tuple[int, str]:
    """The least proven upper bound on the t of any interval t-coloring, and
    the rule that gave it: "degree-path" (_degree_path_bound, also on a tie)
    or "2|V|-4" where search_ceiling is lower.

    search_ceiling's |E| cap never wins: 1 + D over an induced path counts
    the edges with an end on it. Costs a Dijkstra per vertex and a pass over
    the unordered edge pairs; oracle() pays it only once a probe has proved
    absence.
    """
    path = _degree_path_bound(g)[0]
    ceiling = search_ceiling(g)
    return (path, "degree-path") if path <= ceiling else (ceiling, "2|V|-4")


def _overfull(g: Graph) -> bool:
    """Whether a connected component C has more than D(C)*floor(|V(C)|/2)
    edges, D(C) its max degree: C is then class 2, as each of D(C) color
    classes is a matching of at most |V(C)|//2 edges."""
    root = g._walk[2]
    size = [0] * g.n
    twice_m = [0] * g.n
    top = [0] * g.n
    for v, d in enumerate(g.degrees):
        r = root[v]
        size[r] += 1
        twice_m[r] += d
        if d > top[r]:
            top[r] = d
    return any(e > 2 * d * (s // 2) for s, e, d in zip(size, twice_m, top))


def oracle(g: Graph, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact membership, least and greatest feasible t, and witnesses.

    For regular graphs the feasible t values form a contiguous range starting
    at the max degree, so the scan stops at the first failure. Non-regular
    graphs get every t probed up to search_ceiling until a probe proves
    absence; from then on, up to proven_ceiling. So a graph colorable at
    every t up to |E| (a path, say) never pays for the all-pairs paths, and
    that computation spends no budget ticks. Two more rules settle or shrink
    absence proofs, and neither removes a coloring:

    - Class-1 premise (Asratian and Kamalian, J. Combin. Theory B 62, 1994):
      folding the colors of an interval coloring mod the max degree D gives a
      proper D-coloring, since each vertex's deg <= D consecutive colors stay
      distinct mod D. So a graph with an overfull component (_overfull) is a
      complete non-member at 0 nodes, each component judged by its own max
      degree as a component of a member is a member. And when the t = D probe
      proves absence in a non-regular graph, a proper D-coloring search runs
      on the same budget; if it finds none the graph is not a member. A
      bipartite graph skips it: it is class 1 (Koenig). A regular graph needs
      no such search, as its t = D probe asks the same question. The result's
      premise names the rule that settled a non-member this way.
    - Degree-path windows: once the first absence has computed the
      eccentricities behind proven_ceiling, and one component holds every
      edge, every later probe passes them to the search, which confines
      edge e to the colors [t - ecc(e), 1 + ecc(e)] (see _degree_path_bound).

    On graphs with at most SYMMETRY_VERTICES vertices the search applies
    the lex-leader cut and the orbit bound to every interval probe by itself
    (see first_coloring), from automorphism generators and tables computed
    once per graph with no budget ticks. Each probe still returns its least
    coloring, so no witness moves. The proper Delta-search gets none: its
    first-use color order already breaks the color symmetry.
    """
    if g.m == 0:
        return OracleResult(member=False, w=None, W=None, witnesses={})
    if _overfull(g):
        return OracleResult(member=False, w=None, W=None, witnesses={}, premise=OVERFULL)
    tracker = Budget(budget)
    order = bfs_edge_order(g)
    regular = g.regularity is not None
    witnesses: dict[int, EdgeColoring] = {}
    status = COMPLETE
    premise = None
    ceiling = search_ceiling(g)
    path = ecc = None  # the degree-path bound, paid for at the first absence
    t = g.max_degree
    try:
        # t runs from the max degree up to at most |E|, and no component is
        # overfull, so none of find_interval_coloring's early exits applies
        while t <= ceiling:
            found = first_coloring(g, order, t, tracker, interval=True, ecc=ecc)
            if found is not None:
                witnesses[t] = EdgeColoring(found)
            elif regular:
                break
            elif path is None:
                if (not witnesses and not is_bipartite(g)[0]
                        and first_coloring(g, order, t, tracker, interval=False) is None):
                    premise = CLASS_2
                    break
                path, ecc = _degree_path_bound(g)
                ceiling = min(ceiling, path)
            t += 1
    except BudgetExceeded:
        # every t below the interrupted probe completed, so a found minimum
        # is the true least value; the rest stays unknown
        status = BUDGET_EXCEEDED
    return OracleResult(
        member=True if witnesses else (False if status == COMPLETE else None),
        w=min(witnesses, default=None),
        W=max(witnesses, default=None) if status == COMPLETE else None,
        witnesses=witnesses,
        nodes_explored=tracker.used,
        status=status,
        premise=premise,
    )


class CrossCheckReport(_Record):
    consistent: bool
    construction_t: int
    oracle_w: int | None
    oracle_W: int | None
    oracle_status: str
    notes: tuple[str, ...]


def cross_validate(coloring: EdgeColoring, bracket: OracleResult) -> CrossCheckReport:
    """Check a construction's color count against an oracle bracket for the
    same graph. Any contradiction is a build-breaking defect, reported as data."""
    t = coloring.t
    notes: list[str] = []
    consistent = True
    if bracket.member is False:
        consistent = False
        notes.append("oracle proves non-membership yet a construction produced a coloring")
    if bracket.w is not None and bracket.w > t:
        consistent = False
        notes.append(f"oracle least count {bracket.w} exceeds construction count {t}")
    if bracket.status == COMPLETE and bracket.W is not None and t > bracket.W:
        consistent = False
        notes.append(f"construction count {t} exceeds oracle greatest count {bracket.W}")
    if bracket.status != COMPLETE:
        notes.append("oracle bracket is partial (budget exceeded)")
    return CrossCheckReport(consistent, t, bracket.w, bracket.W, bracket.status, tuple(notes))
