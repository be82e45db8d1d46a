"""Exhaustive ground truth for small graphs: interval-colorability, the least
and greatest feasible color counts, and witness colorings.

The search (gapfree.search) colors edges in BFS order. Colorings are probed
for every t from the max degree up to a proven ceiling, so "no result" means
"no such coloring exists", not "gave up" -- giving up is a distinct
budget-exceeded state. One set-up, _rule_out, gives oracle() and
find_interval_coloring() the rules that need no search, each read off the
components that the graph's one BFS walk lists: the overfull count of the
class-1 premise (a member has chromatic index equal to its max degree), the
degree-parity floor, and search_ceiling (2|V|-4, at most |E|). The
feasible t of any graph form one interval, so the scan ends at the first t
without a coloring above a witness. At an absence below the first witness
the ceiling drops to proven_ceiling's degree-path bound instead: colors
along a path rise by at most deg - 1 per vertex, so no interval coloring
spans more colors than a component's paths allow. A proper max-degree
search settles class-2 graphs without a scan. On small graphs the search
also skips, by itself, colorings that a symmetry maps to a lexicographically
lesser one.
"""

from __future__ import annotations

from collections import Counter
from functools import reduce
from heapq import heappop, heappush
from itertools import combinations, islice
from math import comb
from operator import xor

from .chromatic import _overfull
from .colorings import EdgeColoring
from .errors import BudgetExceeded
from .graph import Graph, _Record, bfs_edge_order, is_bipartite
from .search import DEFAULT_BUDGET, Budget, first_coloring

COMPLETE = "complete"
BUDGET_EXCEEDED = "budget_exceeded"
OVERFULL = "overfull"
CLASS_2 = "class 2"
PARITY = "parity"
# the parity floor enumerates, per degree class, the XORs of its start sets,
# and folds the classes of a component into one set of XORs; past this many
# in either it rules nothing out at that t. The 1,245 non-empty networkx
# atlas graphs need at most 219 start sets in one class and 174 folded XORs
PARITY_START_SETS = 256


class OracleResult(_Record):
    """member/w/W are None where the verdict is unknown (budget exceeded)."""

    member: bool | None
    w: int | None
    W: int | None
    witnesses: dict[int, EdgeColoring]
    nodes_explored: int = 0
    status: str = COMPLETE
    # OVERFULL, PARITY or CLASS_2 where that premise settled a non-member
    premise: str | None = None


def find_interval_coloring(
    g: Graph, t: int, budget: int = DEFAULT_BUDGET
) -> EdgeColoring | None:
    """First interval t-coloring in search order, or None if provably absent:
    a t outside _rule_out's [floor, ceiling] is absent without a search.

    Raises BudgetExceeded when the search gives up, so None is always a proof.
    """
    if not g.m:  # the empty coloring is its one interval coloring, with t = 0
        return EdgeColoring(()) if t == 0 else None
    _, floor, ceiling = _rule_out(g)
    if not floor <= t <= ceiling:
        return None
    found = first_coloring(g, bfs_edge_order(g), t, Budget(budget), interval=True)
    return EdgeColoring(found) if found is not None else None


def search_ceiling(g: Graph) -> int:
    """The ceiling that needs no path computation: the 2|V|-4 bound (2|V|-3
    below 3 vertices), never below the max degree, capped at |E| since every
    color needs an edge. oracle() probes up to it until its first absence:
    above a witness that ends the scan, below one it brings in
    proven_ceiling."""
    raw = 2 * g.n - 4 if g.n >= 3 else 2 * g.n - 3
    return min(max(g.max_degree, raw), g.m)


def _path_weights(g: Graph, weight: list[int], source: int) -> list[int]:
    """D(source, y) for every vertex y: the least sum of weight over the
    vertices of a source-y path, both ends included; -1 off source's
    component. Dijkstra where entering y costs weight[y] from any neighbour,
    so y's first distance is final and each vertex is pushed once."""
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


def _degree_path_bound(g: Graph) -> int:
    """The degree-path bound on t.

    With vertex weight deg - 1, gap(e, f) is the min over x in e, y in f of
    D(x, y). Along a path x0..xk from an end of e to an end of f,
    consecutive path edges (and e at x0, f at xk) meet at a vertex whose
    colors form an interval of deg colors, so they differ by at most deg - 1
    there: the colors of e and f differ by at most gap(e, f). So a
    component's colors fit in an interval of 1 + its largest gap(e, f)
    colors, the components' colors together cover 1..t, and the bound is
    the sum of these terms over the components (isolated vertices add 0).
    D is symmetric, so each unordered pair of edges of one component (with
    e = f) is visited once.
    """
    weight = [d - 1 for d in g.degrees]
    bound = 0
    for vertices, edges in g._walk[2]:
        rows = {v: _path_weights(g, weight, v) for v in vertices}
        ends = [g.edges[e] for e in edges]
        widest = 0  # the largest gap(e, f) of the component so far
        for i, (a, b) in enumerate(ends):
            near = list(map(min, rows[a], rows[b]))  # min over x in e of D(x, y)
            gaps = [min(near[c], near[d]) for c, d in islice(ends, i, None)]
            widest = max(widest, max(gaps))  # gap(e, f) for every f from e on
        bound += 1 + widest
    return bound


def proven_ceiling(g: Graph) -> tuple[int, str]:
    """The least proven upper bound on the t of any interval t-coloring, and
    the rule that gave it: "degree-path" (_degree_path_bound, also on a tie)
    or "2|V|-4" where search_ceiling is lower.

    search_ceiling's |E| cap never wins: 1 + D over an induced path counts
    the edges with an end on it. Costs a Dijkstra per vertex and a pass over
    the unordered edge pairs; oracle() pays it only at an absence below its
    first witness.
    """
    path = _degree_path_bound(g)
    ceiling = search_ceiling(g)
    return (path, "degree-path") if path <= ceiling else (ceiling, "2|V|-4")


def _parity_floor(g: Graph, limit: int) -> int:
    """The least t in [max degree, limit] at which every component passes
    the degree-parity test, or limit + 1 if none does: no interval coloring
    has fewer colors.

    In an interval t-coloring vertex v holds the colors [s_v, s_v + deg(v)
    - 1], its block, for a start s_v in [1, t - deg(v) + 1]. Each color
    class is a matching, so each color lies in the blocks of an even number
    of a component's vertices: the blocks, as color masks, XOR to zero. Of
    the N_d vertices of degree d, those sharing a start cancel in pairs; the
    starts held by an odd number of them form a set of at most N_d starts,
    with N_d's parity, and any such set arises (the other vertices, an even
    number, pair up on one start). So a component passes at t when one such
    start set per degree class gives blocks that XOR to zero
    (_parity_passes), and the components of an interval t-coloring all do.
    The same starts serve at t + 1, so the scan stops at the first pass; a
    component whose every class has even size passes with no odd starts.
    """
    degrees = g.degrees
    t = g.max_degree
    for vertices, _ in g._walk[2]:
        sizes = Counter([degrees[v] for v in vertices])  # degree -> class size
        if any(n % 2 for n in sizes.values()):
            while t <= limit and not _parity_passes(sizes, t):
                t += 1
    return t


def _parity_passes(sizes: dict[int, int], t: int) -> bool:
    """Whether a component with sizes[d] vertices of degree d has, at t, a
    start set per class whose blocks XOR to zero (see _parity_floor); also
    True once a class has, or the classes fold to, more than
    PARITY_START_SETS of them, as the test then rules nothing out.

    The blocks of one width start at distinct colors, so they are
    independent: distinct start sets give distinct XORs, and binomials
    count a class's sets before they are listed. Classes fold in by size,
    and the largest is only intersected with the fold.
    """
    per_class = []
    for d, n in sizes.items():
        starts = t - d + 1
        allowed = range(n % 2, min(n, starts) + 1, 2)  # sizes of a start set
        total = 0
        for j in allowed:
            total += comb(starts, j)
            if total > PARITY_START_SETS:
                return True
        blocks = [((1 << d) - 1) << s for s in range(starts)]
        per_class.append({reduce(xor, held, 0)
                          for j in allowed for held in combinations(blocks, j)})
    per_class.sort(key=len)
    fold = {0}
    for xors in per_class[:-1]:
        fold = {f ^ x for f in fold for x in xors}
        if len(fold) > PARITY_START_SETS:
            return True
    return not fold.isdisjoint(per_class[-1])


def _rule_out(g: Graph) -> tuple[str | None, int, int]:
    """(premise, floor, ceiling): every interval t-coloring of g has floor <=
    t <= ceiling, by search_ceiling and the parity floor. Where no t is left,
    premise names the rule, OVERFULL or PARITY; an edgeless graph gets floor
    1, ceiling 0 and no premise, as no coloring of it uses color 1."""
    if not g.m:
        return None, 1, 0
    ceiling = search_ceiling(g)
    if _overfull(g):
        return OVERFULL, ceiling + 1, ceiling
    floor = _parity_floor(g, ceiling)
    return (PARITY if floor > ceiling else None), floor, ceiling


def oracle(g: Graph, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact membership, least and greatest feasible t, and witnesses.

    The feasible t values form one interval [w, W], so the scan stops at
    the first t proved absent once any witness exists: for a connected
    member this is Asratian and Kamalian's interval-spectrum theorem
    (Kamalian 1990; see Petrosyan, Discrete Math. 310, 2010), and a
    disconnected one, sliding each component's colors along 1..t, has an
    interval t-coloring exactly for t from the largest w of its components
    to the sum of their W. A regular graph's first t, its max degree, is
    also its w, so its first absence always ends the scan. Before the first
    witness every t is probed up to search_ceiling until a probe proves
    absence; from then on, up to proven_ceiling. So a graph whose absences
    all lie above W (a path, grid 3x3) never pays for the all-pairs paths,
    and that computation spends no budget ticks. Two more rules settle or
    shrink absence proofs, none removing a coloring; _rule_out, which
    find_interval_coloring reads too, applies those that need no search:

    - Class-1 premise (Asratian and Kamalian, J. Combin. Theory B 62, 1994):
      folding the colors of an interval coloring mod the max degree D gives a
      proper D-coloring, since each vertex's deg <= D consecutive colors stay
      distinct mod D. So a graph with an overfull component (_overfull, by
      the component's own max degree, as a component of a member is a
      member) is a complete non-member at 0 nodes. And when the t = D probe
      proves absence in a non-regular graph, a proper D-coloring search runs
      on the same budget; if it finds none the graph is not a member. A
      bipartite graph skips it: it is class 1 (Koenig). A regular graph needs
      no such search, as its t = D probe asks the same question. The result's
      premise names the rule that settled a non-member this way.
    - Degree-parity premise: every t below _parity_floor, whose blocks of
      colors per vertex cannot XOR to zero in some component, is an absence
      at 0 nodes (the first one still triggers the class-2 search and the
      degree-path bound). A floor above search_ceiling makes a complete
      non-member at 0 nodes with premise PARITY. For K_{m,n} with m or n odd
      the floor is Kamalian's w = m + n - gcd(m, n) (1989).

    On graphs with at most SYMMETRY_VERTICES vertices the search applies
    the lex-leader cut and the orbit bound to every interval probe by itself
    (see first_coloring), from automorphism generators and tables computed
    once per graph with no budget ticks. Each probe still returns its least
    coloring, so no witness moves. The proper Delta-search gets none: its
    first-use color order already breaks the color symmetry.
    """
    premise, floor, ceiling = _rule_out(g)
    if floor > ceiling:
        return OracleResult(member=False, w=None, W=None, witnesses={}, premise=premise)
    tracker = Budget(budget)
    order = bfs_edge_order(g)
    regular = g.regularity is not None
    witnesses: dict[int, EdgeColoring] = {}
    status = COMPLETE
    path = None  # the degree-path bound, paid for at an absence below w
    t = g.max_degree
    try:
        while t <= ceiling:  # below the floor each t is an absence at 0 nodes
            found = None
            if t >= floor:
                found = first_coloring(g, order, t, tracker, interval=True)
            if found is not None:
                witnesses[t] = EdgeColoring(found)
            elif regular or witnesses:
                break
            elif path is None:
                if (not is_bipartite(g)[0]
                        and first_coloring(g, order, t, tracker, interval=False) is None):
                    premise = CLASS_2
                    break
                path = _degree_path_bound(g)
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
