"""Exhaustive ground truth for small graphs: interval-colorability, the least
and greatest feasible color counts, and witness colorings.

The search (gapfree.search) colors edges in BFS order. Colorings are probed
for every t from the max degree up to a proven ceiling, so "no result" means
"no such coloring exists", not "gave up" -- giving up is a distinct
budget-exceeded state.
"""

from __future__ import annotations

from .colorings import EdgeColoring
from .errors import BudgetExceeded
from .graph import Graph, _Record, bfs_edge_order
from .search import DEFAULT_BUDGET, Budget, first_coloring

COMPLETE = "complete"
BUDGET_EXCEEDED = "budget_exceeded"


class OracleResult(_Record):
    """member/w/W are None where the verdict is unknown (budget exceeded)."""

    member: bool | None
    w: int | None
    W: int | None
    witnesses: dict[int, EdgeColoring]
    nodes_explored: int = 0
    status: str = COMPLETE


def find_interval_coloring(
    g: Graph, t: int, budget: int = DEFAULT_BUDGET
) -> EdgeColoring | None:
    """First interval t-coloring in search order, or None if provably absent.

    Raises BudgetExceeded when the search gives up, so None is always a proof.
    """
    if t < 1 or t < g.max_degree or t > g.m:
        # properness needs t >= max degree; using every color needs t <= |E|
        return None
    found = first_coloring(g, bfs_edge_order(g), t, Budget(budget), interval=True)
    return EdgeColoring(found) if found is not None else None


def search_ceiling(g: Graph) -> int:
    """Largest t worth probing: the 2|V|-4 bound (2|V|-3 below 3 vertices),
    never below the max degree, capped at |E| since every color needs an edge."""
    raw = 2 * g.n - 4 if g.n >= 3 else 2 * g.n - 3
    return min(max(g.max_degree, raw), g.m)


def oracle(g: Graph, budget: int = DEFAULT_BUDGET) -> OracleResult:
    """Exact membership, least and greatest feasible t, and witnesses.

    For regular graphs the feasible t values form a contiguous range starting
    at the max degree, so the scan stops at the first failure; non-regular
    graphs get every t probed up to the ceiling.
    """
    if g.m == 0:
        return OracleResult(member=False, w=None, W=None, witnesses={})
    tracker = Budget(budget)
    order = bfs_edge_order(g)
    regular = g.regularity is not None
    witnesses: dict[int, EdgeColoring] = {}
    status = COMPLETE
    try:
        # t runs from the max degree up to at most |E|, so none of
        # find_interval_coloring's early exits applies
        for t in range(g.max_degree, search_ceiling(g) + 1):
            found = first_coloring(g, order, t, tracker, interval=True)
            if found is not None:
                witnesses[t] = EdgeColoring(found)
            elif regular:
                break
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
