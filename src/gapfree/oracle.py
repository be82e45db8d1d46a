"""Exhaustive ground truth for small graphs: interval-colorability, the least
and greatest feasible color counts, and witness colorings.

The search (gapfree.search) colors edges in BFS order. Colorings are probed
for every t from the max degree up to a proven ceiling, so "no result" means
"no such coloring exists", not "gave up" -- giving up is a distinct
budget-exceeded state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .colorings import EdgeColoring
from .errors import BudgetExceeded
from .graph import Graph, bfs_edge_order
from .limits import DEFAULT_BUDGET, Budget
from .search import first_coloring

COMPLETE = "complete"
BUDGET_EXCEEDED = "budget_exceeded"


@dataclass(frozen=True)
class OracleResult:
    """member/w/W are None where the verdict is unknown (budget exceeded)."""

    member: Optional[bool]
    w: Optional[int]
    W: Optional[int]
    witnesses: dict[int, EdgeColoring] = field(default_factory=dict)
    nodes_explored: int = 0
    status: str = COMPLETE


def _interval_search(g: Graph, t: int, budget: Budget) -> Optional[EdgeColoring]:
    if t < 1 or t < g.max_degree or t > g.m:
        # properness needs t >= max degree; using every color needs t <= |E|
        return None
    found = first_coloring(g, bfs_edge_order(g), t, budget, interval=True)
    return EdgeColoring(found) if found is not None else None


def find_interval_coloring(
    g: Graph, t: int, budget: int = DEFAULT_BUDGET
) -> Optional[EdgeColoring]:
    """First interval t-coloring in search order, or None if provably absent.

    Raises BudgetExceeded when the search gives up, so None is always a proof.
    """
    return _interval_search(g, t, Budget(budget))


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
        return OracleResult(member=False, w=None, W=None)
    tracker = Budget(budget)
    delta = g.max_degree
    ceiling = search_ceiling(g)
    regular = len(set(g.degrees)) == 1
    feasible: list[int] = []
    witnesses: dict[int, EdgeColoring] = {}
    try:
        for t in range(delta, ceiling + 1):
            found = _interval_search(g, t, tracker)
            if found is not None:
                feasible.append(t)
                witnesses[t] = found
            elif regular:
                break
    except BudgetExceeded:
        # every t below the interrupted probe completed, so a found minimum
        # is the true least value; the rest stays unknown
        return OracleResult(
            member=True if feasible else None,
            w=feasible[0] if feasible else None,
            W=None,
            witnesses=witnesses,
            nodes_explored=tracker.used,
            status=BUDGET_EXCEEDED,
        )
    if feasible:
        return OracleResult(
            member=True,
            w=feasible[0],
            W=feasible[-1],
            witnesses=witnesses,
            nodes_explored=tracker.used,
            status=COMPLETE,
        )
    return OracleResult(
        member=False, w=None, W=None, witnesses={},
        nodes_explored=tracker.used, status=COMPLETE,
    )


@dataclass(frozen=True)
class CrossCheckReport:
    consistent: bool
    construction_t: int
    oracle_w: Optional[int]
    oracle_W: Optional[int]
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
