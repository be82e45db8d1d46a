"""Edge colorings, the interval-coloring verifier, and file and DOT export.

An interval t-coloring is a proper edge coloring with colors 1..t in which
every color is used at least once and the colors incident to each vertex form
a contiguous integer interval. The verifier here is the ground truth that all
constructors and the exhaustive search must satisfy.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations, islice

from .errors import BadParameter
from .graph import Graph, _Record, data_lines


class EdgeColoring(_Record):
    """Total map from edge ids to positive integer colors (a plain array)."""

    colors: tuple[int, ...]

    def __post_init__(self):
        if min(self.colors, default=1) < 1:
            c = next(c for c in self.colors if c < 1)
            raise ValueError(f"colors must be positive integers, got {c}")

    @cached_property
    def palette(self) -> frozenset[int]:
        return frozenset(self.colors)

    @property
    def t(self) -> int:
        """Number of distinct colors used."""
        return len(self.palette)


class PropernessViolation(_Record):
    vertex: int
    first_edge: int
    second_edge: int
    color: int


class GapViolation(_Record):
    vertex: int
    colors: tuple[int, ...]


class IntervalReport(_Record):
    """Verdict of verify_interval; valid iff all three violation lists are empty.

    unused_colors lists palette mismatches against 1..t: colors in that range
    with no edge, followed by any used colors outside it (so a valid report
    implies the palette is exactly 1..t).
    """

    valid: bool
    t: int
    properness_violations: tuple[PropernessViolation, ...]
    gap_violations: tuple[GapViolation, ...]
    unused_colors: tuple[int, ...]


def _check_total(g: Graph, coloring: EdgeColoring) -> None:
    if len(coloring.colors) != g.m:
        raise ValueError(
            f"coloring has {len(coloring.colors)} entries for a graph with {g.m} edges"
        )


def verify_interval(g: Graph, coloring: EdgeColoring, t: int) -> IntervalReport:
    """Check properness, full palette usage 1..t, and per-vertex contiguity.

    All violations are reported, not just the first; violations are data,
    not exceptions.
    """
    _check_total(g, coloring)
    if t < 0:
        raise ValueError(f"declared color count must be >= 0, got {t}")

    colors = coloring.colors
    properness: list[PropernessViolation] = []
    gaps: list[GapViolation] = []
    for v, edges in enumerate(g.incident):
        if not edges:
            continue
        # distinct colors spanning exactly the degree: proper and gap-free here;
        # colors read from files may be huge, so nothing is indexed by color
        seen = [colors[e] for e in edges]
        lo, hi = min(seen), max(seen)
        if hi - lo + 1 == len(seen) == len(set(seen)):
            continue
        by_color: dict[int, list[int]] = {}
        for e in edges:
            by_color.setdefault(colors[e], []).append(e)
        for color, es in sorted(by_color.items()):
            if len(es) > 1:
                for a, b in combinations(es, 2):
                    properness.append(PropernessViolation(v, a, b, color))
        if hi - lo + 1 != len(by_color):
            gaps.append(GapViolation(v, tuple(sorted(by_color))))

    used = coloring.palette
    mismatches = [c for c in range(1, t + 1) if c not in used]
    mismatches += sorted(c for c in used if c > t)
    unused = tuple(mismatches)

    return IntervalReport(
        valid=not (properness or gaps or unused),
        t=t,
        properness_violations=tuple(properness),
        gap_violations=tuple(gaps),
        unused_colors=unused,
    )


def write_coloring(path, g: Graph, coloring: EdgeColoring) -> None:
    """Coloring file: "t=<K>" header, then one "edge_id u v color" line per edge."""
    _check_total(g, coloring)
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"t={coloring.t}\n")
        for k, (u, v) in enumerate(g.edges):
            fh.write(f"{k} {u} {v} {coloring.colors[k]}\n")


def load_coloring(path, g: Graph) -> tuple[int, EdgeColoring]:
    """Read a coloring file and validate it against a graph's edge ids.

    Every row is parsed before the graph is consulted, so a malformed file
    gets the same message whatever the graph: the row count, the declared t
    and the endpoints are checked after the parse, in that order.
    """
    rows = data_lines(path)
    if not rows or not rows[0].startswith("t="):
        raise BadParameter(f"{path}: missing t=<K> header")
    try:
        t = int(rows[0][2:])
    except ValueError:
        raise BadParameter(f"{path}: malformed header {rows[0]!r}") from None
    if t < 0:
        raise BadParameter(f"{path}: declared color count must be >= 0, got {t}")
    m = len(rows) - 1
    edges = g.edges
    n_edges = len(edges)
    colors = [0] * m  # 0 marks an id no row has given yet
    odd: list[tuple[int, int, int]] = []  # rows whose endpoints are not edge k's
    try:
        for row in islice(rows, 1, None):
            k, u, v, c = row.split()  # a wrong token count fails the unpack
            k, u, v, c = int(k), int(u), int(v), int(c)
            if not 0 <= k < m:
                raise BadParameter(f"{path}: edge id {k} outside 0..{m - 1}")
            if colors[k]:
                raise BadParameter(f"{path}: duplicate edge id {k}")
            if c < 1:
                raise BadParameter(f"{path}: edge {k} has non-positive color {c}")
            colors[k] = c
            if k >= n_edges or ((u, v) != edges[k] and (v, u) != edges[k]):
                odd.append((k, u, v))
    except ValueError:
        raise BadParameter(f"{path}: malformed coloring line {row!r}") from None
    # m lines with m distinct in-range ids: every slot is filled here
    if m != n_edges:
        raise BadParameter(f"{path}: {m} colored edges for a graph with {n_edges}")
    if t > n_edges:  # m edges carry at most m colors, and the palette check is O(t)
        raise BadParameter(f"{path}: declared color count must be <= the edge count {n_edges}, got {t}")
    if odd:
        k, u, v = min(odd)  # the lowest id, whatever the rows' order in the file
        raise BadParameter(
            f"{path}: edge id {k} is ({u},{v}) but the graph has {edges[k]}"
        )
    return t, EdgeColoring(tuple(colors))


# fixed display palette; edge color ids cycle through it
PALETTE = (
    "red",
    "blue",
    "forestgreen",
    "orange",
    "purple",
    "brown",
    "cyan3",
    "magenta",
    "gold",
    "gray40",
    "darkgreen",
    "navy",
)


def to_dot(g: Graph, coloring: EdgeColoring | None = None) -> str:
    """Undirected DOT text; with a coloring, edges get label=<color> and a
    display color cycled from the fixed 12-entry palette."""
    if coloring is not None:
        _check_total(g, coloring)
    lines = ["graph {"]
    for v in range(g.n):
        lines.append(f"  {v};")
    for k, (u, v) in enumerate(g.edges):
        if coloring is None:
            lines.append(f"  {u} -- {v};")
        else:
            c = coloring.colors[k]
            display = PALETTE[(c - 1) % len(PALETTE)]
            lines.append(f'  {u} -- {v} [label={c} color="{display}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
