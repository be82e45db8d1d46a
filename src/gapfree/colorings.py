"""Edge colorings, the interval-coloring verifier, and file and DOT export.

An interval t-coloring is a proper edge coloring with colors 1..t in which
every color is used at least once and the colors incident to each vertex form
a contiguous integer interval. The verifier here is the ground truth that all
constructors and the exhaustive search must satisfy.
"""

from __future__ import annotations

from functools import cached_property
from itertools import chain, combinations
from operator import itemgetter

from .errors import BadParameter
from .graph import Graph, _numbers, _Record, block_rows, read_blocks, write_rows

# the width of the verifier's per-vertex colour masks: a vertex with a colour
# of this or more takes the exact pass
_MASK_BITS = 1024


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

    edges = g.edges
    colors = coloring.colors
    # each vertex's colours in one pass, as one int per vertex whose bit c
    # marks colour c. A repeat, or a colour of _MASK_BITS or more, makes it
    # -1, whose every bit is set, so the vertex stays failed; colours read
    # from files may be huge, so no shift passes _MASK_BITS
    mask = [0] * g.n
    for (u, v), c in zip(edges, colors):
        if c < _MASK_BITS:
            bit = 1 << c
            s = mask[u]
            mask[u] = -1 if s & bit else s | bit
            s = mask[v]
            mask[v] = -1 if s & bit else s | bit
        else:
            mask[u] = mask[v] = -1
    # distinct colours in one run of set bits: proper and gap-free there; the
    # rest go to the exact pass, which finds their edge ids again
    failing = {x: [] for x, s in enumerate(mask) if s < 0 or (s | s - 1) + 1 & s}
    del mask
    if failing:
        for k, (u, v) in enumerate(edges):
            if u in failing:
                failing[u].append(k)
            if v in failing:
                failing[v].append(k)
    properness: list[PropernessViolation] = []
    gaps: list[GapViolation] = []
    for v, ids in failing.items():
        by_color: dict[int, list[int]] = {}
        for e in ids:
            by_color.setdefault(colors[e], []).append(e)
        for color, es in sorted(by_color.items()):
            if len(es) > 1:
                for a, b in combinations(es, 2):
                    properness.append(PropernessViolation(v, a, b, color))
        if max(by_color) - min(by_color) + 1 != len(by_color):
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
    edges = g.edges
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"t={coloring.t}\n")
        write_rows(fh, "%s %s %s %s\n", chain.from_iterable(zip(
            range(len(edges)), map(itemgetter(0), edges), map(itemgetter(1), edges),
            coloring.colors)))


def load_coloring(path, g: Graph) -> tuple[int, EdgeColoring]:
    """Read a coloring file and validate it against a graph's edge ids.

    The file is read once, by read_blocks, and no row is kept: each colour
    goes into the slot of its edge id. A strict block of rows (see
    graph._numbers) is taken whole when its ids are the next row indices,
    its ends are the graph's edges of those ids, in order, its colours are
    positive and its slots are empty: exactly the rows on which the row code
    below does nothing but fill those slots. Every other block goes through
    block_rows and the row code, with the same state. Faults are raised once
    the whole file is read, in this order: a non-ASCII byte anywhere, the
    header, the first faulty row in file order, then, against the graph, the
    row count, the declared t and the endpoints. A row's id must lie in
    0..rows-1, so a malformed file gets the same message whatever the graph;
    an id that the rows read so far do not pass is judged once the count is
    known.
    """
    edges = g.edges
    n_edges = len(edges)
    colors = [0] * n_edges  # 0 marks a slot no row has filled yet
    beyond: set[int] = set()  # ids without a slot, kept for the duplicate check
    # (row, id) for each row whose id is not below the count of rows read so
    # far and is above every id listed before it; as the count only grows,
    # the first listed id the final count does not pass is the first row
    # with an id out of range
    ahead: list[tuple[int, int]] = []
    odd: list[tuple[int, int, int]] = []  # rows whose endpoints are not edge k's
    header = t = None
    fault = None  # the first other fault, which ends the parse
    m = 0  # the rows after the header, parsed or only counted
    for block in read_blocks(path):
        nums = _numbers(block, b"   \n") if t is not None and fault is None else None
        if nums is not None:
            i = m + len(nums) // 4
            if (nums[::4] == list(range(m, i)) and min(nums[3::4]) > 0
                    and not any(colors[m:i])
                    and tuple(zip(nums[1::4], nums[2::4])) == edges[m:i]):
                colors[m:i] = nums[3::4]
                m = i
                continue
        for row in block_rows(path, block):
            if header is None:
                header = row
                if not row.startswith("t="):
                    fault = f"{path}: missing t=<K> header"
                    continue
                try:
                    t = int(row[2:])
                except ValueError:
                    fault = f"{path}: malformed header {row!r}"
                    continue
                if t < 0:
                    fault = f"{path}: declared color count must be >= 0, got {t}"
                continue
            i = m
            m += 1
            if fault is not None:
                continue  # the rows after a faulty one are only counted
            try:
                k, u, v, c = row.split()  # a wrong token count fails the unpack
                k, u, v, c = int(k), int(u), int(v), int(c)
            except ValueError:
                fault = f"{path}: malformed coloring line {row!r}"
                continue
            if k > i and (not ahead or k > ahead[-1][1]) or k < 0:
                ahead.append((i, k))
                if k < 0:  # out of range whatever the count: the check below names it
                    fault = ""
                    continue
            if colors[k] if k < n_edges else k in beyond:
                fault = f"{path}: duplicate edge id {k}"
            elif c < 1:
                fault = f"{path}: edge {k} has non-positive color {c}"
            elif k >= n_edges:
                beyond.add(k)
            else:
                colors[k] = c
                if (u, v) != edges[k] and (v, u) != edges[k]:
                    odd.append((k, u, v))
    if header is None:
        raise BadParameter(f"{path}: missing t=<K> header")
    # every listed row comes no later than the other fault's, and within a
    # row the id range is checked first
    for _, k in ahead:
        if not 0 <= k < m:
            raise BadParameter(f"{path}: edge id {k} outside 0..{m - 1}")
    if fault is not None:
        raise BadParameter(fault)
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
