"""The exhaustive edge-coloring search behind the oracle and the chromatic
index, and the node-count budget it spends."""

from __future__ import annotations

from collections.abc import Sequence

from .errors import BudgetExceeded
from .graph import Graph

DEFAULT_BUDGET = 10_000_000
# the top-color cut keeps |V| + |E| masks of |E| bits; a longer order skips it
# (on grid 80x80, 12,640 edges, it doubled the peak RSS of `oracle --t 6`)
TOP_CUT_EDGES = 1024


class Budget:
    """Mutable counter; spend() raises BudgetExceeded once the limit is passed."""

    def __init__(self, limit: int):
        self.limit = limit
        self.used = 0

    def spend(self, amount: int) -> None:
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(
                f"search budget of {self.limit} nodes exhausted", self.used
            )


def first_coloring(
    g: Graph, order: Sequence[int], k: int, budget: Budget, interval: bool
) -> tuple[int, ...] | None:
    """Colors by edge id of the first coloring with colors 1..k, or None if
    none exists.

    Depth-first backtracking with an explicit stack, so the depth is limited
    by memory, not by the recursion limit. Edges are colored in `order`
    (non-empty), each trying its candidate colors in ascending order. With
    `interval` the coloring must be an interval k-coloring: a branch is cut
    when an endpoint's colors can no longer extend to a degree-length interval
    inside [1, k], or when too few edges remain to use every color not used
    yet; and the first edge of `order` tries only colors 1..(k+1)//2. That
    last cut is color reflection, c -> k+1-c, which maps the interval
    k-colorings onto each other: every first color above (k+1)//2 mirrors one
    at or below it, so the cut loses no coloring. The first coloring in
    ascending order has the least first color, so it is never cut either: a
    search that finds one walks the same tree and returns the same coloring,
    and only a search that proves absence visits fewer nodes. The same holds
    for the top-color cut: a vertex z is shut once it holds a color
    c <= k - deg(z), since its deg(z) consecutive colors then end at or below
    c + deg(z) - 1 <= k - 1; a node is cut, after its tick, when color k is
    unused and every edge from it on has a shut end, as no completion can
    place k (orders of up to TOP_CUT_EDGES edges). Over the 1,245 non-empty
    networkx atlas graphs at 20k nodes each it cut oracle nodes from 6,714,904
    to 5,056,534 and capped graphs from 192 to 123, with the same witnesses.
    Otherwise the coloring must be proper, with new colors in first-use
    order (which breaks every color permutation already). Properness alone
    keeps each class a matching: one of n//2 edges covers n-1 vertices or
    more, so no edge left can take its color. Only exact_chromatic_index's
    skip reads the n//2 bound.

    Color c is bit c-1 of the masks kept per vertex (its colors) and per depth
    (colors used above it, candidates left); the interval search also keeps,
    per depth, a mask over positions in `order` of the edges with no shut
    end. Each node visited, the final leaf included, costs one budget tick;
    ticks are settled into `budget` on return or once they pass its limit,
    when Budget.spend raises BudgetExceeded.
    """
    m = len(order)
    ends = [g.edges[e] for e in order]
    deg = g.degrees
    used = [0] * g.n
    palette = [0] * (m + 1)
    cands = [0] * m
    chosen = [0] * m
    half = (k + 1) // 2  # reflection cut: the first edge's colors, interval search
    if interval:
        # the edge "just colored" at the root: bit = 1 << k shuts nothing
        u = v = 0
        bit = 1 << k
        if m <= TOP_CUT_EDGES:
            top = 1 << (k - 1)  # color k's bit
            # bit < lim[z] = 1 << (k - deg z) tests c <= k - deg z, and
            # clear[z] = ~(positions of z's edges), built only where lim[z] > 0
            lim = [1 << (k - d) if d < k else 0 for d in deg]
            clear = [-1] * g.n
            for p, (a, b) in enumerate(ends):
                if lim[a]:
                    clear[a] ^= 1 << p
                if lim[b]:
                    clear[b] ^= 1 << p
            # opened[pos]: positions of the edges with no shut end once the
            # edges before pos are colored. Node pos derives it from
            # opened[pos - 1] and the edge just colored (u, v, bit); the root
            # reads opened[-1], never written as pos == m returns first
            opened = [(1 << m) - 1] * (m + 1)
        else:
            top = 0  # pal < top never holds
            lim = [0] * g.n
            opened = [0] * (m + 1)
    left = budget.limit - budget.used
    nodes = pos = 0
    while True:
        nodes += 1
        if nodes > left or pos == m:
            budget.spend(nodes)
            # at a leaf the palette rule has left no color unused
            return tuple(c.bit_length() for _, c in sorted(zip(order, chosen)))
        pal = palette[pos]
        if interval:
            o = opened[pos - 1]
            if bit < lim[u]:
                o &= clear[u]
            if bit < lim[v]:
                o &= clear[v]
            opened[pos] = o
            if pal < top and not o >> pos:
                # color k is unused and every edge left has a shut end
                cand = 0
            else:
                u, v = ends[pos]
                x = used[u]
                y = used[v]
                lo = 1
                hi = k if pos else half
                if x:
                    b = x.bit_length() - deg[u] + 1
                    if b > lo:
                        lo = b
                    b = (x & -x).bit_length() + deg[u] - 1
                    if b < hi:
                        hi = b
                if y:
                    b = y.bit_length() - deg[v] + 1
                    if b > lo:
                        lo = b
                    b = (y & -y).bit_length() + deg[v] - 1
                    if b < hi:
                        hi = b
                cand = ((1 << hi) - (1 << (lo - 1))) & ~(x | y) if lo <= hi else 0
                unused = k - pal.bit_count()
                if unused > m - pos - 1:
                    # only a color not used yet keeps the palette coverable
                    cand = cand & ~pal if unused == m - pos else 0
        else:
            u, v = ends[pos]
            limit = pal.bit_length() + 1
            if limit > k:
                limit = k
            cand = ((1 << limit) - 1) & ~(used[u] | used[v])
        while not cand:
            pos -= 1
            if pos < 0:
                budget.spend(nodes)
                return None
            u, v = ends[pos]
            bit = chosen[pos]
            used[u] ^= bit
            used[v] ^= bit
            cand = cands[pos]
        bit = cand & -cand
        cands[pos] = cand ^ bit
        chosen[pos] = bit
        used[u] |= bit
        used[v] |= bit
        pos += 1
        palette[pos] = palette[pos - 1] | bit
