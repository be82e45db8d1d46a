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
# the oracle computes automorphism generators for the lex-leader cut only on
# graphs with at most this many vertices (K12 takes about 3 ms)
SYMMETRY_VERTICES = 12


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
    g: Graph,
    order: Sequence[int],
    k: int,
    budget: Budget,
    interval: bool,
    window: Sequence[tuple[int, int]] | None = None,
    symmetries: Sequence[Sequence[int]] = (),
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
    search that finds one returns the same coloring, and only the nodes that
    the cuts remove are saved. The same holds for every cut below: each
    removes only subtrees without a coloring, except the lex-leader cut,
    which keeps the least coloring.

    - Top color: a vertex z is shut once it holds a color c <= k - deg(z),
      since its deg(z) consecutive colors then end at or below
      c + deg(z) - 1 <= k - 1; a node is cut, after its tick, when color k is
      unused and every edge from it on has a shut end, as no completion can
      place k.
    - Color 1, its mirror: z is shut from below once it holds a color
      c >= deg(z) + 1, since its colors then start at c - deg(z) + 1 >= 2; a
      node is cut when color 1 is unused and every edge from it on has an end
      shut from below.
    - `window`, optional: per edge id, the least and greatest color, within
      1..k, that the edge takes in every interval k-coloring. It must be
      symmetric under reflection (lo + hi = k + 1, or empty), so that the
      reflection cut stays sound; the oracle's degree-path windows are.
    - Lex-leader (Crawford, Ginsberg, Luks and Roy, KR 1996), with
      `symmetries`, optional: automorphisms of g as edge permutations (entry
      e is the edge that e maps to), read only with `interval` and an `order`
      of every edge. A coloring a is kept only if a <= a o pi in position
      order for every generator pi. Each comparison of a[p] with
      a[img[p]], img[p] the position of pi(order[p]), is decided at the depth
      that colors every position up to p and every image up to img[p];
      ties[d], a mask like opened, holds the generators still equal there.
      A node dies, after its tick, when a pending generator's first unequal
      comparison has the lesser color at the image. Like reflection, this
      cut drops colorings, but never the least one: a o pi is an interval
      k-coloring too, so the least coloring is the least member of its
      orbit, and the least coloring has the least first color. So every cut
      here keeps it, and a search returns the same coloring with or without
      any of them.

    Both reachability cuts run on orders of up to TOP_CUT_EDGES edges. Over
    the 1,245 non-empty networkx atlas graphs at 20k nodes each, the top-color
    cut took oracle nodes from 6,714,904 to 5,056,534; with the color-1 cut
    and the oracle's windows and class-1 premise they take 3,382,157, and
    with the lex-leader cut 1,998,222, with the same witnesses.

    Otherwise the coloring must be proper, with new colors in first-use
    order (which breaks every color permutation already). Properness alone
    keeps each class a matching: one of n//2 edges covers n-1 vertices or
    more, so no edge left can take its color. Only exact_chromatic_index's
    skip reads the n//2 bound.

    Color c is bit c-1 of the masks kept per vertex (its colors) and per depth
    (colors used above it, candidates left); the interval search also keeps,
    per depth and cut, a mask over positions in `order` of the edges with no
    shut end. Each node visited, the final leaf included, costs one budget
    tick; ticks are settled into `budget` on return or once they pass its
    limit, when Budget.spend raises BudgetExceeded.
    """
    m = len(order)
    ends = [g.edges[e] for e in order]
    deg = g.degrees
    used = [0] * g.n
    palette = [0] * (m + 1)
    cands = [0] * m
    chosen = [0] * m
    # stop[pos]: node pos returns a leaf or reads lex-leader comparisons
    stop = [False] * m + [True]
    checks: list = [None] * (m + 1)
    live = 1  # a cut that kills a node sets 0; the dead node resets it
    if interval:
        # each position's least and greatest color; the first edge's top is
        # the reflection cut's (k+1)//2
        lo_at = [1] * m
        hi_at = [k] * m
        if window is not None:
            for p, e in enumerate(order):
                lo_at[p], hi_at[p] = window[e]
        hi_at[0] = min(hi_at[0], (k + 1) // 2)
        # the edge "just colored" at the root ends at a sentinel vertex g.n
        # that no cut shuts
        u = v = g.n
        bit = 0
        if m <= TOP_CUT_EDGES:
            top = 1 << (k - 1)  # color k's bit
            first = 1  # color 1's bit
            # bit < lim[z] = 1 << (k - deg z) tests c <= k - deg z, bit >=
            # low[z] = 1 << deg z tests c >= deg z + 1, and clear[z] =
            # ~(positions of z's edges), built only where either can hold;
            # the sentinel's entries come last, and bit 0 passes neither test
            lim = [1 << (k - d) if d < k else 0 for d in deg] + [0]
            low = [1 << d for d in deg] + [1]
            clear = [-1] * (g.n + 1)
            for p, (a, b) in enumerate(ends):
                if lim[a]:
                    clear[a] ^= 1 << p
                if lim[b]:
                    clear[b] ^= 1 << p
            # opened[pos] (below[pos]): positions of the edges with no end
            # shut (from below) once the edges before pos are colored. Node
            # pos derives it from opened[pos - 1] and the edge just colored
            # (u, v, bit), but only while color k (color 1) is unused: the
            # palette only grows along a path, so then node pos - 1 derived
            # opened[pos - 1] on this path too. The root reads opened[-1],
            # never written as a leaf returns or dies first
            opened = [(1 << m) - 1] * (m + 1)
            below = opened[:]
        else:
            top = first = 0  # pal < top and pal & 1 < first never hold
        if symmetries:
            # generator j (bit 1 << j) at position p compares chosen[p] with
            # chosen[img[p]]; a comparison is decided at the depth that
            # colors every position up to it and its image
            at = [0] * g.m
            for p, e in enumerate(order):
                at[e] = p
            tests: list[list[tuple[int, int, int]]] = [[] for _ in range(m + 1)]
            for j, perm in enumerate(symmetries):
                reach = 0
                for p, e in enumerate(order):
                    q = at[perm[e]]
                    reach = max(reach, p, q)
                    if q != p:
                        tests[reach + 1].append((1 << j, p, q))
            # ties[d]: the generators still equal to the coloring up to depth
            # d, written at depth d if it has tests; checks[d] = (the last
            # depth before d with tests, or -1 for ties[-1], all generators
            # pending; d's tests)
            ties = [0] * m + [0, (1 << len(symmetries)) - 1]
            prior = -1
            for d, row in enumerate(tests):
                if row:
                    checks[d] = (prior, row)
                    stop[d] = True
                    prior = d
    left = budget.limit - budget.used
    nodes = pos = 0
    while True:
        nodes += 1
        if nodes > left or stop[pos]:
            if nodes > left:
                budget.spend(nodes)  # raises: the limit is passed
            if checks[pos]:
                prior, row = checks[pos]
                pend = ties[prior]
                if pend:
                    for b, p, q in row:
                        if pend & b:
                            x = chosen[p]
                            y = chosen[q]
                            if x != y:
                                if y < x:  # the image is lexicographically less
                                    live = 0
                                    break
                                pend ^= b
                ties[pos] = pend
            if live and pos == m:
                budget.spend(nodes)
                # at a leaf the palette rule has left no color unused
                return tuple(c.bit_length() for _, c in sorted(zip(order, chosen)))
        pal = palette[pos]
        if interval:
            if live and pal < top:
                o = opened[pos - 1]
                if bit < lim[u]:
                    o &= clear[u]
                if bit < lim[v]:
                    o &= clear[v]
                opened[pos] = o
                live = o >> pos  # 0: color k is unused and cannot be placed
            if live and pal & 1 < first:
                o = below[pos - 1]
                if bit >= low[u]:
                    o &= clear[u]
                if bit >= low[v]:
                    o &= clear[v]
                below[pos] = o
                live = o >> pos  # 0: color 1 is unused and cannot be placed
            if live:
                u, v = ends[pos]
                x = used[u]
                y = used[v]
                lo = lo_at[pos]
                hi = hi_at[pos]
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
                cand = 0
                live = 1
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
