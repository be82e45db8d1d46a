"""The exhaustive edge-coloring search behind the oracle and the chromatic
index, and the node-count budget it spends."""

from __future__ import annotations

from collections.abc import Sequence

from .errors import BudgetExceeded
from .graph import Graph, _orbit

DEFAULT_BUDGET = 10_000_000
# the top-color cut keeps |V| + |E| masks of |E| bits; a longer order skips it
# (on grid 80x80, 12,640 edges, it doubled the peak RSS of `oracle --t 6`)
TOP_CUT_EDGES = 1024
# the interval search applies the lex-leader cut only on graphs with at most
# this many vertices (computing the generators of K12 takes about 3 ms)
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
    removes only subtrees without a coloring, except the lex-leader cut and
    the orbit bound, which keep the least coloring.

    - Top color: a vertex z is shut once it holds a color c <= k - deg(z),
      since its deg(z) consecutive colors then end at or below
      c + deg(z) - 1 <= k - 1; a node is cut, after its tick, when color k is
      unused and every edge from it on has a shut end, as no completion can
      place k.
    - Color 1, its mirror: z is shut from below once it holds a color
      c >= deg(z) + 1, since its colors then start at c - deg(z) + 1 >= 2; a
      node is cut when color 1 is unused and every edge from it on has an end
      shut from below.
    - Lex-leader (Crawford, Ginsberg, Luks and Roy, KR 1996), on g with at
      most SYMMETRY_VERTICES vertices and `order` its BFS order, over the
      edge permutations in Graph._automorphisms; the tables that it and the
      orbit bound read are built once per graph (_lex_leader_plan). A
      coloring a is kept only if a <= a o pi in position order for every
      generator pi. Each comparison of a[p] with a[img[p]], img[p] the
      position of pi(order[p]), is decided at the depth that colors every
      position up to p and every image up to img[p]; ties[d], a mask like
      opened, holds the generators still equal there. A node dies, after its
      tick, when a pending generator's first unequal comparison has the
      lesser color at the image. Like reflection, this cut drops colorings,
      but never the least one: a o pi is an interval k-coloring too, so the
      least coloring is the least member of its orbit, and the least coloring
      has the least first color. So every cut here keeps it, and a search
      returns the same coloring with or without any of them.
    - Orbit bound (the first level of Puget's orbit constraints,
      Constraints 10, 2005), on the graphs that get the lex-leader cut: for
      every edge f in the orbit O of e0 = order[0] under the generators,
      a(e0) <= a(f) <= k+1-a(e0). The least coloring a obeys it: for any
      automorphism s, a o s and its reflection k+1 - a o s are interval
      k-colorings, so a is no greater than either, and both comparisons
      start at position 0, with a(s(e0)) and k+1 - a(s(e0)); every f in O is
      some s(e0). So each time position 0 takes c, the node at depth 1 sets
      the windows of O's positions to [c, k+1-c], and no witness moves. Once
      c > 1, O's edges can place neither color 1 nor color k, so that node
      also drops O's positions from the masks the two reachability cuts
      start from. This prunes nodes that the lex-leader cut visits only to
      kill them, the comparisons with reflection, which the lex-leader cut
      never makes, and on an edge-transitive graph every first color above 1
      at once.

    Both reachability cuts run on orders of up to TOP_CUT_EDGES edges.

    Otherwise the coloring must be proper, with new colors in first-use
    order (which breaks every color permutation already). Properness alone
    keeps each class a matching: one of n//2 edges covers n-1 vertices or
    more, so no edge left can take its color. Only the overfull count
    (chromatic._overfull) reads the n//2 bound.

    Color c is bit c-1 of every color mask. Each vertex z keeps allow[z],
    the colors it may still take: 1..k less the colors z holds, and in the
    interval search only those in [max - deg(z) + 1, min + deg(z) - 1], for
    min and max the least and greatest colors z holds. Coloring an edge with
    c ANDs into each end's mask row c of the table for that end's degree
    (the proper search clears c), and the backtrack restores both ends from
    the pair saved at that depth. A node's candidates are allow[u] &
    allow[v] & its position's window mask (the proper search: & colors
    1..j+1 of a palette 1..j), and the cuts read one bit: while color k (1)
    is unused, z is shut (from below) exactly when allow[z] lacks k (1). Per
    depth the search also keeps the colors used above it and the candidates
    left, and the interval search, per cut, a mask over positions in `order`
    of the edges with no shut end. Each node visited, the final leaf
    included, costs one budget tick; ticks are settled into `budget` on
    return or once they pass its limit, when Budget.spend raises
    BudgetExceeded.
    """
    m = len(order)
    ends = [g.edges[e] for e in order]
    full = (1 << k) - 1
    allow = [full] * g.n  # allow[z]: the colors z may still take
    xs = [0] * m  # allow[u] and allow[v] before position p was colored
    ys = [0] * m
    palette = [0] * (m + 1)
    cands = [0] * m
    chosen = [0] * m
    # stop[pos]: node pos returns a leaf, reads lex-leader comparisons or
    # applies the orbit bound (see _lex_leader_plan)
    stop = [False] * m + [True]
    checks: list = [None] * (m + 1)
    orbit: tuple[int, ...] = ()
    live = 1  # a cut that kills a node sets 0; the dead node resets it
    if interval:
        # near_of[z][c]: the colors that z, once it holds c, may still take
        # (isolated vertices get None: they hold no edge)
        tables = {d: _near(d, k) for d in set(g.degrees) - {0}}
        near_of = list(map(tables.get, g.degrees))
        # span[p]: the colors of position p's window: 1..k, but the
        # reflection cut's 1..(k+1)//2 at position 0 and the orbit bound's
        # [c, k+1-c] in the first edge's orbit
        span = [full] * m
        span[0] = (1 << (k + 1) // 2) - 1
        # need[p]: the palette rule fires at p when fewer than need[p] colors
        # are used, as k - used colors then outnumber the m - p - 1 edges
        # after p
        need = range(k - m + 1, k + 1)
        # the root reads the cuts' masks at the first edge's ends, which hold
        # no color yet
        u, v = ends[0]
        if m <= TOP_CUT_EDGES:
            top = 1 << (k - 1)  # color k's bit
            first = 1  # color 1's bit
            clear = [-1] * g.n  # clear[z] = ~(positions of z's edges)
            for p, (a, b) in enumerate(ends):
                clear[a] ^= 1 << p
                clear[b] ^= 1 << p
            # opened[pos] (below[pos]): positions of the edges with no end
            # shut (from below) once the edges before pos are colored. Node
            # pos derives it from opened[pos - 1] and the ends (u, v) of the
            # edge just colored, but only while color k (color 1) is unused:
            # the palette only grows along a path, so then node pos - 1
            # derived opened[pos - 1] on this path too. The root reads
            # opened[-1], never written as a leaf returns or dies first
            opened = [(1 << m) - 1] * (m + 1)
            below = opened[:]
        else:
            top = first = 0  # pal < top and pal & 1 < first never hold
        plan = None
        if g.n <= SYMMETRY_VERTICES and tuple(order) == g._walk[0]:
            plan = g._symmetry_plan
        if plan is not None:
            stop, checks, ties, orbit = plan
            ties = ties[:]
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
            elif pos == 1 and orbit:
                # position 0 now holds c: its orbit's windows become [c, k+1-c]
                s = chosen[0].bit_length() - 1
                keep = full >> s >> s << s
                for p in orbit:
                    span[p] = keep
                if s and top:
                    # so above 1 the orbit can place neither 1 nor k, and as
                    # c only rises, the root's masks may drop it for good
                    drop = ~sum([1 << p for p in orbit])
                    opened[0] &= drop
                    below[0] &= drop
            if live and pos == m:
                budget.spend(nodes)
                # at a leaf the palette rule has left no color unused
                return tuple(c.bit_length() for _, c in sorted(zip(order, chosen)))
        pal = palette[pos]
        if interval:
            if live and pal < top:
                o = opened[pos - 1]
                if not allow[u] & top:
                    o &= clear[u]
                if not allow[v] & top:
                    o &= clear[v]
                opened[pos] = o
                live = o >> pos  # 0: color k is unused and cannot be placed
            if live and pal & 1 < first:
                o = below[pos - 1]
                if not allow[u] & 1:
                    o &= clear[u]
                if not allow[v] & 1:
                    o &= clear[v]
                below[pos] = o
                live = o >> pos  # 0: color 1 is unused and cannot be placed
            if live:
                u, v = ends[pos]
                x = xs[pos] = allow[u]
                y = ys[pos] = allow[v]
                cand = x & y & span[pos]
                short = need[pos] - pal.bit_count()
                if short > 0:
                    # only a color not used yet keeps the palette coverable
                    cand = cand & ~pal if short == 1 else 0
            else:
                cand = 0
                live = 1
        else:
            u, v = ends[pos]
            x = xs[pos] = allow[u]
            y = ys[pos] = allow[v]
            # first-use order keeps the palette a prefix 1..j: try 1..j+1
            cand = (pal << 1 | 1) & x & y
        while not cand:
            pos -= 1
            if pos < 0:
                budget.spend(nodes)
                return None
            u, v = ends[pos]
            x = allow[u] = xs[pos]
            y = allow[v] = ys[pos]
            cand = cands[pos]
        bit = cand & -cand
        cands[pos] = cand ^ bit
        chosen[pos] = bit
        if interval:
            c = bit.bit_length()
            allow[u] = x & near_of[u][c]
            allow[v] = y & near_of[v][c]
        else:
            allow[u] = x ^ bit
            allow[v] = y ^ bit
        pos += 1
        palette[pos] = palette[pos - 1] | bit


def _lex_leader_plan(g: Graph) -> tuple | None:
    """The lex-leader cut's tables for g's BFS order, which depend on g
    alone, so Graph._symmetry_plan keeps them for every probe and budget:
    (stop, checks, ties, orbit) as first_coloring reads them, or None when
    no automorphism moves an edge. ties is the template that each search
    copies, as it writes its own.

    Generator j (bit 1 << j) at position p compares chosen[p] with
    chosen[img[p]]; a comparison is decided at the depth that colors every
    position up to it and its image, which stop marks. orbit holds the
    positions, but 0, of the first edge's orbit under the generators, found
    by a walk over them; when it is not empty, stop marks depth 1 too.
    Reads only fields and cached properties of g (see _automorphism_generators).
    """
    symmetries = g._automorphisms
    if not symmetries:
        return None
    order = g._walk[0]
    m = len(order)
    at = [0] * m
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
    # ties[d]: the generators still equal to the coloring up to depth d,
    # written at depth d if it has tests; checks[d] = (the last depth before
    # d with tests, or -1 for ties[-1], all generators pending; d's tests)
    stop = [False] * m + [True]
    checks: list = [None] * (m + 1)
    ties = [0] * m + [0, (1 << len(symmetries)) - 1]
    prior = -1
    for d, row in enumerate(tests):
        if row:
            checks[d] = (prior, row)
            stop[d] = True
            prior = d
    # a comparison reaches depth 2 at the least, so depth 1 reads no checks
    orbit = tuple(sorted(at[e] for e in _orbit(order[0], symmetries) if e != order[0]))
    if orbit:
        stop[1] = True
    return stop, checks, ties, orbit


def _near(d: int, k: int) -> list[int]:
    """Entry c, for c in 1..k: the colors within d - 1 of c, but not c, as a
    mask (color 1 is bit 0); entry 0 is unused. A vertex of degree d >= 1
    that holds c may take only these colors next."""
    mask = (1 << 2 * d - 1) - 1 ^ 1 << d - 1  # bits 0..2d-2 but the middle
    return [0] + [(mask << c) >> d for c in range(1, k + 1)]
