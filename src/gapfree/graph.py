"""Immutable simple undirected graphs with dense vertex ids and stable edge ids.

Vertices are the integers 0..n-1. Edges are stored canonically: each pair with
the smaller endpoint first, the whole list sorted, so an edge's position in the
list is a stable id. Graph(n, edges) refuses any other edge list. Colorings
elsewhere in the package are plain arrays indexed by these edge ids. One
breadth-first walk, made once per graph, gives the searches their edge order,
is_bipartite its two sides and the search-free rules their list of
components; the lex-leader cut's generators, and the tables that it and the
orbit bound read, are cached likewise.
"""

from __future__ import annotations

import json
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from functools import cached_property
from itertools import chain, islice, starmap
from operator import itemgetter, lt

from .errors import BadParameter, DuplicateEdge, LoopEdge, VertexOutOfRange


class _Record:
    """Base of the package's immutable result types: the semantics of a frozen
    dataclass without its module, whose import (inspect, ast, dis) and
    generated code were a large share of every gapfree process's start-up.

    A subclass's annotated names are its fields, in order; a class attribute
    of the same name is that field's default, and defaults come last. A
    namedtuple per class binds each call as Python binds arguments. Instances
    are equal only to an instance of the same class with equal fields, hash
    and repr over the fields, and refuse assignment and deletion.
    cached_property works, as it writes the instance __dict__ directly.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = names = tuple(cls.__annotations__)
        defaults = []
        for name in names:
            if name in cls.__dict__:
                defaults.append(cls.__dict__[name])
            elif defaults:  # a namedtuple would give the defaults to later fields
                raise TypeError(f"{cls.__name__}: field {name!r} without a default "
                                "follows one with a default")
        cls._bind = namedtuple(cls.__name__, names, defaults=defaults)

    def __init__(self, *args, **kwargs):
        # one attribute at a time, in declared order, so that instances keep
        # CPython's key-sharing dicts (a __dict__.update makes a dict each)
        set_field = object.__setattr__
        for name, value in zip(self._fields, self._bind(*args, **kwargs)):
            set_field(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validation hook run after the fields are set."""

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Graph(_Record):
    """Simple undirected graph whose edges are sorted canonical pairs, which
    adjacency, incident, the verifier and the searches rely on. Graph(n, edges)
    refuses any other edge list; build_graph() makes one from any list."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        _require_canonical(self.n, self.edges)

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        nbrs: list[list[int]] = [[] for _ in range(self.n)]
        # ascending without a sort: the lesser neighbours come from the pairs
        # (u, z), in u's order, before the greater ones from (z, v)
        for u, v in self.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        return tuple(map(tuple, nbrs))

    @cached_property
    def incident(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids incident to each vertex, parallel to adjacency: the edges are
        sorted canonical pairs, so each vertex's ids come in neighbour order.
        Read by the breadth-first walk, the matching peel and the constructions'
        spectrum bounds on a factor; the verifier, which runs on whole
        products, builds its per-vertex colours without it.
        """
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for k, (u, v) in enumerate(self.edges):
            inc[u].append(k)
            inc[v].append(k)
        for v, ids in enumerate(inc):  # in place: no list outlives its tuple
            inc[v] = tuple(ids)
        return tuple(inc)

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        return tuple(len(a) for a in self.adjacency)

    @property
    def max_degree(self) -> int:
        return max(self.degrees, default=0)

    @cached_property
    def _walk(self) -> tuple[tuple[int, ...], tuple[int, ...], tuple]:
        """One breadth-first walk over every component, restarting at the
        least unvisited vertex, made once per graph. Returns the edge ids in
        discovery order (each listed when its earlier-dequeued endpoint is
        processed), each vertex's depth parity, and per component with an
        edge its vertex ids, ascending, and its part of the edge order."""
        order: list[int] = []
        listed = [False] * len(self.edges)
        side = [0] * self.n
        seen = [False] * self.n
        components = []
        for start in range(self.n):
            if seen[start] or not self.adjacency[start]:
                continue
            seen[start] = True
            first = len(order)
            queue = [start]  # it grows as the walk goes: iterating it is the BFS
            for u in queue:
                for w, e in zip(self.adjacency[u], self.incident[u]):
                    if not listed[e]:
                        listed[e] = True
                        order.append(e)
                    if not seen[w]:
                        seen[w] = True
                        side[w] = 1 - side[u]
                        queue.append(w)
            components.append((tuple(sorted(queue)), tuple(order[first:])))
        return tuple(order), tuple(side), tuple(components)

    @cached_property
    def _automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """_automorphism_generators(self), computed once per graph."""
        return _automorphism_generators(self)

    @cached_property
    def _symmetry_plan(self) -> tuple | None:
        """search._lex_leader_plan(self), computed once per graph."""
        from . import search  # search imports this module

        return search._lex_leader_plan(self)

    @property
    def regularity(self) -> int | None:
        """The common degree r when every vertex has degree r, else None; 0
        for a graph without edges, including the one without vertices."""
        degs = self.degrees
        r = degs[0] if degs else 0
        return r if degs.count(r) == len(degs) else None


def _require_canonical(n: int, edges: Sequence[tuple[int, int]]) -> None:
    """Raise ValueError if n < 0, or, naming the first edge out of place,
    unless the edges are strictly increasing (u, v) pairs with 0 <= u < v < n,
    the order in which each vertex's edge ids, taken in id order, come in
    neighbour order.
    The check runs at C speed; only a fault is looked for edge by edge."""
    if n < 0:
        raise ValueError(f"Graph needs a vertex count >= 0, got {n}")
    if (all(starmap(lt, edges)) and all(map(lt, chain(((0, 0),), edges), edges))
            and max(map(itemgetter(1), edges), default=-1) < n):
        return
    prev = (0, 0)
    for k, e in enumerate(edges):
        u, v = e
        if not (prev < e and u < v < n):
            raise ValueError(
                f"edge {k} {e}: Graph needs strictly increasing (u, v) "
                f"pairs with 0 <= u < v < {n}; build_graph() makes them"
            )
        prev = e


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Validate and canonicalize an edge list into a Graph.

    Raises LoopEdge, DuplicateEdge, or VertexOutOfRange on bad input: the
    first fault in input order, as _first_fault finds it.

    No set of the edges is kept: once the canonical pairs are sorted, Graph's
    own check refuses a loop, a duplicate (an equal neighbour) or an end out
    of range. Any such fault, or any exception the pairs raise, sends the
    input to _first_fault, which scans it again in input order, so a
    duplicate listed before a loop is still the one reported.
    """
    if n < 0:
        raise BadParameter(f"vertex count must be >= 0, got {n}")
    if not isinstance(edges, (list, tuple)):
        edges = list(edges)  # the error path reads it a second time
    # canon keeps the input order, which sort() finishes in linear time on
    # the canonical files gapfree writes
    canon: list[tuple[int, int]] = []
    append = canon.append
    try:
        for e in edges:
            u, v = e
            if u > v:
                e = (v, u)
            elif type(e) is not tuple:  # a canonical tuple is kept, not copied
                e = (u, v)
            append(e)
        canon.sort()
        return Graph(n, tuple(canon))
    except Exception:
        pass  # _first_fault raises it again, unless an earlier fault wins
    return _first_fault(n, edges)


def _first_fault(n: int, edges: Sequence) -> Graph:
    """build_graph's error path: one scan in input order that raises the first
    loop, duplicate or out-of-range pair, or the first exception a pair raises,
    and otherwise builds the graph as build_graph does."""
    seen: set[tuple[int, int]] = set()
    canon: list[tuple[int, int]] = []
    add, append = seen.add, canon.append
    for e in edges:
        u, v = e
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRange(f"edge ({u},{v}) outside 0..{n - 1}")
        if u == v:
            raise LoopEdge(f"loop at vertex {u}")
        if u > v:
            e = (v, u)
        elif type(e) is not tuple:  # a canonical tuple is kept, not copied
            e = (u, v)
        if e in seen:
            raise DuplicateEdge(f"edge {e} listed twice")
        add(e)
        append(e)
    return Graph(n, tuple(sorted(canon)))


def is_bipartite(g: Graph) -> tuple[bool, tuple[int, ...] | None]:
    """(True, side-per-vertex) when every edge joins vertices of unlike BFS
    depth parity, which is exactly when g is bipartite; else (False, None)."""
    side = g._walk[1]
    if any(side[u] == side[v] for u, v in g.edges):
        return False, None
    return True, tuple(side)


def bfs_edge_order(g: Graph) -> tuple[int, ...]:
    """Edge ids in BFS discovery order from vertex 0, restarting per component:
    the order that gives the exhaustive searches good constraint locality."""
    return g._walk[0]


def _refine(adj: tuple[tuple[int, ...], ...], colour: list[int]) -> list[int]:
    """The stable colouring that colour refinement reaches from `colour`
    (colours 0..n): each round, a vertex's new colour is the rank of (its
    colour, the multiset of its neighbours' colours) among all vertices'.
    Ranks depend on colours alone, so when a vertex bijection maps one
    colouring onto another and preserves adjacency, it maps their refinements
    onto each other too. A multiset is the sum of (n+1)**colour over it:
    fewer than n+1 neighbours share a colour, so distinct multisets differ."""
    n = len(colour)
    weight = [(n + 1) ** k for k in range(n + 2)]
    top = weight.pop()
    count = len(set(colour))
    while True:
        sig = [c * top + sum([weight[colour[u]] for u in a]) for c, a in zip(colour, adj)]
        rank = {s: r for r, s in enumerate(sorted(set(sig)))}
        colour = [rank[s] for s in sig]
        if len(rank) == count:
            return colour
        count = len(rank)


def _split(adj: tuple[tuple[int, ...], ...], colour: list[int], v: int) -> list[int]:
    """The stable colouring `colour`, whose ranks are all below n, refined
    again once vertex v takes the fresh colour n."""
    colour = colour[:]
    colour[v] = len(colour)
    return _refine(adj, colour)


def _map_onto(g: Graph, edges: set, left: list[int], right: list[int]) -> list[int] | None:
    """An automorphism s of g that maps the stable colouring `left` onto
    `right` (right[s[v]] == left[v]), or None if there is none. Where a
    colour holds several vertices, its least vertex on the left is
    individualised against each vertex of that colour on the right in turn."""
    if sorted(left) != sorted(right):
        return None
    seen: set[int] = set()
    for c in left:
        if c in seen:
            break
        seen.add(c)
    else:  # discrete: the colours name the map
        where = {c: v for v, c in enumerate(right)}
        s = [where[c] for c in left]
        if all((s[u], s[v]) in edges or (s[v], s[u]) in edges for u, v in g.edges):
            return s
        return None
    x = left.index(c)  # the least vertex of the first colour that repeats
    fixed = _split(g.adjacency, left, x)
    for y, other in enumerate(right):
        if other == c:
            found = _map_onto(g, edges, fixed, _split(g.adjacency, right, y))
            if found is not None:
                return found
    return None


def _automorphism_generators(g: Graph) -> tuple[tuple[int, ...], ...]:
    """Generators of g's automorphism group as edge permutations: entry e of
    a generator is the id of the edge that edge e maps to. A generator that
    fixes every edge (it swaps isolated vertices, or the ends of a K2
    component) is dropped, so () means that no automorphism moves an edge.

    Individualisation and refinement with backtracking over a stabiliser
    chain. bases[i] is the stable colouring with 0..i-1 individualised in
    turn, so every automorphism that fixes 0..i-1 keeps it; once one is
    discrete, so are all later ones, and only the identity fixes them. Levels
    run from the last vertex to the first. At level i, each w > i of i's
    colour that is not yet in i's orbit under the generators found so far
    (all of which fix 0..i-1) gets one search for an automorphism that fixes
    0..i-1 and maps i to w, and each one found is kept. So each level's orbit
    is complete, the vertex generators form a strong generating set, and they
    generate the whole group.
    """
    n = g.n
    adj = g.adjacency
    edges = set(g.edges)
    bases = [_refine(adj, [0] * n)]
    while len(set(bases[-1])) < n:
        base = bases[-1]
        i = len(bases) - 1
        # a vertex already alone in its cell is fixed: splitting it off
        # refines nothing
        bases.append(base if base.count(base[i]) == 1 else _split(adj, base, i))
    gens: list[list[int]] = []
    for i in reversed(range(len(bases) - 1)):
        base = bases[i]
        orbit = {i}
        for w in range(i + 1, n):
            if base[w] == base[i] and w not in orbit:
                found = _map_onto(g, edges, bases[i + 1], _split(adj, base, w))
                if found is not None:
                    gens.append(found)
                    orbit = _orbit(i, gens)
    ids = {e: k for k, e in enumerate(g.edges)}
    # not g.m: a cached property of Graph reads only fields and cached properties
    still = tuple(range(len(g.edges)))
    perms: list[tuple[int, ...]] = []
    for s in gens:
        perm = tuple([ids[(a, b) if a < b else (b, a)] for a, b in
                      [(s[u], s[v]) for u, v in g.edges]])
        if perm != still and perm not in perms:
            perms.append(perm)
    return tuple(perms)


def _orbit(v: int, gens: Sequence[Sequence[int]]) -> set[int]:
    """The orbit of v under the group that the permutations `gens` generate:
    of vertices here, of edge ids in the search's orbit bound."""
    orbit = {v}
    stack = [v]
    while stack:
        u = stack.pop()
        for s in gens:
            if s[u] not in orbit:
                orbit.add(s[u])
                stack.append(s[u])
    return orbit


def write_edge_list(path, g: Graph) -> None:
    """Write the text edge-list format: "n m" header then one "u v" line per edge."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{g.n} {g.m}\n")
        write_rows(fh, "%s %s\n", chain.from_iterable(g.edges))


# rows per % call of write_rows: 256 to 16,384 write a 39,700-edge product's
# two files equally fast, and 2,048 rows are about 20 KB of edge-list text
# and 36 KB of colouring text
_WRITE_ROWS = 2048


def write_rows(fh, row: str, fields: Iterable) -> None:
    """Write `row`, a format of %s fields, once per group of the flat
    `fields`: _WRITE_ROWS rows are formatted by one % call and written by one
    write. %s gives the bytes an f-string gives, for ints and any other field.
    """
    width = row.count("%s")
    fields = iter(fields)
    while part := tuple(islice(fields, width * _WRITE_ROWS)):
        fh.write(row * (len(part) // width) % part)


# The bytes of a file are read about this many at a time (see read_blocks).
# On a 39,700-edge product's two files, blocks of 8 to 32 KiB read equally
# fast; larger ones read the colouring slower (+9% at 64 KiB, +20% at
# 256 KiB) and its transient memory grows (0.37 MB at 16 KiB, 1.18 MB at
# 64 KiB), as a block's numbers are all held at once.
_BLOCK = 1 << 14
_DIGITS = b"0123456789"
_COMMAS = bytes.maketrans(b" \n", b",,")


def read_blocks(path) -> Iterator[bytes]:
    """The bytes of a file, read once and in order, in blocks that end where
    a row ends ("\\n" or "\\r"), but for the last: its first line, then about
    _BLOCK bytes at a time. The first line, the header of the files read here,
    is a block of its own, so the rows that follow it may be strict from the
    first one (see _numbers). A "\\r\\n" cut in two leaves a blank row, which
    block_rows drops."""
    with open(path, "rb") as fh:
        block = fh.readline(_BLOCK)
        while block:
            cut = block.rfind(b"\n") + 1
            cut = block.rfind(b"\r", cut) + 1 or cut
            # a row that the block does not end is carried into the next
            # read, of at least its size, so that a long row costs copies of
            # at most about twice its length
            more = fh.read(max(_BLOCK, len(block) - cut))
            if not more:
                cut = len(block)
            if cut:
                yield block[:cut]
            block = block[cut:] + more


def block_rows(path, block: bytes) -> list[str]:
    """The stripped rows of one block, without blank and '#' comment lines,
    split as text-mode reading splits them ("\\n", "\\r\\n" or a lone "\\r");
    a byte outside ASCII raises BadParameter naming it. The row code of the
    readers reads every block that _numbers does not take through this."""
    try:
        text = block.decode("ascii")
    except UnicodeDecodeError as exc:
        raise BadParameter(f"{path}: non-ASCII byte {block[exc.start]:#04x}") from None
    # each "\r" ends a row; the blank row this makes of "\r\n" is dropped
    return [s for s in map(str.strip, text.replace("\r", "\n").split("\n"))
            if s and s[0] != "#"]


def data_rows(path) -> Iterator[str]:
    """The stripped rows of an ASCII text file, one block at a time, without
    blank and '#' comment lines; a byte outside ASCII raises BadParameter when
    the read reaches its block. A reader raises its own faults only once it
    has read every row, so that such a byte wins wherever it is in the file.
    """
    for block in read_blocks(path):
        yield from block_rows(path, block)


def _numbers(block: bytes, row: bytes) -> list[int] | None:
    """The numbers of a strict block, in file order, or None for any other.

    A block is strict when it ends with a newline and, its digits deleted, is
    `row` (the separators of one row: b" \\n" for an edge row) once per row.
    Then json converts all its numbers in one C-level call. It refuses an
    empty digit run or a leading zero, as it does a number too long for int();
    such a block, like every block that is not strict, is left to the row
    code. This is the two-stage parse of simdjson (Langdale and Lemire,
    VLDB Journal 28, 2019): check the structure of a whole block, then
    convert its numbers.
    """
    if block[-1:] != b"\n" or block.translate(None, _DIGITS) != row * block.count(b"\n"):
        return None
    try:
        return json.loads(b"[" + block[:-1].translate(_COMMAS) + b"]")
    except ValueError:
        return None


def read_edge_list(path) -> Graph:
    """Read the text edge-list format; '#' comment lines are ignored.

    The file is read once, by read_blocks. A strict block of rows (see
    _numbers) is parsed whole; every other block goes row by row through
    block_rows and the row code below, with the same state, so a file gives
    the same graph or the same fault whichever way its blocks are read. No
    row is kept. Faults are raised once the whole file is read, in this
    order: a non-ASCII byte, an empty file, a malformed header, a wrong edge
    count, the first malformed row; then build_graph's.
    """
    header = n = bad = None
    # one int object per vertex, however many edges name it
    vertex: dict[int, int] = {}
    m = found = 0  # found counts the edge rows, parsed or not
    edges: list[tuple[int, int]] = []
    for block in read_blocks(path):
        nums = _numbers(block, b" \n") if n is not None and bad is None else None
        if nums is not None:
            found += len(nums) >> 1
        else:
            nums = []
            for row in block_rows(path, block):
                if header is None:
                    header = row
                    try:
                        n, m = map(int, row.split())  # a wrong token count fails the unpack
                    except ValueError:
                        pass  # n stays None: the rows are only read
                    continue
                found += 1
                if n is None or bad is not None:
                    continue  # the rows after a malformed one are only counted
                try:
                    a, b = row.split()  # a wrong token count fails the unpack
                    nums += int(a), int(b)
                except ValueError:
                    bad = row
        ends = map(vertex.setdefault, nums, nums)
        edges += zip(ends, ends)
    if header is None:
        raise BadParameter(f"{path}: empty edge-list file")
    if n is None:
        raise BadParameter(f"{path}: malformed header {header!r}")
    if found != m:
        raise BadParameter(f"{path}: header declares {m} edges, found {found}")
    if bad is not None:
        raise BadParameter(f"{path}: malformed edge line {bad!r}")
    del vertex  # not held while the graph is built
    # the sorted canonical pairs gapfree writes are taken as they are:
    # build_graph would copy them pair by pair in Python first, 7.6 ms against
    # Graph's 3.8 ms check on a 39,700-edge product (read_edge_list 18 against
    # 21 ms). A file that fails the check pays its scan for the first pair out
    # of place too: 5 ms more when that pair is the last.
    try:
        return Graph(n, tuple(edges))
    except ValueError:
        return build_graph(n, edges)
