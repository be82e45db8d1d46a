"""Interval colorings of product graphs composed from factor colorings.

Each constructor takes an interval coloring of the left factor (plus, where
required, a regular right factor that itself admits one) and emits a coloring
of the product with a predictable color count:

    tensor            t * r
    strong tensor     t * (r + 1)
    strong            t * (r + 1) + r
    lex over n*K1     t * n          (minimal variant)
                      t * n + n - 1  (maximal variant)
    lex over H        t * n + r
    cartesian         t_left + t_right

where t is the left coloring's count, r the right factor's regularity, and n
the right factor's vertex count. The tensor-style constructors transport an
exact coloring of the bipartite double cover of H through per-edge offsets;
the copy subgraphs of the strong and lexicographic products are filled with an
exact coloring of H anchored at each left vertex's spectrum boundary. Every
constructor re-verifies its own output and refuses to return an invalid
coloring.

Also here: the parity decision for tori and Hamming graphs, and evaluators for
the known bound formulas on products and the grid-like families.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

from .chromatic import bipartite_regular_coloring, exact_chromatic_index
from .colorings import EdgeColoring, IntervalReport, verify_interval
from .errors import (
    BadParameter,
    ConstructionFailed,
    InvalidAlpha,
    NotClass1,
    NotRegular,
)
from .graph import Graph, _Record, build_graph, is_bipartite
from .products import ProductGraph, ProductKind, product
from .search import DEFAULT_BUDGET

_K2 = build_graph(2, [(0, 1)])

# color of the product edge (i, p)-(j, q), where (i, p) is the lower endpoint
EdgeRule = Callable[[int, int, int, int], int]


def _violation_summary(report: IntervalReport) -> str:
    return (
        f"{len(report.properness_violations)} properness,"
        f" {len(report.gap_violations)} gap,"
        f" {len(report.unused_colors)} palette violations"
    )


def _validated_alpha(g: Graph, alpha: EdgeColoring) -> int:
    if len(alpha.colors) != g.m:
        raise InvalidAlpha(
            f"coloring has {len(alpha.colors)} entries for a graph with {g.m} edges"
        )
    if g.m == 0:
        raise InvalidAlpha("the colored factor must have at least one edge")
    t = alpha.t
    report = verify_interval(g, alpha, t)
    if not report.valid:
        raise InvalidAlpha(f"not an interval {t}-coloring ({_violation_summary(report)})")
    return t


def _require_regular(h: Graph) -> int:
    r = h.regularity
    if not r:
        raise NotRegular(
            f"the right factor must be r-regular with r >= 1, degrees {set(h.degrees)}"
        )
    return r


def _require_copies(n: int) -> None:
    if n < 1:
        raise BadParameter(f"copy count must be >= 1, got {n}")


def _interval_regular_coloring(h: Graph, budget: int) -> EdgeColoring:
    """Exact coloring of a regular class-1 graph; every vertex sees all colors."""
    ok, _ = is_bipartite(h)
    if ok:
        return bipartite_regular_coloring(h)
    result = exact_chromatic_index(h, budget)
    if not result.class1:
        raise NotClass1(
            f"right factor has chi' = {result.chi_prime} > max degree {h.max_degree}"
        )
    return result.witness


def _by_edge(g: Graph, coloring: EdgeColoring) -> dict[tuple[int, int], int]:
    """Colors keyed by canonical edge; a product edge's factor pairs are canonical."""
    return dict(zip(g.edges, coloring.colors))


def _spectra_bounds(g: Graph, alpha: EdgeColoring) -> tuple[list[int], list[int]]:
    """Per-vertex (min, max) of the incident colors.

    Isolated vertices default to min 1 / max 0, which makes the offset
    formulas collapse to no shift there.
    """
    seen = [[alpha.colors[e] for e in edges] for edges in g.incident]
    return [min(s, default=1) for s in seen], [max(s, default=0) for s in seen]


def _block_rule(
    kind: ProductKind, g: Graph, alpha: EdgeColoring, h: Graph, stride: int
) -> EdgeRule:
    """Tensor-style color of an edge between copies i < j: the block of the left
    color of (i, j), and inside it the color of (p, q) in an exact coloring of
    K2 x H (or K2 (x) H) with copy i on the covering side 0.

    The cover is regular bipartite, so the peeled coloring is an interval one
    in which every vertex sees every color; that is what makes the per-edge
    offsets close up into intervals.
    """
    cover = product(kind, _K2, h)
    beta = bipartite_regular_coloring(cover.graph)
    n = h.n
    table = {(a, b - n): c for (a, b), c in zip(cover.graph.edges, beta.colors)}
    left = _by_edge(g, alpha)
    return lambda i, p, j, q: (left[(i, j)] - 1) * stride + table[(p, q)]


def _compose(
    kind: ProductKind, g: Graph, h: Graph, rule: EdgeRule, expected_t: int, what: str
) -> tuple[ProductGraph, EdgeColoring]:
    """Build the product, color every edge by rule, and refuse to return the
    coloring unless it is an interval expected_t-coloring."""
    prod = product(kind, g, h)
    coords = prod.coords
    coloring = EdgeColoring(
        tuple(rule(*coords[a], *coords[b]) for a, b in prod.graph.edges)
    )
    report = verify_interval(prod.graph, coloring, expected_t)
    if not report.valid:
        raise ConstructionFailed(
            f"{what} produced an invalid coloring ({_violation_summary(report)})"
        )
    return prod, coloring


def tensor_interval(
    g: Graph, alpha: EdgeColoring, h: Graph
) -> tuple[ProductGraph, EdgeColoring]:
    """Interval (t*r)-coloring of the tensor product with an r-regular right factor."""
    t = _validated_alpha(g, alpha)
    r = _require_regular(h)
    rule = _block_rule(ProductKind.TENSOR, g, alpha, h, r)
    return _compose(ProductKind.TENSOR, g, h, rule, t * r, "tensor construction")


def strong_tensor_interval(
    g: Graph, alpha: EdgeColoring, h: Graph
) -> tuple[ProductGraph, EdgeColoring]:
    """Interval (t*(r+1))-coloring of the strong tensor (semistrong) product."""
    t = _validated_alpha(g, alpha)
    r = _require_regular(h)
    rule = _block_rule(ProductKind.STRONG_TENSOR, g, alpha, h, r + 1)
    return _compose(ProductKind.STRONG_TENSOR, g, h, rule, t * (r + 1), "strong tensor construction")


def strong_interval(
    g: Graph, alpha: EdgeColoring, h: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[ProductGraph, EdgeColoring]:
    """Interval (t*(r+1)+r)-coloring of the strong product.

    The right factor must additionally be class 1 (else no interval coloring
    of it exists to fill the copies with). Edges between copies are colored
    exactly as strong_tensor_interval colors them, which tops copy i out at
    max S(u_i) * (r+1); an exact coloring of H is laid over each copy
    directly above that.
    """
    t = _validated_alpha(g, alpha)
    r = _require_regular(h)
    h_colors = _by_edge(h, _interval_regular_coloring(h, budget))
    between = _block_rule(ProductKind.STRONG_TENSOR, g, alpha, h, r + 1)
    _, max_s = _spectra_bounds(g, alpha)

    def rule(i: int, p: int, j: int, q: int) -> int:
        if i == j:
            return max_s[i] * (r + 1) + h_colors[(p, q)]
        return between(i, p, j, q)

    return _compose(
        ProductKind.STRONG, g, h, rule, t * (r + 1) + r, "strong product construction"
    )


def _lex_cross_color(alpha_color: int, n: int, p: int, q: int) -> int:
    """Minimal-variant color of a cross edge between copy slots p, q (0-based).

    Written with 1-based slot numbers p', q' in 1..n: slot pairs on the
    anti-diagonal p'+q' = n+1 take the block's top color alpha * n, everything
    else takes (alpha-1)*n + ((p'+q'-1) mod n), whose residue lands in 1..n-1.
    """
    s = (p + 1) + (q + 1)
    if s == n + 1:
        return alpha_color * n
    return (alpha_color - 1) * n + (s - 1) % n


def lex_empty_interval(
    g: Graph, alpha: EdgeColoring, n: int, variant: str = "w"
) -> tuple[ProductGraph, EdgeColoring]:
    """Interval coloring of the lexicographic blow-up by n independent vertices.

    variant "w" uses t*n colors; variant "W" uses t*n + n - 1 colors (the
    widest this blow-up is guaranteed to reach when alpha is itself widest).
    """
    _require_copies(n)
    if variant not in ("w", "W"):
        raise BadParameter(f"variant must be 'w' or 'W', got {variant!r}")
    t = _validated_alpha(g, alpha)
    left = _by_edge(g, alpha)

    def rule(i: int, p: int, j: int, q: int) -> int:
        if variant == "w":
            return _lex_cross_color(left[(i, j)], n, p, q)
        return (left[(i, j)] - 1) * n + p + q + 1

    expected = t * n if variant == "w" else t * n + n - 1
    return _compose(
        ProductKind.LEXICOGRAPHIC, g, build_graph(n, []), rule, expected,
        f"lexicographic blow-up ({variant} variant)",
    )


def lex_regular_interval(
    g: Graph, alpha: EdgeColoring, h: Graph, budget: int = DEFAULT_BUDGET
) -> tuple[ProductGraph, EdgeColoring]:
    """Interval (t*n+r)-coloring of the lexicographic product with regular class-1 H.

    Cross edges take the blow-up colors lifted by r; each copy of H sits below
    its own cross block, anchored at (min S(u_i) - 1) * n.
    """
    t = _validated_alpha(g, alpha)
    r = _require_regular(h)
    n = h.n
    h_colors = _by_edge(h, _interval_regular_coloring(h, budget))
    min_s, _ = _spectra_bounds(g, alpha)
    left = _by_edge(g, alpha)

    def rule(i: int, p: int, j: int, q: int) -> int:
        if i == j:
            return (min_s[i] - 1) * n + h_colors[(p, q)]
        return r + _lex_cross_color(left[(i, j)], n, p, q)

    return _compose(
        ProductKind.LEXICOGRAPHIC, g, h, rule, t * n + r,
        "lexicographic product construction",
    )


def cartesian_interval(
    g: Graph, alpha_g: EdgeColoring, h: Graph, alpha_h: EdgeColoring
) -> tuple[ProductGraph, EdgeColoring]:
    """Interval (t_g + t_h)-coloring of the Cartesian product.

    Left-layer edges keep their left color shifted up by the fiber's minimum
    right color minus one; right-layer edges are shifted above the copy's
    maximum left color. At every vertex the two shifted spectra meet without
    overlap or gap, and the top color is t_g + t_h.
    """
    t_g = _validated_alpha(g, alpha_g)
    t_h = _validated_alpha(h, alpha_h)
    min_h, _ = _spectra_bounds(h, alpha_h)
    _, max_g = _spectra_bounds(g, alpha_g)
    left, right = _by_edge(g, alpha_g), _by_edge(h, alpha_h)

    def rule(i: int, p: int, j: int, q: int) -> int:
        if p == q:
            return left[(i, j)] + min_h[p] - 1
        return right[(p, q)] + max_g[i]

    return _compose(
        ProductKind.CARTESIAN, g, h, rule, t_g + t_h, "cartesian composition"
    )


def torus_hamming_membership(dims: Sequence[int], kind: str) -> bool:
    """Parity decision: a torus or Hamming graph is interval colorable iff the
    product of its dimensions is even."""
    dims = tuple(dims)
    if kind == "torus":
        if len(dims) != 2:
            raise BadParameter(f"a torus has exactly 2 dimensions, got {len(dims)}")
        if any(d < 2 for d in dims):
            raise BadParameter(f"torus dimensions must be >= 2, got {dims}")
    elif kind == "hamming":
        if not dims:
            raise BadParameter("a Hamming graph needs at least one dimension")
        if any(d < 2 for d in dims):
            raise BadParameter(f"Hamming dimensions must be >= 2, got {dims}")
    else:
        raise BadParameter(f"kind must be 'torus' or 'hamming', got {kind!r}")
    parity = 1
    for d in dims:
        parity = parity * d % 2
    return parity == 0


class BoundReport(_Record):
    """Exact evaluation of a known bound formula; never a claim of tightness."""

    kind: ProductKind | None
    w_upper: int | None
    W_lower: int | None
    source: str


def _odd_decomposition(n: int) -> tuple[int, int]:
    """n = p * 2**q with p odd."""
    q = 0
    while n % 2 == 0:
        n //= 2
        q += 1
    return n, q


def _req(params: dict, *names: str) -> list:
    missing = [name for name in names if name not in params]
    if missing:
        raise BadParameter(f"missing parameter(s) {', '.join(missing)}")
    unknown = [name for name in params if name not in names]
    if unknown:
        raise BadParameter(f"unknown parameter(s) {', '.join(map(repr, unknown))}")
    return [params[name] for name in names]


def _composition(params: dict, *names: str) -> list:
    """_req for a composition bound: 1 <= w <= W for each factor, r, n >= 1."""
    got = dict(zip(names, _req(params, *names)))
    for w, W in (("w_g", "W_g"), ("w_h", "W_h")):
        if w in got and not 1 <= got[w] <= got[W]:
            raise BadParameter(f"composition bound needs 1 <= {w} <= {W}, got {got[w]},{got[W]}")
    for name in ("r", "n"):
        if name in got and got[name] < 1:
            raise BadParameter(f"composition bound needs {name} >= 1, got {got[name]}")
    return list(got.values())


def _path_degree(m: int) -> int:
    if m < 1:
        raise BadParameter(f"path length must be >= 1, got {m}")
    return 0 if m == 1 else (1 if m == 2 else 2)


def _exact_delta(family: str, dims: Sequence[int]) -> int:
    dims = tuple(dims)
    if family == "grid":
        if not dims:
            raise BadParameter("grid needs at least one dimension")
        return sum(_path_degree(d) for d in dims)
    if family == "cylinder":
        if len(dims) != 2:
            raise BadParameter("cylinder needs dimensions (m, k)")
        m, k = dims
        if k < 4 or k % 2:
            raise BadParameter(f"the cylinder result needs an even cycle >= 4, got {k}")
        return _path_degree(m) + 2
    if family == "torus":
        if len(dims) != 2:
            raise BadParameter("torus needs dimensions (a, b)")
        if any(d < 4 or d % 2 for d in dims):
            raise BadParameter(f"the torus result needs even dimensions >= 4, got {dims}")
        return 4
    raise BadParameter(f"no exact minimal-count result for family {family!r}")


def bound_report(theorem: str, **params) -> BoundReport:
    """Evaluate one of the known bound formulas; a missing parameter, or one
    the formula does not read, raises BadParameter.

    Product composition bounds (w <= W per factor, r / n as needed; all >= 1):
      t2  cartesian      w <= w_g + w_h           W >= W_g + W_h
      t12 tensor         w <= w_g * r             W >= W_g * r
      t13 strong tensor  w <= w_g * (r+1)         W >= W_g * (r+1)
      t14 strong         w <= w_g * (r+1) + r     W >= W_g * (r+1) + r
      t16 lex blow-up    w <= w_g * n             W >= (W_g + 1) * n - 1
      t17 lex            w <= w_g * n + r         W >= W_g * n + r

    Family formulas:
      t3  family=..., dims=...   exact minimal count = max degree
      t4  m, n   cylinder on (m, 2n):      W >= 3m + n - 2
      t5  m, n   torus on (2m, 2n):        W >= max(3m + n, 3n + m)
      t6  n      hypercube:                W >= n(n+1)/2
      t7  n      complete graph on 2n:     W >= 4n - 2 - p - q  (n = p * 2**q)
      t8  n, k   Hamming power of K_{2n}:  minimal = (2n-1)k, W >= (4n-2-p-q)k
    """
    p = params
    if theorem == "t2":
        w_g, W_g, w_h, W_h = _composition(p, "w_g", "W_g", "w_h", "W_h")
        return BoundReport(ProductKind.CARTESIAN, w_g + w_h, W_g + W_h, theorem)
    if theorem == "t12":
        w_g, W_g, r = _composition(p, "w_g", "W_g", "r")
        return BoundReport(ProductKind.TENSOR, w_g * r, W_g * r, theorem)
    if theorem == "t13":
        w_g, W_g, r = _composition(p, "w_g", "W_g", "r")
        return BoundReport(ProductKind.STRONG_TENSOR, w_g * (r + 1), W_g * (r + 1), theorem)
    if theorem == "t14":
        w_g, W_g, r = _composition(p, "w_g", "W_g", "r")
        return BoundReport(
            ProductKind.STRONG, w_g * (r + 1) + r, W_g * (r + 1) + r, theorem
        )
    if theorem == "t16":
        w_g, W_g, n = _composition(p, "w_g", "W_g", "n")
        return BoundReport(
            ProductKind.LEXICOGRAPHIC, w_g * n, (W_g + 1) * n - 1, theorem
        )
    if theorem == "t17":
        w_g, W_g, r, n = _composition(p, "w_g", "W_g", "r", "n")
        return BoundReport(
            ProductKind.LEXICOGRAPHIC, w_g * n + r, W_g * n + r, theorem
        )
    if theorem == "t3":
        family, dims = _req(p, "family", "dims")
        delta = _exact_delta(family, dims)
        return BoundReport(ProductKind.CARTESIAN, delta, delta, theorem)
    if theorem == "t4":
        m, n = _req(p, "m", "n")
        if m < 1 or n < 2:
            raise BadParameter(f"cylinder bound needs m >= 1 and n >= 2, got {m},{n}")
        return BoundReport(ProductKind.CARTESIAN, None, 3 * m + n - 2, theorem)
    if theorem == "t5":
        m, n = _req(p, "m", "n")
        if m < 2 or n < 2:
            raise BadParameter(f"torus bound needs m, n >= 2, got {m},{n}")
        return BoundReport(
            ProductKind.CARTESIAN, None, max(3 * m + n, 3 * n + m), theorem
        )
    if theorem == "t6":
        (n,) = _req(p, "n")
        if n < 1:
            raise BadParameter(f"hypercube bound needs n >= 1, got {n}")
        return BoundReport(ProductKind.CARTESIAN, None, n * (n + 1) // 2, theorem)
    if theorem == "t7":
        (n,) = _req(p, "n")
        if n < 1:
            raise BadParameter(f"complete-graph bound needs n >= 1, got {n}")
        odd, q = _odd_decomposition(n)
        return BoundReport(None, None, 4 * n - 2 - odd - q, theorem)
    if theorem == "t8":
        n, k = _req(p, "n", "k")
        if n < 1 or k < 1:
            raise BadParameter(f"Hamming power bound needs n, k >= 1, got {n},{k}")
        odd, q = _odd_decomposition(n)
        return BoundReport(
            ProductKind.CARTESIAN,
            (2 * n - 1) * k,
            (4 * n - 2 - odd - q) * k,
            theorem,
        )
    raise BadParameter(f"unknown theorem id {theorem!r}")
