"""Spans and counts for the traced run, recorded from the benchmark's side only.

install() replaces public gapfree functions with timing wrappers where the
calling module binds them (gapfree.cli.verify_interval,
gapfree.constructions.product, gapfree.oracle.bfs_edge_order, ...), so
nothing under src/ changes. A span records its name, the operation it belongs
to, its parent span, start and end. Counts are taken from the public values
the wrapped calls return. Everything stays in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import defaultdict

CONSTRUCTORS = (
    "tensor_interval", "strong_tensor_interval", "strong_interval",
    "lex_empty_interval", "lex_regular_interval", "cartesian_interval",
)

# span names whose durations are subtracted from a constructor's own time
CONSTRUCTOR_CHILDREN = ("products.product", "chromatic.peel", "chromatic.chi", "colorings.verify")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.op = ""

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else None
        self.stack.append(len(self.spans))
        self.spans.append({"name": name, "op": self.op, "parent": parent, "start": time.perf_counter()})

    def close(self) -> None:
        self.spans[self.stack.pop()]["end"] = time.perf_counter()


def _count_read(tr, g, args):
    tr.counts["graph.read_edges"] += g.m


def _count_product(tr, prod, args):
    tr.counts["products.edges_built"] += prod.graph.m


def _count_verify(tr, report, args):
    tr.counts["colorings.verify_edges"] += args[0].m


def _oracle_probes(g, result) -> int:
    """Probes made by oracle(), derived from its public result.

    It probes t from the max degree up to search_ceiling(g) and, for regular
    graphs, stops at the first t without a colouring. When the budget runs out
    the interrupted probe is taken to follow the last witness, which for a
    non-regular graph is a lower bound.
    """
    from gapfree.oracle import search_ceiling

    if g.m == 0:
        return 0
    delta = g.max_degree
    if result.status != "complete":
        return max(result.witnesses, default=delta - 1) - delta + 2
    if len(set(g.degrees)) > 1:
        return search_ceiling(g) - delta + 1
    if result.W is None:
        return 1
    return result.W - delta + 1 + (result.W < search_ceiling(g))


def _count_oracle(tr, result, args):
    tr.counts["oracle.nodes"] += result.nodes_explored
    tr.counts["oracle.probes"] += _oracle_probes(args[0], result)
    tr.counts["oracle.found_probes"] += len(result.witnesses)
    if result.status != "complete":
        tr.counts["oracle.wasted_nodes"] += result.nodes_explored


def _count_probe(tr, found, args):
    # a completed single-t probe reports no node count
    tr.counts["oracle.probes"] += 1
    tr.counts["oracle.found_probes"] += found is not None


def _count_probe_error(tr, exc, args):
    from gapfree.errors import BudgetExceeded

    tr.counts["oracle.probes"] += 1
    if isinstance(exc, BudgetExceeded):
        tr.counts["oracle.nodes"] += exc.nodes
        tr.counts["oracle.wasted_nodes"] += exc.nodes


# (module, attribute, span name, count on return, count on exception)
TARGETS = [
    ("gapfree.cli", "read_edge_list", "graph.read", _count_read, None),
    ("gapfree.cli", "write_edge_list", "graph.write", None, None),
    ("gapfree.oracle", "bfs_edge_order", "graph.bfs_order", None, None),
    ("gapfree.chromatic", "bfs_edge_order", "graph.bfs_order", None, None),
    ("gapfree.cli", "product", "products.product", _count_product, None),
    ("gapfree.constructions", "product", "products.product", _count_product, None),
    ("gapfree.cli", "write_provenance", "products.provenance_write", None, None),
    ("gapfree.cli", "verify_interval", "colorings.verify", _count_verify, None),
    ("gapfree.constructions", "verify_interval", "colorings.verify", _count_verify, None),
    ("gapfree.cli", "load_coloring", "colorings.load", None, None),
    ("gapfree.cli", "write_coloring", "colorings.write", None, None),
    ("gapfree.cli", "bipartite_regular_coloring", "chromatic.peel", None, None),
    ("gapfree.constructions", "bipartite_regular_coloring", "chromatic.peel", None, None),
    ("gapfree.cli", "exact_chromatic_index", "chromatic.chi", None, None),
    ("gapfree.constructions", "exact_chromatic_index", "chromatic.chi", None, None),
    *[("gapfree.cli", name, "constructions.construct", None, None) for name in CONSTRUCTORS],
    ("gapfree.cli", "oracle", "oracle.search", _count_oracle, None),
    # the atlas sweep calls gapfree.oracle.oracle itself
    ("gapfree.oracle", "oracle", "oracle.search", _count_oracle, None),
    ("gapfree.cli", "find_interval_coloring", "oracle.search", _count_probe, _count_probe_error),
]


def _wrap(tr: Tracer, name: str, fn, on_result, on_error):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tr.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            tr.close()
            if on_error is not None:
                on_error(tr, exc, args)
            raise
        tr.close()
        if on_result is not None:
            on_result(tr, result, args)
        return result

    return traced


def install(tr: Tracer):
    """Wrap every target; returns a function that puts the originals back."""
    saved = []
    for module_name, attr, name, on_result, on_error in TARGETS:
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, _wrap(tr, name, original, on_result, on_error))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


# per-layer metric -> unit; the traced run reports exactly these
LAYER_UNITS = {
    "cli.startup_ms": "ms",
    "graph.read_s": "s",
    "graph.read_edges": "count",
    "graph.write_s": "s",
    "graph.bfs_order_calls": "count",
    "graph.bfs_order_s": "s",
    "products.product_s": "s",
    "products.edges_built": "count",
    "products.provenance_write_s": "s",
    "colorings.verify_s": "s",
    "colorings.verify_calls": "count",
    "colorings.verify_edges": "count",
    "colorings.load_s": "s",
    "colorings.write_s": "s",
    "chromatic.peel_s": "s",
    "chromatic.peel_calls": "count",
    "chromatic.chi_s": "s",
    "chromatic.chi_calls": "count",
    "constructions.assign_s": "s",
    "constructions.calls": "count",
    "oracle.search_s": "s",
    "oracle.nodes": "count",
    "oracle.nodes_per_s": "1/s",
    "oracle.probes": "count",
    "oracle.nodes_per_probe": "count",
    "oracle.found_probe_frac": "ratio",
    "oracle.wasted_node_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Per-layer totals of one traced pass (everything but cli.startup_ms and
    trace.overhead_frac, which the runner measures)."""
    busy: defaultdict[str, float] = defaultdict(float)
    calls: defaultdict[str, int] = defaultdict(int)
    child_busy = [0.0] * len(tr.spans)
    for i, span in enumerate(tr.spans):
        duration = span["end"] - span["start"]
        busy[span["name"]] += duration
        calls[span["name"]] += 1
        parent = span["parent"]
        if parent is not None and span["name"] in CONSTRUCTOR_CHILDREN:
            child_busy[parent] += duration
    assign = sum(
        span["end"] - span["start"] - child_busy[i]
        for i, span in enumerate(tr.spans)
        if span["name"] == "constructions.construct"
    )
    c = tr.counts
    nodes, probes, search = c["oracle.nodes"], c["oracle.probes"], busy["oracle.search"]
    return {
        "graph.read_s": busy["graph.read"],
        "graph.read_edges": c["graph.read_edges"],
        "graph.write_s": busy["graph.write"],
        "graph.bfs_order_calls": calls["graph.bfs_order"],
        "graph.bfs_order_s": busy["graph.bfs_order"],
        "products.product_s": busy["products.product"],
        "products.edges_built": c["products.edges_built"],
        "products.provenance_write_s": busy["products.provenance_write"],
        "colorings.verify_s": busy["colorings.verify"],
        "colorings.verify_calls": calls["colorings.verify"],
        "colorings.verify_edges": c["colorings.verify_edges"],
        "colorings.load_s": busy["colorings.load"],
        "colorings.write_s": busy["colorings.write"],
        "chromatic.peel_s": busy["chromatic.peel"],
        "chromatic.peel_calls": calls["chromatic.peel"],
        "chromatic.chi_s": busy["chromatic.chi"],
        "chromatic.chi_calls": calls["chromatic.chi"],
        "constructions.assign_s": assign,
        "constructions.calls": calls["constructions.construct"],
        "oracle.search_s": search,
        "oracle.nodes": nodes,
        "oracle.nodes_per_s": nodes / search if search else 0.0,
        "oracle.probes": probes,
        "oracle.nodes_per_probe": nodes / probes if probes else 0.0,
        "oracle.found_probe_frac": c["oracle.found_probes"] / probes if probes else 0.0,
        "oracle.wasted_node_frac": c["oracle.wasted_nodes"] / nodes if nodes else 0.0,
    }


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in passes) for k in passes[0]}
