"""Graphviz DOT export of graphs and colored graphs."""

from __future__ import annotations

from .colorings import EdgeColoring, _check_total
from .graph import Graph

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
