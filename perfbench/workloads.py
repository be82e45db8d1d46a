"""The three workloads: inputs made in set-up from the seed, and the fixed
operation list of one pass.

The seed fixes the random vertex relabelling of every input graph, which
edges get recoloured in the corrupted colourings, and which 7-vertex atlas
graphs are sampled. gapfree only ever sees the generated files and graphs.
Inputs are generated here, without gapfree, so set-up time does not depend on
the program under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gate

HERE = Path(__file__).resolve().parent

SIZES = {
    "full": {
        "path": 100, "cycle": 100, "blowup": 20, "clique": 8,
        "grid": ((3, 4), {"member": True, "w": 4, "W": 8, "status": "complete"}),
        "oracle_budget": 2_000_000, "capped_budget": 1_000_000, "chi_budget": 500_000,
        "k": 14, "long_path": 1500,
        "atlas_max_vertices": 6, "atlas_sample": 150, "atlas_budget": 20_000,
    },
    # only for the self-test: the same operations at a size that runs in seconds
    "tiny": {
        "path": 12, "cycle": 12, "blowup": 3, "clique": 4,
        "grid": ((2, 3), {"member": True, "w": 3, "W": 5, "status": "complete"}),
        "oracle_budget": 20_000, "capped_budget": 20_000, "chi_budget": 20_000,
        "k": 14, "long_path": 1500,
        "atlas_max_vertices": 4, "atlas_sample": 6, "atlas_budget": 2_000,
    },
}

# `gapfree oracle --t` and `chi-prime` recurse once per edge; on P1500 they die
# with this error and exit 1, the code for a negative verdict. The table below
# keeps the true verdict, so these operations count as failed until fixed.
KNOWN_DEFECT = "RecursionError"


@dataclass
class Outcome:
    exit: int
    stdout: str
    stderr: str
    peak_rss_kb: int = 0  # the process's own high-water mark; 0 in-process


@dataclass
class Op:
    """One gapfree command of a pass, with the check its output must pass."""

    name: str
    kind: str  # construct | verify | oracle | chi-prime
    argv: list[str]
    check: Callable[[Outcome], list[str]]
    outputs: tuple[Path, ...] = ()  # files it writes; their bytes join the digest
    prepare: Callable[[], None] | None = None  # untimed input preparation
    known_defect: str | None = None  # stderr marker of a documented failure


@dataclass
class Graph:
    n: int
    edges: list[tuple[int, int]]
    path: Path | None = None

    @property
    def spec(self) -> tuple[int, list[tuple[int, int]]]:
        return self.n, self.edges


def relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"{seed}:{name}")


def _graph(workdir: Path, seed: int, name: str, n: int, edges) -> Graph:
    g = Graph(n, relabel(n, edges, _rng(seed, name)), workdir / f"{name}.g")
    g.path.write_text(gate.format_graph(g.n, g.edges))
    return g


def _path_edges(n):
    return [(i, i + 1) for i in range(n - 1)]


def _cycle_edges(n):
    return _path_edges(n) + [(0, n - 1)]


def _clique_edges(n):
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def _read(path: Path) -> str:
    return path.read_text(encoding="ascii")


def _verdict(want_exit: int, want: dict | None) -> Callable[[Outcome], list[str]]:
    return lambda out: gate.verdict_problems(out.exit, out.stdout, want_exit, want)


# ------------------------------------------------------------ construct-large


@dataclass
class ConstructInputs:
    workdir: Path
    seed: int
    left: Graph
    left_coloring: Path
    rights: dict[str, Graph]
    blowup: int


def construct_setup(workdir: Path, seed: int, size: dict) -> ConstructInputs:
    n = size["path"]
    # the path's own labels are relabelled, so colour it along the walk
    perm = list(range(n))
    _rng(seed, "left").shuffle(perm)
    walk = {(min(perm[i], perm[i + 1]), max(perm[i], perm[i + 1])): 1 + i % 2 for i in range(n - 1)}
    left = Graph(n, sorted(walk), workdir / "left.g")
    left.path.write_text(gate.format_graph(n, left.edges))
    left_coloring = workdir / "left.col"
    left_coloring.write_text(gate.format_coloring(2, left.edges, [walk[e] for e in left.edges]))
    rights = {
        "cycle": _graph(workdir, seed, "cycle", size["cycle"], _cycle_edges(size["cycle"])),
        "clique": _graph(workdir, seed, "clique", size["clique"], _clique_edges(size["clique"])),
    }
    return ConstructInputs(workdir, seed, left, left_coloring, rights, size["blowup"])


def construct_ops(inp: ConstructInputs) -> list[Op]:
    plan = [("t12", "cycle"), ("t13", "cycle"), ("t14", "cycle"), ("t16w", None), ("t17", "clique")]
    ops: list[Op] = []
    for theorem, right_name in plan:
        kind, colours = gate.THEOREMS[theorem]
        if right_name is None:
            h = Graph(inp.blowup, [])
            right_args = ["--n", str(inp.blowup)]
        else:
            h = inp.rights[right_name]
            right_args = ["--right", str(h.path)]
        r = 2 * len(h.edges) // h.n
        t = colours(2, r, h.n)
        m = gate.product_edge_count(kind, inp.left.n, len(inp.left.edges), h.n, len(h.edges))
        prod = inp.workdir / f"{theorem}.g"
        col = inp.workdir / f"{theorem}.col"
        bad = inp.workdir / f"{theorem}.bad.col"
        expected_violations: dict[str, int] = {}

        def check_construct(out, kind=kind, h=h, t=t, m=m, prod=prod, col=col):
            problems = gate.exit_problems(out.exit, 0)
            line = f"t={t} vertices={inp.left.n * h.n} edges={m}"
            if out.stdout.strip() != line:
                problems.append(f"printed {out.stdout.strip()!r}, theorem gives {line!r}")
            p = gate.parse_graph(_read(prod))
            problems += gate.product_problems(kind, inp.left.spec, h.spec, p)
            file_t, colors = gate.parse_coloring(_read(col), p[1])
            if file_t != t:
                problems.append(f"colouring header t={file_t}, theorem gives {t}")
            return problems + gate.interval_problems(p[0], p[1], colors, t, f"{theorem} colouring")

        def make_bad(theorem=theorem, prod=prod, col=col, bad=bad, out=expected_violations):
            if bad.exists():  # made in an earlier pass from the same construct output
                return
            n, edges = gate.parse_graph(_read(prod))
            t, colors = gate.parse_coloring(_read(col), edges)
            wrong = gate.corrupt(colors, t, _rng(inp.seed, f"corrupt:{theorem}"))
            bad.write_text(gate.format_coloring(t, edges, wrong))
            out.update(gate.count_violations(n, edges, wrong, t))

        def check_verify(out, t=t, want_exit=0, want=None):
            want = want if want is not None else {"properness": 0, "gap": 0, "palette": 0}
            return gate.exit_problems(out.exit, want_exit) + gate.verify_output_problems(
                out.stdout, t, want
            )

        construct_argv = ["construct", "--theorem", theorem, "--left", str(inp.left.path),
                          "--left-coloring", str(inp.left_coloring), *right_args,
                          "--out", str(col), "--product-out", str(prod)]
        ops += [
            Op(f"construct {theorem}", "construct", construct_argv, check_construct,
               outputs=(col, prod, Path(f"{prod}.prov"))),
            Op(f"verify {theorem}", "verify", ["verify", str(prod), str(col)], check_verify),
            Op(f"verify {theorem} corrupted", "verify", ["verify", str(prod), str(bad)],
               lambda out, t=t, want=expected_violations: check_verify(out, t, 1, want),
               prepare=make_bad),
        ]
    return ops


# ---------------------------------------------------------------- oracle-hard


@dataclass
class OracleInputs:
    workdir: Path
    graphs: dict[str, Graph]
    size: dict


def oracle_setup(workdir: Path, seed: int, size: dict) -> OracleInputs:
    (a, b), _ = size["grid"]
    grid = [(i * b + j, i * b + j + 1) for i in range(a) for j in range(b - 1)]
    grid += [(i * b + j, (i + 1) * b + j) for i in range(a - 1) for j in range(b)]
    cube = [(u, u | 1 << k) for u in range(8) for k in range(3) if not u >> k & 1]
    petersen = _cycle_edges(5) + [(i, i + 5) for i in range(5)]
    petersen += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    # tensor product P4 x C5, vertex (i, p) at 5 * i + p
    tensor = [
        (5 * i + p, 5 * (i + 1) + q)
        for i in range(3)
        for p, q in _cycle_edges(5) + [(v, u) for u, v in _cycle_edges(5)]
    ]
    specs = {
        "grid": (a * b, grid),
        "cube": (8, cube),
        "petersen": (10, petersen),
        "p4xc5": (20, tensor),
        "clique": (size["k"], _clique_edges(size["k"])),
        "long-path": (size["long_path"], _path_edges(size["long_path"])),
    }
    graphs = {name: _graph(workdir, seed, name, n, edges) for name, (n, edges) in specs.items()}
    return OracleInputs(workdir, graphs, size)


def oracle_ops(inp: OracleInputs) -> list[Op]:
    g, size = inp.graphs, inp.size
    budget = ["--json", "--budget", str(size["oracle_budget"])]
    chi_budget = ["--json", "--budget", str(size["chi_budget"])]
    (a, b), grid_verdict = size["grid"]
    long_path = g["long-path"]
    walk_col = inp.workdir / "long-path.t2.col"
    chi_col = inp.workdir / "long-path.chi.col"

    def witness(path: Path, check) -> list[str]:
        if not path.exists():
            return [f"no witness written to {path.name}"]
        t, colors = gate.parse_coloring(_read(path), long_path.edges)
        return check(t, colors)

    def check_walk(out):
        problems = _verdict(0, {"t": 2, "found": True})(out)
        return problems or witness(walk_col, lambda t, c: gate.interval_problems(
            long_path.n, long_path.edges, c, 2, "path witness"))

    def check_chi(out):
        problems = _verdict(0, {"chi_prime": 2, "class1": True, "max_degree": 2})(out)
        return problems or witness(chi_col, lambda t, c: gate.proper_problems(
            long_path.edges, c, 2, "path chi' witness"))

    return [
        Op(f"oracle grid{a}x{b}", "oracle", ["oracle", str(g["grid"].path), *budget],
           _verdict(0, grid_verdict)),
        Op("oracle Q3", "oracle", ["oracle", str(g["cube"].path), *budget],
           _verdict(0, {"member": True, "w": 3, "W": 6, "status": "complete"})),
        Op("oracle petersen", "oracle", ["oracle", str(g["petersen"].path), *budget],
           _verdict(1, {"member": False, "w": None, "W": None, "status": "complete"})),
        Op("oracle P4xC5", "oracle",
           ["oracle", str(g["p4xc5"].path), "--json", "--budget", str(size["capped_budget"])],
           _verdict(2, {"member": True, "w": 4, "W": None, "status": "budget_exceeded",
                        "nodes": size["capped_budget"] + 1})),
        Op(f"chi-prime K{size['k']}", "chi-prime",
           ["chi-prime", str(g["clique"].path), *chi_budget], _verdict(2, None)),
        Op(f"oracle --t 2 P{long_path.n}", "oracle",
           ["oracle", str(long_path.path), "--t", "2", *budget, "--out", str(walk_col)],
           check_walk, outputs=(walk_col,), known_defect=KNOWN_DEFECT),
        Op(f"chi-prime P{long_path.n}", "chi-prime",
           ["chi-prime", str(long_path.path), *chi_budget, "--out", str(chi_col)],
           check_chi, outputs=(chi_col,), known_defect=KNOWN_DEFECT),
    ]


# ---------------------------------------------------------------- atlas-sweep


@dataclass
class AtlasInputs:
    budget: int
    # (atlas index, vertex count, relabelled canonical edges)
    graphs: list[tuple[int, int, list[tuple[int, int]]]] = field(default_factory=list)


def atlas_setup(workdir: Path, seed: int, size: dict) -> AtlasInputs:
    import networkx

    atlas = networkx.graph_atlas_g()
    small = [i for i, a in enumerate(atlas) if a.number_of_edges() and a.number_of_nodes() <= size["atlas_max_vertices"]]
    seven = [i for i, a in enumerate(atlas) if a.number_of_edges() and a.number_of_nodes() == 7]
    chosen = small + sorted(stratified_sample(seven, size["atlas_sample"], _rng(seed, "atlas")))
    inp = AtlasInputs(size["atlas_budget"])
    for i in chosen:
        a = atlas[i]
        inp.graphs.append((i, a.number_of_nodes(), relabel(a.number_of_nodes(), a.edges(), _rng(seed, f"atlas:{i}"))))
    return inp


def stratified_sample(population: list[int], k: int, rng: random.Random) -> list[int]:
    """k items spread evenly over the ordered population, one drawn at random
    from each of k equal slices.

    The atlas lists graphs by edge count, so each slice holds graphs of about
    the same density and the sample's mix of easy and hard graphs, and so the
    work of a pass, changes little from seed to seed.
    """
    step = len(population) / k
    return [population[int(j * step + rng.random() * step)] for j in range(k)]


def load_atlas_verdicts() -> dict[int, tuple[bool, int | None, int | None]]:
    with open(HERE / "atlas_verdicts.json", encoding="ascii") as fh:
        return {int(k): tuple(v) for k, v in json.load(fh).items()}


def atlas_problems(idx: int, n: int, edges, result, budget: int, expected) -> list[str]:
    """Check one oracle() result against the recorded verdict and check every
    witness with our own interval checker."""
    what = f"atlas graph {idx}"
    problems = []
    for t, coloring in result.witnesses.items():
        problems += gate.interval_problems(n, edges, list(coloring.colors), t, f"{what} witness t={t}")
    found = sorted(result.witnesses)
    got = (result.member, result.w, result.W)
    if result.status == "complete":
        want = expected.get(idx)
        if want is not None and got != want:
            problems.append(f"{what}: (member, w, W) = {got}, recorded {want}")
        if found and (found[0], found[-1]) != (result.w, result.W) or bool(found) != bool(result.member):
            problems.append(f"{what}: w/W {got[1:]} disagree with witnesses for {found}")
    elif result.status == "budget_exceeded":
        want = expected.get(idx, (None, None, None))
        if result.W is not None or result.member != (True if found else None):
            problems.append(f"{what}: partial result claims {got}")
        if found and want[1] is not None and found[0] != want[1]:
            problems.append(f"{what}: least witness t={found[0]}, recorded w={want[1]}")
        if result.nodes_explored != budget + 1:
            problems.append(f"{what}: budget {budget} exhausted after {result.nodes_explored} nodes")
    else:
        problems.append(f"{what}: unknown status {result.status!r}")
    return problems
