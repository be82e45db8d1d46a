"""Command-line entry point.

Subcommands: gen, product, construct, verify, oracle, bounds, membership,
export-dot, chi-prime, bipartite-color. Exit codes are stable: 0 success /
positive verdict, 1 negative verdict, 2 unknown (search budget exhausted),
3 usage or input error. Identical argv always produces identical output; no
timestamps or randomness anywhere on this path. The INTERVAL_BUDGET
environment variable overrides the default search budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .chromatic import bipartite_regular_coloring, exact_chromatic_index
from .colorings import load_coloring, verify_interval, write_coloring
from .constructions import (
    bound_report,
    cartesian_interval,
    lex_empty_interval,
    lex_regular_interval,
    strong_interval,
    strong_tensor_interval,
    tensor_interval,
    torus_hamming_membership,
)
from .dot import to_dot
from .errors import BadParameter, BudgetExceeded, GapfreeError
from .families import generate
from .graph import read_edge_list, write_edge_list
from .limits import DEFAULT_BUDGET
from .oracle import BUDGET_EXCEEDED, find_interval_coloring, oracle
from .products import ProductKind, product, write_provenance

_KINDS = {
    "cartesian": ProductKind.CARTESIAN,
    "tensor": ProductKind.TENSOR,
    "strong-tensor": ProductKind.STRONG_TENSOR,
    "strong": ProductKind.STRONG,
    "lex": ProductKind.LEXICOGRAPHIC,
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part != "")
    except ValueError:
        raise BadParameter(f"bad dimension list {text!r}") from None


def _parse_params(text: str | None) -> dict[str, int]:
    if not text:
        return {}
    out: dict[str, int] = {}
    for chunk in text.split(","):
        if not chunk:
            continue
        if "=" not in chunk:
            raise BadParameter(f"bad parameter {chunk!r}, expected key=value")
        key, value = chunk.split("=", 1)
        try:
            out[key.strip()] = int(value)
        except ValueError:
            raise BadParameter(f"parameter {key!r} needs an integer value") from None
    return out


def _node_count(text: str) -> int:
    """Parse a search budget: a non-negative number of nodes."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"budget must be a non-negative integer, got {text!r}")
    return value


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("INTERVAL_BUDGET")
    try:
        return _node_count(env) if env else DEFAULT_BUDGET
    except argparse.ArgumentTypeError as exc:
        raise BadParameter(f"INTERVAL_BUDGET: {exc}") from None


def _get_alpha(g, path, budget):
    """Load a factor coloring, or find a least-count witness with the oracle."""
    if path is not None:
        _, coloring = load_coloring(path, g)
        return coloring
    result = oracle(g, budget)
    if result.w is not None:
        return result.witnesses[result.w]
    if result.status == BUDGET_EXCEEDED:
        raise BudgetExceeded(
            "oracle budget exhausted before a factor coloring was found",
            result.nodes_explored,
        )
    raise BadParameter(
        "factor admits no interval coloring; it cannot be used by this construction"
    )


def _cmd_gen(args) -> int:
    params: tuple[int, ...]
    if args.dims:
        params = _parse_dims(args.dims)
    elif args.m is not None and args.n is not None:
        params = (args.m, args.n)
    elif args.n is not None:
        params = (args.n,)
    else:
        params = ()
    g = generate(args.family, *params)
    write_edge_list(args.out, g)
    print(f"vertices={g.n} edges={g.m}")
    return 0


def _cmd_product(args) -> int:
    g = read_edge_list(args.left)
    h = read_edge_list(args.right)
    prod = product(_KINDS[args.kind], g, h)
    write_edge_list(args.out, prod.graph)
    sidecar = args.provenance or args.out + ".prov"
    write_provenance(sidecar, prod)
    print(f"vertices={prod.graph.n} edges={prod.graph.m}")
    return 0


def _cmd_construct(args) -> int:
    budget = _budget(args)
    g = read_edge_list(args.left)
    alpha = _get_alpha(g, args.left_coloring, budget)
    theorem = args.theorem
    if theorem in ("t16w", "t16W"):
        if args.n is None:
            raise BadParameter(f"--n is required for {theorem}")
        prod, coloring = lex_empty_interval(
            g, alpha, args.n, "w" if theorem == "t16w" else "W"
        )
    else:
        if args.right is None:
            raise BadParameter(f"--right is required for {theorem}")
        h = read_edge_list(args.right)
        if theorem == "t2":
            beta = _get_alpha(h, args.right_coloring, budget)
            prod, coloring = cartesian_interval(g, alpha, h, beta)
        elif theorem == "t12":
            prod, coloring = tensor_interval(g, alpha, h)
        elif theorem == "t13":
            prod, coloring = strong_tensor_interval(g, alpha, h)
        elif theorem == "t14":
            prod, coloring = strong_interval(g, alpha, h, budget)
        else:
            prod, coloring = lex_regular_interval(g, alpha, h, budget)
    write_coloring(args.out, prod.graph, coloring)
    if args.product_out:
        write_edge_list(args.product_out, prod.graph)
        write_provenance(args.product_out + ".prov", prod)
    print(f"t={coloring.t} vertices={prod.graph.n} edges={prod.graph.m}")
    return 0


def _cmd_verify(args) -> int:
    g = read_edge_list(args.graph)
    t, coloring = load_coloring(args.coloring, g)
    report = verify_interval(g, coloring, t)
    for pv in report.properness_violations:
        print(
            json.dumps(
                {
                    "schema": "gapfree.violation/1",
                    "kind": "properness",
                    "vertex": pv.vertex,
                    "edges": [pv.first_edge, pv.second_edge],
                    "color": pv.color,
                }
            )
        )
    for gv in report.gap_violations:
        print(
            json.dumps(
                {
                    "schema": "gapfree.violation/1",
                    "kind": "gap",
                    "vertex": gv.vertex,
                    "colors": list(gv.colors),
                }
            )
        )
    for c in report.unused_colors:
        print(
            json.dumps(
                {"schema": "gapfree.violation/1", "kind": "palette", "color": c}
            )
        )
    print(json.dumps({"schema": "gapfree.verify/1", "valid": report.valid, "t": report.t}))
    return 0 if report.valid else 1


def _cmd_oracle(args) -> int:
    g = read_edge_list(args.graph)
    budget = _budget(args)
    if args.t is not None:
        try:
            found = find_interval_coloring(g, args.t, budget)
        except BudgetExceeded as exc:
            print(f"unknown: {exc}", file=sys.stderr)
            return 2
        if found is None:
            if args.json:
                print(json.dumps({"schema": "gapfree.oracle/1", "t": args.t, "found": False}))
            else:
                print(f"no interval {args.t}-coloring exists")
            return 1
        if args.out:
            write_coloring(args.out, g, found)
        if args.json:
            print(json.dumps({"schema": "gapfree.oracle/1", "t": args.t, "found": True}))
        else:
            print(f"found an interval {args.t}-coloring")
        return 0
    result = oracle(g, budget)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": "gapfree.oracle/1",
                    "member": result.member,
                    "w": result.w,
                    "W": result.W,
                    "nodes": result.nodes_explored,
                    "status": result.status,
                }
            )
        )
    else:
        print(
            f"member={result.member} w={result.w} W={result.W}"
            f" nodes={result.nodes_explored} status={result.status}"
        )
    if result.status == BUDGET_EXCEEDED:
        return 2
    return 0 if result.member else 1


def _cmd_bounds(args) -> int:
    params: dict = _parse_params(args.params)
    if args.family:
        params["family"] = args.family
    if args.dims:
        params["dims"] = _parse_dims(args.dims)
    report = bound_report(args.theorem, **params)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": "gapfree.bounds/1",
                    "source": report.source,
                    "kind": report.kind.value if report.kind else None,
                    "w_upper": report.w_upper,
                    "W_lower": report.W_lower,
                }
            )
        )
    else:
        print(f"source={report.source} w_upper={report.w_upper} W_lower={report.W_lower}")
    return 0


def _cmd_membership(args) -> int:
    dims = _parse_dims(args.dims)
    member = torus_hamming_membership(dims, args.family)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": "gapfree.membership/1",
                    "family": args.family,
                    "dims": list(dims),
                    "member": member,
                }
            )
        )
    else:
        print("interval colorable" if member else "not interval colorable")
    return 0 if member else 1


def _cmd_export_dot(args) -> int:
    g = read_edge_list(args.graph)
    coloring = None
    if args.coloring:
        _, coloring = load_coloring(args.coloring, g)
    text = to_dot(g, coloring)
    if args.out and args.out != "-":
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_chi_prime(args) -> int:
    g = read_edge_list(args.graph)
    result = exact_chromatic_index(g, _budget(args))
    if args.out:
        write_coloring(args.out, g, result.witness)
    if args.json:
        print(
            json.dumps(
                {
                    "schema": "gapfree.chi-prime/1",
                    "chi_prime": result.chi_prime,
                    "class1": result.class1,
                    "max_degree": g.max_degree,
                }
            )
        )
    else:
        print(f"chi_prime={result.chi_prime} class1={result.class1} max_degree={g.max_degree}")
    return 0 if result.class1 else 1


def _cmd_bipartite_color(args) -> int:
    g = read_edge_list(args.graph)
    coloring = bipartite_regular_coloring(g)
    if args.out:
        write_coloring(args.out, g, coloring)
    print(f"t={coloring.t}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="gapfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a named graph family instance")
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--dims")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("product", help="build one of the five graph products")
    p.add_argument("--kind", required=True, choices=sorted(_KINDS))
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--provenance", help="sidecar path (default: OUT.prov)")
    p.set_defaults(func=_cmd_product)

    p = sub.add_parser("construct", help="compose an interval coloring of a product")
    p.add_argument(
        "--theorem", required=True,
        choices=["t2", "t12", "t13", "t14", "t16w", "t16W", "t17"],
    )
    p.add_argument("--left", required=True)
    p.add_argument("--left-coloring", dest="left_coloring")
    p.add_argument("--right")
    p.add_argument("--right-coloring", dest="right_coloring")
    p.add_argument("--n", type=int, help="copy count for t16w/t16W")
    p.add_argument("--out", required=True)
    p.add_argument("--product-out", dest="product_out")
    p.add_argument("--budget", type=_node_count)
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("verify", help="check a coloring file against a graph file")
    p.add_argument("graph")
    p.add_argument("coloring")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive membership / least / greatest search")
    p.add_argument("graph")
    p.add_argument("--t", type=int, help="probe a single color count")
    p.add_argument("--budget", type=_node_count)
    p.add_argument("--out", help="write the witness coloring here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("bounds", help="evaluate a known bound formula")
    p.add_argument("--theorem", required=True)
    p.add_argument("--params", help="comma-separated key=value integers")
    p.add_argument("--family", help="family name for t3")
    p.add_argument("--dims", help="dimension list for t3")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("membership", help="torus/Hamming parity decision")
    p.add_argument("--family", required=True, choices=["torus", "hamming"])
    p.add_argument("--dims", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_membership)

    p = sub.add_parser("export-dot", help="Graphviz DOT export, optionally colored")
    p.add_argument("graph")
    p.add_argument("coloring", nargs="?")
    p.add_argument("--out", help="output path, or - for stdout")
    p.set_defaults(func=_cmd_export_dot)

    p = sub.add_parser("chi-prime", help="exact chromatic index of a small graph")
    p.add_argument("graph")
    p.add_argument("--budget", type=_node_count)
    p.add_argument("--out", help="write the witness coloring here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_chi_prime)

    p = sub.add_parser(
        "bipartite-color", help="exact coloring of a regular bipartite graph"
    )
    p.add_argument("graph")
    p.add_argument("--out", help="write the coloring here")
    p.set_defaults(func=_cmd_bipartite_color)

    return parser


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 3
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return 2
    except GapfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
