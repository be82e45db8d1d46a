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
import gc
import json
import os
import sys

from .chromatic import bipartite_regular_coloring, exact_chromatic_index
from .colorings import load_coloring, to_dot, verify_interval, write_coloring
from .constructions import (
    _require_copies,
    _require_regular,
    bound_report,
    cartesian_interval,
    lex_empty_interval,
    lex_regular_interval,
    strong_interval,
    strong_tensor_interval,
    tensor_interval,
    torus_hamming_membership,
)
from .errors import BadParameter, BudgetExceeded, GapfreeError
from .families import generate
from .graph import read_edge_list, write_edge_list
from .oracle import BUDGET_EXCEEDED, find_interval_coloring, oracle
from .products import ProductKind, product, write_provenance
from .search import DEFAULT_BUDGET

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
        key, eq, value = chunk.partition("=")
        key = key.strip()
        if not (eq and key):
            raise BadParameter(f"bad parameter {chunk!r}, expected key=value")
        if key in out:
            raise BadParameter(f"parameter {key!r} given twice")
        try:
            out[key] = int(value)
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


def _emit(args, schema: str, fields: dict, text: str | None = None) -> None:
    """Print one result line: under --json the schema and then the fields as
    JSON, otherwise text, by default the fields as space-separated key=value."""
    if args.json:
        print(json.dumps({"schema": schema, **fields}))
    else:
        print(" ".join(f"{k}={v}" for k, v in fields.items()) if text is None else text)


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


# theorem -> (option naming the second operand, its check, composer(g, alpha,
# operand, args, budget)); a right factor arrives read. The check runs before
# any search for a factor coloring. Composers name their constructor at call
# time, so a replaced module attribute is the one called.
_THEOREMS = {
    "t2": ("right", None, lambda g, alpha, h, args, budget: cartesian_interval(
        g, alpha, h, _get_alpha(h, args.right_coloring, budget))),
    "t12": ("right", _require_regular,
            lambda g, alpha, h, args, budget: tensor_interval(g, alpha, h)),
    "t13": ("right", _require_regular,
            lambda g, alpha, h, args, budget: strong_tensor_interval(g, alpha, h)),
    "t14": ("right", _require_regular,
            lambda g, alpha, h, args, budget: strong_interval(g, alpha, h, budget)),
    "t16w": ("n", _require_copies,
             lambda g, alpha, n, args, budget: lex_empty_interval(g, alpha, n, "w")),
    "t16W": ("n", _require_copies,
             lambda g, alpha, n, args, budget: lex_empty_interval(g, alpha, n, "W")),
    "t17": ("right", _require_regular,
            lambda g, alpha, h, args, budget: lex_regular_interval(g, alpha, h, budget)),
}


def _cmd_construct(args) -> int:
    budget = _budget(args)
    operand, check, compose = _THEOREMS[args.theorem]
    value = getattr(args, operand)
    if value is None:
        raise BadParameter(f"--{operand} is required for {args.theorem}")
    g = read_edge_list(args.left)
    if operand == "right":
        value = read_edge_list(value)
    if check is not None:
        check(value)
    alpha = _get_alpha(g, args.left_coloring, budget)
    prod, coloring = compose(g, alpha, value, args, budget)
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
    violation = "gapfree.violation/1"
    rows = [
        *({"schema": violation, "kind": "properness", "vertex": v.vertex,
           "edges": [v.first_edge, v.second_edge], "color": v.color}
          for v in report.properness_violations),
        *({"schema": violation, "kind": "gap", "vertex": v.vertex, "colors": list(v.colors)}
          for v in report.gap_violations),
        *({"schema": violation, "kind": "palette", "color": c} for c in report.unused_colors),
        {"schema": "gapfree.verify/1", "valid": report.valid, "t": report.t},
    ]
    for row in rows:
        print(json.dumps(row))
    return 0 if report.valid else 1


def _cmd_oracle(args) -> int:
    if args.out is not None and args.t is None:
        raise BadParameter("--out needs --t: only a single-t probe writes a witness")
    g = read_edge_list(args.graph)
    budget = _budget(args)
    if args.t is not None:
        found = find_interval_coloring(g, args.t, budget)
        if found is not None and args.out:
            write_coloring(args.out, g, found)
        text = (f"found an interval {args.t}-coloring" if found is not None
                else f"no interval {args.t}-coloring exists")
        _emit(args, "gapfree.oracle/1", {"t": args.t, "found": found is not None}, text)
        return 1 if found is None else 0
    result = oracle(g, budget)
    _emit(args, "gapfree.oracle/1", {"member": result.member, "w": result.w, "W": result.W,
                                     "nodes": result.nodes_explored, "status": result.status})
    if result.status == BUDGET_EXCEEDED:
        return 2
    return 0 if result.member else 1


def _cmd_bounds(args) -> int:
    params: dict = _parse_params(args.params)
    for name in ("family", "dims"):
        if name in params:
            raise BadParameter(f"{name} is not an integer parameter; give it with --{name}")
    if args.family:
        params["family"] = args.family
    if args.dims:
        params["dims"] = _parse_dims(args.dims)
    report = bound_report(args.theorem, **params)
    kind = report.kind.value if report.kind else None
    _emit(args, "gapfree.bounds/1",
          {"source": report.source, "kind": kind, "w_upper": report.w_upper,
           "W_lower": report.W_lower},
          f"source={report.source} w_upper={report.w_upper} W_lower={report.W_lower}")
    return 0


def _cmd_membership(args) -> int:
    dims = _parse_dims(args.dims)
    member = torus_hamming_membership(dims, args.family)
    _emit(args, "gapfree.membership/1",
          {"family": args.family, "dims": list(dims), "member": member},
          "interval colorable" if member else "not interval colorable")
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
    _emit(args, "gapfree.chi-prime/1", {"chi_prime": result.chi_prime, "class1": result.class1,
                                        "max_degree": g.max_degree})
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
    p.add_argument("--theorem", required=True, choices=list(_THEOREMS))
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
        if getattr(args, "out", None) == "":
            # before any file is read; the commands test args.out for truth
            raise BadParameter("--out needs a non-empty path")
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return 2
    except (GapfreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    # a CLI process builds many int tuples and no reference cycles worth
    # collecting, so the cyclic collector only costs time; callers of run()
    # in their own process keep theirs
    gc.disable()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
