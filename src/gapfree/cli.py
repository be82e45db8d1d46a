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
from importlib import import_module

from .errors import BadParameter, BudgetExceeded, GapfreeError

# gapfree module -> the names this module calls from it. run() binds the names
# its subcommand calls as globals here, each one only if it is not bound yet,
# so a process imports only the modules its subcommand runs, and a wrapper or
# a monkeypatch set on this module beforehand is the object called; a first
# getattr of any of them binds it too
_SOURCES = {
    "chromatic": ("bipartite_regular_coloring", "exact_chromatic_index"),
    "colorings": ("load_coloring", "to_dot", "verify_interval", "write_coloring"),
    "constructions": (
        "_require_copies",
        "_require_regular",
        "bound_report",
        "cartesian_interval",
        "lex_empty_interval",
        "lex_regular_interval",
        "strong_interval",
        "strong_tensor_interval",
        "tensor_interval",
        "torus_hamming_membership",
    ),
    "families": ("generate",),
    "graph": ("read_edge_list", "write_edge_list"),
    "oracle": ("BUDGET_EXCEEDED", "find_interval_coloring", "oracle"),
    "products": ("ProductKind", "product", "write_provenance"),
    "search": ("DEFAULT_BUDGET",),
}
_SOURCE = {name: module for module, names in _SOURCES.items() for name in names}

# subcommand -> the names it calls; construct binds the oracle's only when it
# searches for a factor coloring (see _get_alpha)
_NEEDS = {
    "gen": ("generate", "write_edge_list"),
    "product": ("read_edge_list", "ProductKind", "product", "write_edge_list",
                "write_provenance"),
    "construct": ("DEFAULT_BUDGET", "read_edge_list", "load_coloring", "write_coloring",
                  "write_edge_list", "write_provenance", *_SOURCES["constructions"]),
    "verify": ("read_edge_list", "load_coloring", "verify_interval"),
    "oracle": ("DEFAULT_BUDGET", "read_edge_list", "find_interval_coloring", "oracle",
               "BUDGET_EXCEEDED", "write_coloring"),
    "bounds": ("bound_report",),
    "membership": ("torus_hamming_membership",),
    "export-dot": ("read_edge_list", "load_coloring", "to_dot"),
    "chi-prime": ("DEFAULT_BUDGET", "read_edge_list", "exact_chromatic_index", "write_coloring"),
    "bipartite-color": ("read_edge_list", "bipartite_regular_coloring", "write_coloring"),
}


def _bind(names) -> None:
    scope = globals()
    for name in names:
        if name not in scope:
            scope[name] = getattr(import_module(f".{_SOURCE[name]}", __package__), name)


def __getattr__(name):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _bind((name,))
    return globals()[name]


# --kind -> the ProductKind member's name
_KINDS = {
    "cartesian": "CARTESIAN",
    "tensor": "TENSOR",
    "strong-tensor": "STRONG_TENSOR",
    "strong": "STRONG",
    "lex": "LEXICOGRAPHIC",
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


def _non_negative(text: str, what: str = "budget") -> int:
    """Parse a search budget, a non-negative number of nodes, or another
    non-negative integer named `what`."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"{what} must be a non-negative integer, got {text!r}")
    return value


def _budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return args.budget
    env = os.environ.get("INTERVAL_BUDGET")
    try:
        return _non_negative(env) if env else DEFAULT_BUDGET
    except argparse.ArgumentTypeError as exc:
        raise BadParameter(f"INTERVAL_BUDGET: {exc}") from None


def _get_alpha(g, path, budget):
    """Load a factor coloring, or find a least-count witness with the oracle."""
    if path is not None:
        _, coloring = load_coloring(path, g)
        return coloring
    _bind(("oracle", "BUDGET_EXCEEDED"))
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
    # --dims, or --n with --m before it: an option the form does not read is an error
    given = [p for p in (args.m, args.n) if p is not None]
    if args.dims is not None and given:
        raise BadParameter(f"--{'n' if args.n is not None else 'm'} is not read with --dims")
    if args.m is not None and args.n is None:
        raise BadParameter("--m is not read without --n")
    params = _parse_dims(args.dims) if args.dims is not None else given
    g = generate(args.family, *params)
    write_edge_list(args.out, g)
    print(f"vertices={g.n} edges={g.m}")
    return 0


def _cmd_product(args) -> int:
    g = read_edge_list(args.left)
    h = read_edge_list(args.right)
    prod = product(ProductKind[_KINDS[args.kind]], g, h)
    write_edge_list(args.out, prod.graph)
    sidecar = args.provenance or args.out + ".prov"
    write_provenance(sidecar, prod)
    print(f"vertices={prod.graph.n} edges={prod.graph.m}")
    return 0


# theorem -> (option naming the second operand, its check, composer(g, alpha,
# operand, args, budget)); a right factor arrives read. The check runs before
# any search for a factor coloring (for t14 and t17, the overfull count too).
# Checks and composers name their functions at call time, so a replaced
# module attribute is the one called.
_THEOREMS = {
    "t2": ("right", None, lambda g, alpha, h, args, budget: cartesian_interval(
        g, alpha, h, _get_alpha(h, args.right_coloring, budget))),
    "t12": ("right", lambda h: _require_regular(h),
            lambda g, alpha, h, args, budget: tensor_interval(g, alpha, h)),
    "t13": ("right", lambda h: _require_regular(h),
            lambda g, alpha, h, args, budget: strong_tensor_interval(g, alpha, h)),
    "t14": ("right", lambda h: _require_regular(h, class1=True),
            lambda g, alpha, h, args, budget: strong_interval(g, alpha, h, budget)),
    "t16w": ("n", lambda n: _require_copies(n),
             lambda g, alpha, n, args, budget: lex_empty_interval(g, alpha, n, "w")),
    "t16W": ("n", lambda n: _require_copies(n),
             lambda g, alpha, n, args, budget: lex_empty_interval(g, alpha, n, "W")),
    "t17": ("right", lambda h: _require_regular(h, class1=True),
            lambda g, alpha, h, args, budget: lex_regular_interval(g, alpha, h, budget)),
}


def _cmd_construct(args) -> int:
    budget = _budget(args)
    operand, check, compose = _THEOREMS[args.theorem]
    # an operand option the theorem does not read is a usage error, not
    # something to ignore; only t2 reads the right factor's coloring
    reads = {operand, "right_coloring"} if args.theorem == "t2" else {operand}
    for option in ("right", "n", "right_coloring"):
        if getattr(args, option) is not None and option not in reads:
            flag = "--" + option.replace("_", "-")
            raise BadParameter(f"{flag} is not read by {args.theorem}")
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
    # each row is printed as it is made: a report of every violation is not
    # held a second time as rows
    for v in report.properness_violations:
        print(json.dumps({"schema": violation, "kind": "properness", "vertex": v.vertex,
                          "edges": [v.first_edge, v.second_edge], "color": v.color}))
    for v in report.gap_violations:
        print(json.dumps({"schema": violation, "kind": "gap", "vertex": v.vertex,
                          "colors": list(v.colors)}))
    for c in report.unused_colors:
        print(json.dumps({"schema": violation, "kind": "palette", "color": c}))
    print(json.dumps({"schema": "gapfree.verify/1", "valid": report.valid, "t": report.t}))
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


def _args_gen(p) -> None:
    p.add_argument("--family", required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--dims")
    p.add_argument("--out", required=True)


def _args_product(p) -> None:
    p.add_argument("--kind", required=True, choices=sorted(_KINDS))
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--provenance", help="sidecar path (default: OUT.prov)")


def _args_construct(p) -> None:
    p.add_argument("--theorem", required=True, choices=list(_THEOREMS))
    p.add_argument("--left", required=True)
    p.add_argument("--left-coloring", dest="left_coloring")
    p.add_argument("--right")
    p.add_argument("--right-coloring", dest="right_coloring")
    p.add_argument("--n", type=int, help="copy count for t16w/t16W")
    p.add_argument("--out", required=True)
    p.add_argument("--product-out", dest="product_out")
    p.add_argument("--budget", type=_non_negative)


def _args_verify(p) -> None:
    p.add_argument("graph")
    p.add_argument("coloring")


def _args_oracle(p) -> None:
    p.add_argument("graph")
    # t = 0 is a verdict (verify accepts a t=0 header); a negative t is a usage error
    p.add_argument("--t", type=lambda text: _non_negative(text, "t"),
                   help="probe a single color count")
    p.add_argument("--budget", type=_non_negative)
    p.add_argument("--out", help="write the witness coloring here")
    p.add_argument("--json", action="store_true")


def _args_bounds(p) -> None:
    p.add_argument("--theorem", required=True)
    p.add_argument("--params", help="comma-separated key=value integers")
    p.add_argument("--family", help="family name for t3")
    p.add_argument("--dims", help="dimension list for t3")
    p.add_argument("--json", action="store_true")


def _args_membership(p) -> None:
    p.add_argument("--family", required=True, choices=["torus", "hamming"])
    p.add_argument("--dims", required=True)
    p.add_argument("--json", action="store_true")


def _args_export_dot(p) -> None:
    p.add_argument("graph")
    p.add_argument("coloring", nargs="?")
    p.add_argument("--out", help="output path, or - for stdout")


def _args_chi_prime(p) -> None:
    p.add_argument("graph")
    p.add_argument("--budget", type=_non_negative)
    p.add_argument("--out", help="write the witness coloring here")
    p.add_argument("--json", action="store_true")


def _args_bipartite_color(p) -> None:
    p.add_argument("graph")
    p.add_argument("--out", help="write the coloring here")


# subcommand -> (help, handler, the function adding its arguments)
_COMMANDS = {
    "gen": ("generate a named graph family instance", _cmd_gen, _args_gen),
    "product": ("build one of the five graph products", _cmd_product, _args_product),
    "construct": ("compose an interval coloring of a product", _cmd_construct,
                  _args_construct),
    "verify": ("check a coloring file against a graph file", _cmd_verify, _args_verify),
    "oracle": ("exhaustive membership / least / greatest search", _cmd_oracle, _args_oracle),
    "bounds": ("evaluate a known bound formula", _cmd_bounds, _args_bounds),
    "membership": ("torus/Hamming parity decision", _cmd_membership, _args_membership),
    "export-dot": ("Graphviz DOT export, optionally colored", _cmd_export_dot,
                   _args_export_dot),
    "chi-prime": ("exact chromatic index of a small graph", _cmd_chi_prime, _args_chi_prime),
    "bipartite-color": ("exact coloring of a regular bipartite graph", _cmd_bipartite_color,
                        _args_bipartite_color),
}


def build_parser(command: str | None = None) -> _Parser:
    """The gapfree argument parser; given a subcommand, the parser of that
    subcommand alone, as argparse spends a few ms on each one it builds."""
    parser = _Parser(prog="gapfree", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, func, add_arguments) in _COMMANDS.items():
        if command in (None, name):
            p = sub.add_parser(name, help=text)
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def run(argv: list[str]) -> int:
    # a known subcommand first builds only its own parser; any other argv
    # (--help, an unknown or a missing subcommand) the whole one
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
        _bind(_NEEDS[args.command])
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"unknown: {exc}", file=sys.stderr)
        return 2
    except (GapfreeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # an input too large for this machine
        print("error: out of memory", file=sys.stderr)
        return 3


def main() -> None:
    # a CLI process builds many int tuples and no reference cycles worth
    # collecting, so the cyclic collector only costs time; callers of run()
    # in their own process keep theirs
    gc.disable()
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
