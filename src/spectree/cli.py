"""Command line front end.

Subcommands: spectrum, aconn, beta, verify, table2, enumerate, export.
Graphs come either from a family descriptor (--family "windmill:3,4") or a
JSON file (--file graph.json); --line replaces the graph by its line graph
before anything else runs. Text output prints values at 6 significant
digits; json and csv keep full precision.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .eigen import eigenvalues, group_spectrum, spectrum_to_dict
from .families import build, enumerate_free_trees, line_graph, parse_family, tkst_tree
from .graphs import Graph, edge_list, is_tree, load_graph
from .spectra import (
    a_beta_m,
    adjacency_matrix,
    algebraic_connectivity,
    laplacian,
    q_matrix,
    q_min,
)
from .verify import ALL_CLAIMS, run_claim


def _add_graph_args(p: argparse.ArgumentParser, with_line: bool = True) -> None:
    p.add_argument("--family", help='family descriptor, e.g. "tkst:1,2,3" or "windmill:3,4"')
    p.add_argument("--file", help="path to a graph JSON file {n, edges}")
    if with_line:
        p.add_argument("--line", action="store_true", help="take the line graph first")


def _resolve_graph(parser: argparse.ArgumentParser, args) -> Graph:
    if bool(args.family) == bool(args.file):
        parser.error("give exactly one of --family or --file")
    if args.family:
        try:
            g = build(parse_family(args.family))
        except ValueError as exc:
            parser.error(str(exc))
    else:
        try:
            g = load_graph(args.file)
        except (OSError, ValueError, KeyError) as exc:
            parser.error(f"cannot load {args.file}: {exc}")
    if getattr(args, "line", False):
        g, _ = line_graph(g)
    return g


def _print_rows(rows, header, fmt: str, out=None) -> None:
    out = out or sys.stdout
    if fmt == "csv":
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(repr(c) if isinstance(c, float) else str(c) for c in row) + "\n")
    else:
        for row in rows:
            out.write(" ".join(f"{c:.6g}" if isinstance(c, float) else str(c) for c in row) + "\n")


def _cmd_spectrum(parser, args) -> int:
    if args.matrix == "q" and args.m < 2:
        parser.error("--m must be >= 2 for the q matrix")
    g = _resolve_graph(parser, args)
    if args.matrix == "laplacian":
        mat = laplacian(g)
    elif args.matrix == "adjacency":
        mat = adjacency_matrix(g)
    else:
        mat = q_matrix(g, args.m)
    spec = group_spectrum(eigenvalues(mat))
    if args.format == "json":
        print(json.dumps(spectrum_to_dict(spec)))
    else:
        _print_rows([(float(v), int(k)) for v, k in spec.pairs], ("value", "multiplicity"), args.format)
    return 0


def _cmd_aconn(parser, args) -> int:
    g = _resolve_graph(parser, args)
    val = algebraic_connectivity(g)
    if args.format == "json":
        print(json.dumps({"value": val}))
    elif args.format == "csv":
        print("value")
        print(repr(val))
    else:
        print(f"{val:.6g}")
    return 0


def _cmd_beta(parser, args) -> int:
    if args.m < 2:
        parser.error("--m must be >= 2")
    tree = _resolve_graph(parser, args)
    if not is_tree(tree):
        parser.error("beta expects a tree")
    lg, _ = line_graph(tree)
    val = a_beta_m(tree, args.m)
    scaled = (args.m - 1) * algebraic_connectivity(lg)
    qmin = q_min(lg, args.m)
    if args.format == "json":
        print(json.dumps({"m": args.m, "value": val, "scaled_aconn": scaled, "q_min": qmin}))
    elif args.format == "csv":
        print("m,value,scaled_aconn,q_min")
        print(f"{args.m},{val!r},{scaled!r},{qmin!r}")
    else:
        print(f"{val:.6g}")
        print(f"# (m-1)*a(L(X)) = {scaled:.6g}, q_min = {qmin:.6g}")
    return 0


def _cmd_verify(parser, args) -> int:
    if not (math.isfinite(args.tol) and args.tol > 0):
        parser.error("--tol must be finite and > 0")
    if args.m is not None and args.m < 2:
        parser.error("--m must be >= 2")
    if args.max_n < 2:
        parser.error("--max-n must be >= 2")
    claims = list(ALL_CLAIMS) if args.claim == "all" else [args.claim]
    reports = []
    for cid in claims:
        reports.extend(run_claim(cid, args.tol, max_n=args.max_n, m=args.m))
    if args.format == "json":
        print(json.dumps([r.to_dict() for r in reports]))
    else:
        for r in reports:
            print(r.to_text())
            print()
        verdict = "PASS" if all(r.ok for r in reports) else "FAIL"
        print(f"overall: {verdict}")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_table2(parser, args) -> int:
    (report,) = run_claim("table-2")
    if args.format == "json":
        print(json.dumps(report.to_dict()))
    else:
        print(report.to_text())
    return 0 if report.ok else 1


def _cmd_enumerate(parser, args) -> int:
    if args.n < 1:
        parser.error("--n must be >= 1")
    trees = enumerate_free_trees(args.n)
    if args.format == "json":
        print(
            json.dumps(
                {"n": args.n, "count": len(trees), "trees": [edge_list(t) for t in trees]}
            )
        )
    elif args.format == "csv":
        print("index,edges")
        for i, t in enumerate(trees):
            print(f"{i}," + " ".join(f"{u}-{v}" for u, v in edge_list(t)))
    else:
        for t in trees:
            print(json.dumps(edge_list(t)))
    return 0


def _parse_range(parser, text: str, lo_min: int, what: str) -> range:
    try:
        lo, hi = (int(p) for p in text.split(":"))
    except ValueError:
        parser.error(f"{what} must look like lo:hi, got {text!r}")
    if lo < lo_min or hi < lo:
        parser.error(f"{what} needs {lo_min} <= lo <= hi")
    return range(lo, hi + 1)


def _cmd_export(parser, args) -> int:
    ss = _parse_range(parser, args.s_range, 1, "--s-range")
    ts = _parse_range(parser, args.t_range, 1, "--t-range")
    ms = _parse_range(parser, args.m_range, 2, "--m-range")
    rows = []
    for s in ss:
        for t in ts:
            for m in ms:
                rows.append((s, t, m, a_beta_m(tkst_tree(1, s, t), m)))
    if args.out == "-":
        _print_rows(rows, ("s", "t", "m", "a_beta"), "csv")
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            _print_rows(rows, ("s", "t", "m", "a_beta"), "csv", out=fh)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectree",
        description="Laplacian spectra of Kronecker products of graphs with complete graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="grouped eigenvalues of a graph matrix")
    _add_graph_args(p)
    p.add_argument("--matrix", choices=("laplacian", "adjacency", "q"), default="laplacian")
    p.add_argument("--m", type=int, default=2, help="m for the q matrix A + (m-1)D")
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("aconn", help="algebraic connectivity")
    _add_graph_args(p)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_aconn)

    p = sub.add_parser("beta", help="a(L(X) x K_m) for a tree X, both routes")
    _add_graph_args(p, with_line=False)
    p.add_argument("--m", type=int, default=2)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_beta)

    p = sub.add_parser("verify", help="run claim checks")
    p.add_argument("claim", choices=("all",) + ALL_CLAIMS)
    p.add_argument(
        "--tol",
        type=float,
        default=1e-8,
        help="comparison tolerance, finite and > 0; table-2 uses its fixed print precision (0.01)",
    )
    p.add_argument("--max-n", type=int, default=8, help="tree size cap for the thm-2.1 sweep")
    p.add_argument("--m", type=int, default=None, help="restrict thm-2.1 to a single m")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table2", help="recompute the survey table of small trees")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_table2)

    p = sub.add_parser("enumerate", help="all free trees on n vertices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("export", help="CSV sweep of a(beta_m(T(1,s,t)))")
    p.add_argument("--s-range", required=True, help="inclusive lo:hi")
    p.add_argument("--t-range", required=True, help="inclusive lo:hi")
    p.add_argument("--m-range", required=True, help="inclusive lo:hi")
    p.add_argument("--out", default="-", help="output path, - for stdout")
    p.set_defaults(func=_cmd_export)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(parser, args)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
