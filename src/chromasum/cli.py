"""Command-line entry point: generate family graphs, solve single
instances, run verification campaigns, and print prediction tables.

Exit codes: 0 success, 1 usage or file error (a verify plan with no row,
or a graph too deep for the search, is a usage error), 2 budget
exhausted, 3 mismatches found under --strict.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import families, formulas
from .solvers import QUANTITIES, BudgetExhausted, SearchBudget, check_depth, solve
from .verification import (
    DESK_CAPS,
    REPORT_FORMATS,
    ResultsCache,
    run_campaign,
    status_counts,
    summary_line,
    write_reports,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chromasum")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="emit a family graph")
    gen.add_argument("spec", help="family spec, e.g. helm:7")
    gen.add_argument("--dot", action="store_true", help="DOT output (default: `n m` header, one edge per line)")
    gen.set_defaults(func=cmd_generate)

    slv = sub.add_parser("solve", help="solve one quantity exactly")
    slv.add_argument("spec", help="family spec, e.g. helm:3")
    slv.add_argument("--quantity", required=True, choices=QUANTITIES)
    _add_budget_args(slv)
    slv.set_defaults(func=cmd_solve)

    ver = sub.add_parser("verify", help="audit published values over a parameter grid")
    ver.add_argument(
        "--families",
        default=",".join(formulas.COVERED_FAMILIES),
        help="comma-separated family kinds (default: every family with published values)",
    )
    ver.add_argument("--n-min", type=int, default=families.MIN_N)
    ver.add_argument(
        "--n-max",
        type=int,
        default=None,
        help="largest n for every family (default: per-family desk-scale caps)",
    )
    ver.add_argument(
        "--quantities",
        default=",".join(QUANTITIES),
        help="comma-separated quantities (default: all)",
    )
    ver.add_argument("--format", default="all", choices=(*REPORT_FORMATS, "all"))
    ver.add_argument("--out", default="chromasum_report", help="report/witness output directory")
    # the CPUs this process may run on, where the OS keeps an affinity mask
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    ver.add_argument("--jobs", type=int, default=cpus)
    ver.add_argument("--strict", action="store_true", help="exit 3 if any row mismatches")
    _add_budget_args(ver)
    ver.set_defaults(func=cmd_verify)

    tab = sub.add_parser("table", help="print published predictions for one quantity")
    tab.add_argument("--family", required=True)
    tab.add_argument("--quantity", required=True)
    tab.add_argument("--n-max", type=int, required=True)
    tab.set_defaults(func=cmd_table)

    return parser


def _add_budget_args(p: argparse.ArgumentParser):
    default = SearchBudget()
    p.add_argument("--budget-nodes", type=int, default=default.max_nodes)
    p.add_argument("--budget-secs", type=float, default=default.max_time)


def cmd_generate(args) -> int:
    # read off the ring row, building no graph; no family has an isolated vertex
    kind, n = families.parse_family(args.spec)
    edges = sorted({(min(e), max(e)) for e in families.edges(kind, n)})
    if args.dot:
        lines = [f"graph {kind}_{n} {{", *(f"  {u} -- {v};" for u, v in edges), "}"]
    else:
        lines = [f"{families.order(kind, n)} {len(edges)}", *(f"{u} {v}" for u, v in edges)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_solve(args) -> int:
    kind, n = families.parse_family(args.spec)
    # a graph too deep to search is refused before its bitsets are built
    check_depth(families.order(kind, n))
    g = families.make(kind, n)
    budget = SearchBudget(max_nodes=args.budget_nodes, max_time=args.budget_secs)
    try:
        result = solve(g, args.quantity, budget)
    except BudgetExhausted as exc:
        print(f"error: {exc} after {exc.nodes_explored} nodes", file=sys.stderr)
        return 2
    print(json.dumps(result.to_json(), sort_keys=True))
    return 0


def cmd_verify(args) -> int:
    kinds = [f.strip() for f in args.families.split(",") if f.strip()]
    quantities = [q.strip() for q in args.quantities.split(",") if q.strip()]
    n_max = args.n_max if args.n_max is not None else dict(DESK_CAPS)
    budget = SearchBudget(max_nodes=args.budget_nodes, max_time=args.budget_secs)
    cache_path = os.environ.get("CHROMASUM_CACHE") or os.path.join(args.out, "cache", "results.json")
    cache = ResultsCache(cache_path)
    rows = run_campaign(
        kinds,
        args.n_min,
        n_max,
        quantities,
        budget=budget,
        out_dir=args.out,
        cache=cache,
        jobs=args.jobs,
    )
    write_reports(rows, args.out, tuple(REPORT_FORMATS) if args.format == "all" else (args.format,))
    print(summary_line(rows))
    counts = status_counts(rows)
    if args.strict and counts["mismatches"]:
        return 3
    if counts["aborted"]:
        return 2
    return 0


def cmd_table(args) -> int:
    entry = formulas.entry_for(args.family, args.quantity)
    for n in range(families.MIN_N, args.n_max + 1):
        print(f"{n} {entry.predict(n)}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if not exc.code else 1
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
