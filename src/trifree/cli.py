"""Command-line interface.

Data goes to stdout in the selected format (JSON by default); progress and
diagnostics go to stderr.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 resource-limit error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import graphs, montecarlo, search, verify
from .errors import LimitExceededError
from .exact import poly_eval, tf_poly, tf_profile

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_LIMIT = 3


def parse_probability(text: str) -> tuple[Fraction, bool]:
    """Parse "num/den" exactly or a decimal as an exact 10^-d rational.

    Returns (value, came_from_decimal).
    """
    text = text.strip()
    if "." in text and "/" not in text:
        whole, frac = text.split(".", 1)
        if not (whole + frac).isdigit() and not (whole in ("", "-") and frac.isdigit()):
            raise ValueError(f"cannot parse probability {text!r}")
        return Fraction(text), True
    num, slash, den = text.partition("/")
    try:
        num, den = int(num), int(den) if slash else 1
    except ValueError:
        raise ValueError(f"cannot parse probability {text!r}") from None
    if den == 0:
        raise ValueError(f"probability {text!r} has a zero denominator")
    return Fraction(num, den), False


def resolve_graph(source: str) -> graphs.Graph:
    """Named constructor ("mantel+1:6", "K:3,3", "complete:4", "g1".."g3")
    or a graph6 string."""
    s = source.strip()
    lowered = s.lower()
    if lowered.startswith("mantel+1:"):
        return graphs.mantel_plus_one(int(s.split(":", 1)[1]))
    if lowered.startswith("k:"):
        sizes = s.split(":", 1)[1].split(",")
        if len(sizes) != 2:
            raise ValueError(f"expected K:a,b with two part sizes, got {s!r}")
        return graphs.complete_bipartite(int(sizes[0]), int(sizes[1]))
    if lowered.startswith("complete:"):
        return graphs.complete_graph(int(s.split(":", 1)[1]))
    if lowered in ("g1", "g2", "g3"):
        trio = graphs.two_extra_edge_candidates()
        return trio[int(lowered[1]) - 1]
    return graphs.parse_graph6(s)


def _graph_from_args(args) -> graphs.Graph:
    sources = [
        args.graph is not None,
        args.construct is not None,
        args.graph_file is not None,
        bool(args.stdin),
    ]
    if sum(sources) != 1:
        raise ValueError(
            "exactly one graph source required: --graph, --construct, "
            "--graph-file or --stdin"
        )
    if args.graph is not None:
        return resolve_graph(args.graph)
    if args.construct is not None:
        return resolve_graph(args.construct)
    if args.stdin:
        return graphs.parse_graph6(sys.stdin.read())
    with open(args.graph_file) as fh:
        text = fh.read()
    first = next((ln for ln in text.splitlines() if ln.strip()), "")
    parts = first.split()
    if len(parts) == 2 and all(p.lstrip("-").isdigit() for p in parts):
        return graphs.parse_edge_list(text)
    return graphs.parse_graph6(text)


def _add_graph_args(sub: argparse.ArgumentParser):
    sub.add_argument("--graph", help="graph6 string or named constructor")
    sub.add_argument("--construct", help="named constructor, e.g. mantel+1:6, K:3,3")
    sub.add_argument("--graph-file", help="file with graph6 or 'u v' edge lines")
    sub.add_argument("--stdin", action="store_true", help="read graph6 from stdin")


def _emit(args, payload: dict, text_lines: list[str], csv_rows: list[list] | None):
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    elif args.format == "text":
        print("\n".join(text_lines))
    else:
        import csv as _csv

        writer = _csv.writer(sys.stdout)
        for row in csv_rows or []:
            writer.writerow(row)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_phi(args) -> int:
    g = _graph_from_args(args)
    # a bad --p is a usage error before any exact counting runs
    parsed_p = parse_probability(args.p) if args.p is not None else None
    prof = tf_profile(g, args.k)
    poly = tf_poly(g, args.k)  # a cache hit: the engine counted g once
    payload = {
        "graph6": graphs.write_graph6(g),
        "n": g.n,
        "m": g.m,
        "clique_order": args.k,
        "profile": [str(c) for c in prof.counts],
        "polynomial": poly.to_json_dict(),
        "polynomial_text": poly.to_text(),
    }
    lines = [
        f"graph6: {payload['graph6']}  (n={g.n}, m={g.m}, clique order {args.k})",
        f"profile: {' '.join(payload['profile'])}",
        f"polynomial: {poly.to_text()}",
    ]
    if parsed_p is not None:
        p, from_decimal = parsed_p
        value = poly_eval(poly, p)
        payload["p"] = {"value": str(p), "from_decimal": from_decimal}
        payload["value"] = str(value)
        lines.append(f"value at p={p}: {value} ({float(value):.9f})")
    csv_rows = [["s", "count"]] + [[s, str(c)] for s, c in enumerate(prof.counts)]
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.capped and (args.one_extra is None or args.prune):
        raise ValueError("--capped needs --one-extra N and excludes --prune")
    checks = []
    ran_any = False
    if args.all or args.one_extra is not None:
        ns = [args.one_extra] if args.one_extra is not None else [3, 4, 5, 6]
        for n in ns:
            if args.capped:
                print(f"proving optimum at one extra edge by triangle cap, n={n} ...",
                      file=sys.stderr)
                checks.extend(verify.check_one_extra_capped(n))
            else:
                print(f"verifying optimum at one extra edge, n={n} ...", file=sys.stderr)
                checks.extend(verify.check_one_extra(n, prune=args.prune))
        ran_any = True
    if args.all or args.ls is not None:
        pairs = [tuple(args.ls)] if args.ls is not None else [
            (n, i) for n in range(3, 7) for i in range(1, n // 2 + 1) if 2 * i < n
        ]
        for n, i in pairs:
            print(f"checking triangle lower bound, n={n} i={i} ...", file=sys.stderr)
            checks.extend(verify.check_ls(n, i))
        ran_any = True
    if args.all or args.linear_bound:
        print("checking linear triple-system bound on corpus ...", file=sys.stderr)
        checks.extend(verify.check_linear_bound())
        ran_any = True
    if args.all or args.two_extra:
        print("reproducing the two-extra-edges analysis at n=6 ...", file=sys.stderr)
        checks.extend(verify.check_two_extra())
        ran_any = True
    if not ran_any:
        raise ValueError(
            "select at least one check: --one-extra N, --ls N I, "
            "--linear-bound, --two-extra or --all"
        )
    ok = all(c.passed for c in checks)
    payload = {"checks": [c.to_json() for c in checks], "pass": ok}
    lines = [
        f"[{'PASS' if c.passed else 'FAIL'}] {c.claim}: {c.lhs} {c.relation} {c.rhs}"
        for c in checks
    ] + [f"overall: {'PASS' if ok else 'FAIL'}"]
    csv_rows = [["claim", "pass"]] + [[c.claim, c.passed] for c in checks]
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_search(args) -> int:
    p, _ = parse_probability(args.p)
    report = search.maximize_tf(args.n, args.i, p, prune=args.prune)
    payload = report.to_json()
    lines = [
        f"n={report.n} i={report.i} p={report.p}",
        f"max value: {report.max_value} ({float(report.max_value):.9f})",
        f"maximizers: {', '.join(report.maximizers)}",
        f"classes: {report.enumerated} enumerated, {report.pruned} pruned",
    ]
    csv_rows = [["graph6", "max_value"]] + [
        [g6, str(report.max_value)] for g6 in report.maximizers
    ]
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK


def cmd_envelope(args) -> int:
    report = search.envelope(args.n, args.i)
    payload = report.to_json()
    lines = [f"n={report.n} i={report.i}"]
    for seg in report.segments:
        lines.append(
            f"({float(seg.lo):.6f}, {float(seg.hi):.6f}): {', '.join(seg.maximizers)}"
        )
    for r in report.crossovers:
        lines.append(f"crossover in [{r.lo}, {r.hi}] approx {r.approx:.12f}")
    csv_rows = [["lo", "hi", "maximizers"]] + [
        [str(seg.lo), str(seg.hi), " ".join(seg.maximizers)] for seg in report.segments
    ]
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK


def _jobs_from_env() -> int:
    text = os.environ.get("TRIFREE_JOBS", "1")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"TRIFREE_JOBS must be an integer, got {text!r}") from None


def cmd_mc(args) -> int:
    jobs = _jobs_from_env() if args.jobs is None else args.jobs
    g = _graph_from_args(args)
    p, _ = parse_probability(args.p)
    est = montecarlo.estimate_tf(
        g, p, args.samples, args.seed, clique_order=args.k, jobs=jobs
    )
    payload = est.to_json()
    lines = [
        f"mean: {est.mean:.9f}",
        f"95% interval: [{est.ci_low:.9f}, {est.ci_high:.9f}]",
        f"samples: {est.samples}, seed: {est.seed}, p: {est.p}, "
        f"clique order: {est.clique_order}",
    ]
    csv_rows = [
        ["mean", "ci_low", "ci_high", "samples", "seed", "p", "clique_order"],
        [est.mean, est.ci_low, est.ci_high, est.samples, est.seed, str(est.p),
         est.clique_order],
    ]
    _emit(args, payload, lines, csv_rows)
    return EXIT_OK


def cmd_classes(args) -> int:
    written = search.export_classes_csv(
        args.n, args.m, args.out, checkpoint_path=args.checkpoint
    )
    print(f"wrote {written} class rows to {args.out}", file=sys.stderr)
    print(json.dumps({"n": args.n, "m": args.m, "written": written, "path": args.out}))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trifree",
        description="Exact triangle-free probabilities of Bernoulli edge-subgraphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_phi = sub.add_parser("phi", help="exact profile, polynomial and value")
    _add_graph_args(p_phi)
    p_phi.add_argument("--p", help="probability as 'num/den' or decimal")
    p_phi.add_argument("--k", type=int, default=3, help="forbidden clique order")
    p_phi.add_argument("--format", choices=("json", "text", "csv"), default="json")
    p_phi.set_defaults(func=cmd_phi)

    p_verify = sub.add_parser("verify", help="run exact verification checks")
    p_verify.add_argument("--one-extra", type=int, metavar="N",
                          help="exhaustive optimum check at one extra edge")
    p_verify.add_argument("--ls", type=int, nargs=2, metavar=("N", "I"),
                          help="triangle lower bound check")
    p_verify.add_argument("--linear-bound", action="store_true",
                          help="independence bound on the hypergraph corpus")
    p_verify.add_argument("--two-extra", action="store_true",
                          help="crossover analysis of the n=6 candidates")
    p_verify.add_argument("--all", action="store_true")
    p_verify.add_argument("--prune", action="store_true",
                          help="use the certified bound to skip classes")
    p_verify.add_argument("--capped", action="store_true",
                          help="with --one-extra N: prove the optimum for every p "
                          "from the classes with at most floor(N/2) triangles")
    p_verify.add_argument("--format", choices=("json", "text", "csv"), default="json")
    p_verify.set_defaults(func=cmd_verify)

    p_search = sub.add_parser("search", help="maximize the probability at (n, i, p)")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--i", type=int, required=True)
    p_search.add_argument("--p", required=True)
    p_search.add_argument("--prune", action="store_true")
    p_search.add_argument("--format", choices=("json", "text", "csv"), default="json")
    p_search.set_defaults(func=cmd_search)

    p_env = sub.add_parser("envelope", help="p-dependent maximizers over (0,1)")
    p_env.add_argument("--n", type=int, required=True)
    p_env.add_argument("--i", type=int, required=True)
    p_env.add_argument("--format", choices=("json", "text", "csv"), default="json")
    p_env.set_defaults(func=cmd_envelope)

    p_mc = sub.add_parser("mc", help="Monte Carlo estimate beyond exact limits")
    _add_graph_args(p_mc)
    p_mc.add_argument("--p", required=True)
    p_mc.add_argument("--samples", type=int, default=100_000)
    p_mc.add_argument("--seed", type=int, default=0)
    p_mc.add_argument("--k", type=int, default=3, help="forbidden clique order")
    p_mc.add_argument("--jobs", type=int,
                      help="worker threads (default: $TRIFREE_JOBS, else 1)")
    p_mc.add_argument("--format", choices=("json", "text", "csv"), default="json")
    p_mc.set_defaults(func=cmd_mc)

    p_cls = sub.add_parser("classes", help="CSV of (graph6, triangles, coefficients)")
    p_cls.add_argument("--n", type=int, required=True)
    p_cls.add_argument("--m", type=int, required=True)
    p_cls.add_argument("--out", required=True)
    p_cls.add_argument("--checkpoint", help="resume file holding 'n m next_rank'")
    p_cls.set_defaults(func=cmd_classes)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except LimitExceededError as exc:
        print(f"limit exceeded: {exc}", file=sys.stderr)
        return EXIT_LIMIT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
