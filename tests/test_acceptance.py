"""Acceptance suite: one test per criterion, each at its pinned tolerance.

Every test prints a PASS/FAIL line (visible with `pytest -s`).  Criterion 6
has two tests.  The proven one asserts the triangle bound i*floor(n/2) on the
strict surplus range 1 <= i < n/2 (Lovasz-Simonovits).  The one on the stated
range 1 <= i <= n/2 asserts the bound on every pair that `ls_min_triangles`
flags in range and pins the boundary pairs i = n/2 exactly: at (4, 2) the
bound holds (K4), and at (6, 3) the octahedron K_{2,2,2} (12 edges, 8 < 9
triangles) is the single violating class, a true counterexample confirmed
by an independent brute force over all 12-edge graphs on 6 vertices.  See
the repository README for the analysis.
"""

import time
from fractions import Fraction
from itertools import combinations
from math import factorial

from conftest import (
    are_isomorphic,
    automorphism_count,
    brute_tf_profile,
    brute_triangles,
    octahedron,
)
from trifree import (
    CliqueHypergraph,
    Poly,
    build_graph,
    canonical_form,
    complete_graph,
    crossover_root,
    enumerate_graphs,
    estimate_tf,
    flower,
    from_graph,
    independence_probability,
    linear_triple_bound,
    ls_min_triangles,
    mantel_plus_one,
    one_extra_edge_optimum,
    parse_graph6,
    poly_eval,
    random_linear_hypergraph,
    tf_poly,
    tf_profile,
    triangle_count,
    two_extra_edge_candidates,
    verify_one_extra_optimum,
)

FIVE_P = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), Fraction(9, 10))


def report(num: int, label: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}")


def test_criterion_01_construction_polynomial_equals_closed_form():
    started = time.perf_counter()
    mismatches = [
        n
        for n in range(3, 21)
        if tf_poly(mantel_plus_one(n)) != one_extra_edge_optimum(n)
    ]
    elapsed = time.perf_counter() - started
    ok = not mismatches and elapsed < 1.0
    report(1, f"coefficient-exact closed form, n=3..20 in {elapsed:.3f}s (< 1s)", ok)
    assert not mismatches
    assert elapsed < 1.0


def test_criterion_02_exhaustive_optimality_up_to_n7():
    results = {}
    elapsed_n7 = None
    for n in (3, 4, 5, 6, 7):
        started = time.perf_counter()
        results[n] = verify_one_extra_optimum(n)
        if n == 7:
            elapsed_n7 = time.perf_counter() - started
    ok = all(r.passed for r in results.values()) and elapsed_n7 < 300.0
    report(
        2,
        "construction uniquely maximal at p in {1/10,1/2,9/10}, n=3..7 "
        f"(n=7 in {elapsed_n7:.1f}s < 5min)",
        ok,
    )
    for n, r in results.items():
        assert r.passed, (n, r.violations, r.equality_classes)
    assert elapsed_n7 < 300.0


def test_criterion_03_candidate_polynomials_and_factorization():
    started = time.perf_counter()
    star, split, _ = two_extra_edge_candidates()
    poly_star = tf_poly(star)
    poly_split = tf_poly(split)
    ok_star = poly_star == Poly((1, 0, 0, -6, 0, 9, 6, -14, -3, 12, -6, 1))
    ok_split = poly_split == Poly((1, 0, 0, -6, 0, 10, 2, -10, 0, 4, -1))
    shell = Poly((0, 0, 0, 0, 0, -1)) * Poly.one_minus_x_power(3)  # -p^5 (1-p)^3
    diff = poly_star - poly_split
    ok_factor = shell.divides(diff) and diff.quotient(shell) == Poly((1, -1, -2, 1))
    elapsed = time.perf_counter() - started
    ok = ok_star and ok_split and ok_factor and elapsed < 1.0
    report(
        3,
        "printed coefficients exact; difference = -p^5 (1-p)^3 (p^3-2p^2-p+1) "
        f"by exact division in {elapsed:.3f}s (< 1s)",
        ok,
    )
    assert ok_star and ok_split and ok_factor
    assert elapsed < 1.0


def test_criterion_04_crossover_isolation_and_strict_comparisons():
    star, split, _ = two_extra_edge_candidates()
    poly_star, poly_split = tf_poly(star), tf_poly(split)
    root = crossover_root(poly_split, poly_star, Fraction(1, 2), Fraction(3, 4))
    ok_width = root.hi - root.lo <= Fraction(1, 10**12)
    ok_window = Fraction(5549, 10000) < root.lo and root.hi < Fraction(5550, 10000)
    ok_below = poly_split.eval(Fraction(1, 4)) > poly_star.eval(Fraction(1, 4))
    ok_above = poly_star.eval(Fraction(3, 4)) > poly_split.eval(Fraction(3, 4))
    ok = ok_width and ok_window and ok_below and ok_above
    report(
        4,
        f"crossover in [{float(root.lo):.13f}, {float(root.hi):.13f}] "
        "(width <= 1e-12, inside (0.5549, 0.5550)); strict winners at 1/4 and 3/4",
        ok,
    )
    assert ok_width and ok_window
    assert ok_below and ok_above


def test_criterion_05_path_candidate_never_extremal():
    _, split, path = two_extra_edge_candidates()
    poly_split, poly_path = tf_poly(split), tf_poly(path)
    points = [Fraction(j, 51) for j in range(1, 51)]
    ok = all(poly_split.eval(p) > poly_path.eval(p) for p in points)
    report(5, "split beats path at 50 rational grid points in (0,1)", ok)
    assert ok


def _ls_pairs(inclusive_boundary: bool) -> list[tuple[int, int]]:
    """Surplus pairs (n, i), 3 <= n <= 7, with 1 <= i <= n/2 or 1 <= i < n/2."""
    return [
        (n, i)
        for n in range(3, 8)
        for i in range(1, (n if inclusive_boundary else n - 1) // 2 + 1)
    ]


def _ls_violations(pairs):
    """(n, i, graph6, triangles, bound) for every class below i*floor(n/2)."""
    out = []
    for n, i in pairs:
        m = n * n // 4 + i
        need = i * (n // 2)
        for g in enumerate_graphs(n, m):
            if triangle_count(g) < need:
                out.append((n, i, canonical_form(g).decode("ascii"), triangle_count(g), need))
    return out


def _brute_below(n: int, m: int, need: int):
    """Every labelled graph with n vertices, m edges and fewer than `need`
    triangles, by scanning all C(C(n,2), m) edge subsets (no enumeration
    ladder, no canonical forms)."""
    pairs = list(combinations(range(n), 2))
    graphs = (build_graph(n, edges) for edges in combinations(pairs, m))
    return [g for g in graphs if len(brute_triangles(g)) < need]


def test_criterion_06_triangle_bound_proven_range():
    started = time.perf_counter()
    violations = _ls_violations(_ls_pairs(inclusive_boundary=False))
    elapsed = time.perf_counter() - started
    ok = not violations and elapsed < 600.0
    report(
        6,
        f"triangle lower bound exhaustive, surplus strictly below n/2, n<=7 "
        f"in {elapsed:.1f}s (< 10min): {len(violations)} violations",
        ok,
    )
    assert not violations
    assert elapsed < 600.0


def test_criterion_06_triangle_bound_as_stated():
    # The stated range 1 <= i <= n/2 is wider than the theorem (strict
    # i < n/2): it adds the boundary pairs i = n/2 of even n, here (4, 2) and
    # (6, 3).  At (4, 2) the bound still holds (K4: 4 >= 4 triangles).  At
    # (6, 3) it fails: the octahedron K_{2,2,2} has floor(36/4) + 3 = 12 edges
    # and only 8 < 9 triangles.  So the criterion holds on the stated range
    # except for exactly that one class, and the test asserts precisely this:
    # no violation anywhere ls_min_triangles flags in range, the boundary
    # pairs and their flags, and one octahedron class at (6, 3), confirmed by
    # a brute force over all C(15, 12) = 455 twelve-edge graphs on 6 vertices.
    started = time.perf_counter()
    stated = _ls_pairs(inclusive_boundary=True)
    violations = _ls_violations(stated)
    elapsed = time.perf_counter() - started

    in_range = [pair for pair in stated if ls_min_triangles(*pair).in_range]
    boundary = [pair for pair in stated if pair not in in_range]
    in_range_violations = [v for v in violations if v[:2] in in_range]
    k4_violations = [v for v in violations if v[:2] == (4, 2)]
    octahedron_violations = [v for v in violations if v[:2] == (6, 3)]

    octa = octahedron()
    ok_boundary = boundary == [(4, 2), (6, 3)]
    octahedron_graphs = [parse_graph6(v[2]) for v in octahedron_violations]
    ok_octahedron = len(octahedron_graphs) == 1 and all(
        len(brute_triangles(g)) == 8 and are_isomorphic(g, octa) for g in octahedron_graphs
    )
    below = _brute_below(6, 12, 3 * (6 // 2))
    ok_oracle = len(below) == factorial(6) // automorphism_count(octa) and all(
        len(brute_triangles(g)) == 8 and are_isomorphic(g, octa) for g in below
    )
    ok = (
        not in_range_violations
        and ok_boundary
        and not k4_violations
        and ok_octahedron
        and ok_oracle
        and elapsed < 600.0
    )
    report(
        6,
        f"triangle lower bound exhaustive, stated range 1 <= i <= n/2, n<=7 "
        f"in {elapsed:.1f}s: holds on {len(in_range)} in-range pairs and at "
        f"(4, 2); the only exception is the octahedron at (6, 3) with 8 < 9 "
        f"triangles, matched by {len(below)} labelled octahedra in a brute "
        f"force over all 455 twelve-edge graphs; violations {violations}",
        ok,
    )
    assert elapsed < 600.0
    assert not in_range_violations, in_range_violations
    assert ok_boundary, boundary
    assert not k4_violations, k4_violations
    assert ok_octahedron, octahedron_violations
    assert ok_oracle, [g.edges for g in below]


def _is_flower_shaped(h: CliqueHypergraph) -> bool:
    r = h.edge_count
    if r <= 1:
        return True
    common = set(h.hyperedges[0])
    for e in h.hyperedges[1:]:
        common &= set(e)
    return len(common) == 1 and len(h.covered_vertices()) == 2 * r + 1


def test_criterion_07_linear_bound_with_flower_equality():
    corpus: list[CliqueHypergraph] = []
    for n in range(1, 7):
        for m in range(n * (n - 1) // 2 + 1):
            for g in enumerate_graphs(n, m):
                corpus.append(from_graph(g))
    for s in range(200):
        r = 1 + s % 6
        corpus.append(random_linear_hypergraph(8 + r, r, seed=s))
    corpus.extend(flower(r) for r in range(7))

    violations = []
    equality_mismatches = []
    for h in corpus:
        bound = linear_triple_bound(h.edge_count)
        flags = []
        for p in FIVE_P:
            prob = independence_probability(h, p)
            target = bound.eval(p)
            if prob > target:
                violations.append((h.edge_count, str(p)))
            flags.append(prob == target)
        if any(flags) != all(flags) or all(flags) != _is_flower_shaped(h):
            equality_mismatches.append(h)
    ok = not violations and not equality_mismatches
    report(
        7,
        f"independence bound on {len(corpus)} linear hypergraphs x 5 rationals, "
        "equality exactly on flower-shaped systems",
        ok,
    )
    assert not violations
    assert not equality_mismatches


def test_criterion_08_cross_module_identity(corpus):
    checked = 0
    for name, g in corpus:
        poly = tf_poly(g)
        h = from_graph(g)
        for p in FIVE_P:
            assert poly_eval(poly, p) == independence_probability(h, p), (name, p)
            checked += 1
    report(8, f"polynomial route == hypergraph route, {checked} exact equalities", True)


def test_criterion_09_brute_force_oracle_equivalence(corpus):
    from math import comb

    profiles_checked = 0
    for name, g in corpus:
        if g.m <= 16:
            assert tf_profile(g).counts == brute_tf_profile(g), name
            profiles_checked += 1
        counts = tf_profile(g).counts
        if g.m >= 3:
            assert counts[3] == comb(g.m, 3) - triangle_count(g), name
    report(
        9,
        f"profile == 2^m enumeration on {profiles_checked} corpus graphs (m <= 16); "
        "tf(G,3) identity everywhere",
        True,
    )


def test_criterion_10_monte_carlo_calibration_and_reproducibility():
    g = complete_graph(4)
    exact = 41 / 64
    inside = 0
    for seed in range(200):
        est = estimate_tf(g, Fraction(1, 2), 10**4, seed=seed)
        if est.ci_low <= exact <= est.ci_high:
            inside += 1
    base = estimate_tf(g, Fraction(1, 2), 50_000, seed=42)
    reproducible = all(
        estimate_tf(g, Fraction(1, 2), 50_000, seed=42, jobs=jobs).to_json()
        == base.to_json()
        for jobs in (1, 2, 4)
    )
    ok = inside >= 180 and reproducible
    report(
        10,
        f"{inside}/200 Wilson intervals contain 41/64 (need >= 180); "
        "byte-identical JSON across lane dispatch widths",
        ok,
    )
    assert inside >= 180
    assert reproducible
