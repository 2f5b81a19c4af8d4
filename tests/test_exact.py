import random
from fractions import Fraction
from math import comb

import pytest

from conftest import (
    brute_tf_profile,
    complete_multipartite,
    poly_sum_bernstein,
    subset_tf_profile,
)
from trifree import (
    LimitExceededError,
    Poly,
    build_graph,
    complete_bipartite,
    complete_graph,
    enumerate_graphs,
    from_graph,
    independence_probability,
    mantel_plus_one,
    poly_eval,
    tf_poly,
    tf_profile,
    triangle_count,
    two_extra_edge_candidates,
)
from trifree.exact import _core_poly, _covered_core
from trifree.hypergraph import covered_profile

P_GRID = (Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(9, 10))


def test_profile_known_values():
    assert tf_profile(complete_graph(3)).counts == (1, 3, 3, 0)
    k4 = tf_profile(complete_graph(4))
    assert k4.counts == (1, 6, 15, 16, 3, 0, 0)
    assert k4.counts == brute_tf_profile(complete_graph(4))
    assert tf_profile(complete_bipartite(3, 3)).counts == tuple(
        comb(9, s) for s in range(10)
    )


def test_profile_brute_force_equivalence(small_corpus):
    for name, g in small_corpus:
        assert tf_profile(g).counts == brute_tf_profile(g), name


def test_profile_low_order_identities(corpus):
    for name, g in corpus:
        counts = tf_profile(g).counts
        m, t = g.m, triangle_count(g)
        assert counts[0] == 1, name
        if m >= 1:
            assert counts[1] == m, name
        if m >= 2:
            assert counts[2] == comb(m, 2), name
        if m >= 3:
            assert counts[3] == comb(m, 3) - t, name


def test_profile_monotone_support(corpus):
    for name, g in corpus:
        counts = tf_profile(g).counts
        seen_zero = False
        for c in counts:
            if seen_zero:
                assert c == 0, name
            elif c == 0:
                seen_zero = True


def test_profile_degenerate_empty_graph():
    g = build_graph(4, [])
    assert tf_profile(g).counts == (1,)
    assert tf_poly(g) == Poly.one()


def test_profile_clique_order_4():
    k4 = complete_graph(4)
    prof = tf_profile(k4, clique_order=4)
    want = tuple(comb(6, s) for s in range(6)) + (0,)
    assert prof.counts == want
    assert prof.counts == brute_tf_profile(k4, order=4)
    k5 = complete_graph(5)
    assert tf_profile(k5, clique_order=4).counts == brute_tf_profile(k5, order=4)
    # K4-free polynomial of K4: 1 - p^6
    assert tf_poly(k4, clique_order=4) == Poly((1, 0, 0, 0, 0, 0, -1))


def test_poly_known_values():
    assert tf_poly(mantel_plus_one(6)) == Poly((1, 0, 0, -3, 0, 3, 0, -1))
    star, split, _ = two_extra_edge_candidates()
    assert tf_poly(star) == Poly((1, 0, 0, -6, 0, 9, 6, -14, -3, 12, -6, 1))
    assert tf_poly(split) == Poly((1, 0, 0, -6, 0, 10, 2, -10, 0, 4, -1))


def test_poly_coefficient_anchors(corpus):
    for name, g in corpus:
        poly = tf_poly(g)
        assert poly[0] == 1, name
        assert poly[1] == 0 and poly[2] == 0, name
        assert poly[3] == -triangle_count(g), name
        assert poly.eval(1) == (1 if triangle_count(g) == 0 else 0), name


def test_poly_equals_profile_sum(small_corpus):
    # the polynomial is literally sum_s tf(s) p^s (1-p)^(m-s)
    for name, g in small_corpus:
        assert poly_sum_bernstein(tf_profile(g).counts) == tf_poly(g), name


def test_core_poly_integer_pass_matches_poly_sum():
    for m in range(comb(7, 2) + 1):
        for g in enumerate_graphs(7, m):
            for k in (3, 4):
                core = _covered_core(g, k)
                assert _core_poly(core) == poly_sum_bernstein(core), (m, k)
    # c = 30: ten disjoint triangles (no count above size 20), and 31
    # nonzero counts of up to 2^30
    triangles = covered_profile([(3 * t, 3 * t + 1, 3 * t + 2) for t in range(10)])
    rng = random.Random(30)
    dense = tuple(rng.randint(1, 1 << 30) for _ in range(31))
    for core in (triangles, dense):
        assert len(core) == 31
        assert _core_poly(core) == poly_sum_bernstein(core)


def test_poly_monotone_decreasing_in_p(corpus):
    for name, g in corpus:
        if triangle_count(g) == 0:
            continue
        poly = tf_poly(g)
        values = [poly.eval(Fraction(j, 20)) for j in range(1, 20)]
        assert all(a > b for a, b in zip(values, values[1:])), name


def test_covered_edge_factoring():
    # adding an edge that lies in no triangle leaves the polynomial unchanged
    base = mantel_plus_one(6)
    extended = build_graph(8, list(base.edges) + [(6, 7)])
    assert tf_poly(extended) == tf_poly(base)
    assert tf_profile(extended).m == base.m + 1

    path = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert tf_poly(path) == Poly.one()


def test_cross_module_identity(corpus):
    for name, g in corpus:
        poly = tf_poly(g)
        h = from_graph(g)
        for p in P_GRID:
            assert poly_eval(poly, p) == independence_probability(h, p), (name, p)


def test_phi_eval_examples():
    assert poly_eval(tf_poly(complete_graph(4)), Fraction(1, 2)) == Fraction(41, 64)
    assert poly_eval(tf_poly(complete_graph(3)), Fraction(1, 2)) == Fraction(7, 8)
    assert poly_eval(tf_poly(complete_graph(5)), 0) == 1
    with pytest.raises(ValueError):
        poly_eval(Poly.one(), Fraction(3, 2))


def test_poly_sub_and_divides():
    star, split, _ = two_extra_edge_candidates()
    diff = tf_poly(star) - tf_poly(split)
    assert diff == Poly((0, 0, 0, 0, 0, -1, 4, -4, -3, 8, -5, 1))
    assert (tf_poly(star) - tf_poly(star)).is_zero()
    assert Poly.one_minus_x_power(3).divides(diff)
    shell = Poly((0, 0, 0, 0, 0, -1)) * Poly.one_minus_x_power(3)
    assert shell.divides(diff)
    assert diff.quotient(shell) == Poly((1, -1, -2, 1))


def test_k7_engines_agree_near_limit():
    # 21 and 24 covered edges: too big for the naive oracle, so cross-check
    # the branching engine against the vectorized subset enumeration
    from trifree import independence_profile

    k7 = complete_graph(7)
    k2222 = complete_multipartite(2, 2, 2, 2)
    for g, k in ((k7, 3), (k2222, 4)):
        prof = tf_profile(g, k)
        assert prof.counts == subset_tf_profile(g, k), k
        assert prof.counts == independence_profile(from_graph(g, k)).counts, k
    assert tf_profile(k7).counts[3] == comb(21, 3) - triangle_count(k7)
    # 16 K4 copies, each needs 6 edges: the first missing sizes are 6-subsets
    assert tf_profile(k2222, 4).counts[6] == comb(24, 6) - 16


def test_covered_edge_limit():
    # K9: all 36 edges lie in triangles, beyond the exact limit
    with pytest.raises(LimitExceededError):
        tf_profile(complete_graph(9))
    with pytest.raises(LimitExceededError):
        tf_poly(complete_graph(9))


def test_covered_edge_limit_boundary():
    from trifree import independence_profile

    # ten disjoint triangles: exactly 30 covered edges, at the limit
    at_limit = build_graph(
        30, [(3 * i + a, 3 * i + b) for i in range(10) for a, b in ((0, 1), (0, 2), (1, 2))]
    )
    want = (Poly((1, 3, 3)) ** 10).coeffs + (0,) * 10  # no subset above 20 edges
    assert tf_profile(at_limit).counts == want
    assert independence_profile(from_graph(at_limit)).counts == want
    assert tf_poly(at_limit) == Poly((1, 0, 0, -1)) ** 10
    # mantel+1:30: 15 triangles on the extra edge, 1 + 2*15 = 31 covered edges
    over = mantel_plus_one(30)
    for count in (tf_profile, tf_poly):
        with pytest.raises(LimitExceededError, match="31 covered edges"):
            count(over)
    with pytest.raises(LimitExceededError, match="31 covered vertices"):
        independence_profile(from_graph(over))


def test_profile_clique_order_beyond_any_copy():
    # no K5 in K4: profile is the full binomial row
    prof = tf_profile(complete_graph(4), clique_order=5)
    assert prof.counts == tuple(comb(6, s) for s in range(7))
