from fractions import Fraction

import pytest

from conftest import brute_tf_profile, octahedron
from trifree import (
    Poly,
    complete_graph,
    linear_triple_bound,
    ls_min_triangles,
    mantel_max_edges,
    mantel_plus_one,
    one_extra_edge_optimum,
    poly_eval,
    tf_poly,
    tf_upper_bound,
    triangle_count,
)

P_GRID = tuple(Fraction(k, 10) for k in range(1, 10))


def test_mantel_max_edges():
    assert mantel_max_edges(3) == 2
    assert mantel_max_edges(6) == 9
    assert mantel_max_edges(7) == 12
    assert mantel_max_edges(1) == 0
    with pytest.raises(ValueError):
        mantel_max_edges(0)


def test_ls_min_triangles():
    assert ls_min_triangles(6, 1) == ls_min_triangles(6, 1)
    assert ls_min_triangles(6, 1).count == 3
    assert ls_min_triangles(6, 1).in_range
    assert ls_min_triangles(6, 2).count == 6
    assert ls_min_triangles(6, 2).in_range
    assert ls_min_triangles(3, 1).count == 1
    assert ls_min_triangles(3, 1).in_range
    # boundary i = n/2 is outside the proven range
    assert not ls_min_triangles(6, 3).in_range
    assert ls_min_triangles(6, 3).count == 9
    assert not ls_min_triangles(6, 0).in_range
    assert not ls_min_triangles(6, 5).in_range


def test_ls_boundary_counterexample():
    # the octahedron sits exactly at surplus n/2 and beats the bound
    g = octahedron()
    assert g.m == mantel_max_edges(6) + 3
    assert triangle_count(g) == 8 < ls_min_triangles(6, 3).count


def test_one_extra_edge_optimum_closed_forms():
    assert one_extra_edge_optimum(3) == Poly((1, 0, 0, -1))
    assert one_extra_edge_optimum(4) == Poly((1, 0, 0, -2, 0, 1))
    assert one_extra_edge_optimum(6) == Poly((1, 0, 0, -3, 0, 3, 0, -1))
    with pytest.raises(ValueError):
        one_extra_edge_optimum(2)


def test_one_extra_edge_optimum_value_n4():
    # n=4 construction has 5 edges; brute force gives the same value at 1/2
    g = mantel_plus_one(4)
    assert g.m == 5
    counts = brute_tf_profile(g)
    value = sum(
        c * Fraction(1, 2) ** s * Fraction(1, 2) ** (5 - s)
        for s, c in enumerate(counts)
    )
    assert value == Fraction(25, 32)
    assert one_extra_edge_optimum(4).eval(Fraction(1, 2)) == Fraction(25, 32)


def test_construction_attains_formula_3_to_20():
    for n in range(3, 21):
        assert tf_poly(mantel_plus_one(n)) == one_extra_edge_optimum(n), n


def test_linear_triple_bound_small():
    assert linear_triple_bound(0) == Poly.one()
    assert linear_triple_bound(1) == Poly((1, 0, 0, -1))
    with pytest.raises(ValueError):
        linear_triple_bound(-1)


def test_linear_triple_bound_monotone_in_r():
    for r in range(6):
        a, b = linear_triple_bound(r), linear_triple_bound(r + 1)
        for p in P_GRID:
            assert b.eval(p) < a.eval(p)


def test_tf_upper_bound_k4_explicitly():
    # both sides by independent routes: the bound must sit above the truth
    g = complete_graph(4)
    actual = sum(
        c * Fraction(1, 2) ** s * Fraction(1, 2) ** (6 - s)
        for s, c in enumerate(brute_tf_profile(g))
    )
    assert actual == Fraction(41, 64)
    bound = tf_upper_bound(g, Fraction(1, 2))
    assert bound == 1 - Fraction(1, 2) + Fraction(1, 2) * Fraction(3, 4) ** 4
    assert bound == Fraction(337, 512)
    assert bound >= actual


def test_tf_upper_bound_on_corpus(corpus):
    for name, g in corpus:
        poly = tf_poly(g)
        for p in P_GRID:
            assert poly_eval(poly, p) <= tf_upper_bound(g, p), (name, p)


def test_tf_upper_bound_validation():
    with pytest.raises(ValueError):
        tf_upper_bound(complete_graph(3), 2)
