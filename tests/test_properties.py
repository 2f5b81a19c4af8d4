"""Property tests: the exact counting engine against the brute-force oracles
on random small graphs, random linear triple systems and random hypergraphs
of mixed edge sizes; the sign of a polynomial difference against the
Fraction comparison it replaces."""

from fractions import Fraction
from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import (  # noqa: E402
    brute_independence_profile,
    brute_tf_profile,
    poly_sum_bernstein,
)
from trifree import (  # noqa: E402
    CliqueHypergraph,
    Poly,
    build_graph,
    independence_profile,
    tf_poly,
    tf_profile,
)
from trifree.hypergraph import covered_profile  # noqa: E402

# derandomized: the same examples on every run, no example database on disk
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
ENGINE = settings(max_examples=200, deadline=None, derandomize=True, database=None)
MAX_EDGES = 12  # brute_tf_profile walks all 2^m edge subsets


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=MAX_EDGES))
    return build_graph(n, edges)


@st.composite
def linear_triple_systems(draw):
    """Triples drawn at random, each kept only if it meets every kept triple
    in at most one vertex."""
    v = draw(st.integers(min_value=3, max_value=12))
    triple = st.sets(st.integers(0, v - 1), min_size=3, max_size=3)
    triples = draw(st.lists(triple, max_size=8))
    kept: list[frozenset[int]] = []
    for t in map(frozenset, triples):
        if all(len(t & prev) <= 1 for prev in kept):
            kept.append(t)
    return CliqueHypergraph(v, tuple(tuple(sorted(t)) for t in kept))


@st.composite
def mixed_hypergraphs(draw):
    """Hyperedges of sizes 1 to 5 on at most 14 vertices, as no clique
    hypergraph has them: up to four disjoint blocks, repeated hyperedges
    and hyperedges nested inside others, under a random relabeling."""
    hedges: list[list[int]] = []
    base = 0
    for size in draw(st.lists(st.integers(1, 7), min_size=1, max_size=4)):
        size = min(size, 14 - base)
        if size == 0:
            break
        block = st.sampled_from(range(base, base + size))
        hedge = st.lists(block, min_size=1, max_size=min(5, size), unique=True)
        hedges += draw(st.lists(hedge, min_size=1, max_size=6))
        base += size
    for _ in range(draw(st.integers(0, 3))):
        outer = draw(st.sampled_from(hedges))
        hedges.append(draw(st.lists(st.sampled_from(outer), min_size=1, unique=True)))
    label = draw(st.permutations(range(14)))
    return [[label[v] for v in e] for e in draw(st.permutations(hedges))]


@PROPERTY
@given(small_graphs(), st.sampled_from((3, 4)))
def test_tf_profile_matches_brute_force(g, k):
    assert tf_profile(g, k).counts == brute_tf_profile(g, k)


@PROPERTY
@given(small_graphs(), st.sampled_from((3, 4)))
def test_tf_poly_is_the_profile_polynomial(g, k):
    assert tf_poly(g, k) == poly_sum_bernstein(tf_profile(g, k).counts)


@PROPERTY
@given(linear_triple_systems())
def test_independence_profile_matches_brute_force(h):
    assert independence_profile(h).counts == brute_independence_profile(
        h.vertex_count, h.hyperedges
    )


@ENGINE
@given(mixed_hypergraphs())
def test_covered_profile_matches_brute_force_on_mixed_sizes(hedges):
    covered = sorted({v for e in hedges for v in e})
    index = {v: i for i, v in enumerate(covered)}
    renumbered = [[index[v] for v in e] for e in hedges]
    assert covered_profile(hedges) == brute_independence_profile(len(covered), renumbered)


integer_polys = st.lists(st.integers(-(10**6), 10**6), max_size=9).map(Poly)
unit_points = st.one_of(
    st.sampled_from((Fraction(0), Fraction(1), Fraction(1, 2))),
    st.fractions(min_value=0, max_value=1, max_denominator=10**4),
)


@ENGINE
@given(integer_polys, integer_polys, integer_polys, unit_points)
def test_sign_of_the_difference_decides_the_comparison(f, g, h, p):
    diff = f.eval(p) - g.eval(p)
    assert (f - g).sign_at(p) == (diff > 0) - (diff < 0)
    assert (f - f).sign_at(p) == 0
    # (b x - a) h vanishes at p = a/b, so f and f plus it tie there
    vanishing = Poly((-p.numerator, p.denominator)) * h
    assert (f - (f + vanishing)).sign_at(p) == 0
