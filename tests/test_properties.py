"""Property tests: the exact counting engine against the brute-force oracles
on random small graphs and random linear triple systems."""

from itertools import combinations

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from conftest import brute_independence_profile, brute_tf_profile  # noqa: E402
from trifree import (  # noqa: E402
    CliqueHypergraph,
    Poly,
    build_graph,
    independence_profile,
    tf_poly,
    tf_profile,
)

# derandomized: the same examples on every run, no example database on disk
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
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


@PROPERTY
@given(small_graphs(), st.sampled_from((3, 4)))
def test_tf_profile_matches_brute_force(g, k):
    assert tf_profile(g, k).counts == brute_tf_profile(g, k)


@PROPERTY
@given(small_graphs(), st.sampled_from((3, 4)))
def test_tf_poly_is_the_profile_polynomial(g, k):
    counts = tf_profile(g, k).counts
    direct = Poly.zero()
    for s, c in enumerate(counts):
        direct = direct + Poly.one_minus_x_power(g.m - s).scale(c).shift(s)
    assert tf_poly(g, k) == direct


@PROPERTY
@given(linear_triple_systems())
def test_independence_profile_matches_brute_force(h):
    assert independence_profile(h).counts == brute_independence_profile(
        h.vertex_count, h.hyperedges
    )
