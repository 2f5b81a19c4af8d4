import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from conftest import brute_independence_profile
from trifree import (
    CliqueHypergraph,
    build_graph,
    complete_bipartite,
    complete_graph,
    estimate_tf,
    flower,
    from_graph,
    independence_probability,
    independence_profile,
    is_linear,
    linear_triple_bound,
    mantel_plus_one,
    parse_hypergraph,
    random_linear_hypergraph,
    tf_poly,
    tf_profile,
    write_hypergraph,
)
from trifree.errors import LimitExceededError
from trifree.hypergraph import (
    PROFILE_CACHE_SIZE,
    _count_component,
    _mask_profile,
    _pivot,
    clique_edge_indices,
    covered_profile,
)

P_GRID = tuple(Fraction(k, 10) for k in (1, 2, 5, 7, 9)) + (Fraction(1, 4), Fraction(3, 4))


def hypergraphs_isomorphic(h1: CliqueHypergraph, h2: CliqueHypergraph) -> bool:
    if h1.vertex_count != h2.vertex_count or h1.edge_count != h2.edge_count:
        return False
    target = {frozenset(e) for e in h2.hyperedges}
    for perm in permutations(range(h1.vertex_count)):
        if {frozenset(perm[v] for v in e) for e in h1.hyperedges} == target:
            return True
    return False


def test_construction_validation():
    with pytest.raises(ValueError):
        CliqueHypergraph(3, ((0, 1, 1),))
    with pytest.raises(ValueError):
        CliqueHypergraph(3, ((0, 1, 3),))
    with pytest.raises(ValueError):
        CliqueHypergraph(4, ((0, 1, 2, 3),))  # wrong size for order 3
    h = CliqueHypergraph(4, ((2, 1, 0),))
    assert h.hyperedges == ((0, 1, 2),)


def test_clique_order_below_two_rejected():
    # C(1, 2) = C(0, 2) = 0 would admit empty hyperedges
    for order in (1, 0, -1):
        with pytest.raises(ValueError, match=f"clique order must be at least 2, got {order}"):
            CliqueHypergraph(2, ((),), clique_order=order)
        with pytest.raises(ValueError, match=f"got {order}"):
            CliqueHypergraph(2, (), clique_order=order)
    # order 2: each hyperedge is one vertex, which no independent set holds
    h = CliqueHypergraph(3, ((1,),), clique_order=2)
    assert independence_profile(h).counts == (1, 2, 1, 0)


def test_from_graph_examples():
    h = from_graph(complete_graph(4))
    assert h.vertex_count == 6
    assert h.edge_count == 4
    assert is_linear(h)

    h2 = from_graph(complete_bipartite(3, 3))
    assert h2.vertex_count == 9
    assert h2.edge_count == 0

    h3 = from_graph(complete_graph(4), clique_order=4)
    assert h3.vertex_count == 6
    assert h3.hyperedges == ((0, 1, 2, 3, 4, 5),)

    with pytest.raises(ValueError):
        from_graph(complete_graph(4), clique_order=2)


def test_clique_edge_indices():
    k4 = complete_graph(4)  # edges 01 02 03 12 13 23 have indices 0..5
    assert clique_edge_indices(k4, 3) == [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]
    assert clique_edge_indices(k4, 4) == [(0, 1, 2, 3, 4, 5)]
    assert clique_edge_indices(k4, 2) == [(e,) for e in range(6)]
    # a K_1 has no edge: rejected by every caller, not counted as a copy
    with pytest.raises(ValueError):
        clique_edge_indices(k4, 1)
    with pytest.raises(ValueError):
        tf_profile(k4, 1)
    with pytest.raises(ValueError):
        estimate_tf(k4, Fraction(1, 2), 10, seed=0, clique_order=1)


def test_is_linear():
    assert is_linear(CliqueHypergraph(5, ()))
    assert not is_linear(CliqueHypergraph(4, ((0, 1, 2), (1, 2, 3))))
    assert is_linear(CliqueHypergraph(5, ((0, 1, 2), (0, 3, 4))))


def test_flower_shape():
    assert flower(0).edge_count == 0
    assert flower(1).hyperedges == ((0, 1, 2),)
    f3 = flower(3)
    assert f3.vertex_count == 7
    assert is_linear(f3)
    assert all(0 in e for e in f3.hyperedges)


def test_flower3_matches_covered_part_of_mantel6():
    g = mantel_plus_one(6)
    h = from_graph(g)
    covered = sorted(h.covered_vertices())
    relabel = {old: new for new, old in enumerate(covered)}
    core = CliqueHypergraph(
        len(covered),
        tuple(tuple(sorted(relabel[v] for v in e)) for e in h.hyperedges),
    )
    assert hypergraphs_isomorphic(core, flower(3))


def test_random_linear_hypergraph():
    h1 = random_linear_hypergraph(12, 4, seed=1)
    h2 = random_linear_hypergraph(12, 4, seed=1)
    assert h1 == h2
    assert h1.edge_count == 4
    assert is_linear(h1)
    assert random_linear_hypergraph(12, 0, seed=9).edge_count == 0
    with pytest.raises(ValueError):
        random_linear_hypergraph(3, 2, seed=5)


def test_independence_profile_brute_force(small_corpus):
    for name, g in small_corpus:
        h = from_graph(g)
        prof = independence_profile(h)
        assert prof.counts == brute_independence_profile(
            h.vertex_count, h.hyperedges
        ), name


def test_independence_profile_brute_force_assorted():
    cases = [
        CliqueHypergraph(3, ((0, 1, 2),)),
        CliqueHypergraph(6, ((0, 1, 2), (3, 4, 5))),
        CliqueHypergraph(9, ((0, 1, 2), (3, 4, 5), (6, 7, 8))),
        flower(4),
        random_linear_hypergraph(11, 5, seed=3),
        from_graph(complete_graph(5)),
    ]
    for h in cases:
        got = independence_profile(h).counts
        assert got == brute_independence_profile(h.vertex_count, h.hyperedges)


def test_independence_profile_invariants(small_corpus):
    for name, g in small_corpus:
        h = from_graph(g)
        prof = independence_profile(h)
        assert prof.counts[0] == 1, name
        assert sum(prof.counts) >= 1
        for s, c in enumerate(prof.counts):
            assert 0 <= c <= comb(h.vertex_count, s), name


def test_independence_probability_closed_forms():
    one = CliqueHypergraph(3, ((0, 1, 2),))
    for p in P_GRID:
        assert independence_probability(one, p) == 1 - p**3
    # r disjoint triples: (1 - p^3)^r
    for r in (2, 3, 4):
        h = CliqueHypergraph(3 * r, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(r)))
        for p in P_GRID:
            assert independence_probability(h, p) == (1 - p**3) ** r
    # flower(r): exactly the linear bound
    for r in range(7):
        h = flower(r)
        bound = linear_triple_bound(r)
        for p in P_GRID:
            assert independence_probability(h, p) == bound.eval(p)


def test_independence_probability_validation():
    h = flower(1)
    with pytest.raises(ValueError):
        independence_probability(h, Fraction(3, 2))
    with pytest.raises(ValueError):
        independence_probability(h, Fraction(-1, 2))
    assert independence_probability(CliqueHypergraph(5, ()), Fraction(1, 3)) == 1


def test_linear_bound_on_random_corpus():
    for seed in range(40):
        r = 1 + seed % 6
        h = random_linear_hypergraph(8 + r, r, seed=seed)
        bound = linear_triple_bound(r)
        for p in P_GRID:
            assert independence_probability(h, p) <= bound.eval(p), (seed, p)


def test_harris_consistency(small_corpus):
    # intersection of the per-triple avoid events is at least the product
    # of their probabilities (all events decreasing)
    for name, g in small_corpus:
        h = from_graph(g)
        for p in (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10)):
            product = (1 - p**3) ** h.edge_count
            assert independence_probability(h, p) >= product, name


def test_covered_vertex_limit():
    big = CliqueHypergraph(33, tuple((3 * i, 3 * i + 1, 3 * i + 2) for i in range(11)))
    with pytest.raises(LimitExceededError):
        independence_profile(big)


def test_packed_slot_width_at_the_limit():
    # C(30, 15) ~ 2^27.2 needs 28 bits: a narrower slot carries into the next
    expected = tuple(comb(30, s) for s in range(30)) + (0,)
    assert covered_profile([tuple(range(30))]) == expected


def degree_dict_pivot(masks) -> int:
    """The pivot rule by a per-bit degree dict: lowest bit of maximum degree."""
    degree: dict[int, int] = {}
    for e in masks:
        while e:
            low = e & -e
            degree[low] = degree.get(low, 0) + 1
            e ^= low
    return max(degree, key=lambda b: (degree[b], -b))


def test_bit_sliced_pivot_matches_degree_rule():
    rng = random.Random(10)
    for _ in range(500):
        width = rng.randint(1, 30)
        masks = frozenset(
            rng.getrandbits(width) | 1 << rng.randrange(width)
            for _ in range(rng.randint(1, 60))
        )
        assert _pivot(masks) == degree_dict_pivot(masks)


@pytest.mark.parametrize("k, calls", [(3, 2309), (4, 3771)])
def test_branching_tree_size_is_pinned(monkeypatch, k, calls):
    # a change to the branching tree (pivot, components, memo) shows here
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return _count_component(*args)

    monkeypatch.setattr("trifree.hypergraph._count_component", counted)
    tf_profile(complete_graph(7), k)
    assert count == calls


def disjoint_cliques(*orders: int):
    """Disjoint union of complete graphs of the given orders."""
    edges, base = [], 0
    for order in orders:
        edges += [(base + a, base + b) for a in range(order) for b in range(a + 1, order)]
        base += order
    return build_graph(base, edges)


@pytest.mark.parametrize("k, calls", [(3, 84), (4, 69)])
def test_branching_tree_size_is_pinned_on_disjoint_blocks(monkeypatch, k, calls):
    # K5 + K5 + K4 splits into components at the top level, as K7 never does
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return _count_component(*args)

    monkeypatch.setattr("trifree.hypergraph._count_component", counted)
    tf_profile(disjoint_cliques(5, 5, 4), k)
    assert count == calls


def test_empty_hyperedge_is_rejected():
    for hedges in ([(), (0, 1)], [()]):
        with pytest.raises(ValueError, match="nonempty"):
            covered_profile(hedges)
    assert _mask_profile.cache_info().currsize == 0


@pytest.mark.parametrize("k", [3, 4])
def test_warm_cache_serves_poly_and_independence_profile(monkeypatch, k):
    g = complete_graph(7)
    cold_poly = tf_poly(g, k)
    _mask_profile.cache_clear()
    cold_hyper = independence_profile(from_graph(g, k))
    _mask_profile.cache_clear()
    tf_profile(g, k)
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return _count_component(*args)

    monkeypatch.setattr("trifree.hypergraph._count_component", counted)
    assert tf_poly(g, k) == cold_poly
    assert independence_profile(from_graph(g, k)) == cold_hyper
    assert count == 0


def test_evicted_profiles_recount_to_the_oracle():
    rng = random.Random(12)
    first: list[tuple[list, tuple]] = []
    while _mask_profile.cache_info().misses <= PROFILE_CACHE_SIZE + 100:
        hedges = [
            tuple(rng.sample(range(8), rng.randint(1, 4))) for _ in range(rng.randint(1, 6))
        ]
        profile = covered_profile(hedges)
        if len(first) < 100:
            first.append((hedges, profile))
    assert _mask_profile.cache_info().currsize == PROFILE_CACHE_SIZE
    misses = _mask_profile.cache_info().misses
    for hedges, profile in first:
        covered = sorted({v for e in hedges for v in e})
        renumbered = [tuple(covered.index(v) for v in e) for e in hedges]
        assert covered_profile(hedges) == profile
        assert profile == brute_independence_profile(len(covered), renumbered)
    assert _mask_profile.cache_info().misses > misses  # the oldest were evicted


def test_text_format_roundtrip():
    h = random_linear_hypergraph(10, 4, seed=8)
    text = write_hypergraph(h)
    assert text.splitlines()[0] == "10 4"
    assert parse_hypergraph(text) == h
    with pytest.raises(ValueError):
        parse_hypergraph("")
    with pytest.raises(ValueError):
        parse_hypergraph("3 2\n0 1 2\n")
