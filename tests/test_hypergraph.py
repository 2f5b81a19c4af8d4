import hashlib
import json
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest

from conftest import brute_independence_profile, random_graph
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
    random_linear_hypergraph,
    tf_poly,
    tf_profile,
)
from trifree.errors import LimitExceededError
from trifree.graphs import cliques
from trifree.hypergraph import (
    PROFILE_CACHE_SIZE,
    _cached_profile,
    _count_component,
    add_free_vertices,
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
        message = f"clique order must be an integer at least 2, got {order}"
        with pytest.raises(ValueError, match=message):
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

    # k = 2: every edge is a one-vertex hyperedge, kept by no K_2-free subset
    h4 = from_graph(complete_graph(4), clique_order=2)
    assert h4.vertex_count == 6
    assert h4.hyperedges == tuple((e,) for e in range(6))
    assert independence_profile(h4).counts == tf_profile(complete_graph(4), 2).counts


def test_from_graph_profile_matches_tf_profile():
    rng = random.Random(24)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.randint(0, comb(n, 2)), rng)
        for k in range(2, 6):
            h = from_graph(g, k)
            assert independence_profile(h).counts == tf_profile(g, k).counts, (g.edges, k)


def test_clique_order_one_is_rejected_on_every_graph_route():
    k4 = complete_graph(4)
    calls = (
        lambda: tf_profile(k4, 1),
        lambda: tf_poly(k4, 1),
        lambda: from_graph(k4, 1),
        lambda: estimate_tf(k4, Fraction(1, 2), 10, seed=0, clique_order=1),
    )
    for call in calls:
        with pytest.raises(
            ValueError, match="^clique order must be an integer at least 2, got 1$"
        ):
            call()


def test_clique_edge_indices():
    k4 = complete_graph(4)  # edges 01 02 03 12 13 23 have indices 0..5
    assert clique_edge_indices(k4, 3) == [(0, 1, 3), (0, 2, 4), (1, 2, 5), (3, 4, 5)]
    assert clique_edge_indices(k4, 4) == [(0, 1, 2, 3, 4, 5)]
    assert clique_edge_indices(k4, 2) == [(e,) for e in range(6)]
    rng = random.Random(4)
    for _ in range(200):
        n = rng.randint(2, 9)
        g = random_graph(n, rng.randint(0, comb(n, 2)), rng)
        for k in range(2, 6):
            assert clique_edge_indices(g, k) == [
                tuple(sorted(g.edge_index(u, v) for u, v in combinations(members, 2)))
                for members in cliques(g, k)
            ]
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
    with pytest.raises(ValueError, match="edge count must be nonnegative"):
        flower(-1)


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
    with pytest.raises(ValueError, match="need at least 3 vertices"):
        random_linear_hypergraph(2, 1, seed=0)


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


def schoolbook_free_vertices(core, vertex_count):
    free = vertex_count - (len(core) - 1)
    out = [0] * (vertex_count + 1)
    for i, x in enumerate(core):
        for j in range(free + 1):
            out[i + j] += x * comb(free, j)
    return tuple(out)


@pytest.mark.parametrize("c", [0, 1, 7, 30])
@pytest.mark.parametrize("free", [0, 1, 2, 9, 500])
def test_add_free_vertices_matches_the_schoolbook_convolution(c, free):
    # counts at and just under 2^c fill every slot to the top: the product
    # slots of 2^(c + free) must not carry into their neighbours
    rng = random.Random(c * 1000 + free)
    cores = [
        tuple(comb(c, s) for s in range(c + 1)),
        (1 << c,) * (c + 1),
        tuple((1 << c) - rng.randrange(3) for _ in range(c + 1)),
        tuple(rng.randrange((1 << c) + 1) for _ in range(c + 1)),
    ]
    for core in cores:
        got = add_free_vertices(core, c + free)
        assert got == schoolbook_free_vertices(core, c + free), core
        assert len(got) == c + free + 1
        assert all(type(x) is int for x in got)


def test_covered_profile_is_invariant_under_relabeling():
    # the elimination order follows degrees and labels; the counts may not
    rng = random.Random(21)
    for case in range(300):
        vertices = rng.randint(1, 20)
        hedges = [
            tuple(rng.sample(range(vertices), rng.randint(1, min(6, vertices))))
            for _ in range(rng.randint(1, 12))
        ]
        profile = covered_profile(hedges)
        relabel = rng.sample(range(100), vertices)
        moved = [tuple(relabel[v] for v in rng.sample(e, len(e))) for e in hedges]
        rng.shuffle(moved)
        _cached_profile.cache_clear()
        assert covered_profile(moved) == profile, case


def test_one_and_two_hyperedge_components_close_without_recursion(monkeypatch):
    # at most two hyperedges close by inclusion-exclusion: no branching call
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return _count_component(*args)

    def cold_profile_and_calls(hedges):
        nonlocal count
        count = 0
        _cached_profile.cache_clear()
        return covered_profile([tuple(e) for e in hedges]), count

    monkeypatch.setattr("trifree.hypergraph._count_component", counted)
    for a in range(1, 7):
        want = brute_independence_profile(a, [range(a)])
        assert cold_profile_and_calls([range(a)]) == (want, 0)
        for b in range(1, 7):
            for overlap in range(1, min(a, b) + 1):
                pair = [range(a), range(a - overlap, a - overlap + b)]
                want = brute_independence_profile(a - overlap + b, pair)
                assert cold_profile_and_calls(pair) == (want, 0), (a, b, overlap)
        # two disjoint hyperedges close the same way, with no split
        pair = [range(a), range(a, 2 * a)]
        assert cold_profile_and_calls(pair) == (brute_independence_profile(2 * a, pair), 0)


@pytest.mark.parametrize("k, calls", [(3, 883), (4, 1147)])
def test_branching_tree_size_is_pinned(monkeypatch, k, calls):
    # a change to the branching tree (pivot, components, memo) shows here;
    # _count_component runs once per memo miss of three or more hyperedges
    # in one component
    count = 0

    def counted(*args):
        nonlocal count
        count += 1
        return _count_component(*args)

    monkeypatch.setattr("trifree.hypergraph._count_component", counted)
    tf_profile(complete_graph(7), k)
    assert count == calls


def random_overlapping_hypergraph(rng: random.Random) -> list[tuple[int, ...]]:
    """Hyperedges of one size r in 3..6 on at most 12 vertices; each after
    the first shares 2 to r - 1 vertices with an earlier one."""
    vertices = rng.randint(7, 12)
    r = rng.randint(3, 6)
    count = rng.randint(3, 8)
    hedges = [tuple(rng.sample(range(vertices), r))]
    while len(hedges) < count:
        kept = rng.sample(rng.choice(hedges), rng.randint(2, r - 1))
        rest = [v for v in range(vertices) if v not in kept]
        hedge = tuple(sorted(kept + rng.sample(rest, r - len(kept))))
        if hedge not in hedges:
            hedges.append(hedge)
    return hedges


def check_uniform_against_brute_force(monkeypatch, hedges) -> int:
    """covered_profile(hedges) equals the oracle, and since the hyperedges
    have one size, no branch sees one hyperedge strictly inside another:
    every implied hyperedge was dropped.  Returns the _count_component
    calls of a cold count."""
    seen = []

    def recorded(masks, *args):
        seen.append(masks)
        return _count_component(masks, *args)

    monkeypatch.setattr("trifree.hypergraph._count_component", recorded)
    covered = sorted({v for e in hedges for v in e})
    renumbered = [tuple(covered.index(v) for v in e) for e in hedges]
    assert covered_profile(hedges) == brute_independence_profile(len(covered), renumbered)
    for masks in seen:
        assert not any(a != b and a | b == b for a in masks for b in masks)
    return len(seen)


def test_include_branch_drops_an_implied_hyperedge(monkeypatch):
    # including vertex 0 shrinks {0, 1, 2} to {1, 2}, which implies {1, 2, 3};
    # what is left is two one-hyperedge components, which close with no
    # branching call (2 calls without the drop: {1, 2}, {1, 2, 3}, {3, 4})
    assert check_uniform_against_brute_force(monkeypatch, [(0, 1, 2), (1, 2, 3), (0, 3, 4)]) == 1


def test_covered_profile_matches_brute_force_on_overlapping_hyperedges(monkeypatch):
    rng = random.Random(22)
    for _ in range(120):
        check_uniform_against_brute_force(monkeypatch, random_overlapping_hypergraph(rng))


@pytest.mark.parametrize("k", [4, 5])
def test_covered_profile_matches_brute_force_on_random_clique_hypergraphs(monkeypatch, k):
    # a K_{k+1} on random vertices, less up to two edges, plus up to three
    # more: K_k copies sharing up to C(k-1, 2) edges
    rng = random.Random(k)
    checked = 0
    while checked < 10:
        n = rng.randint(k + 1, 7)
        pairs = set(combinations(sorted(rng.sample(range(n), k + 1)), 2))
        pairs -= set(rng.sample(sorted(pairs), rng.randint(0, 2)))
        others = [e for e in combinations(range(n), 2) if e not in pairs]
        g = build_graph(n, sorted(pairs) + rng.sample(others, min(3, len(others))))
        h = from_graph(g, k)
        if h.edge_count < 2 or len(h.covered_vertices()) > 15:
            continue
        check_uniform_against_brute_force(monkeypatch, h.hyperedges)
        checked += 1


def disjoint_cliques(*orders: int):
    """Disjoint union of complete graphs of the given orders."""
    edges, base = [], 0
    for order in orders:
        edges += [(base + a, base + b) for a in range(order) for b in range(a + 1, order)]
        base += order
    return build_graph(base, edges)


@pytest.mark.parametrize("k, calls", [(3, 34), (4, 12)])
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


def test_engine_memory_on_k8_with_k4_is_bounded():
    # the memo holds one entry per distinct residual hypergraph; the fixed
    # elimination order shares them (29 MiB under a per-node degree pivot)
    tracemalloc.start()
    try:
        tf_profile(complete_graph(8), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.slow
def test_k9_past_the_covered_limit(monkeypatch):
    # K9 has 36 covered edges; the digest comes from the earlier engine, which
    # branched on a highest-degree vertex at every node
    with pytest.raises(LimitExceededError):
        tf_poly(complete_graph(9))
    monkeypatch.setattr("trifree.hypergraph.MAX_COVERED_VERTICES", 36)
    poly = tf_poly(complete_graph(9))
    got = json.dumps(poly.to_json_dict(), sort_keys=True, separators=(",", ":"))
    assert (
        hashlib.sha256(got.encode()).hexdigest()
        == "fc05817396a8487fb5fdb37ce443ee0c4d915be10beb0e3cd97978eb7e2fa396"
    )
    assert sum(tf_profile(complete_graph(9)).counts) == 246_348_115


@pytest.mark.slow
def test_k9_with_k4_past_the_covered_limit(monkeypatch):
    # the digest comes from the engine before implied hyperedges were dropped
    monkeypatch.setattr("trifree.hypergraph.MAX_COVERED_VERTICES", 36)
    counts = tf_profile(complete_graph(9), 4).counts
    got = json.dumps([str(c) for c in counts], separators=(",", ":"))
    assert (
        hashlib.sha256(got.encode()).hexdigest()
        == "e37d3be8bf82199d8671d8a9e3bffde6a5df5b4f86edadbd2d00ac6f3cc1d078"
    )
    assert sum(counts) == 26_444_063_268


def test_empty_hyperedge_is_rejected():
    for hedges in ([(), (0, 1)], [()]):
        with pytest.raises(ValueError, match="nonempty"):
            covered_profile(hedges)
    assert _cached_profile.cache_info().currsize == 0


@pytest.mark.parametrize("k", [3, 4])
def test_warm_cache_serves_poly_and_independence_profile(monkeypatch, k):
    g = complete_graph(7)
    cold_poly = tf_poly(g, k)
    _cached_profile.cache_clear()
    cold_hyper = independence_profile(from_graph(g, k))
    _cached_profile.cache_clear()
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


def test_graph_listing_is_the_hypergraph_normal_form():
    # tf_profile and independence_profile(from_graph) share one cache
    # entry only because their listings are equal
    rng = random.Random(26)
    for case in range(400):
        n = rng.randint(1, 12)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        for k in range(2, 6):
            assert tuple(clique_edge_indices(g, k)) == from_graph(g, k).hyperedges, (case, k)


def test_evicted_profiles_recount_to_the_oracle():
    rng = random.Random(12)
    first: list[tuple[list, tuple]] = []
    while _cached_profile.cache_info().misses <= PROFILE_CACHE_SIZE + 100:
        hedges = [
            tuple(rng.sample(range(8), rng.randint(1, 4))) for _ in range(rng.randint(1, 6))
        ]
        profile = covered_profile(hedges)
        if len(first) < 100:
            first.append((hedges, profile))
    assert _cached_profile.cache_info().currsize == PROFILE_CACHE_SIZE
    misses = _cached_profile.cache_info().misses
    for hedges, profile in first:
        covered = sorted({v for e in hedges for v in e})
        renumbered = [tuple(covered.index(v) for v in e) for e in hedges]
        assert covered_profile(hedges) == profile
        assert profile == brute_independence_profile(len(covered), renumbered)
    assert _cached_profile.cache_info().misses > misses  # the oldest were evicted
