import random
import sys
import time
import tracemalloc
from itertools import combinations

import pytest

from conftest import (
    are_isomorphic,
    brute_canonical_name,
    brute_triangles,
    edge_ladder,
    random_graph,
)
from trifree import (
    LimitExceededError,
    build_graph,
    canonical_form,
    complete_bipartite,
    complete_graph,
    mantel_plus_one,
    parse_edge_list,
    parse_graph6,
    triangle_count,
    two_extra_edge_candidates,
    write_graph6,
)
from trifree.graphs import clique_edge_indices, cliques, twin_classes


def test_build_graph_basics():
    g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    assert g.m == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert build_graph(4, []).m == 0
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert k4.m == 6
    assert triangle_count(k4) == 4


def test_build_graph_errors():
    with pytest.raises(ValueError):
        build_graph(3, [(0, 3)])
    with pytest.raises(ValueError):
        build_graph(3, [(0, 0)])
    for edges in ([(0, 1), (1, 0)], [(1, 0), (0, 1)]):
        with pytest.raises(ValueError, match=r"^duplicate edge \(0, 1\)$"):
            build_graph(3, edges)
    with pytest.raises(ValueError):
        build_graph(63, [])
    with pytest.raises(ValueError):
        build_graph(0, [])


def test_edge_indexing_is_lexicographic():
    g = build_graph(4, [(2, 3), (0, 1), (0, 3)])
    assert g.edges == ((0, 1), (0, 3), (2, 3))
    assert g.edge_index(3, 0) == 1
    assert g.degree(3) == 2


def test_complete_bipartite():
    g = complete_bipartite(3, 3)
    assert g.m == 9
    assert triangle_count(g) == 0
    assert complete_bipartite(2, 4).m == 8
    assert complete_bipartite(1, 1).m == 1
    with pytest.raises(ValueError):
        complete_bipartite(0, 3)
    with pytest.raises(ValueError):
        complete_bipartite(31, 32)


def test_mantel_plus_one_small_cases():
    g3 = mantel_plus_one(3)
    assert are_isomorphic(g3, complete_graph(3))
    assert triangle_count(g3) == 1

    g6 = mantel_plus_one(6)
    assert g6.m == 10
    assert triangle_count(g6) == 3

    g7 = mantel_plus_one(7)
    assert g7.m == 13
    assert len(brute_triangles(g7)) == 3

    with pytest.raises(ValueError):
        mantel_plus_one(2)


def test_mantel_plus_one_counts_up_to_20():
    for n in range(3, 21):
        g = mantel_plus_one(n)
        assert g.m == n * n // 4 + 1
        assert triangle_count(g) == n // 2


def test_two_extra_edge_candidates():
    star, split, path = two_extra_edge_candidates()
    for g in (star, split, path):
        assert g.n == 6
        assert g.m == 11
        assert triangle_count(g) == len(brute_triangles(g)) == 6
    assert not are_isomorphic(star, split)
    assert not are_isomorphic(star, path)
    assert not are_isomorphic(split, path)
    assert len({canonical_form(g) for g in (star, split, path)}) == 3


def test_triangles_against_brute_force(corpus):
    for name, g in corpus:
        tris = cliques(g, 3)
        assert tris == brute_triangles(g), name
        assert triangle_count(g) == len(tris), name
        for (u, v, w), (i, j, k) in zip(tris, clique_edge_indices(g, 3), strict=True):
            assert g.has_edge(u, v) and g.has_edge(u, w) and g.has_edge(v, w)
            assert g.edges[i] == (u, v)
            assert g.edges[j] == (u, w)
            assert g.edges[k] == (v, w)


def test_triangles_of_mantel6_all_use_added_edge():
    g = mantel_plus_one(6)
    added = g.edge_index(3, 4)
    tris = clique_edge_indices(g, 3)
    assert len(tris) == 3
    assert all(added in edges for edges in tris)


def test_cliques():
    assert len(cliques(complete_graph(4), 3)) == 4
    assert cliques(complete_graph(4), 4) == [(0, 1, 2, 3)]
    assert cliques(complete_bipartite(3, 3), 3) == []
    assert len(cliques(complete_graph(5), 4)) == 5
    for k in (0, -1):
        with pytest.raises(ValueError, match="clique order must be an integer at least 2"):
            cliques(complete_graph(4), k)


def test_cliques_match_the_combinations_in_order():
    # combinations() yields vertex sets in the same lexicographic order
    rng = random.Random(29)
    for _ in range(60):
        n = rng.randint(1, 10)
        g = random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
        for k in range(2, n + 2):
            want = [c for c in combinations(range(n), k)
                    if all(g.has_edge(u, v) for u, v in combinations(c, 2))]
            assert cliques(g, k) == want, (g.edges, k)


def _extend_calls(g, k):
    """Calls of the listing's inner recursion for cliques(g, k)."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == "extend":
            calls += 1

    sys.setprofile(count)
    try:
        cliques(g, k)
    finally:
        sys.setprofile(None)
    return calls


def test_clique_listing_stops_where_no_copy_fits():
    # a partial clique that cannot reach k is not extended, so K16 has no
    # branch at k = 17 and one chain of 16 extensions at k = 16
    k16 = complete_graph(16)
    assert _extend_calls(k16, 17) == 1
    assert _extend_calls(k16, 16) <= 17
    assert _extend_calls(complete_graph(12), 4) == 715
    assert _extend_calls(mantel_plus_one(20), 3) == 119


def test_complete_graph_rejects_its_size_before_listing_edges():
    # 2000 vertices would be a million or two million edge pairs
    for build in (
        lambda: complete_graph(2000),
        lambda: complete_bipartite(1000, 1000),
        lambda: mantel_plus_one(2000),
    ):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="vertex count must be in 1..62"):
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_canonical_form_invariance():
    rng = random.Random(42)
    for _ in range(100):
        n = rng.randint(2, 7)
        m = rng.randint(0, n * (n - 1) // 2)
        g = random_graph(n, m, rng)
        base = canonical_form(g)
        for _ in range(10):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(g.permuted(perm)) == base


def test_canonical_form_matches_brute_force_minimum():
    rng = random.Random(6)
    for n in range(1, 7):
        for level in edge_ladder(n, n * (n - 1) // 2):
            for g6 in level:
                g = parse_graph6(g6)
                assert brute_canonical_name(g) == g6
                assert canonical_form(g).decode("ascii") == g6
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    assert canonical_form(g.permuted(perm)).decode("ascii") == g6


def test_twin_classes_match_definition():
    rng = random.Random(11)
    graphs = [complete_graph(5), complete_bipartite(2, 3), mantel_plus_one(7), build_graph(4, [])]
    graphs += [random_graph(n, rng.randint(0, n * (n - 1) // 2), rng)
               for n in rng.choices(range(1, 9), k=200)]
    for g in graphs:
        classes = twin_classes(g)
        for v in range(g.n):
            for w in range(g.n):
                twins = g.adj[v] & ~(1 << w) == g.adj[w] & ~(1 << v)
                assert bool(classes[v] >> w & 1) == twins, (g.edges, v, w)


def test_canonical_form_symmetric_graphs_at_n10():
    petersen = build_graph(
        10,
        [(i, (i + 1) % 5) for i in range(5)]
        + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        + [(i, i + 5) for i in range(5)],
    )
    expected = [
        (build_graph(10, []), "I????????"),
        (complete_graph(10), "I~~~~~~~w"),
        (complete_bipartite(5, 5), "I?B~vrw}?"),
        (mantel_plus_one(10), "I?B~vrw}G"),
        (petersen, "I?LRCecq?"),
    ]
    rng = random.Random(10)
    for g, name in expected:
        started = time.perf_counter()
        assert canonical_form(g).decode("ascii") == name
        assert time.perf_counter() - started < 1.0, name
        perm = list(range(10))
        rng.shuffle(perm)
        assert canonical_form(g.permuted(perm)).decode("ascii") == name
        assert write_graph6(parse_graph6(canonical_form(g).decode("ascii"))) == name


def test_canonical_form_separates_classes():
    k3 = complete_graph(3)
    path = build_graph(3, [(0, 1), (1, 2)])
    assert canonical_form(k3) != canonical_form(path)
    assert canonical_form(k3) == canonical_form(k3.permuted([2, 0, 1]))


def test_canonical_graph_is_isomorphic_relabeling():
    g = mantel_plus_one(6)
    cg = parse_graph6(canonical_form(g).decode("ascii"))
    assert are_isomorphic(g, cg)
    assert write_graph6(cg) == canonical_form(g).decode("ascii")


def test_canonical_form_limit():
    with pytest.raises(LimitExceededError):
        canonical_form(build_graph(11, []))


def test_graph6_known_values():
    assert write_graph6(complete_graph(3)) == "Bw"
    assert parse_graph6("Bw") == complete_graph(3)


def test_graph6_roundtrip(corpus):
    for name, g in corpus:
        assert parse_graph6(write_graph6(g)) == g, name


def test_graph6_header_and_errors():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)
    with pytest.raises(ValueError):
        parse_graph6("")
    with pytest.raises(ValueError):
        parse_graph6("Bww")  # too long for n=3
    with pytest.raises(ValueError):
        parse_graph6("E")  # truncated body
    with pytest.raises(ValueError):
        parse_graph6("B" + chr(200))


def test_graph6_roundtrip_random_sizes():
    rng = random.Random(67)
    for _ in range(20):
        n = rng.randint(1, 30)
        max_m = n * (n - 1) // 2
        g = random_graph(n, rng.randint(0, max_m), rng)
        assert parse_graph6(write_graph6(g)) == g


def test_graph6_boundary_sizes():
    one = build_graph(1, [])
    assert parse_graph6(write_graph6(one)) == one
    big = complete_bipartite(31, 31)
    assert big.n == 62
    assert parse_graph6(write_graph6(big)) == big


def test_parse_edge_list():
    g = parse_edge_list("0 1\n1 2\n# comment\n\n2 3\n")
    assert g.n == 4
    assert g.m == 3
    g2 = parse_edge_list("0 1\n", n=5)
    assert g2.n == 5
    with pytest.raises(ValueError):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError):
        parse_edge_list("")
