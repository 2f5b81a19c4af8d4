import hashlib
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

import trifree
from conftest import automorphism_count, edge_ladder
from trifree import (
    LimitExceededError,
    Poly,
    RootInterval,
    canonical_form,
    complete_graph,
    crossover_root,
    enumerate_graphs,
    envelope,
    export_classes_csv,
    isolate_roots,
    mantel_plus_one,
    maximize_tf,
    parse_graph6,
    tf_poly,
    triangle_count,
    two_extra_edge_candidates,
    verify_one_extra_capped,
    verify_one_extra_optimum,
    write_graph6,
)
from trifree import search
from trifree.enumeration import _class_memo, class_names
from trifree.search import _interior_roots


def test_enumerate_single_classes():
    assert len(enumerate_graphs(3, 3)) == 1
    assert canonical_form(enumerate_graphs(3, 3)[0]) == canonical_form(complete_graph(3))
    (only,) = enumerate_graphs(4, 5)
    assert only.m == 5


def test_enumerate_known_counts():
    # classes on 4 vertices by edge count
    assert [len(enumerate_graphs(4, m)) for m in range(7)] == [1, 1, 2, 3, 2, 1, 1]
    assert sum(len(enumerate_graphs(5, m)) for m in range(11)) == 34
    assert sum(len(enumerate_graphs(6, m)) for m in range(16)) == 156


def test_enumerate_orbit_count_cross_check():
    # sum over classes of n!/|Aut| must equal the labeled count C(15, 10)
    reps = enumerate_graphs(6, 10)
    labeled = sum(factorial(6) // automorphism_count(g) for g in reps)
    assert labeled == comb(15, 10) == 3003


def test_enumerate_n7_full_ladder_structure():
    counts = [len(enumerate_graphs(7, m)) for m in range(22)]
    # complement bijection forces a palindrome, and the total is the
    # classical count of unlabeled 7-vertex graphs
    assert counts == counts[::-1]
    assert sum(counts) == 1044
    assert counts[:6] == [1, 1, 2, 5, 10, 21]


def test_ladder_level_sizes_match_graph_atlas():
    nx = pytest.importorskip("networkx")
    sizes = [0] * 22
    for h in nx.graph_atlas_g():
        if h.number_of_nodes() == 7:
            sizes[h.number_of_edges()] += 1
    assert [len(enumerate_graphs(7, m)) for m in range(22)] == sizes


def test_enumerate_matches_edge_ladder():
    for n in range(1, 8):
        top = n * (n - 1) // 2
        levels = edge_ladder(n, top)
        for m in range(top + 1):
            assert [write_graph6(g) for g in enumerate_graphs(n, m)] == levels[m], (n, m)


def test_capped_recursion_matches_filtered_ladder():
    for n in range(1, 8):
        top = n * (n - 1) // 2
        levels = edge_ladder(n, top)
        for m in range(top + 1):
            counts = {g6: triangle_count(parse_graph6(g6)) for g6 in levels[m]}
            for cap in (0, 1, 2, 3, 4, 6, 10):
                want = [g6 for g6 in levels[m] if counts[g6] <= cap]
                assert class_names(n, m, cap) == want, (n, m, cap)
    assert class_names(1, 1) == class_names(3, 4) == []


def test_class_names_past_the_canonical_limit_computes_nothing():
    # the limit is a time guard: it fires before any level is listed
    before = dict(_class_memo)
    for m in (0, 3, 28):
        with pytest.raises(LimitExceededError, match="canonical form supports n <= 10"):
            class_names(11, m)
    assert _class_memo == before


def test_enumerate_graphs_without_vertices_rejected():
    for n in (0, -1):
        with pytest.raises(ValueError, match="need at least one vertex"):
            enumerate_graphs(n, 0)


@pytest.mark.slow
def test_enumerate_n8_full_row():
    # OEIS A008406, row 8: the 12,346 unlabeled graphs on 8 vertices
    assert [len(enumerate_graphs(8, m)) for m in range(29)] == [
        1, 1, 2, 5, 11, 24, 56, 115, 221, 402, 663, 980, 1312, 1557, 1646,
        1557, 1312, 980, 663, 402, 221, 115, 56, 24, 11, 5, 2, 1, 1,
    ]


def test_enumerate_representatives_pairwise_nonisomorphic():
    from conftest import are_isomorphic

    reps = enumerate_graphs(5, 5)
    for a in range(len(reps)):
        assert reps[a].n == 5 and reps[a].m == 5
        for b in range(a + 1, len(reps)):
            assert not are_isomorphic(reps[a], reps[b])


def test_enumerate_deterministic_and_canonical():
    a = [canonical_form(g) for g in enumerate_graphs(5, 6)]
    b = [canonical_form(g) for g in enumerate_graphs(5, 6)]
    assert a == b == sorted(a)
    assert len(set(a)) == len(a)


def test_enumerate_limits():
    with pytest.raises(LimitExceededError):
        enumerate_graphs(9, 3)
    with pytest.raises(ValueError):
        enumerate_graphs(4, 7)


def test_maximize_examples():
    rep = maximize_tf(6, 1, Fraction(1, 2))
    assert rep.max_value == Fraction(91, 128)
    assert rep.maximizers == (canonical_form(mantel_plus_one(6)).decode("ascii"),)
    assert rep.enumerated == 15

    rep3 = maximize_tf(3, 1, Fraction(1, 3))
    assert rep3.maximizers == (canonical_form(complete_graph(3)).decode("ascii"),)
    assert rep3.max_value == 1 - Fraction(1, 27)

    split_g6 = canonical_form(two_extra_edge_candidates()[1]).decode("ascii")
    rep62 = maximize_tf(6, 2, Fraction(1, 4))
    assert rep62.maximizers == (split_g6,)


def test_maximize_6_1_matches_labeled_exhaustive():
    # completeness oracle: no labeled 10-edge graph on 6 vertices beats the
    # class-search maximum
    from itertools import combinations

    from trifree import build_graph

    p = Fraction(1, 2)
    rep = maximize_tf(6, 1, p)
    pairs = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    best = Fraction(0)
    count = 0
    for chosen in combinations(pairs, 10):
        g = build_graph(6, chosen)
        value = tf_poly(g).eval(p)
        best = max(best, value)
        count += 1
    assert count == comb(15, 10) == 3003
    assert best == rep.max_value == Fraction(91, 128)


def test_maximize_validation():
    with pytest.raises(ValueError):
        maximize_tf(6, 1, Fraction(0))
    with pytest.raises(LimitExceededError):
        maximize_tf(9, 1, Fraction(1, 2))
    # n = 8 runs unpruned: the enumeration limit is the only size limit
    assert maximize_tf(8, 1, Fraction(1, 2)).pruned == 0


def test_pruned_matches_unpruned():
    grid = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
    cases = [
        (n, i, p)
        for n in range(3, 7)
        for i in (1, 2)
        if n * n // 4 + i <= n * (n - 1) // 2
        for p in grid
    ]
    # n = 8: the unpruned reference for the pruned results
    cases += [(8, 1, Fraction(1, 2)), (8, 2, Fraction(1, 2))]
    for n, i, p in cases:
        full = maximize_tf(n, i, p, prune=False)
        fast = maximize_tf(n, i, p, prune=True)
        # identical results; only the skip counter may differ
        assert (full.maximizers, full.max_value, full.enumerated) == (
            fast.maximizers,
            fast.max_value,
            fast.enumerated,
        ), (n, i, p)


def test_report_json_shape():
    rep = maximize_tf(4, 1, Fraction(1, 2))
    d = rep.to_json()
    assert d["p"] == "1/2"
    assert isinstance(d["runtime_ms"], float)
    assert "runtime_ms" not in rep.to_json(include_runtime=False)


def test_crossover_root_known():
    star, split, _ = two_extra_edge_candidates()
    r = crossover_root(tf_poly(split), tf_poly(star), Fraction(1, 2), Fraction(3, 4))
    assert r.hi - r.lo <= Fraction(1, 10**12)
    assert Fraction(5549, 10000) < r.lo < r.hi < Fraction(5550, 10000)
    # the isolated point is a root of the cubic factor
    cubic = Poly((1, -1, -2, 1))
    assert (cubic.eval(r.lo) > 0) != (cubic.eval(r.hi) > 0)


def test_crossover_root_errors():
    with pytest.raises(ValueError):
        crossover_root(Poly.one(), Poly.zero(), Fraction(1, 4), Fraction(3, 4))


def test_reversed_interval_raises():
    # a reversed interval is an error, not an endless bisection
    f = Poly((-1, 2))
    with pytest.raises(ValueError, match="empty interval"):
        isolate_roots(f, 1, 0)
    with pytest.raises(ValueError, match="empty interval"):
        crossover_root(f, Poly.zero(), 1, 0)
    # 3p - 1 vanishes at the endpoint 1/3: reversed is still empty
    with pytest.raises(ValueError, match="empty interval"):
        crossover_root(Poly((0, 3)), Poly((1,)), Fraction(1, 3), 0)
    assert isolate_roots(f, Fraction(1, 3), Fraction(1, 3)) == []


def test_crossover_root_endpoint_and_several_roots():
    # a - b = 3p - 1 vanishes at the left endpoint 1/3: degenerate interval
    a, b = Poly((0, 3)), Poly((1,))
    assert crossover_root(a, b, Fraction(1, 3), 1) == RootInterval(Fraction(1, 3), Fraction(1, 3))
    assert crossover_root(b, a, 0, Fraction(1, 3)) == RootInterval(Fraction(1, 3), Fraction(1, 3))
    # (5p-1)(5p-2)(5p-3) changes sign on [0, 1] with three roots inside:
    # the leftmost, 1/5, is the one returned
    cubic = Poly((-1, 5)) * Poly((-2, 5)) * Poly((-3, 5))
    r = crossover_root(cubic, Poly.zero(), 0, 1)
    assert r.lo < Fraction(1, 5) < r.hi
    assert r.hi - r.lo <= Fraction(1, 10**12)


def test_count_and_isolate_roots():
    cubic = Poly((1, -1, -2, 1))  # one root in (0,1)
    roots = isolate_roots(cubic, Fraction(1, 100), Fraction(99, 100))
    assert len(roots) == 1
    assert Fraction(5549, 10000) < roots[0].lo < roots[0].hi < Fraction(5550, 10000)

    # (p - 1/4)(p - 3/4) scaled to integer coefficients: 16p^2 - 16p + 3
    quad = Poly((3, -16, 16))
    roots = isolate_roots(quad, Fraction(1, 1000), Fraction(999, 1000))
    assert len(roots) == 2
    # repeated roots: (2p-1)^2 has one distinct root
    (root,) = isolate_roots(Poly((1, -4, 4)), 0, 1)
    assert root.lo < Fraction(1, 2) < root.hi


def test_interior_roots_inside_the_bisection_margin():
    # p (1-p) (2^45 p - 1) (2^45 (1-p) - 1): roots at 0, 1, 2^-45 and
    # 1 - 2^-45; the last two lie closer to the ends than the 2^-40 margin
    tiny = Fraction(1, 1 << 45)
    margin = Fraction(1, 1 << 40)
    p_one_minus_p = Poly((0, 1, -1))
    near_zero = Poly((-1, 1 << 45))
    near_one = Poly(((1 << 45) - 1, -(1 << 45)))
    at_margin = Poly((-1, 1 << 40))
    at_one_minus_margin = Poly(((1 << 40) - 1, -(1 << 40)))
    half, third = Poly((-1, 2)), Poly((-1, 3))
    # repeated roots give one interval per distinct root, also exactly at
    # a margin
    for diff, want in (
        (p_one_minus_p * near_zero, [tiny]),
        (p_one_minus_p * near_one, [1 - tiny]),
        (-(p_one_minus_p * near_zero * near_one), [tiny, 1 - tiny]),
        (at_margin**2 * half, [margin, Fraction(1, 2)]),
        (p_one_minus_p * at_one_minus_margin**3, [1 - margin]),
        (p_one_minus_p * half**2 * third, [Fraction(1, 3), Fraction(1, 2)]),
    ):
        roots = _interior_roots(diff)
        assert len(roots) == len(want)
        for r, x in zip(roots, want):
            assert r.lo < x < r.hi
            assert r.hi - r.lo <= Fraction(1, 10**12)


def test_interior_roots_sturm_settles_what_descartes_cannot():
    # p(1-p)(400p^2 - 400p + 101): the quadratic has no real root, yet the
    # unit shift of the reduced difference changes sign twice
    diff = Poly((0, 1, -1)) * Poly((101, -400, 400))
    assert search._unit_shift(Poly(diff.coeffs[1:])) == [0, 101, -198, 101]
    assert _interior_roots(diff) == []


def test_interior_roots_build_one_sturm_chain_per_isolation(monkeypatch):
    # the chain that decides the zero test and the margins also bisects
    counts = {"_sturm_chain": 0, "_bisect_roots": 0}
    for name in counts:
        def counting(*args, _name=name, _orig=getattr(search, name)):
            counts[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(search, name, counting)
    for n in range(3, 8):
        for i in range(6):
            if n * n // 4 + i <= n * (n - 1) // 2:
                envelope(n, i)
    assert counts == {"_sturm_chain": 6, "_bisect_roots": 6}


def test_envelope_single_segment_cases():
    env = envelope(6, 1)
    assert len(env.segments) == 1
    seg = env.segments[0]
    assert (seg.lo, seg.hi) == (Fraction(0), Fraction(1))
    assert seg.maximizers == (canonical_form(mantel_plus_one(6)).decode("ascii"),)
    assert env.crossovers == ()

    env3 = envelope(3, 1)
    assert len(env3.segments) == 1
    assert env3.segments[0].maximizers == (
        canonical_form(complete_graph(3)).decode("ascii"),
    )


def test_envelope_two_segments_at_6_2():
    star, split, path = two_extra_edge_candidates()
    star_g6 = canonical_form(star).decode("ascii")
    split_g6 = canonical_form(split).decode("ascii")
    path_g6 = canonical_form(path).decode("ascii")

    env = envelope(6, 2)
    assert [seg.maximizers for seg in env.segments] == [(split_g6,), (star_g6,)]
    assert len(env.crossovers) == 1
    root = env.crossovers[0]
    assert Fraction(5549, 10000) < root.lo < root.hi < Fraction(5550, 10000)
    # exact bytes: bisection from 2^-40 and 1 - 2^-40 down to width 10^-12
    assert root.to_json() == {
        "lo": "335451607342751326374921/604462909807314587353088",
        "hi": "41931450917912635273601/75557863725914323419136",
        "approx": 0.5549581320878043,
    }
    # segments partition (0,1) and meet at the crossover
    assert env.segments[0].lo == 0
    assert env.segments[-1].hi == 1
    assert env.segments[0].hi == env.segments[1].lo
    assert all(path_g6 not in seg.maximizers for seg in env.segments)


def test_envelope_matches_direct_maximum_at_random_points():
    env = envelope(6, 2)
    reps = enumerate_graphs(6, 11)
    polys = {canonical_form(g).decode("ascii"): tf_poly(g) for g in reps}
    rng = random.Random(7)
    for _ in range(1000):
        p = Fraction(rng.randint(1, 4095), 4096)
        best = max(polys.values(), key=lambda q: q.eval(p))
        seg = next(s for s in env.segments if s.lo < p < s.hi or s.lo == p)
        claimed = polys[seg.maximizers[0]]
        assert claimed.eval(p) == best.eval(p)


def test_envelope_consistency_other_budgets():
    rng = random.Random(23)
    for n, i in ((4, 1), (4, 2), (5, 1), (5, 2)):
        env = envelope(n, i)
        assert env.segments[0].lo == 0
        assert env.segments[-1].hi == 1
        for a, b in zip(env.segments, env.segments[1:]):
            assert a.hi == b.lo
            assert a.maximizers != b.maximizers
        reps = enumerate_graphs(n, n * n // 4 + i)
        polys = {canonical_form(g).decode("ascii"): tf_poly(g) for g in reps}
        for _ in range(25):
            p = Fraction(rng.randint(1, 1023), 1024)
            best = max(q.eval(p) for q in polys.values())
            seg = next(s for s in env.segments if s.lo < p < s.hi or s.lo == p)
            assert polys[seg.maximizers[0]].eval(p) == best, (n, i, p)


def test_envelope_finds_a_winner_between_grid_points(monkeypatch):
    # 2 - p - (1000p - 303)^2 beats 1 - p only on (0.302, 0.304), which
    # holds no point j/64 (19/64 < 0.302 < 0.304 < 20/64)
    broad, narrow = Poly((1, -1)), Poly((2, -1)) - Poly((-303, 1000)) * Poly((-303, 1000))
    fakes = {parse_graph6("A_"): broad, parse_graph6("A?"): narrow}
    monkeypatch.setattr(search, "enumerate_graphs", lambda n, m: list(fakes))
    monkeypatch.setattr(search, "tf_poly", fakes.__getitem__)
    env = envelope(2, 0)
    assert [seg.maximizers for seg in env.segments] == [("A_",), ("A?",), ("A_",)]
    a, b = env.crossovers
    assert a.lo < Fraction(302, 1000) < a.hi and b.lo < Fraction(304, 1000) < b.hi
    assert env.segments[1].lo < Fraction(303, 1000) < env.segments[1].hi


def test_envelope_merges_a_winner_that_only_touches_a_rival(monkeypatch):
    # 1 - p - p(1-p)(2p-1)^2 touches 1 - p at 1/2 without crossing it: the
    # two pieces around that root keep one winner and merge
    top = Poly((1, -1))
    toucher = top - Poly((0, 1, -1)) * Poly((-1, 2)) ** 2
    fakes = {parse_graph6("A_"): top, parse_graph6("A?"): toucher}
    monkeypatch.setattr(search, "enumerate_graphs", lambda n, m: list(fakes))
    monkeypatch.setattr(search, "tf_poly", fakes.__getitem__)
    env = envelope(2, 0)
    assert env.segments == (search.EnvelopeSegment(Fraction(0), Fraction(1), ("A_",)),)
    assert env.crossovers == ()


def test_envelope_reports_a_winner_narrower_than_a_crossing_interval(monkeypatch):
    # 10^14 p - 5*10^13 beats 0 above 1/2 and 2*10^14 p - 10^14 - 2 below
    # 1/2 + 2*10^-14, so it alone wins on (1/2, 1/2 + 2*10^-14)
    fakes = {
        "a": Poly.zero(),
        "b": Poly((-5 * 10**13, 10**14)),
        "c": Poly((-(10**14) - 2, 2 * 10**14)),
    }
    monkeypatch.setattr(search, "enumerate_graphs", lambda n, m: list(fakes))
    monkeypatch.setattr(search, "tf_poly", fakes.__getitem__)
    monkeypatch.setattr(search, "write_graph6", lambda g: g)
    env = envelope(2, 0)
    assert [seg.maximizers for seg in env.segments] == [("a",), ("b",), ("c",)]
    # the two overlapping crossing intervals were refined until they separated
    first, second = env.crossovers
    assert first.lo < Fraction(1, 2) < first.hi
    assert first.hi < second.lo
    assert second.lo < Fraction(1, 2) + Fraction(2, 10**14) < second.hi


def test_envelope_leaves_crossings_through_one_point_unrefined(monkeypatch):
    # a, b and c all meet at 1/2: their crossing intervals share that root
    # and cannot separate, so they stay at the isolation width
    fakes = {
        "a": Poly.zero(),
        "b": Poly((-5 * 10**13, 10**14)),
        "c": Poly((-(10**14), 2 * 10**14)),
    }
    monkeypatch.setattr(search, "enumerate_graphs", lambda n, m: list(fakes))
    monkeypatch.setattr(search, "tf_poly", fakes.__getitem__)
    monkeypatch.setattr(search, "write_graph6", lambda g: g)
    env = envelope(2, 0)
    assert [seg.maximizers for seg in env.segments] == [("a",), ("c",)]
    (crossing,) = env.crossovers
    assert crossing.lo < Fraction(1, 2) < crossing.hi
    assert crossing == search._interior_roots(fakes["c"] - fakes["a"])[0]


def test_envelope_keeps_a_shared_crossing_while_it_refines_a_clash(monkeypatch):
    # d, e and f all meet at 1/4, and their crossing intervals, sorted
    # first, share that root; the narrow winner b near 1/2 (as above)
    # clashes, so the separation reruns past the pairs already known shared
    fakes = {
        "a": Poly.zero(),
        "b": Poly((-5 * 10**13, 10**14)),
        "c": Poly((-(10**14) - 2, 2 * 10**14)),
        "d": Poly((12, -32)),
        "e": Poly((10, -24)),
        "f": Poly((9, -20)),
    }
    monkeypatch.setattr(search, "enumerate_graphs", lambda n, m: list(fakes))
    monkeypatch.setattr(search, "tf_poly", fakes.__getitem__)
    monkeypatch.setattr(search, "write_graph6", lambda g: g)
    env = envelope(2, 0)
    assert [seg.maximizers for seg in env.segments] == [("d",), ("f",), ("a",), ("b",), ("c",)]
    shared, _, first, second = env.crossovers
    assert shared == search._interior_roots(fakes["f"] - fakes["d"])[0]
    assert first.lo <= Fraction(1, 2) <= first.hi < second.lo
    assert second.lo < Fraction(1, 2) + Fraction(2, 10**14) < second.hi


# sha256 of the envelope JSON at every (n, i), n <= 8, that has a crossover
@pytest.mark.parametrize(
    "n, i, digest",
    [
        (6, 2, "98ea024de8ab89c0e64fe65ce6eb02433d9b08f3c2928766029bf37de142bd39"),
        (6, 3, "04c144c2b025736624904ee1ca5c4bd4a6fe36a2550d1fd223bd1a9e84b978a6"),
        (7, 4, "2e6f8ce5c174f1914e978b65ee8b384174e3bd1aa756175244b41274744c8b72"),
        (7, 5, "1d0fb1ff85aea111b1c97c4247cd4a8beb9327e09015ace69b9eff9effeffda0"),
        (7, 6, "7993cd8541cc97dc485a4073777e333773630c019cbe44fd1f6665bb7e400f85"),
        (8, 4, "2d443b709c18c6dc636aa5007c572a3a425946c6327e38a3557b1923546eeb37"),
        (8, 5, "6c4179a9e746e2f34c031da61c3b0e4919d9b5b1afe7c747a5fbd4379496149e"),
        (8, 6, "5955077143cad0d6f2d02639375cf4decdf201c4cc787b8d2997bbdd93337ea2"),
        (8, 7, "b6ca32f21c74abb2800ab83df6a9efa76f756fa0dab2dc14a0f26603cd4ee945"),
        (8, 8, "fd54bcd821f0b67d8ad8bd25ec425ca954e7207433a24fab2f4e63797d5d7931"),
        (8, 9, "5c21ec037f32d56dd81c8d6442878738d270a7fde4c25a352791d8002c188c9a"),
    ],
)
def test_envelope_crossover_bytes_pinned(n, i, digest):
    env = envelope(n, i)
    assert env.crossovers
    got = json.dumps(env.to_json(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(got.encode()).hexdigest() == digest


REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


@pytest.mark.parametrize("n, i", [(7, 2), (7, 4)])
def test_envelope_n7_matches_reference(n, i):
    expected = json.loads(REFERENCES.read_text())["search_n7"][f"envelope({n},{i})"]
    got = json.dumps(envelope(n, i).to_json(), sort_keys=True, separators=(",", ":"))
    assert got == expected


@pytest.mark.parametrize(
    "key, run",
    [
        ("verify_one_extra_optimum(7)", lambda: verify_one_extra_optimum(7).to_json()),
        ("maximize_tf(7,1,1/2)",
         lambda: maximize_tf(7, 1, Fraction(1, 2)).to_json(include_runtime=False)),
        ("maximize_tf(7,2,1/3,prune)",
         lambda: maximize_tf(7, 2, Fraction(1, 3), prune=True).to_json(include_runtime=False)),
    ],
)
def test_search_n7_matches_reference(key, run):
    expected = json.loads(REFERENCES.read_text())["search_n7"][key]
    assert json.dumps(run(), sort_keys=True, separators=(",", ":")) == expected


def test_envelope_deterministic():
    a = envelope(5, 1).to_json()
    b = envelope(5, 1).to_json()
    assert a == b


def test_verify_one_extra_optimum_small():
    # exhaustive up to the enumeration limit: n = 8 runs unpruned
    for n in range(3, 9):
        report = verify_one_extra_optimum(n)
        assert report.passed, n
        assert report.equality_classes == (report.construction,)
        assert not report.violations
    with pytest.raises(LimitExceededError):
        verify_one_extra_optimum(9)


# p^40 (1-p)^40: below 10^-40 at 1/10, 1/2 and 9/10, while a nonzero integer
# polynomial of degree at most 10 is at least 10^-10 in absolute value there
_TINY = (Poly((0, 1)) * Poly((1, -1))) ** 40


@pytest.mark.parametrize(
    "nudge, violations, equality",
    [
        (Poly.zero(), [], ["EFzg"]),
        # only the construction meets the target, so only it beats a lowered one
        (-_TINY, ["EFzg"], []),
        (_TINY, [], []),
    ],
)
def test_verify_one_extra_optimum_decides_by_the_sign_of_the_gap(
    monkeypatch, nudge, violations, equality
):
    target = search.one_extra_edge_optimum
    monkeypatch.setattr(search, "one_extra_edge_optimum", lambda n: target(n) + nudge)
    report = verify_one_extra_optimum(6)
    assert report.construction == "EFzg"
    assert list(report.violations) == violations
    assert list(report.equality_classes) == equality
    assert report.passed == (equality == ["EFzg"] and not violations)


def test_verify_one_extra_routes_agree():
    # the exhaustive route and the triangle-capped proof find the same
    # unique class: the construction
    for n in range(3, 9):
        full = verify_one_extra_optimum(n)
        capped = verify_one_extra_capped(n)
        assert full.equality_classes == capped.capped_classes == (full.construction,), n
        assert full.to_json()["pruned"] == 0


def test_maximize_n8_pruned_experimental():
    # under a second: the pruned n=8 path; the certified bound eliminates
    # every class except the construction, whose value matches the formula
    from trifree import one_extra_edge_optimum

    p = Fraction(1, 2)
    rep = maximize_tf(8, 1, p, prune=True)
    assert rep.maximizers == (canonical_form(mantel_plus_one(8)).decode("ascii"),)
    assert rep.max_value == one_extra_edge_optimum(8).eval(p) == Fraction(337, 512)
    assert rep.pruned == rep.enumerated - 1


@pytest.mark.parametrize("n", range(3, 11))
def test_verify_one_extra_capped(n):
    started = time.perf_counter()
    report = verify_one_extra_capped(n)
    elapsed = time.perf_counter() - started
    construction = canonical_form(mantel_plus_one(n)).decode("ascii")
    assert report.capped_classes == (construction,)
    assert report.triangle_cap == n // 2
    assert report.construction_is_optimum and report.bound_below_optimum
    assert report.passed
    assert elapsed < 1.0


def test_verify_one_extra_capped_limits():
    with pytest.raises(LimitExceededError):
        verify_one_extra_capped(11)
    with pytest.raises(ValueError):
        verify_one_extra_capped(2)


def test_export_classes_csv(tmp_path):
    out = tmp_path / "classes.csv"
    written = export_classes_csv(5, 6, out)
    assert written == len(enumerate_graphs(5, 6))
    whole = out.read_bytes()
    lines = whole.decode().splitlines()
    assert lines[0] == "graph6,triangles,coeffs"
    assert [line.split(",")[0] for line in lines[1:]] == class_names(5, 6)
    # the CSV is its own checkpoint: a complete export has nothing left to do
    assert export_classes_csv(5, 6, out) == 0
    assert out.read_bytes() == whole
    # a header-only file resumes from row 0
    out.write_bytes(whole.split(b"\n")[0] + b"\n")
    assert export_classes_csv(5, 6, out) == written
    assert out.read_bytes() == whole


def test_export_keeps_only_its_own_rows(tmp_path):
    out, one_shot = tmp_path / "classes.csv", tmp_path / "one_shot.csv"
    export_classes_csv(5, 6, one_shot)
    # another export's rows at the path share the header, never the names
    export_classes_csv(5, 7, out)
    assert export_classes_csv(5, 6, out) == len(enumerate_graphs(5, 6))
    assert out.read_bytes() == one_shot.read_bytes()
    # a file that is not an export is written from the start
    out.write_text("not,an,export\n")
    export_classes_csv(5, 6, out)
    assert out.read_bytes() == one_shot.read_bytes()


# Runs one export in a child process that dies (os._exit: no buffer is
# flushed) just before or just after its k-th flush of a row.
_KILLED_EXPORT = """
import builtins, os, sys
from trifree import export_classes_csv, search

out, k, when = sys.argv[1], int(sys.argv[2]), sys.argv[3]

class Killed:
    def __init__(self, fh):
        self.fh, self.flushes = fh, 0
    def __enter__(self):
        return self
    def __exit__(self, *exc):
        self.fh.close()
    def __getattr__(self, name):
        return getattr(self.fh, name)
    def flush(self):
        self.flushes += 1
        if self.flushes == k and when == "before":
            os._exit(0)
        self.fh.flush()
        if self.flushes == k and when == "after":
            os._exit(0)

search.open = lambda *args, **kwargs: Killed(builtins.open(*args, **kwargs))
export_classes_csv(5, 6, out)
os._exit(3)  # never killed: fewer than k rows
"""


@pytest.mark.parametrize(
    "k, when", [(1, "before"), (1, "after"), (4, "before"), (4, "after")]
)
def test_export_resumes_after_kill(tmp_path, k, when):
    src = Path(trifree.__file__).resolve().parent.parent
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out, one_shot = tmp_path / "classes.csv", tmp_path / "one_shot.csv"
    export_classes_csv(5, 6, one_shot)
    lines = one_shot.read_bytes().splitlines(keepends=True)
    child = subprocess.run(
        [sys.executable, "-c", _KILLED_EXPORT, str(out), str(k), when],
        env=env, timeout=120,
    )
    assert child.returncode == 0
    # the header goes out with the first row's flush
    flushed = k if when == "after" else k - 1
    assert out.read_bytes() == (b"".join(lines[: 1 + flushed]) if flushed else b"")
    # a torn write leaves half of the next row behind
    torn = lines[1 + flushed]
    with open(out, "ab") as fh:
        fh.write(torn[: len(torn) // 2])
    assert export_classes_csv(5, 6, out) == len(lines) - 1 - flushed
    assert out.read_bytes() == one_shot.read_bytes()



def test_maximize_tf_reports_every_tied_class_sorted(monkeypatch):
    fakes = {parse_graph6("A_"): Poly((1, -1)), parse_graph6("A?"): Poly((1, -1))}
    monkeypatch.setattr(search, "enumerate_graphs", lambda n, m: list(fakes))
    monkeypatch.setattr(search, "tf_poly", fakes.__getitem__)
    report = maximize_tf(2, 0, Fraction(1, 3))
    assert report.maximizers == ("A?", "A_")
    assert report.max_value == Fraction(2, 3)


def test_one_extra_optimum_lists_a_class_above_the_target(monkeypatch, capsys):
    from trifree.cli import main
    above = complete_graph(4)  # stands in for a class beating the target
    reps = enumerate_graphs(4, 5) + [above]
    monkeypatch.setattr(search, "enumerate_graphs", lambda n, m: reps)
    monkeypatch.setattr(search, "tf_poly", lambda g: Poly.one() if g == above else tf_poly(g))
    report = verify_one_extra_optimum(4)
    assert report.violations == (write_graph6(above),)
    assert report.equality_classes == (report.construction,)
    assert not report.passed
    assert main(["verify", "--one-extra", "4"]) == 1
    assert json.loads(capsys.readouterr().out)["pass"] is False
