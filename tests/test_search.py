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
from trifree.enumeration import class_names
from trifree.search import _interior_roots, count_roots


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
        maximize_tf(8, 1, Fraction(1, 2), prune=False)


def test_pruned_matches_unpruned():
    grid = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
    for n in range(3, 7):
        for i in (1, 2):
            if n * n // 4 + i > n * (n - 1) // 2:
                continue
            for p in grid:
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


def test_crossover_root_endpoint_and_several_roots():
    # a - b = 3p - 1 vanishes at the left endpoint 1/3: degenerate interval
    a, b = Poly((0, 3)), Poly((1,))
    assert crossover_root(a, b, Fraction(1, 3), 1) == RootInterval(Fraction(1, 3), Fraction(1, 3))
    assert crossover_root(b, a, 0, Fraction(1, 3)) == RootInterval(Fraction(1, 3), Fraction(1, 3))
    # (5p-1)(5p-2)(5p-3) changes sign on [0, 1] with three roots inside:
    # the leftmost, 1/5, is the one returned
    cubic = Poly((-1, 5)) * Poly((-2, 5)) * Poly((-3, 5))
    r = crossover_root(cubic, Poly.zero(), 0, 1, tol=Fraction(1, 10**6))
    assert r.lo < Fraction(1, 5) < r.hi
    assert r.hi - r.lo <= Fraction(1, 10**6)


def test_count_and_isolate_roots():
    cubic = Poly((1, -1, -2, 1))  # one root in (0,1)
    assert count_roots(cubic, 0, 1) == 1
    roots = isolate_roots(cubic, Fraction(1, 100), Fraction(99, 100))
    assert len(roots) == 1
    assert Fraction(5549, 10000) < roots[0].lo < roots[0].hi < Fraction(5550, 10000)

    # (p - 1/4)(p - 3/4) scaled to integer coefficients: 16p^2 - 16p + 3
    quad = Poly((3, -16, 16))
    assert count_roots(quad, 0, 1) == 2
    roots = isolate_roots(quad, Fraction(1, 1000), Fraction(999, 1000))
    assert len(roots) == 2
    # squarefree handling: (2p-1)^2 has one distinct root
    sq = Poly((1, -4, 4))
    assert count_roots(sq, 0, 1) == 1


def test_interior_roots_inside_the_bisection_margin():
    # p (1-p) (2^45 p - 1) (2^45 (1-p) - 1): roots at 0, 1, 2^-45 and
    # 1 - 2^-45; the last two lie closer to the ends than the 2^-40 margin
    tiny = Fraction(1, 1 << 45)
    p_one_minus_p = Poly((0, 1, -1))
    near_zero = Poly((-1, 1 << 45))
    near_one = Poly(((1 << 45) - 1, -(1 << 45)))
    for diff, want in (
        (p_one_minus_p * near_zero, [tiny]),
        (p_one_minus_p * near_one, [1 - tiny]),
        (-(p_one_minus_p * near_zero * near_one), [tiny, 1 - tiny]),
    ):
        roots = _interior_roots(diff, Fraction(1, 10**12))
        assert len(roots) == len(want)
        for r, x in zip(roots, want):
            assert r.lo < x < r.hi
            assert r.hi - r.lo <= Fraction(1, 10**12)


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


def test_envelope_deterministic():
    a = envelope(5, 1).to_json()
    b = envelope(5, 1).to_json()
    assert a == b


def test_verify_one_extra_optimum_small():
    for n in (3, 4, 5, 6):
        report = verify_one_extra_optimum(n)
        assert report.passed, n
        assert report.equality_classes == (report.construction,)
        assert not report.violations
    with pytest.raises(LimitExceededError):
        verify_one_extra_optimum(8)


def test_verify_one_extra_optimum_pruned_agrees():
    for n in (4, 5, 6):
        full = verify_one_extra_optimum(n)
        fast = verify_one_extra_optimum(n, prune=True)
        assert full.passed == fast.passed
        assert full.equality_classes == fast.equality_classes
        assert fast.pruned >= 0


def test_maximize_n8_pruned_experimental():
    # under a second: the pruned-only n=8 path; the certified bound eliminates
    # every class except the construction, whose value matches the formula
    from trifree import one_extra_edge_optimum

    p = Fraction(1, 2)
    rep = maximize_tf(8, 1, p, prune=True)
    assert rep.maximizers == (canonical_form(mantel_plus_one(8)).decode("ascii"),)
    assert rep.max_value == one_extra_edge_optimum(8).eval(p) == Fraction(337, 512)
    assert rep.pruned == rep.enumerated - 1

    check = verify_one_extra_optimum(8, prune=True)
    assert check.passed
    assert check.pruned == check.enumerated - 1


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
    ck = tmp_path / "ck.txt"
    written = export_classes_csv(5, 6, out, checkpoint_path=ck)
    assert written == len(enumerate_graphs(5, 6))
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "graph6,triangles,coeffs"
    assert len(lines) == written + 1
    assert ck.read_text().split() == ["5", "6", str(written)]
    # resume: nothing left to do
    assert export_classes_csv(5, 6, out, checkpoint_path=ck) == 0
    assert len(out.read_text().strip().splitlines()) == written + 1
    # a checkpoint behind the CSV resumes mid-stream, cutting the CSV back
    # to the rows it counts
    whole = out.read_bytes()
    ck.write_text(f"5 6 {written - 2}\n")
    assert export_classes_csv(5, 6, out, checkpoint_path=ck) == 2
    assert out.read_bytes() == whole


# Runs one export in a child process that dies (os._exit: no buffer is
# flushed) just before or just after its k-th write of the checkpoint,
# whether the checkpoint is written in place or moved there by os.replace.
_KILLED_EXPORT = """
import os, pathlib, sys
from trifree import export_classes_csv

out, ck, k, when = sys.argv[1], pathlib.Path(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
count = 0

def counted(write, target_of):
    def wrapped(*args, **kwargs):
        global count
        hit = pathlib.Path(target_of(args)) == ck
        count += hit
        if hit and count == k and when == "before":
            os._exit(0)
        result = write(*args, **kwargs)
        if hit and count == k and when == "after":
            os._exit(0)
        return result
    return wrapped

os.replace = counted(os.replace, lambda args: args[1])
pathlib.Path.write_text = counted(pathlib.Path.write_text, lambda args: args[0])
export_classes_csv(5, 6, out, checkpoint_path=ck)
os._exit(3)  # never killed: fewer than k checkpoint writes
"""


@pytest.mark.parametrize("k, when", [(1, "after"), (4, "after"), (4, "before")])
def test_export_resumes_after_kill(tmp_path, k, when):
    src = Path(trifree.__file__).resolve().parent.parent
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    out, ck = tmp_path / "classes.csv", tmp_path / "ck.txt"
    child = subprocess.run(
        [sys.executable, "-c", _KILLED_EXPORT, str(out), str(ck), str(k), when],
        env=env, timeout=120,
    )
    assert child.returncode == 0
    counted = k if when == "after" else k - 1
    assert ck.read_text().split() == ["5", "6", str(counted)]
    # the k-th row reached the file before its checkpoint write began
    assert out.read_bytes().count(b"\n") == 1 + k
    resumed = export_classes_csv(5, 6, out, checkpoint_path=ck)
    assert resumed == len(enumerate_graphs(5, 6)) - counted
    one_shot = tmp_path / "one_shot.csv"
    export_classes_csv(5, 6, one_shot)
    assert out.read_bytes() == one_shot.read_bytes()
