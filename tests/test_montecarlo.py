from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from trifree import (
    complete_bipartite,
    complete_graph,
    estimate_tf,
    lane_generator,
    mantel_plus_one,
    one_extra_edge_optimum,
    sample_subgraph,
)
from trifree.hypergraph import clique_edge_indices
from trifree.montecarlo import LANE_SIZE, keep_threshold, wilson_interval


def test_lane_generator_pinned_vectors():
    # the generator is part of the reproducibility contract: Philox keyed
    # by (seed, lane); these values must never change
    got = lane_generator(42, 3).random(4).tolist()
    assert got == [
        0.7122142960324449,
        0.07050661802753055,
        0.3939777489962194,
        0.1263812763223061,
    ]
    got = lane_generator(7, 0).random(3).tolist()
    assert got == [0.8720734548204873, 0.29536538151378355, 0.4200976785072422]


def test_sample_subgraph_determinism():
    g = complete_graph(4)
    runs = []
    for _ in range(2):
        rng = lane_generator(123, 0)
        runs.append([sample_subgraph(g, 0.5, rng).edges for _ in range(50)])
    assert runs[0] == runs[1]


def test_sample_subgraph_extreme_p():
    g = complete_graph(4)
    rng = lane_generator(5, 0)
    tiny = 2.0**-30
    edgeless = sum(1 for _ in range(1000) if sample_subgraph(g, tiny, rng).m == 0)
    assert edgeless >= 999
    rng = lane_generator(5, 1)
    full = sum(1 for _ in range(1000) if sample_subgraph(g, 1 - tiny, rng).m == g.m)
    assert full >= 999
    with pytest.raises(ValueError):
        sample_subgraph(g, 0.0, rng)


def test_wilson_interval_shape():
    low, high = wilson_interval(9990, 10000)
    assert 0 <= low <= 0.999 <= high <= 1
    low, high = wilson_interval(10000, 10000)
    assert high == 1.0
    low, high = wilson_interval(0, 10000)
    assert low == 0.0
    with pytest.raises(ValueError):
        wilson_interval(0, 0)


def test_wilson_interval_contains_its_estimate_at_the_ends():
    for n in range(1, 5000):
        low, high = wilson_interval(0, n)
        assert low == 0.0 < high, n
        low, high = wilson_interval(n, n)
        assert low < 1.0 == high, n
    # interior counts are untouched by the clamp: the unclamped values
    assert [wilson_interval(s, n) for s, n in ((3, 10), (1, 4999), (2097151, 2097152))] == [
        (0.10779126740630099, 0.6032218525388546),
        (3.531284618313595e-05, 0.0011323153644600043),
        (0.9999972987539504, 0.9999999158265279),
    ]


def test_estimate_triangle_free_host_is_exact():
    est = estimate_tf(complete_bipartite(3, 3), Fraction(1, 2), 500, seed=3)
    assert est.mean == 1.0
    assert est.successes == 500


def test_estimate_k4_accuracy():
    est = estimate_tf(complete_graph(4), Fraction(1, 2), 10**6, seed=42)
    assert abs(est.mean - 41 / 64) <= 0.003  # 6 sigma at this sample size
    assert est.ci_low <= 41 / 64 <= est.ci_high
    assert 0 <= est.ci_low <= est.mean <= est.ci_high <= 1


def test_estimate_mantel10_accuracy():
    exact = float(one_extra_edge_optimum(10).eval(Fraction(1, 3)))
    est = estimate_tf(mantel_plus_one(10), Fraction(1, 3), 10**6, seed=7)
    sigma = sqrt(exact * (1 - exact) / 10**6)
    assert abs(est.mean - exact) <= 6 * sigma


def test_estimate_mantel12_interval_contains_closed_form():
    exact = float(one_extra_edge_optimum(12).eval(Fraction(3, 10)))
    est = estimate_tf(mantel_plus_one(12), Fraction(3, 10), 10**6, seed=1)
    assert est.ci_low <= exact <= est.ci_high


def test_estimate_reproducible_across_jobs():
    g = complete_graph(4)
    base = estimate_tf(g, Fraction(1, 2), 100_000, seed=11)
    for jobs in (2, 3, 8):
        again = estimate_tf(g, Fraction(1, 2), 100_000, seed=11, jobs=jobs)
        assert again == base
        assert again.to_json_text() == base.to_json_text()


def test_estimate_seed_sensitivity():
    g = complete_graph(4)
    a = estimate_tf(g, Fraction(1, 2), 50_000, seed=1)
    b = estimate_tf(g, Fraction(1, 2), 50_000, seed=2)
    assert a.successes != b.successes  # astronomically unlikely to collide


def test_estimate_clique_order_4():
    # K4-free probability of K4 itself: 1 - p^6
    est = estimate_tf(complete_graph(4), Fraction(1, 2), 200_000, seed=9, clique_order=4)
    exact = 1 - 0.5**6
    sigma = sqrt(exact * (1 - exact) / 200_000)
    assert abs(est.mean - exact) <= 6 * sigma


def test_estimate_validation():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        estimate_tf(g, Fraction(1, 2), 0, seed=1)
    with pytest.raises(ValueError):
        estimate_tf(g, Fraction(2), 10, seed=1)


def test_calibration_summary():
    g = complete_graph(4)
    exact = 41 / 64
    inside = 0
    means = []
    for seed in range(200):
        est = estimate_tf(g, Fraction(1, 2), 10**4, seed=seed)
        means.append(est.mean)
        if est.ci_low <= exact <= est.ci_high:
            inside += 1
    assert inside >= 180
    pooled_se = sqrt(exact * (1 - exact) / (200 * 10**4))
    assert abs(sum(means) / len(means) - exact) <= 3 * pooled_se


# Success counts pinned from the float-draw column loop that the bit-sliced
# lane replaced; every Estimate byte depends on them.
_GOLDEN_GRAPHS = {
    "mantel+1:40": (lambda: mantel_plus_one(40), 3),
    "K8": (lambda: complete_graph(8), 3),
    "K8/k4": (lambda: complete_graph(8), 4),
}
_SEED_2_70 = 2**70 + 5
_P_TINY = Fraction(1, 2**40)
_P_HUGE = 1 - Fraction(1, 2**52)


@pytest.mark.parametrize(
    "case, p, samples, seed, successes",
    [
        ("mantel+1:40", Fraction(3, 10), 1, 0, 1),
        ("mantel+1:40", Fraction(3, 10), 63, 0, 49),
        ("mantel+1:40", Fraction(3, 10), 64, 0, 50),
        ("mantel+1:40", Fraction(3, 10), 65, 0, 51),
        ("mantel+1:40", Fraction(3, 10), 16383, 0, 12195),
        ("mantel+1:40", Fraction(3, 10), 16385, 0, 12197),
        ("mantel+1:40", Fraction(3, 10), 100001, 0, 74486),
        ("mantel+1:40", Fraction(3, 10), 16385, _SEED_2_70, 12200),
        ("mantel+1:40", Fraction(3, 10), 1 << 21, 1, 1564006),
        ("mantel+1:40", Fraction(999, 1000), 16385, 3, 13),
        ("mantel+1:40", Fraction(999, 1000), 100001, 3, 104),
        ("mantel+1:40", _P_TINY, 100001, 3, 100001),
        ("mantel+1:40", _P_HUGE, 100001, 3, 0),
        ("K8", Fraction(1, 2), 65, 0, 0),
        ("K8", Fraction(1, 2), 16383, 0, 307),
        ("K8", Fraction(1, 2), 16385, 0, 307),
        ("K8", Fraction(1, 2), 100001, 0, 1729),
        ("K8", Fraction(1, 2), 65, _SEED_2_70, 1),
        ("K8", Fraction(1, 2), 100001, _SEED_2_70, 1712),
        ("K8", Fraction(1, 2), 1 << 21, 1, 36304),
        ("K8", _P_TINY, 16385, 3, 16385),
        ("K8", _P_HUGE, 16385, 3, 0),
        ("K8/k4", Fraction(1, 2), 1, 0, 0),
        ("K8/k4", Fraction(1, 2), 63, 0, 32),
        ("K8/k4", Fraction(1, 2), 64, 0, 32),
        ("K8/k4", Fraction(1, 2), 65, 0, 33),
        ("K8/k4", Fraction(1, 2), 16383, 0, 8857),
        ("K8/k4", Fraction(1, 2), 16385, 0, 8858),
        ("K8/k4", Fraction(1, 2), 100001, 0, 54766),
        ("K8/k4", Fraction(1, 2), 1, _SEED_2_70, 1),
        ("K8/k4", Fraction(1, 2), 100001, _SEED_2_70, 54927),
        ("K8/k4", Fraction(1, 2), 1 << 21, 1, 1149355),
        ("K8/k4", _P_TINY, 100001, 3, 100001),
        ("K8/k4", _P_HUGE, 100001, 3, 0),
    ],
)
def test_estimate_golden_successes(case, p, samples, seed, successes):
    make, k = _GOLDEN_GRAPHS[case]
    est = estimate_tf(make(), p, samples, seed=seed, clique_order=k)
    assert est.successes == successes


@pytest.mark.parametrize(
    "p",
    [
        Fraction(1, 2), Fraction(3, 10), Fraction(1, 3), Fraction(999, 1000),
        _P_TINY, _P_HUGE,
        1 - Fraction(1, 2**60),  # float(p) rounds to 1.0: bound 2^64 keeps all
        Fraction(1, 2**1100),  # float(p) rounds to 0.0: bound 0 keeps none
    ],
)
def test_keep_threshold_matches_float_draw(p):
    # guards numpy's documented raw-word-to-double mapping for Philox
    bound = keep_threshold(p)
    for seed, lane in ((0, 0), (42, 3), (2**70 + 5, 9)):
        raw = lane_generator(seed, lane).bit_generator.random_raw(20_000)
        floats = lane_generator(seed, lane).random(20_000)
        assert np.array_equal(raw < bound, floats < float(p))


def test_keep_threshold_exact_values():
    assert keep_threshold(Fraction(1, 2)) == 1 << 63
    assert keep_threshold(Fraction(1, 3)) == (2**53 // 3 + 1) << 11
    assert keep_threshold(_P_HUGE) == (2**53 - 2) << 11
    assert keep_threshold(1 - Fraction(1, 2**60)) == 1 << 64
    assert keep_threshold(Fraction(1, 2**1100)) == 0


def _column_loop_successes(g, p, samples, seed, k):
    """Reference: float draws per lane, then a copy-by-copy column test."""
    copies = clique_edge_indices(g, k)
    covered = sorted({e for idx in copies for e in idx})
    pos = {e: i for i, e in enumerate(covered)}
    successes = 0
    for lane in range(-(-samples // LANE_SIZE)):
        count = min(LANE_SIZE, samples - lane * LANE_SIZE)
        keep = lane_generator(seed, lane).random((count, len(covered))) < float(p)
        bad = np.zeros(count, dtype=bool)
        for idx in copies:
            bad |= keep[:, [pos[e] for e in idx]].all(axis=1)
        successes += count - int(bad.sum())
    return successes


@pytest.mark.parametrize("k, p", [(3, Fraction(1, 5)), (4, Fraction(1, 3)), (5, Fraction(1, 2))])
def test_estimate_matches_column_loop_reference(k, p):
    # K11 at k=5 has 462 copies of 10 edges over 55 covered edges, so the
    # lane gathers its copies in two blocks
    g = complete_graph(11)
    for samples, seed in ((LANE_SIZE + 77, 5), (130, 2**64 + 1)):
        est = estimate_tf(g, p, samples, seed=seed, clique_order=k)
        assert est.successes == _column_loop_successes(g, p, samples, seed, k)


def test_estimate_rejects_jobs_below_one():
    g = complete_graph(4)
    for jobs in (0, -3):
        with pytest.raises(ValueError, match="jobs"):
            estimate_tf(g, Fraction(1, 2), 100, seed=1, jobs=jobs)


def test_estimate_pool_never_exceeds_lanes(monkeypatch):
    started = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr("trifree.montecarlo.ThreadPoolExecutor", CountingPool)
    g = complete_graph(4)
    base = estimate_tf(g, Fraction(1, 2), 100, seed=4)
    assert estimate_tf(g, Fraction(1, 2), 100, seed=4, jobs=64) == base
    assert started == []  # one lane: run inline, no pool at all
    samples = 2 * LANE_SIZE + 1
    base = estimate_tf(g, Fraction(1, 2), samples, seed=4)
    assert estimate_tf(g, Fraction(1, 2), samples, seed=4, jobs=64) == base
    assert started == [3]
