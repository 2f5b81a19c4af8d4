import os
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

import trifree
from trifree import (
    complete_bipartite,
    complete_graph,
    estimate_tf,
    lane_generator,
    mantel_plus_one,
    one_extra_edge_optimum,
)
from trifree.graphs import clique_edge_indices
from trifree.montecarlo import BLOCK_WORDS, LANE_SIZE, keep_threshold, wilson_interval


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
        assert again.to_json() == base.to_json()


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


@pytest.fixture
def pool_log(monkeypatch):
    """Patches the pool estimate_tf uses: logs each pool's max_workers and
    each helper task, and fails on the 17th task, so that a broken thread
    cap fails before it can start thousands of threads."""
    log = {"max_workers": [], "submitted": []}

    class GuardedPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            log["max_workers"].append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

        def submit(self, fn, /, *args, **kwargs):
            if len(log["submitted"]) >= 16:
                raise AssertionError("more than 16 helper tasks submitted")
            log["submitted"].append(args)
            return super().submit(fn, *args, **kwargs)

    # estimate_tf imports the pool from concurrent.futures when it runs
    monkeypatch.setattr("concurrent.futures.ThreadPoolExecutor", GuardedPool)
    return log


def _stub_lanes(monkeypatch, drawn):
    """Replaces the lane kernel by one that logs (lane, count, thread)."""

    def stub_lane(seed, lane, count, bound, copies, c):
        drawn.append((lane, count, threading.get_ident()))
        return count

    monkeypatch.setattr("trifree.montecarlo._lane_successes", stub_lane)


def test_estimate_threads_never_exceed_lanes_or_cpus(pool_log, monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    g = complete_graph(4)
    for samples, lanes in ((100, 1), (2 * LANE_SIZE + 1, 3), (10 * LANE_SIZE, 10)):
        base = estimate_tf(g, Fraction(1, 2), samples, seed=4)
        for jobs in (2, 3, 64):
            pool_log["max_workers"].clear()
            pool_log["submitted"].clear()
            assert estimate_tf(g, Fraction(1, 2), samples, seed=4, jobs=jobs) == base
            helpers = min(jobs, lanes, 8) - 1
            assert len(pool_log["submitted"]) == helpers, (samples, jobs)
            assert pool_log["max_workers"] == [max(1, helpers)], (samples, jobs)


def test_estimate_one_job_or_one_lane_starts_no_thread(pool_log, monkeypatch):
    def no_thread(self):
        raise AssertionError(f"started thread {self.name}")

    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(threading.Thread, "start", no_thread)
    g = complete_graph(4)
    one_lane = estimate_tf(g, Fraction(1, 2), 100, seed=4)
    assert estimate_tf(g, Fraction(1, 2), 100, seed=4, jobs=64) == one_lane
    assert estimate_tf(g, Fraction(1, 2), 3 * LANE_SIZE, seed=4, jobs=1).samples == 3 * LANE_SIZE
    assert pool_log["submitted"] == []
    assert pool_log["max_workers"] == [1, 1, 1]


@pytest.mark.parametrize(
    "make, k, p, seed, step, sizes",
    [
        # 41 covered edges: blocks of 1536 samples; a lane ends mid-block
        (lambda: mantel_plus_one(40), 3, Fraction(3, 10), 6, 1536, (1535, 1536, 1537, LANE_SIZE + 1)),
        # 780 covered edges: blocks of the 64-sample floor
        (lambda: complete_graph(40), 3, Fraction(1, 20), 2**64 + 3, 64, (63, 64, 65, 129)),
    ],
)
def test_estimate_at_block_boundaries_matches_column_loop(make, k, p, seed, step, sizes):
    g = make()
    c = len({e for idx in clique_edge_indices(g, k) for e in idx})
    assert max(64, BLOCK_WORDS // c // 64 * 64) == step  # the block size of the lane
    for samples in sizes:
        est = estimate_tf(g, p, samples, seed=seed, clique_order=k)
        assert 0 < est.successes < samples
        assert est.successes == _column_loop_successes(g, p, samples, seed, k), samples


def test_estimate_memory_depends_on_neither_edges_nor_samples():
    # K40 has 780 covered edges: a whole lane of raw words at once would be
    # 2^14 * 780 * 8 bytes, about 100 MB, per worker
    g = complete_graph(40)
    tracemalloc.start()
    try:
        est = estimate_tf(g, Fraction(1, 2), 1 << 15, seed=8, jobs=2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert est.samples == 1 << 15
    assert peak < 16 * 2**20


_LANES = 50_000
_SAMPLES = _LANES * LANE_SIZE - 7
_EVERY_LANE = [(lane, LANE_SIZE) for lane in range(_LANES - 1)] + [(_LANES - 1, LANE_SIZE - 7)]


@pytest.fixture
def fast_switching():
    # drainers share the queue of lanes: switch threads as often as
    # possible, so that a lane drawn twice or lost shows
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def test_estimate_draws_every_lane_once(pool_log, monkeypatch, fast_switching):
    drawn = []
    _stub_lanes(monkeypatch, drawn)
    # more threads than the machine has cores
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for jobs in (1, 2, 3, 8, 64):
        pool_log["submitted"].clear()
        drawn.clear()
        est = estimate_tf(complete_graph(4), Fraction(1, 2), _SAMPLES, seed=1, jobs=jobs)
        assert len(pool_log["submitted"]) == min(jobs, 8) - 1
        assert sorted((lane, count) for lane, count, _ in drawn) == _EVERY_LANE
        assert len({thread for _, _, thread in drawn}) <= min(jobs, 8)
        assert est.successes == _SAMPLES


@pytest.mark.parametrize("cpus", [None, 1, 2, 8])
def test_estimate_huge_jobs_start_one_thread_per_cpu(pool_log, monkeypatch, fast_switching, cpus):
    drawn = []
    _stub_lanes(monkeypatch, drawn)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    est = estimate_tf(complete_graph(4), Fraction(1, 2), _SAMPLES, seed=1, jobs=10**6)
    assert len(pool_log["submitted"]) == (cpus or 1) - 1
    assert sorted((lane, count) for lane, count, _ in drawn) == _EVERY_LANE
    assert est.successes == _SAMPLES


@pytest.mark.parametrize("where", ["lane 3", "a helper's lane"])
def test_estimate_stops_handing_out_lanes_once_a_lane_raises(pool_log, monkeypatch, where):
    lanes, helpers = 40, 3
    caller = threading.get_ident()
    error = KeyboardInterrupt() if where == "lane 3" else RuntimeError("helper lane")
    drawn, raised = [], []
    logging = threading.Lock()

    def stub_lane(seed, lane, count, bound, copies, c):
        with logging:
            drawn.append(lane)
            on_helper = threading.get_ident() != caller
            fail = not raised and (lane == 3 if where == "lane 3" else on_helper)
            if fail:
                raised.append(len(drawn))
        if fail:
            raise error
        time.sleep(0.01)  # stands for a real lane; the failing one raises at once
        return count

    monkeypatch.setattr("trifree.montecarlo._lane_successes", stub_lane)
    monkeypatch.setattr(os, "cpu_count", lambda: helpers + 1)
    with pytest.raises(type(error)):
        estimate_tf(complete_graph(4), Fraction(1, 2), lanes * LANE_SIZE, seed=1, jobs=4)
    assert len(pool_log["submitted"]) == helpers
    assert raised
    # lanes begun after the failing one: at most one per other drainer
    assert len(drawn) - raised[0] <= helpers
    assert len(drawn) < lanes


_COLD_IMPORT = """
import sys
from fractions import Fraction

import trifree, trifree.cli

loaded = sorted({"numpy", "concurrent.futures"} & set(sys.modules))
assert not loaded, f"import trifree, trifree.cli loaded {loaded}"
g = trifree.complete_graph(8)
print(trifree.estimate_tf(g, Fraction(1, 2), 100001, seed=0, jobs=2).successes)
print(trifree.estimate_tf(g, Fraction(1, 2), 100001, seed=0, clique_order=4).successes)
"""


def test_import_loads_neither_numpy_nor_the_thread_pool():
    # only Monte Carlo samples: numpy and concurrent.futures load on its
    # first call, and the estimates keep their pinned successes
    src = Path(trifree.__file__).resolve().parent.parent
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    child = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["1729", "54766"]
