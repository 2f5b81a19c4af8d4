"""Seeded Monte Carlo estimation of the clique-free probability.

Sampling uses numpy's Philox counter-based generator.  A run is split into
fixed-size lanes of 2^14 samples; lane L draws from Philox with key
(seed mod 2^64, L), so the estimate depends only on (graph, p, samples,
seed, clique_order) — never on how many workers processed the lanes.  Per
sample only the edges lying in some K_k copy are drawn; the others cannot
complete a copy.

A lane takes its draws as raw 64-bit Philox words.  ``Generator.random``
maps a word x to (x >> 11) * 2^-53, so ``random() < p`` holds exactly when
x < keep_threshold(p) = ceil(p * 2^53) << 11: the lane keeps the same edges
as a float draw would, without converting a word to a float.  The lane is
bit-sliced: the keep flags of each covered edge are packed into uint64
words, bit i for sample i, a copy is present in the samples where the AND
of its edges' words is set, and a sample is bad when the OR over all
copies is set.  Intervals are Wilson score at 95%, which stays sane when
the empirical mean sits at or near 1.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, sqrt

import numpy as np

from .graphs import Graph
from .hypergraph import clique_edge_indices

LANE_SIZE = 1 << 14
Z95 = 1.959963984540054  # normal quantile at 0.975
_MASK64 = (1 << 64) - 1


def lane_generator(seed: int, lane: int) -> np.random.Generator:
    """Independent deterministic stream for one lane."""
    key = np.array([seed & _MASK64, lane & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_subgraph(g: Graph, p, rng: np.random.Generator) -> Graph:
    """Keep each edge independently with probability p using rng."""
    p = float(p)
    if not 0 < p < 1:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    keep = rng.random(g.m) < p
    return g.subgraph_keeping(keep)


def wilson_interval(successes: int, samples: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    if samples < 1:
        raise ValueError("need at least one sample")
    phat = successes / samples
    z2 = Z95 * Z95
    denom = 1.0 + z2 / samples
    center = (phat + z2 / (2 * samples)) / denom
    half = (
        Z95
        * sqrt(phat * (1.0 - phat) / samples + z2 / (4.0 * samples * samples))
        / denom
    )
    # rounding can push an end past phat when phat is 0 or 1
    return min(phat, max(0.0, center - half)), max(phat, min(1.0, center + half))


@dataclass(frozen=True)
class Estimate:
    mean: float
    ci_low: float
    ci_high: float
    samples: int
    seed: int
    successes: int
    p: Fraction

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "samples": self.samples,
            "seed": self.seed,
            "p": str(self.p),
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True)


def keep_threshold(p) -> int:
    """Integer bound on raw Philox words: x < bound exactly when the float
    draw made from x, (x >> 11) * 2^-53, is below float(p)."""
    return ceil(Fraction(float(p)) * (1 << 53)) << 11


def _lane_successes(
    seed: int, lane: int, count: int, bound: int, copies: np.ndarray, c: int
) -> int:
    # one row of keep flags per covered edge, padded with absent samples to
    # whole uint64 words; raw words come in sample-major order, as the
    # floats of rng.random((count, c)) would
    kept = lane_generator(seed, lane).bit_generator.random_raw(count * c) < bound
    keep = np.zeros((c, -(-count // 64) * 64), dtype=bool)
    keep[:, :count] = kept.reshape(count, c).T
    words = np.packbits(keep, axis=1, bitorder="little").view(np.uint64)
    # gather copies in blocks no larger than the raw draw, so memory stays
    # bounded however many copies the graph has
    block = max(1, 64 * c // copies.shape[1])
    bad = np.zeros(words.shape[1], dtype=np.uint64)
    for start in range(0, len(copies), block):
        present = np.bitwise_and.reduce(words[copies[start : start + block]], axis=1)
        bad |= np.bitwise_or.reduce(present, axis=0)
    # padding bits are 0 in every row, so they never count as bad
    return count - int(np.bitwise_count(bad).sum())


def estimate_tf(
    g: Graph,
    p,
    samples: int,
    seed: int,
    clique_order: int = 3,
    jobs: int = 1,
) -> Estimate:
    """Fraction of Bernoulli(p) edge-subgraphs with no K_k copy.

    Fully determined by (g, p, samples, seed, clique_order); jobs only
    bounds how many threads share the lanes (never more than there are
    lanes) and must be at least 1.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    p_exact = Fraction(p)
    if not 0 < p_exact < 1:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p_exact}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    bound = keep_threshold(p_exact)

    cliques = clique_edge_indices(g, clique_order)
    covered = sorted({e for idx in cliques for e in idx})
    if not covered:
        return Estimate(1.0, 1.0, 1.0, samples, seed, samples, p_exact)
    # rows in sorted edge-index order fix the Philox draw layout
    pos = {e: i for i, e in enumerate(covered)}
    copies = np.array([[pos[e] for e in idx] for idx in cliques], dtype=np.intp)
    c = len(covered)

    lanes = [
        (lane, min(LANE_SIZE, samples - lane * LANE_SIZE))
        for lane in range((samples + LANE_SIZE - 1) // LANE_SIZE)
    ]
    workers = min(jobs, len(lanes))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            per_lane = list(
                pool.map(
                    lambda lc: _lane_successes(seed, lc[0], lc[1], bound, copies, c),
                    lanes,
                )
            )
    else:
        per_lane = [
            _lane_successes(seed, lane, count, bound, copies, c)
            for lane, count in lanes
        ]
    successes = sum(per_lane)
    low, high = wilson_interval(successes, samples)
    return Estimate(successes / samples, low, high, samples, seed, successes, p_exact)
