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

Memory depends on neither the number c of covered edges nor the sample
count.  A lane draws its stream in consecutive blocks of
max(64, BLOCK_WORDS // c rounded down to a multiple of 64) samples, so a
thread holds about BLOCK_WORDS raw words (at least 64 samples' worth) and
gathers copies in groups of about the same size.  A run draws lanes on
min(jobs, lanes, cpu count) threads: the calling thread and one helper task
for each further thread.  Each draws the next lane that none has taken
until none is left, and returns its sum of successes; once one raises
(Ctrl-C included), no further lane is handed out.

numpy and the thread pool are imported by the functions that use them, on
the first Monte Carlo call: importing trifree, and every exact route, loads
neither.
"""

from __future__ import annotations

import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, sqrt
from threading import Lock
from typing import TYPE_CHECKING

from .graphs import Graph, check_clique_order, clique_edge_indices
from .polynomial import check_probability

if TYPE_CHECKING:
    import numpy as np

LANE_SIZE = 1 << 14
BLOCK_WORDS = 1 << 16  # raw Philox words a lane draws at once
Z95 = 1.959963984540054  # normal quantile at 0.975
_MASK64 = (1 << 64) - 1


def lane_generator(seed: int, lane: int) -> np.random.Generator:
    """Independent deterministic stream for one lane."""
    import numpy as np

    key = np.array([seed & _MASK64, lane & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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
    clique_order: int

    def to_json(self) -> dict:
        return {
            "mean": self.mean,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "samples": self.samples,
            "seed": self.seed,
            "p": str(self.p),
            "clique_order": self.clique_order,
        }


def _check_integer(x, name: str, least: int | None = None) -> int:
    """x as an int if it is an integer no smaller than least (when given),
    else ValueError; a numpy integer passes and a float, even 3.0, does not,
    as for the clique order."""
    if not hasattr(x, "__index__") or (least is not None and operator.index(x) < least):
        floor = "" if least is None else f" at least {least}"
        raise ValueError(f"{name} must be an integer{floor}, got {x!r}")
    return operator.index(x)


def keep_threshold(p) -> int:
    """Integer bound on raw Philox words: x < bound exactly when the float
    draw made from x, (x >> 11) * 2^-53, is below float(p)."""
    return ceil(Fraction(float(p)) * (1 << 53)) << 11


def _lane_successes(
    seed: int, lane: int, count: int, bound: int, copies: np.ndarray, c: int
) -> int:
    import numpy as np

    # the lane's one Philox stream, drawn in blocks of `step` samples: each
    # random_raw call continues where the last one stopped, so word i still
    # belongs to sample i // c and edge i % c, as the floats of
    # rng.random((count, c)) would
    rng = lane_generator(seed, lane).bit_generator
    step = max(64, BLOCK_WORDS // c // 64 * 64)
    # gather copies in groups no larger than a block's raw draw, so memory
    # stays bounded however many copies the graph has
    group = max(1, 64 * c // copies.shape[1])
    # bit i of bad[j] is set when sample 64 j + i holds a copy
    bad = np.zeros(-(-count // 64), dtype=np.uint64)
    for start in range(0, count, step):
        size = min(step, count - start)
        # one row of keep flags per covered edge, padded with absent samples
        # to whole uint64 words
        kept = rng.random_raw(size * c) < bound
        keep = np.zeros((c, -(-size // 64) * 64), dtype=bool)
        keep[:, :size] = kept.reshape(size, c).T
        words = np.packbits(keep, axis=1, bitorder="little").view(np.uint64)
        block_bad = bad[start // 64 : start // 64 + words.shape[1]]
        for first in range(0, len(copies), group):
            present = np.bitwise_and.reduce(words[copies[first : first + group]], axis=1)
            block_bad |= np.bitwise_or.reduce(present, axis=0)
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
    bounds how many threads, the calling one included, share the lanes
    (never more than there are lanes or CPUs) and must be at least 1.
    """
    samples = _check_integer(samples, "samples", 1)
    seed = _check_integer(seed, "seed")
    p_exact = check_probability(p, interior=True)
    jobs = _check_integer(jobs, "jobs", 1)
    import numpy as np
    from concurrent.futures import ThreadPoolExecutor

    bound = keep_threshold(p_exact)

    clique_order = check_clique_order(clique_order)
    cliques = clique_edge_indices(g, clique_order)
    covered = sorted({e for idx in cliques for e in idx})
    if not covered:
        return Estimate(1.0, 1.0, 1.0, samples, seed, samples, p_exact, clique_order)
    # rows in sorted edge-index order fix the Philox draw layout
    pos = {e: i for i, e in enumerate(covered)}
    copies = np.array([[pos[e] for e in idx] for idx in cliques], dtype=np.intp)
    c = len(covered)

    lanes = -(-samples // LANE_SIZE)
    todo = iter(range(lanes))
    taking = Lock()
    stop = False  # set by the first drainer that raises

    def drain() -> int:
        # a drainer draws the next lane none has taken, until none is left;
        # integer sums do not depend on which thread drew a lane
        nonlocal stop
        total = 0
        try:
            while True:
                with taking:
                    lane = None if stop else next(todo, None)
                if lane is None:
                    return total
                count = min(LANE_SIZE, samples - lane * LANE_SIZE)
                total += _lane_successes(seed, lane, count, bound, copies, c)
        except BaseException:
            stop = True
            raise

    # the calling thread drains too; a pool given no task starts no thread
    helpers = min(jobs, lanes, os.cpu_count() or 1) - 1
    with ThreadPoolExecutor(max_workers=max(1, helpers)) as pool:
        futures = [pool.submit(drain) for _ in range(helpers)]
        successes = drain() + sum(f.result() for f in futures)
    low, high = wilson_interval(successes, samples)
    return Estimate(
        successes / samples, low, high, samples, seed, successes, p_exact, clique_order
    )
