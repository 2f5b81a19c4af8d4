"""Fixed pieces of work timed around a calibrated job's operations.

On a shared VM the speed the host gives a process drifts by up to 1.5x in
phases of seconds to minutes, longer than a run, so a run's median job
time moves with the host.  A calibrated job times one of the kernels below
just before its first operation and just after each one.  An operation's
time on the reference scale is its time multiplied by the kernel's
reference time over the mean of the two calibrations around it: the time
the operation takes on a machine that runs the kernel in its reference
time.  A kernel follows the host only for work of its own kind, so each
imitates the jobs it calibrates.  Neither touches trifree, so no change to
the program moves a calibration.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np


def _interpreter_work() -> None:
    """Fraction sums, dict stores and a keyed sort, like the pure-Python
    layers the CLI's verification runs."""
    acc, seen = Fraction(0), {}
    for j in range(1, 600):
        acc += Fraction(j % 97, j)
        seen[(j * 2654435761) % 100003] = acc
    sorted(seen.values(), key=lambda x: x.numerator % 1000)


_KEY = np.array([12345, 678], dtype=np.uint64)


def _sampling_work() -> None:
    """One Monte Carlo lane's worth of Philox draws and column ANDs, like
    montecarlo's lane loop."""
    keep = np.random.Generator(np.random.Philox(key=_KEY)).random((1 << 14, 24)) < 0.3
    bad = np.zeros(1 << 14, dtype=bool)
    for a in range(0, 24, 3):
        bad |= keep[:, a] & keep[:, a + 1] & keep[:, a + 2]


_IDX = np.arange(1 << 18, dtype=np.uint64)
_MASKS = np.array([0b111 << (3 * i) for i in range(6)], dtype=np.uint64)


def _enumeration_work() -> None:
    """One chunk of subset enumeration: mask tests, popcounts and a
    bincount over a uint64 range, like exact's 2^c loop."""
    ok = np.ones(_IDX.shape, dtype=bool)
    for mask in _MASKS:
        ok &= (_IDX & mask) != mask
    np.bincount(np.bitwise_count(_IDX[ok]).astype(np.int64), minlength=64)


@dataclass(frozen=True)
class Kernel:
    name: str
    work: Callable[[], None]
    reference_s: float  # its typical time in a worker on a 2-vCPU Xeon VM


INTERPRETER = Kernel("interpreter", _interpreter_work, 0.0035)
SAMPLING = Kernel("sampling", _sampling_work, 0.0052)
ENUMERATION = Kernel("enumeration", _enumeration_work, 0.0030)


def calibrate(kernel: Kernel, reps: int = 5) -> float:
    """Seconds the kernel takes, best of reps."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        kernel.work()
        best = min(best, time.perf_counter() - t0)
    return best


def scaled(kernel: Kernel, seconds: float, before: float, after: float) -> float:
    """seconds on the reference scale, given the calibrations around it."""
    return seconds * kernel.reference_s / ((before + after) / 2)
