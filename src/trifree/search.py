"""Exhaustive search over isomorphism classes at fixed vertex and edge counts.

On top of the class enumeration (trifree.enumeration) sit the probability
maximizer, the p-dependent upper envelope with exact crossover isolation,
the extremal-graph verifiers and the per-class CSV export.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .bounds import linear_triple_bound, one_extra_edge_optimum
from .enumeration import MAX_ENUM_N, class_names, enumerate_graphs
from .errors import LimitExceededError
from .exact import tf_poly
from .graphs import (
    canonical_form,
    mantel_plus_one,
    triangle_count,
    write_graph6,
)
from .polynomial import Poly


# ---------------------------------------------------------------------------
# probability maximizer
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SearchReport:
    n: int
    i: int
    p: Fraction
    maximizers: tuple[str, ...]
    max_value: Fraction
    enumerated: int
    pruned: int
    runtime_ms: float

    def to_json(self, include_runtime: bool = True) -> dict:
        d = {
            "n": self.n,
            "i": self.i,
            "p": str(self.p),
            "maximizers": list(self.maximizers),
            "max_value": str(self.max_value),
            "enumerated": self.enumerated,
            "pruned": self.pruned,
        }
        if include_runtime:
            d["runtime_ms"] = self.runtime_ms
        return d


def maximize_tf(n: int, i: int, p, prune: bool = False) -> SearchReport:
    """All isomorphism classes maximizing the triangle-free probability of
    the Bernoulli(p) subgraph among n-vertex graphs with floor(n^2/4) + i
    edges.

    With prune=True classes are visited in ascending triangle count and a
    class is skipped once the certified bound 1 - p + p(1-p^2)^t falls
    strictly below the best exact value found; the bound is monotone in t,
    and pruned/unpruned runs are asserted identical in the test suite.
    """
    p = Fraction(p)
    if not 0 < p < 1:
        raise ValueError(f"p must lie strictly inside (0, 1), got {p}")
    if n == MAX_ENUM_N and not prune:
        raise LimitExceededError(
            f"n = {MAX_ENUM_N} runs in pruned mode only (experimental); pass prune=True"
        )
    started = time.perf_counter()
    m = n * n // 4 + i
    reps = enumerate_graphs(n, m)
    order = sorted(range(len(reps)), key=lambda k: (triangle_count(reps[k]), k))

    bound_cache: dict[int, Fraction] = {}
    best: Fraction | None = None
    winners: list[str] = []
    pruned = 0
    for k in order:
        g = reps[k]
        if prune and best is not None:
            t = triangle_count(g)
            bound = bound_cache.get(t)
            if bound is None:
                bound = linear_triple_bound(t).eval(p)
                bound_cache[t] = bound
            if bound < best:
                pruned += 1
                continue
        value = tf_poly(g).eval(p)
        if best is None or value > best:
            best = value
            winners = [write_graph6(g)]
        elif value == best:
            winners.append(write_graph6(g))
    runtime_ms = (time.perf_counter() - started) * 1000.0
    return SearchReport(
        n, i, p, tuple(sorted(winners)), best, len(reps), pruned, runtime_ms
    )


# ---------------------------------------------------------------------------
# exact root isolation (Sturm chains on integer polynomials)
# ---------------------------------------------------------------------------


def _sturm_chain(f: Poly) -> list[Poly]:
    """Sturm chain of the squarefree part of f, each member scaled by a
    positive constant (which leaves every sign variation count unchanged)."""
    a, b = f, f.derivative()
    while not b.is_zero():
        a, b = b, a.primitive_rem(b)
    if a.degree > 0:
        # Gauss's lemma: dividing by a primitive factor leaves integers
        f = f.quotient(a.primitive())
    chain = [f, f.derivative()]
    while not chain[-1].is_zero():
        rem = chain[-2].primitive_rem(chain[-1])
        if rem.is_zero():
            break
        chain.append(-rem)
    return chain


def _sign_variations(chain: list[Poly], x: Fraction) -> int:
    signs = [s for s in (f.sign_at(x) for f in chain) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(poly: Poly, lo, hi) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    if poly.degree < 1:
        return 0
    chain = _sturm_chain(poly)
    lo, hi = Fraction(lo), Fraction(hi)
    return _sign_variations(chain, lo) - _sign_variations(chain, hi)


@dataclass(frozen=True)
class RootInterval:
    """Rational enclosure of a single real root."""

    lo: Fraction
    hi: Fraction

    @property
    def approx(self) -> float:
        return float((self.lo + self.hi) / 2)

    def to_json(self) -> dict:
        return {"lo": str(self.lo), "hi": str(self.hi), "approx": self.approx}


def isolate_roots(poly: Poly, lo, hi, tol=Fraction(1, 10**12)) -> list[RootInterval]:
    """Disjoint rational intervals of width <= tol, one per distinct root of
    poly in the open interval (lo, hi).  Endpoints must not be roots."""
    lo, hi = Fraction(lo), Fraction(hi)
    if not poly.sign_at(lo) or not poly.sign_at(hi):
        raise ValueError("interval endpoint is a root; perturb the endpoints")
    chain = _sturm_chain(poly)

    def var(x: Fraction) -> int:
        return _sign_variations(chain, x)

    out: list[RootInterval] = []

    def split(a: Fraction, b: Fraction, va: int, vb: int):
        k = va - vb
        if k == 0:
            return
        if k == 1 and b - a <= tol:
            out.append(RootInterval(a, b))
            return
        mid = (a + b) / 2
        while not poly.sign_at(mid):
            # root exactly at the midpoint: nudge the cut inside the interval
            mid = (a + mid) / 2
        vm = var(mid)
        split(a, mid, va, vm)
        split(mid, b, vm, vb)

    split(lo, hi, var(lo), var(hi))
    out.sort(key=lambda r: r.lo)
    return out


def crossover_root(a: Poly, b: Poly, lo, hi, tol=Fraction(1, 10**12)) -> RootInterval:
    """Enclose a root of a - b where it changes sign on [lo, hi].

    A root at an endpoint gives the degenerate interval there; no sign
    change raises ValueError.  Otherwise this is the first interval of
    isolate_roots(a - b, lo, hi, tol): with several roots inside, the
    leftmost one (a root of even multiplicity included).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    diff = a - b
    flo = diff.eval(lo)
    fhi = diff.eval(hi)
    if flo == 0:
        return RootInterval(lo, lo)
    if fhi == 0:
        return RootInterval(hi, hi)
    if (flo > 0) == (fhi > 0):
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: f(lo)={flo}, f(hi)={fhi}"
        )
    return isolate_roots(diff, lo, hi, tol)[0]


# ---------------------------------------------------------------------------
# upper envelope
# ---------------------------------------------------------------------------

def _descartes_no_root_in_unit_interval(f: Poly) -> bool:
    """True when Descartes' rule proves f has no root in (0, 1).

    p = 1/(1+t) maps (0, 1) onto t > 0, and (1+t)^d f(1/(1+t)) is the
    reversed coefficient list Taylor-shifted by 1; with no sign change
    there it has no positive root.  False proves nothing.
    """
    c = list(reversed(f.coeffs))
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    signs = [x > 0 for x in c if x]
    return all(signs) or not any(signs)


def _interior_roots(diff: Poly, tol=Fraction(1, 10**12)) -> list[RootInterval]:
    """Isolate every root of diff in the open interval (0, 1).

    Differences of probability polynomials vanish at 0 and often at 1;
    those factors p^a (1-p)^b are divided out exactly, and a difference
    whose reduced part has no root in (0, 1) stops after Descartes' rule
    of signs or, when that is inconclusive, one Sturm count.
    Bisection starts from the margins 2^-40 and 1 - 2^-40 (the crossover
    bytes depend on them), each halved toward its end while the reduced
    polynomial still has a root between the margin and that end.
    """
    low = next(j for j, c in enumerate(diff.coeffs) if c)
    reduced = Poly(diff.coeffs[low:])
    while not reduced.sign_at(1):
        reduced = reduced.quotient(Poly((1, -1)))
    if _descartes_no_root_in_unit_interval(reduced) or not count_roots(reduced, 0, 1):
        return []
    lo, hi = Fraction(1, 1 << 40), 1 - Fraction(1, 1 << 40)
    while count_roots(reduced, 0, lo):
        lo /= 2
    while not reduced.sign_at(hi) or count_roots(reduced, hi, 1):
        hi = (hi + 1) / 2
    return isolate_roots(reduced, lo, hi, tol)


@dataclass(frozen=True)
class EnvelopeSegment:
    lo: Fraction
    hi: Fraction
    maximizers: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "lo": str(self.lo),
            "hi": str(self.hi),
            "maximizers": list(self.maximizers),
        }


@dataclass(frozen=True)
class EnvelopeReport:
    n: int
    i: int
    segments: tuple[EnvelopeSegment, ...]
    crossovers: tuple[RootInterval, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "i": self.i,
            "segments": [s.to_json() for s in self.segments],
            "crossovers": [r.to_json() for r in self.crossovers],
        }


def _cut(r: RootInterval) -> Fraction:
    return (r.lo + r.hi) / 2


def envelope(n: int, i: int) -> EnvelopeReport:
    """Which classes attain the maximum probability as p sweeps (0, 1).

    Exact by winner extension, up to the 10^-12 width of a crossing
    interval.  Between two cuts, the unique maximum w at a rational probe
    wins up to its nearest crossing (a root of w - q, isolated by Sturm
    chains once per pair) on each side, and each side left over splits
    the same way.  A cut is the midpoint of its crossing interval; a
    crossing whose interval holds a cut counts as that cut.  The probe
    moves toward the left cut off ties and crossing intervals.  Output for
    surplus i > 1 is exploratory data: outside the proven i = 1 case there
    is no closed-form claim to check it against.
    """
    m = n * n // 4 + i
    reps = enumerate_graphs(n, m)
    by_poly: dict[Poly, list[str]] = {}
    for g in reps:
        by_poly.setdefault(tf_poly(g), []).append(write_graph6(g))
    crossings: dict[tuple[Poly, Poly], list[RootInterval]] = {}

    def roots(w: Poly, q: Poly) -> list[RootInterval]:
        pair = (w, q) if w.coeffs < q.coeffs else (q, w)
        if pair not in crossings:
            crossings[pair] = _interior_roots(pair[0] - pair[1])
        return crossings[pair]

    def pieces(lo: RootInterval, hi: RootInterval) -> list:
        a, b = _cut(lo), _cut(hi)
        if a >= b:
            return []
        x = (a + b) / 2
        while True:
            values = [(q.eval(x), q) for q in by_poly]
            top = max(v for v, _ in values)
            tied = [q for v, q in values if v == top]
            if len(tied) == 1:
                w = tied[0]
                inner = [
                    r
                    for q in by_poly
                    if q != w
                    for r in roots(w, q)
                    if a < r.lo and r.hi < b
                ]
                if not any(r.lo <= x <= r.hi for r in inner):
                    break
            x = (a + x) / 2
        left = max((r for r in inner if r.hi < x), key=_cut, default=lo)
        right = min((r for r in inner if r.lo > x), key=_cut, default=hi)
        names = tuple(sorted(by_poly[w]))
        return pieces(lo, left) + [(left, right, names)] + pieces(right, hi)

    segments: list[EnvelopeSegment] = []
    crossovers: list[RootInterval] = []
    ends = RootInterval(Fraction(0), Fraction(0)), RootInterval(Fraction(1), Fraction(1))
    for lo, hi, names in pieces(*ends):
        if segments and segments[-1].maximizers == names:
            segments[-1] = EnvelopeSegment(segments[-1].lo, _cut(hi), names)
        else:
            if segments:
                crossovers.append(lo)
            segments.append(EnvelopeSegment(_cut(lo), _cut(hi), names))
    return EnvelopeReport(n, i, tuple(segments), tuple(crossovers))


# ---------------------------------------------------------------------------
# extremal verification at surplus 1
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OptimumVerification:
    n: int
    passed: bool
    p_values: tuple[Fraction, ...]
    construction: str
    equality_classes: tuple[str, ...]
    violations: tuple[str, ...]
    enumerated: int
    pruned: int

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "pass": self.passed,
            "p_values": [str(p) for p in self.p_values],
            "construction": self.construction,
            "equality_classes": list(self.equality_classes),
            "violations": list(self.violations),
            "enumerated": self.enumerated,
            "pruned": self.pruned,
        }


def verify_one_extra_optimum(n: int, prune: bool = False) -> OptimumVerification:
    """Exhaustively confirm the optimum one edge above the threshold.

    Every n-vertex class with floor(n^2/4) + 1 edges must satisfy
    probability <= 1 - p + p(1-p^2)^floor(n/2) at p in {1/10, 1/2, 9/10},
    with equality (at all three points) exactly for the bipartite-plus-edge
    construction.  Exhaustive for n <= 7; n = 8 requires prune=True and is
    experimental.  With pruning, classes whose certified bound stays below
    the target at every checkpoint are skipped: they can neither violate
    nor tie.
    """
    if n > 7 and not prune:
        raise LimitExceededError("exhaustive verification supports n <= 7; "
                                 "n = 8 requires prune=True (experimental)")
    p_values = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
    target = one_extra_edge_optimum(n)
    target_at = {p: target.eval(p) for p in p_values}
    construction = canonical_form(mantel_plus_one(n)).decode("ascii")
    m = n * n // 4 + 1
    reps = enumerate_graphs(n, m)

    bound_cache: dict[int, bool] = {}
    equality: list[str] = []
    violations: list[str] = []
    pruned = 0
    for g in reps:
        if prune:
            t = triangle_count(g)
            skippable = bound_cache.get(t)
            if skippable is None:
                bound = linear_triple_bound(t)
                skippable = all(bound.eval(p) < target_at[p] for p in p_values)
                bound_cache[t] = skippable
            if skippable:
                pruned += 1
                continue
        poly = tf_poly(g)
        values = [poly.eval(p) for p in p_values]
        if any(v > target_at[p] for v, p in zip(values, p_values)):
            violations.append(write_graph6(g))
        elif all(v == target_at[p] for v, p in zip(values, p_values)):
            equality.append(write_graph6(g))
    passed = not violations and equality == [construction]
    return OptimumVerification(
        n,
        passed,
        p_values,
        construction,
        tuple(equality),
        tuple(violations),
        len(reps),
        pruned,
    )


@dataclass(frozen=True)
class CappedVerification:
    n: int
    passed: bool
    triangle_cap: int
    construction: str
    capped_classes: tuple[str, ...]
    construction_is_optimum: bool
    bound_below_optimum: bool

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "pass": self.passed,
            "triangle_cap": self.triangle_cap,
            "construction": self.construction,
            "capped_classes": list(self.capped_classes),
            "construction_is_optimum": self.construction_is_optimum,
            "bound_below_optimum": self.bound_below_optimum,
        }


def verify_one_extra_capped(n: int) -> CappedVerification:
    """Prove the optimum one edge above the threshold for every p in (0, 1).

    Let T = floor(n/2), so the optimum is 1 - p + p(1-p^2)^T.  A class with
    t > T triangles has probability at most 1 - p + p(1-p^2)^t, and that
    is at most the bound at T + 1, which lies strictly below the optimum on
    (0, 1) (checked here by Sturm chains).  So the construction is the
    unique maximizer for every p once it is the only class with at most T
    triangles and its polynomial is the optimum.  The triangle-capped
    recursion lists those classes without enumerating the rest.  Limited
    to n <= MAX_CANONICAL_N by the canonical form.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    cap = n // 2
    target = one_extra_edge_optimum(n)
    built = mantel_plus_one(n)
    construction = canonical_form(built).decode("ascii")
    capped = tuple(class_names(n, n * n // 4 + 1, cap))
    is_optimum = tf_poly(built) == target
    gap = target - linear_triple_bound(cap + 1)
    below = not _interior_roots(gap, Fraction(1, 2)) and gap.eval(Fraction(1, 2)) > 0
    passed = capped == (construction,) and is_optimum and below
    return CappedVerification(
        n, passed, cap, construction, capped, is_optimum, below
    )


# ---------------------------------------------------------------------------
# per-class CSV export with resume support
# ---------------------------------------------------------------------------


def _keep_rows(path: Path, rows: int) -> int:
    """Cut a CSV export after its header and at most `rows` data rows;
    returns the data rows kept."""
    with open(path, "r+b") as fh:
        lines = fh.readlines()
        keep = max(0, min(rows, len(lines) - 1))
        fh.truncate(sum(len(line) for line in lines[: keep + 1]))
    return keep


def export_classes_csv(
    n: int, m: int, path: str | Path, checkpoint_path: str | Path | None = None
) -> int:
    """Stream one CSV row (graph6, triangles, coefficients) per class.

    The checkpoint file holds a single line "n m next_rank", where
    next_rank is the index of the next class in the deterministic
    enumeration order; an existing matching checkpoint resumes the export,
    appending only the remaining rows.  Each row is flushed before the
    checkpoint is replaced (atomically) to count it, and a resume first
    cuts the CSV back to the rows the checkpoint counts, so an export
    killed at any point resumes to the same bytes as an uninterrupted one.
    Returns the number of rows written by this call.
    """
    path = Path(path)
    reps = enumerate_graphs(n, m)
    start = 0
    if checkpoint_path is not None:
        checkpoint_path = Path(checkpoint_path)
        if checkpoint_path.exists() and path.exists():
            fields = checkpoint_path.read_text().split()
            if len(fields) == 3 and int(fields[0]) == n and int(fields[1]) == m:
                start = _keep_rows(path, int(fields[2]))
    written = 0
    with open(path, "a" if start > 0 else "w", newline="") as fh:
        writer = csv.writer(fh)
        if start == 0:
            writer.writerow(["graph6", "triangles", "coeffs"])
        for rank in range(start, len(reps)):
            g = reps[rank]
            poly = tf_poly(g)
            writer.writerow(
                [
                    write_graph6(g),
                    triangle_count(g),
                    " ".join(str(c) for c in poly.coeffs),
                ]
            )
            written += 1
            if checkpoint_path is not None:
                fh.flush()
                staged = checkpoint_path.with_name(checkpoint_path.name + ".tmp")
                staged.write_text(f"{n} {m} {rank + 1}\n")
                os.replace(staged, checkpoint_path)
    return written
