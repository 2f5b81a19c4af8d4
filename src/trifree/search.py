"""Exhaustive search over isomorphism classes at fixed vertex and edge counts.

Representatives are generated levelwise: the classes with m edges are the
canonical dedup of every (m-1)-edge representative plus one new edge, one
edge per unordered pair of the representative's twin classes (the others
are images under twin swaps).  Every m-edge graph contains an (m-1)-edge
subgraph, so the ladder is complete; order is deterministic (sorted
canonical forms).  A representative is the canonical relabeling itself,
so write_graph6 names it.  On top of the
enumeration sit the probability maximizer, the p-dependent upper envelope
with exact crossover isolation, and the extremal-graph verifier.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from pathlib import Path

from .bounds import linear_triple_bound, one_extra_edge_optimum
from .errors import LimitExceededError
from .exact import tf_poly
from .graphs import (
    Graph,
    canonical_form,
    mantel_plus_one,
    parse_graph6,
    triangle_count,
    twin_classes,
    write_graph6,
)
from .polynomial import Poly

MAX_ENUM_N = 8  # full enumeration limit; n = 8 is pruned-only and experimental

_ladder_cache: dict[int, list[list[str]]] = {}


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _ladder(n: int, max_m: int) -> list[list[str]]:
    """levels[m] = sorted canonical graph6 strings of all n-vertex,
    m-edge isomorphism classes, for m = 0..max_m."""
    levels = _ladder_cache.setdefault(n, [[canonical_form(Graph(n, [])).decode("ascii")]])
    while len(levels) <= max_m:
        seen = set()
        for g6 in levels[-1]:
            g = parse_graph6(g6)
            twins = twin_classes(g)
            tried = set()
            for u, v in g.non_edges():
                # twin swaps map each non-edge onto every other one joining
                # the same two twin classes, so one of them suffices
                pair = twins[u] | twins[v]
                if pair not in tried:
                    tried.add(pair)
                    seen.add(canonical_form(g.with_edge(u, v)).decode("ascii"))
        levels.append(sorted(seen))
    return levels


def enumerate_graphs(n: int, m: int) -> list[Graph]:
    """One canonical representative per isomorphism class with n vertices
    and m edges, in deterministic (sorted canonical form) order."""
    if n > MAX_ENUM_N:
        raise LimitExceededError(f"enumeration supports n <= {MAX_ENUM_N}, got n={n}")
    if n < 1:
        raise ValueError("need at least one vertex")
    if m > comb(n, 2):
        raise ValueError(f"m={m} exceeds C({n},2)")
    return [parse_graph6(g6) for g6 in _ladder(n, m)[m]]


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
# exact root isolation (Sturm chains over the rationals)
# ---------------------------------------------------------------------------


def _fr_poly(poly: Poly) -> list[Fraction]:
    return [Fraction(c) for c in poly.coeffs]


def _fr_eval(f: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _fr_rem(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    rem = list(a)
    while len(rem) >= len(b):
        q = rem[-1] / b[-1]
        k = len(rem) - len(b)
        for j, c in enumerate(b):
            rem[j + k] -= q * c
        while rem and rem[-1] == 0:
            rem.pop()
        if not rem:
            break
    return rem


def _fr_derivative(f: list[Fraction]) -> list[Fraction]:
    return [j * c for j, c in enumerate(f)][1:]


def _fr_divmod(a: list[Fraction], b: list[Fraction]):
    rem = list(a)
    db = len(b) - 1
    dq = len(rem) - 1 - db
    if dq < 0:
        return [], rem
    quot = [Fraction(0)] * (dq + 1)
    for k in range(dq, -1, -1):
        q = rem[db + k] / b[-1]
        quot[k] = q
        if q:
            for j, c in enumerate(b):
                rem[j + k] -= q * c
    rem = rem[:db]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _sturm_chain(f: list[Fraction]) -> list[list[Fraction]]:
    """Sturm chain of the squarefree part of f."""
    # squarefree reduction: divide by gcd(f, f')
    a, b = list(f), _fr_derivative(f)
    while b:
        a, b = b, _fr_rem(a, b)
    if len(a) > 1:
        f, _ = _fr_divmod(f, a)
    chain = [list(f), _fr_derivative(f)]
    while chain[-1]:
        rem = _fr_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _sign_variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for f in chain:
        v = _fr_eval(f, x)
        if v:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots(poly: Poly, lo, hi) -> int:
    """Number of distinct real roots in the half-open interval (lo, hi]."""
    f = _fr_poly(poly)
    if len(f) <= 1:
        return 0
    chain = _sturm_chain(f)
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
    f = _fr_poly(poly)
    lo, hi = Fraction(lo), Fraction(hi)
    if _fr_eval(f, lo) == 0 or _fr_eval(f, hi) == 0:
        raise ValueError("interval endpoint is a root; perturb the endpoints")
    chain = _sturm_chain(f)

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
        while _fr_eval(f, mid) == 0:
            # root exactly at the midpoint: nudge the cut inside the interval
            mid = (a + mid) / 2
        vm = var(mid)
        split(a, mid, va, vm)
        split(mid, b, vm, vb)

    split(lo, hi, var(lo), var(hi))
    out.sort(key=lambda r: r.lo)
    return out


def crossover_root(a: Poly, b: Poly, lo, hi, tol=Fraction(1, 10**12)) -> RootInterval:
    """Shrink a sign change of a - b to a rational interval of width <= tol
    by exact-sign bisection."""
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
    tol = Fraction(tol)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        fm = diff.eval(mid)
        if fm == 0:
            return RootInterval(mid, mid)
        if (fm > 0) == (flo > 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return RootInterval(lo, hi)


# ---------------------------------------------------------------------------
# upper envelope
# ---------------------------------------------------------------------------

_ENVELOPE_GRID = 64


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


def envelope(n: int, i: int, tol=Fraction(1, 10**12)) -> EnvelopeReport:
    """Which classes attain the maximum probability as p sweeps (0, 1).

    Distinct polynomials are screened on the grid j/64; survivors get exact
    pairwise root isolation of their differences (Sturm chains), and the
    winner on each gap between consecutive crossovers is decided at a
    rational interior point.  Adjacent gaps with the same winner merge.
    Output for surplus i > 1 is exploratory data: outside the proven i = 1
    case there is no closed-form claim to check it against.
    """
    m = n * n // 4 + i
    reps = enumerate_graphs(n, m)
    by_poly: dict[Poly, list[str]] = {}
    for g in reps:
        by_poly.setdefault(tf_poly(g), []).append(write_graph6(g))
    polys = sorted(by_poly, key=lambda q: q.coeffs)

    # grid screening: keep polynomials maximal somewhere on the grid
    survivors: set[Poly] = set()
    for j in range(1, _ENVELOPE_GRID):
        p = Fraction(j, _ENVELOPE_GRID)
        values = [(q.eval(p), q) for q in polys]
        top = max(v for v, _ in values)
        survivors.update(q for v, q in values if v == top)
    cand = sorted(survivors, key=lambda q: q.coeffs)

    # exact breakpoints: all crossings among surviving candidates
    roots: list[RootInterval] = []
    for a_idx in range(len(cand)):
        for b_idx in range(a_idx + 1, len(cand)):
            diff = cand[a_idx] - cand[b_idx]
            if diff.is_zero():
                continue
            # differences always vanish at 0 (and usually at 1); the margin
            # 2^-40 clears every interior root: integer-coefficient
            # differences at this scale have heights far below 2^40, which
            # bounds roots away from 0 and 1 by the reciprocal height
            lo, hi = Fraction(1, 1 << 40), 1 - Fraction(1, 1 << 40)
            while diff.eval(lo) == 0:
                lo /= 2
            while diff.eval(hi) == 0:
                hi = (hi + 1) / 2
            roots.extend(isolate_roots(diff, lo, hi, tol))
    roots.sort(key=lambda r: r.lo)
    merged: list[RootInterval] = []
    for r in roots:
        if merged and r.lo <= merged[-1].hi:
            merged[-1] = RootInterval(merged[-1].lo, max(merged[-1].hi, r.hi))
        else:
            merged.append(r)

    # decide the winner strictly inside each gap between crossovers
    cuts = [Fraction(0)] + [(r.lo + r.hi) / 2 for r in merged] + [Fraction(1)]
    raw_segments: list[tuple[Fraction, Fraction, tuple[str, ...]]] = []
    for lo_cut, hi_cut in zip(cuts, cuts[1:]):
        probe = (lo_cut + hi_cut) / 2
        values = [(q.eval(probe), q) for q in cand]
        top = max(v for v, _ in values)
        names = sorted(
            name for v, q in values if v == top for name in by_poly[q]
        )
        raw_segments.append((lo_cut, hi_cut, tuple(names)))

    segments: list[EnvelopeSegment] = []
    kept_crossovers: list[RootInterval] = []
    for idx, (lo_cut, hi_cut, names) in enumerate(raw_segments):
        if segments and segments[-1].maximizers == names:
            segments[-1] = EnvelopeSegment(segments[-1].lo, hi_cut, names)
        else:
            if segments:
                kept_crossovers.append(merged[idx - 1])
            segments.append(EnvelopeSegment(lo_cut, hi_cut, names))
    return EnvelopeReport(n, i, tuple(segments), tuple(kept_crossovers))


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
