"""Exhaustive search over isomorphism classes at fixed vertex and edge counts.

On top of the class enumeration (trifree.enumeration) sit the probability
maximizer, the p-dependent upper envelope with exact crossover isolation,
the extremal-graph verifiers and the per-class CSV export.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .bounds import linear_triple_bound, mantel_max_edges, one_extra_edge_optimum
from .enumeration import class_names, enumerate_graphs
from .exact import tf_poly
from .graphs import (
    canonical_form,
    mantel_plus_one,
    triangle_count,
    write_graph6,
)
from .polynomial import Poly, check_probability


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
    edges, for every n the enumeration supports (n <= 8).

    Classes are visited in ascending triangle count.  With prune=True the
    search stops at the first class whose certified bound
    1 - p + p(1-p^2)^t lies strictly below the best exact value found:
    the bound only falls as t grows and the best value only rises, so no
    later class can reach it.  The bound never falls to 1 - p, so nothing
    is skipped until the best value exceeds 1 - p (none of 663 classes at
    n = 8, i = 2, p = 1/2; 63 of 65 at n = 7, i = 2, p = 1/3).  Pruned
    and unpruned runs are asserted identical in the test suite.
    """
    p = check_probability(p, interior=True)
    started = time.perf_counter()
    m = mantel_max_edges(n) + i
    reps = enumerate_graphs(n, m)

    best: Fraction | None = None
    winners: list[str] = []
    pruned = 0
    bound_t = bound = None
    for k, g in enumerate(sorted(reps, key=triangle_count)):
        if prune and best is not None:
            t = triangle_count(g)
            if t != bound_t:
                bound_t, bound = t, linear_triple_bound(t).eval(p)
            if bound < best:
                pruned = len(reps) - k
                break
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
    """Sturm chain of f: f, f', then negated primitive remainders, each
    scaled by a positive constant (leaving sign variation counts unchanged).
    No squarefree pass: each member is g = gcd(f, f') times the matching
    member of a Sturm sequence of f/g, so at non-roots of f (the only points
    evaluated here) the variation counts are those of the squarefree part."""
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


ROOT_WIDTH = Fraction(1, 10**12)  # width of every isolating interval


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


def _bisect_roots(
    poly: Poly, chain: list[Poly], lo: Fraction, hi: Fraction, vlo: int, vhi: int,
    width: Fraction = ROOT_WIDTH,
) -> list[RootInterval]:
    """isolate_roots on the Sturm chain of poly, given the variation counts
    vlo and vhi of that chain at lo and hi, neither a root of poly; each
    interval is at most width wide."""
    out: list[RootInterval] = []

    def split(a: Fraction, b: Fraction, va: int, vb: int):
        k = va - vb
        if k == 0:
            return
        if k == 1 and b - a <= width:
            out.append(RootInterval(a, b))
            return
        mid = (a + b) / 2
        while not poly.sign_at(mid):
            # root exactly at the midpoint: nudge the cut inside the interval
            mid = (a + mid) / 2
        vm = _sign_variations(chain, mid)
        split(a, mid, va, vm)
        split(mid, b, vm, vb)

    split(lo, hi, vlo, vhi)
    return out


def isolate_roots(poly: Poly, lo, hi) -> list[RootInterval]:
    """Disjoint rational intervals of width <= ROOT_WIDTH, left to right, one
    per distinct root of poly in the open interval (lo, hi), lo <= hi.
    Endpoints must not be roots."""
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    if not poly.sign_at(lo) or not poly.sign_at(hi):
        raise ValueError("interval endpoint is a root; perturb the endpoints")
    chain = _sturm_chain(poly)
    return _bisect_roots(
        poly, chain, lo, hi, _sign_variations(chain, lo), _sign_variations(chain, hi)
    )


def crossover_root(a: Poly, b: Poly, lo, hi) -> RootInterval:
    """Enclose a root of a - b where it changes sign on [lo, hi].

    lo > hi raises ValueError.  A root at an endpoint gives the degenerate
    interval there; no sign change raises ValueError.  Otherwise this is
    the first interval of isolate_roots(a - b, lo, hi): with several
    roots inside, the leftmost one (a root of even multiplicity included).
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    diff = a - b
    slo, shi = diff.sign_at(lo), diff.sign_at(hi)
    if not slo:
        return RootInterval(lo, lo)
    if not shi:
        return RootInterval(hi, hi)
    if slo == shi:
        raise ValueError(
            f"no sign change on [{lo}, {hi}]: f(lo)={diff.eval(lo)}, f(hi)={diff.eval(hi)}"
        )
    return isolate_roots(diff, lo, hi)[0]


# ---------------------------------------------------------------------------
# upper envelope
# ---------------------------------------------------------------------------

def _unit_shift(f: Poly) -> list[int]:
    """(1+t)^d f(1/(1+t)) for d = deg f, lowest coefficient first: the
    reversed coefficient list Taylor-shifted by 1.

    p = 1/(1+t) maps (0, 1) onto t > 0 and p = 1 to t = 0, so with no sign
    change here f has no root in (0, 1) (Descartes' rule of signs; a
    change proves nothing), and the leading zeros count its root at 1.
    """
    c = list(reversed(f.coeffs))
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] += c[j + 1]
    return c


def _interior_roots(diff: Poly) -> list[RootInterval]:
    """Isolate every root of diff in the open interval (0, 1) to ROOT_WIDTH.

    Differences of probability polynomials vanish at 0 and often at 1.
    After p^a is stripped, Descartes' rule on the unit shift settles most
    pairs with no root in (0, 1).  Otherwise (1-p)^b, b the shift's
    leading zeros, is divided out once (the shift of (1-p)^b g is t^b
    times that of g: the same verdict), and the variation counts at 0
    and 1 on one Sturm chain of the rest decide.  The same chain places
    the margins 2^-40 and 1 - 2^-40 (the crossover bytes depend on them),
    each halved toward its end while a root lies between the margin and
    that end; a multiple root at 2^-40 zeroes the whole chain there, so
    that margin halves too.  The same chain then bisects between them.
    """
    low = next(j for j, c in enumerate(diff.coeffs) if c)
    reduced = Poly(diff.coeffs[low:])
    shift = _unit_shift(reduced)
    signs = [x > 0 for x in shift if x]
    if all(signs) or not any(signs):
        return []
    b = next(j for j, c in enumerate(shift) if c)
    if b:
        reduced = reduced.quotient(Poly.one_minus_x_power(b))
    chain = _sturm_chain(reduced)
    at_zero, at_one = (_sign_variations(chain, Fraction(x)) for x in (0, 1))
    if at_zero == at_one:
        return []
    lo, hi = Fraction(1, 1 << 40), 1 - Fraction(1, 1 << 40)
    while _sign_variations(chain, lo) != at_zero:
        lo /= 2
    while not reduced.sign_at(hi) or _sign_variations(chain, hi) != at_one:
        hi = (hi + 1) / 2
    return _bisect_roots(reduced, chain, lo, hi, at_zero, at_one)


def _separate(crossings: dict[tuple[Poly, Poly], list[RootInterval]]) -> bool:
    """Halve overlapping crossing intervals of different pairs, in place,
    until they are disjoint.  Two that enclose one common root (the gcd of
    the two differences has a root where they overlap; their ends are
    roots of neither) cannot separate and stay.  True iff any changed."""
    changed, shared = False, set()
    while True:
        spans = sorted(
            ((r.lo, r.hi, pair, i) for pair, rs in crossings.items() for i, r in enumerate(rs)),
            key=lambda span: span[:2],
        )
        clash = None
        for j, a in enumerate(spans):
            for b in spans[j + 1 :]:
                if b[0] >= a[1] or clash:
                    break
                if b[2] == a[2] or (a, b) in shared:
                    continue
                f, g = a[2][0] - a[2][1], b[2][0] - b[2][1]
                while not g.is_zero():
                    f, g = g, f.primitive_rem(g)
                chain = _sturm_chain(f)
                if _sign_variations(chain, b[0]) > _sign_variations(chain, min(a[1], b[1])):
                    shared.add((a, b))
                else:
                    clash = a, b
        if clash is None:
            return changed
        for lo, hi, pair, i in clash:
            diff = pair[0] - pair[1]
            chain = _sturm_chain(diff)
            v = _sign_variations(chain, lo), _sign_variations(chain, hi)
            (crossings[pair][i],) = _bisect_roots(diff, chain, lo, hi, *v, (hi - lo) / 2)
        changed = True


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

    Exact by winner extension.  Between two cuts, the unique maximum w at
    a rational probe wins up to its nearest crossing (a root of w - q,
    isolated by Sturm chains once per pair) on each side, and each side
    left over splits the same way.  A cut is the midpoint of its crossing
    interval; a crossing whose interval holds a cut counts as that cut.
    The probe moves toward the left cut off ties and crossing intervals.
    Overlapping crossing intervals are refined until they separate
    (_separate) and the sweep reruns, so a winner narrower than the
    10^-12 isolation width is found.  Output for
    surplus i > 1 is exploratory data: outside the proven i = 1 case there
    is no closed-form claim to check it against.
    """
    m = mantel_max_edges(n) + i
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

    ends = RootInterval(Fraction(0), Fraction(0)), RootInterval(Fraction(1), Fraction(1))
    found = pieces(*ends)
    while _separate(crossings):
        found = pieces(*ends)
    segments: list[EnvelopeSegment] = []
    crossovers: list[RootInterval] = []
    for lo, hi, names in found:
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "pass": self.passed,
            "p_values": [str(p) for p in self.p_values],
            "construction": self.construction,
            "equality_classes": list(self.equality_classes),
            "violations": list(self.violations),
            "enumerated": self.enumerated,
            # nothing is skipped; perfbench/references.json pins this key
            "pruned": 0,
        }


def verify_one_extra_optimum(n: int) -> OptimumVerification:
    """Exhaustively confirm the optimum one edge above the threshold.

    Every n-vertex class with floor(n^2/4) + 1 edges must satisfy
    probability <= 1 - p + p(1-p^2)^floor(n/2) at p in {1/10, 1/2, 9/10},
    with equality (at all three points) exactly for the bipartite-plus-edge
    construction.  Exhaustive for every n the enumeration supports
    (3 <= n <= 8); verify_one_extra_capped proves the claim for every p.
    """
    m = mantel_max_edges(n) + 1
    reps = enumerate_graphs(n, m)
    p_values = (Fraction(1, 10), Fraction(1, 2), Fraction(9, 10))
    target = one_extra_edge_optimum(n)
    construction = canonical_form(mantel_plus_one(n)).decode("ascii")

    equality: list[str] = []
    violations: list[str] = []
    for g in reps:
        gap = tf_poly(g) - target
        signs = [gap.sign_at(p) for p in p_values]
        if any(s > 0 for s in signs):
            violations.append(write_graph6(g))
        elif not any(signs):
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


def verify_one_extra_capped(n: int) -> CappedVerification:
    """Prove the optimum one edge above the threshold for every p in (0, 1).

    Let T = floor(n/2), so the optimum is 1 - p + p(1-p^2)^T.  A class with
    t > T triangles has probability at most 1 - p + p(1-p^2)^t, and that
    is at most the bound at T + 1, which lies strictly below the optimum on
    (0, 1) (their difference is positive at 1/2 and, by one Sturm count,
    has no root in (0, 1): nothing is isolated).  So the construction is the
    unique maximizer for every p once it is the only class with at most T
    triangles and its polynomial is the optimum.  The triangle-capped
    recursion lists those classes without enumerating the rest.  Limited
    to n <= MAX_CANONICAL_N by the canonical form.
    """
    cap = n // 2
    target = one_extra_edge_optimum(n)
    built = mantel_plus_one(n)
    construction = canonical_form(built).decode("ascii")
    capped = tuple(class_names(n, mantel_max_edges(n) + 1, cap))
    is_optimum = tf_poly(built) == target
    gap = target - linear_triple_bound(cap + 1)
    below = not _interior_roots(gap) and gap.sign_at(Fraction(1, 2)) > 0
    passed = capped == (construction,) and is_optimum and below
    return CappedVerification(
        n, passed, cap, construction, capped, is_optimum, below
    )


# ---------------------------------------------------------------------------
# per-class CSV export, resumed from its own rows
# ---------------------------------------------------------------------------

_CSV_HEADER = b"graph6,triangles,coeffs\r\n"


def export_classes_csv(n: int, m: int, path: str | Path) -> int:
    """Stream one CSV row (graph6, triangles, coefficients) per class.

    The CSV is its own checkpoint.  An existing regular file at `path`
    keeps its header and the complete rows whose graph6 names match the
    deterministic enumeration order, is cut after them, and gets only the
    remaining rows; each row is flushed as it is written, so an export
    killed at any point resumes to the same bytes as an uninterrupted one.
    Any other file at `path` is written from the start.  Returns the
    number of rows written by this call.
    """
    path = Path(path)
    reps = enumerate_graphs(n, m)
    names = [write_graph6(g).encode() for g in reps]
    start = kept = 0
    if path.is_file():
        with open(path, "r+b") as fh:
            lines = fh.readlines()
            if lines[:1] == [_CSV_HEADER]:
                kept = len(_CSV_HEADER)
                for line, name in zip(lines[1:], names):
                    if not (line.endswith(b"\n") and line.startswith(name + b",")):
                        break
                    kept += len(line)
                    start += 1
            fh.truncate(kept)
    with open(path, "ab" if kept else "wb") as fh:
        if not kept:
            fh.write(_CSV_HEADER)
        for g, name in zip(reps[start:], names[start:]):
            coeffs = " ".join(str(c) for c in tf_poly(g).coeffs)
            fh.write(name + f",{triangle_count(g)},{coeffs}\r\n".encode())
            fh.flush()
    return len(reps) - start
