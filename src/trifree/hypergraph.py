"""Hypergraphs whose vertices are graph edges and whose hyperedges are cliques.

For a graph G the triangle hypergraph has one vertex per edge of G and one
3-element hyperedge per triangle; the Bernoulli edge-subgraph of G is
triangle-free exactly when the kept edge set is an independent set here.
Two distinct triangles share at most one edge, so triangle hypergraphs are
always linear.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from math import comb
from operator import or_

from .errors import LimitExceededError
from .graphs import Graph, clique_edge_indices

MAX_COVERED_VERTICES = 30  # exact-count limit (for a graph: edges in some K_k copy)
PROFILE_CACHE_SIZE = 2048  # covered profiles kept per process; >= 1,646 classes at n=8, m=14


@dataclass(frozen=True)
class CliqueHypergraph:
    """Uniform hypergraph on vertices 0..vertex_count-1.

    clique_order is the order k of the source cliques; hyperedges have
    C(k, 2) vertices each (3 for triangles).
    """

    vertex_count: int
    hyperedges: tuple[tuple[int, ...], ...]
    clique_order: int = 3

    def __post_init__(self):
        if self.clique_order < 2:
            raise ValueError(f"clique order must be at least 2, got {self.clique_order}")
        size = comb(self.clique_order, 2)
        norm = []
        for e in self.hyperedges:
            t = tuple(sorted(e))
            if len(set(t)) != len(t):
                raise ValueError(f"hyperedge {e} has repeated vertices")
            if len(t) != size:
                raise ValueError(
                    f"hyperedge {e} has {len(t)} vertices, expected {size} "
                    f"for clique order {self.clique_order}"
                )
            if t and (t[0] < 0 or t[-1] >= self.vertex_count):
                raise ValueError(f"hyperedge {e} out of range 0..{self.vertex_count - 1}")
            norm.append(t)
        norm.sort()
        object.__setattr__(self, "hyperedges", tuple(norm))

    @property
    def edge_count(self) -> int:
        return len(self.hyperedges)

    def covered_vertices(self) -> frozenset[int]:
        return frozenset(v for e in self.hyperedges for v in e)


@dataclass(frozen=True)
class IndependenceProfile:
    """counts[s] = number of independent vertex subsets of size s."""

    vertex_count: int
    counts: tuple[int, ...] = field(repr=False)

    def probability(self, p) -> Fraction:
        """Exact probability that a Bernoulli(p) vertex subset is independent."""
        p = Fraction(p)
        a, b = p.numerator, p.denominator
        if not 0 <= a <= b:
            raise ValueError(f"p must lie in [0, 1], got {p}")
        # sum_s counts[s] a^s (b-a)^(v-s) over b^v, by integer Horner in a
        v, acc, qpow = self.vertex_count, 0, 1
        for c in reversed(self.counts):
            acc = acc * a + c * qpow
            qpow *= b - a
        return Fraction(acc * (b - a) ** (v + 1 - len(self.counts)), b**v)


def from_graph(g: Graph, clique_order: int = 3) -> CliqueHypergraph:
    """Hypergraph on the edges of g with one hyperedge per K_k copy."""
    if clique_order < 3:
        raise ValueError("clique order must be at least 3")
    return CliqueHypergraph(g.m, tuple(clique_edge_indices(g, clique_order)), clique_order)


def is_linear(h: CliqueHypergraph) -> bool:
    """True iff every two hyperedges share at most one vertex."""
    sets = [frozenset(e) for e in h.hyperedges]
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            if len(sets[i] & sets[j]) > 1:
                return False
    return True


def flower(r: int) -> CliqueHypergraph:
    """r triples through one shared center vertex: {0, 2i+1, 2i+2}.

    The equality case of the linear-hypergraph independence bound, and the
    triangle structure around the single extra edge of the extremal graph.
    """
    if r < 0:
        raise ValueError("edge count must be nonnegative")
    hedges = tuple((0, 2 * i + 1, 2 * i + 2) for i in range(r))
    return CliqueHypergraph(max(2 * r + 1, 1), hedges)


def random_linear_hypergraph(
    vertices: int, r: int, seed: int, max_attempts: int = 10_000
) -> CliqueHypergraph:
    """Seeded random linear 3-uniform hypergraph with exactly r hyperedges.

    Triples are sampled one at a time and rejected when they overlap an
    accepted triple in two or more vertices; raises ValueError when the
    attempt budget runs out (e.g. r too large for the vertex budget).
    """
    if vertices < 3 and r > 0:
        raise ValueError("need at least 3 vertices for a hyperedge")
    rng = random.Random(seed)
    accepted: list[frozenset[int]] = []
    attempts = 0
    while len(accepted) < r:
        if attempts >= max_attempts:
            raise ValueError(
                f"could not place {r} pairwise near-disjoint triples on "
                f"{vertices} vertices after {max_attempts} attempts"
            )
        attempts += 1
        triple = frozenset(rng.sample(range(vertices), 3))
        if triple in accepted:
            continue
        if any(len(triple & prev) > 1 for prev in accepted):
            continue
        accepted.append(triple)
    return CliqueHypergraph(vertices, tuple(tuple(sorted(t)) for t in accepted))


# ---------------------------------------------------------------------------
# exact independence counting
# ---------------------------------------------------------------------------


def _binomial_row(n: int) -> tuple[int, ...]:
    return tuple(comb(n, s) for s in range(n + 1))


def _convolve(a, b) -> tuple[int, ...]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return tuple(out)


def _union(masks) -> int:
    return reduce(or_, masks, 0)


def _components(hedges) -> list[tuple[int, list[int]]]:
    """Partition hyperedge masks into connected components (shared
    vertices): (vertex union, masks) per component."""
    remaining = list(hedges)
    comps = []
    while remaining:
        verts = remaining.pop()
        comp = [verts]
        grew = True
        while grew:
            grew = False
            rest = []
            for e in remaining:
                if e & verts:
                    comp.append(e)
                    verts |= e
                    grew = True
                else:
                    rest.append(e)
            remaining = rest
        comps.append((verts, comp))
    return comps


def _pivot(hedges) -> int:
    """Pivot bit of nonempty hyperedge masks: the lowest bit among the
    vertices of maximum degree.

    Degrees are carry-save counters: bit b of slices[i] is bit i of the
    number of hyperedges through vertex b.  The top slice is never zero,
    so narrowing from all bits keeps only vertices of positive degree.
    """
    slices: list[int] = []
    for carry in hedges:
        for i, s in enumerate(slices):
            slices[i] = s ^ carry
            carry &= s
            if not carry:
                break
        else:
            slices.append(carry)
    top = -1
    for s in reversed(slices):
        if top & s:
            top &= s
    return top & -top


def _count_component(hedges: list[int], ncov: int, memo: dict, w: int, rows: list[int]) -> int:
    """Packed independent-set counts by size over exactly the ncov vertices
    covered by hedges (distinct masks, one component): count s in bits
    [s*w, (s+1)*w).  Branches on a highest-degree vertex; freed vertices
    multiply by rows[f], the packed binomial row (1 + x)^f."""
    cached = memo.get(key := frozenset(hedges))
    if cached is not None:
        return cached
    pivot = _pivot(hedges)

    # pivot excluded: every hyperedge through it is satisfied
    packed, covered = _profile_over([e for e in hedges if not e & pivot], memo, w, rows)
    result = packed * rows[ncov - 1 - covered]

    # pivot included: hyperedges through it shrink; a one-vertex remnant
    # forces that vertex out, which satisfies every hyperedge through it
    # (nothing shrinks further, so one pass finds every forced vertex)
    shrunk = {e & ~pivot for e in hedges}
    if 0 not in shrunk:
        forced_out = 0
        for e in shrunk:
            if e & (e - 1) == 0:
                forced_out |= e
        packed, covered = _profile_over(
            [e for e in shrunk if not e & forced_out], memo, w, rows
        )
        freed = ncov - 1 - forced_out.bit_count() - covered
        # shift: the pivot itself is in the set
        result += packed * rows[freed] << w
    memo[key] = result
    return result


def _profile_over(hedges: list[int], memo: dict, w: int, rows: list[int]) -> tuple[int, int]:
    """(packed counts over the covered vertices of hedges, number of those
    vertices); (1, 0) if there are none."""
    result, covered = 1, 0
    if hedges:
        for union, comp in _components(hedges):
            ncov = union.bit_count()
            result *= _count_component(comp, ncov, memo, w, rows)
            covered += ncov
    return result, covered


def covered_profile(hyperedges) -> tuple[int, ...]:
    """Independent-set counts by size over the vertices lying in some hyperedge.

    The one exact counting engine: independence_profile and
    exact.tf_profile/tf_poly are maps over it.  Covered vertices are
    renumbered to bit positions and hyperedges become int masks; the count
    branches on a highest-degree vertex, splits into connected components
    and memoizes sub-hypergraphs.  A profile is one packed int with count
    s in bits [s*w, (s+1)*w), w = c + 1 for c covered vertices: no count
    exceeds 2^c, so sums and products never carry between slots, and
    convolution is one multiplication.  Entry s counts the s-subsets of
    the covered vertices; callers check the size limit first.

    Equal mask sets have equal profiles, so results are kept in a
    process-wide LRU cache of PROFILE_CACHE_SIZE mask sets: tf_profile,
    tf_poly and independence_profile of one graph count it once.
    """
    covered = sorted({v for e in hyperedges for v in e})
    bit = {v: 1 << i for i, v in enumerate(covered)}
    masks = frozenset(_union(bit[v] for v in e) for e in hyperedges)
    if 0 in masks:
        raise ValueError("hyperedges must be nonempty")
    return _mask_profile(masks)


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _mask_profile(masks: frozenset[int]) -> tuple[int, ...]:
    """covered_profile of distinct nonempty masks covering bits 0..c-1."""
    c = _union(masks).bit_count()
    w = c + 1
    rows = [(1 + (1 << w)) ** f for f in range(c + 1)]
    packed, _ = _profile_over(list(masks), {}, w, rows)
    mask = (1 << w) - 1
    return tuple(packed >> (s * w) & mask for s in range(c + 1))


def add_free_vertices(core, vertex_count: int) -> tuple[int, ...]:
    """Counts over vertex_count vertices from the counts over the covered
    ones: each uncovered vertex is free, a binomial convolution."""
    free = vertex_count - (len(core) - 1)
    return _convolve(core, _binomial_row(free)) if free else tuple(core)


def independence_profile(h: CliqueHypergraph) -> IndependenceProfile:
    """Exact counts of independent vertex subsets by size.

    Vertices in no hyperedge are factored out as a binomial convolution;
    the covered part is limited to MAX_COVERED_VERTICES vertices.
    """
    covered = h.covered_vertices()
    if len(covered) > MAX_COVERED_VERTICES:
        raise LimitExceededError(
            f"{len(covered)} covered vertices exceeds the exact limit "
            f"{MAX_COVERED_VERTICES}"
        )
    core = covered_profile(h.hyperedges)
    return IndependenceProfile(h.vertex_count, add_free_vertices(core, h.vertex_count))


def independence_probability(h: CliqueHypergraph, p) -> Fraction:
    """Exact probability that a Bernoulli(p) vertex subset is independent."""
    return independence_profile(h).probability(p)


# ---------------------------------------------------------------------------
# text format
# ---------------------------------------------------------------------------


def write_hypergraph(h: CliqueHypergraph) -> str:
    """Text form: first line "v r", then one hyperedge per line."""
    lines = [f"{h.vertex_count} {h.edge_count}"]
    lines.extend(" ".join(str(v) for v in e) for e in h.hyperedges)
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str, clique_order: int = 3) -> CliqueHypergraph:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty hypergraph text")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError(f"expected header 'v r', got {lines[0]!r}")
    v, r = int(head[0]), int(head[1])
    if len(lines) - 1 != r:
        raise ValueError(f"header promises {r} hyperedges, found {len(lines) - 1}")
    hedges = tuple(tuple(int(x) for x in ln.split()) for ln in lines[1:])
    return CliqueHypergraph(v, hedges, clique_order)
