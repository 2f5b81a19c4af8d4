"""Hypergraphs whose vertices are graph edges and whose hyperedges are cliques.

For a graph G the triangle hypergraph has one vertex per edge of G and one
3-element hyperedge per triangle; the Bernoulli edge-subgraph of G is
triangle-free exactly when the kept edge set is an independent set here.
Two distinct triangles share at most one edge, so triangle hypergraphs are
always linear.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations, repeat
from math import comb
from operator import or_

from .errors import LimitExceededError
from .graphs import Graph, check_clique_order, clique_edge_indices
from .polynomial import check_probability

MAX_COVERED_VERTICES = 30  # exact-count limit (for a graph: edges in some K_k copy)
PROFILE_CACHE_SIZE = 2048  # hyperedge listings kept per process; >= 1,646 classes at n=8, m=14


@dataclass(frozen=True)
class CliqueHypergraph:
    """Uniform hypergraph on vertices 0..vertex_count-1.

    clique_order is the order k of the source cliques; hyperedges have
    C(k, 2) vertices each (3 for triangles).  check_clique_order checks k.
    """

    vertex_count: int
    hyperedges: tuple[tuple[int, ...], ...]
    clique_order: int = 3

    def __post_init__(self):
        object.__setattr__(self, "clique_order", check_clique_order(self.clique_order))
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

    def __post_init__(self):
        if self.vertex_count < 0 or len(self.counts) > self.vertex_count + 1:
            raise ValueError(f"{len(self.counts)} counts for {self.vertex_count} vertices")

    def probability(self, p) -> Fraction:
        """Exact probability that a Bernoulli(p) vertex subset is independent."""
        a, b = check_probability(p).as_integer_ratio()
        # sum_s counts[s] a^s (b-a)^(v-s) over b^v, by integer Horner in a
        v, acc, qpow = self.vertex_count, 0, 1
        for c in reversed(self.counts):
            acc = acc * a + c * qpow
            qpow *= b - a
        return Fraction(acc * (b - a) ** (v + 1 - len(self.counts)), b**v)


def from_graph(g: Graph, clique_order: int = 3) -> CliqueHypergraph:
    """Hypergraph on the edges of g with one hyperedge per K_k copy, as
    clique_edge_indices lists them (graphs.cliques checks the order)."""
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


def random_linear_hypergraph(vertices: int, r: int, seed: int) -> CliqueHypergraph:
    """Seeded random linear 3-uniform hypergraph with exactly r hyperedges.

    Triples are sampled one at a time and rejected when they overlap an
    accepted triple in two or more vertices; raises ValueError after
    10,000 attempts (e.g. r too large for the vertex budget).
    """
    if vertices < 3 and r > 0:
        raise ValueError("need at least 3 vertices for a hyperedge")
    rng = random.Random(seed)
    accepted: list[frozenset[int]] = []
    attempts = 0
    while len(accepted) < r:
        if attempts >= 10_000:
            raise ValueError(
                f"could not place {r} pairwise near-disjoint triples on "
                f"{vertices} vertices after {attempts} attempts"
            )
        attempts += 1
        triple = frozenset(rng.sample(range(vertices), 3))
        if any(len(triple & prev) > 1 for prev in accepted):
            continue
        accepted.append(triple)
    return CliqueHypergraph(vertices, tuple(tuple(sorted(t)) for t in accepted))


# ---------------------------------------------------------------------------
# exact independence counting
# ---------------------------------------------------------------------------


def _union(masks) -> int:
    return reduce(or_, masks, 0)


def _count_component(
    hedges, union: int, memo: dict, w: int, rows: list[int], overlap: int
) -> int:
    """Packed independent-set counts by size over the vertices of union,
    the bits covered by hedges (three or more distinct masks, one
    component): count s in bits [s*w, (s+1)*w).  Branches on the lowest
    bit of union, the next vertex of the elimination order.  Freed
    vertices multiply by rows[f], the packed binomial row (1 + x)^f; the
    unions built while splitting the hyperedges into the two branches give
    each branch's covered count.

    overlap is the largest |e & f| over two masks of the input, so it
    bounds every pair here.  The include branch drops each hyperedge that
    strictly contains a cut one (e - pivot, for e through the pivot): a set
    holding the larger holds the smaller, so the larger is implied.  Only
    a cut hyperedge can newly lie inside another, and e - pivot lies in f
    only if it fits in e & f, so only cut sizes 2..overlap are tried, and
    nothing when overlap <= 1 (every triangle hypergraph)."""
    ncov = union.bit_count()
    pivot = union & -union

    # pivot excluded: every hyperedge through it is satisfied.  Pivot
    # included: hyperedges through it shrink (cut); a one-vertex remnant
    # forces that vertex out, which satisfies every hyperedge through it
    # (nothing shrinks further, so one pass finds every forced vertex)
    excluded, cut, kept, forced_out = [], [], 0, 0
    for e in hedges:
        if e & pivot:
            e ^= pivot
            if not e & (e - 1):
                forced_out |= e
            cut.append(e)
        else:
            excluded.append(e)
            kept |= e
    freed = ncov - 1 - kept.bit_count()
    result = _profile_over(excluded, kept, memo, w, rows, overlap) * rows[freed]
    if 0 in cut:
        return result
    live = {*excluded, *cut}
    # with nothing forced out or dropped, the live union is union - pivot
    kept = union ^ pivot
    if forced_out or overlap > 1:
        implying = []
        if overlap > 1:
            for c in cut:
                if 1 < c.bit_count() <= overlap:
                    implying.append(c)
        rest, kept = [], 0
        for e in live:
            if e & forced_out:
                continue
            for c in implying:
                if e & c == c and e != c:
                    break
            else:
                rest.append(e)
                kept |= e
        live = rest
    freed = ncov - 1 - forced_out.bit_count() - kept.bit_count()
    # shift: the pivot itself is in the set
    return result + (_profile_over(live, kept, memo, w, rows, overlap) * rows[freed] << w)


def _profile_over(hedges, union: int, memo: dict, w: int, rows: list[int], overlap: int) -> int:
    """Packed counts over union, the covered vertices of hedges (distinct
    masks; 1 if none).

    At most two hyperedges close by inclusion-exclusion, with no memo
    entry.  Otherwise the memo is looked up on the sorted residual before
    anything else.  On a miss the component of the lowest vertex is grown
    by passes that add every mask meeting it: a connected residual
    branches, and one that stops short of union is split into that
    component and the rest, both memoized through this same function.
    Either way the residual is stored, its value a plain packed int."""
    if len(hedges) <= 2:
        # every subset, less those containing each hyperedge, plus the
        # one containing both: the whole union
        ncov = union.bit_count()
        result = rows[ncov] + (1 << ncov * w if len(hedges) == 2 else 0)
        for e in hedges:
            size = e.bit_count()
            result -= rows[ncov - size] << size * w
        return result
    key = tuple(sorted(hedges))
    result = memo.get(key)
    if result is None:
        verts, last = union & -union, 0
        while verts != last and verts != union:
            last = verts
            for e in hedges:
                if e & verts:
                    verts |= e
        if verts == union:
            result = _count_component(hedges, union, memo, w, rows, overlap)
        else:
            comp, rest = [], []
            for e in hedges:
                (comp if e & verts else rest).append(e)
            result = _profile_over(comp, verts, memo, w, rows, overlap) * _profile_over(
                rest, union ^ verts, memo, w, rows, overlap
            )
        memo[key] = result
    return result


def renumbered_masks(hyperedges) -> frozenset[int]:
    """The hyperedges as distinct bit masks over their covered vertices,
    numbered by descending hyperedge degree (ties by vertex): the fixed
    elimination order of the engine.  More than MAX_COVERED_VERTICES
    covered vertices raise LimitExceededError, before any mask is built;
    an empty hyperedge raises ValueError."""
    degree = Counter(v for e in hyperedges for v in e)
    if len(degree) > MAX_COVERED_VERTICES:
        raise LimitExceededError(
            f"{len(degree)} covered vertices (for a graph: its edges in some "
            f"K_k copy) exceeds the exact limit {MAX_COVERED_VERTICES}; "
            "use Monte Carlo estimation instead"
        )
    order = sorted(degree, key=lambda v: (-degree[v], v))
    bit = {v: 1 << i for i, v in enumerate(order)}
    masks = frozenset(_union(bit[v] for v in e) for e in hyperedges)
    if 0 in masks:
        raise ValueError("hyperedges must be nonempty")
    return masks


def covered_profile(hyperedges) -> tuple[int, ...]:
    """Independent-set counts by size over the vertices lying in some hyperedge.

    The one exact counting engine: independence_profile and
    exact.tf_profile/tf_poly are maps over it.  Covered vertices are
    numbered to bit positions by renumbered_masks, which fixes the
    elimination order: the count branches on the first remaining vertex
    of a component.  A residual of at most two hyperedges closes by
    inclusion-exclusion.  A larger one is looked up in a memo, keyed by
    its sorted masks, before it is split into connected components, so a
    hit costs no split; on a miss it is stored, as one packed int, and so
    is each part it splits into.  Only when some two hyperedges share two
    or more vertices (never for triangles: their hypergraphs are linear),
    a branch that includes a vertex drops every hyperedge implied by one
    that vertex shrank.  A profile is one packed int with count s in bits
    [s*w, (s+1)*w), w = c + 1 for c covered vertices: no count exceeds
    2^c, so sums and products never carry between slots, and convolution
    is one multiplication.  Entry s counts the s-subsets of the covered
    vertices.

    Results are kept in a process-wide LRU cache of PROFILE_CACHE_SIZE
    hyperedge listings, and masks are built only on a miss.  Both routes
    list the K_k copies of a graph alike (clique_edge_indices is in the
    normal form of CliqueHypergraph), so tf_profile, tf_poly and
    independence_profile of one graph count it once.  The covered limit
    has one check, made when the masks are built: more than
    MAX_COVERED_VERTICES covered vertices raise LimitExceededError in
    renumbered_masks, and nothing is cached.
    """
    return _cached_profile(tuple(map(tuple, hyperedges)))


@lru_cache(maxsize=PROFILE_CACHE_SIZE)
def _cached_profile(hyperedges: tuple[tuple[int, ...], ...]) -> tuple[int, ...]:
    """covered_profile of one hashable hyperedge listing."""
    masks = renumbered_masks(hyperedges)
    union = _union(masks)
    c = union.bit_count()
    w = c + 1
    rows = [(1 + (1 << w)) ** f for f in range(c + 1)]
    overlap = max(((a & b).bit_count() for a, b in combinations(masks, 2)), default=0)
    packed = _profile_over(list(masks), union, {}, w, rows, overlap)
    mask = (1 << w) - 1
    return tuple(packed >> (s * w) & mask for s in range(c + 1))


def _packed_bytes(counts, width: int) -> int:
    """counts as one int, count s in bytes [s*width, (s+1)*width)."""
    chunks = map(int.to_bytes, counts, repeat(width), repeat("little"))
    return int.from_bytes(b"".join(chunks), "little")


def add_free_vertices(core, vertex_count: int) -> tuple[int, ...]:
    """Counts over vertex_count vertices from the counts over the covered
    ones: each free (uncovered) vertex may be in or out, so the counts are
    the core's times (1 + x)^free.  Both factors are packed into slots of
    whole bytes, wide enough for 2^vertex_count so that nothing carries,
    and multiplied once; the factor's slots are the binomial row, by
    C(f, s + 1) = C(f, s) (f - s) / (s + 1)."""
    free = vertex_count - (len(core) - 1)
    if not free:
        return tuple(core)
    row = [1]
    for s in range(free):
        row.append(row[-1] * (free - s) // (s + 1))
    width = vertex_count // 8 + 1
    product = _packed_bytes(core, width) * _packed_bytes(row, width)
    data = product.to_bytes(width * (vertex_count + 1), "little")
    return tuple(int.from_bytes(data[i : i + width], "little") for i in range(0, len(data), width))


def independence_profile(h: CliqueHypergraph) -> IndependenceProfile:
    """Exact counts of independent vertex subsets by size.

    Vertices in no hyperedge are factored out as a binomial convolution.
    """
    core = covered_profile(h.hyperedges)
    return IndependenceProfile(h.vertex_count, add_free_vertices(core, h.vertex_count))


def independence_probability(h: CliqueHypergraph, p) -> Fraction:
    """Exact probability that a Bernoulli(p) vertex subset is independent."""
    return independence_profile(h).probability(p)
