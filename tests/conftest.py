"""Shared corpus and independent brute-force oracles.

The oracles deliberately avoid the library's fast paths: subgraph-freeness
is decided by scanning vertex subsets against the adjacency relation, not
via the library's clique-to-edge-index routine or its counting engine, so
profile comparisons are a genuine cross-check.  brute_tf_profile walks all
2^m edge subsets; subset_tf_profile enumerates only the covered edges'
subsets with numpy, for graphs too big for the former.
brute_canonical_name tries all n! relabelings, with no pruning.
edge_ladder builds the classes level by level, one edge at a time, as a
second enumeration route beside the library's vertex recursion.
fraction_eval, fraction_bernstein and fraction_divmod do polynomial
arithmetic over Fraction, one rational operation at a time, beside the
library's integer Horner sums and integer long division.
poly_sum_bernstein builds a count profile's polynomial as a sum of Poly
objects, beside the library's single integer pass.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest

from trifree import (
    Graph,
    Poly,
    build_graph,
    canonical_form,
    complete_bipartite,
    complete_graph,
    mantel_plus_one,
    parse_graph6,
    two_extra_edge_candidates,
    write_graph6,
)
from trifree.graphs import twin_classes
from trifree.hypergraph import _cached_profile


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def brute_triangles(g: Graph) -> list[tuple[int, int, int]]:
    """All triangles by scanning every vertex triple."""
    return [
        (a, b, c)
        for a, b, c in combinations(range(g.n), 3)
        if g.has_edge(a, b) and g.has_edge(a, c) and g.has_edge(b, c)
    ]


def brute_tf_profile(g: Graph, order: int = 3) -> tuple[int, ...]:
    """K_order-free edge-subset counts by size, by full 2^m enumeration.

    Works over vertex subsets and pair sets, independent of the library's
    edge indexing, hyperedge masks and covered-edge factoring.
    """
    m = g.m
    pair_sets = [
        frozenset((min(u, v), max(u, v)) for u, v in combinations(members, 2))
        for members in combinations(range(g.n), order)
    ]
    counts = [0] * (m + 1)
    for bits in range(1 << m):
        kept = frozenset(g.edges[i] for i in range(m) if (bits >> i) & 1)
        if not any(ps <= kept for ps in pair_sets):
            counts[len(kept)] += 1
    return tuple(counts)


_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.int64)


def subset_tf_profile(g: Graph, order: int = 3) -> tuple[int, ...]:
    """K_order-free edge-subset counts by size, by vectorized enumeration of
    every subset of the covered edges (those lying in some K_order copy).

    A second route next to the library's branching engine for graphs too
    big for brute_tf_profile: 2^c subsets for c covered edges, so up to
    about c = 24.  Copies are found by scanning vertex subsets; the edges
    outside every copy are spread over the counts by a binomial row.
    Bits are counted by a byte table, not np.bitwise_count (numpy >= 2).
    """
    index = {e: i for i, e in enumerate(g.edges)}
    copies = [
        [index[pair] for pair in combinations(members, 2)]
        for members in combinations(range(g.n), order)
        if all(g.has_edge(u, v) for u, v in combinations(members, 2))
    ]
    covered = sorted({e for copy in copies for e in copy})
    pos = {e: i for i, e in enumerate(covered)}
    masks = [np.uint64(sum(1 << pos[e] for e in copy)) for copy in copies]
    c = len(covered)
    core = np.zeros(c + 1, dtype=np.int64)
    chunk = 1 << 20
    for base in range(0, 1 << c, chunk):
        idx = np.arange(base, min(base + chunk, 1 << c), dtype=np.uint64)
        ok = np.ones(idx.shape, dtype=bool)
        for mask in masks:
            ok &= (idx & mask) != mask
        sizes = _POPCOUNT8[idx[ok].view(np.uint8)].reshape(-1, 8).sum(axis=1)
        core += np.bincount(sizes, minlength=c + 1)
    free = g.m - c
    counts = [0] * (g.m + 1)
    for j, x in enumerate(core):
        for i in range(free + 1):
            counts[j + i] += int(x) * comb(free, i)
    return tuple(counts)


def brute_independence_profile(vertex_count: int, hyperedges) -> tuple[int, ...]:
    counts = [0] * (vertex_count + 1)
    hsets = [set(e) for e in hyperedges]
    for bits in range(1 << vertex_count):
        s = {v for v in range(vertex_count) if (bits >> v) & 1}
        if not any(e <= s for e in hsets):
            counts[len(s)] += 1
    return tuple(counts)


def are_isomorphic(g1: Graph, g2: Graph) -> bool:
    """Exhaustive permutation check."""
    if g1.n != g2.n or g1.m != g2.m:
        return False
    target = set(g2.edges)
    for perm in permutations(range(g1.n)):
        mapped = {
            (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in g1.edges
        }
        if mapped == target:
            return True
    return False


def automorphism_count(g: Graph) -> int:
    edges = set(g.edges)
    total = 0
    for perm in permutations(range(g.n)):
        if all(
            (min(perm[u], perm[v]), max(perm[u], perm[v])) in edges for u, v in edges
        ):
            total += 1
    return total


def brute_canonical_name(g: Graph) -> str:
    """graph6 of the relabeling with the least colex bit string, by trying
    all n! orders; position i holds old vertex order[i]."""
    n, adj = g.n, g.adj
    best = min(
        tuple(adj[order[i]] >> order[j] & 1 for i in range(1, n) for j in range(i))
        for order in permutations(range(n))
    )
    pairs = [(j, i) for i in range(1, n) for j in range(i)]
    return write_graph6(build_graph(n, [e for e, bit in zip(pairs, best) if bit]))


_LADDERS: dict[int, list[list[str]]] = {}


def edge_ladder(n: int, max_m: int) -> list[list[str]]:
    """levels[m] = sorted canonical graph6 names of all n-vertex, m-edge
    classes, for m = 0..max_m, by adding one edge at a time.

    Every m-edge graph contains an (m-1)-edge subgraph, so the ladder is
    complete.  One edge is tried per unordered pair of twin classes of the
    representative: twin swaps map each non-edge onto every other one
    joining the same two classes.
    """
    levels = _LADDERS.setdefault(n, [[canonical_form(Graph(n, [])).decode("ascii")]])
    while len(levels) <= max_m:
        seen = set()
        for g6 in levels[-1]:
            g = parse_graph6(g6)
            twins = twin_classes(g)
            tried = set()
            for u, v in g.non_edges():
                pair = twins[u] | twins[v]
                if pair not in tried:
                    tried.add(pair)
                    seen.add(canonical_form(g.with_edge(u, v)).decode("ascii"))
        levels.append(sorted(seen))
    return levels


def fraction_eval(coeffs, p) -> Fraction:
    """sum_j coeffs[j] p^j by Horner over Fraction."""
    p = Fraction(p)
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * p + c
    return acc


def fraction_bernstein(counts, v: int, p) -> Fraction:
    """sum_s counts[s] p^s (1-p)^(v-s) over Fraction."""
    p = Fraction(p)
    return sum((c * p**s * (1 - p) ** (v - s) for s, c in enumerate(counts)), Fraction(0))


def poly_sum_bernstein(counts) -> Poly:
    """sum_s counts[s] p^s (1-p)^(v-s), v = len(counts) - 1, as one Poly
    addition of (1-p)^(v-s) scaled and shifted per nonzero count."""
    v = len(counts) - 1
    total = Poly.zero()
    for s, c in enumerate(counts):
        if c:
            total = total + Poly.one_minus_x_power(v - s).scale(c).shift(s)
    return total


def fraction_divmod(dividend, divisor) -> tuple[list[Fraction], list[Fraction]]:
    """(quotient, remainder) coefficient lists of long division over the
    rationals by a divisor with a nonzero last coefficient; the remainder
    has no trailing zeros."""
    div = [Fraction(c) for c in divisor]
    rem = [Fraction(c) for c in dividend]
    quot = [Fraction(0)] * max(0, len(rem) - len(div) + 1)
    for k in range(len(quot) - 1, -1, -1):
        q = rem[len(div) - 1 + k] / div[-1]
        quot[k] = q
        for j, d in enumerate(div):
            rem[j + k] -= q * d
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def random_graph(n: int, m: int, rng: random.Random) -> Graph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return build_graph(n, rng.sample(pairs, m))


# ---------------------------------------------------------------------------
# corpus
# ---------------------------------------------------------------------------


def petersen() -> Graph:
    edges = []
    for i in range(5):
        edges.append((i, (i + 1) % 5))
        edges.append((i, i + 5))
        edges.append((5 + i, 5 + (i + 2) % 5))
    return build_graph(10, edges)


def wheel5() -> Graph:
    edges = [(0, k) for k in range(1, 6)]
    edges += [(k, k % 5 + 1) for k in range(1, 6)]
    return build_graph(6, edges)


def complete_multipartite(*parts: int) -> Graph:
    """K_{a,b,...}: vertices in consecutive blocks, edges between blocks."""
    block = [b for b, size in enumerate(parts) for _ in range(size)]
    n = len(block)
    return build_graph(
        n, [(u, v) for u in range(n) for v in range(u + 1, n) if block[u] != block[v]]
    )


def octahedron() -> Graph:
    skip = {(0, 1), (2, 3), (4, 5)}
    return build_graph(
        6,
        [(u, v) for u in range(6) for v in range(u + 1, 6) if (u, v) not in skip],
    )


def _build_corpus() -> list[tuple[str, Graph]]:
    star, split, path = two_extra_edge_candidates()
    rng = random.Random(1105)
    corpus = [
        ("K2", complete_graph(2)),
        ("K3", complete_graph(3)),
        ("K4", complete_graph(4)),
        ("K5", complete_graph(5)),
        ("K33", complete_bipartite(3, 3)),
        ("K24", complete_bipartite(2, 4)),
        ("K15", complete_bipartite(1, 5)),
        ("edgeless4", build_graph(4, [])),
        ("P4", build_graph(4, [(0, 1), (1, 2), (2, 3)])),
        ("C5", build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])),
        ("wheel5", wheel5()),
        ("octahedron", octahedron()),
        ("petersen", petersen()),
        ("mantel4", mantel_plus_one(4)),
        ("mantel6", mantel_plus_one(6)),
        ("mantel7", mantel_plus_one(7)),
        ("star6", star),
        ("split6", split),
        ("path6", path),
        ("random7a", random_graph(7, 12, rng)),
        ("random7b", random_graph(7, 12, rng)),
        ("random6", random_graph(6, 9, rng)),
    ]
    return corpus


_CORPUS = _build_corpus()


@pytest.fixture(autouse=True)
def cold_profile_cache():
    """Every test starts on an empty engine cache, so engine call counts
    do not depend on which tests ran before."""
    _cached_profile.cache_clear()


@pytest.fixture(scope="session")
def corpus() -> list[tuple[str, Graph]]:
    return _CORPUS


@pytest.fixture(scope="session")
def small_corpus() -> list[tuple[str, Graph]]:
    """Corpus members small enough for full 2^m enumeration in a tight loop."""
    return [(name, g) for name, g in _CORPUS if g.m <= 13]
