"""Isomorphism classes at fixed vertex and edge counts.

Representatives are generated by vertex augmentation on minimum degree
(McKay, Isomorph-free exhaustive generation, J. Algorithms 26, 1998).
Every n-vertex, m-edge graph has a vertex v of minimum degree
d <= floor(2m/n), and deleting v leaves an (n-1)-vertex, (m-d)-edge
graph with no more triangles.  So the classes with at most T triangles
are the canonical dedup of every such (n-1)-vertex class plus a new vertex
joined to a d-set, kept when the new vertex has minimum degree and the
graph at most T triangles.  The recursion is memoized on (n, m, T);
order is deterministic (sorted canonical forms), and a representative is
the canonical relabeling itself, so write_graph6 names it.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .errors import LimitExceededError
from .graphs import (
    Graph,
    canonical_form,
    check_canonical_n,
    parse_graph6,
    triangle_count,
    twin_classes,
)

MAX_ENUM_N = 8  # the one size limit of the exhaustive search routes

# (n, m, triangle cap or None) -> sorted canonical graph6 names
_class_memo: dict[tuple[int, int, int | None], list[str]] = {}


class _Rows(NamedTuple):
    """Adjacency rows of a candidate: all that canonical_form reads."""

    n: int
    adj: list[int]


def _bits(mask: int):
    """Positions of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _neighbor_sets(parent: Graph, d: int, room: int | None):
    """Neighborhoods N of a new vertex of minimum degree d over parent,
    one per orbit under the twin swaps of parent, each with at most room
    edges inside N (no limit when room is None).

    A vertex of degree d - 1 must join N, and one of lower degree rules
    the parent out.  Twins share a degree, so each twin class is wholly
    forced or free, and only the number taken from a free class matters.
    """
    adj = parent.adj
    degrees = [a.bit_count() for a in adj]
    if min(degrees) < d - 1:
        return
    forced = 0
    for v, k in enumerate(degrees):
        if k == d - 1:
            forced |= 1 << v
    free = d - forced.bit_count()
    if free < 0:
        return
    classes = [
        [1 << v for v in _bits(cls)]
        for cls in dict.fromkeys(twin_classes(parent))
        if not cls & forced
    ]

    def take(idx: int, left: int, chosen: int):
        if left == 0:
            inside = sum((adj[v] & chosen).bit_count() for v in _bits(chosen)) // 2
            if room is None or inside <= room:
                yield chosen
            return
        if idx == len(classes):
            return
        members = classes[idx]
        for count in range(min(left, len(members)), -1, -1):
            yield from take(idx + 1, left - count, chosen | sum(members[:count]))

    yield from take(0, free, forced)


def _deletion_key(adj: list[int], v: int) -> tuple[int, int]:
    """Isomorphism invariant of a vertex: (degree sum of its neighbors,
    edges among its neighbors)."""
    nbrs = adj[v]
    total = inside = 0
    for w in _bits(nbrs):
        total += adj[w].bit_count()
        inside += (adj[w] & nbrs).bit_count()
    return total, inside // 2


def _augment(n: int, m: int, cap: int | None) -> set[str]:
    """Canonical names of the n-vertex, m-edge graphs with at most cap
    triangles, grown from the (n-1)-vertex classes.

    A candidate reaches canonical_form only if its new vertex has the
    largest _deletion_key among the vertices of minimum degree.  Every
    graph keeps such a vertex v, and the class of G - v, augmented by the
    image of N(v), rebuilds G with the new vertex in the role of v, so
    this filter loses no class.
    """
    if n == 1:
        return {"@"} if m == 0 else set()
    found: set[str] = set()
    last = n - 1
    new_bit = 1 << last
    for d in range(max(0, m - comb(last, 2)), min(2 * m // n, last) + 1):
        for name in class_names(last, m - d, cap):
            parent = parse_graph6(name)
            room = None if cap is None else cap - triangle_count(parent)
            for nbhd in _neighbor_sets(parent, d, room):
                adj = [a | new_bit if nbhd >> v & 1 else a
                       for v, a in enumerate(parent.adj)]
                adj.append(nbhd)
                key = _deletion_key(adj, last)
                if any(
                    a.bit_count() == d and _deletion_key(adj, v) > key
                    for v, a in enumerate(adj[:last])
                ):
                    continue
                found.add(canonical_form(_Rows(n, adj)).decode("ascii"))
    return found


def class_names(n: int, m: int, cap: int | None = None) -> list[str]:
    """Sorted canonical graph6 names of the n-vertex, m-edge classes with
    at most cap triangles (every class when cap is None), memoized.
    The canonical-form limit (check_canonical_n) comes before any recursion."""
    check_canonical_n(n)
    if cap is not None and cap >= comb(n, 3):
        cap = None
    key = (n, m, cap)
    names = _class_memo.get(key)
    if names is None:
        names = _class_memo[key] = sorted(_augment(n, m, cap))
    return names


def enumerate_graphs(n: int, m: int) -> list[Graph]:
    """One canonical representative per isomorphism class with n vertices
    and m edges, in deterministic (sorted canonical form) order."""
    if n > MAX_ENUM_N:
        raise LimitExceededError(f"enumeration supports n <= {MAX_ENUM_N}, got n={n}")
    if n < 1:
        raise ValueError("need at least one vertex")
    if not 0 <= m <= comb(n, 2):
        raise ValueError(f"edge count m={m} outside 0..C({n},2)")
    return [parse_graph6(g6) for g6 in class_names(n, m)]
