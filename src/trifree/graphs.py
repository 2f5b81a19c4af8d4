"""Simple undirected graphs on up to 62 vertices.

Vertices are labeled 0..n-1 and adjacency rows are Python-int bitmasks, so
set operations (common neighborhoods, subgraph tests) are single integer
ops.  Edges carry a fixed lexicographic index: edge i is the i-th pair
(u, v), u < v, in sorted order — every other module (hypergraph vertices,
subset bitmasks, profiles) relies on this one convention.
"""

from __future__ import annotations

import operator
from itertools import combinations

from .errors import LimitExceededError

MAX_VERTICES = 62  # graph6 short form; adjacency row fits one machine word
MAX_CANONICAL_N = 10  # documented limit of the exact canonical-form search


class Graph:
    """Immutable simple graph, built by :func:`build_graph` or the named
    constructors below; a duplicate edge is found on its adjacency rows."""

    __slots__ = ("n", "adj", "edges", "_edge_index")

    def __init__(self, n: int, edges):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count must be in 1..{MAX_VERTICES}, got {n}")
        adj = [0] * n
        norm = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"vertex out of range: ({u}, {v}) with n={n}")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if adj[u] >> v & 1:
                raise ValueError(f"duplicate edge ({u}, {v})")
            norm.append((u, v))
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        norm.sort()
        self.n = n
        self.adj = tuple(adj)
        self.edges = tuple(norm)
        self._edge_index = {e: i for i, e in enumerate(norm)}

    @property
    def m(self) -> int:
        """Edge count."""
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def edge_index(self, u: int, v: int) -> int:
        """Lexicographic index of an existing edge."""
        if u > v:
            u, v = v, u
        return self._edge_index[(u, v)]

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def non_edges(self):
        """All non-adjacent pairs (u, v), u < v, in lexicographic order."""
        return [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if not (self.adj[u] >> v) & 1
        ]

    def with_edge(self, u: int, v: int) -> "Graph":
        return Graph(self.n, self.edges + ((u, v),))

    def permuted(self, perm) -> "Graph":
        """Relabel: vertex v becomes perm[v]."""
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def build_graph(n: int, edges) -> Graph:
    """Graph with exactly the given edges; validates ranges and duplicates."""
    return Graph(n, edges)


def complete_graph(k: int) -> Graph:
    # a generator: Graph rejects k before any of the k(k-1)/2 pairs exists
    return Graph(k, ((u, v) for u in range(k) for v in range(u + 1, k)))


def complete_bipartite(a: int, b: int) -> Graph:
    """K_{a,b} with part A = 0..a-1 and part B = a..a+b-1."""
    if a < 1 or b < 1:
        raise ValueError("both part sizes must be at least 1")
    # a generator: Graph rejects a + b before any of the a*b pairs exists
    return Graph(a + b, ((u, a + v) for u in range(a) for v in range(b)))


def mantel_plus_one(n: int) -> Graph:
    """K_{floor(n/2), ceil(n/2)} plus one edge inside the larger part.

    The result has floor(n^2/4) + 1 edges and exactly floor(n/2) triangles,
    one through each vertex of the smaller part.  The extra edge joins the
    first two vertices of part B (the ceil(n/2)-sized part); any other
    placement is isomorphic.
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    a = n // 2
    g = complete_bipartite(a, n - a)
    return g.with_edge(a, a + 1)


def two_extra_edge_candidates() -> tuple[Graph, Graph, Graph]:
    """The three 6-vertex, 11-edge graphs with the minimum triangle count (6).

    * star:  K_{3,3} plus a 2-edge star inside one part;
    * split: K_{3,3} plus one edge in each part;
    * path:  K_{2,4} plus a 3-edge path inside the part of size 4.

    These are the candidate maximizers of the triangle-free subgraph
    probability two edges above the bipartite threshold at n = 6.
    """
    star = complete_bipartite(3, 3).with_edge(3, 4).with_edge(3, 5)
    split = complete_bipartite(3, 3).with_edge(0, 1).with_edge(3, 4)
    path = complete_bipartite(2, 4).with_edge(2, 3).with_edge(3, 4).with_edge(4, 5)
    return star, split, path


# ---------------------------------------------------------------------------
# triangles and cliques
# ---------------------------------------------------------------------------


def triangle_count(g: Graph) -> int:
    total = 0
    for u, v in g.edges:
        total += (g.adj[u] & g.adj[v]).bit_count()
    return total // 3


def check_clique_order(k) -> int:
    """The one clique-order check: k as an int if it is an integer >= 2
    (a numpy integer passes; a float, even 3.0, does not); else ValueError."""
    if not hasattr(k, "__index__") or operator.index(k) < 2:
        raise ValueError(f"clique order must be an integer at least 2, got {k!r}")
    return operator.index(k)


def cliques(g: Graph, k: int) -> list[tuple[int, ...]]:
    """All K_k copies, sorted vertex sets in lexicographic order; stops where no K_k can fit."""
    k = check_clique_order(k)
    out: list[tuple[int, ...]] = []

    def extend(members: tuple[int, ...], candidates: int):
        if len(members) == k:
            out.append(members)
            return
        # fewer than k - len(members) candidates left cannot complete a K_k
        while candidates.bit_count() >= k - len(members):
            low = candidates & -candidates
            candidates ^= low
            v = low.bit_length() - 1
            extend(members + (v,), candidates & g.adj[v])

    extend((), (1 << g.n) - 1)
    return out


def clique_edge_indices(g: Graph, clique_order: int) -> list[tuple[int, ...]]:
    """Sorted edge indices of each K_k copy of g, in the order of cliques().

    The listing is then lexicographic, the normal form of a
    CliqueHypergraph, so from_graph keeps it as it is and both routes hand
    the engine cache one key.  cliques() checks the clique order."""
    # pairs of a sorted clique come in lexicographic order, the index order
    index = g._edge_index.__getitem__
    return [tuple(map(index, combinations(members, 2))) for members in cliques(g, clique_order)]


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------


def twin_classes(g: Graph) -> list[int]:
    """classes[v] = bitmask of the twin class of v (v included).

    v and w are twins when N(v) - w == N(w) - v: false twins share their
    open neighborhood, true twins their closed one.  No open neighborhood
    equals another vertex's closed one, and no vertex has both a false and
    a true twin, so the classes partition the vertices.  Swapping two twins
    is an automorphism fixing every other vertex.
    """
    groups: dict[int, int] = {}
    for v, a in enumerate(g.adj):
        for nbhd in (a, a | 1 << v):
            groups[nbhd] = groups.get(nbhd, 0) | 1 << v
    return [groups[a] | groups[a | 1 << v] for v, a in enumerate(g.adj)]


def _min_colex_search(g: Graph):
    """Minimal colex adjacency bit-string over all relabelings.

    Returns levels: levels[k] is an int whose k bits (most significant
    first) give the adjacency of position k to positions 0..k-1.  The
    concatenated levels are exactly the graph6 bit stream of the relabeled
    graph.

    The unplaced vertices form an ordered partition: cells of equal row,
    in increasing row order.  Level k must take the smallest row, so only
    vertices of the first cell are tried, and placing v splits each cell
    into its non-neighbors of v, then its neighbors (rows gain one bit).
    Of several twins in the first cell only one is tried: swapping it with
    a twin maps its subtree onto the twin's, so the minimum is unchanged.
    Branch-and-bound on the shared prefix prunes the rest.
    """
    n, adj = g.n, g.adj
    twins = twin_classes(g)
    levels = [0] * n
    best_levels: list[int] = []

    def rec(k: int, row: int, first: int, rest: list, tight: bool) -> bool:
        """Search below the prefix levels[:k] + [row], where first is the
        cell of that row and rest the later (row, cell) pairs; tight iff the
        prefix equals the best one.  Returns True iff a new best was found."""
        nonlocal best_levels
        levels[k] = row
        if k == n - 1:
            if tight:
                return False  # equal to the best, not better
            best_levels = levels.copy()
            return True
        improved = False
        candidates = first
        while candidates:
            low = candidates & -candidates
            v = low.bit_length() - 1
            candidates &= ~twins[v]
            a = adj[v]
            child = []
            for r, cell in ((row, first ^ low), *rest):
                if cell & ~a:
                    child.append((r << 1, cell & ~a))
                if cell & a:
                    child.append((r << 1 | 1, cell & a))
            child_row, child_first = child[0]
            child_tight = tight
            if tight:
                if child_row > best_levels[k + 1]:
                    continue
                child_tight = child_row == best_levels[k + 1]
            if rec(k + 1, child_row, child_first, child[1:], child_tight):
                # the new best shares this prefix, so later siblings are tight
                improved = tight = True
        return improved

    rec(0, 0, (1 << n) - 1, [], False)
    return best_levels


def check_canonical_n(n: int) -> None:
    """The one canonical-form size check: LimitExceededError if n > MAX_CANONICAL_N."""
    if n > MAX_CANONICAL_N:
        raise LimitExceededError(f"canonical form supports n <= {MAX_CANONICAL_N}, got n={n}")


def canonical_form(g: Graph) -> bytes:
    """Byte-string equal for two graphs iff they are isomorphic.

    The value is the graph6 encoding of the relabeling that minimizes the
    colex adjacency bit-string, so it can be fed back to
    :func:`parse_graph6`.  Exact search, within check_canonical_n.  Reads
    only g.n and the adjacency rows g.adj.
    """
    check_canonical_n(g.n)
    return _graph6_encode(g.n, _min_colex_search(g)).encode("ascii")


# ---------------------------------------------------------------------------
# graph6 and edge-list I/O
# ---------------------------------------------------------------------------


def _graph6_encode(n: int, rows: list[int]) -> str:
    """graph6 text from rows: rows[v] holds v bits, the adjacency of v to
    0..v-1 with vertex 0 most significant (rows[0] is unused)."""
    stream = 0
    for v in range(1, n):
        stream = stream << v | rows[v]
    nbits = n * (n - 1) // 2
    pad = -nbits % 6
    stream <<= pad
    shifts = range(nbits + pad - 6, -1, -6)
    return chr(n + 63) + "".join(chr(63 + (stream >> s & 63)) for s in shifts)


def write_graph6(g: Graph) -> str:
    """Canonical short-form graph6 encoding (ASCII, n <= 62)."""
    rows = [0] * g.n
    for v in range(1, g.n):
        a = g.adj[v]
        for u in range(v):
            rows[v] = rows[v] << 1 | (a >> u & 1)
    return _graph6_encode(g.n, rows)


def parse_graph6(text: str) -> Graph:
    """Parse a short-form graph6 string; inverse of :func:`write_graph6`."""
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<") :].strip()
    if not s:
        raise ValueError("empty graph6 string")
    n = ord(s[0]) - 63
    if not 1 <= n <= MAX_VERTICES:
        raise ValueError(f"unsupported graph6 header (n={n})")
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = s[1:]
    if len(body) != nbytes:
        raise ValueError(
            f"graph6 body has {len(body)} characters, expected {nbytes} for n={n}"
        )
    bits = []
    for ch in body:
        val = ord(ch) - 63
        if not 0 <= val < 64:
            raise ValueError(f"invalid graph6 character {ch!r}")
        bits.extend((val >> (5 - j)) & 1 for j in range(6))
    if any(bits[nbits:]):
        raise ValueError("nonzero padding bits in graph6 data")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def parse_edge_list(text: str, n: int | None = None) -> Graph:
    """Parse "u v" lines; n defaults to max vertex label + 1.

    Blank lines and lines starting with '#' are skipped.
    """
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"line {lineno}: non-integer vertex in {line!r}") from exc
        edges.append((u, v))
    if n is None:
        if not edges:
            raise ValueError("empty edge list and no vertex count given")
        n = max(max(u, v) for u, v in edges) + 1
    return Graph(n, edges)
