"""Exact counts of K_k-free edge subsets and the matching probability polynomial.

The keep-probability polynomial of a graph G is

    sum_s tf(G, s) * p^s * (1-p)^(m-s),

where tf(G, s) counts s-edge subsets containing no K_k (triangles by
default).  An edge subset is K_k-free exactly when it is an independent
vertex set of the clique hypergraph (vertices = edges of G, hyperedges =
K_k copies), so the maps below run on the one counting engine,
hypergraph.covered_profile, fed the K_k copies as clique_edge_indices
lists them.  Only edges lying in some K_k copy matter: an edge outside
every copy can be kept or dropped freely, which multiplies the count
profile by a binomial row and leaves the polynomial untouched.
"""

from __future__ import annotations

from fractions import Fraction

from .graphs import Graph, clique_edge_indices
from .hypergraph import IndependenceProfile, add_free_vertices, covered_profile
from .polynomial import Poly, check_probability


def _core_poly(core: tuple[int, ...]) -> Poly:
    """sum_j core[j] p^j (1-p)^(c-j) over the c covered edges, in one
    integer pass: core[j] adds (-1)^i C(c-j, i) to the coefficient of p^(j+i)."""
    c = len(core) - 1
    out = [0] * (c + 1)
    for j, x in enumerate(core):
        if not x:
            continue
        term, rest = x, c - j
        for i in range(rest + 1):
            out[j + i] += term
            term = -term * (rest - i) // (i + 1)
    return Poly(out)


def tf_profile(g: Graph, clique_order: int = 3) -> IndependenceProfile:
    """Exact counts of K_k-free edge subsets by size: the independence
    profile of the clique hypergraph on the m edges of g."""
    core = covered_profile(clique_edge_indices(g, clique_order))
    return IndependenceProfile(g.m, add_free_vertices(core, g.m))


def independence_poly(hyperedges) -> Poly:
    """Probability polynomial in p that a Bernoulli(p) vertex subset of a
    hypergraph is independent, from its hyperedges alone.

    The one map from the engine's profile to a polynomial: vertices in no
    hyperedge cancel (p + (1-p) = 1), so the vertex count is not needed and
    the degree is at most the covered-vertex count.
    """
    return _core_poly(covered_profile(hyperedges))


def tf_poly(g: Graph, clique_order: int = 3) -> Poly:
    """Probability polynomial in p that the Bernoulli(p) edge-subgraph of g
    has no K_k copy.

    Equals sum_s tf(g, s) p^s (1-p)^(m-s); edges outside every copy cancel
    (p + (1-p) = 1), so the degree is at most the covered-edge count.
    """
    return independence_poly(clique_edge_indices(g, clique_order))


def poly_eval(poly: Poly, p) -> Fraction:
    """Exact value at a probability p in [0, 1] (check_probability)."""
    return poly.eval(check_probability(p))
