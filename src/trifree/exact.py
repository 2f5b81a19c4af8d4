"""Exact counts of K_k-free edge subsets and the matching probability polynomial.

The keep-probability polynomial of a graph G is

    sum_s tf(G, s) * p^s * (1-p)^(m-s),

where tf(G, s) counts s-edge subsets containing no K_k (triangles by
default).  An edge subset is K_k-free exactly when it is an independent
vertex set of the clique hypergraph (vertices = edges of G, hyperedges =
K_k copies), so both maps below run on the one counting engine,
hypergraph.covered_profile.  Only edges lying in some K_k copy matter: an
edge outside every copy can be kept or dropped freely, which multiplies
the count profile by a binomial row and leaves the polynomial untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import LimitExceededError
from .graphs import Graph
from .hypergraph import (
    MAX_COVERED_VERTICES,
    add_free_vertices,
    clique_edge_indices,
    covered_profile,
)
from .polynomial import Poly


@dataclass(frozen=True)
class TfProfile:
    """counts[s] = number of K_k-free edge subsets of size s (exact ints)."""

    m: int
    counts: tuple[int, ...] = field(repr=False)
    clique_order: int = 3


def _covered_core(g: Graph, clique_order: int) -> tuple[int, ...]:
    """K_k-free subset counts by size over the edges lying in some K_k copy."""
    copies = clique_edge_indices(g, clique_order)
    c = len({e for idx in copies for e in idx})
    if c > MAX_COVERED_VERTICES:
        raise LimitExceededError(
            f"{c} covered edges exceeds the exact limit {MAX_COVERED_VERTICES}; "
            "use Monte Carlo estimation instead"
        )
    return covered_profile(copies)


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


def tf_profile(g: Graph, clique_order: int = 3) -> TfProfile:
    """Exact counts of K_k-free edge subsets by size."""
    core = _covered_core(g, clique_order)
    return TfProfile(g.m, add_free_vertices(core, g.m), clique_order)


def tf_poly(g: Graph, clique_order: int = 3) -> Poly:
    """Probability polynomial in p that the Bernoulli(p) edge-subgraph of g
    has no K_k copy.

    Equals sum_s tf(g, s) p^s (1-p)^(m-s); edges outside every copy cancel
    (p + (1-p) = 1), so the degree is at most the covered-edge count.
    """
    return _core_poly(_covered_core(g, clique_order))


def poly_eval(poly: Poly, p) -> Fraction:
    """Exact value at a probability p in [0, 1]."""
    p = Fraction(p)
    if not 0 <= p <= 1:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return poly.eval(p)

