"""Closed-form thresholds and certified bounds.

Mantel's edge threshold, the Lovász–Simonovits triangle lower bound, the
exact optimum polynomial one edge above the threshold, and the linear
triple-system independence bound evaluated through a graph's triangle
count.  Everything here is exact: integer polynomials and rational
comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .graphs import Graph, triangle_count
from .polynomial import Poly, check_probability


@dataclass(frozen=True)
class LsBound:
    """Triangle lower bound i*floor(n/2); in_range is False when the surplus
    lies outside the proven range i < n/2 (value then extrapolated, not
    asserted)."""

    count: int
    in_range: bool


def mantel_max_edges(n: int) -> int:
    """Maximum edges of a triangle-free graph on n vertices: floor(n^2/4)."""
    if n < 1:
        raise ValueError("need at least one vertex")
    return n * n // 4


def ls_min_triangles(n: int, i: int) -> LsBound:
    """Minimum triangles forced by floor(n^2/4) + i edges on n vertices.

    The bound i * floor(n/2) holds for every surplus 1 <= i < n/2 (strict).
    It genuinely fails at the boundary i = n/2: the complete tripartite
    graph with parts of size 2 has floor(36/4) + 3 edges on 6 vertices but
    only 8 < 9 triangles.  Outside the proven range the value is still
    returned, flagged out of range rather than silently extrapolated.
    """
    return LsBound(i * (n // 2), 1 <= i and 2 * i < n)


def one_extra_edge_optimum(n: int) -> Poly:
    """Exact maximum of the triangle-free probability over n-vertex graphs
    with floor(n^2/4) + 1 edges: 1 - p + p * (1 - p^2)^floor(n/2).

    Attained by the complete bipartite graph plus one edge inside the
    larger part (see graphs.mantel_plus_one).
    """
    if n < 3:
        raise ValueError("need at least 3 vertices")
    return linear_triple_bound(n // 2)


def linear_triple_bound(r: int) -> Poly:
    """Upper bound polynomial 1 - p + p * (1-p^2)^r for the probability that
    a Bernoulli(p) vertex subset of a linear 3-uniform hypergraph with r
    hyperedges is independent.  Equality holds for the flower."""
    if r < 0:
        raise ValueError("edge count must be nonnegative")
    one_minus_p2 = Poly((1, 0, -1))
    return Poly((1, -1)) + (one_minus_p2**r).shift(1)


def tf_upper_bound(g: Graph, p) -> Fraction:
    """Certified upper bound on the triangle-free probability of the
    Bernoulli(p) subgraph: the linear triple bound at r = t(g).

    Valid for every graph because two distinct triangles share at most one
    edge, so the triangle hypergraph is always linear.
    """
    return linear_triple_bound(triangle_count(g)).eval(check_probability(p))


@dataclass(frozen=True)
class CheckReport:
    """One verified claim, JSON-ready: lhs <relation> rhs."""

    claim: str
    lhs: str
    rhs: str
    relation: str
    witness: str
    passed: bool

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "relation": self.relation,
            "witness": self.witness,
            "pass": self.passed,
        }
