"""Exact and Monte Carlo tooling for triangle-free probabilities of
Bernoulli edge-subgraphs, with exhaustive extremal search above the
bipartite edge threshold."""

from .bounds import (
    CheckReport,
    LsBound,
    linear_triple_bound,
    ls_min_triangles,
    mantel_max_edges,
    one_extra_edge_optimum,
    tf_upper_bound,
)
from .enumeration import enumerate_graphs
from .errors import LimitExceededError
from .exact import poly_eval, tf_poly, tf_profile
from .graphs import (
    Graph,
    build_graph,
    canonical_form,
    complete_bipartite,
    complete_graph,
    mantel_plus_one,
    parse_edge_list,
    parse_graph6,
    triangle_count,
    two_extra_edge_candidates,
    write_graph6,
)
from .hypergraph import (
    CliqueHypergraph,
    IndependenceProfile,
    flower,
    from_graph,
    independence_probability,
    independence_profile,
    is_linear,
    random_linear_hypergraph,
)
from .montecarlo import Estimate, estimate_tf, lane_generator
from .polynomial import Poly
from .search import (
    EnvelopeReport,
    RootInterval,
    SearchReport,
    crossover_root,
    envelope,
    export_classes_csv,
    isolate_roots,
    maximize_tf,
    verify_one_extra_capped,
    verify_one_extra_optimum,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "CliqueHypergraph",
    "Estimate",
    "EnvelopeReport",
    "Graph",
    "IndependenceProfile",
    "LimitExceededError",
    "LsBound",
    "Poly",
    "RootInterval",
    "SearchReport",
    "build_graph",
    "canonical_form",
    "complete_bipartite",
    "complete_graph",
    "crossover_root",
    "enumerate_graphs",
    "envelope",
    "estimate_tf",
    "export_classes_csv",
    "flower",
    "from_graph",
    "independence_probability",
    "independence_profile",
    "is_linear",
    "isolate_roots",
    "lane_generator",
    "linear_triple_bound",
    "ls_min_triangles",
    "mantel_max_edges",
    "mantel_plus_one",
    "maximize_tf",
    "one_extra_edge_optimum",
    "parse_edge_list",
    "parse_graph6",
    "poly_eval",
    "random_linear_hypergraph",
    "tf_poly",
    "tf_profile",
    "tf_upper_bound",
    "triangle_count",
    "two_extra_edge_candidates",
    "verify_one_extra_capped",
    "verify_one_extra_optimum",
    "write_graph6",
]
