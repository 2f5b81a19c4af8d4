"""Each input rule has one written check and one message, reached from
every public entry that takes the input."""

import json
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import trifree
from trifree import (
    CliqueHypergraph,
    Graph,
    LimitExceededError,
    build_graph,
    canonical_form,
    complete_bipartite,
    complete_graph,
    estimate_tf,
    from_graph,
    independence_probability,
    mantel_plus_one,
    maximize_tf,
    parse_edge_list,
    poly_eval,
    tf_poly,
    tf_profile,
    tf_upper_bound,
)
from trifree.enumeration import class_names
from trifree.graphs import clique_edge_indices, cliques
from trifree.search import verify_one_extra_capped

K4 = complete_graph(4)
HALF = Fraction(1, 2)

CLIQUE_ORDER_ENTRIES = {
    "cliques": lambda k: cliques(K4, k),
    "clique_edge_indices": lambda k: clique_edge_indices(K4, k),
    "from_graph": lambda k: from_graph(K4, k),
    "CliqueHypergraph": lambda k: CliqueHypergraph(6, (), k),
    "tf_profile": lambda k: tf_profile(K4, k),
    "tf_poly": lambda k: tf_poly(K4, k),
    "estimate_tf": lambda k: estimate_tf(K4, HALF, 10, seed=0, clique_order=k),
}


@pytest.mark.parametrize("entry", CLIQUE_ORDER_ENTRIES)
@pytest.mark.parametrize("k", [1, 0, -1, 2.5, 3.0])
def test_clique_order_rule(entry, k):
    # a float never passes, even 3.0: 2.5 used to list no copy at all
    want = f"^clique order must be an integer at least 2, got {re.escape(repr(k))}$"
    with pytest.raises(ValueError, match=want):
        CLIQUE_ORDER_ENTRIES[entry](k)


@pytest.mark.parametrize("entry", CLIQUE_ORDER_ENTRIES)
def test_clique_order_rule_accepts_a_numpy_integer(entry):
    assert CLIQUE_ORDER_ENTRIES[entry](np.int64(3)) == CLIQUE_ORDER_ENTRIES[entry](3)


def test_a_numpy_clique_order_is_stored_as_an_int():
    assert type(from_graph(K4, np.int64(3)).clique_order) is int
    assert type(CliqueHypergraph(6, (), np.int64(4)).clique_order) is int
    est = estimate_tf(complete_graph(5), HALF, 100, 1, clique_order=np.int64(3))
    assert type(est.clique_order) is int
    want = estimate_tf(complete_graph(5), HALF, 100, 1, clique_order=3)
    assert json.dumps(est.to_json()) == json.dumps(want.to_json())


ESTIMATE_INTEGER_INPUTS = {
    "samples": lambda x: estimate_tf(K4, HALF, x, seed=0),
    "seed": lambda x: estimate_tf(K4, HALF, 10, seed=x),
    # three lanes: jobs=1.5 used to reach range() and raise TypeError
    "jobs": lambda x: estimate_tf(K4, HALF, 3 << 14, seed=0, jobs=x),
}


@pytest.mark.parametrize(
    "name, x, want",
    [
        ("samples", 0, "samples must be an integer at least 1, got 0"),
        ("samples", 100.0, "samples must be an integer at least 1, got 100.0"),
        ("seed", 3.0, "seed must be an integer, got 3.0"),
        ("seed", "3", "seed must be an integer, got '3'"),
        ("jobs", 0, "jobs must be an integer at least 1, got 0"),
        ("jobs", 1.5, "jobs must be an integer at least 1, got 1.5"),
    ],
)
def test_estimate_integer_rules(name, x, want):
    with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
        ESTIMATE_INTEGER_INPUTS[name](x)


def test_estimate_stores_numpy_integers_as_ints():
    # np.int64 samples did not dump to JSON, and an np.int64 seed raised
    # OverflowError when the lane key masked it to 64 bits
    g = complete_graph(5)
    est = estimate_tf(g, HALF, np.int64(100), np.int64(3), jobs=np.int64(2))
    assert (type(est.samples), type(est.seed)) == (int, int)
    want = estimate_tf(g, HALF, 100, 3, jobs=2)
    assert est == want
    assert json.dumps(est.to_json()) == json.dumps(want.to_json())
    top = estimate_tf(g, HALF, 100, np.uint64(2**64 - 1))
    assert top.successes == estimate_tf(g, HALF, 100, -1).successes  # one key mod 2^64


CLOSED_ENTRIES = {
    "poly_eval": lambda p: poly_eval(tf_poly(K4), p),
    "IndependenceProfile.probability": lambda p: tf_profile(K4).probability(p),
    "independence_probability": lambda p: independence_probability(from_graph(K4), p),
    "tf_upper_bound": lambda p: tf_upper_bound(K4, p),
}
OPEN_ENTRIES = {
    "maximize_tf": lambda p: maximize_tf(4, 1, p),
    "estimate_tf": lambda p: estimate_tf(K4, p, 10, seed=0),
}


@pytest.mark.parametrize("entry", CLOSED_ENTRIES)
@pytest.mark.parametrize("p", [Fraction(-1, 10), Fraction(11, 10), 2])
def test_probability_rule_closed(entry, p):
    with pytest.raises(ValueError, match=f"^p must lie in \\[0, 1\\], got {p}$"):
        CLOSED_ENTRIES[entry](p)
    assert CLOSED_ENTRIES[entry](0) in (0, 1)
    assert CLOSED_ENTRIES[entry](1) in (0, 1)


@pytest.mark.parametrize("entry", OPEN_ENTRIES)
@pytest.mark.parametrize("p", [0, 1, Fraction(-1, 10), 2])
def test_probability_rule_open(entry, p):
    with pytest.raises(ValueError, match=f"^p must lie strictly inside \\(0, 1\\), got {p}$"):
        OPEN_ENTRIES[entry](p)


@pytest.mark.parametrize(
    "entry",
    [
        lambda: canonical_form(complete_graph(11)),
        lambda: class_names(11, 3),
        lambda: verify_one_extra_capped(11),
    ],
    ids=["canonical_form", "class_names", "verify_one_extra_capped"],
)
def test_canonical_form_rule(entry):
    with pytest.raises(LimitExceededError, match="^canonical form supports n <= 10, got n=11$"):
        entry()


@pytest.mark.parametrize(
    "entry, n",
    [
        (lambda: Graph(0, []), 0),
        (lambda: build_graph(63, []), 63),
        (lambda: parse_edge_list("0 1", n=63), 63),
        (lambda: complete_graph(0), 0),
        (lambda: complete_graph(63), 63),
        (lambda: complete_bipartite(40, 40), 80),
        (lambda: mantel_plus_one(63), 63),
    ],
    ids=[
        "Graph",
        "build_graph",
        "parse_edge_list",
        "complete_graph-0",
        "complete_graph-63",
        "complete_bipartite",
        "mantel_plus_one",
    ],
)
def test_vertex_count_rule(entry, n):
    with pytest.raises(ValueError, match=f"^vertex count must be in 1..62, got {n}$"):
        entry()


@pytest.mark.parametrize(
    "message",
    [
        "clique order must be",
        "p must lie in [0, 1]",
        "p must lie strictly inside (0, 1)",
        "canonical form supports",
        "vertex count must be in",
    ],
)
def test_each_rule_is_written_once(message):
    source = "".join(p.read_text() for p in Path(trifree.__file__).parent.glob("*.py"))
    assert source.count(message) == 1
