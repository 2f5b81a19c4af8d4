"""Second-route checks of the benchmark's stored references.

Run: python3 -m pytest perfbench/check_references.py perfbench/check_trace.py

The file names keep these checks out of the repository's default test run;
passing the files explicitly collects them.
"""

import json
from collections import Counter
from fractions import Fraction

import pytest

import workloads
from spans import LAYER_FUNCTIONS
from workloads import covered_edges, phi_inputs, poly_from_profile, tf

REFS = workloads.load_references()


def construction(n: int) -> str:
    return tf.canonical_form(tf.mantel_plus_one(n)).decode("ascii")


def test_search_n7_reference_is_the_construction():
    out = {name: json.loads(text) for name, text in REFS["search_n7"].items()}
    verified = out["verify_one_extra_optimum(7)"]
    assert verified["pass"] is True
    assert verified["construction"] == construction(7)
    assert verified["equality_classes"] == [construction(7)]
    assert out["maximize_tf(7,1,1/2)"]["maximizers"] == [construction(7)]


def test_verify_cli_reference_passes_with_the_constructions():
    out = json.loads(REFS["verify_cli"])
    assert out["pass"] is True
    assert all(check["pass"] for check in out["checks"])
    one_extra = [c for c in out["checks"] if "bipartite-plus-edge" in c["claim"]]
    assert [c["rhs"] for c in one_extra] == [
        f"[{construction(n)!r}] with no violations" for n in (3, 4, 5, 6)
    ]


def atlas_level_sizes(n: int) -> list[int]:
    nx = pytest.importorskip("networkx")
    sizes = Counter(g.number_of_edges() for g in nx.graph_atlas_g() if g.number_of_nodes() == n)
    return [sizes[m] for m in range(n * (n - 1) // 2 + 1)]


def test_n7_level_sizes_match_the_graph_atlas():
    sizes = atlas_level_sizes(7)
    assert REFS["n7_level_sizes"] == sizes
    assert sum(sizes[1:14]) == 897
    out = {name: json.loads(text) for name, text in REFS["search_n7"].items()}
    assert out["verify_one_extra_optimum(7)"]["enumerated"] == sizes[13]
    assert out["maximize_tf(7,2,1/3,prune)"]["enumerated"] == sizes[14]


def test_canonical_call_anchor_counts_the_seed_ladder():
    # the seed ladder canonicalizes the edgeless graph, then every class on
    # levels 0..12 once per non-edge (21 - m of them at level m)
    sizes = atlas_level_sizes(7)
    calls = 1 + sum(sizes[m] * (21 - m) for m in range(13))
    assert REFS["canonical_calls_enumerate_7_13"] == calls == 9321


def test_mantel_references_match_the_closed_form():
    slots = [s for s in REFS["phi_corpus"]["slots"] if s["name"].startswith("mantel+1:")]
    assert len(slots) == 5
    for slot in slots:
        n = int(slot["name"].split(":")[1])
        (cand,) = slot["candidates"]
        assert cand["graph6"] == tf.write_graph6(tf.mantel_plus_one(n))
        coeffs = poly_from_profile([int(x) for x in cand["counts"]], tf.mantel_plus_one(n).m)
        assert coeffs == tf.one_extra_edge_optimum(n).coeffs
    (case,) = [c for c in REFS["mc_mix"] if c["name"] == "mantel+1:40"]
    assert Fraction(case["exact"]) == tf.one_extra_edge_optimum(40).eval(Fraction(case["p"]))


def test_k8_means_match_independence_probability():
    cases = [c for c in REFS["mc_mix"] if c["name"].startswith("K8")]
    assert {c["k"] for c in cases} == {3, 4}
    for case in cases:
        h = tf.from_graph(tf.parse_graph6(case["graph6"]), case["k"])
        assert Fraction(case["exact"]) == tf.independence_probability(h, Fraction(case["p"]))


def test_phi_pool_profiles_match_the_hypergraph_engine():
    for slot in REFS["phi_corpus"]["slots"]:
        for cand in slot["candidates"]:
            g = tf.parse_graph6(cand["graph6"])
            edges, copies = covered_edges(g, slot["k"])
            assert (len(edges), copies) == (slot["covered"], slot["copies"])
            hyper = tf.independence_profile(tf.from_graph(g, slot["k"]))
            assert [str(x) for x in hyper.counts] == cand["counts"], slot["name"]


def corpus_histogram(seed: int) -> Counter:
    return Counter(
        (len(covered_edges(item["graph"], item["k"])[0]), item["k"])
        for item in phi_inputs(seed, REFS)
    )


def test_phi_corpus_histogram_does_not_depend_on_the_seed():
    one, two = phi_inputs(1, REFS), phi_inputs(2, REFS)
    assert [tf.write_graph6(x["graph"]) for x in one] != [tf.write_graph6(x["graph"]) for x in two]
    assert corpus_histogram(1) == corpus_histogram(2)
    covered = sorted(c for c, _ in corpus_histogram(3).elements())
    assert covered[0] == 8 and covered[-1] == 24
    assert {k for _, k in corpus_histogram(3)} == {3, 4}


def test_phi_inputs_repeat_for_the_same_seed():
    a, b = phi_inputs(5, REFS), phi_inputs(5, REFS)
    assert [(x["graph"], x["ps"]) for x in a] == [(x["graph"], x["ps"]) for x in b]


def test_benchmark_json_declares_what_the_run_reports():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    from run import UNGATED

    declared = [w for w in workloads.WORKLOADS if w not in UNGATED]
    assert [w["name"] for w in spec["workloads"]] == declared
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    from spans import layer_metrics

    names = [*layer_metrics([]), "process.cpu_s", "process.wall_unscaled_s",
             "host.calibration_s", "trace_overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == names
    assert {f"{f}.self_s" for f in LAYER_FUNCTIONS} <= set(names)
