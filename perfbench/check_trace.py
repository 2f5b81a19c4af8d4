"""Checks of the benchmark's tracing: identical outputs, spans, self time.

Run: python3 -m pytest perfbench/check_references.py perfbench/check_trace.py
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import spans
import trifree.cli
import workloads
from workloads import BENCH, ROOT, SRC, dumps, tf

REFS = workloads.load_references()
ENV = dict(os.environ, PYTHONPATH=str(SRC))


def small_thunks():
    """Cheap operations through the same code paths as the workloads."""
    refs = dict(REFS, phi_corpus={"slots": REFS["phi_corpus"]["slots"][:8]})
    thunks = [thunk for _, thunk in workloads.phi_corpus(4, refs).ops]
    for item in workloads.mc_inputs(4, REFS):
        item["samples"] = 3 * workloads.LANE_SIZE + 5
        thunks.append(lambda item=item: workloads._mc_op(item))
    return thunks + [
        lambda: tf.verify_one_extra_optimum(5).to_json(),
        lambda: tf.maximize_tf(6, 2, Fraction(1, 3), prune=True).to_json(include_runtime=False),
        lambda: tf.envelope(6, 2).to_json(),
    ]


def test_traced_and_untraced_in_process_outputs_are_byte_identical():
    thunks = small_thunks()
    plain = [dumps(thunk()) for thunk in thunks]
    original = tf.canonical_form
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tf.canonical_form is not original
        traced = [dumps(thunk()) for thunk in thunks]
    finally:
        tracer.uninstall()
    assert tf.canonical_form is original
    assert tf.search.canonical_form is original
    assert traced == plain
    names = {s[1] for s in tracer.spans}
    assert {"exact.tf_profile", "hypergraph.independence_profile", "polynomial.Poly.eval",
            "montecarlo.estimate_tf", "montecarlo.lane_generator", "search.envelope",
            "search.isolate_roots", "bounds.linear_triple_bound"} <= names
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["montecarlo.lanes"] == 4
    assert metrics["exact.covered_subsets"] > 0
    assert all(drawn == want for drawn, want in spans.lanes_per_estimate(tracer.spans))


def cli_in_process(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = trifree.cli.main(args)
    return code, out.getvalue()


def test_cli_entry_point_traced_or_not_gives_the_bytes_of_a_cli_process():
    args = ["verify", "--two-extra"]
    process = subprocess.run([sys.executable, "-m", "trifree.cli", *args], cwd=ROOT, env=ENV,
                             capture_output=True, text=True, timeout=120)
    plain = cli_in_process(args)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = cli_in_process(args)
    finally:
        tracer.uninstall()
    assert process.returncode == plain[0] == traced[0] == 0
    assert process.stdout == plain[1] == traced[1]
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["cli.main.calls"] == 1
    assert metrics["verify.check_two_extra.calls"] == 1
    assert metrics["search.crossover_root.calls"] == 1


def test_traced_verify_cli_job_reports_the_import_time(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "verify_cli", "1", "1",
         str(tmp_path / "spans.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    row = json.loads(out.stdout.splitlines()[-1])
    assert row["failures"] == []
    assert row["layers"]["cli.main.calls"] == 1
    assert 0 < row["layers"]["cli.import_s"] < row["setup_unscaled_s"]


def test_self_time_subtracts_the_union_of_children():
    recorded = [
        (0, "a", 0.0, 10.0, None, None),
        (1, "b", 1.0, 4.0, 0, None),
        (2, "b", 3.0, 6.0, 0, None),  # overlaps its sibling (another thread)
        (3, "c", 2.0, 3.0, 1, None),
    ]
    assert spans._self_times(recorded) == {0: 5.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_ladder_counts_take_canonical_calls_inside_enumerate_spans():
    recorded = [
        (0, "search.enumerate_graphs", 0.0, 5.0, None, {"n": 4, "m": 2}),
        (1, "graphs.canonical_form", 1.0, 2.0, 0, "C?"),  # edgeless: not a class
        (2, "graphs.canonical_form", 2.0, 3.0, 0, "C@"),
        (3, "graphs.canonical_form", 3.0, 4.0, 0, "C@"),
        (4, "graphs.canonical_form", 6.0, 7.0, None, "CA"),  # outside any ladder
        (5, "search.enumerate_graphs", 8.0, 9.0, None, {"n": 4, "m": 3}),
        (6, "graphs.canonical_form", 8.5, 8.9, 5, "CB"),
    ]
    assert spans.ladder_counts(recorded) == (4, 2)
    assert spans.ladder_counts(recorded, first_only_nm=(4, 2)) == (3, 1)
    assert spans.ladder_counts(recorded, first_only_nm=(5, 2)) == (0, 0)


def test_traced_search_n7_reports_the_baseline_anchors(tmp_path):
    spans_file = tmp_path / "spans.json"
    out = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "search_n7", "1", "1", str(spans_file)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    row = json.loads(out.stdout.splitlines()[-1])
    assert row["failures"] == []
    anchors = row["anchors"]
    assert anchors["classes on levels 1..13 (traced)"] == 897
    assert anchors["classes on levels 1..13 (enumerate_graphs)"] == 897
    assert anchors["canonical_form calls inside enumerate_graphs(7, 13)"] >= 897
    assert row["layers"]["search.classes"] == sum(REFS["n7_level_sizes"][1:17])
