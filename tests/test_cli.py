import gc
import io
import json
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import trifree
from trifree import (
    CliqueHypergraph,
    Poly,
    canonical_form,
    independence_probability,
    linear_triple_bound,
    mantel_plus_one,
    tf_poly,
    tf_profile,
    two_extra_edge_candidates,
    write_graph6,
)
from trifree.cli import main, parse_probability, resolve_graph
from trifree.enumeration import class_names
from trifree.exact import independence_poly
from trifree.hypergraph import _cached_profile
from trifree.verify import (
    _P_GRID,
    check_linear_bound,
    check_ls,
    check_one_extra,
    check_two_extra,
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_package_exports_resolve():
    import trifree

    assert len(set(trifree.__all__)) == len(trifree.__all__)
    namespace = {}
    exec("from trifree import *", namespace)  # AttributeError on a missing name
    assert set(trifree.__all__) <= namespace.keys()


def test_parse_probability():
    assert parse_probability("1/2") == (Fraction(1, 2), False)
    assert parse_probability("0.3") == (Fraction(3, 10), True)
    assert parse_probability("0.25") == (Fraction(1, 4), True)
    assert parse_probability("1") == (Fraction(1), False)
    with pytest.raises(ValueError):
        parse_probability("half")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_probability("1/0")
    for bad in ("nan", "inf", "1e400", "1/2.5"):
        with pytest.raises(ValueError, match=f"^cannot parse probability '{bad}'$"):
            parse_probability(bad)


@pytest.mark.parametrize("command", ["phi", "mc"])
@pytest.mark.parametrize("bad", ["nan", "inf", "1e400", "1/2.5", "1.x"])
def test_unparsable_probability_exit_2(capsys, command, bad):
    code, out, err = run_cli(capsys, [command, "--graph", "K:3,3", "--p", bad])
    assert code == 2
    assert out == ""
    assert err == f"error: cannot parse probability '{bad}'\n"


def test_resolve_graph_constructors():
    assert resolve_graph("mantel+1:6") == mantel_plus_one(6)
    assert resolve_graph("K:3,3").m == 9
    assert resolve_graph("complete:4").m == 6
    star, split, path = two_extra_edge_candidates()
    assert resolve_graph("g1") == star
    assert resolve_graph("g2") == split
    assert resolve_graph("g3") == path
    assert resolve_graph("Bw").m == 3


def test_phi_command_json(capsys):
    code, out, _ = run_cli(
        capsys, ["phi", "--graph", "mantel+1:6", "--p", "1/2"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial_text"] == "1 - 3*p^3 + 3*p^5 - p^7"
    assert payload["value"] == "91/128"
    assert payload["p"] == {"value": "1/2", "from_decimal": False}
    assert payload["profile"][0] == "1"


def test_phi_command_named_candidate(capsys):
    code, out, _ = run_cli(capsys, ["phi", "--graph", "g1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["polynomial_text"] == (
        "1 - 6*p^3 + 9*p^5 + 6*p^6 - 14*p^7 - 3*p^8 + 12*p^9 - 6*p^10 + p^11"
    )


def test_phi_command_bipartite_value_one(capsys):
    code, out, _ = run_cli(capsys, ["phi", "--graph", "K:3,3", "--p", "1/2"])
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_phi_decimal_p_flagged(capsys):
    code, out, _ = run_cli(capsys, ["phi", "--graph", "Bw", "--p", "0.5"])
    assert code == 0
    assert json.loads(out)["p"] == {"value": "1/2", "from_decimal": True}


def test_phi_clique_order_flag(capsys):
    code, out, _ = run_cli(capsys, ["phi", "--graph", "complete:4", "--k", "4"])
    assert code == 0
    assert json.loads(out)["polynomial_text"] == "1 - p^6"


def test_phi_text_format(capsys):
    code, out, _ = run_cli(
        capsys, ["phi", "--graph", "complete:4", "--p", "1/2", "--format", "text"]
    )
    assert code == 0
    assert "41/64" in out


def test_phi_stdin(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(write_graph6(mantel_plus_one(6))))
    code, out, _ = run_cli(capsys, ["phi", "--stdin"])
    assert code == 0
    assert json.loads(out)["m"] == 10


def test_phi_graph_file_edge_list(capsys, tmp_path):
    path = tmp_path / "g.txt"
    # blank and '#' lines are skipped wherever they stand
    for text in ("0 1\n0 2\n1 2\n", "# triangle\n0 1\n1 2\n0 2\n"):
        path.write_text(text)
        code, out, _ = run_cli(capsys, ["phi", "--graph-file", str(path)])
        assert code == 0, text
        assert json.loads(out)["polynomial_text"] == "1 - p^3"


def phi_through(capsys, monkeypatch, tmp_path, source, text):
    """Run phi on text through one of the three graph sources."""
    if source == "--graph":
        argv = ["phi", "--graph", text]
    elif source == "--graph-file":
        path = tmp_path / "g.txt"
        path.write_bytes(text.encode())
        argv = ["phi", "--graph-file", str(path)]
    else:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        argv = ["phi", "--stdin"]
    return run_cli(capsys, argv + ["--p", "1/3"])


SOURCES = ("--graph", "--graph-file", "--stdin")


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize(
    "text",
    [
        ">>graph6<<\nBw\n",  # the header on its own line
        ">>graph6<<Bw\n",  # the header on the graph's line
        "\n\nBw\n\n",
        "\r\n>>graph6<<\r\nBw\r\n\r\n",
        "# triangle\n0 1\n1 2\n0 2\n",
        "# triangle\r\n0 1\r\n\r\n1 2\r\n# last edge\r\n0 2\r\n",
        "complete:3",
    ],
)
def test_every_source_reads_every_layout(capsys, monkeypatch, tmp_path, source, text):
    want = run_cli(capsys, ["phi", "--graph", "complete:3", "--p", "1/3"])
    assert want[0] == 0
    assert phi_through(capsys, monkeypatch, tmp_path, source, text) == want


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize(
    "name", ["mantel+1:6", "K:3,3", "complete:4", "g1", "g2", "g3", "mantel+1:5"]
)
def test_every_constructor_through_every_source(capsys, monkeypatch, tmp_path, source, name):
    code, out, _ = phi_through(capsys, monkeypatch, tmp_path, source, name + "\n")
    assert code == 0
    assert json.loads(out)["graph6"] == write_graph6(resolve_graph(name))
    assert phi_through(capsys, monkeypatch, tmp_path, "--graph", name) == (code, out, "")


@pytest.mark.parametrize("source", SOURCES)
def test_source_without_a_graph_exit_2(capsys, monkeypatch, tmp_path, source):
    for text in ("# nothing\n", "", "\n \n# a\n"):
        code, out, err = phi_through(capsys, monkeypatch, tmp_path, source, text)
        assert (code, out) == (2, ""), text
        assert err.startswith("error: no graph"), text


@pytest.mark.parametrize("source", SOURCES)
def test_two_graph_lines_exit_2_naming_the_count(capsys, monkeypatch, tmp_path, source):
    for text, count in (("Bw\nBw\n", 2), ("# three\nBw\nK:3,3\nCx\n0 1\n", 3)):
        code, out, err = phi_through(capsys, monkeypatch, tmp_path, source, text)
        assert (code, out) == (2, ""), text
        assert f"got {count}" in err, text


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize(
    "text, message",
    [
        # ':' and digits are never graph6 characters, so no graph6 error
        ("g4", "unknown constructor 'g4': expected mantel+1:N, K:a,b, complete:N or g1..g3"),
        ("G0", "unknown constructor 'G0'"),
        ("g12", "unknown constructor 'g12'"),
        ("complet:5", "unknown constructor 'complet:5'"),
        (":", "unknown constructor ':'"),
        ("mantel+1:x", "expected mantel+1:N with integer sizes, got 'mantel+1:x'"),
        ("complete:", "expected complete:N with integer sizes, got 'complete:'"),
        ("K:3,x", "expected K:a,b with integer sizes, got 'K:3,x'"),
        ("K:3", "expected K:a,b with integer sizes, got 'K:3'"),
        ("k:2,2,2", "expected K:a,b with integer sizes, got 'k:2,2,2'"),
        ("mantel+1:2", "'mantel+1:2' is not a valid mantel+1:N: need at least 3 vertices"),
        ("complete:0", "'complete:0' is not a valid complete:N: vertex count must be in 1..62"),
        ("K:40,40", "'K:40,40' is not a valid K:a,b: vertex count must be in 1..62, got 80"),
    ],
)
def test_misspelt_constructor_exit_2_naming_it(
    capsys, monkeypatch, tmp_path, source, text, message
):
    code, out, err = phi_through(capsys, monkeypatch, tmp_path, source, text + "\n")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}")
    assert "graph6" not in err and "int()" not in err


def test_edge_list_errors_name_the_file_line(capsys, tmp_path, monkeypatch):
    # one stray line among edges is an edge-list error, numbered in the input
    code, _, err = phi_through(capsys, monkeypatch, tmp_path, "--graph-file",
                               "\n# c\n0 1\n1 x\n")
    assert code == 2
    assert err == "error: line 4: non-integer vertex in '1 x'\n"


def test_phi_graph_file_graph6(capsys, tmp_path):
    path = tmp_path / "g.g6"
    path.write_text("Bw\n")
    code, out, _ = run_cli(capsys, ["phi", "--graph-file", str(path)])
    assert code == 0
    assert json.loads(out)["m"] == 3


@pytest.mark.parametrize("name, text", [("g.txt", "0 1\n0 2\n1 2\n"), ("g.g6", "Bw\n")])
def test_phi_graph_file_is_closed(capsys, tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, _ = run_cli(capsys, ["phi", "--graph-file", str(path)])
        gc.collect()
    assert code == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_usage_errors_exit_2(capsys):
    # argparse owns "exactly one graph source": none or two is SystemExit(2)
    for argv in (["phi"], ["phi", "--graph", "Bw", "--stdin"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    assert "--graph" in capsys.readouterr().err
    # --graph takes the named constructors; there is no second flag for them
    with pytest.raises(SystemExit) as exc:
        main(["phi", "--construct", "K:3,3"])
    assert exc.value.code == 2
    code, _, _ = run_cli(capsys, ["verify"])
    assert code == 2


@pytest.mark.parametrize(
    "graph6, message",
    [("!", "unsupported graph6 header (n=-30)"), ("Bx", "nonzero padding bits")],
)
def test_bad_graph6_exit_2_naming_the_fault(capsys, graph6, message):
    code, out, err = run_cli(capsys, ["phi", "--graph", graph6])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err


def test_search_without_vertices_exit_2(capsys):
    code, out, err = run_cli(capsys, ["search", "--n", "0", "--i", "1", "--p", "1/2"])
    assert code == 2
    assert out == ""
    assert err == "error: need at least one vertex\n"


def test_phi_p_out_of_range_exit_2(capsys):
    code, _, err = run_cli(capsys, ["phi", "--graph", "Bw", "--p", "3/2"])
    assert code == 2
    assert "[0, 1]" in err


def test_phi_zero_denominator_exit_2_before_counting(capsys, monkeypatch):
    def no_counting(*args):
        raise AssertionError("exact counting ran before --p was parsed")

    monkeypatch.setattr("trifree.exact.covered_profile", no_counting)
    code, out, err = run_cli(capsys, ["phi", "--graph", "K:3,3", "--p", "1/0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "zero denominator" in err


def test_phi_counts_the_covered_core_once(capsys):
    # tf_profile and tf_poly both ask the engine; the second is a cache hit
    g = mantel_plus_one(7)
    expected = {k: (tf_profile(g, k), tf_poly(g, k)) for k in (3, 4)}
    for k, (prof, poly) in expected.items():
        for fmt in ("json", "text", "csv"):
            _cached_profile.cache_clear()
            code, out, _ = run_cli(
                capsys, ["phi", "--graph", "mantel+1:7", "--k", str(k),
                         "--p", "1/3", "--format", fmt])
            assert code == 0
            assert _cached_profile.cache_info().misses == 1, fmt
            if fmt == "json":
                payload = json.loads(out)
                assert payload["profile"] == [str(c) for c in prof.counts]
                assert payload["polynomial"] == poly.to_json_dict()


def test_bipartite_construct_needs_two_sizes(capsys):
    for bad in ("K:3", "K:1,2,3"):
        code, _, err = run_cli(capsys, ["phi", "--graph", bad])
        assert code == 2, bad
        assert err.startswith("error:") and "K:a,b" in err, bad


def test_limit_exceeded_exit_3(capsys):
    for graph, count in (("complete:9", "36 covered"), ("mantel+1:30", "31 covered")):
        code, out, err = run_cli(capsys, ["phi", "--graph", graph])
        assert code == 3, graph
        assert out == ""
        assert count in err and "Monte Carlo" in err, graph
    # the enumeration limit is the one size limit of the exhaustive routes
    for argv in (["verify", "--one-extra", "9"],
                 ["verify", "--one-extra", "11"],
                 ["search", "--n", "9", "--i", "1", "--p", "1/2"]):
        code, out, err = run_cli(capsys, argv)
        assert code == 3, argv
        assert out == ""
        assert "enumeration supports n <= 8" in err.splitlines()[-1]


def test_search_command(capsys):
    code, out, _ = run_cli(capsys, ["search", "--n", "6", "--i", "1", "--p", "1/2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["max_value"] == "91/128"
    assert payload["maximizers"] == [canonical_form(mantel_plus_one(6)).decode("ascii")]


def test_envelope_command(capsys):
    code, out, _ = run_cli(capsys, ["envelope", "--n", "6", "--i", "2"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["segments"]) == 2
    assert abs(payload["crossovers"][0]["approx"] - 0.554958) < 1e-5


def test_mc_command_deterministic(capsys):
    argv = ["mc", "--graph", "mantel+1:12", "--p", "0.3", "--samples", "20000",
            "--seed", "1"]
    code, out1, _ = run_cli(capsys, argv)
    assert code == 0
    code, out2, _ = run_cli(capsys, argv + ["--jobs", "4"])
    assert code == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert set(payload) == {
        "mean", "ci_low", "ci_high", "samples", "seed", "p", "clique_order"
    }
    assert payload["p"] == "3/10"
    assert payload["clique_order"] == 3


def test_mc_records_the_clique_order(capsys):
    base = ["mc", "--graph", "complete:5", "--p", "1/2", "--samples", "2000"]
    for k in ("3", "4"):
        code, out, _ = run_cli(capsys, base + ["--k", k])
        assert code == 0
        assert json.loads(out)["clique_order"] == int(k)
        code, out, _ = run_cli(capsys, base + ["--k", k, "--format", "text"])
        assert code == 0
        assert f"clique order: {k}" in out
        code, out, _ = run_cli(capsys, base + ["--k", k, "--format", "csv"])
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.split(",")[-1] == "clique_order"
        assert row.split(",")[-1] == k


def test_mc_ignores_trifree_jobs(capsys, monkeypatch):
    # --jobs is the one worker setting: the environment changes nothing
    argv = ["mc", "--graph", "mantel+1:6", "--p", "1/2", "--samples", "100"]
    monkeypatch.delenv("TRIFREE_JOBS", raising=False)
    code, unset, _ = run_cli(capsys, argv)
    assert code == 0
    monkeypatch.setenv("TRIFREE_JOBS", "abc")
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert err == ""
    assert out == unset


def test_mc_jobs_below_one_exit_2(capsys):
    argv = ["mc", "--graph", "mantel+1:6", "--p", "1/2", "--samples", "100"]
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, argv + ["--jobs", jobs])
        assert code == 2, jobs
        assert out == ""
        assert err.startswith("error:") and "jobs" in err, jobs


def test_verify_command_pass_and_fail(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--ls", "5", "2"])
    assert code == 0
    assert json.loads(out)["pass"] is True

    # boundary case is genuinely false: honest nonzero exit
    code, out, _ = run_cli(capsys, ["verify", "--ls", "6", "3"])
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False

    code, out, _ = run_cli(capsys, ["verify", "--two-extra"])
    assert code == 0
    payload = json.loads(out)
    assert all(c["pass"] for c in payload["checks"])
    # exact bytes of the crossover enclosure (bisection of [1/2, 3/4] to 10^-12)
    crossover = payload["checks"][2]
    assert crossover["lhs"] == "[305091459579/549755813888, 610182919159/1099511627776]"
    assert crossover["witness"] == "approx 0.554958132087"


def test_verify_one_extra_cli(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--one-extra", "6"])
    assert code == 0
    assert json.loads(out)["pass"] is True
    code, out, _ = run_cli(capsys, ["verify", "--one-extra", "8", "--format", "text"])
    assert code == 0
    assert out.splitlines()[0].startswith("[PASS] n=8: ")


def test_verify_one_extra_capped_cli(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--one-extra", "9", "--capped"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    (check,) = payload["checks"]
    assert check["claim"] == (
        "n=9: bipartite-plus-edge construction is the unique maximizer "
        "for every p in (0, 1)"
    )
    assert check["lhs"] == "classes with <= 4 triangles ['H?F~vrw']"
    code, out, _ = run_cli(capsys, ["verify", "--one-extra", "10", "--capped",
                                    "--format", "text"])
    assert code == 0
    assert out.splitlines()[0].startswith("[PASS] n=10: ")


def test_verify_one_extra_capped_cli_limits(capsys):
    code, _, err = run_cli(capsys, ["verify", "--one-extra", "11", "--capped"])
    assert code == 3
    assert err.splitlines()[-1].startswith("limit exceeded:")
    for argv in (["--capped"], ["--all", "--capped"]):
        code, _, err = run_cli(capsys, ["verify", *argv])
        assert code == 2, argv
        assert "--capped needs --one-extra N" in err
    # --capped is the route that skips classes; verify has no --prune
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--one-extra", "8", "--prune"])
    assert exc.value.code == 2


def test_search_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["search", "--n", "4", "--i", "1", "--p", "1/2", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,max_value"
    assert len(lines) == 2


REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--all"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["checks"]) >= 10
    # byte for byte the stdout the benchmark references record
    assert out == json.loads(REFERENCES.read_text())["verify_cli"]


@pytest.mark.parametrize(
    "argv",
    [
        ["search", "--n", "3", "--i", "-5", "--p", "1/2"],
        ["verify", "--ls", "2", "-2"],
        ["envelope", "--n", "3", "--i", "-5"],
        ["classes", "--n", "3", "--m", "-1", "--out", "c.csv"],
    ],
)
def test_negative_edge_count_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    # verify prints a progress line first; the error line comes last
    last = err.splitlines()[-1]
    assert last.startswith("error:") and "edge count" in last
    assert "Traceback" not in err
    assert not any(tmp_path.iterdir())


def test_classes_command(capsys, tmp_path):
    out_path = tmp_path / "c.csv"
    code, out, err = run_cli(
        capsys, ["classes", "--n", "4", "--m", "4", "--out", str(out_path)]
    )
    assert code == 0
    assert json.loads(out)["written"] == 2
    assert out_path.read_text().startswith("graph6,triangles,coeffs")


def test_classes_streams_to_a_pipe():
    # a non-regular --out is only written, never read back or cut
    src = Path(trifree.__file__).resolve().parent.parent
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    argv = ["classes", "--n", "4", "--m", "3", "--out", "/dev/stdout"]
    child = subprocess.run(
        [sys.executable, "-m", "trifree.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    lines = child.stdout.splitlines()
    assert lines[0] == "graph6,triangles,coeffs"
    assert [line.split(",")[0] for line in lines[1:4]] == class_names(4, 3)
    assert json.loads(lines[4])["written"] == 3


# -- verify module internals -------------------------------------------------


def test_check_one_extra_reports():
    reports = check_one_extra(5)
    assert len(reports) == 1 and reports[0].passed


def test_check_ls_reports():
    assert check_ls(5, 2)[0].passed
    boundary = check_ls(6, 3)[0]
    assert not boundary.passed
    assert "informational" in boundary.claim


def test_check_linear_bound_reports():
    reports = check_linear_bound()
    assert all(r.passed for r in reports)


def test_check_linear_bound_names_its_first_failure(monkeypatch):
    # a bound of 0 is beaten by every hypergraph; the first in the corpus is
    # the edgeless graph on one vertex, r = 0
    monkeypatch.setattr("trifree.verify.linear_triple_bound", lambda r: Poly.zero())
    (report,) = check_linear_bound()
    assert not report.passed
    assert report.witness.endswith("; first failure at r=0, p=1/10")


def test_check_linear_bound_counts_the_equality_cases_of_a_lowered_bound(monkeypatch):
    # lowered by p^40 (1-p)^40, under 10^-40 on the grid, the bound is beaten
    # exactly where it held with equality: counted here on the Fraction route,
    # over 12 vertices (no corpus member has more; free vertices leave the
    # probability unchanged)
    corpus = []
    monkeypatch.setattr(
        "trifree.verify.independence_poly",
        lambda hedges: corpus.append(hedges) or independence_poly(hedges),
    )
    tiny = (Poly((0, 1)) * Poly((1, -1))) ** 40
    monkeypatch.setattr(
        "trifree.verify.linear_triple_bound", lambda r: linear_triple_bound(r) - tiny
    )
    (report,) = check_linear_bound()
    equal = sum(
        independence_probability(CliqueHypergraph(12, hedges), p)
        == linear_triple_bound(len(hedges)).eval(p)
        for hedges in corpus
        for p in _P_GRID
    )
    assert len(corpus) == 102 and equal > 0
    assert not report.passed
    assert report.lhs == f"{equal} violations"
    assert report.witness.endswith("; first failure at r=0, p=1/10")


def test_check_two_extra_reports():
    reports = check_two_extra()
    assert all(r.passed for r in reports)
    cubic_claims = [r for r in reports if "cubic" in r.claim]
    assert cubic_claims
