import gc
import json
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from trifree import (
    canonical_form,
    mantel_plus_one,
    tf_poly,
    tf_profile,
    two_extra_edge_candidates,
    write_graph6,
)
from trifree.cli import main, parse_probability, resolve_graph
from trifree.hypergraph import _mask_profile
from trifree.verify import check_linear_bound, check_ls, check_one_extra, check_two_extra


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
@pytest.mark.parametrize("bad", ["nan", "inf", "1e400", "1/2.5"])
def test_unparsable_probability_exit_2(capsys, command, bad):
    code, out, err = run_cli(capsys, [command, "--construct", "K:3,3", "--p", bad])
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
        capsys, ["phi", "--construct", "mantel+1:6", "--p", "1/2"]
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
    code, out, _ = run_cli(capsys, ["phi", "--construct", "K:3,3", "--p", "1/2"])
    assert code == 0
    assert json.loads(out)["value"] == "1"


def test_phi_decimal_p_flagged(capsys):
    code, out, _ = run_cli(capsys, ["phi", "--graph", "Bw", "--p", "0.5"])
    assert code == 0
    assert json.loads(out)["p"] == {"value": "1/2", "from_decimal": True}


def test_phi_clique_order_flag(capsys):
    code, out, _ = run_cli(capsys, ["phi", "--construct", "complete:4", "--k", "4"])
    assert code == 0
    assert json.loads(out)["polynomial_text"] == "1 - p^6"


def test_phi_text_format(capsys):
    code, out, _ = run_cli(
        capsys, ["phi", "--construct", "complete:4", "--p", "1/2", "--format", "text"]
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
    path.write_text("0 1\n0 2\n1 2\n")
    code, out, _ = run_cli(capsys, ["phi", "--graph-file", str(path)])
    assert code == 0
    assert json.loads(out)["polynomial_text"] == "1 - p^3"


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
    code, _, err = run_cli(capsys, ["phi"])
    assert code == 2
    assert "graph source" in err
    code, _, _ = run_cli(capsys, ["phi", "--graph", "Bw", "--construct", "K:2,2"])
    assert code == 2
    code, _, _ = run_cli(capsys, ["verify"])
    assert code == 2


def test_phi_p_out_of_range_exit_2(capsys):
    code, _, err = run_cli(capsys, ["phi", "--graph", "Bw", "--p", "3/2"])
    assert code == 2
    assert "[0, 1]" in err


def test_phi_zero_denominator_exit_2_before_counting(capsys, monkeypatch):
    def no_counting(*args):
        raise AssertionError("exact counting ran before --p was parsed")

    monkeypatch.setattr("trifree.exact.covered_profile", no_counting)
    code, out, err = run_cli(capsys, ["phi", "--construct", "K:3,3", "--p", "1/0"])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "zero denominator" in err


def test_phi_counts_the_covered_core_once(capsys):
    # tf_profile and tf_poly both ask the engine; the second is a cache hit
    g = mantel_plus_one(7)
    expected = {k: (tf_profile(g, k), tf_poly(g, k)) for k in (3, 4)}
    for k, (prof, poly) in expected.items():
        for fmt in ("json", "text", "csv"):
            _mask_profile.cache_clear()
            code, out, _ = run_cli(
                capsys, ["phi", "--construct", "mantel+1:7", "--k", str(k),
                         "--p", "1/3", "--format", fmt])
            assert code == 0
            assert _mask_profile.cache_info().misses == 1, fmt
            if fmt == "json":
                payload = json.loads(out)
                assert payload["profile"] == [str(c) for c in prof.counts]
                assert payload["polynomial"] == poly.to_json_dict()


def test_bipartite_construct_needs_two_sizes(capsys):
    for bad in ("K:3", "K:1,2,3"):
        code, _, err = run_cli(capsys, ["phi", "--construct", bad])
        assert code == 2, bad
        assert err.startswith("error:") and "K:a,b" in err, bad


def test_limit_exceeded_exit_3(capsys):
    code, _, err = run_cli(capsys, ["phi", "--construct", "complete:9"])
    assert code == 3
    assert "Monte Carlo" in err


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
    argv = ["mc", "--construct", "mantel+1:12", "--p", "0.3", "--samples", "20000",
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
    base = ["mc", "--construct", "complete:5", "--p", "1/2", "--samples", "2000"]
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


def test_mc_bad_trifree_jobs_exit_2(capsys, monkeypatch):
    argv = ["mc", "--construct", "mantel+1:6", "--p", "1/2", "--samples", "100"]
    monkeypatch.setenv("TRIFREE_JOBS", "abc")
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "TRIFREE_JOBS" in err
    # an explicit --jobs wins, and other commands never read the variable
    code, _, _ = run_cli(capsys, argv + ["--jobs", "2"])
    assert code == 0
    code, _, _ = run_cli(capsys, ["phi", "--graph", "Bw"])
    assert code == 0
    monkeypatch.setenv("TRIFREE_JOBS", "2")
    code, from_env, _ = run_cli(capsys, argv)
    assert code == 0
    monkeypatch.delenv("TRIFREE_JOBS")
    code, default, _ = run_cli(capsys, argv)
    assert code == 0
    assert from_env == default


def test_mc_jobs_below_one_exit_2(capsys, monkeypatch):
    argv = ["mc", "--construct", "mantel+1:6", "--p", "1/2", "--samples", "100"]
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, argv + ["--jobs", jobs])
        assert code == 2, jobs
        assert out == ""
        assert err.startswith("error:") and "jobs" in err, jobs
    monkeypatch.setenv("TRIFREE_JOBS", "0")
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.startswith("error:")


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
    for argv in (["--capped"], ["--all", "--capped"],
                 ["--one-extra", "8", "--capped", "--prune"]):
        code, _, err = run_cli(capsys, ["verify", *argv])
        assert code == 2, argv
        assert "--capped" in err


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
    reports = check_linear_bound(max_n=4, random_count=10)
    assert all(r.passed for r in reports)


def test_check_two_extra_reports():
    reports = check_two_extra()
    assert all(r.passed for r in reports)
    cubic_claims = [r for r in reports if "cubic" in r.claim]
    assert cubic_claims
