import json
from fractions import Fraction

import pytest

from trifree import (
    canonical_form,
    mantel_plus_one,
    tf_poly,
    tf_profile,
    two_extra_edge_candidates,
    write_graph6,
)
from trifree import exact
from trifree.cli import main, parse_probability, resolve_graph
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


def test_phi_counts_the_covered_core_once(capsys, monkeypatch):
    engine = exact.covered_profile
    calls = []

    def counted(copies):
        calls.append(len(copies))
        return engine(copies)

    g = mantel_plus_one(7)
    expected = {k: (tf_profile(g, k), tf_poly(g, k)) for k in (3, 4)}
    monkeypatch.setattr("trifree.exact.covered_profile", counted)
    for k, (prof, poly) in expected.items():
        for fmt in ("json", "text", "csv"):
            calls.clear()
            code, out, _ = run_cli(
                capsys, ["phi", "--construct", "mantel+1:7", "--k", str(k),
                         "--p", "1/3", "--format", fmt])
            assert code == 0
            assert len(calls) == 1, fmt
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
    assert set(payload) == {"mean", "ci_low", "ci_high", "samples", "seed", "p"}
    assert payload["p"] == "3/10"


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


def test_verify_one_extra_cli(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--one-extra", "6"])
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_search_csv_format(capsys):
    code, out, _ = run_cli(
        capsys,
        ["search", "--n", "4", "--i", "1", "--p", "1/2", "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "graph6,max_value"
    assert len(lines) == 2


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--all"])
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["checks"]) >= 10


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
