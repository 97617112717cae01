"""Command-line interface: exit codes, output shape, determinism."""

import json

import pytest

from albertson.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_verified_exits_zero(self, capsys):
        code, out, err = invoke(capsys, "verify", "--r", "13")
        assert code == 0
        assert "Verdict: Verified." in out
        assert "| 18 | 128 | 238 | 0.719 | 288 |" in out
        assert err == ""

    def test_gaps_exit_one(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--r", "17")
        assert code == 1
        assert "Gaps: 33, 34." in out
        assert "Join refinement at n = 32" in out

    def test_csv_format(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--r", "13", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,e,linear_bound,p,prob_bound,target,satisfied"
        assert len(lines) == 5

    def test_structured_format_is_json(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--r", "16",
                              "--format", "structured")
        assert code == 0
        doc = json.loads(out)
        assert doc["r"] == 16 and doc["verdict"] == "Verified"

    def test_markdown_notes_reference_discrepancy(self, capsys):
        _, out, _ = invoke(capsys, "verify", "--r", "15")
        assert "0.623" in out  # the single float-optimizer discrepancy

    def test_out_of_range_r(self, capsys):
        code, _, err = invoke(capsys, "verify", "--r", "31")
        assert code == 2
        assert "error:" in err

    def test_deterministic_output(self, capsys):
        first = invoke(capsys, "verify", "--r", "17")
        second = invoke(capsys, "verify", "--r", "17")
        assert first == second


class TestTable:
    def test_table_only(self, capsys):
        code, out, _ = invoke(capsys, "table", "--r", "13")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "| n | e | bound (4) | p | ⌈cr(n,m,p)⌉ |"
        assert len(lines) == 6  # header + separator + 4 rows

    def test_gaps_exit(self, capsys):
        assert invoke(capsys, "table", "--r", "17")[0] == 1


class TestEdges:
    def test_rules_listed(self, capsys):
        code, out, _ = invoke(capsys, "edges", "--r", "13", "--n", "18")
        assert code == 0
        assert "Dirac: m >= 113 (excess 10)" in out
        assert "Gallai: m >= 128 (excess 40)" in out
        assert "KS: m >= 118 (excess 20)" in out
        assert "best: m >= 128 via Gallai" in out

    def test_join_refinement_shown_at_2r_minus_2(self, capsys):
        _, out, _ = invoke(capsys, "edges", "--r", "17", "--n", "32")
        assert "join refinement" in out
        assert "279" in out

    def test_small_n_rejected(self, capsys):
        code, _, err = invoke(capsys, "edges", "--r", "13", "--n", "14")
        assert code == 2
        assert "error:" in err


class TestBound:
    def test_optimized(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--n", "18", "--m", "128")
        assert code == 0
        assert "linear: 240 via eq5" in out
        assert "p: 719/1000 (0.7190)" in out
        assert "probabilistic: 288" in out

    def test_explicit_p(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--n", "18", "--m", "128",
                              "--p", "1/2")
        assert code == 0
        assert "p: 1/2 (0.5000)" in out

    def test_decimal_p_accepted(self, capsys):
        _, out, _ = invoke(capsys, "bound", "--n", "18", "--m", "128",
                           "--p", "0.719")
        assert "p: 719/1000 (0.7190)" in out

    def test_bad_p(self, capsys):
        assert invoke(capsys, "bound", "--n", "18", "--m", "128",
                      "--p", "zero")[0] == 2

    def test_sparse_graph_lemma_inapplicable(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--n", "100", "--m", "300")
        assert code == 0
        assert "crossing lemma: inapplicable" in out

    def test_small_n_skips_probabilistic(self, capsys):
        code, out, _ = invoke(capsys, "bound", "--n", "5", "--m", "10")
        assert code == 0
        assert "probabilistic: inapplicable (needs n >= 10)" in out


class TestCounting:
    def test_reference_instance(self, capsys):
        code, out, _ = invoke(capsys, "counting", "--n", "61", "--m", "488",
                              "--s", "52")
        assert code == 0
        assert "counting: 1072" in out

    def test_base_selectable(self, capsys):
        code, out, _ = invoke(capsys, "counting", "--n", "20", "--m", "100",
                              "--s", "8", "--base", "eq1")
        assert code == 0
        assert "base = eq1" in out

    def test_s_above_n(self, capsys):
        assert invoke(capsys, "counting", "--n", "10", "--m", "30",
                      "--s", "11")[0] == 2


class TestLemma357:
    def test_r17(self, capsys):
        code, out, _ = invoke(capsys, "lemma357", "--r", "17")
        assert code == 0
        assert "minimal margin: 291384647/1624350 (179.3854) at n = 61" in out
        assert "holds: yes" in out

    def test_r16_rejected(self, capsys):
        assert invoke(capsys, "lemma357", "--r", "16")[0] == 2


class TestCatlin:
    def test_failures_reported(self, capsys):
        code, out, _ = invoke(capsys, "catlin", "--k", "50")
        assert code == 1
        assert "first k where the comparison holds: 8" in out
        assert "failing k: 1, 2, 3, 4, 5, 6, 7, 9, 11" in out

    def test_coefficients_shown(self, capsys):
        _, out, _ = invoke(capsys, "catlin", "--k", "13")
        assert "45/64" in out and "625/1024" in out


class TestFamilies:
    def test_delta(self, capsys):
        code, out, _ = invoke(capsys, "families", "--kind", "Delta",
                              "--r", "4")
        assert code == 0
        assert "Delta sizes=2,1,2: n=7 m=11 graph6=F`Neo" in out
        assert "critical(4): yes" in out
        assert "topological K4: yes (witness verified)" in out

    def test_explicit_sizes(self, capsys):
        code, out, _ = invoke(capsys, "families", "--kind", "EFamily",
                              "--sizes", "2,2,2,2")
        assert code == 0
        assert "n=9 m=20" in out

    def test_catlin_kind(self, capsys):
        code, out, _ = invoke(capsys, "families", "--kind", "Catlin",
                              "--k", "2")
        assert code == 0
        assert "n=10 m=25" in out
        assert "chromatic number: 5 (expected 5)" in out

    def test_missing_parameter(self, capsys):
        assert invoke(capsys, "families", "--kind", "Catlin")[0] == 2

    def test_invalid_sizes(self, capsys):
        assert invoke(capsys, "families", "--kind", "Delta",
                      "--sizes", "2,1,1")[0] == 2


class TestCheckList:
    def test_mixed_list(self, capsys, tmp_path):
        # C5 is 3-critical but not 4-critical; the last line is garbage
        path = tmp_path / "graphs.g6"
        path.write_text("Dhc\n# comment\n\nnot-a-graph\n")
        code, out, _ = invoke(capsys, "check-list", "--file", str(path), "--r", "4")
        assert code == 1
        assert "1: n=5 m=5 chi=3 critical(4)=no" in out
        assert "4: parse error" in out

    def test_all_good(self, capsys, tmp_path):
        # the odd wheel K1 v C5 is 4-critical and contains a topological K4
        path = tmp_path / "good.g6"
        path.write_text("E|fG\n")
        code, out, _ = invoke(capsys, "check-list", "--file", str(path), "--r", "4")
        assert code == 0
        assert "1: n=6 m=10 chi=4 critical(4)=yes topological K4=yes" in out

    def test_budget_reported_per_line(self, capsys, tmp_path):
        path = tmp_path / "big.g6"
        from albertson import Graph, serialize_graph6
        path.write_text(serialize_graph6(Graph(45, [])) + "\n")
        code, out, _ = invoke(capsys, "check-list", "--file", str(path), "--r", "4")
        assert code == 1
        assert "1: budget exceeded" in out

    def test_budget_flag_raises_cap(self, capsys, tmp_path):
        from albertson import Graph, serialize_graph6
        path = tmp_path / "big.g6"
        path.write_text(serialize_graph6(Graph(45, [])) + "\n")
        code, out, _ = invoke(capsys, "check-list", "--file", str(path), "--r", "4",
                              "--budget", "coloring=50,subdivision=50")
        assert code == 1  # empty graph is not 4-critical, but it was analyzed
        assert "chi=1" in out

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(capsys, "check-list", "--file", str(tmp_path / "no.g6"),
                              "--r", "4")
        assert code == 2
        assert "error:" in err


class TestUsage:
    def test_no_subcommand(self, capsys):
        assert invoke(capsys, )[0] == 2

    def test_unknown_subcommand(self, capsys):
        assert invoke(capsys, "frobnicate")[0] == 2

    def test_unknown_flag(self, capsys):
        assert invoke(capsys, "verify", "--r", "13", "--nope")[0] == 2

    def test_missing_required(self, capsys):
        assert invoke(capsys, "verify")[0] == 2

    @pytest.mark.parametrize("budget", ["colouring=3", "coloring=-5", "coloring=50,depth=2",
                                        "coloring", "coloring=lots"])
    def test_bad_budget(self, capsys, budget):
        code, out, err = invoke(capsys, "families", "--kind", "Delta", "--r", "4",
                                "--budget", budget)
        assert code == 2
        assert out == ""
        assert "--budget" in err
