"""Command-line interface: exit codes, output shape, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

import albertson
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

    @pytest.mark.parametrize("argv,message", [
        (("--n", "10", "--m", "-3"), "m must be >= 0"),
        (("--n", "2", "--m", "3"), "linear rules need n >= 3"),
        (("--n", "10", "--m", "40", "--p", "2"), "p must be in (0, 1]"),
    ], ids=["negative_m", "small_n", "p_above_one"])
    def test_domain_error_writes_no_stdout(self, capsys, argv, message):
        code, out, err = invoke(capsys, "bound", *argv)
        assert (code, out) == (2, "")
        assert message in err


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

    def test_negative_edge_count(self, capsys):
        code, out, err = invoke(capsys, "counting", "--n", "10", "--m", "-3", "--s", "5")
        assert (code, out) == (2, "")
        assert "m must be >= 0" in err


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
        for kind, message in (("Catlin", "Catlin needs --k"),
                              ("Complete", "Complete needs --n"),
                              ("Delta", "Delta needs --r (all splits) or --sizes (one split)")):
            code, out, err = invoke(capsys, "families", "--kind", kind)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv, message", [
        (["--kind", "Catlin", "--k", "2", "--r", "9", "--sizes", "1,2"], "Catlin does not take --r"),
        (["--kind", "Catlin", "--k", "2", "--sizes", "1,2"], "Catlin does not take --sizes"),
        (["--kind", "Catlin", "--k", "2", "--n", "5"], "Catlin does not take --n"),
        (["--kind", "Complete", "--n", "5", "--k", "2"], "Complete does not take --k"),
        (["--kind", "Complete", "--r", "5"], "Complete does not take --r"),
        (["--kind", "Delta", "--r", "5", "--k", "2"], "Delta does not take --k"),
        (["--kind", "EFamily", "--sizes", "2,2,2,2", "--n", "9"], "EFamily does not take --n"),
        (["--kind", "Delta", "--r", "5", "--sizes", "3,1,3"], "Delta takes --r or --sizes, not both"),
        (["--kind", "EFamily", "--r", "5", "--sizes", "2,2,2,2"],
         "EFamily takes --r or --sizes, not both"),
    ])
    def test_rejects_options_the_kind_does_not_take(self, capsys, argv, message):
        assert invoke(capsys, "families", *argv) == (2, "", f"error: {message}\n")

    def test_invalid_sizes(self, capsys):
        assert invoke(capsys, "families", "--kind", "Delta",
                      "--sizes", "2,1,1")[0] == 2
        code, _, err = invoke(capsys, "families", "--kind", "Delta", "--sizes", "3,x")
        assert code == 2 and "not a comma-separated size list: '3,x'" in err

    def test_subdivision_budget_stops_before_criticality(self, capsys, monkeypatch):
        # Delta(11) has n = 21, over the default subdivision budget of 20: the
        # TK search raises before the criticality check would run
        def refuse(*args, **kwargs):
            raise AssertionError("criticality checked for a member whose TK search failed")

        monkeypatch.setattr("albertson.graph_lab.is_critical", refuse)
        code, out, err = invoke(capsys, "families", "--kind", "Delta", "--r", "11")
        assert code == 2
        assert "chromatic number: 11 (expected 11)" in out
        assert "subdivision budget" in err

    def test_recursion_limit_exits_2(self, capsys, monkeypatch):
        # a route deeper than the interpreter allows stops the command
        def too_deep(*args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("albertson.graph_lab._route", too_deep)
        code, _, err = invoke(capsys, "families", "--kind", "Delta", "--r", "4")
        assert code == 2
        assert "error: subdivision search exceeds the recursion limit" in err


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

    def test_unverified_witness_is_no(self, capsys, tmp_path, monkeypatch):
        # a witness that fails its check does not count as a topological K4
        monkeypatch.setattr(albertson.SubdivisionWitness, "verify", lambda self, g: False)
        path = tmp_path / "good.g6"
        path.write_text("E|fG\n")
        code, out, _ = invoke(capsys, "check-list", "--file", str(path), "--r", "4")
        assert code == 1
        assert "1: n=6 m=10 chi=4 critical(4)=yes topological K4=no" in out

    def test_budget_reported_per_line(self, capsys, tmp_path):
        path = tmp_path / "big.g6"
        from albertson import Graph, serialize_graph6
        path.write_text(serialize_graph6(Graph(45, [])) + "\n")
        code, out, _ = invoke(capsys, "check-list", "--file", str(path), "--r", "4")
        assert code == 1
        assert "1: budget exceeded" in out

    def test_recursion_limit_reported_per_line(self, capsys, tmp_path):
        # a cycle longer than the recursion limit, which is lowered first so
        # that the graph6 round trip of the cycle stays fast
        from albertson import cycle_graph, serialize_graph6
        default, limit = sys.getrecursionlimit(), 400
        path = tmp_path / "long.g6"
        path.write_text(serialize_graph6(cycle_graph(limit + 1)) + "\n" + "Dhc\n")
        sys.setrecursionlimit(limit)
        try:
            code, out, _ = invoke(capsys, "check-list", "--file", str(path), "--r", "3",
                                  "--budget", f"coloring={limit + 1},subdivision={limit + 1}")
        finally:
            sys.setrecursionlimit(default)
        assert code == 1
        assert f"1: budget exceeded: coloring search exceeds the recursion limit {limit}" in out
        assert "2: n=5 m=5 chi=3 critical(3)=yes topological K3=yes" in out

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

    BAD_BUDGETS = {
        "colouring=3": "unknown budget key 'colouring'; known keys are coloring, subdivision",
        "coloring=-5": "budget must be >= 0, got 'coloring=-5'",
        "coloring=50,depth=2": "unknown budget key 'depth'; known keys are coloring, subdivision",
        "coloring": "budget entries look like coloring=50, got 'coloring'",
        "coloring=lots": "bad budget value in 'coloring=lots'",
        "coloring=50,coloring=10": "budget key 'coloring' given twice in 'coloring=50,coloring=10'",
    }

    @pytest.mark.parametrize("budget", list(BAD_BUDGETS))
    def test_bad_budget(self, capsys, budget):
        code, out, err = invoke(capsys, "families", "--kind", "Delta", "--r", "4",
                                "--budget", budget)
        assert code == 2
        assert out == ""
        assert err.endswith(f"albertson families: error: argument --budget: "
                            f"{self.BAD_BUDGETS[budget]}\n")


class TestClosedStdout:
    def test_closed_read_end_exits_quietly(self, child_env):
        # the read end is closed before the child starts, so its first write fails
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "albertson.cli", "verify", "--r", "17"],
                                  stdout=write_end, stderr=subprocess.PIPE, env=child_env,
                                  timeout=120)
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (1, b"")


# runs one command and prints its exit status and every module loaded; the
# snapshot is taken before the script itself imports json
LOADED_MODULES = """
import contextlib, io, sys
from albertson.cli import run
with contextlib.redirect_stdout(io.StringIO()):
    status = run(sys.argv[1:])
loaded = sorted(sys.modules)
import json
print(json.dumps([status, loaded]))
"""

# the records are NamedTuples and slotted classes: no command pays for
# dataclasses, which imports inspect
NEVER_LOADED = {"dataclasses", "inspect"}

# argv, exit status, a module the command runs, modules it must not load:
# only the structured report format loads json, and only a command that
# computes or prints a rational loads fractions
PER_COMMAND = [
    (["verify", "--r", "17"], 1, "verifier", {"albertson.graph_lab", "json"}),
    (["table", "--r", "13"], 0, "verifier", {"albertson.graph_lab", "json"}),
    (["lemma357", "--r", "20"], 0, "verifier", {"albertson.graph_lab", "json"}),
    (["catlin", "--k", "12"], 1, "verifier", {"albertson.graph_lab", "json"}),
    (["edges", "--r", "13", "--n", "20"], 0, "bounds",
     {"albertson.crossing", "albertson.verifier", "albertson.graph_lab", "fractions"}),
    (["bound", "--n", "20", "--m", "100"], 0, "crossing",
     {"albertson.verifier", "albertson.graph_lab"}),
    (["counting", "--n", "20", "--m", "100", "--s", "6"], 0, "crossing",
     {"albertson.verifier", "albertson.graph_lab"}),
    (["families", "--kind", "Delta", "--r", "5", "--budget", "coloring=40"], 0,
     "graph_lab", {"albertson.verifier", "fractions"}),
    (["check-list", "--r", "4", "--file", "{good}"], 0, "graph_lab",
     {"albertson.verifier", "fractions"}),
]


def _loaded_modules(env, argv) -> tuple[int, set[str]]:
    proc = subprocess.run([sys.executable, "-c", LOADED_MODULES, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, loaded = json.loads(proc.stdout)
    return status, set(loaded)


class TestImportsPerCommand:
    @pytest.mark.parametrize("argv, status, needed, unused", PER_COMMAND,
                             ids=[case[0][0] for case in PER_COMMAND])
    def test_loads_only_what_it_runs(self, child_env, tmp_path, argv, status, needed, unused):
        # the odd wheel K1 v C5 is 4-critical and contains a topological K4
        good = tmp_path / "good.g6"
        good.write_text("E|fG\n")
        argv = [arg.format(good=good) for arg in argv]
        got_status, loaded = _loaded_modules(child_env, argv)
        assert got_status == status
        assert f"albertson.{needed}" in loaded
        assert not (unused | NEVER_LOADED) & loaded, sorted(loaded)

    def test_structured_format_loads_json(self, child_env):
        # the snapshot sees a module that the command itself imports
        status, loaded = _loaded_modules(child_env, ["verify", "--r", "17",
                                                     "--format", "structured"])
        assert status == 1 and "json" in loaded and not NEVER_LOADED & loaded


# sha256 of "exit <status>\n<stdout><stderr>" at 80 columns, recorded before
# the CLI imported per command.  argparse words some of these differently
# across Python releases (3.13 keeps the top-level "..." on the choices line;
# newer patch releases list the choices of an invalid-choice error without
# quotes), so each text accepts the digest of every wording seen on CPython
# 3.10.13, 3.11.7, 3.12.1, 3.13.0 and 3.13.13.
HELP_DIGESTS = {
    ("--help",): {"52e3c7f1a995542e0e13972dccf62b1043bd7f18dcfeec373a46030007742d8c",
                  "b96a7b79495bec399d9b31d4ba4dced08c7d4569e4a306cf268d367fffb9089c"},
    ("families", "--help"): {"f5b17b43a8715882cb28a303ae1fa8ff13a00215e30a615cd5fb5a1b937b7420"},
    ("verify", "--help"): {"3093ee9c5599d6a91984673982c45ea3841c8044949d26a7c7a6e741305cea21"},
    ("counting", "--help"): {"924d34be9a5e0dc0be07b5a9616a10de542a8035b4472509027f20d886a791b6"},
    ("families", "--kind", "Bogus"): {
        "bc87debf34febd8ed04e5082a781d650cba74a67f8165f489c4ebb94f8e7797e",
        "04f2123e69cc9ccf0a5d2d590be9017008b2b53139995231cddf312bd5b30e7e"},
}


class TestHelpText:
    @pytest.mark.parametrize("argv", sorted(HELP_DIGESTS), ids=" ".join)
    def test_text_is_pinned(self, child_env, argv):
        proc = subprocess.run([sys.executable, "-m", "albertson.cli", *argv],
                              env=dict(child_env, COLUMNS="80"),
                              capture_output=True, text=True, timeout=120)
        text = f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() in HELP_DIGESTS[argv], text
