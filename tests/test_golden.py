"""Golden outputs: sha256 digests of every report rendering for r = 5..30,
of `verify`, `table`, `edges`, `bound`, `counting`, `lemma357` and `catlin`
stdout on a fixed grid, and of the graph-lab commands `families` and
`check-list`.

The arithmetic digests in golden_digests.json were recorded from the
Fraction-sum kernels that the integer-numerator kernels of `crossing`
replaced, and the graph-lab digests from the frozenset-backed `Graph` that
the bitmask-backed one replaced, so any byte that a rewrite moved shows up
here.  The `bound` digests at n = 300 and the `lemma357` digest at r = 3016,
the largest orders the benchmark queries, were added later from the integer
kernels as they stood before `cr_nmp` shared one power of p's denominator.
The `lemma357` digests at r = 10^4, 10^5 and 10^6 were recorded from the
sweep that evaluated every order, before the forward-difference walk
replaced it.
Regenerate them only for an intended change of output, from the
repository root:
`PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json`.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

from albertson import ReportFormat, render_report, verify_albertson
from albertson.cli import run

GOLDEN_PATH = Path(__file__).with_name("golden_digests.json")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _cli_digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(argv)
    return _digest(f"exit {code}\n{out.getvalue()}")


def _verify_argvs() -> list[list[str]]:
    # markdown adds the reference-comparison notes to the report
    return [["verify", "--r", str(r)] for r in range(5, 31)]


def _table_argvs() -> list[list[str]]:
    return [["table", "--r", str(r)] for r in range(5, 31)]


def _edges_argvs() -> list[list[str]]:
    # n = 2r-2 adds the join refinement; n = r+1 is rejected with exit 2
    argvs = [["edges", "--r", str(r), "--n", str(n)]
             for r in range(5, 18) for n in (r + 2, 2 * r - 2, 2 * r - 1, 3 * r)]
    return argvs + [["edges", "--r", "13", "--n", "14"]]


def _catlin_argvs() -> list[list[str]]:
    return [["catlin", "--k", str(k)] for k in (1, 12, 60)]


def _bound_argvs() -> list[list[str]]:
    argvs = []
    for n in (3, 9, 10, 18, 32, 61, 150, 300):
        for m in (0, n, 4 * n, -(-103 * n // 16), n * (n - 1) // 2):
            argvs.append(["bound", "--n", str(n), "--m", str(m)])
            if n >= 10:
                for p in ("1", "1/1000", "719/1000"):
                    argvs.append(["bound", "--n", str(n), "--m", str(m), "--p", p])
    return argvs


def _counting_argvs() -> list[list[str]]:
    argvs = []
    for n in (5, 6, 10, 20, 61, 120):
        for s in sorted({5, 6, 52, n} & set(range(5, n + 1))):
            for base in ("eq1", "eq2", "eq3", "eq4", "eq5"):
                for m in (0, n, n * (n - 1) // 2):
                    argvs.append(["counting", "--n", str(n), "--m", str(m),
                                  "--s", str(s), "--base", base])
    return argvs


def _lemma357_argvs() -> list[list[str]]:
    return [["lemma357", "--r", str(r)]
            for r in (*range(17, 41), 200, 1000, 3016, 10000, 100000, 1000000)]


def _families_argvs() -> list[list[str]]:
    argvs = [["families", "--kind", kind, "--r", str(r)]
             for kind in ("Delta", "EFamily") for r in range(3, 8)]
    argvs += [["families", "--kind", "Delta", "--sizes", "3,1,3"],
              ["families", "--kind", "Catlin", "--k", "2"],
              ["families", "--kind", "Complete", "--n", "5"],
              ["families", "--kind", "EFamily", "--r", "5",
               "--budget", "coloring=12,subdivision=9"],
              # prints the chromatic number, then stops with exit 2 on the
              # default subdivision budget (n = 21)
              ["families", "--kind", "Delta", "--r", "11"]]
    return argvs


# graph6 input of `check-list`: Delta members for r = 4, 5, 6, EFamily
# members for r = 5, 6, Catlin(2), the icosahedron, the Groetzsch graph, the
# Petersen graph, K5, a Delta(11) member (n = 21, over the default
# subdivision budget), five seeded random graphs, a comment, a blank line
# and a malformed line
CHECK_LIST = """# candidate critical graphs
F`Neo
HwCW~re
H~?GX~M
J~?GW[N~fb?
J~{?GKF^{N?
I~KwW^Bow
K|fIJCpEG[_^
JhdLA_gc?N_
IheA@GUAo

D~{
T~~~~~~???_B?F?F_Bw?~?F{?^w?~~~_B~n}
E|QW
GZkhH{
H~?G!~M
H|T^IB~
I[vy\\]Kto
JAV\\T|Z^tZ_
"""


def check_list_digests() -> dict[str, str]:
    """Digests keyed by argv with the temporary file's path left out."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "candidates.g6")
        path.write_text(CHECK_LIST, encoding="utf-8")
        return {f"check-list --r {r}": _cli_digest(["check-list", "--file", str(path),
                                                    "--r", str(r)])
                for r in (4, 5, 6)}


def report_digests() -> dict[str, str]:
    digests = {}
    for r in range(5, 31):
        report = verify_albertson(r)
        for fmt in ReportFormat:
            digests[f"r={r} {fmt.value}"] = _digest(render_report(report, fmt))
    return digests


def cli_digests(argvs: list[list[str]]) -> dict[str, str]:
    return {" ".join(argv): _cli_digest(argv) for argv in argvs}


def all_digests() -> dict[str, dict[str, str]]:
    return {"reports": report_digests(),
            "verify": cli_digests(_verify_argvs()),
            "table": cli_digests(_table_argvs()),
            "edges": cli_digests(_edges_argvs()),
            "bound": cli_digests(_bound_argvs()),
            "counting": cli_digests(_counting_argvs()),
            "lemma357": cli_digests(_lemma357_argvs()),
            "catlin": cli_digests(_catlin_argvs()),
            "families": cli_digests(_families_argvs()),
            "check-list": check_list_digests()}


def _golden(group: str) -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[group]


def test_report_renderings_unchanged():
    assert report_digests() == _golden("reports")


def test_verify_stdout_unchanged():
    assert cli_digests(_verify_argvs()) == _golden("verify")


def test_table_stdout_unchanged():
    assert cli_digests(_table_argvs()) == _golden("table")


def test_edges_stdout_unchanged():
    assert cli_digests(_edges_argvs()) == _golden("edges")


def test_bound_stdout_unchanged():
    assert cli_digests(_bound_argvs()) == _golden("bound")


def test_counting_stdout_unchanged():
    assert cli_digests(_counting_argvs()) == _golden("counting")


def test_lemma357_stdout_unchanged():
    assert cli_digests(_lemma357_argvs()) == _golden("lemma357")


def test_catlin_stdout_unchanged():
    assert cli_digests(_catlin_argvs()) == _golden("catlin")


def test_families_stdout_unchanged():
    assert cli_digests(_families_argvs()) == _golden("families")


def test_check_list_stdout_unchanged():
    assert check_list_digests() == _golden("check-list")


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=1, sort_keys=True))
