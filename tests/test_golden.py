"""Golden outputs: sha256 digests of every report rendering for r = 5..30
and of `bound`, `counting` and `lemma357` stdout on a fixed grid.

The digests in golden_digests.json were recorded from the Fraction-sum
kernels that the integer-numerator kernels of `crossing` replaced, so any
byte that the rewrite moved shows up here.  Regenerate them only for an
intended change of output, from the repository root:
`PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json`.
"""

import contextlib
import hashlib
import io
import json
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


def _bound_argvs() -> list[list[str]]:
    argvs = []
    for n in (3, 9, 10, 18, 32, 61, 150):
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
    return [["lemma357", "--r", str(r)] for r in (*range(17, 41), 200, 1000)]


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
            "bound": cli_digests(_bound_argvs()),
            "counting": cli_digests(_counting_argvs()),
            "lemma357": cli_digests(_lemma357_argvs())}


def _golden(group: str) -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))[group]


def test_report_renderings_unchanged():
    assert report_digests() == _golden("reports")


def test_bound_stdout_unchanged():
    assert cli_digests(_bound_argvs()) == _golden("bound")


def test_counting_stdout_unchanged():
    assert cli_digests(_counting_argvs()) == _golden("counting")


def test_lemma357_stdout_unchanged():
    assert cli_digests(_lemma357_argvs()) == _golden("lemma357")


if __name__ == "__main__":
    print(json.dumps(all_digests(), indent=1, sort_keys=True))
