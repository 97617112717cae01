"""Source checks: no float takes part in the exact arithmetic layers, the
count rule has one owner, and the package runs without networkx.

An AST scan of every module of the package rejects every float literal and
every `float(...)` call.  The only exemptions are the display helpers of
`cli` and `verifier` that print a decimal rendering next to an exact value.
A second scan rejects every `isinstance(..., int)` outside `errors._count`,
the one gate on counts.
networkx is a test-only oracle: a subprocess that blocks its import still
runs the graph lab and the CLI.
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import albertson

SRC = Path(albertson.__file__).parent

MODULES = sorted(path.stem for path in SRC.glob("*.py"))

# module -> functions whose bodies may use floats for display
DISPLAY_ONLY = {"cli": {"_rational"}, "verifier": {"_fmt3", "_render_markdown"}}

# module -> the function that owns the count rule
COUNT_GATE = {"errors": {"_count"}}


def nodes_outside(source: str, exempt: set[str]) -> list[ast.AST]:
    """Every AST node of source outside the bodies of the exempt functions."""
    tree = ast.parse(source)
    skipped = {id(node)
               for top in ast.walk(tree)
               if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
               and top.name in exempt
               for node in ast.walk(top)}
    return [node for node in ast.walk(tree) if id(node) not in skipped]


def float_uses(source: str, exempt: set[str]) -> list[str]:
    """'line: what' for each float literal or float(...) call outside the
    exempt functions."""
    found = []
    for node in nodes_outside(source, exempt):
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float(...) call"))
    return [f"{line}: {what}" for line, what in sorted(found)]


def int_tests(source: str, exempt: set[str]) -> list[str]:
    """'line: isinstance(..., int)' for each isinstance call that tests for
    int, alone or in a tuple, outside the exempt functions."""
    found = []
    for node in nodes_outside(source, exempt):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            kinds = node.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            if any(isinstance(kind, ast.Name) and kind.id == "int" for kind in kinds):
                found.append(node.lineno)
    return [f"{line}: isinstance(..., int)" for line in sorted(found)]


@pytest.mark.parametrize("module", MODULES)
def test_no_float_in_exact_layers(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert float_uses(source, DISPLAY_ONLY.get(module, set())) == []


@pytest.mark.parametrize("module", MODULES)
def test_counts_have_one_gate(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert int_tests(source, COUNT_GATE.get(module, set())) == []


def test_exempt_helpers_exist():
    for module, exempt in [*DISPLAY_ONLY.items(), *COUNT_GATE.items()]:
        assert module in MODULES
        tree = ast.parse((SRC / f"{module}.py").read_text(encoding="utf-8"))
        names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert exempt <= names, module


def test_scan_catches_planted_floats():
    source = ("def f(x):\n    return x * 0.5\n"
              "def g(x):\n    return float(x)\n"
              "def show(x):\n    return f'{float(x):.3f} {1e3}'\n"
              "def h(x):\n    return isinstance(x, float)\n")
    assert float_uses(source, {"show"}) == ["2: float literal 0.5", "4: float(...) call"]


def test_scan_catches_planted_int_tests():
    source = ("def f(n):\n    if not isinstance(n, int):\n        raise TypeError(n)\n"
              "def g(n, m):\n    return isinstance(n, (str, int)) or isinstance(m, float)\n"
              "def gate(n):\n    return isinstance(n, int)\n"
              "def h(n):\n    return type(n) is int\n")
    assert int_tests(source, {"gate"}) == ["2: isinstance(..., int)", "5: isinstance(..., int)"]
    assert int_tests((SRC / "errors.py").read_text(encoding="utf-8"), set()) != []


WITHOUT_NETWORKX = """
import sys
sys.modules["networkx"] = None  # any import of networkx now raises ImportError
from albertson import Graph, chromatic_number, cycle_graph
from albertson.cli import run
# C5 has independence number 2, so its chi comes from the in-repo matching
for g in (cycle_graph(5), cycle_graph(7), Graph(6, [(0, 1), (2, 3)]), Graph(0)):
    print(chromatic_number(g))
sys.exit(run(["families", "--kind", "Delta", "--r", "5"]))
"""


def test_runs_without_networkx(child_env):
    proc = subprocess.run([sys.executable, "-c", WITHOUT_NETWORKX], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:4] == ["3", "3", "2", "0"]
    assert lines[4].startswith("Delta sizes=3,1,3: n=9 m=19")
    assert "  topological K5: yes (witness verified)" in lines
