"""Source checks: no float takes part in the exact arithmetic layers.

An AST scan of `bounds`, `crossing` and `verifier` rejects every float
literal and every `float(...)` call.  The only exemptions are the display
helpers of `verifier` that print a decimal rendering next to an exact value.
"""

import ast
from pathlib import Path

import pytest

import albertson

SRC = Path(albertson.__file__).parent

# module -> functions whose bodies may use floats for display
DISPLAY_ONLY = {"bounds": set(), "crossing": set(),
                "verifier": {"_fmt3", "_render_markdown"}}


def float_uses(source: str, exempt: set[str]) -> list[str]:
    """'line: what' for each float literal or float(...) call outside the
    exempt functions."""
    tree = ast.parse(source)
    skipped = {id(node)
               for top in ast.walk(tree)
               if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef))
               and top.name in exempt
               for node in ast.walk(top)}
    found = []
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            found.append((node.lineno, f"float literal {node.value!r}"))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            found.append((node.lineno, "float(...) call"))
    return [f"{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("module", sorted(DISPLAY_ONLY))
def test_no_float_in_exact_layers(module):
    source = (SRC / f"{module}.py").read_text(encoding="utf-8")
    assert float_uses(source, DISPLAY_ONLY[module]) == []


def test_exempt_helpers_exist():
    tree = ast.parse((SRC / "verifier.py").read_text(encoding="utf-8"))
    names = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert DISPLAY_ONLY["verifier"] <= names


def test_scan_catches_planted_floats():
    source = ("def f(x):\n    return x * 0.5\n"
              "def g(x):\n    return float(x)\n"
              "def show(x):\n    return f'{float(x):.3f} {1e3}'\n"
              "def h(x):\n    return isinstance(x, float)\n")
    assert float_uses(source, {"show"}) == ["2: float literal 0.5", "4: float(...) call"]
