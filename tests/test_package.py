"""The package namespace: every public name resolves, when read, to the
object its home module holds; importing the package loads no module; the
command-line choice enums are defined once and re-exported."""

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

import pytest

import albertson

SRC = Path(albertson.__file__).parent
SUBMODULES = ("bounds", "choices", "crossing", "errors", "graph_lab", "verifier")


def test_every_export_is_its_home_modules_object():
    for name in albertson.__all__:
        home = importlib.import_module(f"albertson.{albertson._HOME[name]}")
        value = getattr(albertson, name)
        assert value is getattr(home, name), name
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == home.__name__, name


def test_export_follows_its_home_module(monkeypatch):
    # the package keeps no copy, so a patch of the home module shows through
    albertson.cr_nmp
    sentinel = object()
    monkeypatch.setattr("albertson.crossing.cr_nmp", sentinel)
    assert albertson.cr_nmp is sentinel


def test_dir_lists_every_export_and_submodule():
    assert set(albertson.__all__) <= set(dir(albertson))
    assert set(SUBMODULES) <= set(dir(albertson))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'albertson' has no attribute 'nope'$"):
        albertson.nope
    assert not hasattr(albertson, "cr_nmp_float")


BARE_IMPORT = """
import sys
import albertson
print(sorted(name for name in sys.modules if name.startswith("albertson")))
for name in sys.argv[1:]:
    print(getattr(albertson, name).__name__)
"""


def test_bare_import_loads_nothing_and_submodules_resolve(child_env):
    proc = subprocess.run([sys.executable, "-c", BARE_IMPORT, *SUBMODULES], env=child_env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["['albertson']",
                                        *(f"albertson.{name}" for name in SUBMODULES)]


@pytest.mark.parametrize("enum, user", [
    ("RuleId", "crossing"), ("FamilyKind", "graph_lab"), ("ReportFormat", "verifier")])
def test_choice_enums_are_defined_once_and_reexported(enum, user):
    definitions = [path.stem for path in sorted(SRC.glob("*.py"))
                   for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                   if isinstance(node, ast.ClassDef) and node.name == enum]
    assert definitions == ["choices"]
    assert getattr(importlib.import_module(f"albertson.{user}"), enum) is getattr(albertson, enum)


def test_cli_copies_no_choice_value():
    choices = importlib.import_module("albertson.choices")
    values = {member.value for enum in (choices.RuleId, choices.FamilyKind,
                                        choices.ReportFormat) for member in enum}
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    literals = {node.value for node in ast.walk(tree)
                if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert not values & literals
