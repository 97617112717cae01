"""The package namespace: every public name resolves, when read, to the
object its home module holds; importing the package loads no module; the
command-line choice enums are defined once and re-exported."""

import ast
import copy
import importlib
import pickle
import subprocess
import sys
import types
from pathlib import Path

import pytest

import albertson

SRC = Path(albertson.__file__).parent
SUBMODULES = ("bounds", "choices", "crossing", "errors", "graph_lab", "verifier")


# the reviewed public surface: a name joins or leaves only with an edit here
PUBLIC_NAMES = (
    # bounds
    "CriticalParams", "EdgeBound", "Rule", "dirac_edges", "gallai_edges",
    "join_refined_edges", "ks_edges", "min_edges",
    # choices
    "FamilyKind", "ReportFormat", "RuleId",
    # crossing
    "LINEAR_RULES", "RULE_BY_ID", "CrossingLowerBound", "LinearRule", "Method",
    "MethodKind", "SamplingParams", "bipartite_zarankiewicz", "counting_lower", "cr_nmp",
    "crossing_lemma_lower", "linear_lower", "optimize_p", "zarankiewicz",
    # errors
    "AlbertsonError", "BudgetExceededError", "Graph6Error", "InapplicableRuleError",
    # graph_lab
    "FamilySpec", "Graph", "SubdivisionWitness", "build_family", "chromatic_number",
    "complete_graph", "contains_topological_clique", "cycle_graph", "delta_splits",
    "efamily_splits", "find_topological_clique", "is_critical", "join", "parse_graph6",
    "serialize_graph6",
    # verifier
    "REFERENCE_TABLES", "TAIL_ANCHORS", "CaseRow", "CatlinReport", "CatlinRow",
    "SweepResult", "TailCertificate", "Verdict", "VerificationReport", "catlin_check",
    "compare_with_reference", "lemma357_check", "parse_report", "render_report",
    "small_n_note", "table_rule_id", "tail_certificate", "verify_albertson",
)

# names that left the surface because no command, verify_albertson call or
# benchmark workload reached them -> the module that held them
REMOVED_NAMES = {
    "ComplementAnalysis": "graph_lab",
    "complement_analysis": "graph_lab",
    "gallai_equality_check": "graph_lab",
    "gallai_simplicial_check": "graph_lab",
    "simplicial_vertices": "graph_lab",
    "remark2_check": "verifier",
}


def test_all_is_the_reviewed_list():
    assert len(PUBLIC_NAMES) == len(set(PUBLIC_NAMES)) == 62
    assert albertson.__all__ == sorted(PUBLIC_NAMES)


@pytest.mark.parametrize("name", REMOVED_NAMES)
def test_removed_name_stays_gone(name):
    home = importlib.import_module(f"albertson.{REMOVED_NAMES[name]}")
    for module in (albertson, home):
        with pytest.raises(AttributeError):
            getattr(module, name)
    assert name not in dir(albertson)


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


# every public record with its fields in order, and a way to build one
RECORDS = {
    "CriticalParams": (("r", "n"), lambda a: a.CriticalParams(5, 10)),
    "EdgeBound": (("m_min", "rule", "excess"), lambda a: a.min_edges(a.CriticalParams(5, 10))),
    "LinearRule": (("a", "b", "id"), lambda a: a.LINEAR_RULES[0]),
    "Method": (("kind", "rule", "p", "s"), lambda a: a.linear_lower(10, 30).method),
    "CrossingLowerBound": (("value", "raw", "method"), lambda a: a.cr_nmp(20, 100, "1/2")),
    "SamplingParams": (("s", "base"), lambda a: a.SamplingParams(6)),
    "CaseRow": (("n", "m_min", "linear_bound", "p", "prob_bound", "target", "satisfied"),
                lambda a: a.verify_albertson(13).rows[0]),
    "TailCertificate": (("r", "p", "n0", "slope", "tail_term_at_n0", "valid"),
                        lambda a: a.verify_albertson(13).tail),
    "VerificationReport": (("r", "small_n_note", "rows", "tail", "gaps", "verdict",
                            "refined_rows"), lambda a: a.verify_albertson(13)),
    "SweepResult": (("ok", "r", "n_lo", "n_hi", "min_margin", "argmin_n"),
                    lambda a: a.lemma357_check(17)),
    "CatlinRow": (("k", "lower", "upper", "holds"), lambda a: a.catlin_check(3).rows[0]),
    "CatlinReport": (("k_max", "lower_coefficient", "upper_coefficient", "rows", "first_hold",
                      "failures"), lambda a: a.catlin_check(3)),
    "Graph": (("vertex_count", "masks"), lambda a: a.complete_graph(4)),
    "FamilySpec": (("kind", "sizes"), lambda a: a.delta_splits(4)[0]),
    "SubdivisionWitness": (("t", "branch_vertices", "paths"),
                           lambda a: a.find_topological_clique(a.complete_graph(4), 4)),
}


@pytest.mark.parametrize("name", RECORDS)
def test_record_is_immutable_with_pinned_fields(name):
    fields, build = RECORDS[name]
    record = build(albertson)
    assert type(record) is getattr(albertson, name) and record._fields == fields
    before = [getattr(record, field) for field in fields]
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert [getattr(record, field) for field in fields] == before
    assert not hasattr(record, "__dict__")
    for copier in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
        assert copier(record) == record and hash(copier(record)) == hash(record)


@pytest.mark.parametrize("build, change", [
    (lambda a: a.CriticalParams(5, 10), {"n": 4}),
    (lambda a: a.SamplingParams(6), {"s": 4}),
    (lambda a: a.delta_splits(4)[0], {"sizes": (9, 9, 9)}),
    (lambda a: a.delta_splits(4)[0], {"kind": "Bogus"}),
], ids=["CriticalParams", "SamplingParams", "FamilySpec sizes", "FamilySpec kind"])
def test_replace_checks_a_validating_record(build, change):
    with pytest.raises(ValueError):
        build(albertson)._replace(**change)


def test_replace_coerces_a_family_kind():
    spec = albertson.delta_splits(4)[0]._replace(kind="Catlin", sizes=(2,))
    assert spec.kind is albertson.FamilyKind.CATLIN and spec.r == 5


def test_family_sizes_are_stored_as_a_tuple():
    # a list of sizes builds the same record as the tuple, so it hashes
    want = albertson.FamilySpec(albertson.FamilyKind.DELTA, (3, 1, 3))
    spec = albertson.FamilySpec("Delta", [3, 1, 3])
    assert spec == want and hash(spec) == hash(want) and type(spec.sizes) is tuple
    replaced = albertson.delta_splits(5)[1]._replace(sizes=[3, 1, 3])
    assert replaced == want and hash(replaced) == hash(want) and type(replaced.sizes) is tuple


# every count gate refuses a float with one message, which names the
# argument: each call below once went through in floats, or failed only
# further in, on a derived value.  id -> (argument named, call)
COUNT_GATES = {
    "cr_nmp n": ("n", lambda a: a.cr_nmp(20.0, 100, "1/2")),
    "cr_nmp m": ("m", lambda a: a.cr_nmp(20, 100.0, "1/2")),
    "linear_lower n": ("n", lambda a: a.linear_lower(20.0, 100)),
    "linear_lower m": ("m", lambda a: a.linear_lower(20, 100.0)),
    "crossing_lemma_lower n": ("n", lambda a: a.crossing_lemma_lower(20.0, 100)),
    "counting_lower n": ("n", lambda a: a.counting_lower(20.0, 100, a.SamplingParams(6))),
    "counting_lower m": ("m", lambda a: a.counting_lower(20, 100.0, a.SamplingParams(6))),
    "optimize_p n": ("n", lambda a: a.optimize_p(20.0, 100)),
    "optimize_p m": ("m", lambda a: a.optimize_p(20, 100.0)),
    "CriticalParams r": ("r", lambda a: a.min_edges(a.CriticalParams(5.0, 10))),
    "CriticalParams n": ("n", lambda a: a.CriticalParams(5, 10.0)),
    "CriticalParams _replace": ("n", lambda a: a.CriticalParams(5, 10)._replace(n=10.0)),
    "SamplingParams s": ("s", lambda a: a.SamplingParams(6.0)),
    "zarankiewicz": ("r", lambda a: a.zarankiewicz(7.0)),
    "bipartite_zarankiewicz a": ("a", lambda a: a.bipartite_zarankiewicz(3.0, 4)),
    "bipartite_zarankiewicz b": ("b", lambda a: a.bipartite_zarankiewicz(3, 4.0)),
    "tail_certificate r": ("r", lambda a: a.tail_certificate(13.0, 1, 22)),
    "tail_certificate n0": ("n0", lambda a: a.tail_certificate(13, 1, 22.0)),
    "lemma357_check r": ("r", lambda a: a.lemma357_check(17.0)),
    "FamilySpec Catlin k": ("each size", lambda a: a.FamilySpec("Catlin", (2.5,))),
    "FamilySpec Delta size": ("each size", lambda a: a.FamilySpec("Delta", (2.0, 1, 2))),
    "FamilySpec _replace":
        ("each size", lambda a: a.delta_splits(4)[0]._replace(sizes=(2.0, 1, 2))),
    "complete_graph n": ("n", lambda a: a.complete_graph(5.0)),
    "is_critical r": ("r", lambda a: a.is_critical(a.Graph(1), 1.0)),
    "find_topological_clique t":
        ("t", lambda a: a.find_topological_clique(a.complete_graph(5), 5.0)),
    "catlin_check k_max": ("k_max", lambda a: a.catlin_check(3.0)),
    "chromatic_number max_n":
        ("max_n", lambda a: a.chromatic_number(a.complete_graph(3), max_n=3.5)),
    "is_critical max_n": ("max_n", lambda a: a.is_critical(a.complete_graph(3), 3, max_n=3.5)),
    "find_topological_clique max_n":
        ("max_n", lambda a: a.find_topological_clique(a.complete_graph(3), 3, max_n=3.5)),
    "delta_splits r": ("r", lambda a: a.delta_splits(5.0)),
    "efamily_splits r": ("r", lambda a: a.efamily_splits(5.0)),
    "cycle_graph n": ("n", lambda a: a.cycle_graph(5.0)),
    "Graph vertex_count": ("vertex_count", lambda a: a.Graph(2.0)),
    "Graph edge endpoint": ("vertex", lambda a: a.Graph(3, [(0, 1.0)])),
    "verify_albertson r": ("r", lambda a: a.verify_albertson(13.0)),
    # a bool is an int to isinstance, but no count
    "Graph vertex_count bool": ("vertex_count", lambda a: a.Graph(True)),
    "Graph edge endpoint bool": ("vertex", lambda a: a.Graph(3, [(0, True)])),
    "zarankiewicz bool": ("r", lambda a: a.zarankiewicz(True)),
    "find_topological_clique t bool":
        ("t", lambda a: a.find_topological_clique(a.complete_graph(3), True)),
    "CriticalParams r bool": ("r", lambda a: a.CriticalParams(True, 5)),
    "is_critical max_n bool": ("max_n", lambda a: a.is_critical(a.complete_graph(3), 3, max_n=False)),
}


@pytest.mark.parametrize("case", COUNT_GATES)
def test_counts_must_be_ints(case):
    name, call = COUNT_GATES[case]
    with pytest.raises(TypeError, match=rf"^{name} must be an int, got "):
        call(albertson)
