"""Exact verification toolkit for crossing-number lower bounds of
color-critical graphs (the Albertson conjecture at small r).

Each public name below is read from its home module when it is asked for
(PEP 562), so `import albertson`, or a command of `albertson.cli`, loads
only the modules that the caller reaches, and `albertson.name` is always
the object its module holds.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it owns
_EXPORTS = {
    "bounds": (
        "CriticalParams",
        "EdgeBound",
        "Rule",
        "dirac_edges",
        "gallai_edges",
        "join_refined_edges",
        "ks_edges",
        "min_edges",
    ),
    "choices": (
        "FamilyKind",
        "ReportFormat",
        "RuleId",
    ),
    "crossing": (
        "LINEAR_RULES",
        "RULE_BY_ID",
        "CrossingLowerBound",
        "LinearRule",
        "Method",
        "MethodKind",
        "SamplingParams",
        "bipartite_zarankiewicz",
        "counting_lower",
        "cr_nmp",
        "crossing_lemma_lower",
        "linear_lower",
        "optimize_p",
        "zarankiewicz",
    ),
    "errors": (
        "AlbertsonError",
        "BudgetExceededError",
        "Graph6Error",
        "InapplicableRuleError",
    ),
    "graph_lab": (
        "FamilySpec",
        "Graph",
        "SubdivisionWitness",
        "build_family",
        "chromatic_number",
        "complete_graph",
        "contains_topological_clique",
        "cycle_graph",
        "delta_splits",
        "efamily_splits",
        "find_topological_clique",
        "is_critical",
        "join",
        "parse_graph6",
        "serialize_graph6",
    ),
    "verifier": (
        "REFERENCE_TABLES",
        "TAIL_ANCHORS",
        "CaseRow",
        "CatlinReport",
        "CatlinRow",
        "SweepResult",
        "TailCertificate",
        "Verdict",
        "VerificationReport",
        "catlin_check",
        "compare_with_reference",
        "lemma357_check",
        "parse_report",
        "render_report",
        "small_n_note",
        "table_rule_id",
        "tail_certificate",
        "verify_albertson",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_EXPORTS, *__all__})
