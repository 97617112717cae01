"""The enums whose values the command line offers as choices.

They are defined here, apart from the modules that compute with them, so
that the CLI builds its parser without importing those modules.  `crossing`
re-exports `RuleId`, `graph_lab` re-exports `FamilyKind` and `verifier`
re-exports `ReportFormat`; each name is the same object everywhere.
"""
from enum import Enum


class RuleId(Enum):
    """One of the five linear crossing inequalities (1)-(5)."""

    EQ1 = "eq1"
    EQ2 = "eq2"
    EQ3 = "eq3"
    EQ4 = "eq4"
    EQ5 = "eq5"


class FamilyKind(Enum):
    """A structured graph family of the graph lab."""

    DELTA = "Delta"
    EFAMILY = "EFamily"
    CATLIN = "Catlin"
    COMPLETE = "Complete"


class ReportFormat(Enum):
    """A rendering of a verification report."""

    MARKDOWN = "markdown"
    CSV = "csv"
    STRUCTURED = "structured"
