"""Exception types shared across the toolkit, and the one gate on counts."""


class AlbertsonError(Exception):
    """Base class for all toolkit errors."""


class InapplicableRuleError(AlbertsonError):
    """A bound or rule was asked for outside its domain of validity.

    Callers that dispatch over several rules catch this and fall back to
    another rule; it never signals a bug.
    """


class BudgetExceededError(AlbertsonError):
    """An exact search was refused because the input exceeds the configured
    size budget.  Raised instead of silently approximating."""


class Graph6Error(AlbertsonError, ValueError):
    """Malformed graph6 input.  Carries the byte offset of the defect."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def _count(name: str, value, minimum: int | None = None) -> None:
    """The one gate on a count: value must be an int other than a bool, or
    TypeError names it, and at least minimum when one is given, or
    ValueError.  Every count passes here before any other test of it, so no
    float reaches the exact arithmetic.  A plain int pays one type test."""
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise TypeError(f"{name} must be an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
