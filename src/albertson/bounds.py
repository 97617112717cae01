"""Exact lower bounds on the edge count of color-critical graphs.

An r-critical graph (chromatic number r, every proper subgraph colorable with
fewer colors) has minimum degree at least r-1, so 2m >= (r-1)n.  For graphs
that additionally contain no topological K_r, three sharper bounds apply:

  Dirac         2m >= (r-1)n + (r-3)
  Gallai        2m >= (r-1)n + p(r-p) - 1      where p = n - r, 2 <= p <= r-1
  KS            2m >= (r-1)n + (2r-6)

Every bound of the form "2m >= X" is stored as the integer edge bound
m_min = ceil(X/2); `excess` records 2*m_min - (r-1)n.  All arithmetic is
integer-exact.

A join refinement strengthens the Gallai bound at n = 2r-2: an r-critical
graph on 2r-2 vertices is a join of two smaller critical graphs, and summing
degrees over the two sides gains at least r-2 in 2m over the plain Gallai
count, i.e. ceil((r-2)/2) extra edges.
"""
from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import InapplicableRuleError, _count


class Rule(Enum):
    """Which edge-count rule produced a bound."""

    DIRAC = "Dirac"
    GALLAI = "Gallai"
    KS = "KS"
    JOIN_REFINED = "JoinRefined"


class _CriticalFields(NamedTuple):
    r: int
    n: int


class CriticalParams(_CriticalFields):
    """Parameters of an r-critical graph under study: target chromatic
    number r and vertex count n."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        # n's type first, so that a non-int count precedes the range of r
        _count("n", self.n)
        _count("r", self.r, 4)
        if self.n < self.r:
            raise ValueError(f"n must be >= r, got n={self.n}, r={self.r}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so a replaced record is checked too
        return cls(*iterable)


class EdgeBound(NamedTuple):
    """A certified lower bound on the edge count of an r-critical graph with
    no topological K_r, together with the rule that produced it."""

    m_min: int
    rule: Rule
    excess: int  # 2*m_min - (r-1)*n; always >= 0


def _bound(params: CriticalParams, x: int, rule: Rule) -> EdgeBound:
    # 2m >= x, m integer  =>  m >= ceil(x/2)
    m_min = -(-x // 2)
    return EdgeBound(m_min=m_min, rule=rule, excess=2 * m_min - (params.r - 1) * params.n)


def dirac_edges(params: CriticalParams) -> EdgeBound:
    """Dirac bound 2m >= (r-1)n + (r-3) for non-complete r-critical graphs.

    Exposed as a named rule for completeness; it is dominated by the KS bound
    wherever both apply (for r >= 4) and never wins the `min_edges` dispatch.
    """
    r, n = params.r, params.n
    if n < r + 2:
        raise InapplicableRuleError(
            f"Dirac bound needs a non-complete critical graph (n >= r+2), got n={n}, r={r}"
        )
    return _bound(params, (r - 1) * n + (r - 3), Rule.DIRAC)


def gallai_edges(params: CriticalParams) -> EdgeBound:
    """Gallai bound 2m >= (r-1)n + p(r-p) - 1 with p = n - r.

    Valid for r-critical graphs with no topological K_r when 2 <= p <= r-1,
    i.e. r+2 <= n <= 2r-1.
    """
    r, n = params.r, params.n
    p = n - r
    if not 2 <= p <= r - 1:
        raise InapplicableRuleError(
            f"Gallai bound needs 2 <= n-r <= r-1, got p={p} for r={r}, n={n}"
        )
    return _bound(params, (r - 1) * n + p * (r - p) - 1, Rule.GALLAI)


def ks_edges(params: CriticalParams) -> EdgeBound:
    """Kostochka-Stiebitz bound 2m >= (r-1)n + (2r-6) for r-critical graphs
    with no topological K_r (r >= 4, any n)."""
    r, n = params.r, params.n
    return _bound(params, (r - 1) * n + 2 * r - 6, Rule.KS)


def min_edges(params: CriticalParams) -> EdgeBound:
    """Best applicable edge bound: the pointwise maximum of the Gallai bound
    (where it applies) and the KS bound, ties broken toward Gallai.

    Requires n >= r+2: there is no r-critical graph on r+1 vertices, and on
    r vertices only K_r, which the no-topological-K_r bounds exclude.
    """
    r, n = params.r, params.n
    if n < r + 2:
        raise ValueError(f"min_edges needs n >= r+2 (no r-critical graphs other than K_r "
                         f"exist below), got n={n}, r={r}")
    best = ks_edges(params)
    try:
        gallai = gallai_edges(params)
    except InapplicableRuleError:
        return best
    # ties go to Gallai
    return gallai if gallai.m_min >= best.m_min else best


def join_refined_edges(r: int) -> EdgeBound:
    """Join-refined bound at n = 2r-2.

    An r-critical graph on 2r-2 vertices is a join G1 v G2 of two smaller
    critical graphs; summing degrees side by side gives
    2m >= (r1-1)n1 + (r2-1)n2 + 2(r-3) + 2*n1*n2, which exceeds the plain
    Gallai count by (n1-r1)n2 + (n2-r2)n1 >= r-2 (minimized at n2=r2=1).
    Hence ceil((r-2)/2) extra edges on top of the Gallai bound.
    """
    params = CriticalParams(r=r, n=2 * r - 2)
    m_min = gallai_edges(params).m_min + -(-(r - 2) // 2)
    return _bound(params, 2 * m_min, Rule.JOIN_REFINED)
