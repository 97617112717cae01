"""Case analysis for the Albertson conjecture: cr(G) >= cr(K_r) when chi(G) = r.

For a given r the conjecture reduces to r-critical graphs.  Orders split into
three regimes:

  n <= r+4    such graphs contain a topological K_r, so cr(G) >= cr(K_r)
              holds outright and no table row is needed;
  middle n    one row per order: edge bound m_min from the Gallai/KS rules,
              then the best of a fixed linear inequality and the probabilistic
              bound cr(n, m_min, p) at an optimized p, compared against the
              target Z(r) >= cr(K_r);
  n >= n0     a tail certificate: with m >= ((r-1)n + 2r-6)/2 from the KS rule
              the probabilistic bound at a fixed p is h(n) = c*n + d - T(n)
              with slope c = 2(r-1)/p^2 - (103/6)/p^3, intercept
              d = (4r-12)/p^2 + 103/(3p^4) and tail term
              T(n) = 5n^2 (1-p)^(n-2)/p^4; h(n0) is cr(n0, m, p) at the
              un-rounded 2m = (r-1)n0 + 2r-6.  If c > 0, T is decreasing
              from n0 on, and ceil(h(n0)) >= Z(r), then cr(G) >= Z(r) for
              every n >= n0.  With p = u/w the conditions are integer sign
              tests: 12(r-1)u > 103w, which for n0 >= r+5 implies the
              decreasing T, and num > (Z(r)-1)*den for h(n0) = num/den from
              crossing's one evaluator of cr(n, m, p).

At n = 2r-2 an unsatisfied row gets one rescue attempt: the join refinement
of the Gallai bound adds ceil((r-2)/2) edges and the row is recomputed.

Reference tables from the literature (computed there with floating-point
p-optimization, p printed to 3 decimals) are stored for regression
comparison; any divergence of this exact-arithmetic recomputation is flagged,
not hidden.  Helper sweeps cover the counting-bound lemma for
3.57r <= n <= 4r and the Catlin-family comparison
2Z(2k) + Z(k) + 3cr(K_{k,k}) > Z(ceil(5k/2)).
"""
from __future__ import annotations

import functools
import typing
from enum import Enum
from fractions import Fraction

from .bounds import CriticalParams, join_refined_edges, ks_edges, min_edges
from .choices import ReportFormat
from .crossing import (
    RuleId,
    SamplingParams,
    _LINEAR_SIXFOLD,
    _as_exact,
    _clamp_ceil,
    _counting_coefficients,
    _counting_numerator,
    _cr_ratio,
    bipartite_zarankiewicz,
    cr_nmp,
    optimize_p,
    zarankiewicz,
)
from .errors import _count

_F = Fraction


class Verdict(Enum):
    VERIFIED = "Verified"
    GAPS_REMAIN = "GapsRemain"


class CaseRow(typing.NamedTuple):
    """One order n of the case analysis: edge bound, linear bound, and the
    probabilistic bound at the chosen p, against the target Z(r)."""

    n: int
    m_min: int
    linear_bound: int
    p: Fraction
    prob_bound: int
    target: int
    satisfied: bool


class TailCertificate(typing.NamedTuple):
    """Finite certificate that the bound holds for every n >= n0.

    valid requires (a) slope > 0, (b) the tail term decreasing at n0, i.e.
    (1-p)((n0+1)/n0)^2 < 1, and (c) ceil(h(n0)) >= Z(r) where h uses the
    un-rounded KS edge count ((r-1)n0 + 2r-6)/2 so that h stays linear in n
    apart from the shrinking tail term.  h(n0) is cr(n0, m, p) at
    2m = (r-1)n0 + 2r-6, and with p = u/w the conditions are the integer
    sign tests of `_tail_valid`, where (a) implies (b).
    """

    r: int
    p: Fraction
    n0: int
    slope: Fraction
    tail_term_at_n0: Fraction
    valid: bool

    @property
    def intercept(self) -> Fraction:
        """d = h(n0) + T(n0) - slope*n0, i.e. (4r-12)/p^2 + 103/(3p^4)."""
        return self.anchor_value + self.tail_term_at_n0 - self.slope * self.n0

    @property
    def anchor_value(self) -> Fraction:
        """h(n0) = cr(n0, m, p) at 2m = (r-1)n0 + 2r-6."""
        r, n0, p = self.r, self.n0, self.p
        return _F(*_cr_ratio(n0, (r - 1) * n0 + 2 * r - 6, p.numerator, p.denominator))


class VerificationReport(typing.NamedTuple):
    """Full outcome for one r: rows for the middle orders, the tail
    certificate, the unresolved orders, and the verdict."""

    r: int
    small_n_note: str
    rows: tuple[CaseRow, ...]
    tail: TailCertificate
    gaps: tuple[int, ...]
    verdict: Verdict
    refined_rows: tuple[CaseRow, ...] = ()


# Rule used for the tables' linear column: inequality (4) up to r = 15, then
# inequality (5); denser critical graphs make the steeper rule the better one.
def table_rule_id(r: int) -> RuleId:
    return RuleId.EQ4 if r <= 15 else RuleId.EQ5


# Reference table rows (n, e, linear bound, 1000p, prob bound) and tail
# anchors (p, n0) as historically reported for r = 13..17.  The anchors are
# re-validated at runtime, never trusted.
REFERENCE_TABLES: dict[int, tuple[tuple[int, int, int, int, int], ...]] = {
    13: ((18, 128, 238, 719, 288),
         (19, 135, 249, 732, 296),
         (20, 141, 255, 751, 298),
         (21, 146, 258, 774, 294)),
    14: ((19, 146, 293, 659, 388),
         (20, 154, 307, 670, 402),
         (21, 161, 318, 684, 407),
         (22, 167, 325, 702, 406),
         (23, 172, 328, 723, 398),
         (24, 176, 327, 747, 384),
         (25, 179, 322, 775, 366),
         (26, 181, 312, 807, 344)),
    15: ((20, 165, 351, 610, 510),
         (21, 174, 370, 617, 531),
         (22, 182, 385, 623, 542),
         (23, 189, 396, 642, 545),
         (24, 195, 403, 659, 539),
         (25, 200, 406, 678, 526),
         (26, 204, 404, 700, 508),
         (27, 207, 399, 725, 484)),
    16: ((21, 185, 450, 567, 657),
         (22, 195, 475, 573, 687),
         (23, 204, 495, 581, 706),
         (24, 212, 510, 592, 714),
         (25, 219, 520, 605, 712),
         (26, 225, 525, 621, 701),
         (27, 230, 525, 639, 683),
         (28, 234, 520, 659, 658),
         (29, 237, 510, 681, 628),
         (30, 239, 495, 706, 593),
         (31, 246, 505, 713, 601)),
    17: ((22, 206, 530, 530, 832),
         (23, 217, 560, 534, 874),
         (24, 227, 585, 541, 902),
         (25, 236, 605, 550, 917),
         (26, 244, 620, 560, 920),
         (27, 251, 630, 573, 913),
         (28, 257, 635, 588, 897),
         (29, 262, 635, 604, 872),
         (30, 266, 630, 622, 840),
         (31, 269, 620, 643, 802),
         (32, 271, 605, 665, 759),
         (33, 278, 615, 672, 765),
         (34, 286, 630, 677, 779)),
}

TAIL_ANCHORS: dict[int, tuple[Fraction, int]] = {
    13: (_F(1), 22),
    14: (_F(1), 27),
    15: (_F(764, 1000), 28),
    16: (_F(72, 100), 32),
    17: (_F(681, 1000), 35),
}


def _tail_valid(r: int, u: int, w: int, n0: int) -> bool:
    """The tail conditions at p = u/w for n0 >= r + 5 as integer sign tests:
    slope > 0 and ceil(h(n0)) >= Z(r), i.e. h(n0) > Z(r) - 1 with
    h(n0) = num/den from `_cr_ratio`.

    The third condition, T decreasing at n0, follows from slope > 0, so it
    is not tested.  The slope is positive iff p > 103/(12(r-1)), and T
    decreases at n0 iff (1-p)((n0+1)/n0)^2 < 1, i.e. p > (2n0+1)/(n0+1)^2.
    Every caller has n0 >= r + 5, so r - 1 <= n0 - 6 and
    12(r-1)(2n0+1) <= 12(n0-6)(2n0+1) < 103(n0+1)^2.  So
    103/(12(r-1)) > (2n0+1)/(n0+1)^2, and a p above the first is above the
    second.
    """
    # 6p^3 * slope = 12(r-1)p - 103
    if 12 * (r - 1) * u <= 103 * w:
        return False
    num, den = _cr_ratio(n0, (r - 1) * n0 + 2 * r - 6, u, w)
    return num > (zarankiewicz(r) - 1) * den


def tail_certificate(r: int, p, n0: int) -> TailCertificate:
    """The certificate for r, p and n0, decided exactly: valid tests slope
    > 0 and ceil(h(n0)) >= Z(r), conditions (a) and (c) of TailCertificate,
    since (a) implies (b).  Invalid certificates are returned, not raised."""
    _count("r", r)
    _count("n0", n0)
    if n0 < max(10, r + 5):
        raise ValueError(f"n0 must be >= max(10, r+5), got n0={n0} for r={r}")
    p = _as_exact(p)
    slope = 2 * (r - 1) / p**2 - _F(103, 6) / p**3
    tail_term = 5 * n0**2 * (1 - p) ** (n0 - 2) / p**4
    return TailCertificate(r=r, p=p, n0=n0, slope=slope, tail_term_at_n0=tail_term,
                           valid=_tail_valid(r, p.numerator, p.denominator, n0))


def _case_row(r: int, n: int, m_min: int, target: int) -> CaseRow:
    a6, b6, method = _LINEAR_SIXFOLD[table_rule_id(r)]
    linear = _clamp_ceil(a6 * m_min - b6 * (n - 2), 6, method).value
    p = optimize_p(n, m_min)
    prob = cr_nmp(n, m_min, p).value
    return CaseRow(n=n, m_min=m_min, linear_bound=linear, p=p, prob_bound=prob,
                   target=target, satisfied=max(linear, prob) >= target)


def _search_tail(r: int) -> TailCertificate:
    """Smallest n0 <= 4r whose certificate validates, trying p = 1 and the
    optimizer's p at the KS edge count.  If none validates, the last attempt
    is returned (invalid) so that the row window still ends at 4r."""
    for n0 in range(max(10, r + 5), 4 * r + 1):
        for p in (_F(1), optimize_p(n0, ks_edges(CriticalParams(r=r, n=n0)).m_min)):
            if _tail_valid(r, p.numerator, p.denominator, n0):
                return tail_certificate(r, p, n0)
    return tail_certificate(r, p, n0)


def small_n_note(r: int) -> str:
    return (f"Orders n <= {r + 4} need no table: every {r}-critical graph on "
            f"at most {r + 4} vertices contains a topological K_{r} (the "
            f"Hajós conjecture holds at these orders), so "
            f"cr(G) >= cr(K_{r}) directly.")


def verify_albertson(r: int) -> VerificationReport:
    """Run the whole case analysis for one r."""
    _count("r", r)
    if not 5 <= r <= 30:
        raise ValueError(f"r must be in [5, 30], got {r}")
    target = zarankiewicz(r)
    tail = tail_certificate(r, *TAIL_ANCHORS[r]) if r in TAIL_ANCHORS else _search_tail(r)
    rows = []
    refined = []
    gaps = []
    for n in range(r + 5, tail.n0):
        row = _case_row(r, n, min_edges(CriticalParams(r=r, n=n)).m_min, target)
        rows.append(row)
        if row.satisfied:
            continue
        if n == 2 * r - 2:
            # an r-critical graph on 2r-2 vertices is a join of two smaller
            # critical graphs; retry with the refined edge count
            rescue = _case_row(r, n, join_refined_edges(r).m_min, target)
            refined.append(rescue)
            if rescue.satisfied:
                continue
        gaps.append(n)
    verdict = Verdict.VERIFIED if not gaps and tail.valid else Verdict.GAPS_REMAIN
    return VerificationReport(r=r, small_n_note=small_n_note(r), rows=tuple(rows),
                              tail=tail, gaps=tuple(gaps), verdict=verdict,
                              refined_rows=tuple(refined))


def compare_with_reference(report: VerificationReport) -> tuple[str, ...]:
    """Flag every difference between a computed report and the stored
    reference table for its r (no reference data -> no flags)."""
    ref = REFERENCE_TABLES.get(report.r)
    if ref is None:
        return ()
    flags = []
    rows = {row.n: row for row in report.rows}
    for n, e, linear, milli, prob in ref:
        row = rows.pop(n, None)
        if row is None:
            flags.append(f"n={n}: reference row has no computed counterpart")
            continue
        if row.m_min != e:
            flags.append(f"n={n}: e = {row.m_min} here vs {e} in the reference")
        if row.linear_bound != linear:
            flags.append(f"n={n}: linear bound = {row.linear_bound} here vs "
                         f"{linear} in the reference")
        if row.p != _F(milli, 1000):
            flags.append(f"n={n}: p = {_fmt3(row.p)} here vs 0.{milli:03d} in "
                         f"the reference (which optimized p in floating point)")
        if row.prob_bound != prob:
            flags.append(f"n={n}: prob bound = {row.prob_bound} here vs "
                         f"{prob} in the reference")
    for n in sorted(rows):
        flags.append(f"n={n}: computed row has no reference counterpart")
    return tuple(flags)


# ---------------------------------------------------------------------------
# sweeps


class SweepResult(typing.NamedTuple):
    """Outcome of an exact sweep over a range of orders, with the worst
    margin and where it occurs.  Truthy iff the sweep succeeded."""

    ok: bool
    r: int
    n_lo: int
    n_hi: int
    min_margin: Fraction
    argmin_n: int

    def __bool__(self) -> bool:
        return self.ok


# the s = 52, inequality (4) counting bound as (A*s(s-1), B*(s-2), its denominator)
_COUNTING52 = _counting_coefficients(SamplingParams(s=52))


def lemma357_check(r: int) -> SweepResult:
    """Counting bound beats (1/64)r(r-1)(r-2)(r-3) for 3.57r <= n <= 4r.

    Uses m = ceil((r-1)n/2) (the minimum-degree count of an r-critical graph)
    and the s = 52 counting bound with inequality (4); requires strict
    inequality at every order.  The counting bound is num/den with den fixed
    by s and the rule, so every margin is the integer
    gap(n) = 64*num - den*r(r-1)(r-2)(r-3) over the one denominator 64*den.

    On one parity class of n, 2m = (r-1)n + e with e in {0, 1} fixed, so
    gap = 64*N(n) - const with N(n) = (n-2)(n-3)(c1*n - 5150n^2 + 31824e)
    and c1 = 31824(r-1) + 5150, where 31824 = a_s/2 and 5150 = b_s.  Then
    N''(n) = n(6c1 + 154500 - 61800n) - 10c1 - 61800 + 63648e.  For
    n >= 3.57r the bracket is at most -29682r - 5544, and the rest is at most
    -318240r + 268588, so N'' < 0: each class is strictly concave, and its
    minimum lies at one of its two end orders, strictly below every order
    inside.  So the four orders n_lo, n_lo+1, n_hi-1 and n_hi decide the
    sweep; concavity does not say which end, so all four are read.  The
    smallest n wins ties, across the classes too.
    """
    _count("r", r)
    if r < 17:
        raise ValueError(f"the counting-bound sweep is stated for r >= 17, got {r}")
    n_lo = -(-357 * r // 100)
    n_hi = 4 * r
    a_s, b_s, den = _COUNTING52
    target = den * r * (r - 1) * (r - 2) * (r - 3)

    def gap(n: int) -> int:
        m = -(-((r - 1) * n) // 2)
        return 64 * _counting_numerator(n, m, a_s, b_s) - target

    margin, argmin_n = min((gap(n), n) for n in (n_lo, n_lo + 1, n_hi - 1, n_hi))
    return SweepResult(ok=margin > 0, r=r, n_lo=n_lo, n_hi=n_hi,
                       min_margin=_F(margin, 64 * den), argmin_n=argmin_n)


class CatlinRow(typing.NamedTuple):
    """L(k) = 2Z(2k) + Z(k) + 3 cr(K_{k,k}) against R(k) = Z(ceil(5k/2));
    holds means L(k) > R(k), i.e. the Catlin graph C_5^k beats the
    Albertson target at this k given the conjectured complete and complete
    bipartite crossing numbers."""

    k: int
    lower: int
    upper: int
    holds: bool


class CatlinReport(typing.NamedTuple):
    k_max: int
    lower_coefficient: Fraction  # k^4 coefficient of L(k)
    upper_coefficient: Fraction  # k^4 coefficient of R(k)
    rows: tuple[CatlinRow, ...]
    first_hold: int | None
    failures: tuple[int, ...]


def catlin_check(k_max: int) -> CatlinReport:
    """Compare both sides of the Catlin-family bound for every k <= k_max.

    chi(C_5^k) = ceil(5k/2), and an optimal drawing of C_5^k is bounded below
    by two crossing copies of K_{2k}, one K_k, and three K_{k,k} patterns,
    giving L(k); the asymptotic k^4 coefficients are 45/64 for L and
    625/1024 for R, so L(k) > R(k) for all large k.  Small k fail.
    """
    _count("k_max", k_max, 1)
    rows = []
    for k in range(1, k_max + 1):
        lower = 2 * zarankiewicz(2 * k) + zarankiewicz(k) + 3 * bipartite_zarankiewicz(k, k)
        upper = zarankiewicz(-(-5 * k // 2))
        rows.append(CatlinRow(k=k, lower=lower, upper=upper, holds=lower > upper))
    first = next((row.k for row in rows if row.holds), None)
    failures = tuple(row.k for row in rows if not row.holds)
    return CatlinReport(k_max=k_max,
                        lower_coefficient=2 * _F(1, 4) + _F(1, 4) * _F(1, 2) ** 4 + 3 * _F(1, 2) ** 4,
                        upper_coefficient=_F(1, 4) * _F(5, 4) ** 4,
                        rows=tuple(rows), first_hold=first, failures=failures)


# ---------------------------------------------------------------------------
# rendering


def _fmt3(p: Fraction) -> str:
    """p with three decimals, e.g. 719/1000 -> '0.719' (exact whenever the
    denominator divides 1000, which every p produced here satisfies)."""
    milli = p * 1000
    if milli.denominator == 1:
        return f"{milli.numerator // 1000}.{milli.numerator % 1000:03d}"
    return f"{float(p):.3f}"


def _bound_header(r: int) -> str:
    return "bound (4)" if table_rule_id(r) is RuleId.EQ4 else "bound (5)"


def markdown_table(report: VerificationReport) -> list[str]:
    """The case-analysis rows of a report as markdown table lines."""
    lines = [f"| n | e | {_bound_header(report.r)} | p | ⌈cr(n,m,p)⌉ |",
             "| ---: | ---: | ---: | ---: | ---: |"]
    for row in report.rows:
        lines.append(f"| {row.n} | {row.m_min} | {row.linear_bound} | "
                     f"{_fmt3(row.p)} | {row.prob_bound} |")
    return lines


def _render_markdown(report: VerificationReport) -> str:
    r = report.r
    lines = [f"## Albertson case analysis, r = {r}", ""]
    lines.append(f"Target: cr(K_{r}) <= Z({r}) = {zarankiewicz(r)}.")
    lines.append(report.small_n_note)
    lines.append("")
    lines.extend(markdown_table(report))
    lines.append("")
    for row in report.refined_rows:
        lines.append(f"Join refinement at n = {row.n}: e = {row.m_min}, "
                     f"{_bound_header(r)} = {row.linear_bound}, p = {_fmt3(row.p)}, "
                     f"⌈cr(n,m,p)⌉ = {row.prob_bound}, "
                     f"satisfied = {'yes' if row.satisfied else 'no'}.")
    tail = report.tail
    lines.append(f"Tail certificate: n0 = {tail.n0}, p = {_fmt3(tail.p)}, "
                 f"slope = {tail.slope} ({float(tail.slope):.4f}), "
                 f"valid = {'yes' if tail.valid else 'no'}.")
    lines.append("Gaps: " + (", ".join(str(n) for n in report.gaps) if report.gaps else "none") + ".")
    lines.append(f"Verdict: {report.verdict.value}.")
    return "\n".join(lines)


def _render_csv(report: VerificationReport) -> str:
    lines = ["n,e,linear_bound,p,prob_bound,target,satisfied"]
    for row in report.rows:
        lines.append(f"{row.n},{row.m_min},{row.linear_bound},{row.p},"
                     f"{row.prob_bound},{row.target},{'true' if row.satisfied else 'false'}")
    return "\n".join(lines)


@functools.cache
def _codec(kind):
    """(encode, decode) between a report field type and its json form: a
    report record (a NamedTuple) maps to a dict of its `_fields`, a tuple to
    a list, a Fraction to its str and an enum to its value.  None stands for
    a value that json writes or reads as it is."""
    if typing.get_origin(kind) is tuple:
        enc, dec = _codec(typing.get_args(kind)[0])
        return (None if enc is None else lambda items: [enc(item) for item in items],
                tuple if dec is None else lambda docs: tuple(map(dec, docs)))
    names = getattr(kind, "_fields", None)
    if names is not None:
        hints = typing.get_type_hints(kind)
        plan = [(name, *_codec(hints[name])) for name in names]
        # decoding reads every field (a missing key raises KeyError) and
        # ignores any other key
        return (lambda obj: {name: getattr(obj, name) if enc is None else enc(getattr(obj, name))
                             for name, enc, _ in plan},
                lambda doc: kind(*[doc[name] if dec is None else dec(doc[name])
                                   for name, _, dec in plan]))
    if kind is Fraction:
        return str, Fraction
    if isinstance(kind, type) and issubclass(kind, Enum):
        return (lambda member: member.value), kind
    return None, None


def _render_structured(report: VerificationReport) -> str:
    import json  # here, so that the other formats load no json

    return json.dumps(_codec(VerificationReport)[0](report), indent=2, sort_keys=True)


def render_report(report: VerificationReport, format: ReportFormat | str) -> str:
    """Deterministic text rendering; `format` is a ReportFormat or its value."""
    fmt = ReportFormat(format)
    if fmt is ReportFormat.MARKDOWN:
        return _render_markdown(report)
    if fmt is ReportFormat.CSV:
        return _render_csv(report)
    return _render_structured(report)


def parse_report(text: str) -> VerificationReport:
    """Inverse of the structured rendering: parse_report(render_report(x,
    'structured')) == x."""
    import json

    return _codec(VerificationReport)[1](json.loads(text))
