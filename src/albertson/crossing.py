"""Exact lower bounds on crossing numbers from vertex and edge counts.

Five linear inequalities hold for every graph on n >= 3 vertices, numbered
(1)-(5) from sparse to dense:

  (1)  cr(G) >= m - 3(n-2)
  (2)  cr(G) >= 7m/3 - 25(n-2)/3
  (3)  cr(G) >= 3m - 35(n-2)/3
  (4)  cr(G) >= 4m - 103(n-2)/6
  (5)  cr(G) >= 5m - 25(n-2)

Two cubic "crossing lemma" forms follow by sampling:

  cr(G) >= m^3 / (64 n^2)          for m >= 4n
  cr(G) >= m^3 / (31.1 n^2)        for m >= 103n/16

Sampling each vertex independently with probability p and applying (4) to the
sampled subgraph gives, for n >= 10 and 0 < p <= 1,

  cr(G) >= cr(n,m,p) = 4m/p^2 - 103n/(6p^3) + 103/(3p^4) - 5n^2(1-p)^(n-2)/p^4

`optimize_p` picks a near-optimal p on the 1/1000 grid; soundness never
depends on optimality, since every p in (0,1] yields a valid bound.
With p = u/w in lowest terms the bound is one integer over a known
denominator,

  cr(n,m,p) = [(24m*u^2 + (206w - 103n*u)*w)*w^(n-4) - 30n^2*(w-u)^(n-2)]
              / (6u^4 * w^(n-6)),

which is the four terms brought over their common denominator
6u^4*w^(n-6) (an integer for n >= 6): 4m/p^2, 103n/(6p^3), 103/(3p^4) and
5n^2(1-p)^(n-2)/p^4 contribute 24m*u^2*w^(n-4), 103n*u*w^(n-3),
206w^(n-2) and 30n^2*(w-u)^(n-2).  `_cr_ratio` is the one evaluator of
this closed form: it takes 2m, so that a half-integer m is exact, and
returns the pair (num, den).  `cr_nmp` builds its bound from it, and the
verifier's tail certificate reads h(n0) from it at the un-rounded edge count
2m = (r-1)n0 + 2r-6.  It raises w to a power once: w^(n-4) = w^2*w^(n-6),
and the same w^(n-6) is the denominator's.

A deterministic counting variant averages a linear rule over all spanned
s-vertex subgraphs: each edge lies in C(n-2, s-2) of them and each crossing
of an optimal drawing in at most C(n-4, s-4), so

  cr(G) >= [a*m*C(n-2,s-2) - b*(s-2)*C(n,s)] / C(n-4,s-4)
         = (n-2)(n-3)/(s-3) * [a*m/(s-2) - b*n(n-1)/(s(s-1))],

since C(n-2,s-2)/C(n-4,s-4) = (n-2)(n-3)/((s-2)(s-3)) and
C(n,s)/C(n-4,s-4) = n(n-1)(n-2)(n-3)/(s(s-1)(s-2)(s-3)).  With a = A/d and
b = B/d over their least common denominator d that is one integer,

  (n-2)(n-3)*[A*m*s(s-1) - B*n(n-1)(s-2)] / (d*s(s-1)(s-2)(s-3)).

Its numerator is written once, in `_counting_numerator`, which
`counting_lower` and the verifier's lemma357 sweep both call.

Every kernel computes such a numerator num over a positive denominator den
in integers and chooses between rules by comparing integers.  `_clamp_ceil`
is the kernels' one constructor of the result: its `value` is
max(0, -(-num // den)), the clamped ceiling by floor division; `raw` keeps
the unreduced pair and becomes a Fraction only when it is read.

Reference values for complete graphs: the Zarankiewicz count
Z(r) = (1/4)*floor(r/2)*floor((r-1)/2)*floor((r-2)/2)*floor((r-3)/2) is an
upper bound for cr(K_r) (conjectured exact; the best proven lower bound is
about 0.86*Z(r) for large r, de Klerk, Pasechnik and Schrijver 2007), and
floor(a/2)floor((a-1)/2)floor(b/2)floor((b-1)/2) is the conjectured cr(K_{a,b}).

All arithmetic is exact; `raw` values read as Fractions, `value` = max(0, ceil(raw)).
Every count passes `errors._count`, and p passes `_as_exact` (exact, in (0, 1]).
"""
from __future__ import annotations

import functools
import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .choices import RuleId
from .errors import InapplicableRuleError, _count

_F = Fraction


class LinearRule(NamedTuple):
    """One inequality cr(G) >= a*m - b*(n-2)."""

    a: Fraction
    b: Fraction
    id: RuleId

    def raw(self, n: int, m: int) -> Fraction:
        return self.a * m - self.b * (n - 2)


LINEAR_RULES: tuple[LinearRule, ...] = (
    LinearRule(_F(1), _F(3), RuleId.EQ1),
    LinearRule(_F(7, 3), _F(25, 3), RuleId.EQ2),
    LinearRule(_F(3), _F(35, 3), RuleId.EQ3),
    LinearRule(_F(4), _F(103, 6), RuleId.EQ4),
    LinearRule(_F(5), _F(25), RuleId.EQ5),
)

RULE_BY_ID: dict[RuleId, LinearRule] = {rule.id: rule for rule in LINEAR_RULES}


class MethodKind(Enum):
    LINEAR = "linear"
    LEMMA64 = "lemma64"
    LEMMA311 = "lemma311"
    PROBABILISTIC = "probabilistic"
    COUNTING = "counting"


class Method(NamedTuple):
    """Provenance of a crossing lower bound: which inequality, which p/s."""

    kind: MethodKind
    rule: RuleId | None = None
    p: Fraction | None = None
    s: int | None = None

    def describe(self) -> str:
        if self.kind is MethodKind.LINEAR:
            return self.rule.value
        if self.kind is MethodKind.PROBABILISTIC:
            return f"probabilistic(p={self.p})"
        if self.kind is MethodKind.COUNTING:
            return f"counting(s={self.s}, base={self.rule.value})"
        return self.kind.value


# The five rules over their common denominator 6, 6*raw = A*m - B*(n-2), each
# with the provenance that linear_lower reports for it.
_LINEAR_SIXFOLD: dict[RuleId, tuple[int, int, Method]] = {
    rule.id: (int(6 * rule.a), int(6 * rule.b), Method(MethodKind.LINEAR, rule.id))
    for rule in LINEAR_RULES}

# the provenance of the two crossing-lemma forms, which never varies
_LEMMA64 = Method(MethodKind.LEMMA64)
_LEMMA311 = Method(MethodKind.LEMMA311)


_set = object.__setattr__
_new = object.__new__
# a record built as tuple.__new__(cls, fields), as a NamedTuple's own _make
# does, skips the Python __new__ that NamedTuple generates
_new_tuple = tuple.__new__


class CrossingLowerBound:
    """An integer lower bound on cr(G) with its exact pre-ceiling value and
    full provenance.

    The kernels pass `raw` as the unreduced integer pair (num, den); it is
    reduced to a Fraction on first read, so a caller that reads only `value`
    pays no gcd.  Immutable: ==, hash, repr, pickle, `_asdict` and
    `_replace` read the fields in `_fields` order, raw reduced.
    """

    __slots__ = ("value", "_raw", "method")
    _fields = ("value", "raw", "method")

    def __init__(self, value: int, raw: Fraction | tuple[int, int], method: Method):
        # the slots are written directly, as __setattr__ refuses
        _set(self, "value", value)
        _set(self, "_raw", raw)
        _set(self, "method", method)

    @property
    def raw(self) -> Fraction:
        raw = self._raw
        if type(raw) is tuple:
            raw = _F(*raw)
            _set(self, "_raw", raw)
        return raw

    def _key(self) -> tuple[int, Fraction, Method]:
        return self.value, self.raw, self.method

    def _asdict(self) -> dict:
        return dict(zip(self._fields, self._key()))

    def _replace(self, **changes) -> CrossingLowerBound:
        return CrossingLowerBound(**{**self._asdict(), **changes})

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return "CrossingLowerBound(" + ", ".join(
            f"{name}={value!r}" for name, value in self._asdict().items()) + ")"

    def __reduce__(self):
        return CrossingLowerBound, self._key()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _clamp_ceil(num: int, den: int, method: Method) -> CrossingLowerBound:
    """The kernels' one constructor: the bound num/den with den > 0, its
    value the clamped ceiling max(0, ceil(num/den))."""
    # crossing numbers are integers and never negative; den > 0, so floor
    # division gives the ceiling
    value = -(-num // den)
    if value < 0:
        value = 0
    bound = _new(CrossingLowerBound)
    _set(bound, "value", value)
    _set(bound, "_raw", (num, den))
    _set(bound, "method", method)
    return bound


_EQ4 = RULE_BY_ID[RuleId.EQ4]


class _SamplingFields(NamedTuple):
    s: int
    base: LinearRule = _EQ4


class SamplingParams(_SamplingFields):
    """Sample size and base inequality for the counting bound."""

    __slots__ = ()

    def __new__(cls, s: int, base: LinearRule = _EQ4):
        self = _new_tuple(cls, (s, base))
        _count("s", self.s)
        if self.s < 5:
            raise ValueError(f"sample size must be >= 5, got {self.s}")
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so a replaced record is checked too
        return cls(*iterable)


def _check_counts(n: int, m: int) -> None:
    """n and m are ints, so that no float reaches the integer kernels, and
    m >= 0."""
    _count("n", n)
    _count("m", m, 0)


def linear_lower(n: int, m: int) -> CrossingLowerBound:
    """Best of the five linear inequalities; ties go to the lowest-numbered
    rule.  The winner is chosen on raw values, then clamped at 0."""
    _check_counts(n, m)
    if n < 3:
        raise ValueError(f"linear rules need n >= 3, got {n}")
    best = None
    n2 = n - 2
    for a6, b6, method in _LINEAR_SIXFOLD.values():
        raw6 = a6 * m - b6 * n2
        if best is None or raw6 > best:  # strict, so the first maximum wins
            best, best_method = raw6, method
    return _clamp_ceil(best, 6, best_method)


def zarankiewicz(r: int) -> int:
    """Z(r), the conjectured crossing number of K_r and a proven upper bound."""
    _count("r", r, 1)
    return (r // 2) * ((r - 1) // 2) * ((r - 2) // 2) * ((r - 3) // 2) // 4


def bipartite_zarankiewicz(a: int, b: int) -> int:
    """Conjectured crossing number of K_{a,b} (exact for min(a,b) <= 6)."""
    _count("a", a)
    _count("b", b)
    if a < 1 or b < 1:
        raise ValueError(f"part sizes must be >= 1, got {a}, {b}")
    return (a // 2) * ((a - 1) // 2) * (b // 2) * ((b - 1) // 2)


def crossing_lemma_lower(n: int, m: int) -> CrossingLowerBound:
    """Best applicable cubic bound m^3/(64 n^2) or m^3/(31.1 n^2)."""
    _check_counts(n, m)
    _count("n", n, 1)
    # m >= 103n/16 implies m >= 4n, and 10/311 > 1/64: where the 31.1 form
    # applies it wins
    if 16 * m >= 103 * n:
        return _clamp_ceil(10 * m**3, 311 * n**2, _LEMMA311)
    if m >= 4 * n:
        return _clamp_ceil(m**3, 64 * n**2, _LEMMA64)
    raise InapplicableRuleError(
        f"crossing lemma needs m >= 4n or m >= 103n/16, got n={n}, m={m}"
    )


def _as_exact(p) -> Fraction:
    """The one gate on p: exact (a float or a bool raises TypeError) and in
    (0, 1] (ValueError), returned as a Fraction."""
    if isinstance(p, (float, bool)):
        raise TypeError(f"p must be exact (Fraction, int or string), not {type(p).__name__}")
    if type(p) is not Fraction:
        p = _F(p)
    if not 0 < p.numerator <= p.denominator:  # 0 < p <= 1, as the denominator is > 0
        raise ValueError(f"p must be in (0, 1], got {p}")
    return p


def _cr_ratio(n: int, twice_m: int, u: int, w: int) -> tuple[int, int]:
    """cr(n, m, p) at 2m = twice_m and p = u/w as (num, den), den > 0: the
    closed form over 6u^4*w^(n-6), for ints n >= 10 and 0 < u <= w."""
    # w^(n-4) = w^2 * w^(n-6): one power serves numerator and denominator
    w_pow = w ** (n - 6)
    num = ((12 * twice_m * u * u + (206 * w - 103 * n * u) * w) * w * w * w_pow
           - 30 * n * n * (w - u) ** (n - 2))
    return num, 6 * u**4 * w_pow


def cr_nmp(n: int, m: int, p) -> CrossingLowerBound:
    """The probabilistic bound cr(n,m,p), evaluated exactly.

    Any rational p in (0,1] gives a valid lower bound; at p = 1 the formula
    collapses to inequality (4).
    """
    _check_counts(n, m)
    if n < 10:
        raise ValueError(f"cr(n,m,p) needs n >= 10, got {n}")
    p = _as_exact(p)
    u, w = p.numerator, p.denominator
    num, den = _cr_ratio(n, 2 * m, u, w)
    return _clamp_ceil(num, den, _new_tuple(Method, (MethodKind.PROBABILISTIC, None, p, None)))


@functools.cache  # k is in 1..1000, so at most 1000 Fractions are kept
def _grid_point(k: int) -> Fraction:
    """k/1000, one shared Fraction per grid point, built on first use."""
    return _F(k, 1000)


def optimize_p(n: int, m: int) -> Fraction:
    """Near-optimal sampling probability for cr(n,m,p), on the 1/1000 grid.

    Ignoring the exponentially small tail term, d/dx of the bound written in
    x = 1/p vanishes at the roots of (412/3)x^2 - (103/2)n*x + 8m = 0.  The
    smaller positive root x* is the interior maximum; the returned value is
    1/x* rounded to the nearest 1/1000 (half away from zero) and clamped into
    (0, 1].  If the discriminant is negative or x* <= 1 there is no interior
    optimum and p = 1 is returned.  Everything is computed in exact integer
    arithmetic via isqrt; soundness never depends on the choice.  Each grid
    point is one shared Fraction, built on its first return.
    """
    _check_counts(n, m)
    if n < 10:
        raise ValueError(f"optimize_p needs n >= 10, got {n}")
    if m < 1:
        raise ValueError(f"optimize_p needs m >= 1, got {m}")
    # discriminant of the quadratic, scaled positive: D = (31827 n^2 - 52736 m)/12
    disc = 31827 * n * n - 52736 * m
    if disc < 0:
        return _grid_point(1000)
    # x* <= 1  <=>  (B - 2A)^2 <= D with B = 103n/2, A = 412/3; B > 2A for n >= 10
    if (309 * n - 1648) ** 2 <= 3 * disc:
        return _grid_point(1000)
    # 1000/x* = (309000 n + sqrt(N)) / (96 m) with N = 3000000 * disc
    big_n = 3000000 * disc
    p_num, q = 309000 * n, 96 * m
    root = math.isqrt(big_n)
    k = (p_num + root) // q  # floor(1000 p*)
    # round half up: bump iff 1000p* - k >= 1/2, i.e. 2*sqrt(N) >= (2k+1)q - 2*p_num
    rhs = (2 * k + 1) * q - 2 * p_num
    if rhs <= 0 or 4 * big_n >= rhs * rhs:
        k += 1
    return _grid_point(min(max(k, 1), 1000))


def _counting_coefficients(params: SamplingParams) -> tuple[int, int, int]:
    """(A*s(s-1), B*(s-2), d*s(s-1)(s-2)(s-3)) for the counting bound, where
    a = A/d and b = B/d over their least common denominator d; the last is
    the bound's (unreduced) denominator.  They depend on s and the base rule
    only, so a sweep over n computes them once."""
    s, a, b = params.s, params.base.a, params.base.b
    d = math.lcm(a.denominator, b.denominator)
    a_d, b_d = a.numerator * (d // a.denominator), b.numerator * (d // b.denominator)
    return a_d * s * (s - 1), b_d * (s - 2), d * s * (s - 1) * (s - 2) * (s - 3)


def _counting_numerator(n: int, m: int, a_s: int, b_s: int) -> int:
    """(n-2)(n-3)*[A*m*s(s-1) - B*n(n-1)(s-2)], the counting bound's
    numerator over the last of _counting_coefficients, from the first two."""
    return (n - 2) * (n - 3) * (a_s * m - b_s * n * (n - 1))


def counting_lower(n: int, m: int, params: SamplingParams) -> CrossingLowerBound:
    """Average a linear rule over all spanned s-vertex subgraphs.

    Exact closed form of the averaging argument: summing a*m_S - b*(s-2) over
    all C(n,s) subsets S uses each edge C(n-2,s-2) times, and each crossing of
    an optimal drawing of G appears in at most C(n-4,s-4) subsets.
    """
    _check_counts(n, m)
    s = params.s
    if s > n:
        raise ValueError(f"sample size s={s} exceeds n={n}")
    a_s, b_s, den = _counting_coefficients(params)
    return _clamp_ceil(_counting_numerator(n, m, a_s, b_s), den,
                       _new_tuple(Method, (MethodKind.COUNTING, params.base.id, None, s)))
