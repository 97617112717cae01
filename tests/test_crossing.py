"""Crossing-number lower bounds: linear rules, crossing lemma, probabilistic
refinement, counting bound, Zarankiewicz reference values."""

import contextlib
import copy
import itertools
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from albertson import (
    LINEAR_RULES,
    CrossingLowerBound,
    RULE_BY_ID,
    InapplicableRuleError,
    LinearRule,
    MethodKind,
    RuleId,
    SamplingParams,
    bipartite_zarankiewicz,
    counting_lower,
    cr_nmp,
    crossing_lemma_lower,
    linear_lower,
    optimize_p,
    tail_certificate,
    zarankiewicz,
)


class TestLinearRules:
    def test_stored_pairs(self):
        pairs = [(rule.a, rule.b) for rule in LINEAR_RULES]
        assert pairs == [
            (1, 3),
            (Fraction(7, 3), Fraction(25, 3)),
            (3, Fraction(35, 3)),
            (4, Fraction(103, 6)),
            (5, 25),
        ]

    def test_ids_in_order(self):
        assert [r.id for r in LINEAR_RULES] == list(RuleId)

    def test_raw_is_exact(self):
        assert RULE_BY_ID[RuleId.EQ4].raw(18, 128) == Fraction(712, 3)


class TestLinearLower:
    def test_r13_first_row(self):
        b = linear_lower(18, 128)
        # Eq5 edges out Eq4 here: 5*128-25*16=240 vs ceil(4*128-103*16/6)=238
        assert b.value == 240
        assert b.method.rule is RuleId.EQ5

    def test_r16_first_row(self):
        b = linear_lower(21, 185)
        assert b.value == 450
        assert b.method.rule is RuleId.EQ5

    def test_planar_triangle(self):
        assert linear_lower(3, 3).value == 0

    def test_k5(self):
        b = linear_lower(5, 10)
        assert b.value == 1
        assert b.method.rule is RuleId.EQ1

    def test_sparse_clamps_to_zero(self):
        assert linear_lower(10, 5).value == 0

    def test_tie_prefers_lowest_id(self):
        # m = 4(n-2) makes Eq1 and Eq2 agree exactly; both beat Eq3..Eq5 here
        b = linear_lower(7, 20)
        eq1 = RULE_BY_ID[RuleId.EQ1].raw(7, 20)
        eq2 = RULE_BY_ID[RuleId.EQ2].raw(7, 20)
        assert eq1 == eq2 == 5
        assert b.method.rule is RuleId.EQ1

    @pytest.mark.parametrize("n,m,tied,raw", [
        (7, 20, (RuleId.EQ1, RuleId.EQ2), Fraction(5)),
        (12, 50, (RuleId.EQ2, RuleId.EQ3), Fraction(100, 3)),
        (12, 55, (RuleId.EQ3, RuleId.EQ4), Fraction(145, 3)),
        (14, 94, (RuleId.EQ4, RuleId.EQ5), Fraction(170)),
        (20, 141, (RuleId.EQ4, RuleId.EQ5), Fraction(255)),
    ])
    def test_envelope_tie_points(self, n, m, tied, raw):
        """Where two neighbouring rules share the maximum, the lower-numbered
        one wins with the shared raw value."""
        raws = {rule.id: rule.raw(n, m) for rule in LINEAR_RULES}
        assert [raws[rule_id] for rule_id in tied] == [raw, raw] == [max(raws.values())] * 2
        b = linear_lower(n, m)
        assert (b.method.rule, b.raw, b.value) == (tied[0], raw, math.ceil(raw))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            linear_lower(2, 1)

    @pytest.mark.parametrize("bound", [
        lambda m: linear_lower(10, m),
        lambda m: cr_nmp(10, m, Fraction(1, 2)),
        lambda m: counting_lower(10, m, SamplingParams(s=5)),
        lambda m: crossing_lemma_lower(10, m),
    ], ids=["linear", "cr_nmp", "counting", "crossing_lemma"])
    def test_rejects_negative_edge_count(self, bound):
        with pytest.raises(ValueError, match="m must be >= 0, got -3"):
            bound(-3)
        if bound(40).method.kind is MethodKind.LEMMA64:
            # m = 0 passes the edge-count check; the lemma needs m >= 4n
            with pytest.raises(InapplicableRuleError):
                bound(0)
        else:
            assert bound(0).value == 0

    @given(st.integers(3, 200), st.integers(0, 2000))
    def test_max_of_five(self, n, m):
        b = linear_lower(n, m)
        best = max(rule.raw(n, m) for rule in LINEAR_RULES)
        assert b.raw == best
        assert b.value == max(0, math.ceil(best))

    @given(st.integers(3, 100), st.integers(0, 500))
    def test_monotone_in_m(self, n, m):
        assert linear_lower(n, m + 1).value >= linear_lower(n, m).value


class TestZarankiewicz:
    @pytest.mark.parametrize("r,z", [
        (1, 0), (2, 0), (3, 0), (4, 0), (5, 1), (6, 3), (7, 9),
        (13, 225), (14, 315), (15, 441), (16, 588), (17, 784),
    ])
    def test_values(self, r, z):
        assert zarankiewicz(r) == z

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            zarankiewicz(0)
        with pytest.raises(ValueError, match="part sizes must be >= 1, got 0, 3"):
            bipartite_zarankiewicz(0, 3)

    @pytest.mark.parametrize("a,b,z", [
        (3, 3, 1), (4, 4, 4), (2, 100, 0), (5, 5, 16), (5, 6, 24),
    ])
    def test_bipartite(self, a, b, z):
        assert bipartite_zarankiewicz(a, b) == z

    @given(st.integers(1, 40), st.integers(1, 40))
    def test_bipartite_symmetric(self, a, b):
        assert bipartite_zarankiewicz(a, b) == bipartite_zarankiewicz(b, a)


# cr(K_n) for n = 3..12 (Guy 1972; Pan and Richter 2007)
KNOWN_COMPLETE = {3: 0, 4: 0, 5: 1, 6: 3, 7: 9, 8: 18, 9: 36, 10: 60, 11: 100, 12: 150}


def _known_crossing_numbers():
    """(n, m, cr) of K_n above and of K_{a,b} for 1 <= a <= 6, a <= b < 40,
    where cr(K_{a,b}) = floor(a/2)floor((a-1)/2)floor(b/2)floor((b-1)/2)
    (Kleitman 1970)."""
    yield from ((n, n * (n - 1) // 2, cr) for n, cr in KNOWN_COMPLETE.items())
    for a in range(1, 7):
        for b in range(a, 40):
            yield a + b, a * b, (a // 2) * ((a - 1) // 2) * (b // 2) * ((b - 1) // 2)


class TestKnownCrossingNumbers:
    def test_no_kernel_exceeds_an_exact_crossing_number(self):
        """Every kernel is a lower bound, so none may exceed a known exact
        value; a shortcut that breaks soundness shows up here."""
        violations, evaluations = [], 0

        def check(label, n, m, cr, bound):
            nonlocal evaluations
            evaluations += 1
            if bound.value > cr:
                violations.append((label, n, m, cr, bound))

        for n, m, cr in _known_crossing_numbers():
            if n < 3:
                continue
            check("linear", n, m, cr, linear_lower(n, m))
            with contextlib.suppress(InapplicableRuleError):
                check("lemma", n, m, cr, crossing_lemma_lower(n, m))
            if n >= 10:
                check("cr_nmp", n, m, cr, cr_nmp(n, m, optimize_p(n, m)))
                check("cr_nmp", n, m, cr, cr_nmp(n, m, 1))
            for s in range(5, n + 1):
                for base in LINEAR_RULES:
                    check("counting", n, m, cr,
                          counting_lower(n, m, SamplingParams(s=s, base=base)))
        assert violations == []
        assert evaluations > 20000


class TestCrossingLemma:
    def test_dense_regime(self):
        b = crossing_lemma_lower(100, 400)
        assert b.raw == 100  # 400^3 / (64 * 100^2)
        assert b.value == 100

    def test_311_regime(self):
        # m = 103n/16 exactly; only the 311/10 form applies
        b = crossing_lemma_lower(16, 103)
        assert b.raw == Fraction(103**3 * 10, 311 * 16**2)
        assert b.value == 138

    def test_inapplicable(self):
        with pytest.raises(InapplicableRuleError):
            crossing_lemma_lower(100, 300)

    def test_rejects_empty_graph(self):
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            crossing_lemma_lower(0, 5)

    def test_picks_stronger_form(self):
        # 16*129 >= 103*20 and 129 >= 80, so both forms apply; the 311/10
        # denominator is the smaller, hence that form always wins
        b = crossing_lemma_lower(20, 129)
        assert b.raw == Fraction(129**3 * 10, 311 * 400)


class TestCrNmp:
    def test_r13_first_row(self):
        assert cr_nmp(18, 128, Fraction(719, 1000)).value == 288

    def test_r17_join_row(self):
        assert cr_nmp(32, 271, Fraction(665, 1000)).value == 759

    def test_p_one_collapses_to_eq4(self):
        b = cr_nmp(18, 128, Fraction(1))
        assert b.raw == 4 * 128 - Fraction(103, 6) * 16

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            cr_nmp(18, 128, 0.719)

    def test_rejects_bool(self):
        # True is an int to isinstance, and would be read as p = 1
        with pytest.raises(TypeError, match=r"^p must be exact .*, not bool$"):
            cr_nmp(20, 100, True)
        with pytest.raises(TypeError, match=r"^p must be exact .*, not bool$"):
            tail_certificate(13, True, 22)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            cr_nmp(9, 30, Fraction(1, 2))

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(-1, 2), Fraction(3, 2)])
    def test_rejects_bad_p(self, p):
        with pytest.raises(ValueError):
            cr_nmp(18, 128, p)

    def test_accepts_int_p(self):
        assert cr_nmp(18, 128, 1).raw == cr_nmp(18, 128, Fraction(1)).raw

    @given(st.integers(10, 60), st.integers(0, 600))
    def test_degenerates_at_p_one(self, n, m):
        assert cr_nmp(n, m, Fraction(1)).raw == 4 * m - Fraction(103, 6) * (n - 2)

    def test_closed_form(self):
        n, m, p = 20, 150, Fraction(3, 4)
        expected = (4 * m / p**2 - Fraction(103, 6) * n / p**3
                    + Fraction(103, 3) / p**4
                    - 5 * n**2 * (1 - p) ** (n - 2) / p**4)
        assert cr_nmp(n, m, p).raw == expected


# every (n, m) pair appearing in the published case tables, for grid tests
TABLE_POINTS = [
    (18, 128), (19, 135), (20, 141), (21, 146),
    (19, 146), (20, 153), (21, 159), (22, 164), (23, 168), (24, 171),
    (25, 173), (26, 181),
    (20, 165), (21, 173), (22, 180), (23, 186), (24, 191), (25, 195),
    (26, 198), (27, 208),
    (21, 185), (22, 194), (23, 202), (24, 209), (25, 215), (26, 220),
    (27, 224), (28, 227), (29, 236), (30, 243), (31, 246),
    (22, 206), (23, 216), (24, 225), (25, 233), (26, 240), (27, 246),
    (28, 251), (29, 255), (30, 258), (31, 264), (32, 271), (33, 273),
    (34, 281),
]


class TestOptimizeP:
    def test_r13_first_row(self):
        assert optimize_p(18, 128) == Fraction(719, 1000)

    def test_r16_first_row(self):
        assert optimize_p(21, 185) == Fraction(567, 1000)

    def test_dense_clamps_to_one(self):
        assert optimize_p(10, 1000) == 1

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            optimize_p(9, 20)

    def test_rejects_no_edges(self):
        with pytest.raises(ValueError):
            optimize_p(10, 0)

    @given(st.integers(10, 80), st.integers(1, 900))
    def test_output_on_grid(self, n, m):
        p = optimize_p(n, m)
        assert 0 < p <= 1
        assert 1000 % p.denominator == 0

    @pytest.mark.parametrize("n,m", TABLE_POINTS)
    def test_grid_optimality(self, n, m):
        """The returned grid point maximizes cr(n, m, p) over all of p =
        1/1000 … 1000/1000 (the snap-rounding never loses to a neighbour)."""
        p_star = optimize_p(n, m)
        best = cr_nmp(n, m, p_star).raw
        for k in range(1, 1001):
            assert cr_nmp(n, m, Fraction(k, 1000)).raw <= best

    @pytest.mark.parametrize("n,m", TABLE_POINTS)
    def test_matches_float_stationary_point(self, n, m):
        """Cross-check the exact integer root-finding against a floating-point
        solve of the stationary-point quadratic for the truncated objective."""
        disc = 31827 * n * n - 52736 * m
        p_star = optimize_p(n, m)
        if disc < 0:
            assert p_star == 1
            return
        x = (309 * n + math.sqrt(3 * disc)) / (96 * m) * 1000
        k = min(max(round(x), 1), 1000)
        # snap-rounding may legitimately differ by one grid step near .5
        assert abs(p_star * 1000 - k) <= 1


class TestCounting:
    def test_reference_instance(self):
        b = counting_lower(61, 488, SamplingParams(s=52))
        assert b.raw > Fraction(357, 400) * 1000  # 892.5
        assert b.method.s == 52

    def test_s_equals_n_identity(self):
        b = counting_lower(20, 100, SamplingParams(s=20))
        assert b.raw == 4 * 100 - Fraction(103, 6) * 18

    def test_base_rule_selectable(self):
        base = RULE_BY_ID[RuleId.EQ1]
        b = counting_lower(10, 30, SamplingParams(s=6, base=base))
        expected = Fraction(
            30 * math.comb(8, 4) - 3 * 4 * math.comb(10, 6), math.comb(6, 2))
        assert b.raw == expected

    def test_rejects_s_above_n(self):
        with pytest.raises(ValueError):
            counting_lower(10, 30, SamplingParams(s=11))

    def test_rejects_small_s(self):
        with pytest.raises(ValueError):
            SamplingParams(s=4)

    def test_matches_subset_average(self):
        """Exact agreement with the defining average over all s-subsets,
        evaluated on explicit random graphs."""
        rng = random.Random(0xC0)
        for _ in range(30):
            n = rng.randint(6, 10)
            s = rng.randint(5, n)
            base = RULE_BY_ID[rng.choice(list(RuleId))]
            edges = [e for e in itertools.combinations(range(n), 2)
                     if rng.random() < 0.5]
            m = len(edges)
            total = Fraction(0)
            for subset in itertools.combinations(range(n), s):
                inside = set(subset)
                m_s = sum(1 for u, v in edges if u in inside and v in inside)
                total += base.a * m_s - base.b * (s - 2)
            expected = total / math.comb(n - 4, s - 4)
            got = counting_lower(n, m, SamplingParams(s=s, base=base))
            assert got.raw == expected


class TestDeterminism:
    def test_repeated_calls_identical(self):
        for _ in range(3):
            assert optimize_p(26, 240) == optimize_p(26, 240)
            assert cr_nmp(26, 240, optimize_p(26, 240)).raw == \
                cr_nmp(26, 240, optimize_p(26, 240)).raw


class TestMethodDescribe:
    def test_each_kind(self):
        # one bound of each MethodKind, with the provenance string it reports
        bounds = {
            MethodKind.PROBABILISTIC: cr_nmp(18, 128, optimize_p(18, 128)),
            MethodKind.COUNTING: counting_lower(60, 1000, SamplingParams(s=52)),
            MethodKind.LEMMA311: crossing_lemma_lower(16, 103),
            MethodKind.LEMMA64: crossing_lemma_lower(100, 400),
            MethodKind.LINEAR: linear_lower(30, 300),
        }
        assert {kind: b.method.kind for kind, b in bounds.items()} == \
            {kind: kind for kind in MethodKind}
        assert {kind: b.method.describe() for kind, b in bounds.items()} == {
            MethodKind.PROBABILISTIC: "probabilistic(p=719/1000)",
            MethodKind.COUNTING: "counting(s=52, base=eq4)",
            MethodKind.LEMMA311: "lemma311",
            MethodKind.LEMMA64: "lemma64",
            MethodKind.LINEAR: "eq5",
        }


# ---------------------------------------------------------------------------
# oracles: the defining Fraction formulas, kept here only, against the
# integer-numerator kernels


def _oracle_linear(n, m):
    best = max(LINEAR_RULES, key=lambda rule: rule.raw(n, m))  # first maximum
    return best.raw(n, m), best.id


def _oracle_lemma(n, m):
    candidates = []
    if m >= 4 * n:
        candidates.append((Fraction(m**3, 64 * n**2), MethodKind.LEMMA64))
    if 16 * m >= 103 * n:
        candidates.append((m**3 / (Fraction(311, 10) * n**2), MethodKind.LEMMA311))
    return max(candidates, key=lambda c: c[0]) if candidates else None


def _oracle_cr_nmp(n, m, p):
    return (4 * m / p**2
            - Fraction(103, 6) * n / p**3
            + Fraction(103, 3) / p**4
            - 5 * n**2 * (1 - p) ** (n - 2) / p**4)


def _oracle_counting(n, m, s, base):
    return Fraction(base.a * m * math.comb(n - 2, s - 2)
                    - base.b * (s - 2) * math.comb(n, s),
                    math.comb(n - 4, s - 4))


def _check_linear(n, m):
    got = linear_lower(n, m)
    raw, rule = _oracle_linear(n, m)
    assert (got.raw, got.method.kind, got.method.rule) == (raw, MethodKind.LINEAR, rule)
    assert got.value == max(0, math.ceil(raw))


def _check_lemma(n, m):
    want = _oracle_lemma(n, m)
    if want is None:
        with pytest.raises(InapplicableRuleError):
            crossing_lemma_lower(n, m)
        return
    got = crossing_lemma_lower(n, m)
    assert (got.raw, got.method.kind) == want
    assert got.value == max(0, math.ceil(want[0]))


def _check_cr_nmp(n, m, p):
    got = cr_nmp(n, m, p)
    raw = _oracle_cr_nmp(n, m, p)
    assert got.raw == raw
    assert got.value == max(0, math.ceil(raw))
    assert (got.method.kind, got.method.p) == (MethodKind.PROBABILISTIC, p)


def _check_counting(n, m, s, base):
    got = counting_lower(n, m, SamplingParams(s=s, base=base))
    raw = _oracle_counting(n, m, s, base)
    assert got.raw == raw
    assert got.value == max(0, math.ceil(raw))
    assert (got.method.kind, got.method.rule, got.method.s) == \
        (MethodKind.COUNTING, base.id, s)


class TestKernelOracles:
    @given(st.integers(3, 400), st.integers(0, 20000))
    def test_linear(self, n, m):
        _check_linear(n, m)

    @given(st.integers(1, 400), st.integers(0, 20000))
    def test_crossing_lemma(self, n, m):
        _check_lemma(n, m)

    @given(st.integers(10, 150), st.integers(0, 11175),
           st.fractions(min_value=0, max_value=1, max_denominator=10**4)
           .filter(lambda p: p > 0))
    def test_cr_nmp(self, n, m, p):
        _check_cr_nmp(n, m, p)

    @given(st.integers(5, 300), st.integers(0, 44850), st.integers(5, 300),
           st.sampled_from(LINEAR_RULES))
    def test_counting(self, n, m, s, base):
        _check_counting(n, m, min(s, n), base)

    def test_seeded_draws(self):
        rng = random.Random(0x0AC1E)
        for _ in range(1500):
            n = rng.randint(10, 300)
            m = rng.randint(0, n * (n - 1) // 2)
            _check_linear(n, m)
            _check_lemma(n, m)
            _check_cr_nmp(n, m, Fraction(rng.randint(1, 1000), 1000))
            _check_cr_nmp(n, m, Fraction(rng.randint(1, 97), 97))
            base = rng.choice(LINEAR_RULES)
            _check_counting(n, m, rng.randint(5, n), base)

    @pytest.mark.parametrize("n", [10, 11, 18, 61, 300])
    def test_cr_nmp_edge_cases(self, n):
        for m in (0, 1, 4 * n, n * (n - 1) // 2):
            for p in (Fraction(1), Fraction(1, 1000), Fraction(999, 1000),
                      Fraction(1, 2), optimize_p(n, max(m, 1))):
                _check_cr_nmp(n, m, p)

    @pytest.mark.parametrize("n", range(3, 12))
    def test_small_orders(self, n):
        for m in range(0, n * (n - 1) // 2 + 1):
            _check_linear(n, m)
            _check_lemma(n, m)
            for s in range(5, n + 1):
                for base in LINEAR_RULES:
                    _check_counting(n, m, s, base)

    def test_counting_s_extremes(self):
        for n in (5, 6, 52, 61, 300):
            for m in (0, n, n * (n - 1) // 2):
                for base in LINEAR_RULES:
                    _check_counting(n, m, 5, base)
                    _check_counting(n, m, n, base)

    def test_counting_custom_base_rule(self):
        base = LinearRule(Fraction(9, 7), Fraction(11, 5), RuleId.EQ2)
        for n in (5, 9, 40):
            for s in (5, n):
                _check_counting(n, 2 * n, s, base)

    def test_lemma_tie_points(self):
        # m = 4n and 16m = 103n exactly, where a form switches on
        for n in range(1, 200):
            _check_lemma(n, 4 * n)
            _check_lemma(n, -(-103 * n // 16))
            _check_lemma(n, 103 * n // 16)

    @pytest.mark.parametrize("kernel,raw,value", [
        (lambda: linear_lower(10, 5), Fraction(-19), 0),  # eq1: 5 - 3*8
        (lambda: linear_lower(18, 128), Fraction(240), 240),  # eq5: 640 - 25*16
        (lambda: crossing_lemma_lower(100, 400), Fraction(100), 100),
        (lambda: crossing_lemma_lower(16, 103), Fraction(103**3 * 10, 311 * 16**2), 138),
        (lambda: cr_nmp(14, 0, 1), Fraction(-206), 0),  # 4m - 103(n-2)/6
        (lambda: cr_nmp(11, 0, Fraction(1, 2)), _oracle_cr_nmp(11, 0, Fraction(1, 2)), 0),
        (lambda: counting_lower(20, 0, SamplingParams(s=20)), Fraction(-309), 0),
        (lambda: counting_lower(20, 78, SamplingParams(s=20)), Fraction(3), 3),
        (lambda: counting_lower(10, 3, SamplingParams(s=6)),
         _oracle_counting(10, 3, 6, RULE_BY_ID[RuleId.EQ4]), 0),
    ])
    def test_value_is_clamped_ceiling(self, kernel, raw, value):
        """value = max(0, ceil(raw)) at negative numerators, which clamp to
        0, and at exact integers, which are their own ceiling."""
        got = kernel()
        assert got.value == value == max(0, math.ceil(raw))
        assert got.raw == raw


# ---------------------------------------------------------------------------
# the lazy record: value from the integer pair, raw reduced on first read

P_567 = Fraction(567, 1000)  # built here, outside the Fraction count below
KERNELS = {
    "linear": lambda: linear_lower(250, 3000),
    "crossing_lemma": lambda: crossing_lemma_lower(250, 3000),
    "cr_nmp": lambda: cr_nmp(250, 3000, P_567),
    "counting": lambda: counting_lower(250, 3000, SamplingParams(s=40)),
}


@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
class TestLazyRecord:
    def test_equals_fraction_built_record(self, kernel):
        read = kernel()
        eager = CrossingLowerBound(value=read.value, raw=read.raw, method=read.method)
        assert isinstance(read.raw, Fraction)
        assert kernel() == eager and eager == kernel()
        assert hash(kernel()) == hash(eager) == hash((eager.value, eager.raw, eager.method))
        assert repr(kernel()) == repr(eager) == (
            f"CrossingLowerBound(value={eager.value!r}, raw={eager.raw!r}, "
            f"method={eager.method!r})")
        assert kernel() != CrossingLowerBound(value=read.value + 1, raw=read.raw,
                                              method=read.method)

    def test_pickle_and_copy_round_trips(self, kernel):
        want = kernel()
        for copier in (lambda b: pickle.loads(pickle.dumps(b)), copy.copy, copy.deepcopy):
            got = copier(kernel())
            assert got == want and got.raw == want.raw and type(got.raw) is Fraction

    def test_fields_cannot_be_assigned(self, kernel):
        bound = kernel()
        for name in ("value", "raw", "method", "_raw"):
            with pytest.raises(AttributeError):
                setattr(bound, name, 0)
            with pytest.raises(AttributeError):
                delattr(bound, name)
        assert bound == kernel() and not hasattr(bound, "__dict__")

    def test_value_builds_no_fraction(self, kernel, monkeypatch):
        """Reading value constructs no Fraction; the first read of raw
        constructs exactly one, and later reads reuse it."""
        built = []
        real_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return real_new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        bound = kernel()
        assert bound.value >= 0 and built == []
        assert bound.raw is bound.raw
        assert len(built) == 1

    def test_dataclass_helpers_read_the_reduced_raw(self, kernel):
        """_asdict and _replace, the record helpers that stand in for
        dataclasses.asdict and replace, see raw as a reduced Fraction."""
        want = kernel()
        assert CrossingLowerBound._fields == ("value", "raw", "method")
        doc = kernel()._asdict()
        assert list(doc) == ["value", "raw", "method"]
        assert type(doc["raw"]) is Fraction and doc["raw"] == want.raw
        assert doc["value"] == want.value and doc["method"] == want.method
        moved = kernel()._replace(value=want.value + 1)
        assert type(moved.raw) is Fraction and moved.raw == want.raw
        assert moved.method == want.method and moved.value == want.value + 1
