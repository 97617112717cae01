"""Edge-count lower bounds for r-critical graphs."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from albertson import (
    CriticalParams,
    EdgeBound,
    InapplicableRuleError,
    Rule,
    dirac_edges,
    gallai_edges,
    join_refined_edges,
    ks_edges,
    min_edges,
)


class TestCriticalParams:
    def test_valid(self):
        p = CriticalParams(r=13, n=18)
        assert (p.r, p.n) == (13, 18)

    def test_r_too_small(self):
        with pytest.raises(ValueError):
            CriticalParams(r=3, n=10)

    def test_n_below_r(self):
        with pytest.raises(ValueError):
            CriticalParams(r=13, n=12)


class TestDirac:
    def test_example(self):
        # 2m >= 12*18 + 10 = 226
        b = dirac_edges(CriticalParams(13, 18))
        assert b == EdgeBound(m_min=113, rule=Rule.DIRAC, excess=10)

    def test_odd_total_rounds_up(self):
        # 2m >= 4*8 + 2 = 34 -> 17; excess recomputed from the ceiling
        b = dirac_edges(CriticalParams(5, 8))
        assert (b.m_min, b.excess) == (17, 2)

    def test_inapplicable_below_r_plus_2(self):
        with pytest.raises(InapplicableRuleError):
            dirac_edges(CriticalParams(13, 14))


class TestGallai:
    def test_example_r13_n18(self):
        b = gallai_edges(CriticalParams(13, 18))
        assert b == EdgeBound(m_min=128, rule=Rule.GALLAI, excess=40)

    def test_example_r13_n22(self):
        # p = 9: 2m >= 12*22 + 9*4 - 1 = 299 -> 150
        b = gallai_edges(CriticalParams(13, 22))
        assert (b.m_min, b.excess) == (150, 36)

    @pytest.mark.parametrize("n", [13, 14, 26, 30])
    def test_inapplicable_outside_window(self, n):
        # applicable only for 2 <= n - r <= r - 1
        with pytest.raises(InapplicableRuleError):
            gallai_edges(CriticalParams(13, n))


class TestKS:
    def test_example(self):
        # 2m >= 12*22 + 20 = 284
        b = ks_edges(CriticalParams(13, 22))
        assert b == EdgeBound(m_min=142, rule=Rule.KS, excess=20)

    def test_applies_at_n_equal_r(self):
        b = ks_edges(CriticalParams(13, 13))
        assert b.m_min == 88  # 2m >= 156 + 20 = 176


class TestMinEdges:
    def test_gallai_wins_midrange(self):
        assert min_edges(CriticalParams(13, 18)) == EdgeBound(128, Rule.GALLAI, 40)
        assert min_edges(CriticalParams(13, 22)) == EdgeBound(150, Rule.GALLAI, 36)

    def test_ks_wins_large_n(self):
        # r=16, n=31: Gallai p=15 is still applicable but weaker
        b = min_edges(CriticalParams(16, 31))
        assert b == EdgeBound(246, Rule.KS, 27)

    def test_ks_fallback_when_gallai_inapplicable(self):
        b = min_edges(CriticalParams(5, 12))
        assert b.rule is Rule.KS

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            min_edges(CriticalParams(13, 14))

    def test_tie_prefers_gallai(self):
        # whenever both rules are applicable and agree, min_edges reports Gallai
        ties = 0
        for r in range(4, 21):
            for n in range(r + 2, 2 * r):
                g = gallai_edges(CriticalParams(r, n))
                k = ks_edges(CriticalParams(r, n))
                if g.m_min == k.m_min:
                    ties += 1
                    assert min_edges(CriticalParams(r, n)).rule is Rule.GALLAI
        assert ties > 0

    @given(st.integers(4, 25), st.integers(2, 40))
    def test_dominates_every_applicable_rule(self, r, offset):
        n = r + offset
        params = CriticalParams(r, n)
        best = min_edges(params)
        for rule_fn in (dirac_edges, gallai_edges, ks_edges):
            try:
                b = rule_fn(params)
            except InapplicableRuleError:
                continue
            assert best.m_min >= b.m_min

    @given(st.integers(4, 25), st.integers(2, 40))
    def test_excess_consistent(self, r, offset):
        n = r + offset
        b = min_edges(CriticalParams(r, n))
        assert b.excess == 2 * b.m_min - (r - 1) * n
        assert b.excess >= 0

    @given(st.integers(4, 25), st.integers(2, 40))
    def test_ks_never_below_dirac(self, r, offset):
        n = r + offset
        params = CriticalParams(r, n)
        assert ks_edges(params).m_min >= dirac_edges(params).m_min


class TestJoinRefined:
    def test_small_r(self):
        assert join_refined_edges(4) == EdgeBound(12, Rule.JOIN_REFINED, 6)
        assert join_refined_edges(5).m_min == 21

    def test_r17(self):
        # Gallai at n=32 gives 271; refinement adds ceil(15/2) = 8
        b = join_refined_edges(17)
        assert b == EdgeBound(279, Rule.JOIN_REFINED, 46)

    def test_exceeds_plain_gallai(self):
        for r in range(4, 31):
            plain = gallai_edges(CriticalParams(r, 2 * r - 2))
            assert join_refined_edges(r).m_min == plain.m_min + (r - 1) // 2

    def test_rejects_small_r(self):
        for r in (3, 1, -2):
            with pytest.raises(ValueError, match=rf"^r must be >= 4, got {r}$"):
                join_refined_edges(r)


@given(st.integers(4, 30), st.integers(2, 50))
def test_m_min_is_minimal_integer(r, offset):
    n = r + offset
    b = min_edges(CriticalParams(r, n))
    if b.rule is Rule.GALLAI:
        p = n - r
        x = (r - 1) * n + p * (r - p) - 1
    else:
        assert b.rule is Rule.KS
        x = (r - 1) * n + 2 * r - 6
    # m_min is the least integer whose doubling meets the winning inequality
    assert 2 * b.m_min >= x
    assert 2 * (b.m_min - 1) < x
