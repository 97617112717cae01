"""Case-analysis verifier: published tables, tail certificates, sweeps,
Catlin comparison, report rendering."""

import json
import math
from fractions import Fraction

import pytest

from albertson import (
    REFERENCE_TABLES,
    RULE_BY_ID,
    TAIL_ANCHORS,
    CriticalParams,
    ReportFormat,
    RuleId,
    SweepResult,
    Verdict,
    catlin_check,
    compare_with_reference,
    cr_nmp,
    ks_edges,
    lemma357_check,
    optimize_p,
    parse_report,
    render_report,
    small_n_note,
    table_rule_id,
    tail_certificate,
    verify_albertson,
    zarankiewicz,
)
from albertson.crossing import SamplingParams, _counting_coefficients, _counting_numerator
from albertson.verifier import _fmt3

# frozen expected case rows: r -> [(n, e, linear, p, prob)]
EXPECTED_ROWS = {
    13: [
        (18, 128, 238, Fraction(719, 1000), 288),
        (19, 135, 249, Fraction(732, 1000), 296),
        (20, 141, 255, Fraction(751, 1000), 298),
        (21, 146, 258, Fraction(774, 1000), 294),
    ],
    14: [
        (19, 146, 293, Fraction(659, 1000), 388),
        (20, 154, 307, Fraction(670, 1000), 402),
        (21, 161, 318, Fraction(684, 1000), 407),
        (22, 167, 325, Fraction(702, 1000), 406),
        (23, 172, 328, Fraction(723, 1000), 398),
        (24, 176, 327, Fraction(747, 1000), 384),
        (25, 179, 322, Fraction(775, 1000), 366),
        (26, 181, 312, Fraction(807, 1000), 344),
    ],
    15: [
        (20, 165, 351, Fraction(610, 1000), 510),
        (21, 174, 370, Fraction(617, 1000), 531),
        (22, 182, 385, Fraction(628, 1000), 542),
        (23, 189, 396, Fraction(642, 1000), 545),
        (24, 195, 403, Fraction(659, 1000), 539),
        (25, 200, 406, Fraction(678, 1000), 526),
        (26, 204, 404, Fraction(700, 1000), 508),
        (27, 207, 399, Fraction(725, 1000), 484),
    ],
    16: [
        (21, 185, 450, Fraction(567, 1000), 657),
        (22, 195, 475, Fraction(573, 1000), 687),
        (23, 204, 495, Fraction(581, 1000), 706),
        (24, 212, 510, Fraction(592, 1000), 714),
        (25, 219, 520, Fraction(605, 1000), 712),
        (26, 225, 525, Fraction(621, 1000), 701),
        (27, 230, 525, Fraction(639, 1000), 683),
        (28, 234, 520, Fraction(659, 1000), 658),
        (29, 237, 510, Fraction(681, 1000), 628),
        (30, 239, 495, Fraction(706, 1000), 593),
        (31, 246, 505, Fraction(713, 1000), 601),
    ],
    17: [
        (22, 206, 530, Fraction(530, 1000), 832),
        (23, 217, 560, Fraction(534, 1000), 874),
        (24, 227, 585, Fraction(541, 1000), 902),
        (25, 236, 605, Fraction(550, 1000), 917),
        (26, 244, 620, Fraction(560, 1000), 920),
        (27, 251, 630, Fraction(573, 1000), 913),
        (28, 257, 635, Fraction(588, 1000), 897),
        (29, 262, 635, Fraction(604, 1000), 872),
        (30, 266, 630, Fraction(622, 1000), 840),
        (31, 269, 620, Fraction(643, 1000), 802),
        (32, 271, 605, Fraction(665, 1000), 759),
        (33, 278, 615, Fraction(672, 1000), 765),
        (34, 286, 630, Fraction(677, 1000), 779),
    ],
}


class TestCaseRows:
    @pytest.mark.parametrize("r", [13, 14, 15, 16, 17])
    def test_rows_match_frozen_values(self, r):
        rep = verify_albertson(r)
        got = [(c.n, c.m_min, c.linear_bound, c.p, c.prob_bound)
               for c in rep.rows]
        assert got == EXPECTED_ROWS[r]

    @pytest.mark.parametrize("r", range(5, 31))
    def test_linear_column_is_the_table_rule(self, r):
        # the clamped ceiling of the table rule's exact value, refined rows too
        rule = RULE_BY_ID[table_rule_id(r)]
        rep = verify_albertson(r)
        for row in rep.rows + rep.refined_rows:
            assert row.linear_bound == max(0, math.ceil(rule.raw(row.n, row.m_min)))

    @pytest.mark.parametrize("r", [13, 14, 15, 16, 17])
    def test_targets_and_satisfied(self, r):
        rep = verify_albertson(r)
        z = zarankiewicz(r)
        for row in rep.rows:
            assert row.target == z
            assert row.satisfied == (max(row.linear_bound, row.prob_bound) >= z)

    @pytest.mark.parametrize("r", [13, 14, 15, 16, 17])
    def test_prob_never_much_below_plain_eq4(self, r):
        # optimizing p and snapping to the grid never costs more than one
        # crossing relative to taking p = 1 (which is plain Eq4)
        for row in verify_albertson(r).rows:
            plain = cr_nmp(row.n, row.m_min, Fraction(1)).value
            assert row.prob_bound >= plain - 1

    def test_reference_reproduction_single_flag(self):
        """Published tables are reproduced exactly except one p entry whose
        source value came from a float optimizer."""
        all_flags = []
        for r in (13, 14, 15, 16, 17):
            all_flags += [(r, f) for f in
                          compare_with_reference(verify_albertson(r))]
        assert len(all_flags) == 1
        r, flag = all_flags[0]
        assert r == 15
        assert "n=22" in flag and "0.628" in flag and "0.623" in flag

    @pytest.mark.parametrize("edit, flag", [
        (lambda rows: rows[1:], "n=20: reference row has no computed counterpart"),
        (lambda rows: (rows[0]._replace(m_min=166), *rows[1:]),
         "n=20: e = 166 here vs 165 in the reference"),
        (lambda rows: (rows[0]._replace(linear_bound=352), *rows[1:]),
         "n=20: linear bound = 352 here vs 351 in the reference"),
        (lambda rows: (rows[0]._replace(prob_bound=511), *rows[1:]),
         "n=20: prob bound = 511 here vs 510 in the reference"),
        (lambda rows: (*rows, rows[-1]._replace(n=28)),
         "n=28: computed row has no reference counterpart"),
    ], ids=["missing", "e", "linear", "prob", "extra"])
    def test_reference_flags_name_each_difference(self, edit, flag):
        report = verify_albertson(15)
        p_flag = ("n=22: p = 0.628 here vs 0.623 in the reference "
                  "(which optimized p in floating point)")
        got = compare_with_reference(report._replace(rows=edit(report.rows)))
        assert sorted(got) == sorted((flag, p_flag))

    def test_fmt3_off_the_milli_grid(self):
        # a parsed structured report may carry any p, not only multiples of 1/1000
        assert _fmt3(Fraction(1, 3)) == "0.333"

    def test_reference_table_shape(self):
        assert sorted(REFERENCE_TABLES) == [13, 14, 15, 16, 17]
        assert [len(REFERENCE_TABLES[r]) for r in (13, 14, 15, 16, 17)] == \
            [4, 8, 8, 11, 13]


class TestVerdicts:
    @pytest.mark.parametrize("r", [13, 14, 15, 16])
    def test_verified(self, r):
        rep = verify_albertson(r)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.gaps == ()

    def test_r17_gaps(self):
        rep = verify_albertson(17)
        assert rep.verdict is Verdict.GAPS_REMAIN
        assert rep.gaps == (33, 34)

    def test_r17_join_refinement(self):
        rep = verify_albertson(17)
        assert len(rep.refined_rows) == 1
        ref = rep.refined_rows[0]
        assert (ref.n, ref.m_min) == (32, 279)
        assert ref.prob_bound == 834
        assert ref.satisfied
        # refinement rescues n=32, so 32 is not a gap
        assert 32 not in rep.gaps

    def test_refinement_only_when_needed(self):
        # r=14: n = 2r-2 = 26 is already satisfied, so no refined row
        assert verify_albertson(14).refined_rows == ()

    @pytest.mark.parametrize("r", [10, 11, 12])
    def test_small_r_verified_without_rows(self, r):
        rep = verify_albertson(r)
        assert rep.verdict is Verdict.VERIFIED
        assert rep.rows == ()
        assert rep.tail.valid and rep.tail.n0 == r + 5

    @pytest.mark.parametrize("r", [5, 6, 7, 8, 9])
    def test_tiny_r_has_no_certificate(self, r):
        rep = verify_albertson(r)
        assert rep.verdict is Verdict.GAPS_REMAIN
        assert not rep.tail.valid
        assert rep.rows[0].n == r + 5
        assert rep.rows[-1].n == 4 * r - 1

    @pytest.mark.parametrize("r", list(range(18, 31)))
    def test_large_r_tail_is_valid(self, r):
        assert verify_albertson(r).tail.valid

    @pytest.mark.parametrize("r", [4, 31])
    def test_range_errors(self, r):
        with pytest.raises(ValueError):
            verify_albertson(r)

    def test_verdict_matches_gap_and_tail(self):
        for r in range(5, 31):
            rep = verify_albertson(r)
            verified = not rep.gaps and rep.tail.valid
            assert (rep.verdict is Verdict.VERIFIED) == verified


class TestTableRule:
    def test_switch_at_16(self):
        assert table_rule_id(13) is RuleId.EQ4
        assert table_rule_id(15) is RuleId.EQ4
        assert table_rule_id(16) is RuleId.EQ5
        assert table_rule_id(17) is RuleId.EQ5


class TestTailCertificates:
    def test_published_anchors(self):
        assert TAIL_ANCHORS == {
            13: (Fraction(1), 22),
            14: (Fraction(1), 27),
            15: (Fraction(764, 1000), 28),
            16: (Fraction(72, 100), 32),
            17: (Fraction(681, 1000), 35),
        }

    @pytest.mark.parametrize("r", [13, 14, 15, 16, 17])
    def test_anchor_certificates_valid(self, r):
        p, n0 = TAIL_ANCHORS[r]
        cert = tail_certificate(r, p, n0)
        assert cert.valid
        assert cert.anchor_value >= zarankiewicz(r) or \
            cert.anchor_value > zarankiewicz(r) - 1  # ceil covers the target

    def test_r13_anchor_value(self):
        cert = tail_certificate(13, Fraction(1), 22)
        assert cert.slope == Fraction(41, 6)
        assert cert.anchor_value == Fraction(674, 3)  # 224.67 vs target 225

    def test_r17_slope_intercept(self):
        cert = tail_certificate(17, Fraction(681, 1000), 35)
        assert abs(cert.slope - Fraction(1464, 100)) < Fraction(1, 100)
        assert abs(cert.intercept - Fraction(28038, 100)) < Fraction(1, 100)

    def test_bad_p_fails_validation(self):
        assert not tail_certificate(13, Fraction(999, 1000), 18).valid

    def test_rejects_small_n0(self):
        with pytest.raises(ValueError):
            tail_certificate(13, Fraction(1), 17)

    def test_rejects_float_p(self):
        with pytest.raises(TypeError):
            tail_certificate(13, 0.75, 22)

    @pytest.mark.parametrize("p", [Fraction(0), Fraction(11, 10)])
    def test_rejects_out_of_range_p(self, p):
        with pytest.raises(ValueError):
            tail_certificate(13, p, 22)

    @pytest.mark.parametrize("r", [13, 14, 15, 16, 17])
    @pytest.mark.parametrize("offset", [1, 7, 50])
    def test_soundness_beyond_anchor(self, r, offset):
        """A valid certificate really does cover every larger order: spot-check
        that the probabilistic bound at the KS edge count clears the target."""
        p, n0 = TAIL_ANCHORS[r]
        n = n0 + offset
        m = ks_edges(CriticalParams(r, n)).m_min
        assert cr_nmp(n, m, p).value >= zarankiewicz(r)


# verify_albertson(r).tail as (p, n0, valid), recorded from the term-by-term
# Fraction evaluation of the tail; r = 5..9 have no certificate and end on
# the invalid last attempt at n0 = 4r
SEARCHED_TAILS = {
    5: (Fraction(1), 20, False),
    6: (Fraction(1), 24, False),
    7: (Fraction(1), 28, False),
    8: (Fraction(1), 32, False),
    9: (Fraction(1), 36, False),
    10: (Fraction(1), 15, True),
    11: (Fraction(1), 16, True),
    12: (Fraction(1), 17, True),
    13: (Fraction(1), 22, True),
    14: (Fraction(1), 27, True),
    15: (Fraction(191, 250), 28, True),
    16: (Fraction(18, 25), 32, True),
    17: (Fraction(681, 1000), 35, True),
    18: (Fraction(129, 200), 38, True),
    19: (Fraction(123, 200), 42, True),
    20: (Fraction(117, 200), 45, True),
    21: (Fraction(561, 1000), 49, True),
    22: (Fraction(67, 125), 52, True),
    23: (Fraction(257, 500), 56, True),
    24: (Fraction(493, 1000), 59, True),
    25: (Fraction(19, 40), 63, True),
    26: (Fraction(457, 1000), 66, True),
    27: (Fraction(441, 1000), 70, True),
    28: (Fraction(17, 40), 73, True),
    29: (Fraction(411, 1000), 77, True),
    30: (Fraction(397, 1000), 80, True),
}


def _reference_certificate(r, p, n0):
    """(slope, T(n0), h(n0), intercept, valid) of a tail certificate, each
    evaluated term by term in Fractions, independently of cr(n, m, p)."""
    slope = 2 * (r - 1) / p**2 - Fraction(103, 6) / p**3
    tail_term = 5 * n0**2 * (1 - p) ** (n0 - 2) / p**4
    decreasing = (1 - p) * Fraction(n0 + 1, n0) ** 2 < 1
    intercept = (4 * r - 12) / p**2 + Fraction(103, 3) / p**4
    anchor = slope * n0 + intercept - tail_term
    valid = slope > 0 and decreasing and math.ceil(anchor) >= zarankiewicz(r)
    return slope, tail_term, anchor, intercept, valid


def _checked_certificate(r, p, n0):
    """tail_certificate(r, p, n0), asserted equal to the Fraction reference."""
    cert = tail_certificate(r, p, n0)
    got = (cert.slope, cert.tail_term_at_n0, cert.anchor_value, cert.intercept, cert.valid)
    assert got == _reference_certificate(r, p, n0), (r, p, n0)
    return cert


def _tail_orders(r):
    return range(max(10, r + 5), 4 * r + 11)


class TestTailAgainstFractionReference:
    ANCHOR_PS = frozenset(p for p, _ in TAIL_ANCHORS.values())

    def test_grid_matches(self):
        outcomes = set()
        for r in range(5, 31):
            for n0 in _tail_orders(r):
                # a stride of the 1/1000 grid whose offset moves with n0
                ps = {Fraction(k, 1000) for k in range(1 + n0 % 167, 1001, 167)}
                for p in ps | {Fraction(1)} | self.ANCHOR_PS:
                    outcomes.add(_checked_certificate(r, p, n0).valid)
        assert outcomes == {False, True}

    @pytest.mark.parametrize("r", range(10, 31))  # 103/(12(r-1)) <= 1 from r = 10
    def test_slope_zero_boundary(self, r):
        p = Fraction(103, 12 * (r - 1))
        for n0 in _tail_orders(r):
            cert = _checked_certificate(r, p, n0)
            assert cert.slope == 0 and not cert.valid
        if r <= 12:
            # T is decreasing and ceil(h(n0)) clears Z(r) here, so only a
            # strict slope test refuses this certificate
            cert = tail_certificate(r, p, r + 5)
            assert (1 - p) * Fraction(r + 6, r + 5) ** 2 < 1
            assert math.ceil(cert.anchor_value) >= zarankiewicz(r)

    def test_tail_flat_boundary(self):
        for r in range(5, 31):
            for n0 in _tail_orders(r):
                p = Fraction(2 * n0 + 1, (n0 + 1) ** 2)
                cert = _checked_certificate(r, p, n0)
                assert tail_certificate(r, p, n0 + 1).tail_term_at_n0 == cert.tail_term_at_n0
                # for n0 >= r + 5 the slope is negative wherever T is flat,
                # so a positive slope implies a decreasing T and condition
                # (b) never decides `valid` on its own
                assert cert.slope < 0 and not cert.valid

    def test_target_boundary(self):
        # h(22) = 674/3 lies in (Z(13) - 1, Z(13)]: its ceiling is the target
        assert _checked_certificate(13, Fraction(1), 22).valid

    def test_anchor_is_cr_nmp_at_the_ks_count(self):
        for r in range(5, 31):
            for n0 in _tail_orders(r):
                if (r - 1) * n0 % 2:
                    continue
                m = ((r - 1) * n0 + 2 * r - 6) // 2
                for p in {Fraction(1), optimize_p(n0, m)} | self.ANCHOR_PS:
                    assert tail_certificate(r, p, n0).anchor_value == cr_nmp(n0, m, p).raw

    def test_searched_tails_are_pinned(self):
        tails = {r: verify_albertson(r).tail for r in range(5, 31)}
        assert {r: (t.p, t.n0, t.valid) for r, t in tails.items()} == SEARCHED_TAILS


def test_positive_slope_implies_decreasing_tail():
    """For n0 >= r + 5, 103/(12(r-1)) > (2n0+1)/(n0+1)^2, so a p with a
    positive slope also makes T decrease at n0, and `_tail_valid` need not
    test the second."""
    for r in range(5, 31):
        for n0 in _tail_orders(r):
            assert 12 * (r - 1) * (2 * n0 + 1) < 103 * (n0 + 1) ** 2, (r, n0)


class TestSmallNNote:
    def test_mentions_threshold(self):
        note = small_n_note(13)
        assert "17" in note  # r + 4
        assert "topological" in note


class TestLemma357:
    def test_r17(self):
        s = lemma357_check(17)
        assert s.ok and bool(s)
        assert (s.n_lo, s.n_hi) == (61, 68)
        assert s.min_margin == Fraction(291384647, 1624350)
        assert s.argmin_n == 61

    def test_r20(self):
        s = lemma357_check(20)
        assert s.ok
        assert (s.n_lo, s.n_hi) == (72, 80)
        assert s.min_margin == Fraction(19503087, 61880)

    def test_r40(self):
        s = lemma357_check(40)
        assert s.ok
        assert (s.n_lo, s.n_hi) == (143, 160)

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            lemma357_check(16)

    @pytest.mark.parametrize("r", [*range(17, 81), 1000, 3016])
    def test_matches_comb_sweep(self, r):
        """The integer-margin sweep against the defining binomial form of the
        s = 52, inequality (4) counting bound, swept in Fractions."""
        a, b = Fraction(4), Fraction(103, 6)
        target = Fraction(r * (r - 1) * (r - 2) * (r - 3), 64)
        best = None
        for n in range(-(-357 * r // 100), 4 * r + 1):
            m = -(-((r - 1) * n) // 2)
            raw = Fraction(a * m * math.comb(n - 2, 50) - b * 50 * math.comb(n, 52),
                           math.comb(n - 4, 48))
            if best is None or raw - target < best[0]:
                best = (raw - target, n)
        s = lemma357_check(r)
        assert (s.ok, s.min_margin, s.argmin_n) == (best[0] > 0, best[0], best[1])

    def test_matches_plain_sweep(self):
        for r in range(17, 3017):
            assert lemma357_check(r) == _lemma357_reference(r), r

    @pytest.mark.parametrize("r", [10**4, 10**5, 10**6])
    def test_matches_plain_sweep_at_large_r(self, r):
        assert lemma357_check(r) == _lemma357_reference(r)

    @pytest.mark.parametrize("r", [17, 10**7])
    def test_reads_four_orders(self, r, monkeypatch):
        """The margin is evaluated at n_lo, n_lo+1, n_hi-1 and n_hi only."""
        orders = []

        def counted(n, *args):
            orders.append(n)
            return _counting_numerator(n, *args)

        monkeypatch.setattr("albertson.verifier._counting_numerator", counted)
        s = lemma357_check(r)
        assert orders == [s.n_lo, s.n_lo + 1, s.n_hi - 1, s.n_hi]

    def test_each_parity_class_is_concave(self):
        """The premise of reading four orders: exact step-2 second
        differences of the integer margin are negative on both parity
        classes."""
        a_s, b_s, den = _counting_coefficients(SamplingParams(s=52))

        def second_differences(r, orders):
            target = den * r * (r - 1) * (r - 2) * (r - 3)

            def gap(n):
                m = -(-((r - 1) * n) // 2)
                return 64 * (n - 2) * (n - 3) * (a_s * m - b_s * n * (n - 1)) - target

            return [gap(n - 2) - 2 * gap(n) + gap(n + 2) for n in orders]

        for r in range(17, 301):
            n_lo, n_hi = -(-357 * r // 100), 4 * r
            assert max(second_differences(r, range(n_lo + 2, n_hi - 1))) < 0, r
        r = 10**7
        n_lo, n_hi = -(-357 * r // 100), 4 * r
        orders = [*range(n_lo + 2, n_lo + 5), *range(n_hi - 4, n_hi - 1)]
        assert max(second_differences(r, orders)) < 0


def _lemma357_reference(r):
    """lemma357_check(r) as a plain loop over every order, keeping the first
    smallest integer margin."""
    n_lo, n_hi = -(-357 * r // 100), 4 * r
    a_s, b_s, den = _counting_coefficients(SamplingParams(s=52))
    target = den * r * (r - 1) * (r - 2) * (r - 3)
    margin = argmin_n = None
    for n in range(n_lo, n_hi + 1):
        m = -(-((r - 1) * n) // 2)
        gap = 64 * (n - 2) * (n - 3) * (a_s * m - b_s * n * (n - 1)) - target
        if margin is None or gap < margin:
            margin, argmin_n = gap, n
    return SweepResult(ok=margin > 0, r=r, n_lo=n_lo, n_hi=n_hi,
                       min_margin=Fraction(margin, 64 * den), argmin_n=argmin_n)


def _remark2_sweep(r):
    """(least margin, first n with it, ceil(3.57r)) of Remark 2's two-step
    crossing-lemma chain over r <= n <= ceil(3.57r).  With m = (r-1)n/2 the
    m >= 103n/16 form of the crossing lemma gives cr(G) >= (r-1)^3 n / (31.1 * 8);
    step 1 is its margin over r(r-1)^3/250, step 2 that of r(r-1)^3/250 over
    Z(r)/4."""
    n_hi = -(-357 * r // 100)
    target = Fraction(r) * (r - 1) ** 3 / 250
    step2 = target - Fraction(zarankiewicz(r), 4)
    best = None
    for n in range(r, n_hi + 1):
        step1 = Fraction(r - 1) ** 3 * n / (Fraction(311, 10) * 8) - target
        margin = min(step1, step2)
        if best is None or margin < best[0]:
            best = (margin, n)
    return (*best, n_hi)


class TestRemark2:
    @pytest.mark.parametrize("r,lo,hi", [(14, 14, 50), (16, 16, 58), (20, 20, 72)])
    def test_holds(self, r, lo, hi):
        margin, argmin_n, n_hi = _remark2_sweep(r)
        assert margin > 0
        assert (argmin_n, n_hi) == (lo, hi)

    def test_rejects_small_r(self):
        # the chain needs m = (r-1)n/2 >= 103n/16, which first holds at r = 14
        assert [r for r in range(2, 15) if Fraction(r - 1, 2) >= Fraction(103, 16)] == [14]

    def test_matches_sweep_over_every_n(self):
        """The chain holds at every n in [r, ceil(3.57r)], and step 1 rises
        with n, so the least margin is the one at n = r."""
        for r in range(14, 301):
            margin, argmin_n, _ = _remark2_sweep(r)
            assert margin >= 0 and argmin_n == r, r


class TestCatlin:
    def test_asymptotic_coefficients(self):
        rep = catlin_check(50)
        assert rep.lower_coefficient == Fraction(45, 64)
        assert rep.upper_coefficient == Fraction(625, 1024)

    def test_first_hold_and_failures(self):
        rep = catlin_check(50)
        assert rep.first_hold == 8
        assert rep.failures == (1, 2, 3, 4, 5, 6, 7, 9, 11)

    def test_k13_margin(self):
        row = next(r for r in catlin_check(13).rows if r.k == 13)
        assert (row.lower, row.upper) == (14409, 14400)
        assert row.holds

    def test_k2_exact_values(self):
        # Z(4) = Z(2) = 0 and the bipartite Z(2,2) = 0, so the lower side
        # vanishes entirely while Z(5) = 1
        row = next(r for r in catlin_check(2).rows if r.k == 2)
        assert (row.lower, row.upper, row.holds) == (0, 1, False)

    def test_holds_from_12_on(self):
        rep = catlin_check(200)
        assert all(row.holds for row in rep.rows if row.k >= 12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            catlin_check(0)


class TestRendering:
    def test_markdown_header_r13(self):
        md = render_report(verify_albertson(13), ReportFormat.MARKDOWN)
        assert "## Albertson case analysis, r = 13" in md
        assert "| n | e | bound (4) | p | ⌈cr(n,m,p)⌉ |" in md
        assert "| 18 | 128 | 238 | 0.719 | 288 |" in md
        assert "Verdict: Verified." in md
        assert "Gaps: none." in md

    def test_markdown_r17_specifics(self):
        md = render_report(verify_albertson(17), ReportFormat.MARKDOWN)
        assert "bound (5)" in md
        assert "Join refinement at n = 32: e = 279" in md
        assert "834" in md
        assert "Gaps: 33, 34." in md
        assert "Verdict: GapsRemain." in md

    def test_csv_layout(self):
        csv = render_report(verify_albertson(13), ReportFormat.CSV)
        lines = csv.strip().splitlines()
        assert lines[0] == "n,e,linear_bound,p,prob_bound,target,satisfied"
        assert lines[1] == "18,128,238,719/1000,288,225,true"
        assert len(lines) == 5

    def test_csv_p_in_lowest_terms(self):
        csv = render_report(verify_albertson(13), ReportFormat.CSV)
        assert "183/250" in csv  # 732/1000 reduced

    @pytest.mark.parametrize("r", [13, 16, 17])
    def test_structured_round_trip(self, r):
        rep = verify_albertson(r)
        blob = render_report(rep, ReportFormat.STRUCTURED)
        assert parse_report(blob) == rep

    def test_parse_needs_every_field_and_ignores_extra_keys(self):
        rep = verify_albertson(13)
        doc = json.loads(render_report(rep, ReportFormat.STRUCTURED))
        doc["rows"][0]["winner"] = "eq5"
        doc["tail"]["note"] = "unused"
        assert parse_report(json.dumps(doc)) == rep
        del doc["rows"][0]["m_min"]
        with pytest.raises(KeyError, match="m_min"):
            parse_report(json.dumps(doc))

    def test_structured_is_json_with_sorted_keys(self):
        blob = render_report(verify_albertson(13), ReportFormat.STRUCTURED)
        doc = json.loads(blob)
        assert list(doc) == sorted(doc)
        assert doc["r"] == 13
        assert doc["verdict"] == "Verified"

    def test_render_accepts_format_names(self):
        rep = verify_albertson(13)
        assert render_report(rep, "markdown") == \
            render_report(rep, ReportFormat.MARKDOWN)

    @pytest.mark.parametrize("fmt", list(ReportFormat))
    def test_rendering_is_deterministic(self, fmt):
        rep = verify_albertson(17)
        assert render_report(rep, fmt) == render_report(rep, fmt)
