"""Acceptance gate: one test per acceptance criterion, each printing a single
PASS/FAIL line.

One criterion is knowingly red: the Catlin finite comparison L(k) > R(k) is
asserted for all 2 <= k <= 50 as stated, but the exact values genuinely fail
it for k in {2..7, 9, 11} (it first holds at k = 8 and for every k >= 12).
The assertion is kept as stated rather than weakened; see the README.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from albertson import (
    RULE_BY_ID,
    TAIL_ANCHORS,
    FamilyKind,
    FamilySpec,
    RuleId,
    SamplingParams,
    build_family,
    catlin_check,
    chromatic_number,
    complete_graph,
    counting_lower,
    cr_nmp,
    delta_splits,
    efamily_splits,
    find_topological_clique,
    is_critical,
    join,
    lemma357_check,
    tail_certificate,
    verify_albertson,
    zarankiewicz,
)


def _report(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"{status}  {name}{suffix}")
    assert ok, f"{name}: {detail}"


def test_table_r13():
    start = time.perf_counter()
    rep = verify_albertson(13)
    elapsed = time.perf_counter() - start
    expected = [(18, 128, 238, 288), (19, 135, 249, 296),
                (20, 141, 255, 298), (21, 146, 258, 294)]
    ok = len(rep.rows) == len(expected)
    for row, (n, e, lin, prob) in zip(rep.rows, expected):
        ok = ok and (row.n, row.m_min, row.linear_bound) == (n, e, lin)
        ok = ok and abs(row.prob_bound - prob) <= 1
        ok = ok and max(row.linear_bound, row.prob_bound) >= 225
    ok = ok and elapsed < 1.0
    _report("table r=13 exact (e, linear), prob within ±1, all ≥ 225, < 1 s",
            ok, f"{elapsed * 1000:.0f} ms")


def test_table_r14():
    rep = verify_albertson(14)
    rows = rep.rows
    ok = len(rows) == 8
    ok = ok and [r.n for r in rows] == list(range(19, 27))
    ok = ok and (rows[0].m_min, rows[-1].m_min) == (146, 181)
    ok = ok and abs(rows[0].prob_bound - 388) <= 1
    ok = ok and abs(rows[-1].prob_bound - 344) <= 1
    ok = ok and all(max(r.linear_bound, r.prob_bound) >= 315 for r in rows)
    _report("table r=14: 8 rows n=19…26, e 146→181, prob 388→344, all ≥ 315",
            ok)


def test_table_r15():
    rep = verify_albertson(15)
    ok = len(rep.rows) == 8
    ok = ok and [r.n for r in rep.rows] == list(range(20, 28))
    ok = ok and all(max(r.linear_bound, r.prob_bound) >= 441 for r in rep.rows)
    cert = tail_certificate(15, Fraction(764, 1000), 28)
    ok = ok and cert.valid and rep.tail.valid
    _report("table r=15: 8 rows n=20…27 all ≥ 441, tail (15, 0.764, 28) valid",
            ok)


def test_table_r16():
    rep = verify_albertson(16)
    ok = len(rep.rows) == 11
    ok = ok and [r.n for r in rep.rows] == list(range(21, 32))
    ok = ok and all(max(r.linear_bound, r.prob_bound) >= 588 for r in rep.rows)
    cert = tail_certificate(16, Fraction(72, 100), 32)
    ok = ok and cert.valid and rep.tail.valid
    _report("table r=16: 11 rows n=21…31 all ≥ 588, tail (16, 0.72, 32) valid",
            ok)


def test_r17_case_analysis():
    rep = verify_albertson(17)
    by_n = {r.n: r for r in rep.rows}
    ok = all(max(by_n[n].linear_bound, by_n[n].prob_bound) >= 784
             for n in range(22, 32))
    expected_low = {32: 759, 33: 765, 34: 779}
    for n, prob in expected_low.items():
        row = by_n[n]
        ok = ok and max(row.linear_bound, row.prob_bound) < 784
        ok = ok and abs(row.prob_bound - prob) <= 1
    ok = ok and rep.refined_rows and rep.refined_rows[0].n == 32
    ok = ok and rep.refined_rows[0].prob_bound >= 834
    ok = ok and rep.gaps == (33, 34)
    cert = tail_certificate(17, Fraction(681, 1000), 35)
    ok = ok and cert.valid
    ok = ok and abs(cert.slope - Fraction(1464, 100)) <= Fraction(1, 100)
    ok = ok and abs(cert.intercept - Fraction(28038, 100)) <= Fraction(1, 100)
    _report("r=17: n≤31 ≥ 784, dips (759, 765, 779), refine 32 → ≥ 834, "
            "gaps {33, 34}, tail 14.64n + 280.38 within 0.01", ok)


def test_zarankiewicz_exact():
    expected = {13: 225, 14: 315, 15: 441, 16: 588, 17: 784}
    ok = all(zarankiewicz(r) == z for r, z in expected.items())
    _report("Z(13..17) = 225, 315, 441, 588, 784 exactly", ok)


def test_lemma357_sweep():
    start = time.perf_counter()
    ok = all(lemma357_check(r).ok for r in range(17, 41))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    _report("lemma357_check(r) holds for all 17 ≤ r ≤ 40 in < 5 s",
            ok, f"{elapsed:.2f} s")


def test_counting_matches_brute_force():
    rng = random.Random(0xACC1)
    ok = True
    for _ in range(100):
        n = rng.randint(5, 10)
        s = rng.randint(5, n)
        base = RULE_BY_ID[rng.choice(list(RuleId))]
        edges = [e for e in itertools.combinations(range(n), 2)
                 if rng.random() < rng.uniform(0.1, 0.9)]
        total = Fraction(0)
        for subset in itertools.combinations(range(n), s):
            inside = set(subset)
            m_s = sum(1 for u, v in edges if u in inside and v in inside)
            total += base.a * m_s - base.b * (s - 2)
        brute = total / math.comb(n - 4, s - 4)
        got = counting_lower(n, len(edges), SamplingParams(s=s, base=base))
        ok = ok and got.raw == brute
    _report("counting_lower = brute-force subset averaging, 100 instances, "
            "exact equality", ok)


def test_cr_nmp_degeneration():
    rng = random.Random(0xACC2)
    ok = True
    for _ in range(200):
        n = rng.randint(10, 200)
        m = rng.randint(0, n * (n - 1) // 2)
        ok = ok and cr_nmp(n, m, Fraction(1)).raw == \
            4 * m - Fraction(103, 6) * (n - 2)
    _report("cr_nmp(n, m, 1).raw = 4m − (103/6)(n−2), 200 instances", ok)


def test_catlin_comparison():
    rep = catlin_check(50)
    coeffs_ok = (rep.lower_coefficient == Fraction(45, 64)
                 and rep.upper_coefficient == Fraction(625, 1024))
    holds = {row.k: row.holds for row in rep.rows}
    all_hold = all(holds[k] for k in range(2, 51))
    failing = sorted(k for k in range(2, 51) if not holds[k])
    _report("Catlin coefficients 45/64 and 625/1024; L(k) > R(k) for all "
            "2 ≤ k ≤ 50", coeffs_ok and all_hold,
            f"coefficients exact; comparison fails for k={failing}, "
            f"first holds at k={rep.first_hold}")


def test_graph_lab_families():
    start = time.perf_counter()
    ok = True
    for k in (1, 2, 3):
        g = build_family(FamilySpec(FamilyKind.CATLIN, sizes=(k,)))
        ok = ok and chromatic_number(g) == -(-5 * k // 2)
    for r in (4, 5, 6):
        for spec in delta_splits(r):
            g = build_family(spec)
            witness = find_topological_clique(g, r)
            ok = ok and is_critical(g, r)
            ok = ok and witness is not None and witness.verify(g)
    for r in (4, 5):
        for spec in efamily_splits(r):
            g = build_family(spec)
            witness = find_topological_clique(g, r)
            ok = ok and g.vertex_count == 2 * r - 1
            ok = ok and is_critical(g, r)
            ok = ok and witness is not None and witness.verify(g)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    _report("χ(Catlin(k)) = ⌈5k/2⌉ (k ≤ 3); every Δ_r (r ≤ 6) and E_r (r ≤ 5) "
            "member critical with verified topological K_r, < 2 min",
            ok, f"{elapsed:.2f} s")


def test_gallai_equality():
    # each join of K_{r-p-1} with a Delta(p+1) member has 2m = (r-1)n + p(r-p) - 2
    ok = all(2 * g.edge_count == (r - 1) * g.vertex_count + p * (r - p) - 2
             for r in range(4, 9) for p in range(2, r) for spec in delta_splits(p + 1)
             for g in [join(complete_graph(r - p - 1), build_family(spec))])
    _report("Gallai equality case for all (r, p) with r ≤ 8", ok)


def test_published_tail_anchors_all_valid():
    # companion check: the five published certificates really validate
    ok = all(tail_certificate(r, p, n0).valid
             for r, (p, n0) in TAIL_ANCHORS.items())
    _report("published tail certificates r=13…17 all valid", ok)
