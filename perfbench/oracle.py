"""Known answers and independent checkers for the benchmark.

Nothing here imports `albertson`: every graph is built from its definition,
every bound is re-evaluated from the formulas in PAPER.md, and every witness
is checked against the benchmark's own edge set.  Each known answer names
its source.

Sources:
  [paper]     Albertson-Cranston-Fox style case analysis as reproduced in
              PAPER.md: r = 10..16 verified, r = 17 open at n = 33, 34;
              the r = 13..17 reference tables; the counting-bound lemma for
              3.57r <= n <= 4r, r >= 17.
  [readme]    README: the Catlin comparison fails exactly for
              k in {2, 3, 4, 5, 6, 7, 9, 11}.
  [dirac]     Delta_r and E_r are r-critical and contain a topological K_r
              (the constructions of the paper's extremal families).
  [catlin79]  Catlin 1979: chi(C_5[K_k]) = ceil(5k/2); C_5[K_3] has no
              topological K_8 (a counterexample to Hajos' conjecture).
  [mycielski] Mycielski 1955: M_k has chromatic number k and is k-critical.
  [kuratowski] A planar graph has no topological K_5, hence no K_t, t >= 5;
              planarity of each graph is proved by networkx.check_planarity.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

# --------------------------------------------------------------------------
# graphs as (n, frozenset of sorted edge pairs)


def _norm(edges) -> frozenset:
    return frozenset((u, v) if u < v else (v, u) for u, v in edges)


def delta(r: int) -> tuple[int, frozenset]:
    """Delta_r with parts |A| = r-2, |B1| = (r-1)//2, |B2| = r-1-|B1|."""
    b1 = (r - 1) // 2
    a_part = range(r - 2)
    b_part = range(r - 2, 2 * r - 3)
    apex_a, apex_b = 2 * r - 3, 2 * r - 2
    edges = list(itertools.combinations(a_part, 2)) + list(itertools.combinations(b_part, 2))
    edges += [(apex_a, v) for v in itertools.chain(a_part, b_part[:b1])]
    edges += [(apex_b, v) for v in itertools.chain(a_part, b_part[b1:])]
    return 2 * r - 1, _norm(edges)


def delta_plus_apex_edge(r: int) -> tuple[int, frozenset]:
    """Delta_r plus the edge between its two apexes: chi stays r (the apexes
    and A form the only r-clique, and B still fits in r colours), and the
    graph is not critical because deleting the new edge leaves Delta_r."""
    n, edges = delta(r)
    return n, edges | {(2 * r - 3, 2 * r - 2)}


def delta_minus_edge(r: int, rng: random.Random) -> tuple[int, frozenset]:
    """Delta_r minus one seeded edge: chi = r-1, since Delta_r is r-critical
    and an (r-1)-clique survives any single deletion."""
    n, edges = delta(r)
    drop = rng.choice(sorted(edges))
    return n, edges - {drop}


def efamily(r: int) -> tuple[int, frozenset]:
    """E_r with |A2| = (r-1)//2, |B2| = r-2-|A2| (so |A2|+|B2| = r-2)."""
    a2 = (r - 1) // 2
    b2 = r - 2 - a2
    a1, b1 = r - 1 - a2, r - 1 - b2
    part_a = range(r - 1)
    part_b = range(r - 1, 2 * r - 2)
    apex = 2 * r - 2
    edges = list(itertools.combinations(part_a, 2)) + list(itertools.combinations(part_b, 2))
    edges += [(apex, v) for v in itertools.chain(part_a[:a1], part_b[:b1])]
    edges += [(u, v) for u in part_a[a1:] for v in part_b[b1:]]
    return 2 * r - 1, _norm(edges)


def catlin(k: int) -> tuple[int, frozenset]:
    """C_5[K_k]: each cycle vertex blown up into a k-clique."""
    groups = [range(i * k, (i + 1) * k) for i in range(5)]
    edges = []
    for i in range(5):
        edges += itertools.combinations(groups[i], 2)
        edges += [(u, v) for u in groups[i] for v in groups[(i + 1) % 5]]
    return 5 * k, _norm(edges)


def mycielski(k: int) -> tuple[int, frozenset]:
    """M_k for k >= 2: M_2 = K_2, M_{j+1} is the Mycielskian of M_j."""
    n, edges = 2, {(0, 1)}
    for _ in range(k - 2):
        # shadow vertex n+v copies v's neighbourhood; hub 2n sees every shadow
        new = set(edges)
        new |= {(u, n + v) for u, v in edges} | {(v, n + u) for u, v in edges}
        new |= {(n + v, 2 * n) for v in range(n)}
        n, edges = 2 * n + 1, new
    return n, _norm(edges)


def icosahedron() -> tuple[int, frozenset]:
    upper = [1 + i for i in range(5)]
    lower = [6 + i for i in range(5)]
    edges = [(0, v) for v in upper] + [(11, v) for v in lower]
    for i in range(5):
        edges += [(upper[i], upper[(i + 1) % 5]), (lower[i], lower[(i + 1) % 5]),
                  (upper[i], lower[i]), (upper[i], lower[(i + 1) % 5])]
    return 12, _norm(edges)


def apollonian(n: int, rng: random.Random) -> tuple[int, frozenset]:
    """Random Apollonian network: K_4, then each new vertex is stacked into a
    uniformly chosen triangular face."""
    edges = set(itertools.combinations(range(4), 2))
    faces = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for v in range(4, n):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return n, _norm(edges)


def relabel(graph: tuple[int, frozenset], rng: random.Random) -> tuple[int, frozenset]:
    n, edges = graph
    perm = list(range(n))
    rng.shuffle(perm)
    return n, _norm((perm[u], perm[v]) for u, v in edges)


def is_planar(graph: tuple[int, frozenset]) -> bool:
    import networkx as nx

    g = nx.Graph()
    g.add_nodes_from(range(graph[0]))
    g.add_edges_from(graph[1])
    return nx.check_planarity(g)[0]


def graph6(graph: tuple[int, frozenset]) -> str:
    """graph6 text of a graph with n <= 62 (upper triangle, column order)."""
    n, edges = graph
    bits = [1 if (u, v) in edges else 0 for v in range(1, n) for u in range(v)]
    bits += [0] * (-len(bits) % 6)
    chunks = (bits[i:i + 6] for i in range(0, len(bits), 6))
    return chr(n + 63) + "".join(chr(63 + int("".join(map(str, c)), 2)) for c in chunks)


# --------------------------------------------------------------------------
# witnesses


def check_subdivision(graph: tuple[int, frozenset], t: int, branch, paths) -> str | None:
    """None if (branch, paths) is a topological K_t in graph, else the reason.

    paths maps each branch pair to a vertex sequence from one end to the
    other; internal vertices must avoid the branch set and every other path.
    """
    n, edges = graph
    branch = tuple(branch)
    if len(branch) != t or len(set(branch)) != t or any(not 0 <= v < n for v in branch):
        return f"bad branch set {branch}"
    wanted = {tuple(sorted(p)) for p in itertools.combinations(branch, 2)}
    got = [tuple(sorted(pair)) for pair, _ in paths]
    if sorted(got) != sorted(wanted):
        return "paths do not cover each branch pair exactly once"
    used = set(branch)
    for (u, v), path in paths:
        if len(path) < 2 or {path[0], path[-1]} != {u, v}:
            return f"path {path} does not join {u} and {v}"
        for a, b in zip(path, path[1:]):
            if (min(a, b), max(a, b)) not in edges:
                return f"path {path} uses non-edge ({a}, {b})"
        inner = path[1:-1]
        if len(set(inner)) != len(inner) or used & set(inner):
            return f"path {path} is not internally disjoint"
        used |= set(inner)
    return None


# --------------------------------------------------------------------------
# formulas from PAPER.md, evaluated independently

LINEAR = ((Fraction(1), Fraction(3)), (Fraction(7, 3), Fraction(25, 3)),
          (Fraction(3), Fraction(35, 3)), (Fraction(4), Fraction(103, 6)),
          (Fraction(5), Fraction(25)))


def ceil0(x: Fraction) -> int:
    return max(0, math.ceil(x))


def linear_value(n: int, m: int) -> int:
    return ceil0(max(a * m - b * (n - 2) for a, b in LINEAR))


def lemma_value(n: int, m: int) -> int:
    """Best cubic crossing-lemma bound; the caller ensures m >= 4n."""
    raw = Fraction(m**3, 64 * n * n)
    if 16 * m >= 103 * n:
        raw = max(raw, Fraction(10 * m**3, 311 * n * n))
    return ceil0(raw)


def prob_value(n: int, m: int, p: Fraction) -> int:
    return ceil0(4 * m / p**2 - Fraction(103, 6) * n / p**3 + Fraction(103, 3) / p**4
                 - 5 * n * n * (1 - p) ** (n - 2) / p**4)


def counting_value(n: int, m: int, s: int, rule: int) -> int:
    a, b = LINEAR[rule - 1]
    return ceil0((a * m * math.comb(n - 2, s - 2) - b * (s - 2) * math.comb(n, s))
                 / math.comb(n - 4, s - 4))


def zarankiewicz(r: int) -> int:
    return (r // 2) * ((r - 1) // 2) * ((r - 2) // 2) * ((r - 3) // 2) // 4


def edge_bound(r: int, n: int) -> int:
    """m_min of a table row: KS bound, or Gallai where it applies and is
    at least as strong."""
    ks = (r - 1) * n + 2 * r - 6
    p = n - r
    best = ks
    if 2 <= p <= r - 1:
        best = max(best, (r - 1) * n + p * (r - p) - 1)
    return -(-best // 2)


def row_error(r: int, row, refined: bool = False) -> str | None:
    """Re-derive one case-analysis row (or join-refined rescue row at
    n = 2r-2, which gains ceil((r-2)/2) edges); None if it matches."""
    rule = LINEAR[3] if r <= 15 else LINEAR[4]
    want_m = edge_bound(r, row.n)
    if refined:
        if row.n != 2 * r - 2:
            return f"r={r}: refined row at n={row.n}, expected n={2 * r - 2}"
        want_m += -(-(r - 2) // 2)
    linear = ceil0(rule[0] * want_m - rule[1] * (row.n - 2))
    p = row.p
    if not (0 < p <= 1 and (p * 1000).denominator == 1):
        return f"r={r} n={row.n}: p={p} is off the 1/1000 grid"
    prob = prob_value(row.n, want_m, p)
    target = zarankiewicz(r)
    got = (row.m_min, row.linear_bound, row.prob_bound, row.target, row.satisfied)
    want = (want_m, linear, prob, target, max(linear, prob) >= target)
    if got != want:
        return f"r={r} n={row.n}: row {got} != recomputed {want}"
    return None


# --------------------------------------------------------------------------
# verdicts

VERIFIED_R = range(10, 17)                  # [paper]
R17_GAPS = (33, 34)                         # [paper]
REFERENCE_FLAGS = {13: 0, 14: 0, 15: 1, 16: 0, 17: 0}   # [paper] one p flag, r=15 n=22
CATLIN_FAILURES = (2, 3, 4, 5, 6, 7, 9, 11)  # [readme]


def verdict_error(r: int, verdict: str, gaps: tuple, tail_valid: bool) -> str | None:
    if verdict not in ("Verified", "GapsRemain"):
        return f"r={r}: unknown verdict {verdict!r}"
    if (verdict == "Verified") != (not gaps and tail_valid):
        return f"r={r}: verdict {verdict} inconsistent with gaps {gaps}, tail {tail_valid}"
    if r in VERIFIED_R and verdict != "Verified":
        return f"r={r}: expected Verified, got {verdict} gaps {gaps}"
    if r == 17 and tuple(gaps) != R17_GAPS:
        return f"r=17: expected gaps {R17_GAPS}, got {gaps}"
    return None


def flags_error(r: int, flags) -> str | None:
    want = REFERENCE_FLAGS.get(r, 0)
    if len(flags) != want:
        return f"r={r}: {len(flags)} reference flags, expected {want}: {flags}"
    if want and not flags[0].startswith("n=22: p = "):
        return f"r={r}: unexpected reference flag {flags[0]!r}"
    return None
