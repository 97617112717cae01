"""Exact small-graph laboratory for color-critical structure checks.

Families:

  Delta(r)    2r-1 vertices: disjoint cliques A (size r-2) and B = B1 u B2
              (size r-1) with no A-B edges, plus two nonadjacent apexes,
              a ~ A u B1 and b ~ A u B2.  r-critical, chromatic number r,
              contains a topological K_r; Delta(3) is the 5-cycle.
  EFamily(r)  2r-1 vertices: cliques A = A1 u A2 and B = B1 u B2 of size r-1
              each, apex c ~ A1 u B1, and A-B edges exactly A2 x B2 (with
              |A2| + |B2| <= r-1).  Superfamily of Delta(r).
  Catlin(k)   the 5-cycle with each vertex blown up into a k-clique and each
              cycle edge into a complete bipartite K_{k,k}; chromatic number
              ceil(5k/2), the classical Hajós-conjecture counterexamples.
  Complete(n), Join(spec, spec)  the obvious constructions.

Algorithms are exact and budget-guarded: chromatic number by counting k up
from the largest greedy clique until one k-coloring kernel succeeds (DSATUR
backtracking on adjacency and color bitmasks, with clique precoloring,
forward checking, a fresh-color symmetry cap and a Hall count over greedy
cliques), edge-deletion criticality running the same kernel on each G-e,
simplicial counts in the degree-(n-1) sense, complement structure
(components, maximum matching, triangles), and subdivision containment
(topological K_t) by exhaustive branch-vertex choice plus backtracking over
internally disjoint path systems.  Budgets default to n <= 40 for coloring
and n <= 20 for subdivision search and can be raised per call (max_n) or via
the ALBERTSON_BUDGET environment variable, e.g.
ALBERTSON_BUDGET="coloring=50,subdivision=24"; unknown keys and negative
values raise ValueError.  Exceeding a budget raises, never approximates.

Graphs read and write the graph6 text format (one graph per line) for
exchanging externally published graph lists.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import BudgetExceededError, Graph6Error, InapplicableRuleError

_COLORING_DEFAULT = 40
_SUBDIVISION_DEFAULT = 20
_BUDGET_KEYS = ("coloring", "subdivision")


def _parse_budget(spec: str) -> dict[str, int]:
    """Parse a budget spec such as "coloring=50,subdivision=24".  Malformed
    entries, unknown keys and negative values raise ValueError."""
    out = {}
    for entry in spec.split(","):
        key, sep, value = entry.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"budget entries look like coloring=50, got {entry!r}")
        if key not in _BUDGET_KEYS:
            raise ValueError(f"unknown budget key {key!r}; known keys are "
                             + ", ".join(_BUDGET_KEYS))
        try:
            limit = int(value)
        except ValueError:
            raise ValueError(f"bad budget value in {entry!r}") from None
        if limit < 0:
            raise ValueError(f"budget must be >= 0, got {entry!r}")
        out[key] = limit
    return out


def _budget(kind: str, override: int | None, default: int) -> int:
    if override is not None:
        return override
    spec = os.environ.get("ALBERTSON_BUDGET", "")
    if not spec:
        return default
    try:
        return _parse_budget(spec).get(kind, default)
    except ValueError as exc:
        raise ValueError(f"bad ALBERTSON_BUDGET: {exc}") from None


class Graph:
    """Immutable simple graph on vertices 0..vertex_count-1."""

    __slots__ = ("vertex_count", "adjacency", "edges")

    def __init__(self, vertex_count: int, edges=()):
        if vertex_count < 0:
            raise ValueError(f"vertex_count must be >= 0, got {vertex_count}")
        adj = [set() for _ in range(vertex_count)]
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for n={vertex_count}")
            a, b = (u, v) if u < v else (v, u)
            normalized.add((a, b))
            adj[a].add(b)
            adj[b].add(a)
        self.vertex_count = vertex_count
        self.adjacency = tuple(frozenset(s) for s in adj)
        self.edges = frozenset(normalized)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def without_edge(self, u: int, v: int) -> "Graph":
        a, b = (u, v) if u < v else (v, u)
        if (a, b) not in self.edges:
            raise ValueError(f"no edge ({u}, {v})")
        return Graph(self.vertex_count, self.edges - {(a, b)})

    def complement(self) -> "Graph":
        n = self.vertex_count
        return Graph(n, (e for e in itertools.combinations(range(n), 2)
                         if e not in self.edges))

    def __eq__(self, other) -> bool:
        return (isinstance(other, Graph)
                and self.vertex_count == other.vertex_count
                and self.edges == other.edges)

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def complete_graph(n: int) -> Graph:
    return Graph(n, itertools.combinations(range(n), 2))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph(n, ((i, (i + 1) % n) for i in range(n)))


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    off = g.vertex_count
    edges = list(g.edges)
    edges.extend((u + off, v + off) for u, v in h.edges)
    edges.extend((u, v + off) for u in range(g.vertex_count)
                 for v in range(h.vertex_count))
    return Graph(off + h.vertex_count, edges)


# ---------------------------------------------------------------------------
# families


class FamilyKind(Enum):
    DELTA = "Delta"
    EFAMILY = "EFamily"
    CATLIN = "Catlin"
    COMPLETE = "Complete"
    JOIN = "Join"


@dataclass(frozen=True)
class FamilySpec:
    """Construction recipe: part sizes for Delta (|A|, |B1|, |B2|) and
    EFamily (|A1|, |A2|, |B1|, |B2|), (k,) for Catlin, (n,) for Complete,
    and two nested specs for Join."""

    kind: FamilyKind
    sizes: tuple[int, ...] = ()
    parts: tuple["FamilySpec", ...] = ()

    def validate(self) -> None:
        kind, sizes = self.kind, self.sizes
        if kind is FamilyKind.JOIN:
            if sizes or len(self.parts) != 2:
                raise ValueError("Join takes exactly two nested specs and no sizes")
            for part in self.parts:
                part.validate()
            return
        if self.parts:
            raise ValueError(f"{kind.value} takes no nested specs")
        if kind is FamilyKind.DELTA:
            if len(sizes) != 3 or any(s < 1 for s in sizes):
                raise ValueError("Delta needs three positive sizes (|A|, |B1|, |B2|)")
            a, b1, b2 = sizes
            if b1 + b2 != a + 1:
                raise ValueError(f"Delta needs |B1|+|B2| = |A|+1, got {sizes}")
        elif kind is FamilyKind.EFAMILY:
            if len(sizes) != 4 or any(s < 1 for s in sizes):
                raise ValueError("EFamily needs four positive sizes (|A1|, |A2|, |B1|, |B2|)")
            a1, a2, b1, b2 = sizes
            if a1 + a2 != b1 + b2:
                raise ValueError(f"EFamily needs |A1|+|A2| = |B1|+|B2|, got {sizes}")
            if a2 + b2 > a1 + a2:
                raise ValueError(f"EFamily needs |A2|+|B2| <= r-1, got {sizes}")
        elif kind is FamilyKind.CATLIN:
            if len(sizes) != 1 or sizes[0] < 1:
                raise ValueError("Catlin needs one size k >= 1")
        elif kind is FamilyKind.COMPLETE:
            if len(sizes) != 1 or sizes[0] < 0:
                raise ValueError("Complete needs one size n >= 0")

    @property
    def r(self) -> int | None:
        """Intended chromatic number, where the family pins one down."""
        if self.kind is FamilyKind.DELTA:
            return self.sizes[0] + 2
        if self.kind is FamilyKind.EFAMILY:
            return self.sizes[0] + self.sizes[1] + 1
        if self.kind is FamilyKind.CATLIN:
            return -(-5 * self.sizes[0] // 2)
        if self.kind is FamilyKind.COMPLETE:
            return max(self.sizes[0], 0) or 0
        return None


def build_family(spec: FamilySpec) -> Graph:
    """Construct the graph a FamilySpec describes."""
    spec.validate()
    kind = spec.kind
    if kind is FamilyKind.COMPLETE:
        return complete_graph(spec.sizes[0])
    if kind is FamilyKind.JOIN:
        return join(build_family(spec.parts[0]), build_family(spec.parts[1]))
    if kind is FamilyKind.CATLIN:
        return _catlin_graph(spec.sizes[0])
    if kind is FamilyKind.DELTA:
        return _delta_graph(*spec.sizes)
    return _efamily_graph(*spec.sizes)


def _delta_graph(a: int, b1: int, b2: int) -> Graph:
    part_a = range(a)
    part_b = range(a, a + b1 + b2)
    part_b1 = range(a, a + b1)
    part_b2 = range(a + b1, a + b1 + b2)
    apex_a = a + b1 + b2
    apex_b = apex_a + 1
    edges = list(itertools.combinations(part_a, 2))
    edges.extend(itertools.combinations(part_b, 2))
    edges.extend((apex_a, v) for v in itertools.chain(part_a, part_b1))
    edges.extend((apex_b, v) for v in itertools.chain(part_a, part_b2))
    return Graph(apex_b + 1, edges)


def _efamily_graph(a1: int, a2: int, b1: int, b2: int) -> Graph:
    part_a1 = range(a1)
    part_a2 = range(a1, a1 + a2)
    part_b1 = range(a1 + a2, a1 + a2 + b1)
    part_b2 = range(a1 + a2 + b1, a1 + a2 + b1 + b2)
    apex_c = a1 + a2 + b1 + b2
    edges = list(itertools.combinations(range(a1 + a2), 2))
    edges.extend(itertools.combinations(range(a1 + a2, apex_c), 2))
    edges.extend((apex_c, v) for v in itertools.chain(part_a1, part_b1))
    edges.extend((u, v) for u in part_a2 for v in part_b2)
    return Graph(apex_c + 1, edges)


def _catlin_graph(k: int) -> Graph:
    groups = [range(i * k, (i + 1) * k) for i in range(5)]
    edges = []
    for i in range(5):
        edges.extend(itertools.combinations(groups[i], 2))
        edges.extend((u, v) for u in groups[i] for v in groups[(i + 1) % 5])
    return Graph(5 * k, edges)


def delta_splits(r: int) -> tuple[FamilySpec, ...]:
    """All Delta(r) part-size splits (|B1|, |B2|) with both sides nonempty."""
    if r < 3:
        raise ValueError(f"Delta family needs r >= 3, got {r}")
    return tuple(FamilySpec(FamilyKind.DELTA, (r - 2, b1, r - 1 - b1))
                 for b1 in range(1, r - 1))


def efamily_splits(r: int) -> tuple[FamilySpec, ...]:
    """All admissible EFamily(r) splits (|A1|, |A2|, |B1|, |B2|)."""
    if r < 3:
        raise ValueError(f"EFamily needs r >= 3, got {r}")
    specs = []
    for a1 in range(1, r - 1):
        for b1 in range(1, r - 1):
            a2, b2 = r - 1 - a1, r - 1 - b1
            if a2 + b2 <= r - 1:
                specs.append(FamilySpec(FamilyKind.EFAMILY, (a1, a2, b1, b2)))
    return tuple(specs)


# ---------------------------------------------------------------------------
# coloring


def _bits(mask: int):
    """Indexes of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _adjacency_masks(g: Graph) -> list[int]:
    return [sum(1 << u for u in nbrs) for nbrs in g.adjacency]


def _cliques(adj: list[int]) -> list[int]:
    """One greedy maximal clique per seed vertex, as bitmasks, without
    duplicates and largest first.  Each grows by the candidate with the most
    neighbors among the remaining candidates, lowest label on ties."""
    found = set()
    for seed, cand in enumerate(adj):
        clique = 1 << seed
        while cand:
            v = max(_bits(cand), key=lambda u: ((adj[u] & cand).bit_count(), -u))
            clique |= 1 << v
            cand &= adj[v]
        found.add(clique)
    return sorted(found, key=lambda c: (-c.bit_count(), c))


def _k_colorable(adj: list[int], k: int, cliques: list[int]) -> bool:
    """Exact k-colorability of the graph with adjacency bitmasks adj.

    cliques must be cliques of this graph, largest first.  The largest is
    precolored 0..q-1; then DSATUR backtracking (Brelaz 1979) picks the
    uncolored vertex with the fewest colors left, ties to higher degree,
    then lower label, and tries at most one fresh color per step.  Each
    vertex keeps a bitmask of the colors still open to it.  Forward checking:
    coloring a vertex removes the color from its uncolored neighbors, and
    the branch fails as soon as one has none left.  Hall prune: the uncolored
    members of a clique need pairwise distinct colors, so the branch also
    fails when they have fewer colors left between them than there are
    members.  Only cliques containing a vertex whose colors just shrank are
    rechecked; the others hold at least as many colors as before.  The prune
    needs only that every listed set is a clique of this graph, not that it
    is maximal, which is what lets is_critical reuse the cliques of g on G-e.
    """
    n = len(adj)
    if cliques and cliques[0].bit_count() > k:
        return False
    degree = [a.bit_count() for a in adj]

    def assign(colors: list[int], uncolored: int, v: int, c: int) -> bool:
        """Give v color c (v already out of uncolored) and propagate; False
        if a domain wipes out or a clique fails the Hall count."""
        bit = 1 << c
        shrunk = 0
        for u in _bits(adj[v] & uncolored):
            if colors[u] & bit:
                colors[u] ^= bit
                if not colors[u]:
                    return False
                shrunk |= 1 << u
        for clique in cliques:
            if clique & shrunk:
                left = clique & uncolored
                union = 0
                for w in _bits(left):
                    union |= colors[w]
                if union.bit_count() < left.bit_count():
                    return False
        return True

    def solve(colors: list[int], uncolored: int, used: int) -> bool:
        if not uncolored:
            return True
        v = min(_bits(uncolored), key=lambda u: (colors[u].bit_count(), -degree[u], u))
        uncolored ^= 1 << v
        for c in _bits(colors[v] & ((2 << used) - 1)):
            child = colors[:]
            if assign(child, uncolored, v, c) and solve(child, uncolored, max(used, c + 1)):
                return True
        return False

    colors = [(1 << k) - 1] * n
    uncolored = (1 << n) - 1
    root = cliques[0] if cliques else 0
    for c, v in enumerate(_bits(root)):
        uncolored ^= 1 << v
        if not assign(colors, uncolored, v, c):
            return False
    return solve(colors, uncolored, root.bit_count())


def chromatic_number(g: Graph, max_n: int | None = None) -> int:
    """Exact chromatic number: k counts up from the largest clique found
    until the graph is k-colorable."""
    n = g.vertex_count
    limit = _budget("coloring", max_n, _COLORING_DEFAULT)
    if n > limit:
        raise BudgetExceededError(
            f"chromatic_number budget is n <= {limit}, got n={n}; raise it via "
            f"max_n or ALBERTSON_BUDGET=coloring=<N>")
    adj = _adjacency_masks(g)
    cliques = _cliques(adj)
    k = cliques[0].bit_count() if cliques else 0
    while not _k_colorable(adj, k, cliques):
        k += 1
    return k


def is_critical(g: Graph, r: int, max_n: int | None = None) -> bool:
    """True iff chi(g) = r and removing any edge drops the chromatic number.

    For graphs without isolated vertices this is exactly r-criticality (every
    proper subgraph (r-1)-colorable); an isolated vertex would defeat the
    implication, so its presence returns False for r >= 2.

    Each G-e is checked on the masks and cliques of g with the edge's two
    bits cleared and the cliques containing both endpoints dropped: the
    other cliques of g are still cliques of G-e, so the Hall prune stays
    sound.
    """
    n = g.vertex_count
    if r >= 2 and any(g.degree(v) == 0 for v in range(n)):
        return False
    if chromatic_number(g, max_n=max_n) != r:
        return False
    adj = _adjacency_masks(g)
    cliques = _cliques(adj)
    for u, v in sorted(g.edges):
        without = adj[:]
        without[u] ^= 1 << v
        without[v] ^= 1 << u
        both = 1 << u | 1 << v
        if not _k_colorable(without, r - 1, [c for c in cliques if c & both != both]):
            return False
    return True


def simplicial_vertices(g: Graph) -> list[int]:
    """Vertices adjacent to all others (the degree-(n-1) sense)."""
    n = g.vertex_count
    return [v for v in range(n) if g.degree(v) == n - 1]


def gallai_simplicial_check(g: Graph, r: int) -> bool:
    """Check the simplicial-count theorem for a (caller-verified) r-critical
    graph: at least ceil((3/2)((5/3)r - n)) vertices of degree n-1, provided
    n < (5/3)r."""
    n = g.vertex_count
    if 3 * n >= 5 * r:
        raise InapplicableRuleError(
            f"simplicial-count theorem needs n < (5/3)r, got n={n}, r={r}")
    need = math.ceil(Fraction(3, 2) * (Fraction(5, 3) * r - n))
    return len(simplicial_vertices(g)) >= need


@dataclass(frozen=True)
class ComplementAnalysis:
    components: int
    max_matching: int
    has_triangle: bool


def complement_analysis(g: Graph) -> ComplementAnalysis:
    """Component count, exact maximum matching size, and triangle presence in
    the complement of g."""
    comp = g.complement()
    n = comp.vertex_count
    seen = [False] * n
    components = 0
    for start in range(n):
        if seen[start]:
            continue
        components += 1
        stack = [start]
        seen[start] = True
        while stack:
            for u in comp.adjacency[stack.pop()]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
    has_triangle = any(comp.adjacency[u] & comp.adjacency[v] for u, v in comp.edges)
    if comp.edges:
        import networkx as nx

        nxg = nx.Graph()
        nxg.add_nodes_from(range(n))
        nxg.add_edges_from(comp.edges)
        matching = len(nx.max_weight_matching(nxg, maxcardinality=True))
    else:
        matching = 0
    return ComplementAnalysis(components=components, max_matching=matching,
                              has_triangle=has_triangle)


# ---------------------------------------------------------------------------
# topological cliques


@dataclass(frozen=True)
class SubdivisionWitness:
    """A topological K_t: branch vertices plus one path per pair, pairwise
    internally disjoint."""

    t: int
    branch_vertices: tuple[int, ...]
    paths: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]

    def path_map(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return dict(self.paths)

    def as_text_block(self) -> str:
        lines = [f"topological K{self.t}",
                 "branch: " + " ".join(str(v) for v in self.branch_vertices)]
        for (u, v), path in self.paths:
            lines.append(f"path {u}-{v}: " + " ".join(str(w) for w in path))
        return "\n".join(lines)

    def verify(self, g: Graph) -> bool:
        """Re-check every claim of the witness against g."""
        branch = self.branch_vertices
        if len(branch) != self.t or len(set(branch)) != self.t:
            return False
        if any(not 0 <= v < g.vertex_count for v in branch):
            return False
        expected = {tuple(sorted(pair)) for pair in itertools.combinations(branch, 2)}
        if {pair for pair, _ in self.paths} != expected or len(self.paths) != len(expected):
            return False
        internals_seen: set[int] = set()
        for (u, v), path in self.paths:
            if len(path) < 2 or path[0] != u or path[-1] != v:
                return False
            if len(set(path)) != len(path):
                return False
            if any(not g.has_edge(a, b) for a, b in zip(path, path[1:])):
                return False
            internal = set(path[1:-1])
            if internal & set(branch) or internal & internals_seen:
                return False
            internals_seen |= internal
        return True


def _find_path_system(adj, branch: frozenset, pairs, idx: int, used: frozenset):
    """First system of internally disjoint paths covering pairs[idx:], with
    internal vertices drawn from outside branch and used; None if none."""
    if idx == len(pairs):
        return {}
    u, v = pairs[idx]
    path = [u]
    result = None

    def dfs(cur: int) -> bool:
        nonlocal result
        for w in sorted(adj[cur]):
            if w == v:
                if len(path) == 1:
                    continue  # direct edges are handled before the search
                rest = _find_path_system(adj, branch, pairs, idx + 1,
                                         used | frozenset(path[1:]))
                if rest is not None:
                    rest[(u, v)] = tuple(path) + (v,)
                    result = rest
                    return True
            elif w not in branch and w not in used and w not in path:
                path.append(w)
                if dfs(w):
                    return True
                path.pop()
        return False

    dfs(u)
    return result


def find_topological_clique(g: Graph, t: int, max_n: int | None = None) -> SubdivisionWitness | None:
    """Search for a subdivision of K_t; exact within the budget.

    Branch candidates need degree >= t-1 and are tried in degree order; for
    every branch choice, adjacent pairs take their direct edge (never a loss:
    an edge between two branch vertices cannot serve any other pair) and the
    remaining pairs are connected by backtracking over disjoint path systems.
    """
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    n = g.vertex_count
    limit = _budget("subdivision", max_n, _SUBDIVISION_DEFAULT)
    if n > limit:
        raise BudgetExceededError(
            f"subdivision budget is n <= {limit}, got n={n}; raise it via "
            f"max_n or ALBERTSON_BUDGET=subdivision=<N>")
    if t == 0:
        return SubdivisionWitness(t=0, branch_vertices=(), paths=())
    candidates = sorted((v for v in range(n) if g.degree(v) >= t - 1),
                        key=lambda v: (-g.degree(v), v))
    if len(candidates) < t:
        return None
    for branch in itertools.combinations(candidates, t):
        bset = frozenset(branch)
        direct = []
        open_pairs = []
        for u, v in itertools.combinations(sorted(branch), 2):
            if g.has_edge(u, v):
                direct.append(((u, v), (u, v)))
            else:
                open_pairs.append((u, v))
        system = _find_path_system(g.adjacency, bset, open_pairs, 0, frozenset())
        if system is None:
            continue
        paths = direct + [(pair, system[pair]) for pair in open_pairs]
        return SubdivisionWitness(t=t, branch_vertices=tuple(sorted(branch)),
                                  paths=tuple(sorted(paths)))
    return None


def contains_topological_clique(g: Graph, t: int, max_n: int | None = None) -> bool:
    return find_topological_clique(g, t, max_n=max_n) is not None


# ---------------------------------------------------------------------------
# Gallai equality family


def gallai_equality_check(r: int, p: int) -> bool:
    """Every join of K_{r-p-1} with a Delta(p+1) member meets the Gallai
    count with equality: 2m = (r-1)n + p(r-p) - 2."""
    if not 2 <= p <= r - 1:
        raise ValueError(f"need 2 <= p <= r-1, got r={r}, p={p}")
    base = complete_graph(r - p - 1)
    for spec in delta_splits(p + 1):
        g = join(base, build_family(spec))
        n, m = g.vertex_count, g.edge_count
        if 2 * m != (r - 1) * n + p * (r - p) - 2:
            return False
    return True


# ---------------------------------------------------------------------------
# graph6


_G6_PREFIX = ">>graph6<<"


def parse_graph6(text: str) -> Graph:
    """Parse one graph6-encoded graph (optional >>graph6<< prefix, optional
    trailing newline).  Malformed input raises Graph6Error with the byte
    offset of the offending character."""
    base = 0
    if text.startswith(_G6_PREFIX):
        base = len(_G6_PREFIX)
        text = text[base:]
    text = text.rstrip("\r\n")
    if not text:
        raise Graph6Error("empty graph6 input", offset=base)

    def value(i: int) -> int:
        c = ord(text[i])
        if not 63 <= c <= 126:
            raise Graph6Error(f"byte {c} outside graph6 range 63..126",
                              offset=base + i)
        return c - 63

    pos = 0
    head = value(0)
    if head < 63:
        n = head
        pos = 1
    else:  # '~': 18-bit vertex count in the next three bytes
        if len(text) >= 2 and text[1] == "~":
            raise Graph6Error("graphs with >= 2^18 vertices are not supported",
                              offset=base + 1)
        if len(text) < 4:
            raise Graph6Error("truncated extended vertex count",
                              offset=base + len(text))
        n = (value(1) << 12) | (value(2) << 6) | value(3)
        pos = 4
    nbits = n * (n - 1) // 2
    nchars = -(-nbits // 6)
    if len(text) - pos < nchars:
        raise Graph6Error(
            f"need {nchars} adjacency bytes for n={n}, got {len(text) - pos}",
            offset=base + len(text))
    if len(text) - pos > nchars:
        raise Graph6Error("trailing data after adjacency bytes",
                          offset=base + pos + nchars)
    edges = []
    bit = 0
    for v in range(1, n):
        for u in range(v):
            char_value = value(pos + bit // 6)
            if (char_value >> (5 - bit % 6)) & 1:
                edges.append((u, v))
            bit += 1
    # padding bits up to the char boundary must be zero
    for pad in range(nbits, nchars * 6):
        char_value = value(pos + pad // 6)
        if (char_value >> (5 - pad % 6)) & 1:
            raise Graph6Error("nonzero padding bit", offset=base + pos + pad // 6)
    return Graph(n, edges)


def serialize_graph6(g: Graph) -> str:
    """graph6 encoding of g (no prefix, no newline)."""
    n = g.vertex_count
    if n <= 62:
        out = [chr(n + 63)]
    elif n < 1 << 18:
        out = ["~", chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    else:
        raise ValueError(f"n={n} too large for this graph6 writer")
    acc = 0
    nbits = 0
    for v in range(1, n):
        for u in range(v):
            acc = (acc << 1) | (1 if g.has_edge(u, v) else 0)
            nbits += 1
            if nbits == 6:
                out.append(chr(acc + 63))
                acc, nbits = 0, 0
    if nbits:
        out.append(chr((acc << (6 - nbits)) + 63))
    return "".join(out)
