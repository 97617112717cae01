"""Exact small-graph laboratory for color-critical structure checks.

Families (one table row each, built by build_family):

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
  Complete(n)  the complete graph.

A Graph stores adjacency bitmasks (bit v of masks[u] is the edge uv), and
every algorithm below works on them.  Graph(n, edges) alone reads and gates
edge pairs; every builder (build_family, join, complement) writes masks.

Exact searches, each entered once per call through _run_search, which
states the budget rules: chromatic_number (the coloring oracle that _oracle
picks per graph: complement matching or DSATUR, _k_coloring), is_critical
(the colorings of _edge_colorings, which states the criticality rules) and
find_topological_clique (branch vertices, then _route).  Besides: graph6
text for exchanging externally published graph lists.
"""
from __future__ import annotations

import itertools
import sys
from collections.abc import Callable, Iterator, Sequence
from typing import NamedTuple

from .choices import FamilyKind
from .errors import BudgetExceededError, Graph6Error, _count

# budget key -> (default vertex limit, search named in the error message)
_BUDGETS = {"coloring": (40, "chromatic_number"), "subdivision": (20, "subdivision")}


def _parse_budget(spec: str) -> dict[str, int]:
    """Parse a budget spec such as "coloring=50,subdivision=24".  Malformed
    entries, unknown or repeated keys and negative values raise ValueError."""
    out = {}
    for entry in spec.split(","):
        key, sep, value = entry.partition("=")
        key = key.strip()
        if not sep:
            raise ValueError(f"budget entries look like coloring=50, got {entry!r}")
        if key not in _BUDGETS:
            raise ValueError(f"unknown budget key {key!r}; known keys are "
                             + ", ".join(_BUDGETS))
        if key in out:
            raise ValueError(f"budget key {key!r} given twice in {spec!r}")
        try:
            limit = int(value)
        except ValueError:
            raise ValueError(f"bad budget value in {entry!r}") from None
        if limit < 0:
            raise ValueError(f"budget must be >= 0, got {entry!r}")
        out[key] = limit
    return out


def _run_search(kind: str, g: Graph, max_n: int | None, search, *args):
    """search(*args), the exact search of g that one public call makes, and
    the one guard on it: every search of the lab passes here exactly once.

    The budget is a vertex limit per kind: by default n <= 40 for coloring
    (chromatic number and criticality) and n <= 20 for subdivision search,
    raised per call (max_n) or per command (--budget, e.g.
    "coloring=50,subdivision=24"); nothing else sets it, so every search
    answers from its arguments alone.  A max_n that is not an int raises
    TypeError and a negative one ValueError, as unknown or repeated keys and
    negative values in --budget do.  A graph over the limit, or a search
    that recurses past the interpreter's recursion limit anywhere below
    this call, raises BudgetExceededError: a search never approximates."""
    limit, name = _BUDGETS[kind]
    if max_n is not None:
        _count("max_n", max_n)
        if max_n < 0:
            raise ValueError(f"budget must be >= 0, got max_n={max_n}")
        limit = max_n
    if g.vertex_count > limit:
        raise BudgetExceededError(
            f"{name} budget is n <= {limit}, got n={g.vertex_count}; raise it via "
            f"max_n or --budget {kind}=<N>")
    try:
        return search(*args)
    except RecursionError:
        raise BudgetExceededError(f"{kind} search exceeds the recursion limit "
                                  f"{sys.getrecursionlimit()}") from None


class Graph:
    """Immutable simple graph on vertices 0..vertex_count-1, stored as
    adjacency bitmasks; the edges (u < v) derive from them.  Graph(n, edges)
    alone reads and gates edge pairs; every other builder writes masks and
    returns Graph._of(masks), the one writer of the slots.

    _chi is not a field: chromatic_number records there the pair (chi,
    oracle) of the chi it proved and the coloring oracle it chose
    (_oracle), and criticality reads both.  ==, hash, repr, pickle and copy
    ignore it."""

    __slots__ = ("vertex_count", "masks", "_chi")
    _fields = ("vertex_count", "masks")

    def __new__(cls, vertex_count: int, edges=()) -> Graph:
        _count("vertex_count", vertex_count, 0)
        masks = [0] * vertex_count
        for u, v in edges:
            _count("vertex", u)
            _count("vertex", v)
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u}, {v}) out of range for n={vertex_count}")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return Graph._of(masks)

    @staticmethod
    def _of(masks: Sequence[int]) -> Graph:
        g = object.__new__(Graph)
        object.__setattr__(g, "vertex_count", len(masks))
        object.__setattr__(g, "masks", tuple(masks))
        object.__setattr__(g, "_chi", None)
        return g

    def __reduce__(self):
        return Graph._of, (self.masks,)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.vertex_count == other.vertex_count and self.masks == other.masks

    def __hash__(self) -> int:
        return hash((self.vertex_count, self.masks))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for u, mask in enumerate(self.masks) for v in _bits(mask) if u < v)

    @property
    def edge_count(self) -> int:
        return sum(mask.bit_count() for mask in self.masks) // 2

    def degree(self, v: int) -> int:
        return self.masks[self._vertex(v)].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        # public callers may pass any int: u < 0 would read another mask, v < 0 raise
        return 0 <= u < self.vertex_count and v >= 0 and self.masks[u] >> v & 1 == 1

    def without_edge(self, u: int, v: int) -> Graph:
        if not self.has_edge(self._vertex(u), self._vertex(v)):
            raise ValueError(f"no edge ({u}, {v})")
        masks = list(self.masks)
        masks[u], masks[v] = masks[u] ^ 1 << v, masks[v] ^ 1 << u
        return Graph._of(masks)

    def _vertex(self, v: int) -> int:
        # an int (a bool is none) in 0..n-1: a negative index would read another mask
        _count("vertex", v)
        if not 0 <= v < self.vertex_count:
            raise ValueError(f"vertex {v} out of range for n={self.vertex_count}")
        return v

    def complement(self) -> Graph:
        return Graph._of(_complement_masks(self.masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"


def cycle_graph(n: int) -> Graph:
    _count("n", n)
    if n < 3:
        raise ValueError(f"cycle needs n >= 3, got {n}")
    return Graph._of([1 << (v - 1) % n | 1 << (v + 1) % n for v in range(n)])


def join(g: Graph, h: Graph) -> Graph:
    """Disjoint union plus all edges between the two sides."""
    off = g.vertex_count
    low, high = (1 << off) - 1, ((1 << h.vertex_count) - 1) << off
    return Graph._of([m | high for m in g.masks] + [m << off | low for m in h.masks])


# ---------------------------------------------------------------------------
# families


class _FamilyFields(NamedTuple):
    kind: FamilyKind
    sizes: tuple[int, ...]


class FamilySpec(_FamilyFields):
    """Construction recipe: part sizes for Delta (|A|, |B1|, |B2|) and
    EFamily (|A1|, |A2|, |B1|, |B2|), (k,) for Catlin and (n,) for
    Complete.  A kind's value ("Delta") stands for its member, and sizes
    given as any sequence are stored as a tuple, so every record hashes.  A
    size that is not an int raises TypeError at construction, and any other
    kind, or sizes that no member of the kind has, ValueError, so every
    FamilySpec describes a graph."""

    __slots__ = ()

    def __new__(cls, kind: FamilyKind | str, sizes: Sequence[int]) -> FamilySpec:
        sizes = tuple(sizes)
        for size in sizes:
            _count("each size", size)
        kind = FamilyKind(kind)
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
        return super().__new__(cls, kind, sizes)

    @classmethod
    def _make(cls, iterable):
        # _replace builds through _make, so a replaced record is checked too
        return cls(*iterable)

    @property
    def r(self) -> int:
        """Intended chromatic number of the family member."""
        return _FAMILIES[self.kind].chi(self.sizes)


class _Family(NamedTuple):
    parts: Callable[[Sequence[int]], Sequence[int]]  # part sizes, from the spec's sizes
    links: tuple[tuple[int, int], ...]  # pairs of parts joined completely
    chi: Callable[[Sequence[int]], int]  # chromatic number of a member


# Every member is a clique on each part plus every edge between two linked
# parts; its vertices are numbered part by part, in the order listed.
_FAMILIES = {
    # A, B1, B2, apex a, apex b: B = B1 u B2 a clique, a ~ A u B1, b ~ A u B2
    FamilyKind.DELTA: _Family(lambda s: (*s, 1, 1), ((1, 2), (0, 3), (1, 3), (0, 4), (2, 4)),
                              lambda s: s[0] + 2),
    # A1, A2, B1, B2, apex c: cliques A1 u A2 and B1 u B2, c ~ A1 u B1, A2 x B2
    FamilyKind.EFAMILY: _Family(lambda s: (*s, 1), ((0, 1), (2, 3), (0, 4), (2, 4), (1, 3)),
                                lambda s: s[0] + s[1] + 1),
    # five k-parts around a 5-cycle
    FamilyKind.CATLIN: _Family(lambda s: 5 * (s[0],), ((0, 1), (1, 2), (2, 3), (3, 4), (4, 0)),
                               lambda s: -(-5 * s[0] // 2)),
    FamilyKind.COMPLETE: _Family(lambda s: s, (), lambda s: s[0]),
}


def build_family(spec: FamilySpec) -> Graph:
    """Construct the graph a FamilySpec describes: a clique on each part of
    its kind, joined completely along the kind's links."""
    family = _FAMILIES[spec.kind]
    bounds = list(itertools.accumulate(family.parts(spec.sizes), initial=0))
    parts = [(1 << hi) - (1 << lo) for lo, hi in zip(bounds, bounds[1:])]
    near = parts.copy()  # each part ORed with the parts linked to it
    for i, j in family.links:
        near[i] |= parts[j]
        near[j] |= parts[i]
    return Graph._of([near[i] ^ 1 << v for i, part in enumerate(parts) for v in _bits(part)])


def complete_graph(n: int) -> Graph:
    _count("n", n)
    return build_family(FamilySpec(FamilyKind.COMPLETE, (n,)))


def delta_splits(r: int) -> tuple[FamilySpec, ...]:
    """All Delta(r) part-size splits (|B1|, |B2|) with both sides nonempty."""
    _count("r", r)
    if r < 3:
        raise ValueError(f"Delta family needs r >= 3, got {r}")
    return tuple(FamilySpec(FamilyKind.DELTA, (r - 2, b1, r - 1 - b1))
                 for b1 in range(1, r - 1))


def efamily_splits(r: int) -> tuple[FamilySpec, ...]:
    """All admissible EFamily(r) splits (|A1|, |A2|, |B1|, |B2|)."""
    _count("r", r)
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
    """Indexes of the set bits of mask, lowest first, for the cold paths
    only: Graph.edges, build_family and the root precoloring in
    _k_coloring.  The coloring, matching and subdivision searches walk set
    bits inline instead (low = rest & -rest, lowest first), since a
    generator resume costs more than the bit test itself."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _cliques(adj: Sequence[int]) -> list[int]:
    """One greedy maximal clique per seed vertex, as bitmasks, without
    duplicates and largest first.  Each grows by the candidate with the most
    neighbors among the remaining candidates, lowest label on ties."""
    found = set()
    for seed, cand in enumerate(adj):
        clique = 1 << seed
        while cand:
            best, v, rest = -1, 0, cand
            while rest:  # ascending, so the strict > keeps the lowest label
                low = rest & -rest
                u = low.bit_length() - 1
                count = (adj[u] & cand).bit_count()
                if count > best:
                    best, v = count, u
                rest ^= low
            clique |= 1 << v
            cand &= adj[v]
        found.add(clique)
    return sorted(found, key=lambda c: (-c.bit_count(), c))


def _k_coloring(adj: Sequence[int], k: int, cliques: list[int]) -> list[int] | None:
    """A k-coloring (color of each vertex, 0..k-1) of the graph with
    adjacency bitmasks adj, or None if it has none.

    cliques must be cliques of this graph, largest first, and at least one.
    The largest is precolored 0..q-1; then DSATUR backtracking (Brelaz 1979)
    picks the uncolored vertex with the fewest colors left, ties to higher
    degree, then lower label, and tries at most one fresh color per step.
    Each vertex keeps a bitmask of the colors still open to it.  Forward checking:
    coloring a vertex removes the color from its uncolored neighbors, and
    the branch fails as soon as one has none left.  Hall prune: the uncolored
    members of a clique need pairwise distinct colors, so the branch also
    fails when they have fewer colors left between them than there are
    members.  Only cliques containing a vertex whose colors just shrank are
    rechecked; the others hold at least as many colors as before.  The prune
    needs only that every listed set is a clique of this graph, not that it
    is maximal.
    """
    n = len(adj)
    if cliques[0].bit_count() > k:
        return None
    degree = [a.bit_count() for a in adj]

    def assign(colors: list[int], uncolored: int, v: int, c: int) -> bool:
        """Give v color c (v already out of uncolored) and propagate; False
        if a domain wipes out or a clique fails the Hall count."""
        bit = colors[v] = 1 << c
        shrunk = 0
        rest = adj[v] & uncolored
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            if colors[u] & bit:
                colors[u] ^= bit
                if not colors[u]:
                    return False
                shrunk |= low
            rest ^= low
        if shrunk:
            for clique in cliques:
                if clique & shrunk:
                    left = rest = clique & uncolored
                    union = 0
                    while rest:
                        low = rest & -rest
                        union |= colors[low.bit_length() - 1]
                        rest ^= low
                    if union.bit_count() < left.bit_count():
                        return False
        return True

    def solve(colors: list[int], uncolored: int, used: int) -> list[int] | None:
        if not uncolored:
            return [bit.bit_length() - 1 for bit in colors]
        # (colors left, -degree) as one integer below (k + 1) * n, as
        # degree < n; ascending, so the strict < keeps the lowest label
        best, v, rest = (k + 1) * n, 0, uncolored
        while rest:
            low = rest & -rest
            u = low.bit_length() - 1
            key = colors[u].bit_count() * n - degree[u]
            if key < best:
                best, v = key, u
            rest ^= low
        uncolored ^= 1 << v
        rest = colors[v] & ((2 << used) - 1)
        while rest:
            low = rest & -rest
            rest ^= low
            c = low.bit_length() - 1
            child = colors[:]
            if assign(child, uncolored, v, c):
                found = solve(child, uncolored, max(used, c + 1))
                if found is not None:
                    return found
        return None

    colors = [(1 << k) - 1] * n
    uncolored = (1 << n) - 1
    root = cliques[0]
    for c, v in enumerate(_bits(root)):
        uncolored ^= 1 << v
        if not assign(colors, uncolored, v, c):
            return None
    return solve(colors, uncolored, root.bit_count())


def _complement_masks(adj: Sequence[int]) -> list[int]:
    full = (1 << len(adj)) - 1
    return [full ^ mask ^ 1 << v for v, mask in enumerate(adj)]


def _has_triangle(adj: Sequence[int]) -> bool:
    for mask in adj:
        rest = mask
        while rest:
            low = rest & -rest
            if mask & adj[low.bit_length() - 1]:
                return True
            rest ^= low
    return False


def _classes(mate: list[int]) -> list[int]:
    """Colors from a list in which mate[x] < x means that x takes the color
    of mate[x], as the later end of a matched pair does; every other vertex
    opens the next color."""
    colors: list[int] = []
    fresh = 0
    for x, m in enumerate(mate):
        if 0 <= m < x:
            colors.append(colors[m])
        else:
            colors.append(fresh)
            fresh += 1
    return colors


def chromatic_number(g: Graph, max_n: int | None = None) -> int:
    """Exact chromatic number, read off a coloring by the oracle of g
    (_oracle).  With alpha(g) <= 2 that is the one coloring the complement
    matching gives; otherwise k counts up from the largest clique found
    until DSATUR k-colors the graph.  chi is recorded on g together with
    the oracle, so is_critical neither refutes chi - 1 nor picks the oracle
    again."""
    found = _run_search("coloring", g, max_n, _chromatic, g.masks)
    object.__setattr__(g, "_chi", found)
    return found[0]


def _chromatic(adj: Sequence[int]) -> tuple[int, Callable]:
    oracle = _oracle(adj)
    if oracle is _matching_coloring:
        colors = oracle(adj, len(adj))  # at most n colors, so never None
    else:
        cliques = _cliques(adj)
        k = cliques[0].bit_count()
        while (colors := _k_coloring(adj, k, cliques)) is None:
            k += 1
    return max(colors, default=-1) + 1, oracle


def _oracle(adj: Sequence[int]) -> Callable[[Sequence[int], int], list[int] | None]:
    """The coloring oracle of the graph g with adjacency bitmasks adj: a
    function (masks, k) -> a k-coloring of the graph with adjacency bitmasks
    masks, or None if it has none, exact on g and on every contraction G/uv.

    When the complement of g is triangle-free, i.e. alpha(g) <= 2, every
    color class is one vertex or one non-edge, so a coloring with c colors
    pairs up n - c vertices along a matching of the complement, and a
    maximum matching of size nu colors g with chi = n - nu colors exactly,
    with no search: the oracle is _matching_coloring.  An independent set
    of G/uv that holds the merged vertex is one of g that holds u, so
    alpha(G/uv) <= alpha(g), and the matching is exact on every contraction
    too.  Otherwise the oracle is the DSATUR search _k_coloring."""
    if _has_triangle(_complement_masks(adj)):
        return lambda masks, k: _k_coloring(masks, k, _cliques(masks))
    return _matching_coloring


def _matching_coloring(masks: Sequence[int], k: int) -> list[int] | None:
    """The coloring whose classes are the pairs of a maximum matching of the
    complement and the single vertices left, if it has at most k colors;
    otherwise None.  Exact only when alpha <= 2 (_oracle)."""
    colors = _classes(_max_matching(_complement_masks(masks)))
    return colors if max(colors, default=-1) < k else None


def _twin_classes(adj: Sequence[int]) -> list[int]:
    """The twin class of each vertex, as a bitmask that holds the vertex:
    its true twins (the same closed neighborhood) or its false twins (the
    same open one).  Swapping two twins is an automorphism that fixes every
    other vertex.  No vertex has twins of both kinds: if u, v are true twins
    and u, w false twins, then w is in N(v), within N[u], so w is in N(u) =
    N(w).  So the classes partition the vertices.

    One dict holds both kinds of key, since no closed neighborhood N[v] is
    an open one N(w): that would put v in N(w), so w in N(v), within N[v] =
    N(w), and no vertex is its own neighbor."""
    members: dict[int, int] = {}
    get = members.get
    for v, mask in enumerate(adj):
        bit = 1 << v
        closed = mask | bit
        members[mask] = get(mask, 0) | bit
        members[closed] = get(closed, 0) | bit
    return [members[mask] | members[mask | 1 << v] for v, mask in enumerate(adj)]


def _edge_colorings(g: Graph, r: int) -> Iterator[tuple[tuple[int, int], list[int], int]]:
    """Yield (e, an (r-1)-coloring of G-e, the size of e's twin orbit) for
    one edge e of each twin orbit of g, each orbit once, if g is not
    (r-1)-colorable; stop at the first edge whose G-e is not (r-1)-colorable
    either, and yield nothing if g is.  So g is r-critical iff the orbit
    sizes add up to the edge count: a fresh color on one end of e r-colors
    g, so chi = r with every edge critical.

    Twin orbits: swapping two twins (_twin_classes) is an automorphism s of
    g, so G-e and G-s(e) are isomorphic, and a coloring of G-e with the
    colors of the two twins swapped colors G-s(e).  The orbit of an edge xy
    under these swaps is every pair of class(x) x class(y), or, when x and
    y are twins (true twins, so their class is a clique), every pair inside
    their class; either way every pair of the orbit is an edge of g.  So
    one coloring per orbit certifies all of its edges, and the first
    coloring that reaches an edge closes its whole orbit.  A twin-free
    graph has only singleton orbits, and the colorings are then one per
    edge.

    The pair (chi, oracle) that chromatic_number recorded on g is read
    here and nowhere else: chi = r stands in for the refutation of g, so a
    caller that asks for chi first never refutes the same (r-1)-coloring
    twice nor picks the oracle again, and any other chi yields nothing at
    once, with no oracle call.  On a graph with nothing recorded the oracle
    comes from _oracle.

    Once g is known not to be (r-1)-colorable, an (r-1)-coloring of G-e
    makes e = uv its one monochromatic edge of g, and the colorings come
    from two sound sources:

      - the contraction G/uv (Zykov 1949): a coloring of G-uv that gives u
        and v one color colors G/uv, and a coloring of G/uv gives u and v
        the color of the merged vertex.  So G-uv is (r-1)-colorable iff
        G/uv is, and G/uv is colored by the oracle that refutes g, which is
        exact on every contraction (_oracle);
      - a recoloring move: if an end z of e has exactly one neighbor x of
        some color b, recoloring z to b leaves zx the one monochromatic edge
        of g, so the result colors G-zx.  (z has a neighbor of every color,
        else recoloring it would color g.)  Moves are followed depth-first,
        and only an orbit that no move reached needs a contraction of its
        own.  A move is tried only toward an open orbit, one that no
        coloring has reached yet: each vertex keeps a mask of its edges in
        open orbits, so the work per coloring shrinks as orbits close."""
    adj, k = g.masks, r - 1
    chi, oracle = g._chi or (None, _oracle(adj))
    # a recorded chi other than r answers at once; with none recorded, g
    # must not be (r-1)-colorable
    if chi != r and (chi is not None or oracle(adj, k) is not None):
        return

    def color(u: int, v: int) -> list[int] | None:
        # G/uv: v merged into u (u < v), then bit and index v dropped
        uv, low = 1 << u | 1 << v, (1 << v) - 1
        merged = [mask & ~uv | (mask & uv != 0) << u for mask in adj]
        merged[u] = (adj[u] | adj[v]) & ~uv
        colors = oracle([mask & low | mask >> 1 & ~low
                         for x, mask in enumerate(merged) if x != v], k)
        if colors is not None:
            colors.insert(v, colors[u])  # v takes the color of u
        return colors

    # open_[x]: the ends y of the edges xy whose orbit no coloring has reached
    cls, open_ = _twin_classes(adj), list(adj)

    def close(a: int, b: int) -> int:
        """Close the orbit of the edge ab, cls[a] x cls[b], and return its
        size; for twins a, b that is every pair of their class."""
        ca, cb = cls[a], cls[b]
        for ends, other in ((ca, cb), (cb, ca)):
            while ends:
                low = ends & -ends
                open_[low.bit_length() - 1] &= ~other
                ends ^= low
        p = ca.bit_count()
        return p * (p - 1) // 2 if ca == cb else p * cb.bit_count()

    for u in range(len(adj)):
        # edges below u are all reached, so the lowest open end is above u
        while open_[u]:
            v = (open_[u] & -open_[u]).bit_length() - 1
            colors = color(u, v)
            if colors is None:
                return
            classes = [0] * k
            for x, c in enumerate(colors):
                classes[c] |= 1 << x
            stack = [((u, v), colors, classes, close(u, v))]
            while stack:
                edge, colors, classes, size = stack.pop()
                yield edge, colors, size
                for z in edge:
                    # an end z whose only neighbor of color beta is x, on an
                    # open edge zx, moves to beta, and zx is the only edge
                    # left monochromatic (e, the one edge in z's own color,
                    # is closed); the moves go on the stack in ascending
                    # beta, with at most one x per beta, and a move whose
                    # orbit an earlier one closed is dropped
                    moves = []
                    near, rest = adj[z], open_[z]
                    while rest:
                        low = rest & -rest
                        rest ^= low
                        x = low.bit_length() - 1
                        beta = colors[x]
                        if near & classes[beta] == low:
                            moves.append((beta, x))
                    for beta, x in sorted(moves):
                        if not open_[z] >> x & 1:
                            continue
                        recolored = colors[:]
                        recolored[z] = beta
                        reclassed = classes[:]
                        reclassed[colors[z]] &= ~(1 << z)
                        reclassed[beta] |= 1 << z
                        stack.append(((z, x) if z < x else (x, z), recolored, reclassed,
                                      close(z, x)))


def is_critical(g: Graph, r: int, max_n: int | None = None) -> bool:
    """True iff chi(g) = r and removing any edge drops the chromatic number.

    For graphs without isolated vertices this is exactly r-criticality (every
    proper subgraph (r-1)-colorable); an isolated vertex would defeat the
    implication, so its presence returns False for r >= 2.  For r <= 0 only
    the empty graph (chi = 0) is critical.

    chi is never computed: g must not be (r-1)-colorable, so chi >= r, and
    every G-e must be (with no edge, chi = min(n, 1)).  _edge_colorings
    decides both, and reads the chi and oracle that chromatic_number
    recorded on g.
    """
    _count("r", r)
    if r >= 2 and 0 in g.masks:
        return False
    return _run_search("coloring", g, max_n, _critical, g, r)


def _critical(g: Graph, r: int) -> bool:
    if r <= 0 or not g.edge_count:
        return r == min(g.vertex_count, 1)
    return sum(size for _, _, size in _edge_colorings(g, r)) == g.edge_count


def _max_matching(adj: Sequence[int]) -> list[int]:
    """A maximum matching of the graph with adjacency bitmasks adj, as the
    mate of each vertex (-1 if unmatched), by Edmonds' blossom algorithm
    (Edmonds 1965).

    Each still unmatched vertex roots a breadth-first alternating tree; a
    vertex of the queue is an outer (even) vertex.  An edge between two
    outer vertices of the tree closes an odd cycle, a blossom: every vertex
    on it is given the base of the blossom, and its inner vertices become
    outer too.  An edge to an unmatched vertex off the tree ends an
    augmenting path, which is flipped along the parent links.  A vertex
    that roots no augmenting path never roots one later, so one pass over
    the vertices suffices (Berge 1957 for maximality).

    A root with an unmatched neighbor is matched to the lowest one without
    a search.  That is the search's own answer: it scans the root's
    neighbors in ascending order before it dequeues anything else, a
    blossom found in that scan touches no unmatched vertex off the tree,
    and the first unmatched neighbor ends it with the path root-to.
    """
    n = len(adj)
    match = [-1] * n

    def augment(root: int) -> bool:
        base = list(range(n))
        parent = [-1] * n
        outer = 1 << root
        queue = [root]

        def lowest_common_base(a: int, b: int) -> int:
            path = 0
            while True:
                a = base[a]
                path |= 1 << a
                if match[a] == -1:
                    break
                a = parent[match[a]]
            while not path >> base[b] & 1:
                b = parent[match[base[b]]]
            return base[b]

        def mark(v: int, top: int, child: int) -> int:
            """Walk from the outer vertex v down the tree to the blossom
            base top, linking each outer vertex passed to its neighbor
            around the odd cycle (first child), so that an augmenting path
            can leave the blossom through it; returns the bases passed."""
            bases = 0
            while base[v] != top:
                bases |= 1 << base[v] | 1 << base[match[v]]
                parent[v] = child
                child = match[v]
                v = parent[child]
            return bases

        for v in queue:
            rest = adj[v]
            while rest:
                low = rest & -rest
                rest ^= low
                to = low.bit_length() - 1
                if base[v] == base[to] or match[v] == to:
                    continue
                if to == root or match[to] != -1 and parent[match[to]] != -1:
                    top = lowest_common_base(v, to)
                    blossom = mark(v, top, to) | mark(to, top, v)
                    for w in range(n):
                        if blossom >> base[w] & 1:
                            base[w] = top
                            if not outer >> w & 1:
                                outer |= 1 << w
                                queue.append(w)
                elif parent[to] == -1:
                    parent[to] = v
                    if match[to] == -1:
                        while to != -1:
                            mate = parent[to]
                            after = match[mate]
                            match[to], match[mate] = mate, to
                            to = after
                        return True
                    outer |= 1 << match[to]
                    queue.append(match[to])
        return False

    for v in range(n):
        if match[v] == -1:
            rest = adj[v]
            while rest and match[(rest & -rest).bit_length() - 1] != -1:
                rest &= rest - 1
            if rest:
                to = (rest & -rest).bit_length() - 1
                match[v], match[to] = to, v
            else:
                augment(v)
    return match


# ---------------------------------------------------------------------------
# topological cliques


class SubdivisionWitness(NamedTuple):
    """A topological K_t: branch vertices plus one path per pair, pairwise
    internally disjoint."""

    t: int
    branch_vertices: tuple[int, ...]
    paths: tuple[tuple[tuple[int, int], tuple[int, ...]], ...]

    def verify(self, g: Graph) -> bool:
        """Re-check every claim of the witness against g.  There must be one
        path per pair of branch vertices, filed under the pair with its
        lower end first.  Each path vertex passes the edge test from its
        predecessor, which rejects a vertex out of range, before it becomes
        a bit of a mask."""
        branch, t = self.branch_vertices, self.t
        n, masks = g.vertex_count, g.masks
        if len(branch) != t or len(set(branch)) != t:
            return False
        if any(not 0 <= v < n for v in branch):
            return False
        if len(self.paths) != t * (t - 1) // 2:
            return False
        ends = 0
        for v in branch:
            ends |= 1 << v
        # taken: the branch set and the internal vertices of earlier paths;
        # met: bit u*n + v for each pair (u, v) already met
        taken, met = ends, 0
        for pair, path in self.paths:
            if len(pair) != 2:
                return False
            u, v = pair
            if not 0 <= u < v < n or not ends >> u & ends >> v & 1:
                return False
            key = 1 << u * n + v
            if met & key:
                return False
            met |= key
            if len(path) < 2 or path[0] != u or path[-1] != v:
                return False
            if len(path) == 2:  # a direct edge has no internal vertex
                if not masks[u] >> v & 1:
                    return False
                continue
            prev, on_path = u, 1 << u
            for w in path[1:]:
                if w < 0 or not masks[prev] >> w & 1:
                    return False
                bit = 1 << w
                if on_path & bit:
                    return False
                on_path |= bit
                prev = w
            internal = on_path & ~(1 << u | 1 << v)
            if internal & taken:
                return False
            taken |= internal
        return True


def _reaches(adj: Sequence[int], start: int, allowed: int, goal: int) -> bool:
    """True iff a walk from start through vertices of allowed reaches a
    vertex of goal & allowed (breadth-first search over bitmasks)."""
    goal &= allowed
    seen = frontier = adj[start] & allowed
    while frontier:
        if frontier & goal:
            return True
        grown, rest = 0, frontier
        while rest:
            low = rest & -rest
            grown |= adj[low.bit_length() - 1]
            rest ^= low
        frontier = grown & allowed & ~seen
        seen |= frontier
    return False


def _route(adj: Sequence[int], twin: Sequence[int], pairs: list[tuple[int, int]],
           free: int) -> dict[tuple[int, int], tuple[int, ...]] | None:
    """First system of internally disjoint chordless paths joining the
    pairs, none of them adjacent, routed in order with internal vertices
    from the bitmask free: a dict pair -> path, or None if there is none.
    twin[w] is the bit of w's next lower twin (0 if none); a step to w is
    skipped while that twin is free."""
    for a, b in pairs:
        if not _reaches(adj, a, free, adj[b]):
            return None
    if not pairs:
        return {}
    (u, v), rest = pairs[0], pairs[1:]
    goal = adj[v]
    path = [u]

    def extend(cur: int, banned: int, free: int):
        # banned holds the neighbors of the path vertices before cur
        if goal >> cur & 1:
            system = _route(adj, twin, rest, free)
            if system is not None:
                system[(u, v)] = (*path, v)
            return system
        after = banned | adj[cur]
        steps = adj[cur] & free & ~banned
        while steps:
            low = steps & -steps
            steps ^= low
            w = low.bit_length() - 1
            if twin[w] & free:
                continue
            left = free ^ low
            if goal & low or _reaches(adj, w, left & ~after, goal):
                path.append(w)
                system = extend(w, after, left)
                if system is not None:
                    return system
                path.pop()
        return None

    return extend(u, 0, free)


def find_topological_clique(g: Graph, t: int, max_n: int | None = None) -> SubdivisionWitness | None:
    """Search for a subdivision of K_t; exact within the budget.

    Branch vertices are picked one at a time from the candidates, taken in
    order of degree (highest first, lower label on ties).  Adjacent branch
    pairs take their direct edge; this never loses, since an edge between
    two branch vertices can serve no other pair.  Every other pair is open
    and needs a path with internal vertices off the branch set.  Three prunes
    cut a partial branch set, and with it every set that extends it:

      (a) each open pair needs a private internal vertex, distinct from
          those of the other pairs, and a full set leaves only n - t
          vertices; (c) charges some pairs two.  Open pairs only accumulate
          as the set grows.
      (b) a branch vertex x leaves by a different non-branch neighbor on
          each of its open paths.  With j branch neighbors that is t-1-j
          open pairs against deg(x)-j such neighbors, i.e. deg(x) >= t-1:
          the filter that makes x a candidate in the first place.
      (c) when v joins the set, a new open pair uv whose ends share no
          neighbor off the set has no path of length 2 around it, so it
          needs two private internal vertices.  The vertices off the set
          only shrink as it grows, so the pair still needs two in every
          full set that extends this one.

    The count of (a) and (c) is thus a lower bound on the internal vertices
    of any system of paths for any full set above the partial one, and a set
    it cuts would fail routing below: the cut drops no set that routing
    could complete, and the first witness found stays the same.  A fourth
    prune breaks symmetry:

      (d) twins are vertices with the same closed neighborhood (true twins)
          or the same open one (false twins); swapping two of them is an
          automorphism that fixes every other vertex.  A candidate whose
          next lower twin is not in the set is skipped, so each twin class
          enters as a prefix in label order, which is also candidate order,
          since twins have equal degree.  Full sets are met in
          lexicographic order of candidate index, and the least one that
          routes is a prefix set: otherwise swapping a member for a lower
          twin off the set would give an earlier one that routes too.  So
          the first witness stays the same.  No vertex has twins of both
          kinds (_twin_classes), so one next-lower-twin bit per vertex
          suffices, and routing reads the same bit.

    On a full branch set each open pair is first checked for a path through
    the free vertices, by a breadth-first search over bitmasks.  Then the
    open pairs are routed one after another by depth-first search:

      - only chordless paths are tried: a new vertex touches no earlier
        path vertex except the current end.  Any path can be shortened to
        a chordless one on a subset of its own vertices, and a subset
        keeps the system internally disjoint;
      - a path closes as soon as its end is adjacent to the target, for the
        same reason;
      - a step is taken only if the target can still be reached from the
        new end through free vertices that no earlier path vertex touches;
      - a step to w is skipped while w's next lower twin w' is free.  Both
        are off the branch set and off every path, so swapping them is an
        automorphism that fixes the branch set, every earlier path, the
        current path and the target, and maps the step to w' and all below
        it onto the step to w.  Steps are walked in label order, so the
        search reaches w only once w' has failed, and w would fail too.  The
        first witness stays the same, and each twin class enters the paths
        as a prefix.

    Once a path closes, every remaining pair must again be joined through
    the vertices still free.
    """
    _count("t", t, 0)
    return _run_search("subdivision", g, max_n, _topological_clique, g.masks, t)


def _topological_clique(adj: Sequence[int], t: int) -> SubdivisionWitness | None:
    n = len(adj)
    degree = [mask.bit_count() for mask in adj]
    # highest degree first; sorted is stable under reverse, so lower label on ties
    candidates = sorted((v for v in range(n) if degree[v] >= t - 1),
                        key=degree.__getitem__, reverse=True)
    free_all = (1 << n) - 1
    # twin[v]: the bit of v's next lower twin, 0 if it has none
    twin = [0] * n
    for v, cls in enumerate(_twin_classes(adj)):
        below = cls & ((1 << v) - 1)
        if below:
            twin[v] = 1 << below.bit_length() - 1

    def choose(start: int, branch: int, size: int, private_need: int) -> SubdivisionWitness | None:
        if size == t:
            members, rest = [], branch
            while rest:
                low = rest & -rest
                members.append(low.bit_length() - 1)
                rest ^= low
            pairs = list(itertools.combinations(members, 2))
            open_pairs = [(a, b) for a, b in pairs if not adj[a] >> b & 1]
            system = _route(adj, twin, open_pairs, free_all & ~branch)
            if system is None:
                return None
            return SubdivisionWitness(t=t, branch_vertices=tuple(members),
                                      paths=tuple((pair, system.get(pair, pair)) for pair in pairs))
        for i in range(start, len(candidates) - (t - size) + 1):
            v = candidates[i]
            if twin[v] & ~branch:
                continue
            need = private_need + size - (adj[v] & branch).bit_count()
            # a new open pair with no common neighbor off the set has no path
            # of length 2 in any set above this one: two private vertices
            near, rest = adj[v] & ~branch, branch & ~adj[v]
            while rest and need <= n - t:
                low = rest & -rest
                if not adj[low.bit_length() - 1] & near:
                    need += 1
                rest ^= low
            if need > n - t:
                continue
            witness = choose(i + 1, branch | 1 << v, size + 1, need)
            if witness is not None:
                return witness
        return None

    return choose(0, 0, 0, 0)


def contains_topological_clique(g: Graph, t: int, max_n: int | None = None) -> bool:
    """True iff the search finds a witness and the witness verifies."""
    witness = find_topological_clique(g, t, max_n=max_n)
    return witness is not None and witness.verify(g)


# ---------------------------------------------------------------------------
# graph6


_G6_PREFIX = ">>graph6<<"
_G6_BITS = {c: format(c - 63, "06b") for c in range(63, 127)}  # a graph6 byte -> its six bits


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
    bits = text[pos:].translate(_G6_BITS)
    if len(bits) != 6 * nchars:  # a byte outside the range stays one character
        for i in range(pos, len(text)):
            value(i)  # raises at the first such byte
    if "1" in bits[nbits:]:
        raise Graph6Error("nonzero padding bit", offset=base + len(text) - 1)
    # column v holds the rows u < v, lowest first, so reversed it reads as the
    # binary numeral of v's lower neighbors; each is ORed into their masks
    rev, end, masks = bits[::-1], len(bits), [0] * n
    for v in range(1, n):
        col = masks[v] = int(rev[end - v:end], 2)
        end -= v
        while col:
            low = col & -col
            masks[low.bit_length() - 1] |= 1 << v
            col ^= low
    return Graph._of(masks)


def serialize_graph6(g: Graph) -> str:
    """graph6 encoding of g (no prefix, no newline)."""
    n = g.vertex_count
    if n <= 62:
        out = [chr(n + 63)]
    elif n < 1 << 18:
        out = ["~", chr((n >> 12) + 63), chr(((n >> 6) & 63) + 63), chr((n & 63) + 63)]
    else:
        raise ValueError(f"n={n} too large for this graph6 writer")
    # column v holds the rows u < v, lowest first: the binary numeral of v's
    # lower neighbors read backwards, as parse_graph6 reads it
    bits = "".join(format(g.masks[v] & ((1 << v) - 1), f"0{v}b")[::-1] for v in range(1, n))
    bits += "0" * (-len(bits) % 6)
    out.extend(chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6))
    return "".join(out)
