"""Small-graph laboratory: family constructors, exact coloring, criticality,
the complement matching, topological clique search, graph6 round-trips."""

import copy
import functools
import itertools
import pickle
import random
import subprocess
import sys

import networkx as nx
import pytest
from hypothesis import example, given, strategies as st

from albertson import (
    BudgetExceededError,
    FamilyKind,
    FamilySpec,
    Graph,
    Graph6Error,
    SubdivisionWitness,
    build_family,
    chromatic_number,
    complete_graph,
    contains_topological_clique,
    cycle_graph,
    delta_splits,
    efamily_splits,
    find_topological_clique,
    is_critical,
    join,
    parse_graph6,
    serialize_graph6,
)
from albertson import cli, graph_lab
from albertson.graph_lab import (
    _classes,
    _cliques,
    _complement_masks,
    _edge_colorings,
    _has_triangle,
    _k_coloring,
    _max_matching,
    _route,
    _run_search,
)


def _random_graph(rng, n, density=0.5):
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < density]
    return Graph(n, edges)


def _oracle_chromatic(g):
    """Plain backtracking over color assignments in label order, no bounds or
    heuristics.  Colors are numbered by first use (vertex v may open at most
    color top + 1), which every coloring becomes after renaming its colors."""
    n = g.vertex_count
    if n == 0:
        return 0
    colors = [0] * n
    masks = g.masks

    def feasible(v, k, top=0):
        if v == n:
            return True
        for c in range(1, min(k, top + 1) + 1):
            if all(colors[w] != c for w in range(v) if masks[v] >> w & 1):
                colors[v] = c
                if feasible(v + 1, k, max(top, c)):
                    return True
        colors[v] = 0
        return False

    for k in range(1, n + 1):
        if feasible(0, k):
            return k
    raise AssertionError("unreachable")


def _all_paths(g, u, v, banned, used):
    """Every simple u-v path whose internal vertices avoid banned | used."""
    out = []
    masks = g.masks

    def dfs(cur, path):
        for w in range(g.vertex_count):
            if not masks[cur] >> w & 1 or w in banned or w in used or w in path:
                continue
            if w == v:
                out.append(path + (v,))
                continue
            dfs(w, path + (w,))

    dfs(u, (u,))
    return out


def _oracle_topological(g, t):
    """Unpruned exhaustive subdivision search: all branch-vertex choices
    (no degree filter), all path systems (direct edges treated as paths)."""
    n = g.vertex_count
    if t <= 1:
        return n >= t
    for branch in itertools.combinations(range(n), t):
        bset = set(branch)
        pairs = list(itertools.combinations(branch, 2))

        def assign(i, used):
            if i == len(pairs):
                return True
            u, v = pairs[i]
            for path in _all_paths(g, u, v, bset - {u, v}, used):
                if assign(i + 1, used | set(path[1:-1])):
                    return True
            return False

        if assign(0, frozenset()):
            return True
    return False


def _max_clique_size(g):
    n = g.vertex_count
    for size in range(n, 0, -1):
        for sub in itertools.combinations(range(n), size):
            if all(g.has_edge(u, v) for u, v in itertools.combinations(sub, 2)):
                return size
    return 0


def _mycielski(g):
    """Mycielski's construction: a copy u' of each vertex u, adjacent to the
    neighbors of u, plus one vertex adjacent to every copy."""
    n = g.vertex_count
    edges = list(g.edges)
    edges += [(u, n + v) for a, b in g.edges for u, v in ((a, b), (b, a))]
    edges += [(n + u, 2 * n) for u in range(n)]
    return Graph(2 * n + 1, edges)


def _mycielski_k(k):
    """The k-critical Mycielski graph M_k (k >= 2): M_2 = K_2."""
    g = complete_graph(2)
    for _ in range(k - 2):
        g = _mycielski(g)
    return g


def _petersen():
    return Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                      (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                      (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])


def _icosahedron():
    """Two poles 0 and 11, each joined to a 5-cycle, and an antiprism band
    between the two cycles."""
    upper = [1 + i for i in range(5)]
    lower = [6 + i for i in range(5)]
    edges = [(0, v) for v in upper] + [(11, v) for v in lower]
    for i in range(5):
        edges += [(upper[i], upper[(i + 1) % 5]), (lower[i], lower[(i + 1) % 5]),
                  (upper[i], lower[i]), (upper[i], lower[(i + 1) % 5])]
    return Graph(12, edges)


def _subdivided_complete(t, longer):
    """K_t with every edge subdivided once, except that the first `longer`
    edges get two new vertices each."""
    n, edges = t, []
    for i, (u, v) in enumerate(itertools.combinations(range(t), 2)):
        middle = list(range(n, n + 1 + (i < longer)))
        n += len(middle)
        path = [u, *middle, v]
        edges += zip(path, path[1:])
    return Graph(n, edges)


def _relabel(g, rng):
    perm = list(range(g.vertex_count))
    rng.shuffle(perm)
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges])


def _co_triangle_free(rng, n):
    """A random graph with independence number <= 2: the complement of a
    triangle-free graph whose edges are drawn in random order, each kept with
    a random probability when it closes no triangle."""
    keep = rng.uniform(0.3, 1.0)
    masks = [0] * n
    pairs = list(itertools.combinations(range(n), 2))
    rng.shuffle(pairs)
    for u, v in pairs:
        if not masks[u] & masks[v] and rng.random() < keep:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
    return Graph(n, [(u, v) for u, v in pairs if not masks[u] >> v & 1])


def _oracle_critical(g, r):
    """Edge-deletion oracle: chi = r, no isolated vertex when r >= 2, and
    every G-e colorable with fewer colors."""
    isolated = any(g.degree(v) == 0 for v in range(g.vertex_count))
    return (_oracle_chromatic(g) == r and not (r >= 2 and isolated)
            and all(_oracle_chromatic(g.without_edge(*e)) < r for e in g.edges))


def _twin_sets(g):
    """For each vertex, the set of vertices with the same closed or the same
    open neighborhood, itself included, by comparing the masks of g."""
    masks, n = g.masks, g.vertex_count
    return [{u for u in range(n) if masks[u] | 1 << u == masks[v] | 1 << v or masks[u] == masks[v]}
            for v in range(n)]


def _twin_orbit(twins, x, y):
    """The edges that twin swaps map xy to: every pair inside the class of
    x when y is a twin of x, else every pair of class(x) x class(y)."""
    if y in twins[x]:
        return {(a, b) for a in twins[x] for b in twins[x] if a < b}
    return {(min(a, b), max(a, b)) for a in twins[x] for b in twins[y]}


def _check_orbit_certificate(g, r, triples):
    """Assert that the (e, coloring, orbit size) triples of _edge_colorings
    certify every edge of g exactly once: the twin orbits of the yielded
    edges, recomputed here from g alone, partition the edges of g, no orbit
    comes twice, each claimed size is its orbit's size, and each coloring
    properly (r-1)-colors G-e."""
    twins, edges, covered = _twin_sets(g), g.edges, set()
    for (x, y), colors, size in triples:
        orbit = _twin_orbit(twins, x, y)
        assert (x, y) in edges and orbit <= edges, (x, y)
        assert not orbit & covered, (x, y)
        assert size == len(orbit), (x, y, size)
        covered |= orbit
        assert len(colors) == g.vertex_count and set(colors) <= set(range(r - 1))
        assert all(colors[u] != colors[v] for u, v in edges if (u, v) != (x, y)), (x, y)
    assert covered == edges


class TestGraphType:
    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])
        with pytest.raises(ValueError, match="vertex_count must be >= 0, got -1"):
            Graph(-1)

    def test_deduplicates_and_normalizes(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1
        assert g.has_edge(1, 0)

    def test_equality_and_hash(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(2, 1), (0, 1)])
        assert a == b and hash(a) == hash(b)
        assert a != Graph(3, [(0, 1)])

    def test_without_edge(self):
        g = complete_graph(4).without_edge(0, 1)
        assert g.edge_count == 5
        with pytest.raises(ValueError):
            g.without_edge(0, 1)

    @given(st.integers(0, 9), st.integers(0, 10**6))
    def test_masks_edges_and_adjacency_agree(self, n, seed):
        rng = random.Random(seed)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        g = Graph(n, [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges])
        assert g.edges == frozenset(edges) and g.edge_count == len(edges)
        masks = [0] * n
        for u, v in edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        assert g.masks == tuple(masks)
        assert all(g.degree(v) == sum(v in e for e in edges) for v in range(n))
        assert all(g.has_edge(u, v) == ((min(u, v), max(u, v)) in g.edges)
                   for u in range(n) for v in range(n))

    def test_has_edge_outside_the_vertex_range(self):
        g = complete_graph(4)
        assert not any(g.has_edge(0, v) for v in (-1, -4, -5, 4, 64))
        # u = -1 must not read the last vertex's mask, nor u = 4 run off the end
        assert not any(g.has_edge(u, 1) for u in (-1, 4))
        with pytest.raises(ValueError):
            g.without_edge(0, -1)

    @given(st.integers(0, 8), st.integers(0, 10**6))
    def test_complement_involution(self, n, seed):
        g = _random_graph(random.Random(seed), n)
        assert g.complement().edges == set(itertools.combinations(range(n), 2)) - g.edges
        assert g.complement().complement() == g

    def test_degrees(self):
        g = cycle_graph(5)
        assert [g.degree(v) for v in range(5)] == [2] * 5

    def test_is_an_immutable_record(self):
        g = cycle_graph(5)
        assert Graph._fields == ("vertex_count", "masks")
        for name, value in (("masks", ()), ("vertex_count", 0), ("edges", frozenset())):
            with pytest.raises(AttributeError):
                setattr(g, name, value)
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert g == cycle_graph(5) and g.edge_count == 5

    def test_pickle_and_copy_round_trips(self):
        g = complete_graph(4).without_edge(1, 3)
        for copier in (lambda h: pickle.loads(pickle.dumps(h)), copy.copy, copy.deepcopy):
            got = copier(g)
            assert got == g and hash(got) == hash(g)
            assert (got.vertex_count, got.masks, got.edges) == (g.vertex_count, g.masks, g.edges)

    def test_vertex_arguments_are_gated(self):
        # unchecked, degree(-1) would read vertex 4's mask and without_edge(0, True) remove (0, 1)
        g = cycle_graph(5)
        for v in (-1, -5, 5, 64):
            with pytest.raises(ValueError, match=f"vertex {v} out of range for n=5"):
                g.degree(v)
            with pytest.raises(ValueError, match=f"vertex {v} out of range for n=5"):
                g.without_edge(0, v)
            with pytest.raises(ValueError, match=f"vertex {v} out of range for n=5"):
                g.without_edge(v, 4)
        for call in (lambda: g.degree(True), lambda: g.without_edge(0, True),
                     lambda: g.without_edge(True, 2), lambda: g.degree(1.0)):
            with pytest.raises(TypeError, match="vertex must be an int"):
                call()
        with pytest.raises(ValueError, match=r"no edge \(0, 2\)"):
            g.without_edge(0, 2)
        assert [g.degree(v) for v in range(5)] == [2] * 5
        assert g.without_edge(4, 0) == Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        # has_edge keeps its contract: any int outside the range is no edge
        assert not any(g.has_edge(u, v) for u, v in ((-1, 0), (0, -1), (5, 4), (4, 5)))

    @given(st.integers(0, 9), st.integers(0, 9), st.integers(0, 10**6))
    @example(0, 0, 0)
    def test_mask_builders_match_the_public_constructor(self, n, k, seed):
        # every builder but Graph(n, edges) writes masks; each must build the
        # graph that the public constructor builds from the edge pairs
        rng = random.Random(seed)
        g, h = _random_graph(rng, n), _random_graph(rng, k)
        pairs = set(g.edges)
        cases = [
            (join(g, h), Graph(n + k, [*pairs, *((u + n, v + n) for u, v in h.edges),
                                       *((u, v + n) for u in range(n) for v in range(k))])),
            (g.complement(), Graph(n, set(itertools.combinations(range(n), 2)) - pairs)),
        ]
        cases += [(g.without_edge(*e), Graph(n, pairs - {e})) for e in sorted(pairs)]
        cases += [(g.without_edge(v, u), Graph(n, pairs - {(u, v)})) for u, v in sorted(pairs)]
        cases += [(cycle_graph(m), Graph(m, [(i, (i + 1) % m) for i in range(m)]))
                  for m in range(3, 41)]
        for got, expected in cases:
            assert got == expected and hash(got) == hash(expected)
            assert type(got.masks) is tuple and got._chi is None
            for copier in (lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy):
                clone = copier(got)
                assert clone == got and hash(clone) == hash(got) and clone._chi is None

    def test_mask_builders_pass_no_count_gate(self, monkeypatch):
        # the specs gate their sizes when they are built, before the patch;
        # the builders then write masks, so no endpoint reaches _count
        specs = [*efamily_splits(10), *delta_splits(10), FamilySpec(FamilyKind.CATLIN, (3,)),
                 FamilySpec(FamilyKind.COMPLETE, (10,))]
        g, h = cycle_graph(5), cycle_graph(7)
        calls = []
        monkeypatch.setattr(graph_lab, "_count", lambda *args: calls.append(args))
        graphs = [build_family(spec) for spec in specs]
        graphs += [join(g, h), join(graphs[0], graphs[-1]), g.complement(), graphs[0].complement()]
        assert calls == []


class TestFamilies:
    def test_delta_splits_r4(self):
        specs = delta_splits(4)
        assert [s.sizes for s in specs] == [(2, 1, 2), (2, 2, 1)]
        assert all(s.r == 4 for s in specs)

    def test_delta_split_counts(self):
        assert [len(delta_splits(r)) for r in (4, 5, 6)] == [2, 3, 4]

    def test_efamily_split_counts(self):
        assert len(efamily_splits(4)) == 3
        assert len(efamily_splits(5)) == 6

    def test_delta_member_shape(self):
        g = build_family(delta_splits(4)[0])
        assert (g.vertex_count, g.edge_count) == (7, 11)

    def test_delta3_is_five_cycle(self):
        g = build_family(FamilySpec(FamilyKind.DELTA, sizes=(1, 1, 1)))
        assert (g.vertex_count, g.edge_count) == (5, 5)
        assert all(g.degree(v) == 2 for v in range(5))
        assert chromatic_number(g) == 3  # connected 2-regular odd cycle

    def test_catlin2_counts(self):
        g = build_family(FamilySpec(FamilyKind.CATLIN, sizes=(2,)))
        assert (g.vertex_count, g.edge_count) == (10, 25)

    def test_catlin_edge_formula(self):
        for k in range(1, 6):
            g = build_family(FamilySpec(FamilyKind.CATLIN, sizes=(k,)))
            assert g.vertex_count == 5 * k
            assert g.edge_count == 5 * k * (3 * k - 1) // 2

    def test_efamily_member_shape(self):
        g = build_family(FamilySpec(FamilyKind.EFAMILY, sizes=(2, 2, 2, 2)))
        assert (g.vertex_count, g.edge_count) == (9, 20)

    def test_wheel_chromatic(self):
        wheel = join(complete_graph(1), cycle_graph(5))
        assert wheel.vertex_count == 6
        assert chromatic_number(wheel) == 4

    def test_constructor_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            FamilySpec(FamilyKind.DELTA, sizes=(2, 1, 1))

    def test_constructor_rejects_empty_part(self):
        for kind, sizes, message in (
                (FamilyKind.DELTA, (2, 0, 3), "Delta needs three positive sizes"),
                (FamilyKind.CATLIN, (0,), "Catlin needs one size k >= 1"),
                (FamilyKind.COMPLETE, (-1,), "Complete needs one size n >= 0")):
            with pytest.raises(ValueError) as exc:
                FamilySpec(kind, sizes)
            assert str(exc.value).startswith(message)

    def test_constructor_rejects_bad_efamily(self):
        for sizes, message in (
                # |A2| + |B2| must stay below r = |A1|+|A2|+1
                ((1, 3, 1, 3), "EFamily needs |A2|+|B2| <= r-1"),
                ((2, 2, 2), "EFamily needs four positive sizes"),
                ((2, 2, 1, 2), "EFamily needs |A1|+|A2| = |B1|+|B2|")):
            with pytest.raises(ValueError) as exc:
                FamilySpec(FamilyKind.EFAMILY, sizes)
            assert str(exc.value).startswith(message)

    def test_sizes_are_required(self):
        with pytest.raises(TypeError):
            FamilySpec(FamilyKind.COMPLETE)

    def test_kind_value_names_its_member(self):
        # the value string is coerced to the member, so its sizes are checked too
        for kind, sizes in ((FamilyKind.DELTA, (2, 1, 2)), (FamilyKind.EFAMILY, (1, 2, 2, 1)),
                            (FamilyKind.CATLIN, (2,)), (FamilyKind.COMPLETE, (4,))):
            spec = FamilySpec(kind.value, sizes)
            assert spec.kind is kind and spec == FamilySpec(kind, sizes)
            assert spec.r == FamilySpec(kind, sizes).r
            assert build_family(spec) == build_family(FamilySpec(kind, sizes))
        with pytest.raises(ValueError, match="Delta needs"):
            FamilySpec("Delta", (2, 1, 1))
        with pytest.raises(ValueError, match="'Bogus' is not a valid FamilyKind"):
            FamilySpec("Bogus", (1,))

    def test_table_matches_the_hand_written_builders(self):
        # the builders and the chi that one clique blow-up per table row replaced
        def delta_graph(a, b1, b2):
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

        def efamily_graph(a1, a2, b1, b2):
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

        def catlin_graph(k):
            groups = [range(i * k, (i + 1) * k) for i in range(5)]
            edges = []
            for i in range(5):
                edges.extend(itertools.combinations(groups[i], 2))
                edges.extend((u, v) for u in groups[i] for v in groups[(i + 1) % 5])
            return Graph(5 * k, edges)

        def chi(spec):
            if spec.kind is FamilyKind.DELTA:
                return spec.sizes[0] + 2
            if spec.kind is FamilyKind.EFAMILY:
                return spec.sizes[0] + spec.sizes[1] + 1
            if spec.kind is FamilyKind.CATLIN:
                return -(-5 * spec.sizes[0] // 2)
            return max(spec.sizes[0], 0)

        cases = [(spec, delta_graph(*spec.sizes)) for r in range(3, 13) for spec in delta_splits(r)]
        cases += [(spec, efamily_graph(*spec.sizes)) for r in range(3, 13)
                  for spec in efamily_splits(r)]
        cases += [(FamilySpec(FamilyKind.CATLIN, (k,)), catlin_graph(k)) for k in range(1, 9)]
        cases += [(FamilySpec(FamilyKind.COMPLETE, (n,)), complete_graph(n)) for n in range(13)]
        for spec, expected in cases:
            g = build_family(spec)
            assert (g.vertex_count, g.masks, spec.r) == (expected.vertex_count, expected.masks,
                                                         chi(spec)), spec

    @pytest.mark.parametrize("build, message", [
        (cycle_graph, "cycle needs n >= 3, got 2"),
        (delta_splits, "Delta family needs r >= 3, got 2"),
        (efamily_splits, "EFamily needs r >= 3, got 2"),
    ], ids=["cycle", "delta", "efamily"])
    def test_order_two_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build(2)


class TestChromatic:
    def test_complete(self):
        assert chromatic_number(complete_graph(5)) == 5

    def test_empty(self):
        assert chromatic_number(Graph(0, [])) == 0
        assert chromatic_number(Graph(4, [])) == 1

    def test_bipartite(self):
        g = Graph(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5)])
        assert chromatic_number(g) == 2

    @pytest.mark.parametrize("k,chi", [(1, 3), (2, 5), (3, 8), (4, 10), (5, 13), (6, 15),
                                       (7, 18), (8, 20)])
    def test_catlin(self, k, chi):
        g = build_family(FamilySpec(FamilyKind.CATLIN, sizes=(k,)))
        assert chromatic_number(g) == chi

    def test_delta_members_have_chromatic_r(self):
        for r in (4, 5, 6):
            for spec in delta_splits(r):
                assert chromatic_number(build_family(spec)) == r

    def test_matches_plain_backtracking(self):
        rng = random.Random(0xA5)
        for _ in range(50):
            g = _random_graph(rng, rng.randint(1, 10), rng.uniform(0.2, 0.8))
            assert chromatic_number(g) == _oracle_chromatic(g)


# r-critical graphs by name: (the members, r)
_CERTIFIED = {
    **{f"Delta{r}": ([build_family(spec) for spec in delta_splits(r)], r) for r in (4, 6, 8)},
    **{f"E{r}": ([build_family(spec) for spec in efamily_splits(r)], r) for r in (4, 5, 7)},
    **{f"M{k}": ([_mycielski_k(k)], k) for k in (4, 5)},
    **{f"Catlin{k}": ([build_family(FamilySpec(FamilyKind.CATLIN, sizes=(k,)))], -(-5 * k // 2))
       for k in (3, 5, 7)},
    # alpha >= 3, so colored by search rather than by a matching
    "C7": ([cycle_graph(7)], 3),
    "W7": ([join(complete_graph(1), cycle_graph(7))], 4),
}


class TestCriticality:
    def test_complete_graph_critical(self):
        assert is_critical(complete_graph(6), 6)

    def test_missing_edge_not_critical(self):
        assert not is_critical(complete_graph(6).without_edge(0, 1), 6)

    def test_odd_cycle(self):
        assert is_critical(cycle_graph(5), 3)
        assert not is_critical(cycle_graph(6), 3)

    def test_isolated_vertex_never_critical(self):
        g = Graph(5, list(itertools.combinations(range(4), 2)))  # K4 + K1
        assert not is_critical(g, 4)

    def test_efamily_members_critical(self):
        for r in (4, 5, 9):
            for spec in efamily_splits(r):
                assert is_critical(build_family(spec), r)

    def test_join_of_criticals(self):
        assert is_critical(join(complete_graph(3), cycle_graph(5)), 6)

    @pytest.mark.parametrize("r", [9, 10, 11, 12])
    def test_delta_members_critical_frontier(self, r):
        for spec in delta_splits(r):
            assert is_critical(build_family(spec), r)

    def test_mycielski_m5_critical(self):
        m5 = _mycielski(_mycielski(_mycielski(complete_graph(2))))
        assert (m5.vertex_count, m5.edge_count) == (23, 71)
        assert is_critical(m5, 5)

    def test_matches_edge_deletion_oracle(self):
        # each random graph and an edge-minimal subgraph with the same chi,
        # which is edge-critical and often has no isolated vertex; asked at
        # r = chi - 1, chi, chi + 1, since is_critical decides chi = r itself
        rng = random.Random(0xC7)
        cases = [(Graph(n), r) for n in (0, 1) for r in (0, 1)]
        for _ in range(40):
            g = _random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.8))
            chi = _oracle_chromatic(g)
            h = g
            for e in rng.sample(sorted(g.edges), len(g.edges)):
                if _oracle_chromatic(h.without_edge(*e)) == chi:
                    h = h.without_edge(*e)
            cases += [(x, r) for x in (g, h) for r in (chi - 1, chi, chi + 1)]
        critical = 0
        for x, r in cases:
            expected = _oracle_critical(x, r)
            assert is_critical(x, r) == expected, (x.edges, r)
            critical += expected
        assert critical > 10

    def test_independence_two_matches_oracles(self):
        # alpha(g) <= 2 takes the matching path (chi = n - nu(complement),
        # G/uv per edge); each graph and a subgraph with the same chi that no
        # edge deletion keeps at alpha <= 2, asked at chi - 1, chi, chi + 1
        rng = random.Random(0xD2)
        critical = 0
        for _ in range(60):
            g = _co_triangle_free(rng, rng.randint(1, 12))
            chi = _oracle_chromatic(g)
            h = g
            for e in rng.sample(sorted(g.edges), len(g.edges)):
                x = h.without_edge(*e)
                if not _ref_has_triangle(_complement_masks(x.masks)) and _oracle_chromatic(x) == chi:
                    h = x
            for x in (g, h):
                assert chromatic_number(x) == chi, x.edges
                for r in (chi - 1, chi, chi + 1):
                    expected = _oracle_critical(x, r)
                    assert is_critical(x, r) == expected, (x.edges, r)
                    critical += expected
        assert critical > 20

    @pytest.mark.parametrize("k", range(2, 8))
    def test_catlin_critical_iff_k_odd(self, k):
        g = build_family(FamilySpec(FamilyKind.CATLIN, sizes=(k,)))
        assert is_critical(g, -(-5 * k // 2)) == (k % 2 == 1)

    @pytest.mark.parametrize("name", list(_CERTIFIED))
    def test_edge_colorings_certify_each_edge_once(self, name):
        # one (r-1)-coloring of G-e per twin orbit, whether it came from the
        # contraction G/e (by a search or a matching) or a recoloring move,
        # and every edge in exactly one yielded orbit
        rng = random.Random(name)
        graphs, r = _CERTIFIED[name]
        for g in graphs:
            g = _relabel(g, rng)
            _check_orbit_certificate(g, r, _edge_colorings(g, r))

    def test_orbit_checker_rejects_a_non_twin_in_a_class(self, monkeypatch):
        # the program run with one twin class widened by a vertex that is no
        # twin of it: some claimed orbit then holds a non-twin pair
        g = _relabel(build_family(delta_splits(6)[1]), random.Random(0x7A))
        _check_orbit_certificate(g, 6, _edge_colorings(g, 6))
        real = graph_lab._twin_classes

        def widened(adj):
            cls = real(adj)
            x = next(v for v in range(1, len(adj)) if not cls[0] >> v & 1)
            merged = cls[0] | cls[x]
            return [merged if c & merged else c for c in cls]

        monkeypatch.setattr(graph_lab, "_twin_classes", widened)
        with pytest.raises(AssertionError):
            _check_orbit_certificate(g, 6, _edge_colorings(g, 6))

    def test_planted_twins_match_the_oracle(self):
        # clique and independent-set blow-ups of random graphs, odd cycles,
        # wheels and complete graphs, n <= 12, asked at chi - 1, chi, chi + 1
        # and again relabelled; each yielded certificate is checked too
        rng = random.Random(0x32)
        critical = twinned = 0
        for _ in range(200):
            g = _planted_twins(rng, 12)
            twinned += any(len(c) > 1 for c in _twin_sets(g))
            chi = _oracle_chromatic(g)
            for r in (chi - 1, chi, chi + 1):
                expected = _oracle_critical(g, r)
                assert is_critical(g, r) == expected, (g.edges, r)
                assert is_critical(_relabel(g, rng), r) == expected, (g.edges, r)
                if expected:
                    _check_orbit_certificate(g, r, _edge_colorings(g, r))
                critical += expected
        assert twinned > 180 and critical > 30


def _full_degree(g):
    """The vertices adjacent to all others, which Gallai's count calls
    simplicial."""
    return [v for v in range(g.vertex_count) if g.degree(v) == g.vertex_count - 1]


def _gallai_need(g, r):
    """Gallai: an r-critical graph with n < (5/3)r has at least
    ceil((3/2)((5/3)r - n)) = ceil((5r - 3n)/2) such vertices."""
    return -(-(5 * r - 3 * g.vertex_count) // 2)


class TestSimplicial:
    def test_complete(self):
        assert _full_degree(complete_graph(4)) == [0, 1, 2, 3]

    def test_cycle(self):
        assert _full_degree(cycle_graph(5)) == []

    def test_join_side(self):
        g = join(complete_graph(3), cycle_graph(5))
        assert _full_degree(g) == [0, 1, 2]


class TestGallaiSimplicial:
    def test_k7(self):
        g = complete_graph(7)
        assert is_critical(g, 7)
        assert len(_full_degree(g)) >= _gallai_need(g, 7) == 7

    def test_join_case(self):
        # 6-critical on 8 vertices: needs ceil((3/2)(10-8)) = 3 simplicial
        g = join(complete_graph(3), cycle_graph(5))
        assert is_critical(g, 6)
        assert len(_full_degree(g)) >= _gallai_need(g, 6) == 3

    def test_inapplicable_above_threshold(self):
        # at n >= (5/3)r the count asks for none, and this critical member has none
        g = build_family(delta_splits(6)[0])  # 11 vertices, (5/3)*6 = 10
        assert is_critical(g, 6)
        assert _gallai_need(g, 6) <= 0 and _full_degree(g) == []

    def test_inapplicable_efamily(self):
        g = build_family(efamily_splits(5)[0])  # 9 >= 25/3
        assert is_critical(g, 5)
        assert _gallai_need(g, 5) <= 0 and _full_degree(g) == []


def _complement_summary(g):
    """(maximum matching size, has a triangle) of g's complement, by the
    kernels chromatic_number reads for independence number <= 2."""
    comp = _complement_masks(g.masks)
    return (len(comp) - _max_matching(comp).count(-1)) // 2, _has_triangle(comp)


class TestComplementAnalysis:
    def test_three_stars(self):
        stars = Graph(12, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7),
                           (8, 9), (8, 10), (8, 11)])
        assert _complement_summary(stars.complement()) == (3, False)

    def test_complete(self):
        assert _complement_summary(complete_graph(6)) == (0, False)

    def test_five_cycle_self_complementary(self):
        assert _complement_summary(cycle_graph(5)) == (2, False)

    def test_triangle_detection(self):
        assert _complement_summary(Graph(3, [])) == (1, True)  # complement is K3

    def test_matching_agrees_with_networkx(self):
        rng = random.Random(7)
        graphs = [_random_graph(rng, rng.randint(1, 12), rng.uniform(0.2, 0.9))
                  for _ in range(25)]
        rng = random.Random(0xB1)
        graphs += [_random_graph(rng, rng.randint(1, 16), rng.uniform(0.2, 0.95))
                   for _ in range(400)]
        # complements whose maximum matchings need blossom contraction
        two_triangles = Graph(8, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5),
                                  (5, 6), (6, 7), (5, 7)])
        # found by a random search: one of its blossoms has to be marked from
        # both ends of the edge that closes it
        both_sides = Graph(12, [(0, 5), (0, 8), (0, 11), (2, 3), (2, 4), (2, 7), (2, 8),
                                (3, 7), (3, 9), (4, 6), (5, 6), (5, 9)])
        graphs += [h.complement() for h in (cycle_graph(5), cycle_graph(7), _petersen(),
                                            two_triangles, both_sides)]
        for g in graphs:
            comp = g.complement()
            mate = _max_matching(_complement_masks(g.masks))
            # the mates pair up along edges of the complement
            for v, w in enumerate(mate):
                assert w == -1 or (mate[w] == v and comp.has_edge(v, w)), (g.edges, v)
            h = nx.Graph()
            h.add_nodes_from(range(comp.vertex_count))
            h.add_edges_from(tuple(e) for e in comp.edges)
            expected = len(nx.max_weight_matching(h, maxcardinality=True))
            assert (len(mate) - mate.count(-1)) // 2 == expected


CATLIN_TK_CHI = """
from albertson import FamilyKind, FamilySpec, build_family, find_topological_clique
for k in range(4, 9):
    g = build_family(FamilySpec(FamilyKind.CATLIN, (k,)))
    print(k, find_topological_clique(g, -(-5 * k // 2), max_n=5 * k))
"""


class TestTopologicalClique:
    def test_cycle_contains_k3(self):
        assert contains_topological_clique(cycle_graph(4), 3)

    def test_path_has_none(self):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert not contains_topological_clique(p4, 3)

    def test_subdivided_k5(self):
        g = Graph(6, [e for e in itertools.combinations(range(5), 2)
                      if e != (0, 1)] + [(0, 5), (1, 5)])
        assert contains_topological_clique(g, 5)

    def test_petersen(self):
        g = _petersen()
        assert contains_topological_clique(g, 4)
        # every branch vertex needs degree >= 4, but Petersen is 3-regular
        assert not contains_topological_clique(g, 5)

    def test_delta_members_contain_topological_kr(self):
        for r in range(4, 11):
            for spec in delta_splits(r):
                w = find_topological_clique(build_family(spec), r)
                assert w is not None and w.verify(build_family(spec))

    def test_efamily_members_contain_topological_kr(self):
        for r in range(4, 10):
            for spec in efamily_splits(r):
                w = find_topological_clique(build_family(spec), r)
                assert w is not None and w.verify(build_family(spec))

    def test_witness_shape(self):
        w = find_topological_clique(cycle_graph(4), 3)
        assert w.t == 3
        assert len(w.branch_vertices) == 3
        assert len(w.paths) == 3

    def test_witness_verify_rejects_other_graph(self):
        w = find_topological_clique(cycle_graph(4), 3)
        assert not w.verify(Graph(4, [(0, 1), (1, 2), (2, 3)]))

    @pytest.mark.parametrize("spec, pair, path", [
        pytest.param(delta_splits(5)[0], (7, 8), (7, -1, 4, 8), id="vertex -1"),
        pytest.param(delta_splits(5)[0], (7, 8), (7, 9, 4, 8), id="vertex n"),
        # the Delta5 witness has one path with internal vertices, so sharing
        # with valid edges needs the four open paths of this E5 witness
        pytest.param(efamily_splits(5)[1], (3, 8), (3, 0, 8), id="shared internal"),
        pytest.param(delta_splits(5)[0], (0, 1), (0, 2, 1), id="internal branch"),
        # 7 and 8 are not adjacent, so the bare path is no edge of the graph
        pytest.param(delta_splits(5)[0], (7, 8), (7, 8), id="bare path"),
    ])
    def test_witness_verify_rejects_tampered_paths(self, spec, pair, path):
        g = build_family(spec)
        w = find_topological_clique(g, spec.r)
        assert w.verify(g) and pair in dict(w.paths)
        paths = tuple((p, path if p == pair else old) for p, old in w.paths)
        bad = w._replace(paths=paths)
        assert not bad.verify(g) and not _ref_verify(bad, g)

    @pytest.mark.parametrize("v", [-1, 4], ids=["vertex -1", "vertex n"])
    def test_witness_verify_rejects_branch_vertex_out_of_range(self, v):
        # a TK_1 has no paths, so only the range check sees its branch vertex
        assert not SubdivisionWitness(t=1, branch_vertices=(v,), paths=()).verify(cycle_graph(4))

    def test_presence_needs_a_verified_witness(self, monkeypatch):
        g = cycle_graph(4)
        monkeypatch.setattr(SubdivisionWitness, "verify", lambda self, graph: False)
        assert find_topological_clique(g, 3) is not None
        assert not contains_topological_clique(g, 3)

    def test_trivial_sizes(self):
        assert contains_topological_clique(Graph(1, []), 1)
        assert not contains_topological_clique(Graph(0, []), 1)
        assert contains_topological_clique(complete_graph(2), 2)
        for g in (Graph(0, []), cycle_graph(5)):
            w = find_topological_clique(g, 0)
            assert w == SubdivisionWitness(t=0, branch_vertices=(), paths=()) and w.verify(g)
        with pytest.raises(ValueError, match="t must be >= 0, got -1"):
            find_topological_clique(cycle_graph(5), -1)

    def test_agrees_with_unpruned_search(self):
        rng = random.Random(0x5D)
        for _ in range(300):
            n = rng.randint(1, 9)
            g = _random_graph(rng, n, rng.uniform(0.2, 0.9))
            t = rng.randint(1, 6)
            w = find_topological_clique(g, t)
            assert (w is not None) == _oracle_topological(g, t)
            assert w is None or w.verify(g)

    def test_catlin3_has_no_topological_k8(self):
        # chi(Catlin(3)) = 8, so this refutes Hajos' conjecture (Catlin 1979)
        assert find_topological_clique(build_family(FamilySpec(FamilyKind.CATLIN, (3,))), 8) is None

    @pytest.mark.parametrize("t", [4, 5])
    @pytest.mark.parametrize("longer", [0, 1])
    def test_subdivided_complete_graph_fills_the_private_count(self, t, longer):
        # only the t original vertices have degree t-1, every pair of them is
        # open, and a pair on a longer path shares no neighbor and counts two:
        # the private-vertex count is exactly n - t, the most it may be
        g = _subdivided_complete(t, longer)
        assert g.vertex_count - t == t * (t - 1) // 2 + longer
        w = find_topological_clique(g, t)
        assert w is not None and w.verify(g)
        assert w.branch_vertices == tuple(range(t))

    def test_catlin4_has_no_topological_k10(self):
        # chi(Catlin(4)) = 10; its five 4-cliques are twin classes, each taken as a prefix
        assert find_topological_clique(build_family(FamilySpec(FamilyKind.CATLIN, (4,))), 10) is None

    def test_catlin_tk_chi_is_refuted(self, child_env):
        # chi(Catlin(k)) = ceil(5k/2) with no topological K_chi (Catlin 1979); each of
        # the five k-cliques is a twin class, and a search that tries every order of
        # each class takes seconds at k = 6 and minutes at k = 8; a child process
        # lets the timeout stop it
        proc = subprocess.run([sys.executable, "-c", CATLIN_TK_CHI], env=child_env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [f"{k} None" for k in range(4, 9)]

    def test_catlin2_has_topological_k5(self):
        g = build_family(FamilySpec(FamilyKind.CATLIN, (2,)))
        w = find_topological_clique(g, 5)
        assert w is not None and w.verify(g)

    @pytest.mark.parametrize("t", [5, 6])
    def test_icosahedron_has_none(self, t):
        g = _icosahedron()
        assert g.edge_count == 30 and all(g.degree(v) == 5 for v in range(12))
        # planar, so no topological K5 (Kuratowski) and hence no K6 either
        assert nx.check_planarity(nx.Graph(list(g.edges)))[0]
        assert find_topological_clique(g, t) is None

    @pytest.mark.parametrize("spec, t, exists", [
        pytest.param(delta_splits(8)[3], 8, True, id="Delta8"),
        pytest.param(efamily_splits(8)[len(efamily_splits(8)) // 2], 8, True, id="E8"),
        pytest.param(FamilySpec(FamilyKind.CATLIN, (3,)), 8, False, id="Catlin3"),
    ])
    def test_answer_does_not_depend_on_labelling(self, spec, t, exists):
        rng = random.Random(0x7E)
        for _ in range(5):
            g = _relabel(build_family(spec), rng)
            w = find_topological_clique(g, t)
            assert (w is not None) == exists
            assert w is None or w.verify(g)

    def test_clique_witness_implies_chromatic(self):
        rng = random.Random(0x1F)
        checked = 0
        for _ in range(40):
            g = _random_graph(rng, rng.randint(4, 8), rng.uniform(0.5, 0.9))
            for t in (3, 4):
                w = find_topological_clique(g, t)
                if w and all(len(path) == 2 for _, path in w.paths):
                    # all paths are direct edges: a genuine K_t subgraph
                    assert _max_clique_size(g) >= t
                    assert chromatic_number(g) >= t
                    checked += 1
        assert checked > 10


def _gallai_equality_joins(r, p):
    """The joins of K_{r-p-1} with each Delta(p+1) member, which meet Gallai's
    edge count with equality: 2m = (r-1)n + p(r-p) - 2."""
    return [join(complete_graph(r - p - 1), build_family(spec)) for spec in delta_splits(p + 1)]


class TestGallaiEquality:
    def test_all_small_r(self):
        for r in range(4, 9):
            for p in range(2, r):
                for g in _gallai_equality_joins(r, p):
                    assert g.vertex_count == r + p
                    assert 2 * g.edge_count == (r - 1) * g.vertex_count + p * (r - p) - 2, (r, p)

    def test_degenerate_join_with_k0(self):
        # r = 4, p = 3 joins K_0, which leaves each Delta(4) member as it is
        assert _gallai_equality_joins(4, 3) == [build_family(spec) for spec in delta_splits(4)]

    def test_rejects_bad_p(self):
        # the family is empty outside 2 <= p <= r-1: p = 1 asks for Delta(2),
        # p = r for K_{-1}
        with pytest.raises(ValueError):
            delta_splits(2)
        with pytest.raises(ValueError):
            complete_graph(-1)


LARGE_ROUND_TRIPS = """
import itertools, random
from albertson import Graph, cycle_graph, parse_graph6, serialize_graph6
rng = random.Random(0x300)
for g in (cycle_graph(2000),
          Graph(300, [e for e in itertools.combinations(range(300), 2) if rng.random() < 0.5])):
    assert parse_graph6(serialize_graph6(g)) == g
    print(g.vertex_count)
"""


def _ref_serialize_graph6(g):
    """graph6 one vertex pair at a time, in the format's bit order: columns
    v = 1..n-1, rows u < v."""
    n = g.vertex_count
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    bits = "".join("01"[g.masks[v] >> u & 1] for v in range(1, n) for u in range(v))
    bits += "0" * (-len(bits) % 6)
    return head + "".join(chr(int(bits[i:i + 6], 2) + 63) for i in range(0, len(bits), 6))


class TestGraph6:
    def test_single_edge(self):
        assert serialize_graph6(complete_graph(2)) == "A_"
        assert parse_graph6("A_") == complete_graph(2)

    def test_catlin_round_trip(self):
        g = build_family(FamilySpec(FamilyKind.CATLIN, sizes=(2,)))
        assert parse_graph6(serialize_graph6(g)) == g

    def test_thousand_random_round_trips(self):
        rng = random.Random(0x66)
        for _ in range(1000):
            g = _random_graph(rng, rng.randint(0, 30), rng.random())
            assert parse_graph6(serialize_graph6(g)) == g

    def test_matches_networkx_bytes(self):
        rng = random.Random(0x99)
        # 100 graphs with n <= 40, then n = 63..130, which take the "~" header
        for n in itertools.chain((rng.randint(1, 40) for _ in range(100)), range(63, 131)):
            g = _random_graph(rng, n, rng.random())
            h = nx.Graph()
            h.add_nodes_from(range(g.vertex_count))
            h.add_edges_from(tuple(e) for e in g.edges)
            expected = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert serialize_graph6(g) == expected
            assert parse_graph6(expected) == g

    def test_matches_the_pair_order_encoder(self):
        # n >= 63 takes the four-byte "~" header
        rng = random.Random(0x6B)
        graphs = [_random_graph(rng, rng.randint(0, 70), rng.random()) for _ in range(300)]
        for g in graphs + [cycle_graph(1001), complete_graph(1001)]:
            assert serialize_graph6(g) == _ref_serialize_graph6(g), g

    def test_large_round_trips_are_fast(self, child_env):
        # a codec quadratic in the adjacency bits needs far more than 30 s for the
        # 2000-cycle; a child process lets the timeout stop it
        proc = subprocess.run([sys.executable, "-c", LARGE_ROUND_TRIPS], env=child_env,
                              capture_output=True, text=True, timeout=30)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["2000", "300"]

    def test_extended_header_round_trip(self):
        g = Graph(63, [(0, 62), (30, 31)])
        s = serialize_graph6(g)
        assert s.startswith("~")
        assert parse_graph6(s) == g

    def test_optional_prefix(self):
        assert parse_graph6(">>graph6<<A_") == complete_graph(2)

    def test_strips_newline(self):
        assert parse_graph6("A_\n") == complete_graph(2)

    @pytest.mark.parametrize("text,offset", [
        ("", 0),
        ("A", 1),          # missing adjacency byte
        ("BC", 1),         # nonzero padding bit
        (">>graph6<<D?@", 12),  # nonzero padding bit in the last of two bytes
        ("D" + chr(200) + "@", 1),  # a bad byte is reported before the padding
        ("A" + chr(200), 1),
        ("A_B", 2),        # trailing data
        ("~~???", 1),      # >= 2^18 vertices unsupported
        ("~??", 3),        # truncated extended vertex count
    ])
    def test_errors_carry_offsets(self, text, offset):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(text)
        assert exc.value.offset == offset
        assert f"byte offset {offset}" in str(exc.value)

    def test_error_is_value_error(self):
        with pytest.raises(ValueError):
            parse_graph6("")

    def test_serialize_rejects_huge(self):
        with pytest.raises(ValueError):
            serialize_graph6(Graph(2**18, []))

    @given(st.integers(0, 70), st.integers(0, 10**6))
    @example(62, 0)
    @example(63, 0)
    @example(70, 1)
    def test_round_trip_property(self, n, seed):
        # n >= 63 takes the four-byte "~" header; the parser builds the masks
        # itself, so compare them with those Graph builds from the edges
        h = _random_graph(random.Random(seed), n)
        g = parse_graph6(serialize_graph6(h))
        assert (g.vertex_count, g.masks) == (n, h.masks) and type(g.masks) is tuple
        assert g._chi is None


class TestBudgets:
    def test_chromatic_budget(self):
        with pytest.raises(BudgetExceededError, match=r"^chromatic_number budget is n <= 40, "
                           r"got n=41; raise it via max_n or --budget coloring=<N>$"):
            chromatic_number(Graph(41, []))

    def test_chromatic_override(self):
        assert chromatic_number(Graph(41, []), max_n=50) == 1

    def test_subdivision_budget(self):
        with pytest.raises(BudgetExceededError, match=r"^subdivision budget is n <= 20, got "
                           r"n=21; raise it via max_n or --budget subdivision=<N>$"):
            contains_topological_clique(Graph(21, []), 3)

    def test_subdivision_override(self):
        assert not contains_topological_clique(Graph(21, []), 3, max_n=25)

    @pytest.mark.parametrize("search", [
        lambda g: chromatic_number(g, max_n=g.vertex_count),
        lambda g: is_critical(g, 3, max_n=g.vertex_count),
        lambda g: find_topological_clique(g, 3, max_n=g.vertex_count),
    ], ids=["chromatic_number", "is_critical", "find_topological_clique"])
    def test_search_deeper_than_recursion_limit(self, search):
        # DSATUR colors a cycle one forced vertex per level, and the TK3
        # search routes its long path one vertex per level
        limit = sys.getrecursionlimit()
        with pytest.raises(BudgetExceededError, match=f"recursion limit {limit}"):
            search(cycle_graph(limit + 1))

    @pytest.mark.parametrize("search", [
        lambda g, max_n: chromatic_number(g, max_n=max_n),
        lambda g, max_n: is_critical(g, 3, max_n=max_n),
        lambda g, max_n: find_topological_clique(g, 3, max_n=max_n),
    ], ids=["chromatic_number", "is_critical", "find_topological_clique"])
    def test_negative_max_n_is_rejected(self, search):
        # as a negative --budget value is, and before the graph is compared
        # with it
        with pytest.raises(ValueError, match=r"^budget must be >= 0, got max_n=-1$"):
            search(Graph(0), -1)
        search(Graph(0), 0)

    @pytest.mark.parametrize("search", [
        lambda g: chromatic_number(g),
        lambda g: is_critical(g, 5),
    ], ids=["chromatic_number", "is_critical"])
    def test_recursion_error_in_the_matching_is_a_budget_error(self, monkeypatch, search):
        # Delta5 has alpha = 2, so both searches take the complement
        # matching, which recurses nowhere; a recursion limit reached there
        # all the same (a caller close to it) stops the search like any other
        def deep(adj):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr("albertson.graph_lab._max_matching", deep)
        limit = sys.getrecursionlimit()
        with pytest.raises(BudgetExceededError,
                           match=f"^coloring search exceeds the recursion limit {limit}$"):
            search(build_family(delta_splits(5)[1]))

    @pytest.mark.parametrize("k, search, entries", [
        (4, lambda g: is_critical(g, 4), 1),
        (5, lambda g: is_critical(g, 5), 1),
        (4, lambda g: is_critical(g, 3), 1),
        (4, lambda g: chromatic_number(g), 1),
        (4, lambda g: find_topological_clique(g, 5), 1),
        (4, lambda g: contains_topological_clique(g, 4), 1),
        (None, lambda g: is_critical(g, 5), 1),
        (None, lambda g: chromatic_number(g), 1),
        (None, lambda g: is_critical(Graph(g.vertex_count + 1, g.edges), 5), 0),
    ], ids=["M4 critical", "M5 critical", "M4 critical(3)", "M4 chi", "M4 TK5", "M4 TK4",
            "Delta5 critical", "Delta5 chi", "isolated vertex"])
    def test_each_search_enters_the_guard_once(self, monkeypatch, k, search, entries):
        # the budget check and the recursion stop are made once per public
        # call, however many colorings a criticality check runs below them;
        # an isolated vertex answers before any search.  The graph is the
        # Mycielski graph M_k, or Delta5 when k is None
        g = build_family(delta_splits(5)[1]) if k is None else _mycielski_k(k)
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return _run_search(*args)

        monkeypatch.setattr("albertson.graph_lab._run_search", counted)
        search(g)
        assert calls == entries

    def test_environment_changes_nothing(self, monkeypatch, capsys):
        # the budgets come from the arguments alone, so no variable of the
        # caller's environment can lower, raise or break them
        def answers():
            code = cli.run(["families", "--kind", "Delta", "--r", "5"])
            return (chromatic_number(Graph(11)), contains_topological_clique(Graph(6), 3),
                    is_critical(cycle_graph(7), 3), code, capsys.readouterr())

        monkeypatch.delenv("ALBERTSON_BUDGET", raising=False)
        expected = answers()
        assert expected[:4] == (1, False, True, 0)
        for spec in ("coloring=5,subdivision=5", "lots"):
            monkeypatch.setenv("ALBERTSON_BUDGET", spec)
            assert answers() == expected, spec


@functools.cache
def _seeded_oracle_cases():
    """(graph, chi, {r: the edge-deletion oracle's answer} for r = chi - 1,
    chi, chi + 1) for the graphs that test_matches_edge_deletion_oracle and
    test_independence_two_matches_oracles draw, from the same seeds: each
    random graph and a subgraph with the same chi that no edge deletion
    keeps there (and, for the second, at alpha <= 2)."""
    graphs = [Graph(n) for n in (0, 1)]
    rng = random.Random(0xC7)
    for _ in range(40):
        g = _random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.8))
        chi = _oracle_chromatic(g)
        h = g
        for e in rng.sample(sorted(g.edges), len(g.edges)):
            if _oracle_chromatic(h.without_edge(*e)) == chi:
                h = h.without_edge(*e)
        graphs += [g, h]
    rng = random.Random(0xD2)
    for _ in range(60):
        g = _co_triangle_free(rng, rng.randint(1, 12))
        chi = _oracle_chromatic(g)
        h = g
        for e in rng.sample(sorted(g.edges), len(g.edges)):
            x = h.without_edge(*e)
            if not _ref_has_triangle(_complement_masks(x.masks)) and _oracle_chromatic(x) == chi:
                h = x
        graphs += [g, h]
    cases = []
    for g in graphs:
        chi = _oracle_chromatic(g)
        cases.append((g, chi, {r: _oracle_critical(g, r) for r in (chi - 1, chi, chi + 1)}))
    return cases


def _known_critical_cases():
    """(graph, chi, {r: criticality}) for graphs whose answer is known by
    construction, too large for the brute-force oracle: relabelled Delta_r
    and E_r members (r-critical) for r = 4..9, M4 (4-critical) and
    Catlin(k) for k = 2..5 (chi = ceil(5k/2), critical iff k is odd)."""
    rng = random.Random(0x21)
    cases = [(build_family(spec), r, True) for r in range(4, 10)
             for spec in delta_splits(r) + efamily_splits(r)]
    cases.append((_mycielski_k(4), 4, True))
    cases += [(build_family(FamilySpec(FamilyKind.CATLIN, sizes=(k,))), -(-5 * k // 2), k % 2 == 1)
              for k in range(2, 6)]
    return [(_relabel(g, rng), chi, {chi - 1: False, chi: critical, chi + 1: False})
            for g, chi, critical in cases]


class TestRecordedChi:
    """chromatic_number records the chi it proved on the Graph, and
    criticality reads it in place of refuting (r-1)-colorability: the same
    answers and colorings as on a fresh copy, one refutation fewer, no
    visible state, no budget skipped and nothing recorded by a search that
    did not finish."""

    @staticmethod
    def _cases():
        return _seeded_oracle_cases() + _known_critical_cases()

    def test_is_critical_matches_a_fresh_copy_and_the_oracles(self):
        critical = 0
        for g, chi, answers in self._cases():
            g = Graph(g.vertex_count, g.edges)  # the cached cases stay unrecorded
            fresh = Graph(g.vertex_count, g.edges)
            assert chromatic_number(g) == chi and g._chi[0] == chi, g.edges
            for r, expected in answers.items():
                assert is_critical(g, r) == is_critical(fresh, r) == expected, (g.edges, r)
                critical += expected
            assert fresh._chi is None  # is_critical records nothing
        assert critical > 100

    def test_edge_colorings_match_a_fresh_copy(self):
        for g, chi, _ in self._cases():
            g = Graph(g.vertex_count, g.edges)
            fresh = Graph(g.vertex_count, g.edges)
            chromatic_number(g)
            for r in (chi - 1, chi, chi + 1):
                # copies, so that a later change to a yielded list cannot hide here
                got = [(e, colors[:], size) for e, colors, size in _edge_colorings(g, r)]
                assert got == [(e, colors[:], size) for e, colors, size in _edge_colorings(fresh, r)], \
                    (g.edges, r)

    @pytest.mark.parametrize("name, r, kernel", [("Delta8", 8, _max_matching),
                                                 ("M4", 4, _k_coloring)], ids=["Delta8", "M4"])
    def test_refutation_is_not_repeated(self, monkeypatch, name, r, kernel):
        # Delta8 (alpha = 2) refutes by the complement matching, M4
        # (alpha = 5) by the DSATUR search; a recorded chi spares one call
        g = build_family(delta_splits(8)[2]) if name == "Delta8" else _mycielski_k(4)
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        monkeypatch.setattr(f"albertson.graph_lab.{kernel.__name__}", counted)
        assert is_critical(g, r)
        fresh_calls = calls
        assert chromatic_number(g) == r
        calls = 0
        assert is_critical(g, r)
        assert calls == fresh_calls - 1 >= 1

    @pytest.mark.parametrize("name, r, kernel", [("Delta8", 8, _max_matching),
                                                 ("M4", 4, _k_coloring)], ids=["Delta8", "M4"])
    def test_other_recorded_chi_calls_no_oracle(self, monkeypatch, name, r, kernel):
        # a recorded chi other than r answers at once, below r and above it
        g = build_family(delta_splits(8)[2]) if name == "Delta8" else _mycielski_k(4)
        assert chromatic_number(g) == r
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            return kernel(*args)

        monkeypatch.setattr(f"albertson.graph_lab.{kernel.__name__}", counted)
        for other in (r - 1, r + 1):
            assert list(_edge_colorings(g, other)) == []
            assert not is_critical(g, other)
        assert calls == 0

    @pytest.mark.parametrize("name, r", [("Delta8", 8), ("M4", 4)], ids=["Delta8", "M4"])
    def test_alpha_is_decided_once(self, monkeypatch, name, r):
        # Delta8 takes the matching oracle, M4 DSATUR; chromatic_number
        # records the oracle with chi, so criticality tests no triangle
        g = build_family(delta_splits(8)[2]) if name == "Delta8" else _mycielski_k(4)
        fresh = Graph(g.vertex_count, g.edges)
        calls = 0

        def counted(adj):
            nonlocal calls
            calls += 1
            return _has_triangle(adj)

        monkeypatch.setattr("albertson.graph_lab._has_triangle", counted)
        assert chromatic_number(g) == r and is_critical(g, r)
        assert calls == 1
        calls = 0
        assert is_critical(fresh, r)
        assert calls == 1

    def test_record_is_invisible(self):
        g = complete_graph(4).without_edge(1, 3)
        plain = Graph(g.vertex_count, g.edges)
        assert chromatic_number(g) == 3 and g._chi[0] == 3 and plain._chi is None
        assert g == plain and hash(g) == hash(plain) and repr(g) == repr(plain)
        assert g._fields == ("vertex_count", "masks")
        assert pickle.dumps(g) == pickle.dumps(plain)
        for copier in (lambda h: pickle.loads(pickle.dumps(h)), copy.copy, copy.deepcopy):
            got = copier(g)
            assert got == g and hash(got) == hash(g) and got._chi is None
        with pytest.raises(AttributeError):
            g._chi = 1
        with pytest.raises(AttributeError):
            del g._chi
        assert g._chi[0] == 3 and not hasattr(g, "__dict__")

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_budget_still_applies(self, r):
        # C41 is 3-critical with n = 41, one over the default coloring budget
        g = cycle_graph(41)
        assert chromatic_number(g, max_n=50) == 3
        with pytest.raises(BudgetExceededError):
            is_critical(g, r)
        assert is_critical(g, r, max_n=50) == (r == 3)

    def test_unfinished_search_records_nothing(self):
        # DSATUR colors a cycle one forced vertex per level, so a cycle
        # longer than the recursion limit stops the search before chi is
        # known; its greedy clique (2) is not chi (3)
        g = cycle_graph(sys.getrecursionlimit() + 1)
        n = g.vertex_count
        for search in (lambda: chromatic_number(g), lambda: chromatic_number(g, max_n=n)):
            with pytest.raises(BudgetExceededError):
                search()
            assert g._chi is None
        with pytest.raises(BudgetExceededError, match="recursion limit"):
            is_critical(g, 3, max_n=n)


# Reference kernels: graph_lab's _cliques, _k_coloring, _has_triangle,
# _max_matching and _edge_colorings as they were before they walked set bits
# inline, before the moves were read off per-vertex open-edge masks and
# before a root was matched straight to a free neighbor, copied statement
# for statement; only docstrings, comments and type hints are left out and a
# _ref prefix marks the names they define and call.  The guard calls alone
# follow graph_lab: _ref_k_coloring calls solve directly, as _k_coloring
# does, since the one guard sits at each public search.  The fast kernels
# must return, and yield, exactly what these do.


def _ref_bits(mask: int):
    """Indexes of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _ref_cliques(adj):
    found = set()
    for seed, cand in enumerate(adj):
        clique = 1 << seed
        while cand:
            v = max(_ref_bits(cand), key=lambda u: ((adj[u] & cand).bit_count(), -u))
            clique |= 1 << v
            cand &= adj[v]
        found.add(clique)
    return sorted(found, key=lambda c: (-c.bit_count(), c))


def _ref_k_coloring(adj, k, cliques):
    n = len(adj)
    if cliques[0].bit_count() > k:
        return None
    degree = [a.bit_count() for a in adj]

    def assign(colors, uncolored, v, c):
        bit = colors[v] = 1 << c
        shrunk = 0
        for u in _ref_bits(adj[v] & uncolored):
            if colors[u] & bit:
                colors[u] ^= bit
                if not colors[u]:
                    return False
                shrunk |= 1 << u
        for clique in cliques:
            if clique & shrunk:
                left = clique & uncolored
                union = 0
                for w in _ref_bits(left):
                    union |= colors[w]
                if union.bit_count() < left.bit_count():
                    return False
        return True

    def solve(colors, uncolored, used):
        if not uncolored:
            return [bit.bit_length() - 1 for bit in colors]
        v = min(_ref_bits(uncolored), key=lambda u: (colors[u].bit_count(), -degree[u], u))
        uncolored ^= 1 << v
        for c in _ref_bits(colors[v] & ((2 << used) - 1)):
            child = colors[:]
            if assign(child, uncolored, v, c):
                found = solve(child, uncolored, max(used, c + 1))
                if found is not None:
                    return found
        return None

    colors = [(1 << k) - 1] * n
    uncolored = (1 << n) - 1
    root = cliques[0]
    for c, v in enumerate(_ref_bits(root)):
        uncolored ^= 1 << v
        if not assign(colors, uncolored, v, c):
            return None
    return solve(colors, uncolored, root.bit_count())


def _ref_has_triangle(adj):
    return any(adj[u] & adj[v] for u in range(len(adj)) for v in _ref_bits(adj[u]))


def _ref_max_matching(adj):
    n = len(adj)
    match = [-1] * n

    def augment(root):
        base = list(range(n))
        parent = [-1] * n
        outer = 1 << root
        queue = [root]

        def lowest_common_base(a, b):
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

        def mark(v, top, child):
            bases = 0
            while base[v] != top:
                bases |= 1 << base[v] | 1 << base[match[v]]
                parent[v] = child
                child = match[v]
                v = parent[child]
            return bases

        for v in queue:
            for to in _ref_bits(adj[v]):
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
            augment(v)
    return match


def _ref_edge_colorings(g, r):
    adj, k = g.masks, r - 1
    if _ref_has_triangle(_complement_masks(adj)):
        def oracle(masks):
            return _ref_k_coloring(masks, k, _ref_cliques(masks))
    else:
        def oracle(masks):
            colors = _classes(_ref_max_matching(_complement_masks(masks)))
            return colors if max(colors) < k else None
    if oracle(adj) is not None:
        return

    def color(u, v):
        uv, low = 1 << u | 1 << v, (1 << v) - 1
        merged = [mask & ~uv | (mask & uv != 0) << u for mask in adj]
        merged[u] = (adj[u] | adj[v]) & ~uv
        colors = oracle([mask & low | mask >> 1 & ~low
                         for x, mask in enumerate(merged) if x != v])
        if colors is not None:
            colors.insert(v, colors[u])
        return colors

    open_edges = set(g.edges)
    for edge in sorted(open_edges):
        if edge not in open_edges:
            continue
        colors = color(*edge)
        if colors is None:
            return
        open_edges.discard(edge)
        stack = [(edge, colors)]
        while stack:
            edge, colors = stack.pop()
            yield edge, colors
            classes = [0] * k
            for x, c in enumerate(colors):
                classes[c] |= 1 << x
            for z in edge:
                for beta, members in enumerate(classes):
                    hit = adj[z] & members
                    if hit & (hit - 1) == 0:
                        x = hit.bit_length() - 1
                        moved = (z, x) if z < x else (x, z)
                        if moved in open_edges:
                            open_edges.discard(moved)
                            recolored = colors[:]
                            recolored[z] = beta
                            stack.append((moved, recolored))


def _coloring_and_nodes(k_coloring, adj, k, cliques):
    """k_coloring's answer and the number of search nodes (calls of its
    nested solve) it took, counted by a call-only trace."""
    nodes = 0

    def trace(frame, event, arg):
        nonlocal nodes
        nodes += frame.f_code.co_name == "solve"

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        colors = k_coloring(adj, k, cliques)
    finally:
        sys.settrace(previous)
    return colors, nodes


def _assert_kernels_match(g, ks, rs):
    adj = g.masks
    comp = _complement_masks(adj)
    cliques = _ref_cliques(adj)
    assert _cliques(adj) == cliques, adj
    for masks in (adj, comp):
        assert _has_triangle(masks) == _ref_has_triangle(masks), masks
        assert _max_matching(masks) == _ref_max_matching(masks), masks
    for k in ks:
        assert (_coloring_and_nodes(_k_coloring, adj, k, cliques)
                == _coloring_and_nodes(_ref_k_coloring, adj, k, cliques)), (adj, k)
    twins = _twin_sets(g)
    for r in rs:
        # copies, so that a later change to a yielded list cannot hide here
        fast = [(e, colors[:], size) for e, colors, size in _edge_colorings(g, r)]
        ref = [(e, colors[:]) for e, colors in _ref_edge_colorings(g, r)]
        if all(len(c) == 1 for c in twins):
            assert fast == [(e, colors, 1) for e, colors in ref], (adj, r)
        else:
            # twin orbits close whole, so the colorings differ; but both stop
            # at the least edge whose G-e is not (r-1)-colorable, having
            # covered every edge below it, or cover every edge: the same
            # answer and the same least uncovered edge
            covered = set().union(*(_twin_orbit(twins, *e) for e, _, _ in fast))
            assert sum(size for _, _, size in fast) == len(covered)
            assert (min(g.edges - covered, default=None)
                    == min(g.edges - {e for e, _ in ref}, default=None)), (adj, r)
    return all(len(c) == 1 for c in twins)


class TestKernelIdentity:
    """The inline bit walks change no answer and no search: same cliques,
    colorings and node counts, mates, triangle answers, and on twin-free
    graphs the same (edge, coloring) sequence from _edge_colorings, each
    edge its own orbit.  On graphs with twins _edge_colorings closes whole
    twin orbits, so there it must give the same answer and cover the
    orbits of the edges the reference reaches."""

    def test_random_graphs(self):
        rng = random.Random(0x1D)
        alpha_two = twin_free = 0
        for _ in range(1000):
            g = _random_graph(rng, rng.randint(1, 13), rng.random())
            alpha_two += not _has_triangle(_complement_masks(g.masks))
            twin_free += _assert_kernels_match(g, range(1, 7), range(1, 7))
        assert 100 < alpha_two < 900 and 300 < twin_free < 900

    def test_relabelled_families(self):
        rng = random.Random(0x1E)
        cases = [(build_family(spec), r) for r in range(3, 10)
                 for spec in delta_splits(r) + efamily_splits(r)]
        cases += [(build_family(FamilySpec(FamilyKind.CATLIN, sizes=(k,))), -(-5 * k // 2))
                  for k in (2, 3, 4)]
        cases += [(_mycielski_k(k), k) for k in (4, 5)]
        twin_free = [_assert_kernels_match(_relabel(g, rng), (r - 1, r), (r, r + 1))
                     for g, r in cases]
        assert twin_free[-2:] == [True, True]  # M4 and M5
        # where most edges are reached by moves: larger critical graphs on
        # the matching path, with the coloring kernel left out (its search
        # at k = r - 1 is slow here, and the moves do not touch it)
        cases = [(build_family(FamilySpec(FamilyKind.CATLIN, sizes=(k,))), -(-5 * k // 2))
                 for k in (5, 7)]
        cases += [(build_family(spec), r) for r in (11, 12) for spec in delta_splits(r)]
        for g, r in cases:
            _assert_kernels_match(_relabel(g, rng), (), (r, r + 1))

    def test_matching_on_larger_random_graphs(self):
        # graphs larger than test_random_graphs draws (n <= 13), each graph
        # and its complement
        rng = random.Random(0x1F)
        for _ in range(2000):
            adj = _random_graph(rng, rng.randint(14, 24), rng.random()).masks
            for masks in (adj, _complement_masks(adj)):
                assert _max_matching(masks) == _ref_max_matching(masks), masks


# Reference subdivision search: graph_lab's SubdivisionWitness.verify,
# _reaches, _route and find_topological_clique as they were before the
# search walked set bits inline, sharpened its private-vertex count and took
# twin classes as prefixes, in branch sets and in routing, and before
# verify stopped sorting every pair, copied statement for statement in the
# same way as the kernels above.  The search must find exactly the witness
# these find, in no more calls of choose and no more routing steps (calls of
# extend), and verify must accept exactly the witnesses the reference
# accepts.  The guard calls alone follow graph_lab: one _run_search around
# choose checks the budget and stops the recursion.


def _ref_verify(self, g):
    branch = self.branch_vertices
    if len(branch) != self.t or len(set(branch)) != self.t:
        return False
    if any(not 0 <= v < g.vertex_count for v in branch):
        return False
    expected = {tuple(sorted(pair)) for pair in itertools.combinations(branch, 2)}
    if {pair for pair, _ in self.paths} != expected or len(self.paths) != len(expected):
        return False
    internals_seen = set()
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


def _ref_reaches(adj, start, allowed, goal):
    goal &= allowed
    seen = frontier = adj[start] & allowed
    while frontier:
        if frontier & goal:
            return True
        grown = 0
        for w in _ref_bits(frontier):
            grown |= adj[w]
        frontier = grown & allowed & ~seen
        seen |= frontier
    return False


def _ref_route(adj, pairs, free):
    if not all(_ref_reaches(adj, a, free, adj[b]) for a, b in pairs):
        return None
    if not pairs:
        return {}
    (u, v), rest = pairs[0], pairs[1:]
    goal = adj[v]
    path = [u]

    def extend(cur, banned, free):
        if goal >> cur & 1:
            system = _ref_route(adj, rest, free)
            if system is not None:
                system[(u, v)] = (*path, v)
            return system
        after = banned | adj[cur]
        for w in _ref_bits(adj[cur] & free & ~banned):
            left = free ^ 1 << w
            if goal >> w & 1 or _ref_reaches(adj, w, left & ~after, goal):
                path.append(w)
                system = extend(w, after, left)
                if system is not None:
                    return system
                path.pop()
        return None

    return extend(u, 0, free)


def _ref_find_topological_clique(g, t, max_n=None):
    if t < 0:
        raise ValueError(f"t must be >= 0, got {t}")
    n = g.vertex_count
    if t == 0:
        return SubdivisionWitness(t=0, branch_vertices=(), paths=())
    adj = g.masks
    candidates = sorted((v for v in range(n) if adj[v].bit_count() >= t - 1),
                        key=lambda v: (-adj[v].bit_count(), v))
    free_all = (1 << n) - 1

    def choose(start, branch, size, open_count):
        if size == t:
            members = list(_ref_bits(branch))
            pairs = list(itertools.combinations(members, 2))
            open_pairs = [(a, b) for a, b in pairs if not adj[a] >> b & 1]
            system = _ref_route(adj, open_pairs, free_all & ~branch)
            if system is None:
                return None
            return SubdivisionWitness(t=t, branch_vertices=tuple(members),
                                      paths=tuple((pair, system.get(pair, pair)) for pair in pairs))
        for i in range(start, len(candidates) - (t - size) + 1):
            v = candidates[i]
            count = open_count + size - (adj[v] & branch).bit_count()
            if count <= n - t:
                witness = choose(i + 1, branch | 1 << v, size + 1, count)
                if witness is not None:
                    return witness
        return None

    return _run_search("subdivision", g, max_n, choose, 0, 0, 0, 0)


def _witness_and_nodes(find, *args):
    """find(*args), the number of search nodes (calls of its nested choose)
    and the number of routing steps (calls of extend, nested in routing) it
    took, counted by a call-only trace."""
    nodes = steps = 0

    def trace(frame, event, arg):
        nonlocal nodes, steps
        name = frame.f_code.co_name
        nodes += name == "choose"
        steps += name == "extend"

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        witness = find(*args)
    finally:
        sys.settrace(previous)
    return witness, nodes, steps


def _branch_sets(find, g, t):
    """The partial branch sets, as bitmasks, with which find(g, t) calls its
    nested choose, in call order."""
    sets = []

    def trace(frame, event, arg):
        if frame.f_code.co_name == "choose":
            sets.append(frame.f_locals["branch"])

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        find(g, t)
    finally:
        sys.settrace(previous)
    return sets


def _routed_states(find, g, t):
    """For each call of extend in find(g, t) whose current vertex is internal
    to its path (not the pair end the path starts from), that vertex and the
    free mask, in call order."""
    states = []

    def trace(frame, event, arg):
        if frame.f_code.co_name == "extend" and len(frame.f_locals["path"]) > 1:
            states.append((frame.f_locals["cur"], frame.f_locals["free"]))

    previous = sys.gettrace()
    sys.settrace(trace)
    try:
        find(g, t)
    finally:
        sys.settrace(previous)
    return states


def _lower_twins(g):
    """For each vertex, the lower vertices with the same closed or the same
    open neighborhood."""
    masks = g.masks
    return [[u for u in range(v) if masks[u] | 1 << u == masks[v] | 1 << v or masks[u] == masks[v]]
            for v in range(g.vertex_count)]


def _blow_up(rng, base, sizes, clique):
    """base with vertex v blown up into sizes[v] vertices, a clique with
    probability clique and an independent set otherwise: its members are
    twins."""
    bounds = list(itertools.accumulate(sizes, initial=0))
    parts = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    edges = [e for part in parts if rng.random() < clique for e in itertools.combinations(part, 2)]
    edges += [(x, y) for u, v in base.edges for x in parts[u] for y in parts[v]]
    return Graph(bounds[-1], edges)


def _twin_blowup(rng):
    """A random graph on at most 6 vertices with each vertex blown up into a
    clique or an independent set of 1-3 vertices, so that true and false
    twins abound, then relabelled."""
    base = _random_graph(rng, rng.randint(1, 6), rng.random())
    sizes = [rng.randint(1, 3) for _ in range(base.vertex_count)]
    return _relabel(_blow_up(rng, base, sizes, 0.5), rng)


def _planted_twins(rng, n_max):
    """A random graph on at most 6 vertices, a 5- or 7-cycle, a 5-wheel or a
    complete graph on 2-5 vertices, with each vertex blown up into a clique
    (mostly) or an independent set of 1-3 vertices while at most n_max
    vertices are used."""
    base = rng.choice([
        lambda: _random_graph(rng, rng.randint(1, 6), rng.random()),
        lambda: cycle_graph(rng.choice((5, 7))),
        lambda: join(complete_graph(1), cycle_graph(5)),
        lambda: complete_graph(rng.randint(2, 5)),
    ])()
    sizes, spare = [], n_max - base.vertex_count
    for _ in range(base.vertex_count):
        extra = rng.randint(0, min(2, spare))
        sizes.append(1 + extra)
        spare -= extra
    return _blow_up(rng, base, sizes, 0.7)


def _tamperings(w, g, rng):
    """Seeded corruptions of witness w: a path vertex set to -1, to n or to
    a random vertex, a path that walks its first edge back and forth, a pair
    rerouted through an edge pair ux, xv of g with x internal to another
    path, a path dropped, a path duplicated, a pair filed as (v, u) with its
    path reversed, a pair with one end swapped for a non-branch vertex, a
    pair of three vertices, a path filed under another pair's key, another
    pair's entry in place of a pair's own, the first routed pair whose ends
    are not adjacent filed with the bare path (u, v), and a branch vertex
    swapped for a random vertex."""
    n, paths = g.vertex_count, list(w.paths)

    def with_path(i, path, pair=None):
        changed = paths[:]
        changed[i] = (paths[i][0] if pair is None else pair, path)
        return w._replace(paths=tuple(changed))

    if paths:
        for bad in (-1, n, rng.randrange(n)):
            i = rng.randrange(len(paths))
            path = paths[i][1]
            j = rng.randrange(len(path))
            yield with_path(i, path[:j] + (bad,) + path[j + 1:])
        i = rng.randrange(len(paths))
        path = paths[i][1]
        yield with_path(i, path[:2] + path[:2] + path[2:])
        shared = [(i, x) for i, ((u, v), _) in enumerate(paths)
                  for j, (_, other) in enumerate(paths) if j != i
                  for x in other[1:-1] if g.has_edge(u, x) and g.has_edge(x, v)]
        if shared:
            i, x = rng.choice(shared)
            u, v = paths[i][0]
            yield with_path(i, (u, x, v))
        i = rng.randrange(len(paths))
        yield w._replace(paths=tuple(paths[:i] + paths[i + 1:]))
        yield w._replace(paths=tuple(paths[:i + 1] + paths[i:]))
        i = rng.randrange(len(paths))
        (u, v), path = paths[i]
        yield with_path(i, path[::-1], (v, u))
        outside = [x for x in range(n) if x not in w.branch_vertices]
        if outside:
            x = rng.choice(outside)
            yield with_path(i, path, tuple(sorted((u, x))))
            yield with_path(i, path, (u, v, x))
        if len(paths) > 1:
            j = rng.choice([j for j in range(len(paths)) if j != i])
            yield with_path(i, path, paths[j][0])
            # pair j's whole entry, a direct edge where one exists, in place of
            # pair i's: every path checks out, but pair j is met twice
            direct = [j for j, (_, other) in enumerate(paths) if j != i and len(other) == 2]
            j = rng.choice(direct) if direct else j
            yield with_path(i, paths[j][1], paths[j][0])
        # no rng draw, so every later tampering stays as it was
        routed = [i for i, ((u, v), path) in enumerate(paths)
                  if len(path) > 2 and not g.has_edge(u, v)]
        if routed:
            yield with_path(routed[0], paths[routed[0]][0])
    if w.branch_vertices:
        branch = list(w.branch_vertices)
        branch[rng.randrange(len(branch))] = rng.randrange(n)
        yield w._replace(branch_vertices=tuple(branch))


def _assert_search_matches(g, t, rng, max_n=None):
    """Same witness as the reference in no more nodes and no more routing
    steps, and verify agrees with the reference on it and on its
    tamperings; returns (witness, nodes, reference nodes, tamperings
    rejected, steps, reference steps)."""
    witness, nodes, steps = _witness_and_nodes(find_topological_clique, g, t, max_n)
    expected, ref_nodes, ref_steps = _witness_and_nodes(_ref_find_topological_clique, g, t, max_n)
    assert witness == expected, (g.masks, t)
    assert nodes <= ref_nodes, (g.masks, t)
    assert steps <= ref_steps, (g.masks, t)
    rejected = 0
    if witness is not None:
        assert witness.verify(g) and _ref_verify(witness, g), (g.masks, t)
        for bad in _tamperings(witness, g, rng):
            verdict = bad.verify(g)
            assert verdict == _ref_verify(bad, g), (g.masks, t, bad)
            rejected += not verdict
    return witness, nodes, ref_nodes, rejected, steps, ref_steps


class TestSubdivisionIdentity:
    """The inline bit walks, the bitmask witness check, the count of two
    private vertices for a pair without a common neighbor and taking each
    twin class as a prefix, among branch vertices and among routed internal
    vertices, change no answer: the same first witness as the reference
    search, never more search nodes or routing steps, and the same verify
    verdict on every witness and every tampering of it."""

    def test_random_graphs(self):
        rng = random.Random(0x1F17)
        found = cut = rejected = 0
        for _ in range(1000):
            g = _random_graph(rng, rng.randint(1, 11), rng.random())
            witness, nodes, ref_nodes, bad, _, _ = _assert_search_matches(g, rng.randint(1, 6), rng)
            found += witness is not None
            cut += nodes < ref_nodes
            rejected += bad
        assert found > 300 and cut > 0 and rejected > 1000

    def test_relabelled_families(self):
        rng = random.Random(0x1F18)
        catlin = lambda k: build_family(FamilySpec(FamilyKind.CATLIN, sizes=(k,)))
        cases = [(build_family(spec), r) for r in range(4, 9)
                 for spec in delta_splits(r) + efamily_splits(r)]
        cases += [(catlin(2), 5), (catlin(3), 8), (_icosahedron(), 5), (_icosahedron(), 6),
                  (_petersen(), 4), (_petersen(), 5)]
        # "no" answers that charging two for a pair without a common neighbor must shorten
        must_cut = {(catlin(3), 8), (_icosahedron(), 6)}
        # TK_chi "no" answers whose five k-cliques are twin classes taken as prefixes
        catlin_chi = [(catlin(k), -(-5 * k // 2)) for k in (4, 5, 6)]
        cases += catlin_chi
        must_cut |= set(catlin_chi)
        # "no" answers whose full branch sets reach routing, where the unused
        # members of each k-clique are twins that routing takes as prefixes
        must_route_less = {(catlin(3), 8), (catlin(4), 10)}
        cut = 0
        for g, t in cases:
            _, nodes, ref_nodes, _, steps, ref_steps = _assert_search_matches(
                _relabel(g, rng), t, rng, max_n=g.vertex_count)
            cut += nodes < ref_nodes
            if (g, t) in must_cut:
                assert nodes < ref_nodes, (t, nodes, ref_nodes)
            if (g, t) in must_route_less:
                assert steps < ref_steps, (t, steps, ref_steps)
        assert cut > 0
        assert must_cut | must_route_less <= set(cases)

    def test_twin_blowups(self):
        rng = random.Random(0x1F24)
        found = cut = rejected = 0
        for _ in range(300):
            g = _twin_blowup(rng)
            for t in range(1, 8):
                witness, nodes, ref_nodes, bad, _, _ = _assert_search_matches(g, t, rng)
                found += witness is not None
                cut += nodes < ref_nodes
                rejected += bad
        assert found > 500 and cut > 20 and rejected > 1000

    def test_branch_sets_are_twin_prefixes(self):
        # every partial branch set that the search reaches holds, with each of
        # its vertices, all the lower twins of that vertex; the reference
        # search reaches other sets too
        def prefixes_only(find, g, t):
            lower = _lower_twins(g)
            return all(branch >> u & 1 for branch in _branch_sets(find, g, t)
                       for v in range(g.vertex_count) if branch >> v & 1 for u in lower[v])

        rng = random.Random(0x1F25)
        other = 0
        for _ in range(100):
            g = _twin_blowup(rng)
            for t in range(1, 8):
                assert prefixes_only(find_topological_clique, g, t), (g.masks, t)
                other += not prefixes_only(_ref_find_topological_clique, g, t)
        assert other > 10
        catlin4 = _relabel(build_family(FamilySpec(FamilyKind.CATLIN, (4,))), rng)
        assert prefixes_only(find_topological_clique, catlin4, 10)

    def test_routed_vertices_are_twin_prefixes(self):
        # routing takes an internal vertex only once all its lower twins are
        # off the free set, so the vertices that no path may use any more form
        # a prefix of each twin class; the reference routing takes others too
        def prefixes_only(find, g, t):
            lower = _lower_twins(g)
            return all(not free >> u & 1 for cur, free in _routed_states(find, g, t)
                       for u in lower[cur])

        rng = random.Random(0x1F26)
        other = 0
        for _ in range(1000):
            g = _twin_blowup(rng)
            for t in range(3, 8):
                assert prefixes_only(find_topological_clique, g, t), (g.masks, t)
                other += not prefixes_only(_ref_find_topological_clique, g, t)
        assert other > 20
        catlin4 = _relabel(build_family(FamilySpec(FamilyKind.CATLIN, (4,))), rng)
        assert prefixes_only(find_topological_clique, catlin4, 10)
        assert not prefixes_only(_ref_find_topological_clique, catlin4, 10)

    def test_routing_matches_reference(self):
        # the routing of one full branch set, on its own: the same first
        # system of paths as the reference routing, in no more steps, on
        # twin-rich graphs, for random branch sets and free masks that hold
        # no pair end
        rng = random.Random(0x1F27)
        found = fewer = 0
        for _ in range(1000):
            g = _twin_blowup(rng)
            n, adj = g.vertex_count, g.masks
            twin = [1 << lower[-1] if lower else 0 for lower in _lower_twins(g)]
            branch = rng.sample(range(n), rng.randint(2, min(n, 5))) if n > 1 else []
            pairs = [(a, b) for a, b in itertools.combinations(sorted(branch), 2)
                     if not adj[a] >> b & 1]
            free = sum(1 << v for v in range(n) if v not in branch and rng.random() < 0.9)
            system, _, steps = _witness_and_nodes(_route, adj, twin, pairs, free)
            expected, _, ref_steps = _witness_and_nodes(_ref_route, adj, pairs, free)
            assert system == expected, (adj, pairs, free)
            assert steps <= ref_steps, (adj, pairs, free)
            found += bool(system)
            fewer += steps < ref_steps
        assert found > 100 and fewer > 30
