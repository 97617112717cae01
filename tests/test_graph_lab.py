"""Small-graph laboratory: family constructors, exact coloring, criticality,
simplicial/complement analysis, topological clique search, graph6 round-trips."""

import itertools
import random

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from albertson import (
    BudgetExceededError,
    FamilyKind,
    FamilySpec,
    Graph,
    Graph6Error,
    InapplicableRuleError,
    build_family,
    chromatic_number,
    complement_analysis,
    complete_graph,
    contains_topological_clique,
    cycle_graph,
    delta_splits,
    efamily_splits,
    find_topological_clique,
    gallai_equality_check,
    gallai_simplicial_check,
    is_critical,
    join,
    parse_graph6,
    serialize_graph6,
    simplicial_vertices,
)


def _random_graph(rng, n, density=0.5):
    edges = [e for e in itertools.combinations(range(n), 2)
             if rng.random() < density]
    return Graph(n, edges)


def _oracle_chromatic(g):
    """Plain backtracking over color assignments, no bounds or heuristics."""
    n = g.vertex_count
    if n == 0:
        return 0
    colors = [0] * n

    def feasible(v, k):
        if v == n:
            return True
        for c in range(1, k + 1):
            if all(colors[w] != c for w in g.adjacency[v] if w < v):
                colors[v] = c
                if feasible(v + 1, k):
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

    def dfs(cur, path):
        for w in g.adjacency[cur]:
            if w == v:
                out.append(path + (v,))
                continue
            if w in banned or w in used or w in path:
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


def _petersen():
    return Graph(10, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
                      (0, 5), (1, 6), (2, 7), (3, 8), (4, 9),
                      (5, 7), (7, 9), (9, 6), (6, 8), (8, 5)])


class TestGraphType:
    def test_rejects_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

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

    @given(st.integers(0, 8), st.integers(0, 10**6))
    def test_complement_involution(self, n, seed):
        g = _random_graph(random.Random(seed), n)
        assert g.complement().complement() == g

    def test_degrees(self):
        g = cycle_graph(5)
        assert [g.degree(v) for v in range(5)] == [2] * 5


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

    def test_join_spec_nested(self):
        spec = FamilySpec(FamilyKind.JOIN, parts=(
            FamilySpec(FamilyKind.COMPLETE, sizes=(1,)),
            FamilySpec(FamilyKind.DELTA, sizes=(1, 1, 1))))
        g = build_family(spec)
        assert g == join(complete_graph(1), build_family(spec.parts[1]))

    def test_validate_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            FamilySpec(FamilyKind.DELTA, sizes=(2, 1, 1)).validate()

    def test_validate_rejects_empty_part(self):
        with pytest.raises(ValueError):
            FamilySpec(FamilyKind.DELTA, sizes=(2, 0, 3)).validate()

    def test_validate_rejects_bad_efamily(self):
        # |A2| + |B2| must stay below r = |A1|+|A2|+1
        with pytest.raises(ValueError):
            FamilySpec(FamilyKind.EFAMILY, sizes=(1, 3, 1, 3)).validate()

    def test_validate_rejects_join_arity(self):
        with pytest.raises(ValueError):
            FamilySpec(FamilyKind.JOIN, parts=(
                FamilySpec(FamilyKind.COMPLETE, sizes=(1,)),)).validate()


class TestChromatic:
    def test_complete(self):
        assert chromatic_number(complete_graph(5)) == 5

    def test_empty(self):
        assert chromatic_number(Graph(0, [])) == 0
        assert chromatic_number(Graph(4, [])) == 1

    def test_bipartite(self):
        g = Graph(6, [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5)])
        assert chromatic_number(g) == 2

    @pytest.mark.parametrize("k,chi", [(1, 3), (2, 5), (3, 8), (4, 10)])
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
        # which is edge-critical and often has no isolated vertex
        rng = random.Random(0xC7)
        critical = 0
        for _ in range(40):
            g = _random_graph(rng, rng.randint(1, 9), rng.uniform(0.2, 0.8))
            chi = _oracle_chromatic(g)
            h = g
            for e in rng.sample(sorted(g.edges), len(g.edges)):
                if _oracle_chromatic(h.without_edge(*e)) == chi:
                    h = h.without_edge(*e)
            for x in (g, h):
                isolated = any(x.degree(v) == 0 for v in range(x.vertex_count))
                expected = (not (chi >= 2 and isolated)
                            and all(_oracle_chromatic(x.without_edge(*e)) < chi
                                    for e in x.edges))
                assert is_critical(x, chi) == expected
                critical += expected
        assert critical > 10


class TestSimplicial:
    def test_complete(self):
        assert simplicial_vertices(complete_graph(4)) == [0, 1, 2, 3]

    def test_cycle(self):
        assert simplicial_vertices(cycle_graph(5)) == []

    def test_join_side(self):
        g = join(complete_graph(3), cycle_graph(5))
        assert simplicial_vertices(g) == [0, 1, 2]


class TestGallaiSimplicial:
    def test_k7(self):
        assert gallai_simplicial_check(complete_graph(7), 7)

    def test_join_case(self):
        # 6-critical on 8 vertices: needs ceil((3/2)(10-8)) = 3 simplicial
        g = join(complete_graph(3), cycle_graph(5))
        assert is_critical(g, 6)
        assert gallai_simplicial_check(g, 6)

    def test_inapplicable_above_threshold(self):
        g = build_family(delta_splits(6)[0])  # 11 vertices, (5/3)*6 = 10
        with pytest.raises(InapplicableRuleError):
            gallai_simplicial_check(g, 6)

    def test_inapplicable_efamily(self):
        g = build_family(efamily_splits(5)[0])  # 9 >= 25/3
        with pytest.raises(InapplicableRuleError):
            gallai_simplicial_check(g, 5)


class TestComplementAnalysis:
    def test_three_stars(self):
        stars = Graph(12, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7),
                           (8, 9), (8, 10), (8, 11)])
        res = complement_analysis(stars.complement())
        assert (res.components, res.max_matching, res.has_triangle) == \
            (3, 3, False)

    def test_complete(self):
        res = complement_analysis(complete_graph(6))
        assert (res.components, res.max_matching, res.has_triangle) == \
            (6, 0, False)

    def test_five_cycle_self_complementary(self):
        res = complement_analysis(cycle_graph(5))
        assert (res.components, res.max_matching, res.has_triangle) == \
            (1, 2, False)

    def test_triangle_detection(self):
        res = complement_analysis(Graph(3, []))  # complement is K3
        assert (res.components, res.max_matching, res.has_triangle) == \
            (1, 1, True)

    def test_matching_agrees_with_networkx(self):
        rng = random.Random(7)
        for _ in range(25):
            g = _random_graph(rng, rng.randint(1, 12), rng.uniform(0.2, 0.9))
            comp = g.complement()
            h = nx.Graph()
            h.add_nodes_from(range(comp.vertex_count))
            h.add_edges_from(tuple(e) for e in comp.edges)
            expected = len(nx.max_weight_matching(h, maxcardinality=True))
            assert complement_analysis(g).max_matching == expected


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
        for r in (4, 5, 6):
            for spec in delta_splits(r):
                w = find_topological_clique(build_family(spec), r)
                assert w is not None and w.verify(build_family(spec))

    def test_efamily_members_contain_topological_kr(self):
        for r in (4, 5):
            for spec in efamily_splits(r):
                w = find_topological_clique(build_family(spec), r)
                assert w is not None and w.verify(build_family(spec))

    def test_witness_shape(self):
        w = find_topological_clique(cycle_graph(4), 3)
        assert w.t == 3
        assert len(w.branch_vertices) == 3
        assert len(w.paths) == 3
        block = w.as_text_block()
        assert block.startswith("topological K3")
        assert "branch:" in block and "path" in block

    def test_witness_verify_rejects_other_graph(self):
        w = find_topological_clique(cycle_graph(4), 3)
        assert not w.verify(Graph(4, [(0, 1), (1, 2), (2, 3)]))

    def test_trivial_sizes(self):
        assert contains_topological_clique(Graph(1, []), 1)
        assert not contains_topological_clique(Graph(0, []), 1)
        assert contains_topological_clique(complete_graph(2), 2)

    def test_agrees_with_unpruned_search(self):
        rng = random.Random(0x5D)
        for _ in range(60):
            n = rng.randint(3, 8)
            g = _random_graph(rng, n, rng.uniform(0.2, 0.9))
            t = rng.randint(3, 5)
            assert contains_topological_clique(g, t) == _oracle_topological(g, t)

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


class TestGallaiEquality:
    def test_all_small_r(self):
        for r in range(4, 9):
            for p in range(2, r):
                assert gallai_equality_check(r, p)

    def test_degenerate_join_with_k0(self):
        assert gallai_equality_check(4, 3)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            gallai_equality_check(5, 1)
        with pytest.raises(ValueError):
            gallai_equality_check(5, 5)


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
        for _ in range(100):
            g = _random_graph(rng, rng.randint(1, 40), rng.random())
            h = nx.Graph()
            h.add_nodes_from(range(g.vertex_count))
            h.add_edges_from(tuple(e) for e in g.edges)
            expected = nx.to_graph6_bytes(h, header=False).decode().strip()
            assert serialize_graph6(g) == expected
            assert parse_graph6(expected) == g

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
        ("A" + chr(200), 1),
        ("A_B", 2),        # trailing data
        ("~~???", 1),      # >= 2^18 vertices unsupported
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

    @given(st.integers(0, o_max := 12), st.integers(0, 10**6))
    def test_round_trip_property(self, n, seed):
        g = _random_graph(random.Random(seed), n)
        assert parse_graph6(serialize_graph6(g)) == g


class TestBudgets:
    def test_chromatic_budget(self):
        with pytest.raises(BudgetExceededError):
            chromatic_number(Graph(41, []))

    def test_chromatic_override(self):
        assert chromatic_number(Graph(41, []), max_n=50) == 1

    def test_subdivision_budget(self):
        with pytest.raises(BudgetExceededError):
            contains_topological_clique(Graph(21, []), 3)

    def test_subdivision_override(self):
        assert not contains_topological_clique(Graph(21, []), 3, max_n=25)

    def test_env_var(self, monkeypatch):
        monkeypatch.setenv("ALBERTSON_BUDGET", "coloring=10,subdivision=5")
        with pytest.raises(BudgetExceededError):
            chromatic_number(Graph(11, []))
        with pytest.raises(BudgetExceededError):
            contains_topological_clique(Graph(6, []), 3)
        assert chromatic_number(Graph(10, [])) == 1

    def test_env_var_malformed(self, monkeypatch):
        monkeypatch.setenv("ALBERTSON_BUDGET", "coloring=lots")
        with pytest.raises(ValueError):
            chromatic_number(Graph(5, []))

    @pytest.mark.parametrize("spec", ["colouring=3", "coloring=-5", "coloring=3,depth=2"])
    def test_env_var_rejects_unknown_key_and_negative(self, monkeypatch, spec):
        monkeypatch.setenv("ALBERTSON_BUDGET", spec)
        with pytest.raises(ValueError, match="ALBERTSON_BUDGET"):
            chromatic_number(Graph(5, []))
        with pytest.raises(ValueError, match="ALBERTSON_BUDGET"):
            contains_topological_clique(Graph(5, []), 3)

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("ALBERTSON_BUDGET", "coloring=10")
        assert chromatic_number(Graph(11, []), max_n=12) == 1
