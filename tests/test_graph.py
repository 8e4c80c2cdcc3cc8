import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lobsterctrl.graph import (
    Graph,
    GraphError,
    LobsterSpec,
    attachment_profile,
    build_lobster,
    find_spine,
    laplacian,
    parse_graph,
    parse_lobster_spec,
    random_lobster,
    serialize_graph,
    serialize_lobster_spec,
)

from .conftest import bfs_distances, path_graph

# The 7x7 benchmark Laplacian, written out entry by entry.
FIG_LAPLACIAN = [
    [1, -1, 0, 0, 0, 0, 0],
    [-1, 3, -1, -1, 0, 0, 0],
    [0, -1, 1, 0, 0, 0, 0],
    [0, -1, 0, 4, -1, -1, -1],
    [0, 0, 0, -1, 1, 0, 0],
    [0, 0, 0, -1, 0, 1, 0],
    [0, 0, 0, -1, 0, 0, 1],
]


class TestGraphType:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError, match="duplicate"):
            Graph.from_edges(3, [(1, 2), (2, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="out of range"):
            Graph.from_edges(2, [(1, 3)])

    def test_undirected_canonical_storage(self):
        g = Graph.from_edges(3, [(3, 1), (2, 3)])
        assert g.sorted_edges() == [(1, 3), (2, 3)]


class TestBuildLobster:
    def test_bare_spine_is_path(self):
        g = build_lobster(LobsterSpec.make(5, [(), (), (), (), ()]))
        assert g.n == 5
        assert g.sorted_edges() == [(1, 2), (2, 3), (3, 4), (4, 5)]

    def test_two_pendants_on_first_vertex(self):
        # hand construction: degree sequence (3, 1, 1, 1)
        g = build_lobster(LobsterSpec.make(2, [(1, 1), ()]))
        assert g.n == 4
        assert g.sorted_edges() == [(1, 2), (1, 3), (1, 4)]
        assert sorted(g.degree(v) for v in range(1, 5)) == [1, 1, 1, 3]

    def test_two_path_numbered_inner_then_tip(self):
        g = build_lobster(LobsterSpec.make(3, [(), (2,), ()]))
        assert (2, 4) in g.edges and (4, 5) in g.edges
        assert g.degree(4) == 2 and g.degree(5) == 1

    def test_vertex_count(self):
        spec = LobsterSpec.make(4, [(), (1, 2), (2,), ()])
        assert build_lobster(spec).n == 4 + 3 + 2

    def test_rejects_bad_path_length(self):
        with pytest.raises(GraphError, match="invalid path length"):
            LobsterSpec.make(3, [(), (3,), ()])

    def test_result_is_tree_within_distance_two(self):
        spec = random_lobster(12, seed=5)
        g = build_lobster(spec)
        assert g.is_tree()
        spine_dist = {
            v: min(bfs_distances(g, v).get(s, 99) for s in range(1, 13))
            for v in range(1, g.n + 1)
        }
        assert max(spine_dist.values()) <= 2


class TestRandomLobster:
    def test_deterministic_for_fixed_seed(self):
        assert random_lobster(10, seed=42) == random_lobster(10, seed=42)

    def test_legal_configs_and_empty_ends(self):
        legal = {(), (1,), (1, 1), (2,)}
        for seed in range(50):
            spec = random_lobster(10, seed=seed)
            assert spec.attach[0] == () and spec.attach[-1] == ()
            assert all(entry in legal for entry in spec.attach)

    def test_rejects_short_spine(self):
        with pytest.raises(GraphError):
            random_lobster(1, seed=0)

    def test_config_frequencies_uniform(self):
        # 1000 seeds x 98 interior vertices, uniform over 4 configs:
        # each count should sit within 3 sigma of the binomial mean.
        counts: Counter = Counter()
        draws = 0
        for seed in range(1000):
            spec = random_lobster(100, seed=seed)
            counts.update(spec.attach[1:-1])
            draws += 98
        mean = draws / 4
        sigma = (draws * 0.25 * 0.75) ** 0.5
        assert set(counts) == {(), (1,), (1, 1), (2,)}
        for config, seen in counts.items():
            assert abs(seen - mean) < 3 * sigma, (config, seen, mean)

    def test_max_load_one_drops_two_configs(self):
        legal = {(), (1,)}
        spec = random_lobster(30, seed=3, max_load=1)
        assert all(entry in legal for entry in spec.attach)


class TestLaplacian:
    def test_benchmark_matrix_exact(self, fig_graph):
        assert np.array_equal(laplacian(fig_graph), np.array(FIG_LAPLACIAN))

    def test_k2(self, k2):
        assert np.array_equal(laplacian(k2), np.array([[1, -1], [-1, 1]]))

    def test_p5_tridiagonal(self, p5):
        lap = laplacian(p5)
        assert list(np.diag(lap)) == [1, 2, 2, 2, 1]
        assert lap.sum() == 0 and np.array_equal(lap, lap.T)

    def test_row_sums_zero(self):
        g = build_lobster(random_lobster(8, seed=11))
        assert np.all(laplacian(g).sum(axis=1) == 0)


class TestFindSpine:
    def test_path(self, p5):
        assert find_spine(p5) == [1, 2, 3, 4, 5]

    def test_star_spine_through_center(self):
        star = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
        spine = find_spine(star)
        assert len(spine) == 3 and spine[1] == 1

    def test_attachment_extends_longest_path(self):
        # 2-path pasted near one end beats the declared spine; brute-force
        # all-pairs BFS is the oracle.
        g = build_lobster(LobsterSpec.make(6, [(), (2,), (), (), (1,), ()]))
        diameter = max(
            d for v in range(1, g.n + 1) for d in bfs_distances(g, v).values()
        )
        assert diameter + 1 == 7
        spine = find_spine(g)
        assert len(spine) == 7
        assert all((min(a, b), max(a, b)) in g.edges for a, b in zip(spine, spine[1:]))

    def test_rejects_non_tree(self):
        cycle = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
        with pytest.raises(GraphError, match="tree"):
            find_spine(cycle)

    def test_lex_smallest_endpoints(self, fig_graph):
        # longest paths end in {1,3} x {5,6,7}; (1, 5) is the smallest pair
        assert find_spine(fig_graph) == [1, 2, 4, 5]


class TestAttachmentProfile:
    def test_bare_path_all_zero(self, p5):
        prof = attachment_profile(p5, [1, 2, 3, 4, 5])
        assert prof.p1 == (0,) * 5 and prof.p2 == (0,) * 5

    def test_benchmark_profile(self, fig_graph):
        prof = attachment_profile(fig_graph, [1, 2, 4, 5])
        assert prof.p1 == (0, 1, 2, 0)
        assert prof.s1[1] == (3,)
        assert prof.s1[2] == (6, 7)
        assert prof.p2 == (0, 0, 0, 0)

    def test_two_path_profile(self):
        g = build_lobster(LobsterSpec.make(5, [(), (), (2,), (), ()]))
        prof = attachment_profile(g, [1, 2, 3, 4, 5])
        assert prof.p1[2] == 1 and prof.p2[2] == 1
        assert prof.s1[2] == () and prof.s2[2] == (7,)

    def test_sum_invariant(self):
        for seed in range(10):
            g = build_lobster(random_lobster(9, seed=seed))
            spine = find_spine(g)
            prof = attachment_profile(g, spine)
            assert sum(prof.p1) + sum(prof.p2) + len(spine) == g.n

    def test_rejects_distance_three(self):
        # three legs of length 3 from a hub: one leg is 3 away from any spine
        spider = Graph.from_edges(
            10,
            [(1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (6, 7), (1, 8), (8, 9), (9, 10)],
        )
        with pytest.raises(GraphError, match="not a lobster"):
            attachment_profile(spider, find_spine(spider))


class TestSerialization:
    def test_parse_k2(self):
        g = parse_graph('{"n": 2, "edges": [[1, 2]]}')
        assert g.n == 2 and g.sorted_edges() == [(1, 2)]

    def test_parse_rejects_duplicate(self):
        with pytest.raises(GraphError, match="duplicate"):
            parse_graph('{"n": 3, "edges": [[1, 2], [2, 1]]}')

    def test_round_trip_identity(self, fig_graph):
        assert parse_graph(serialize_graph(fig_graph)) == fig_graph

    def test_benchmark_fixture_laplacian(self):
        text = json.dumps({"n": 7, "edges": [list(e) for e in sorted(
            [(1, 2), (2, 3), (2, 4), (4, 5), (4, 6), (4, 7)])]})
        assert np.array_equal(laplacian(parse_graph(text)), np.array(FIG_LAPLACIAN))

    def test_dot_parse(self):
        g = parse_graph("graph { 1 -- 2; 2 -- 3; }")
        assert g.n == 3 and g.sorted_edges() == [(1, 2), (2, 3)]

    @pytest.mark.parametrize(
        "text",
        [
            "graph { 1 -- 2 -- 3 }",
            "graph { 1.5 -- 2; 2 -- 3 }",
            "graph { 1 -- 2; 3; }",
            "graphite G { 1 -- 2; 2 -- 3 }",
            "graph { 1 -- 2; 2 -- 3 } trailing junk",
        ],
    )
    def test_dot_rejects_statements_other_than_one_edge(self, text):
        with pytest.raises(GraphError, match="DOT statement"):
            parse_graph(text)

    def test_unrecognized_format(self):
        with pytest.raises(GraphError, match="unrecognized"):
            parse_graph("digraph { 1 -> 2; }")

    def test_lobster_spec_round_trip(self):
        spec = random_lobster(8, seed=2)
        assert parse_lobster_spec(serialize_lobster_spec(spec)) == spec

    @pytest.mark.parametrize(
        "text",
        [
            '{"spine_len": 5.7, "attach": [[], [], [], [], []]}',
            '{"spine_len": 3, "attach": [[], [true], []]}',
            '{"spine_len": 3, "attach": [[], [1.0], []]}',
            '{"spine_len": 3, "attach": [[], 1, []]}',
        ],
    )
    def test_lobster_spec_rejects_non_integers(self, text):
        with pytest.raises(GraphError):
            parse_lobster_spec(text)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_round_trip_random_graphs(self, seed):
        rng = random.Random(seed)
        n = rng.randint(1, 12)
        possible = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
        edges = rng.sample(possible, rng.randint(0, len(possible)))
        g = Graph.from_edges(n, edges)
        assert parse_graph(serialize_graph(g)) == g


@settings(max_examples=50, deadline=None)
@given(spine_len=st.integers(2, 20), seed=st.integers(0, 10**6))
def test_realized_lobster_invariants(spine_len, seed):
    spec = random_lobster(spine_len, seed=seed)
    g = build_lobster(spec)
    assert g.is_tree()
    assert g.n == spec.total_vertices()
    # the canonical spine is at least as long as the declared one
    assert len(find_spine(g)) >= spine_len
