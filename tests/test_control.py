import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lobsterctrl.control
from lobsterctrl.control import (
    _eigenvalue_one_multiplicity,
    controllable_certified,
    count_to_probability,
    kalman_controllable_exact,
    min_leader_bruteforce,
    minimum_hitting_set,
    pbh_controllable,
)
from lobsterctrl.graph import (
    BASE_CONFIGS,
    Graph,
    GraphError,
    LobsterSpec,
    build_lobster,
    laplacian,
    random_lobster,
)
from lobsterctrl.spectral import eigen_decompose

from .conftest import path_graph, random_connected_graph
from .test_equivalence import complete, cycle, petersen, relabeled, spider, star


def min_leader_by_levels(g: Graph, k_max: int) -> tuple:
    """(k_min, count, sets, lower_bound) from a plain search starting at k = 1."""
    for k in range(1, min(k_max, g.n) + 1):
        winners = tuple(
            frozenset(c)
            for c in itertools.combinations(range(1, g.n + 1), k)
            if kalman_controllable_exact(g, c).controllable
        )
        if winners:
            return k, len(winners), winners, k
    return None, 0, None, min(k_max, g.n) + 1


class TestPbh:
    def test_benchmark_uncontrollable_triple(self, fig_graph):
        verdict = pbh_controllable(fig_graph, [1, 4, 6])
        assert not verdict.controllable
        w = verdict.witness
        assert w is not None
        assert np.max(np.abs(w.vector[[0, 3, 5]])) <= 1e-8  # vanishes on leaders

    def test_benchmark_controllable_triple(self, fig_graph):
        assert pbh_controllable(fig_graph, [1, 5, 6]).controllable

    def test_all_vertices_controllable(self, fig_graph):
        assert pbh_controllable(fig_graph, range(1, 8)).controllable

    def test_rejects_disconnected(self):
        g = Graph.from_edges(4, [(1, 2), (3, 4)])
        with pytest.raises(GraphError, match="connected"):
            pbh_controllable(g, [1])

    def test_rejects_empty_leaders(self, fig_graph):
        with pytest.raises(GraphError, match="nonempty"):
            pbh_controllable(fig_graph, [])


class TestKalmanExact:
    def test_benchmark_rank_three(self, fig_graph):
        verdict = kalman_controllable_exact(fig_graph, [1, 4, 6])
        assert verdict.rank == 3 and not verdict.controllable

    def test_benchmark_rank_four(self, fig_graph):
        verdict = kalman_controllable_exact(fig_graph, [1, 5, 6])
        assert verdict.rank == 4 and verdict.controllable

    def test_k2_end_leader(self, k2):
        verdict = kalman_controllable_exact(k2, [1])
        assert verdict.controllable and verdict.rank == 1

    def test_all_leaders_trivially_controllable(self, fig_graph):
        verdict = kalman_controllable_exact(fig_graph, range(1, 8))
        assert verdict.controllable and verdict.rank == 0

    def test_single_follower_always_controllable(self):
        rng = random.Random(3)
        for _ in range(10):
            g = random_connected_graph(rng.randint(3, 8), rng, extra_edges=2)
            leaders = [v for v in range(1, g.n + 1) if v != 2]
            assert kalman_controllable_exact(g, leaders).controllable


class TestOracleAgreement:
    def test_exhaustive_small_graphs(self):
        rng = random.Random(11)
        for _ in range(12):
            g = random_connected_graph(rng.randint(3, 7), rng, extra_edges=rng.randint(0, 4))
            for k in range(1, g.n + 1):
                for leaders in itertools.combinations(range(1, g.n + 1), k):
                    assert (
                        pbh_controllable(g, leaders).controllable
                        == kalman_controllable_exact(g, leaders).controllable
                    ), (sorted(g.edges), leaders)

    def test_random_lobster_pairs(self):
        rng = random.Random(23)
        for _ in range(100):
            g = build_lobster(random_lobster(rng.randint(4, 10), seed=rng.randrange(10**6)))
            if g.n > 25:
                continue
            size = rng.randint(1, g.n)
            leaders = rng.sample(range(1, g.n + 1), size)
            assert (
                pbh_controllable(g, leaders).controllable
                == kalman_controllable_exact(g, leaders).controllable
            )

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_superset_monotonicity(self, data):
        rng = random.Random(data.draw(st.integers(0, 10**6)))
        g = random_connected_graph(rng.randint(3, 8), rng, extra_edges=rng.randint(0, 3))
        size = rng.randint(1, g.n)
        leaders = set(rng.sample(range(1, g.n + 1), size))
        if not pbh_controllable(g, leaders).controllable:
            return
        extra = data.draw(st.integers(1, g.n))
        assert pbh_controllable(g, leaders | {extra}).controllable


class TestCertifiedVerdict:
    def test_solid_cases_stay_on_float_route(self, fig_graph):
        verdict = controllable_certified(fig_graph, [1, 5, 6])
        assert verdict.controllable and verdict.method == "pbh-float"
        verdict = controllable_certified(fig_graph, [1, 4, 6])
        assert not verdict.controllable and verdict.method == "pbh-float"

    def test_borderline_margin_escalates_to_exact(self, fig_graph, monkeypatch):
        # With an infinite widening every kept singular value is borderline,
        # so a positive PBH verdict must be re-decided by the exact route.
        monkeypatch.setattr(lobsterctrl.control, "BORDERLINE_WIDENING", math.inf)
        verdict = controllable_certified(fig_graph, [1, 5, 6])
        assert verdict.controllable and verdict.method == "kalman-exact"
        assert verdict.rank == 4
        # A negative verdict carries its witness and never escalates.
        verdict = controllable_certified(fig_graph, [1, 4, 6])
        assert not verdict.controllable and verdict.method == "pbh-float"
        assert verdict.rank is None
        assert np.max(np.abs(verdict.witness.vector[[0, 3, 5]])) <= 1e-8

    def test_always_matches_exact_oracle(self):
        rng = random.Random(41)
        for _ in range(40):
            g = random_connected_graph(rng.randint(3, 9), rng, extra_edges=rng.randint(0, 4))
            leaders = rng.sample(range(1, g.n + 1), rng.randint(1, g.n))
            assert (
                controllable_certified(g, leaders).controllable
                == kalman_controllable_exact(g, leaders).controllable
            )


class TestMinLeaderBruteforce:
    def test_benchmark_count(self, fig_graph):
        result = min_leader_bruteforce(fig_graph, 4)
        assert result.k_min == 3 and result.count == 6
        expected = {
            frozenset({a, b, c})
            for a in (1, 3)
            for b, c in itertools.combinations((5, 6, 7), 2)
        }
        assert set(result.sets) == expected

    def test_path_single_end_leader(self, p5):
        result = min_leader_bruteforce(p5, 3)
        assert result.k_min == 1
        assert frozenset({1}) in result.sets and frozenset({5}) in result.sets

    def test_k2(self, k2):
        result = min_leader_bruteforce(k2, 2)
        assert result.k_min == 1 and result.count == 2

    def test_unreachable_k_max(self, fig_graph):
        result = min_leader_bruteforce(fig_graph, 2)
        assert result.k_min is None and result.lower_bound == 3
        assert "k_min >= 3" in result.summary()

    def test_rejects_large_graph(self):
        g = path_graph(26)
        with pytest.raises(GraphError, match="capped"):
            min_leader_bruteforce(g, 2)

    def test_size_bound_zero_allowed_negative_refused(self, p5):
        # a CSA run that gave up with no leaders asks for k_max = 0
        result = min_leader_bruteforce(p5, 0)
        assert result.k_min is None and result.lower_bound == 1
        with pytest.raises(GraphError, match=">= 0"):
            min_leader_bruteforce(p5, -2)

    def test_matches_search_from_one(self):
        configs = [c for c in BASE_CONFIGS if sum(c) <= 2]
        patterns = list(itertools.product(configs, repeat=4))[::8]
        rng = random.Random(0x1EAD)
        graphs = [relabeled(build_lobster(LobsterSpec.make(6, [(), *p, ()])), rng) for p in patterns]
        K23 = Graph.from_edges(5, [(i, j) for i in (1, 2) for j in (3, 4, 5)])
        graphs += [complete(4), cycle(5), cycle(6), K23, petersen(), spider(3, 2)]
        cases = [(g, g.n) for g in graphs] + [(star(7, 1), 3)]  # k_max below the start of 5
        starts = []
        for g, k_max in cases:
            assert g.n <= 14
            result = min_leader_bruteforce(g, k_max)
            k_min, count, sets, lower_bound = min_leader_by_levels(g, k_max)
            assert (result.k_min, result.count, result.sets) == (k_min, count, sets), sorted(g.edges)
            # the exact multiplicity m raises the bound of a search that finds nothing
            m = _eigenvalue_one_multiplicity(g)
            assert result.lower_bound == max(lower_bound, m), sorted(g.edges)
            starts.append(m)
        assert max(starts) > 1
        assert min_leader_bruteforce(star(7, 1), 3).lower_bound == 5  # not k_max + 1 = 4

    def test_skips_levels_below_multiplicity(self, monkeypatch):
        # K1,6: eigenvalue 1 has multiplicity 5, so only the C(7, 5) sets of
        # size 5 are tried; a search from k = 1 makes 7 + 21 + 35 + 35 + 21 calls.
        calls = []
        exact = lobsterctrl.control.kalman_controllable_exact

        def counting(g, leaders):
            calls.append(leaders)
            return exact(g, leaders)

        monkeypatch.setattr(lobsterctrl.control, "kalman_controllable_exact", counting)
        result = min_leader_bruteforce(star(7, 1), 7)
        assert result.k_min == 5 and result.count == 6
        assert len(calls) == math.comb(7, 5) == 21

    def test_multiplicity_is_float_multiplicity_of_one(self):
        rng = random.Random(0x0E1)
        seen_multiple = 0
        for _ in range(60):
            g = build_lobster(random_lobster(rng.randint(3, 9), rng.getrandbits(32)))
            if g.n > 25:
                continue
            spaces = eigen_decompose(laplacian(g).astype(float)).spaces
            expected = sum(sp.multiplicity for sp in spaces if abs(sp.value - 1.0) < 1e-6)
            assert _eigenvalue_one_multiplicity(g) == expected, sorted(g.edges)
            seen_multiple += expected > 1
        assert seen_multiple
        assert _eigenvalue_one_multiplicity(complete(4)) == 0
        assert _eigenvalue_one_multiplicity(cycle(5)) == 0


class TestMinimumHittingSet:
    def test_benchmark_catalog(self):
        result = minimum_hitting_set([{1, 3}, {5, 6}, {5, 7}, {6, 7}])
        assert result.size == 3 and result.count == 6
        assert result.chosen == frozenset({1, 5, 6})

    def test_single_pair(self):
        result = minimum_hitting_set([{1, 2}])
        assert result.size == 1 and result.count == 2

    def test_three_sets(self):
        # exhaustive check over 2-subsets of {1..4} gives {1,3}, {1,4}, {2,3}
        result = minimum_hitting_set([{1, 2}, {3, 4}, {1, 3}])
        assert result.size == 2 and result.count == 3
        assert result.chosen == frozenset({1, 3})

    def test_empty_catalog(self):
        result = minimum_hitting_set([])
        assert result.size == 0 and result.chosen == frozenset() and result.count == 1

    def test_rejects_empty_member(self):
        with pytest.raises(GraphError):
            minimum_hitting_set([{1}, set()])

    def test_many_disjoint_pairs_fast(self):
        # one leader per disjoint pair; must not branch exponentially
        sets = [{2 * i + 1, 2 * i + 2} for i in range(30)]
        result = minimum_hitting_set(sets, count_optimal=False)
        assert result.size == 30

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_matches_exhaustive_minimum(self, seed):
        rng = random.Random(seed)
        universe = list(range(1, rng.randint(4, 8) + 1))
        sets = [
            set(rng.sample(universe, rng.randint(1, 3)))
            for _ in range(rng.randint(1, 5))
        ]
        result = minimum_hitting_set(sets)
        brute = min(
            (
                len(cand)
                for r in range(len(universe) + 1)
                for cand in itertools.combinations(universe, r)
                if all(set(cand) & s for s in sets)
            ),
        )
        assert result.size == brute
        assert all(result.chosen & s for s in sets)


class TestCountToProbability:
    def test_benchmark_arithmetic(self):
        # 320 / C(21, 5) = 320/20349, three significant figures 0.0157
        value = count_to_probability(320, 21, 5)
        assert value == pytest.approx(float(Fraction(320, 20349)), abs=5e-6)
        assert f"{value:.3g}" == "0.0157"

    def test_benchmark_leader_fraction(self):
        assert count_to_probability(6, 7, 3) == pytest.approx(0.1714, abs=5e-5)

    def test_zero(self):
        assert count_to_probability(0, 10, 2) == 0.0

    def test_rejects_k_above_n(self):
        with pytest.raises(GraphError):
            count_to_probability(1, 3, 4)

    def test_rejects_count_above_total(self):
        with pytest.raises(GraphError):
            count_to_probability(100, 4, 2)
