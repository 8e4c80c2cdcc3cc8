import itertools
import json
import math
import random
import sys

import numpy as np
import pytest

import lobsterctrl.mpcs
from lobsterctrl.control import kalman_controllable_exact, pbh_controllable
from lobsterctrl.csa import run_csa
from lobsterctrl.graph import (
    BASE_CONFIGS,
    Graph,
    GraphError,
    LobsterSpec,
    attachment_profile,
    build_lobster,
    find_spine,
    laplacian,
    random_lobster,
)
from lobsterctrl.mpcs import (
    QUAD_EIGENVALUE,
    SPINE_EIGENVALUES,
    catalog_to_json,
    detect_quads,
    detect_spine_patterns,
    detect_twins,
    enumerate_mpcs_bruteforce,
    enumerate_pcs_bruteforce,
    graph_decomposition,
    is_critical,
    is_mpcs,
    is_perfect_critical,
    verify_mpcs,
)

from .conftest import path_graph, random_connected_graph, random_tree

GOLDEN = (math.sqrt(5) + 1) / 2  # tip-to-inner amplitude ratio of quad witnesses


def literal_pcs_sweep(g: Graph) -> set[frozenset[int]]:
    """Independent oracle: test every nonempty vertex subset directly."""
    found = set()
    for r in range(1, g.n + 1):
        for combo in itertools.combinations(range(1, g.n + 1), r):
            if is_perfect_critical(g, combo) is not None:
                found.add(frozenset(combo))
    return found


def literal_mpcs_sweep(g: Graph) -> set[frozenset[int]]:
    pcs = literal_pcs_sweep(g)
    return {s for s in pcs if not any(t < s for t in pcs)}


class TestPredicates:
    def test_non_critical_pair(self, fig_graph):
        assert is_critical(fig_graph, {3, 5}) is None

    def test_critical_but_not_perfect(self, fig_graph):
        w = is_critical(fig_graph, {1, 2, 3, 5, 6, 7})
        assert w is not None and abs(w.value - 1.0) <= 1e-9
        assert is_perfect_critical(fig_graph, {1, 2, 3, 5, 6, 7}) is None

    def test_full_set_trivially_critical(self, fig_graph):
        w = is_critical(fig_graph, range(1, 8))
        assert w is not None and abs(w.value) <= 1e-9

    def test_perfect_but_not_minimal(self, fig_graph):
        w = is_perfect_critical(fig_graph, {1, 3, 5, 6, 7})
        assert w is not None and abs(w.value - 1.0) <= 1e-9
        ok, _ = is_mpcs(fig_graph, {1, 3, 5, 6, 7})
        assert not ok

    def test_pendant_pair_is_perfect(self, fig_graph):
        w = is_perfect_critical(fig_graph, {5, 6})
        assert w is not None and abs(w.value - 1.0) <= 1e-9
        assert abs(w.vector[4] + w.vector[5]) <= 1e-9  # proportional to e5 - e6

    def test_minimal_pair(self, fig_graph):
        ok, w = is_mpcs(fig_graph, {1, 3})
        assert ok and abs(w.value - 1.0) <= 1e-9

    def test_p5_quad_support(self, p5):
        ok, w = is_mpcs(p5, {1, 2, 4, 5})
        assert ok and abs(w.value - QUAD_EIGENVALUE) <= 1e-9

    @pytest.mark.parametrize("vertices", [{0, 1, 2, 3, 4}, {99}, {1, 2, 3, 4, 99}, set()])
    def test_predicates_reject_bad_vertex_sets(self, vertices):
        # The critical-set predicates check ids as the controllability tests do.
        p4 = path_graph(4)
        with pytest.raises(GraphError):
            is_critical(p4, vertices)
        with pytest.raises(GraphError):
            is_perfect_critical(p4, vertices)
        with pytest.raises(GraphError):
            is_mpcs(p4, vertices)
        with pytest.raises(GraphError):
            verify_mpcs(p4, vertices, origin="spectral")
        if vertices == {99}:
            with pytest.raises(GraphError):
                pbh_controllable(p4, vertices)
            with pytest.raises(GraphError):
                kalman_controllable_exact(p4, vertices)


class TestBruteforceEnumeration:
    def test_benchmark_catalog(self, fig_graph):
        catalog = enumerate_mpcs_bruteforce(fig_graph)
        assert catalog.vertex_sets() == {
            frozenset({1, 3}),
            frozenset({5, 6}),
            frozenset({5, 7}),
            frozenset({6, 7}),
        }

    def test_k2(self, k2):
        assert enumerate_mpcs_bruteforce(k2).vertex_sets() == {frozenset({1, 2})}

    def test_p5_full_subset_sweep(self, p5):
        # independent oracle: all 2^5 subsets through the support predicate
        catalog = enumerate_mpcs_bruteforce(p5)
        assert catalog.vertex_sets() == literal_mpcs_sweep(p5)
        assert frozenset({1, 2, 4, 5}) in catalog.vertex_sets()
        assert all(len(s) != 3 for s in catalog.vertex_sets())

    def test_matches_literal_sweep_on_benchmark(self, fig_graph):
        assert enumerate_mpcs_bruteforce(fig_graph).vertex_sets() == literal_mpcs_sweep(
            fig_graph
        )

    def test_matches_literal_sweep_random_trees(self):
        rng = random.Random(31)
        for _ in range(8):
            g = random_tree(rng.randint(4, 9), rng)
            assert enumerate_mpcs_bruteforce(g).vertex_sets() == literal_mpcs_sweep(g)

    def test_matches_literal_sweep_random_graphs(self):
        rng = random.Random(57)
        for _ in range(8):
            g = random_connected_graph(rng.randint(4, 8), rng, extra_edges=rng.randint(1, 4))
            assert enumerate_mpcs_bruteforce(g).vertex_sets() == literal_mpcs_sweep(g)

    def test_pcs_enumeration_matches_literal(self, fig_graph):
        mine = {r.vertices for r in enumerate_pcs_bruteforce(fig_graph)}
        assert mine == literal_pcs_sweep(fig_graph)

    def test_rejects_large_graph(self):
        g = build_lobster(random_lobster(10, seed=1))
        if g.n > 16:
            with pytest.raises(GraphError, match="capped"):
                enumerate_mpcs_bruteforce(g)

    def test_exact_criticality_cross_check(self, fig_graph):
        # every brute-forced MPCS leaves its complement uncontrollable, and
        # the non-critical pair does not (rational-arithmetic route)
        for s in enumerate_mpcs_bruteforce(fig_graph).vertex_sets():
            rest = set(range(1, 8)) - s
            assert not kalman_controllable_exact(fig_graph, rest).controllable
        assert kalman_controllable_exact(fig_graph, {1, 2, 4, 6, 7}).controllable


class TestDetectTwins:
    def test_benchmark_pairs(self, fig_graph):
        twins = detect_twins(fig_graph)
        assert {r.vertices for r in twins} == {
            frozenset({1, 3}),
            frozenset({5, 6}),
            frozenset({5, 7}),
            frozenset({6, 7}),
        }
        for rec in twins:
            assert abs(rec.witness.value - 1.0) <= 1e-12

    def test_path_has_none(self, p5):
        # exhaustive neighborhood comparison confirms no twin pair exists
        for u, w in itertools.combinations(range(1, 6), 2):
            nu = set(p5.adjacency[u]) - {w}
            nw = set(p5.adjacency[w]) - {u}
            assert nu != nw
        assert detect_twins(p5) == []

    def test_triangle_total_symmetry(self):
        k3 = Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)])
        twins = detect_twins(k3)
        assert {r.vertices for r in twins} == {
            frozenset({1, 2}),
            frozenset({1, 3}),
            frozenset({2, 3}),
        }
        assert all(abs(r.witness.value - 3.0) <= 1e-12 for r in twins)  # adjacent pair

    def test_witness_is_exact_eigenvector(self, fig_graph):
        lap = laplacian(fig_graph)
        for rec in detect_twins(fig_graph):
            res = lap @ rec.witness.vector - rec.witness.value * rec.witness.vector
            assert np.max(np.abs(res)) == 0.0

    def test_completeness_at_size_two(self):
        # twin detection is an iff: it must equal the brute-force 2-sets
        rng = random.Random(77)
        for _ in range(10):
            g = random_connected_graph(rng.randint(3, 9), rng, extra_edges=rng.randint(0, 5))
            brute_pairs = {
                s for s in enumerate_mpcs_bruteforce(g).vertex_sets() if len(s) == 2
            }
            assert {r.vertices for r in detect_twins(g)} == brute_pairs


class TestDetectQuads:
    def test_two_paths_at_one_spine_vertex(self):
        g = build_lobster(LobsterSpec.make(7, [(), (), (), (2, 2), (), (), ()]))
        quads = detect_quads(g)
        assert len(quads) == 1
        rec = quads[0]
        assert rec.vertices == frozenset({8, 9, 10, 11})
        assert abs(rec.witness.value - QUAD_EIGENVALUE) <= 1e-9

    def test_quad_witness_shape(self):
        g = build_lobster(LobsterSpec.make(7, [(), (), (), (2, 2), (), (), ()]))
        rec = detect_quads(g)[0]
        y = rec.witness.vector
        inner1, tip1, inner2, tip2 = 8, 9, 10, 11
        scaled = y / y[inner1 - 1]
        expected = {tip1: GOLDEN, inner2: -1.0, tip2: -GOLDEN}
        for v, val in expected.items():
            assert abs(scaled[v - 1] - val) <= 1e-8

    def test_p5_center_quad(self, p5):
        quads = detect_quads(p5)
        assert len(quads) == 1 and quads[0].vertices == frozenset({1, 2, 4, 5})
        assert abs(quads[0].witness.value - QUAD_EIGENVALUE) <= 1e-9

    def test_three_paths_give_three_quads(self):
        # star of three 2-paths: center 1, legs (2,3), (4,5), (6,7)
        g = Graph.from_edges(7, [(1, 2), (2, 3), (1, 4), (4, 5), (1, 6), (6, 7)])
        quads = {r.vertices for r in detect_quads(g)}
        assert quads == {
            frozenset({2, 3, 4, 5}),
            frozenset({2, 3, 6, 7}),
            frozenset({4, 5, 6, 7}),
        }
        # brute force confirms each pair's support is achievable
        assert quads <= enumerate_mpcs_bruteforce(g).vertex_sets()

    def test_no_two_paths_no_quads(self):
        g = build_lobster(LobsterSpec.make(6, [(), (1,), (), (1, 1), (), ()]))
        assert detect_quads(g) == []


class TestDetectSpinePatterns:
    def build_eight_fixture(self) -> Graph:
        # spine path a-b-c-d as 1-2-3-4, 2-path on 1 (5-6), pendants on 2 and
        # 3 (7, 8), 2-path on 4 (9-10); the canonical spine swallows both
        # end 2-paths
        return Graph.from_edges(
            10,
            [(1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (2, 7), (3, 8), (4, 9), (9, 10)],
        )

    def test_minimal_eight_pattern(self):
        g = self.build_eight_fixture()
        pats = detect_spine_patterns(g, attachment_profile(g, find_spine(g)))
        assert len(pats) == 1
        rec = pats[0]
        assert rec.vertices == frozenset({2, 3, 5, 6, 7, 8, 9, 10})
        assert rec.origin == "spine8"
        assert any(abs(rec.witness.value - lam) <= 1e-8 for lam in SPINE_EIGENVALUES)
        # the brute-force catalog is the authority on this fixture
        assert rec.vertices in enumerate_mpcs_bruteforce(g).vertex_sets()

    def test_mid_spine_eight_pattern(self):
        # same pattern embedded strictly inside a longer spine
        spec = LobsterSpec.make(8, [(), (), (2,), (1,), (1,), (2,), (), ()])
        g = build_lobster(spec)
        pats = detect_spine_patterns(g, attachment_profile(g, find_spine(g)))
        assert any(
            rec.vertices == frozenset({9, 10, 4, 11, 5, 12, 13, 14}) for rec in pats
        )

    def test_twelve_vertex_pattern(self):
        # two interior pairs separated by one excluded spine vertex, flanked
        # by 2-path carriers on both sides
        spec = LobsterSpec.make(
            11, [(), (), (2,), (1,), (1,), (), (1,), (1,), (2,), (), ()]
        )
        g = build_lobster(spec)
        pats = detect_spine_patterns(g, attachment_profile(g, find_spine(g)))
        sizes = {len(r.vertices) for r in pats}
        assert 12 in sizes
        twelve = next(r for r in pats if len(r.vertices) == 12)
        assert any(abs(twelve.witness.value - lam) <= 1e-8 for lam in SPINE_EIGENVALUES)
        assert twelve.origin == "spine4n"

    def test_caterpillar_without_two_paths_empty(self):
        g = build_lobster(LobsterSpec.make(7, [(), (1,), (1,), (), (1, 1), (), ()]))
        assert detect_spine_patterns(g, attachment_profile(g, find_spine(g))) == []

    def test_quad_only_lobster_empty(self):
        g = build_lobster(LobsterSpec.make(7, [(), (), (2,), (), (2,), (), ()]))
        assert detect_spine_patterns(g, attachment_profile(g, find_spine(g))) == []

    def test_catalog_independent_of_spine_orientation(self):
        # The run layout is mirror-symmetric, so one scan must find what a
        # scan of the reversed spine finds.
        configs = [c for c in BASE_CONFIGS if sum(c) <= 2]
        specs = [
            LobsterSpec.make(6, [(), *pattern, ()])
            for pattern in itertools.product(configs, repeat=4)
        ]
        rng = random.Random(131)
        for _ in range(40):
            length = rng.randint(8, 40)
            attach = [rng.choice([(1,), (2,), ()]) for _ in range(length)]
            specs.append(LobsterSpec.make(length, attach))
        # three pendant pairs between the two spine-end segments: 16-vertex runs
        specs.append(
            LobsterSpec.make(
                14, [(), (), (), (1,), (1,), (), (1,), (1,), (), (1,), (1,), (2,), (), ()]
            )
        )
        origins = set()
        end_flank = False
        for spec in specs:
            g = build_lobster(spec)
            spine = find_spine(g)
            records = detect_spine_patterns(g, attachment_profile(g, spine))
            mirrored = detect_spine_patterns(g, attachment_profile(g, spine[::-1]))
            assert catalog_to_json(mirrored) == catalog_to_json(records), spec
            origins.update(r.origin for r in records)
            end_flank |= any({spine[0], spine[-1]} & r.vertices for r in records)
        assert origins == {"spine8", "spine4n"} and end_flank


class TestVerifyMpcs:
    def test_confirms_benchmark_pair(self, fig_graph):
        ok, rec = verify_mpcs(fig_graph, {1, 3}, origin="twin", expected_values=(1.0,))
        assert ok and rec.vertices in enumerate_mpcs_bruteforce(fig_graph).vertex_sets()

    def test_rejects_triple(self, fig_graph):
        ok, rec = verify_mpcs(fig_graph, {1, 3, 5}, origin="spectral")
        assert not ok and rec is None

    def test_p5_quad_with_expected_eigenvalue(self, p5):
        ok, rec = verify_mpcs(
            p5, {1, 2, 4, 5}, origin="quad", expected_values=(QUAD_EIGENVALUE,)
        )
        assert ok and rec.vertices in enumerate_mpcs_bruteforce(p5).vertex_sets()
        y = rec.witness.vector / rec.witness.vector[1]  # normalize at inner vertex 2
        assert abs(y[0] - GOLDEN) <= 1e-8
        assert abs(y[3] + 1.0) <= 1e-8
        assert abs(y[4] + GOLDEN) <= 1e-8

    def test_wrong_expected_eigenvalue_fails(self, fig_graph):
        ok, _ = verify_mpcs(fig_graph, {1, 3}, origin="twin", expected_values=(2.0,))
        assert not ok

    def test_detectors_and_csa_never_enumerate(self, monkeypatch):
        # A spine-8 run flanked by 2-paths plus a quad, n = 14, under a
        # relabelling no other test builds, so no cache can hide a call.
        base = build_lobster(LobsterSpec.make(6, [(), (2,), (1,), (1,), (2, 2), ()]))
        perm = list(range(1, base.n + 1))
        random.Random(8191).shuffle(perm)
        g = Graph.from_edges(base.n, [(perm[u - 1], perm[w - 1]) for u, w in base.edges])
        original = lobsterctrl.mpcs.enumerate_pcs_bruteforce
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("lobsterctrl") and getattr(
                module, "enumerate_pcs_bruteforce", None
            ) is original:
                monkeypatch.setattr(module, "enumerate_pcs_bruteforce", counting)
        detect_twins(g)
        assert detect_quads(g) and detect_spine_patterns(g, attachment_profile(g, find_spine(g)))
        assert run_csa(g).status == "found"
        assert calls == []


class TestStructuralProperties:
    def test_no_size_three_mpcs_on_random_graphs(self):
        rng = random.Random(101)
        for _ in range(40):
            g = random_connected_graph(rng.randint(4, 10), rng, extra_edges=rng.randint(0, 4))
            assert all(len(s) != 3 for s in enumerate_mpcs_bruteforce(g).vertex_sets())

    def test_no_critical_singleton(self):
        rng = random.Random(103)
        for _ in range(20):
            g = random_connected_graph(rng.randint(3, 9), rng, extra_edges=rng.randint(0, 3))
            for v in range(1, g.n + 1):
                assert is_critical(g, {v}) is None

    def test_outside_neighborhood_sizes_of_pcs(self):
        # no PCS admits an outside vertex seeing exactly 1 or exactly k-1
        rng = random.Random(107)
        for _ in range(12):
            g = random_connected_graph(rng.randint(4, 9), rng, extra_edges=rng.randint(0, 4))
            for rec in enumerate_pcs_bruteforce(g):
                k = len(rec.vertices)
                for v in range(1, g.n + 1):
                    if v in rec.vertices:
                        continue
                    seen = len(set(g.adjacency[v]) & rec.vertices)
                    assert seen != 1 and (k < 2 or seen != k - 1), (
                        sorted(g.edges),
                        sorted(rec.vertices),
                        v,
                    )

    def test_module_condition_implies_critical(self):
        # outside vertices seeing all-or-nothing of S force S critical
        rng = random.Random(109)
        for _ in range(10):
            g = random_connected_graph(rng.randint(4, 8), rng, extra_edges=rng.randint(0, 4))
            for r in range(2, g.n + 1):
                for combo in itertools.combinations(range(1, g.n + 1), r):
                    s = set(combo)
                    outside = [v for v in range(1, g.n + 1) if v not in s]
                    views = {len(set(g.adjacency[v]) & s) for v in outside}
                    if views <= {0, len(s)}:
                        assert is_critical(g, s) is not None, (sorted(g.edges), combo)

    def test_detector_soundness_on_random_lobsters(self):
        rng = random.Random(113)
        lobsters = [
            build_lobster(random_lobster(rng.randint(4, 8), seed=rng.randrange(10**6)))
            for _ in range(10)
        ]
        # every spine-6 lobster of load at most 2: 4**4 attachment patterns, n <= 14
        configs = [c for c in BASE_CONFIGS if sum(c) <= 2]
        lobsters += [
            build_lobster(LobsterSpec.make(6, [(), *pattern, ()]))
            for pattern in itertools.product(configs, repeat=4)
        ]
        for g in lobsters:
            profile = attachment_profile(g, find_spine(g))
            records = detect_twins(g) + detect_quads(g) + detect_spine_patterns(g, profile)
            catalog = enumerate_mpcs_bruteforce(g).vertex_sets() if g.n <= 16 else None
            for rec in records:
                ok, _ = verify_mpcs(g, rec.vertices, rec.origin)
                assert ok
                assert catalog is None or rec.vertices in catalog


class TestCatalogJson:
    def test_shape(self, fig_graph):
        payload = json.loads(catalog_to_json(enumerate_mpcs_bruteforce(fig_graph).records))
        assert len(payload) == 4
        for item in payload:
            assert set(item) == {"vertices", "kind", "origin", "lambda"}
            assert item["kind"] == "MPCS"
            assert item["origin"] == "brute-force"
            assert item["lambda"] == pytest.approx(1.0, abs=1e-9)

    def test_decomposition_cache_reuse(self, fig_graph):
        assert graph_decomposition(fig_graph) is graph_decomposition(fig_graph)
