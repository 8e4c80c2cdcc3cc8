"""Tests of the benchmark's independent checkers on known facts.

Run from the repository root:  python3 -m pytest bench/test_checkers.py
"""
import os
import random
import sys

import pytest

from checkers import (
    PRIMES,
    check_uncontrollable_witness,
    controllable_mod_p,
    kalman_rank_mod_p,
    twin_classes,
    twin_violations,
)

# The 7-vertex figure graph of the paper: leaves 1 and 3 at vertex 2,
# leaves 5, 6 and 7 at vertex 4.
FIG_N = 7
FIG_EDGES = [(1, 2), (2, 3), (2, 4), (4, 5), (4, 6), (4, 7)]


def path_edges(n):
    return [(i, i + 1) for i in range(1, n)]


def test_primes_are_prime():
    for p in PRIMES:
        assert all(p % d for d in range(2, int(p**0.5) + 1)), p


def test_figure_graph_ranks():
    assert kalman_rank_mod_p(FIG_N, FIG_EDGES, [1, 4, 6], PRIMES[0]) == (3, 4)
    assert kalman_rank_mod_p(FIG_N, FIG_EDGES, [1, 5, 6], PRIMES[0]) == (4, 4)
    assert controllable_mod_p(FIG_N, FIG_EDGES, [1, 5, 6]) == (True, 4)
    assert controllable_mod_p(FIG_N, FIG_EDGES, [1, 4, 6]) == (False, 3)


@pytest.mark.parametrize("n", [2, 5, 12, 40])
def test_path_controlled_from_one_end(n):
    assert kalman_rank_mod_p(n, path_edges(n), [1], PRIMES[0]) == (n - 1, n - 1)
    assert kalman_rank_mod_p(n, path_edges(n), [n], PRIMES[1]) == (n - 1, n - 1)


def test_odd_path_from_the_middle_is_uncontrollable():
    # Reflection symmetry: antisymmetric eigenvectors vanish on the centre.
    rank, n_f = kalman_rank_mod_p(9, path_edges(9), [5], PRIMES[0])
    assert rank < n_f == 8


def test_all_leaders_has_no_followers():
    assert kalman_rank_mod_p(3, path_edges(3), [1, 2, 3], PRIMES[0]) == (0, 0)


def test_witness_check_on_figure_graph():
    # e5 - e7 is an eigenvector for eigenvalue 1 that vanishes on 1, 4 and 6.
    good = [0, 0, 0, 0, 1, 0, -1]
    assert check_uncontrollable_witness(FIG_N, FIG_EDGES, [1, 4, 6], 1.0, good) is None
    assert "on a leader" in check_uncontrollable_witness(FIG_N, FIG_EDGES, [1, 5, 6], 1.0, good)
    assert "residual" in check_uncontrollable_witness(FIG_N, FIG_EDGES, [1, 4, 6], 2.0, good)
    not_eigen = [0, 0, 0, 0, 1, -1, 0.5]
    assert "residual" in check_uncontrollable_witness(FIG_N, FIG_EDGES, [1, 4], 1.0, not_eigen)
    assert "zero" in check_uncontrollable_witness(FIG_N, FIG_EDGES, [1], 1.0, [0] * 7)


def test_twin_classes():
    assert sorted(map(sorted, twin_classes(FIG_N, FIG_EDGES))) == [[1, 3], [5, 6, 7]]
    assert twin_violations(FIG_N, FIG_EDGES, [1, 4, 6]) == [frozenset({5, 6, 7})]
    assert twin_violations(FIG_N, FIG_EDGES, [1, 5, 6]) == []
    # K2: the two ends share a closed neighbourhood.
    assert twin_classes(2, [(1, 2)]) == [frozenset({1, 2})]
    assert twin_classes(5, path_edges(5)) == []


def test_modular_rank_matches_the_exact_rank_on_random_trees():
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    from lobsterctrl.control import kalman_controllable_exact
    from lobsterctrl.graph import Graph

    rng = random.Random(2202)
    for _ in range(60):
        n = rng.randint(2, 30)
        edges = [(rng.randint(1, v - 1), v) for v in range(2, n + 1)]
        leaders = rng.sample(range(1, n + 1), rng.randint(1, max(1, n // 3)))
        exact = kalman_controllable_exact(Graph.from_edges(n, edges), leaders)
        rank, n_f = kalman_rank_mod_p(n, edges, leaders, PRIMES[0])
        assert rank == exact.rank and (rank == n_f) == exact.controllable


def test_near_degenerate_spectrum():
    from workloads import near_degenerate

    assert not near_degenerate([0.0, 1.0, 2.0, 3.0])
    # An exact multiplicity, up to rounding, is not near-degenerate.
    assert not near_degenerate([0.0, 1.0, 1.0 + 1e-15, 1.0 + 2e-15, 4.0])
    # Two values 7.8e-9 apart, as on the lobster in CHANGES.md, are.
    assert near_degenerate([0.0, 0.47128945, 0.47128945 + 7.8e-9, 3.0])
    # The gap is relative to max(1, |value|).
    assert not near_degenerate([0.0, 1e4, 1e4 + 1e-7])
    assert near_degenerate([0.0, 1e4, 1e4 + 1e-5])
