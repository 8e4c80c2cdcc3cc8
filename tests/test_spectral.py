import math
import random

import numpy as np
import pytest
import sympy

from lobsterctrl.control import pbh_controllable
from lobsterctrl.csa import run_csa
from lobsterctrl.graph import build_lobster, laplacian, random_lobster
from lobsterctrl.spectral import (
    GROUP_TOL,
    ZERO_TOL,
    Witness,
    eigen_decompose,
    exists_support_exactly,
    vanishing_subspace,
)

from .conftest import random_connected_graph

GOLDEN_RATIO_EIGENVALUE = (3 - math.sqrt(5)) / 2


def decompose(g):
    return eigen_decompose(laplacian(g))


class TestEigenDecompose:
    def test_k2_spectrum(self, k2):
        decomp = decompose(k2)
        assert [round(sp.value, 12) for sp in decomp.spaces] == [0.0, 2.0]
        assert all(sp.multiplicity == 1 for sp in decomp.spaces)

    def test_benchmark_multiplicity_of_one(self, fig_graph):
        # oracle: exact characteristic polynomial of the integer matrix
        lam = sympy.symbols("lam")
        poly = sympy.Matrix(laplacian(fig_graph)).charpoly(lam)
        multiplicity = sympy.roots(poly.as_expr(), lam).get(sympy.Integer(1), 0)
        assert multiplicity == 3

        decomp = decompose(fig_graph)
        space = next(sp for sp in decomp.spaces if abs(sp.value - 1.0) < 1e-9)
        assert space.multiplicity == 3

    def test_p5_contains_golden_ratio_eigenvalue(self, p5):
        decomp = decompose(p5)
        assert any(
            abs(sp.value - GOLDEN_RATIO_EIGENVALUE) <= 1e-9 for sp in decomp.spaces
        )

    def test_multiplicities_sum_to_n(self, fig_graph):
        decomp = decompose(fig_graph)
        assert sum(sp.multiplicity for sp in decomp.spaces) == 7

    def test_zero_space_is_all_ones(self, fig_graph):
        decomp = decompose(fig_graph)
        first = decomp.spaces[0]
        assert abs(first.value) < 1e-9 and first.multiplicity == 1
        col = first.basis[:, 0]
        assert np.allclose(col, col[0], atol=1e-9) and abs(col[0]) > 0

    def test_nonzero_spaces_orthogonal_to_ones(self):
        g = build_lobster(random_lobster(10, seed=3))
        for sp in decompose(g).spaces[1:]:
            assert np.max(np.abs(sp.basis.T.sum(axis=1))) <= 1e-8

    def test_reconstruction(self, fig_graph):
        lap = laplacian(fig_graph)
        back = decompose(fig_graph).reconstruct()
        assert np.max(np.abs(back - lap)) <= 1e-7 * np.max(np.abs(lap))

    def test_eigenvalues_strictly_increasing_between_groups(self):
        g = build_lobster(random_lobster(12, seed=9))
        values = [sp.value for sp in decompose(g).spaces]
        for a, b in zip(values, values[1:]):
            assert b - a > GROUP_TOL * max(1.0, abs(b))

    def test_basis_orthonormal(self, fig_graph):
        for sp in decompose(fig_graph).spaces:
            eye = sp.basis.T @ sp.basis
            assert np.max(np.abs(eye - np.eye(sp.multiplicity))) <= 1e-10

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            eigen_decompose(np.array([[0, 1], [2, 0]]))

    def test_near_miss_gap_is_flagged(self):
        decomp = eigen_decompose(np.diag([0.0, 1.0, 1.0 + 1e-7]))
        assert len(decomp.spaces) == 3
        assert len(decomp.near_miss_gaps) == 1
        assert decomp.near_miss_gaps[0] == pytest.approx(1e-7, rel=1e-3)

    def test_exact_multiplicity_grouped_without_flag(self, fig_graph):
        decomp = decompose(fig_graph)
        assert decomp.near_miss_gaps == ()


class TestVanishingSubspace:
    def test_empty_set_identity(self, fig_graph):
        space = decompose(fig_graph).spaces[1]
        basis, margin = vanishing_subspace(space, [])
        assert basis.shape == (space.multiplicity, space.multiplicity)
        assert margin == float("inf")

    def test_benchmark_rows_2_4_are_free(self, fig_graph):
        # exact oracle: nullspace of (L - I) over the rationals shows the
        # eigenvalue-1 eigenspace satisfies y2 = y4 = 0 identically
        lap = sympy.Matrix(laplacian(fig_graph))
        null = (lap - sympy.eye(7)).nullspace()
        assert len(null) == 3
        assert all(vec[1] == 0 and vec[3] == 0 for vec in null)

        space = next(sp for sp in decompose(fig_graph).spaces if abs(sp.value - 1) < 1e-9)
        assert vanishing_subspace(space, [2, 4])[0].shape[1] == 3

    def test_all_vertices_gives_zero(self, fig_graph):
        for sp in decompose(fig_graph).spaces:
            assert vanishing_subspace(sp, range(1, 8))[0].shape[1] == 0


class TestExistsSupportExactly:
    def test_benchmark_pair_witness(self, fig_graph):
        w = exists_support_exactly(decompose(fig_graph), {1, 3})
        assert w is not None and abs(w.value - 1.0) < 1e-9
        # y proportional to e1 - e3: direct residual check against L
        lap = laplacian(fig_graph)
        assert np.max(np.abs(lap @ w.vector - w.value * w.vector)) <= 1e-7
        assert abs(w.vector[0] + w.vector[2]) <= 1e-9
        assert np.max(np.abs(w.vector[[1, 3, 4, 5, 6]])) <= 1e-9

    def test_non_critical_pair(self, fig_graph):
        assert exists_support_exactly(decompose(fig_graph), {3, 5}) is None

    def test_critical_but_not_perfect(self, fig_graph):
        # y2 = 0 is forced on every eigenvector supported inside this set
        assert exists_support_exactly(decompose(fig_graph), {1, 2, 3, 5, 6, 7}) is None

    def test_full_vertex_set_yields_all_ones(self, fig_graph):
        w = exists_support_exactly(decompose(fig_graph), range(1, 8))
        assert w is not None and abs(w.value) < 1e-9
        assert np.allclose(w.vector, w.vector[0])

    def test_witness_bounds_random_graphs(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_connected_graph(rng.randint(4, 9), rng, extra_edges=rng.randint(0, 3))
            decomp = decompose(g)
            lap = laplacian(g)
            w = exists_support_exactly(decomp, range(1, g.n + 1))
            if w is None:
                continue
            assert isinstance(w, Witness)
            assert np.max(np.abs(lap @ w.vector - w.value * w.vector)) <= 1e-7
            assert np.min(np.abs(w.vector)) > 1e-8

    def test_rejects_empty_support(self, fig_graph):
        with pytest.raises(ValueError):
            exists_support_exactly(decompose(fig_graph), set())


def test_lobster_bases_orthonormal_and_witness_signs_fixed():
    """Bases are eigh's own orthonormal columns, and every PBH witness is
    positive at its first entry above ZERO_TOL and holds no -0.0."""
    rng = random.Random(0x5161)
    witnesses = 0
    for i in range(16):
        spine_len = 6 + (160 - 6) * i // 15
        g = build_lobster(random_lobster(spine_len, rng.getrandbits(32), 2 + 2 * (i % 2)))
        vectors = decompose(g).vectors
        assert np.max(np.abs(vectors.T @ vectors - np.eye(g.n))) <= 1e-12
        leaders = run_csa(g).sorted_leaders()
        for subset in (leaders[1:], leaders[:1], [g.n], rng.sample(range(1, g.n + 1), 3)):
            witness = pbh_controllable(g, subset).witness if subset else None
            if witness is None:
                continue
            witnesses += 1
            vec = witness.vector
            assert vec[np.flatnonzero(np.abs(vec) > ZERO_TOL)[0]] > 0
            assert not np.any(np.signbit(vec) & (vec == 0))
    assert witnesses > 40
