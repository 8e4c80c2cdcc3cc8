"""The fast spine, twin, decomposition and vanishing paths against their definitions.

`find_spine` runs four BFS passes, `detect_twins` groups vertices by
neighbourhood, and `vanishing_spaces` decides all one-dimensional eigenspaces
by one column norm.  Each is checked here against the direct definition it
replaced, kept in this file: a BFS from every vertex for the spine, the
pairwise neighbourhood-mask rule for twins, and one `vanishing_subspace` call
per eigenspace for the vanishing eigenspaces.
"""
import math
import random
import sys

import numpy as np
import pytest

import lobsterctrl.spectral
from lobsterctrl.csa import run_csa
from lobsterctrl.graph import Graph, build_lobster, find_spine, random_lobster
from lobsterctrl.mpcs import detect_twins, graph_decomposition, is_critical, is_perfect_critical
from lobsterctrl.spectral import vanishing_spaces, vanishing_subspace

from .conftest import bfs_distances, path_graph, random_connected_graph, random_tree


def spine_by_all_pairs(g: Graph) -> list[int]:
    """The longest path with the lexicographically smallest endpoint pair."""
    best, diameter = None, -1
    for u in range(1, g.n + 1):
        for w, d in bfs_distances(g, u).items():
            if w > u and (d > diameter or (d == diameter and (u, w) < best)):
                diameter, best = d, (u, w)
    if best is None:
        return [1]
    u, w = best
    dist = bfs_distances(g, w)
    path = [u]
    while path[-1] != w:
        path.append(next(y for y in g.adjacency[path[-1]] if dist[y] == dist[path[-1]] - 1))
    return path


def twins_by_masks(g: Graph) -> list[tuple[int, int, float]]:
    """(u, w, eigenvalue) for every pair whose outside vertices see both or neither."""
    masks = {v: sum(1 << (w - 1) for w in g.adjacency[v]) for v in range(1, g.n + 1)}
    out = []
    for u in range(1, g.n + 1):
        for w in range(u + 1, g.n + 1):
            outside = ~((1 << (u - 1)) | (1 << (w - 1)))
            if (masks[u] ^ masks[w]) & outside:
                continue
            adjacent = bool(masks[u] >> (w - 1) & 1)
            out.append((u, w, float(g.degree(u) + adjacent)))
    return out


def relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u - 1], perm[w - 1]) for u, w in g.edges])


def star(n: int, center: int) -> Graph:
    return Graph.from_edges(n, [(center, v) for v in range(1, n + 1) if v != center])


def spider(legs: int, length: int) -> Graph:
    """Equal legs from one center: every pair of leg tips is a longest path."""
    edges, nxt = [], 2
    for _ in range(legs):
        prev = 1
        for _ in range(length):
            edges.append((prev, nxt))
            prev, nxt = nxt, nxt + 1
    return Graph.from_edges(nxt - 1, edges)


def spine_cases():
    rng = random.Random(0x5917E)
    yield Graph(n=1, edges=frozenset())
    yield Graph.from_edges(2, [(1, 2)])
    for n in (3, 4, 9, 30):
        yield path_graph(n)
        yield relabeled(path_graph(n), rng)
    for n in (3, 5, 12):
        for center in (1, n // 2 + 1, n):
            yield star(n, center)
    for legs, length in ((3, 1), (3, 2), (4, 3), (5, 2)):
        yield spider(legs, length)
        for _ in range(3):
            yield relabeled(spider(legs, length), rng)
    for n in (5, 8, 13, 21, 40, 80):
        for _ in range(15):
            yield random_tree(n, rng)  # mostly not lobsters
    for spine_len in (3, 6, 15, 40):
        for _ in range(5):
            lobster = build_lobster(random_lobster(spine_len, rng.getrandbits(32)))
            yield lobster
            yield relabeled(lobster, rng)


def test_find_spine_matches_all_pairs_definition():
    cases = list(spine_cases())
    assert len(cases) > 150
    for g in cases:
        assert find_spine(g) == spine_by_all_pairs(g), sorted(g.edges)


def twin_cases():
    rng = random.Random(0x7A1)
    for n in (1, 2, 3, 6, 12, 25):
        for _ in range(6):
            yield random_tree(n, rng)
    for spine_len in (4, 10, 30):
        for _ in range(4):
            yield relabeled(build_lobster(random_lobster(spine_len, rng.getrandbits(32))), rng)
    for n in (4, 6, 9):
        yield star(n, 1)
        yield Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])
        for extra in (1, 3, 8):
            for _ in range(6):
                yield random_connected_graph(n, rng, extra_edges=extra)
    # disconnected graphs with isolated vertices and adjacent twin pairs
    yield Graph.from_edges(5, [(1, 2), (4, 5)])
    yield Graph(n=3, edges=frozenset())


def test_detect_twins_matches_mask_rule():
    adjacent_pairs = 0
    for g in twin_cases():
        records = detect_twins(g)
        expected = twins_by_masks(g)
        assert [(*r.sorted_vertices(), r.witness.value) for r in records] == expected
        for rec, (u, w, _) in zip(records, expected):
            vec = np.zeros(g.n)
            vec[u - 1], vec[w - 1] = 1.0, -1.0
            assert np.array_equal(rec.witness.vector, vec)
        adjacent_pairs += sum(1 for u, w, _ in expected if w in g.adjacency[u])
    assert adjacent_pairs > 0  # the closed-neighbourhood grouping is exercised


@pytest.mark.parametrize("spine_len, seed", [(20, 1), (40, 5), (60, 9)])
def test_run_csa_decomposes_once(monkeypatch, spine_len, seed):
    original = lobsterctrl.spectral.eigen_decompose
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    # Patch every package namespace that holds the function, so a second
    # cache in any module would be counted too.
    for name, module in list(sys.modules.items()):
        if name.startswith("lobsterctrl") and getattr(module, "eigen_decompose", None) is original:
            monkeypatch.setattr(module, "eigen_decompose", counting)
    graph_decomposition.cache_clear()
    g = build_lobster(random_lobster(spine_len, seed))
    report = run_csa(g)
    assert any(s.step == 6 for s in report.steps)  # many controllability checks ran
    assert len(calls) == 1


def vanishing_by_space(decomp, zero_on):
    """Every eigenspace with a vector vanishing on zero_on, one SVD per eigenspace."""
    found, margin = [], math.inf
    for sp in decomp.spaces:
        coeffs, space_margin = vanishing_subspace(sp, zero_on)
        margin = min(margin, space_margin)
        if coeffs.shape[1]:
            found.append((sp, coeffs))
    return found, margin


def cycle(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i % n + 1) for i in range(1, n + 1)])


def complete(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


def petersen() -> Graph:
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    inner = [(i + 5, (i + 1) % 5 + 6) for i in range(1, 6)]
    return Graph.from_edges(10, outer + spokes + inner)


def vanishing_cases():
    """(graph, vertex set) pairs: trees, lobsters and non-trees with repeated eigenvalues."""
    rng = random.Random(0x7A5)
    graphs = [complete(4), cycle(5), cycle(6), petersen(), star(7, 1), spider(3, 2)]
    graphs.append(Graph.from_edges(5, [(i, j) for i in (1, 2) for j in (3, 4, 5)]))  # K2,3
    graphs += [random_tree(n, rng) for n in (2, 5, 9, 16, 25) for _ in range(3)]
    graphs += [random_connected_graph(n, rng, extra_edges=3) for n in (6, 10, 14)]
    graphs += [
        build_lobster(random_lobster(spine_len, rng.getrandbits(32))) for spine_len in (4, 10, 30)
    ]
    for g in graphs:
        vertices = range(1, g.n + 1)
        yield g, []
        yield g, list(vertices)
        for v in (1, g.n):
            yield g, [v]
            yield g, [w for w in vertices if w != v]
        for size in (2, g.n // 3, g.n // 2, g.n - 2):
            if 0 < size < g.n:
                yield g, rng.sample(list(vertices), size)
        for rec in detect_twins(g):  # complements of eigenvector supports
            yield g, [w for w in vertices if w not in rec.vertices]


def test_vanishing_spaces_matches_per_space_reference():
    cases = list(vanishing_cases())
    seen_multiple = seen_simple = 0
    for g, zero_on in cases:
        decomp = graph_decomposition(g)
        found, margin = vanishing_spaces(decomp, zero_on)
        expected, expected_margin = vanishing_by_space(decomp, zero_on)
        assert [sp for sp, _ in found] == [sp for sp, _ in expected], (sorted(g.edges), zero_on)
        for (_, coeffs), (_, ref) in zip(found, expected):
            assert np.array_equal(coeffs, ref)
        assert margin == pytest.approx(expected_margin, rel=1e-12)
        seen_multiple += any(sp.multiplicity > 1 for sp, _ in found)
        seen_simple += any(sp.multiplicity == 1 for sp, _ in found)
    assert len(cases) > 300 and seen_multiple > 50 and seen_simple > 50


def test_critical_queries_run_no_svd_on_simple_spaces(monkeypatch):
    original = np.linalg.svd
    widths = []

    def counting(a, *args, **kwargs):
        widths.append(a.shape[1])
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    rng = random.Random(0x5BD)
    for spine_len in (8, 20, 40):
        g = build_lobster(random_lobster(spine_len, rng.getrandbits(32)))
        decomp = graph_decomposition(g)
        multiple = sum(sp.multiplicity > 1 for sp in decomp.spaces)
        assert 0 < multiple < len(decomp.spaces)
        for rec in detect_twins(g)[:3]:
            for query in (is_critical, is_perfect_critical):
                widths.clear()
                assert query(g, rec.vertices) is not None
                assert len(widths) == multiple and min(widths) >= 2
