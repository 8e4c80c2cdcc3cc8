"""Critical vertex sets of Laplacian eigenvectors.

A vertex set is *critical* (CS) when some Laplacian eigenvector is supported
inside it, *perfect critical* (PCS) when some eigenvector is supported on
exactly it, and a *minimum perfect critical set* (MPCS) when additionally no
proper subset is a PCS.  Every leader set must intersect every MPCS, so the
MPCS catalog of a graph is the combinatorial core of minimal leader
selection.

The module provides the predicates, three structural detectors for
lobsters (twin pairs, quads made of two pendant 2-paths at a common vertex,
and spine-run patterns of size 8, 12, 16, ... whose eigenvalues are the
roots of (x - 1)(x - 2) = 1), and a complete brute-force catalog.  The
predicates check their vertex set with `Graph.vertex_set`, as the
controllability tests do, and read eigenvector supports through
`spectral.vanishing_witness` and `spectral.spans_inside`.  Detectors
generate candidates; the spectral verifier is the authority on what gets
emitted.  The brute-force catalog is exponential and capped at small n: it
is the reference for ``lobster-ctrl mpcs --brute`` and the tests, and no
detector or check calls it.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .graph import AttachmentProfile, Graph, GraphError, laplacian
from .spectral import (
    ZERO_TOL,
    Eigenspace,
    SpectralDecomposition,
    Witness,
    eigen_decompose,
    exists_support_exactly,
    spans_inside,
    vanishing_subspace,
    vanishing_witness,
    _generic_witness,
)

__all__ = [
    "CriticalRecord",
    "MpcsCatalog",
    "QUAD_EIGENVALUE",
    "SPINE_EIGENVALUES",
    "graph_decomposition",
    "is_critical",
    "is_perfect_critical",
    "is_mpcs",
    "enumerate_pcs_bruteforce",
    "enumerate_mpcs_bruteforce",
    "detect_twins",
    "detect_quads",
    "detect_spine_patterns",
    "verify_mpcs",
    "catalog_to_json",
]

BRUTEFORCE_N_CAP = 16
EXPECTED_LAMBDA_TOL = 1e-8

# Eigenvalue of the quad pattern (two pendant 2-paths at one vertex) and the
# two roots of (x - 1)(x - 2) = 1 carried by the spine-run patterns.
QUAD_EIGENVALUE = (3.0 - math.sqrt(5.0)) / 2.0
SPINE_EIGENVALUES = ((3.0 - math.sqrt(5.0)) / 2.0, (3.0 + math.sqrt(5.0)) / 2.0)


@dataclass(frozen=True, eq=False)
class CriticalRecord:
    """A vertex set tagged PCS or MPCS with its witness eigenpair."""

    vertices: frozenset[int]
    kind: str  # "PCS" (brute-force support enumeration) | "MPCS"
    origin: str  # "twin" | "quad" | "spine8" | "spine4n" | "brute-force" | "spectral"
    witness: Witness | None

    def sorted_vertices(self) -> list[int]:
        return sorted(self.vertices)


@dataclass(frozen=True, eq=False)
class MpcsCatalog:
    records: tuple[CriticalRecord, ...]

    def vertex_sets(self) -> set[frozenset[int]]:
        return {r.vertices for r in self.records}


@lru_cache(maxsize=1)
def graph_decomposition(g: Graph) -> SpectralDecomposition:
    """The Laplacian eigendecomposition shared by detectors and checks.

    One entry holds the graph of the current CSA run, which never returns to
    an earlier graph; the spectral module itself stays pure.
    """
    return eigen_decompose(laplacian(g))


def is_critical(g: Graph, vertices) -> Witness | None:
    """Witness eigenvector supported inside the given set, or None."""
    s = g.vertex_set(vertices)
    complement = [v for v in range(1, g.n + 1) if v not in s]
    return vanishing_witness(graph_decomposition(g), complement)[0]


def is_perfect_critical(g: Graph, vertices) -> Witness | None:
    """Witness eigenvector supported on exactly the given set, or None."""
    return exists_support_exactly(graph_decomposition(g), g.vertex_set(vertices))


def is_mpcs(g: Graph, vertices) -> tuple[bool, Witness | None]:
    """Whether the set is a minimum perfect critical set, plus a witness."""
    ok, record = verify_mpcs(g, vertices, origin="spectral")
    return ok, (record.witness if ok else None)


# ---------------------------------------------------------------------------
# Brute-force enumeration of eigenvector supports
# ---------------------------------------------------------------------------


def _achievable_supports(space: Eigenspace) -> dict[frozenset[int], Witness]:
    """All supports of eigenvectors in one eigenspace, with generic witnesses.

    Every zero pattern of a vector in a k-dimensional space is the common
    zero set of a generic vector in the annihilator of at most k-1 basis
    rows, so enumerating row subsets of size < k covers every achievable
    support.
    """
    n, k = space.basis.shape
    out: dict[frozenset[int], Witness] = {}
    for size in range(k):
        for combo in itertools.combinations(range(1, n + 1), size):
            span = space.basis @ vanishing_subspace(space, combo)[0]
            scale = np.max(np.abs(span))
            if scale == 0:
                continue
            row_max = np.max(np.abs(span), axis=1)
            support = frozenset(int(i) + 1 for i in np.nonzero(row_max > ZERO_TOL * scale)[0])
            if not support or support in out:
                continue
            rows = [v - 1 for v in sorted(support)]
            out[support] = Witness.scaled(space.value, _generic_witness(span, rows))
    return out


def enumerate_pcs_bruteforce(g: Graph) -> list[CriticalRecord]:
    """Every perfect critical set of the graph (exact eigenvector supports)."""
    if g.n > BRUTEFORCE_N_CAP:
        raise GraphError(f"brute-force enumeration capped at n={BRUTEFORCE_N_CAP}")
    decomp = graph_decomposition(g)
    found: dict[frozenset[int], Witness] = {}
    for sp in decomp.spaces:
        for support, witness in _achievable_supports(sp).items():
            found.setdefault(support, witness)
    records = [
        CriticalRecord(vertices=s, kind="PCS", origin="brute-force", witness=w)
        for s, w in found.items()
    ]
    records.sort(key=lambda r: (len(r.vertices), r.sorted_vertices()))
    return records


def enumerate_mpcs_bruteforce(g: Graph) -> MpcsCatalog:
    """The complete MPCS catalog of a small graph.

    Minimal eigenvector supports: enumerate all achievable supports per
    eigenspace, then keep the inclusion-minimal ones across eigenspaces.
    """
    pcs = enumerate_pcs_bruteforce(g)
    minimal: list[CriticalRecord] = []
    for rec in pcs:  # already sorted by size
        if any(kept.vertices < rec.vertices for kept in minimal):
            continue
        minimal.append(replace(rec, kind="MPCS"))
    return MpcsCatalog(records=tuple(minimal))


# ---------------------------------------------------------------------------
# Structural detectors
# ---------------------------------------------------------------------------


def detect_twins(g: Graph) -> list[CriticalRecord]:
    """All pairs whose outside vertices see both or neither member.

    Such pairs are always 2-MPCSs; the witness is the difference of the two
    indicator vectors with eigenvalue deg(u), plus one when the pair is
    adjacent.  This is exact, no verification needed.
    """
    # Non-adjacent twins share their open neighbourhood, adjacent twins
    # their closed one; the two groupings never share a pair.
    groups: dict[tuple, list[int]] = {}
    for v in range(1, g.n + 1):
        nbrs = g.adjacency[v]
        groups.setdefault(("open", nbrs), []).append(v)
        groups.setdefault(("closed", tuple(sorted(nbrs + (v,)))), []).append(v)
    pairs = sorted(
        (u, w, kind == "closed")
        for (kind, _), members in groups.items()
        for u, w in itertools.combinations(members, 2)
    )
    records = []
    for u, w, adjacent in pairs:
        lam = g.degree(u) + (1 if adjacent else 0)
        vec = np.zeros(g.n)
        vec[u - 1], vec[w - 1] = 1.0, -1.0
        records.append(
            CriticalRecord(
                vertices=frozenset((u, w)),
                kind="MPCS",
                origin="twin",
                witness=Witness(value=float(lam), vector=vec),
            )
        )
    return records


def _pendant_two_paths(g: Graph, v: int) -> list[tuple[int, int]]:
    """(inner, tip) pairs of pendant 2-paths hanging off v (spine or not)."""
    pairs = []
    for inner in g.adjacency[v]:
        if g.degree(inner) != 2:
            continue
        tip = next(w for w in g.adjacency[inner] if w != v)
        if g.degree(tip) == 1:
            pairs.append((inner, tip))
    return pairs


def detect_quads(g: Graph) -> list[CriticalRecord]:
    """Four-vertex MPCS candidates from pairs of pendant 2-paths.

    Every vertex carrying at least two pendant 2-paths contributes one
    candidate per unordered pair of paths; this covers 2-paths embedded in
    the spine itself (the 5-path realizes one around its center).  Each
    candidate is verified before emission.
    """
    records = []
    for v in range(1, g.n + 1):
        for p, q in itertools.combinations(_pendant_two_paths(g, v), 2):
            ok, record = verify_mpcs(
                g, p + q, origin="quad", expected_values=(QUAD_EIGENVALUE,)
            )
            if ok:
                records.append(record)
    records.sort(key=lambda r: r.sorted_vertices())
    return records


def detect_spine_patterns(g: Graph, profile: AttachmentProfile) -> list[CriticalRecord]:
    """Spine-run MPCS candidates of size 8, 12, 16, ...

    Layout per candidate: a flank spine vertex outside the set contributing
    a pendant 2-path, then one or more adjacent spine pairs inside the set
    (each pair vertex carrying exactly one pendant, also inside), pairs
    separated by single excluded spine vertices, closed by a mirror flank
    with its own pendant 2-path.  A bare spine end segment is a pendant
    2-path of the third vertex from that end.  The layout is mirror-symmetric,
    so scanning one spine orientation finds every candidate.  Each candidate
    must verify with an eigenvalue among the two roots of (x - 1)(x - 2) = 1.
    """
    # The one pendant of a spine vertex with p1 == 1 and p2 == 0 is a leaf.
    pendant = [
        s1[0] if p1 == 1 and p2 == 0 else None
        for p1, p2, s1 in zip(profile.p1, profile.p2, profile.s1)
    ]
    spine = profile.spine
    records: list[CriticalRecord] = []
    for left in range(len(spine)):
        left_paths = _pendant_two_paths(g, spine[left])
        if not left_paths:
            continue
        core: set[int] = set()
        m = 1
        while left + 3 * m < len(spine):
            a, b = left + 3 * m - 2, left + 3 * m - 1
            if pendant[a] is None or pendant[b] is None:
                break  # longer runs reuse these interior slots
            core.update((spine[a], pendant[a], spine[b], pendant[b]))
            right_paths = _pendant_two_paths(g, spine[left + 3 * m])
            for lp, rp in itertools.product(left_paths, right_paths):
                ok, record = verify_mpcs(
                    g,
                    core.union(lp, rp),
                    origin="spine8" if m == 1 else "spine4n",
                    expected_values=SPINE_EIGENVALUES,
                )
                if ok:
                    records.append(record)
            m += 1
    records.sort(key=lambda r: (len(r.vertices), r.sorted_vertices()))
    return records


def verify_mpcs(
    g: Graph, vertices, origin: str, expected_values: tuple[float, ...] | None = None
) -> tuple[bool, CriticalRecord | None]:
    """Certify a candidate MPCS and build its record.

    The ids pass `Graph.vertex_set`.  The set is an MPCS iff every entry of
    `spans_inside` is one column wide and `full`, and there is at least one
    entry.  (A 2-dimensional span always holds a vector vanishing at any
    chosen vertex of the set, and a vector with a zero on the set has a
    proper subset as its support; either way some proper subset is a PCS.)
    When expected_values is given, the witness eigenvalue must also match
    one of them within 1e-8.  The verdict is spectral at every size; the
    brute-force catalog, a small-n reference for ``mpcs --brute`` and the
    tests, is never consulted.
    """
    s = g.vertex_set(vertices)
    witnesses: list[Witness] = []
    for sp, span, full in spans_inside(graph_decomposition(g), s):
        if span.shape[1] > 1 or not full:
            return False, None
        witnesses.append(Witness.scaled(sp.value, span[:, 0]))
    if not witnesses:
        return False, None
    if expected_values is not None:
        witnesses = [
            w
            for w in witnesses
            if any(abs(w.value - t) <= EXPECTED_LAMBDA_TOL for t in expected_values)
        ]
        if not witnesses:
            return False, None
    return True, CriticalRecord(vertices=s, kind="MPCS", origin=origin, witness=witnesses[0])


def catalog_to_json(records) -> str:
    """Serialize critical records to the catalog JSON shape."""
    items = [
        {
            "vertices": rec.sorted_vertices(),
            "kind": rec.kind,
            "origin": rec.origin,
            "lambda": rec.witness.value if rec.witness else None,
        }
        for rec in records
    ]
    return json.dumps(items, indent=2)
