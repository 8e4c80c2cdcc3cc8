"""Symmetric eigendecomposition with eigenvalue grouping and support queries.

Eigenvalues of an integer Laplacian are either exactly equal or well
separated, so near-equal values (within a relative grouping tolerance) are
merged into one eigenspace.  Its basis is the slice of the orthonormal
eigenvectors that `eigh` returned for those values.  On top of the
decomposition sits one query, `vanishing_spaces`: which eigenvectors vanish
on a given vertex set.  The controllability test (none vanishes on the
leaders) and the critical-set predicates (some vanishes off the set) both
read it.  `vanishing_witness` returns its first answer in value order as a
`Witness`; both the controllability test and `mpcs.is_critical` report that
one.  `spans_inside` holds the one support rule: per eigenspace, the span of
the eigenvectors supported inside a set and whether any vertex of the set is
zero across it.  The exact-support witness search and `mpcs.verify_mpcs`
both decide by it.  `Witness.scaled` alone fixes every witness's scale and
sign.

Zero / nonzero decisions on eigenvector entries are tolerance-based; exact
claims are re-checked elsewhere by the rational controllability oracle.
"""
from __future__ import annotations

import hashlib
import math
import random
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Eigenspace",
    "SpectralDecomposition",
    "Witness",
    "eigen_decompose",
    "vanishing_subspace",
    "vanishing_spaces",
    "vanishing_witness",
    "spans_inside",
    "exists_support_exactly",
    "GROUP_TOL",
    "ZERO_TOL",
    "RANK_TOL",
]

GROUP_TOL = 1e-8  # relative gap below which eigenvalues share an eigenspace
ZERO_TOL = 1e-8   # entry below ZERO_TOL * max-norm counts as zero
RANK_TOL = 1e-8   # singular values below this count as zero (bases are orthonormal)
RES_TOL = 1e-9    # eigenpair residual bound, relative to max(1, |lambda|)
NEAR_MISS_BAND = (1e-10, 1e-6)  # suspicious gaps between adjacent groups


@dataclass(frozen=True, eq=False)
class Eigenspace:
    """One eigenvalue with an orthonormal basis of its eigenvectors."""

    value: float
    basis: np.ndarray  # n x k, column-orthonormal

    @property
    def multiplicity(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenspaces in increasing eigenvalue order, multiplicities summing to n.

    Every eigenspace basis is a column slice of the one n x n array
    `vectors`, so a query over many eigenspaces can read their columns in a
    single indexing step.
    """

    spaces: tuple[Eigenspace, ...]
    vectors: np.ndarray  # n x n, the bases of `spaces` side by side
    near_miss_gaps: tuple[float, ...] = ()

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @cached_property
    def space_index(self) -> np.ndarray:
        """Index into `spaces` of each column of `vectors`."""
        sizes = [sp.multiplicity for sp in self.spaces]
        return np.repeat(np.arange(len(sizes)), sizes)

    @cached_property
    def simple_columns(self) -> np.ndarray:
        """Columns of `vectors` that are one-dimensional eigenspaces, ascending."""
        sizes = np.array([sp.multiplicity for sp in self.spaces])
        return np.flatnonzero(sizes[self.space_index] == 1)

    @cached_property
    def multiple_spaces(self) -> tuple[int, ...]:
        """Indices into `spaces` of the eigenspaces of dimension two or more."""
        return tuple(i for i, sp in enumerate(self.spaces) if sp.multiplicity > 1)

    def reconstruct(self) -> np.ndarray:
        n = self.n
        out = np.zeros((n, n))
        for sp in self.spaces:
            out += sp.value * (sp.basis @ sp.basis.T)
        return out


@dataclass(frozen=True, eq=False)
class Witness:
    """An eigenpair certifying a support or controllability claim."""

    value: float
    vector: np.ndarray

    @classmethod
    def scaled(cls, value: float, vector: np.ndarray) -> "Witness":
        """Witness scaled to unit max-norm, its first entry above ZERO_TOL
        positive and no entry -0.0, whatever sign the eigensolver chose."""
        vector = vector / np.max(np.abs(vector))
        if vector[np.argmax(np.abs(vector) > ZERO_TOL)] < 0:
            vector = -vector
        return cls(value=value, vector=vector + 0.0)


def _fingerprint(mat: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(mat).tobytes()).hexdigest()[:16]


def eigen_decompose(lap: np.ndarray) -> SpectralDecomposition:
    """Eigendecompose a symmetric matrix and group near-equal eigenvalues.

    Values within GROUP_TOL * max(1, |value|) of each other join one
    eigenspace.  Gaps between adjacent groups that fall in the suspicious
    band are reported via near_miss_gaps so callers can flag them.
    """
    mat = np.asarray(lap, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if np.max(np.abs(mat - mat.T)) > 0:
        raise ValueError("matrix is not symmetric")
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"eigensolver failed on matrix {_fingerprint(mat)}: {exc}"
        ) from exc

    # A group starts wherever an eigenvalue is farther than the tolerance
    # from its predecessor; bounds holds each group's [start, stop) columns.
    splits = np.abs(np.diff(vals)) > GROUP_TOL * np.maximum(1.0, np.abs(vals[1:]))
    edges = [0, *(np.flatnonzero(splits) + 1).tolist(), len(vals)]
    bounds = list(zip(edges, edges[1:]))

    # eigh's columns are orthonormal, so every basis is a slice of vecs.
    spaces = tuple(
        Eigenspace(
            value=float(vals[start] if stop - start == 1 else np.mean(vals[start:stop])),
            basis=vecs[:, start:stop],
        )
        for start, stop in bounds
    )

    near: list[float] = []
    for a, b in zip(spaces, spaces[1:]):
        gap = abs(b.value - a.value)
        if NEAR_MISS_BAND[0] <= gap <= NEAR_MISS_BAND[1]:
            near.append(gap)

    decomp = SpectralDecomposition(spaces, vecs, tuple(near))
    # Eigenpair residuals of all eigenspaces from one product, L U - U diag(lambda),
    # each column relative to max(1, |lambda|).
    column_values = np.array([sp.value for sp in spaces])[decomp.space_index]
    residuals = np.max(np.abs(mat @ vecs - vecs * column_values), axis=0)
    worst = float(np.max(residuals / np.maximum(1.0, np.abs(column_values))))
    if worst > RES_TOL:
        raise RuntimeError(
            f"eigenpair residual {worst:.2e} exceeds {RES_TOL} on matrix {_fingerprint(mat)}"
        )
    return decomp


def vanishing_subspace(space: Eigenspace, zero_on) -> tuple[np.ndarray, float]:
    """Orthonormal coefficient basis of {c : (U c)_v = 0 for all v in zero_on}.

    Returns a k x d matrix, d = k - rank(rows of U indexed by zero_on), and
    the smallest of those rows' singular values kept above RANK_TOL, or inf.
    Empty zero_on yields the identity.
    """
    k = space.multiplicity
    rows = sorted(set(zero_on))
    if not rows:
        return np.eye(k), math.inf
    sub = space.basis[[v - 1 for v in rows], :]
    # A full V is needed only when the rows cannot span all k coefficients.
    _, s, vt = np.linalg.svd(sub, full_matrices=len(rows) < k)
    rank = int(np.sum(s > RANK_TOL))
    return vt[rank:].T.copy(), (float(s[rank - 1]) if rank else math.inf)


def vanishing_spaces(
    decomp: SpectralDecomposition, zero_on
) -> tuple[list[tuple[Eigenspace, np.ndarray]], float]:
    """Eigenspaces holding a nonzero eigenvector that vanishes on zero_on.

    Returns their (eigenspace, `vanishing_subspace` coefficient basis) pairs
    in increasing eigenvalue order, and the smallest singular value kept
    above RANK_TOL over all eigenspaces (inf when none is kept).  One column
    norm decides every one-dimensional eigenspace, whose basis is then [[1]];
    only larger eigenspaces run an SVD, through `vanishing_subspace`.
    """
    zero_on = sorted(set(zero_on))
    simple = decomp.simple_columns
    rows = [v - 1 for v in zero_on]
    norms = np.linalg.norm(decomp.vectors[rows][:, simple], axis=0)
    kept = norms[norms > RANK_TOL]
    margin = float(kept.min()) if kept.size else math.inf
    found = {int(i): np.ones((1, 1)) for i in decomp.space_index[simple[norms <= RANK_TOL]]}
    for i in decomp.multiple_spaces:
        coeffs, space_margin = vanishing_subspace(decomp.spaces[i], zero_on)
        margin = min(margin, space_margin)
        if coeffs.shape[1]:
            found[i] = coeffs
    return [(decomp.spaces[i], found[i]) for i in sorted(found)], margin


def vanishing_witness(decomp: SpectralDecomposition, zero_on) -> tuple[Witness | None, float]:
    """Unit max-norm witness of the first eigenvector vanishing on zero_on, or None.

    Eigenvectors are taken in value order; the margin is that of `vanishing_spaces`.
    """
    vanishing, margin = vanishing_spaces(decomp, zero_on)
    if not vanishing:
        return None, margin
    sp, coeffs = vanishing[0]
    return Witness.scaled(sp.value, sp.basis @ coeffs[:, 0]), margin


# Deterministic generic-combination weights: powers of 3, then seeded redraws.
_REDRAW_SEED = 0x5EED
_MAX_REDRAWS = 8


def _generic_witness(span: np.ndarray, support_rows: list[int]) -> np.ndarray:
    """A vector in the column span of `span` nonzero on every support row.

    A finite union of proper subspaces cannot cover the span, so a generic
    combination works; weights are deterministic with bounded seeded redraws.
    """
    d = span.shape[1]
    weight_choices = [np.power(3.0, np.arange(d))]
    rng = random.Random(_REDRAW_SEED)
    for _ in range(_MAX_REDRAWS):
        weight_choices.append(np.array([rng.uniform(-1, 1) for _ in range(d)]))
    for w in weight_choices:
        y = span @ w
        scale = np.max(np.abs(y))
        if scale == 0:
            continue
        if all(abs(y[r]) > ZERO_TOL * scale for r in support_rows):
            return y
    raise RuntimeError("failed to build a generic support witness after seeded redraws")


def spans_inside(
    decomp: SpectralDecomposition, support
) -> Iterator[tuple[Eigenspace, np.ndarray, bool]]:
    """Eigenvectors supported inside a vertex set, one eigenspace at a time.

    Yields (eigenspace, span, full) in increasing eigenvalue order for each
    eigenspace holding a nonzero eigenvector that vanishes off the support:
    `span` is n x d with orthonormal columns spanning those eigenvectors
    (the `vanishing_spaces` basis on the complement), and `full` says that no
    support vertex is zero across the whole span, each entry judged against
    ZERO_TOL times the span's max-norm.
    """
    support = sorted(set(support))
    rows = [v - 1 for v in support]
    complement = set(range(1, decomp.n + 1)).difference(support)
    for sp, coeffs in vanishing_spaces(decomp, complement)[0]:
        span = sp.basis @ coeffs
        cut = ZERO_TOL * np.max(np.abs(span))
        yield sp, span, all(np.max(np.abs(span[r, :])) > cut for r in rows)


def exists_support_exactly(decomp: SpectralDecomposition, support) -> Witness | None:
    """Witness eigenpair whose support is exactly the given vertex set, or None.

    Takes the first `full` entry of `spans_inside`, in value order: a generic
    combination of its span is nonzero everywhere on the support and is
    returned in the `Witness.scaled` form, which makes its first support
    entry positive.  `mpcs.is_perfect_critical` passes the set through
    `Graph.vertex_set` first; here an empty set is refused.
    """
    support = sorted(set(support))
    if not support:
        raise ValueError("support set must be nonempty")
    rows = [v - 1 for v in support]
    for sp, span, full in spans_inside(decomp, support):
        if full:
            return Witness.scaled(sp.value, _generic_witness(span, rows))
    return None
