"""Output checks that share no code with lobsterctrl.

Every check starts from the vertex count and the edge list, so a fault in
the package's graph, spectral or control code cannot hide itself:

* ``kalman_rank_mod_p``: the Kalman rank of the follower dynamics modulo a
  prime.  A rank modulo p can only fall below the rank over the rationals,
  so full rank modulo p proves controllability, and the program's exact
  rank can never be smaller than the modular one.
* ``check_uncontrollable_witness``: an uncontrollable verdict is confirmed
  by an eigenvector of the Laplacian (checked by its residual) that
  vanishes on every leader, which is the PBH certificate.
* ``twin_classes`` / ``twin_violations``: vertices with the same open
  neighbourhood (or the same closed one) form a class; the difference of
  two class members' indicator vectors is a Laplacian eigenvector, so a
  leader set must hold all but at most one vertex of every class.
"""
from __future__ import annotations

import numpy as np

# Primes below 2**20.  Entries stay below p, so a dot product of up to
# 2**53 / p**2 (about 8000) terms is exact in float64 and the elimination
# can run on BLAS.
PRIMES = (1048573, 1048571, 1048559)
_EXACT_LIMIT = 2**53


def _mod(x: np.ndarray, p: int) -> np.ndarray:
    """x modulo p for float arrays of integers below 2**53 in magnitude.

    Four times faster than np.remainder.  floor(x / p) can be one off when
    x / p rounds across an integer, so one correction step follows.
    """
    x = x - p * np.floor(x / p)
    x[x < 0] += p
    x[x >= p] -= p
    return x


def _rref_mod_p(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``rows`` (entries in [0, p)) modulo p."""
    m = rows.copy()
    pivots: list[int] = []
    r = 0
    while r < m.shape[0]:
        nonzero_cols = np.flatnonzero(m[r:].any(axis=0))
        if nonzero_cols.size == 0:
            break
        c = int(nonzero_cols[0])
        i = r + int(np.flatnonzero(m[r:, c])[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
        m[r] = _mod(m[r] * pow(int(m[r, c]), -1, p), p)
        hit = np.flatnonzero(m[:, c])
        hit = hit[hit != r]
        if hit.size:
            m[hit] = _mod(m[hit] - np.outer(m[hit, c], m[r]), p)
        pivots.append(c)
        r += 1
    return m[:r], pivots


def kalman_rank_mod_p(n: int, edges, leaders, p: int) -> tuple[int, int]:
    """(rank of [B, AB, A^2 B, ...] modulo p, number of followers).

    A is the Laplacian restricted to the followers and B its follower-to-
    leader block.  The Krylov space is grown block by block: the vectors
    added in one round are multiplied by A and reduced against the basis,
    until a round adds nothing (the span is then A-invariant).
    """
    lead = sorted(set(leaders))
    lead_pos = {v: j for j, v in enumerate(lead)}
    followers = [v for v in range(1, n + 1) if v not in lead_pos]
    n_f = len(followers)
    if n_f == 0:
        return 0, 0
    if n_f * p * p >= _EXACT_LIMIT:
        raise ValueError(f"{n_f} followers are too many for exact float arithmetic mod {p}")
    pos = {v: i for i, v in enumerate(followers)}
    a = np.zeros((n_f, n_f))
    b = np.zeros((len(lead), n_f))  # one row per leader column of B
    for u, w in edges:
        for x, y in ((u, w), (w, u)):
            if x in pos:
                a[pos[x], pos[x]] += 1.0
                if y in pos:
                    a[pos[x], pos[y]] -= 1.0
                else:
                    b[lead_pos[y], pos[x]] -= 1.0
    basis = np.zeros((0, n_f))
    pivots: list[int] = []
    frontier = _mod(b, p)
    # Krylov vectors stay inside the follower components next to one leader,
    # so most rows meet few pivots: only the rows that do are updated.
    while frontier.shape[0] and len(pivots) < n_f:
        if pivots:
            coeff = frontier[:, pivots]
            used = np.flatnonzero(coeff.any(axis=0))
            if used.size:
                frontier = _mod(frontier - _mod(coeff[:, used] @ basis[used], p), p)
        new, new_pivots = _rref_mod_p(frontier, p)
        if not new_pivots:
            break
        if pivots:
            coeff = basis[:, new_pivots]
            hit = np.flatnonzero(coeff.any(axis=1))
            if hit.size:
                basis[hit] = _mod(basis[hit] - _mod(coeff[hit] @ new, p), p)
        basis = np.vstack([basis, new])
        pivots.extend(new_pivots)
        frontier = _mod(new @ a, p)  # rows of (A new^T)^T; A is symmetric
    return len(pivots), n_f


def controllable_mod_p(n: int, edges, leaders) -> tuple[bool, int]:
    """(full rank modulo some prime in PRIMES, highest modular rank seen).

    A rank deficit modulo one prime can be an accident of that prime, so the
    next prime is tried before the set is called not proven.
    """
    best = 0
    for p in PRIMES:
        rank, n_f = kalman_rank_mod_p(n, edges, leaders, p)
        best = max(best, rank)
        if rank == n_f:
            return True, best
    return False, best


def laplacian_from_edges(n: int, edges) -> np.ndarray:
    lap = np.zeros((n, n))
    for u, w in edges:
        lap[u - 1, w - 1] -= 1.0
        lap[w - 1, u - 1] -= 1.0
        lap[u - 1, u - 1] += 1.0
        lap[w - 1, w - 1] += 1.0
    return lap


def check_uncontrollable_witness(
    n: int, edges, leaders, value: float, vector, tol: float = 1e-7
) -> str | None:
    """None when (value, vector) proves the leader set uncontrollable.

    Otherwise a one-line reason: the vector is zero, is not an eigenvector
    of the Laplacian within ``tol`` (relative to its max-norm and the
    eigenvalue), or does not vanish on some leader.
    """
    x = np.asarray(vector, dtype=float)
    if x.shape != (n,):
        return f"witness has shape {x.shape}, expected ({n},)"
    scale = float(np.max(np.abs(x)))
    if scale == 0.0:
        return "witness is the zero vector"
    x = x / scale
    residual = float(np.max(np.abs(laplacian_from_edges(n, edges) @ x - value * x)))
    if residual > tol * max(1.0, abs(value)):
        return f"witness residual {residual:.2e} at eigenvalue {value:.6f}"
    on_leaders = max(abs(float(x[v - 1])) for v in leaders)
    if on_leaders > tol:
        return f"witness is {on_leaders:.2e} on a leader"
    return None


def twin_classes(n: int, edges) -> list[frozenset[int]]:
    """Classes of two or more vertices sharing an open or a closed neighbourhood."""
    nbrs: dict[int, set[int]] = {v: set() for v in range(1, n + 1)}
    for u, w in edges:
        nbrs[u].add(w)
        nbrs[w].add(u)
    classes = []
    for key in (lambda v: frozenset(nbrs[v]), lambda v: frozenset(nbrs[v] | {v})):
        groups: dict[frozenset[int], set[int]] = {}
        for v in range(1, n + 1):
            groups.setdefault(key(v), set()).add(v)
        classes.extend(frozenset(c) for c in groups.values() if len(c) > 1)
    return classes


def twin_violations(n: int, edges, leaders) -> list[frozenset[int]]:
    """Twin classes with two or more members outside the leader set."""
    lead = set(leaders)
    return [c for c in twin_classes(n, edges) if len(c - lead) > 1]
