"""Controllability verdicts, leader search, and hitting-set assembly.

Two independent routes decide whether a leader set controls the Laplacian
dynamics of a connected graph:

* a floating-point eigenspace test (controllable iff no Laplacian
  eigenvector vanishes on every leader, asked of
  `spectral.vanishing_witness`), and
* an exact rational Kalman rank, computed by fraction-free elimination on
  big integers with no tolerances anywhere.

Both routes take the leader ids through `Graph.vertex_set`, so an empty
set or an id outside 1..n is refused alike.  The exact route is the ground
truth; the float route is the fast default.  Disagreement between the two
on any input is treated as a bug, never masked by loosening tolerances.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd

import numpy as np

from .graph import Graph, GraphError, laplacian
from .mpcs import graph_decomposition
from .spectral import RANK_TOL, Witness, vanishing_witness

__all__ = [
    "ControllabilityVerdict",
    "MinLeaderResult",
    "HittingSetResult",
    "pbh_controllable",
    "controllable_certified",
    "kalman_controllable_exact",
    "min_leader_bruteforce",
    "minimum_hitting_set",
    "count_to_probability",
]

BRUTEFORCE_N_CAP = 25
LIST_CAP = 10_000
COUNT_ENUM_CAP = 1_000_000


@dataclass(frozen=True, eq=False)
class ControllabilityVerdict:
    controllable: bool
    method: str  # "pbh-float" | "kalman-exact"
    witness: Witness | None = None  # eigenvector vanishing on all leaders
    rank: int | None = None  # Kalman rank when method is exact


BORDERLINE_WIDENING = 10.0  # singular values this close to the cut escalate


def _pbh_verdict(g: Graph, leaders) -> tuple[ControllabilityVerdict, bool]:
    """Eigenspace test plus a borderline flag.

    Controllable iff no eigenvector vanishes on every leader; otherwise
    `vanishing_witness` gives the first such eigenvector in value order as
    the witness.  The flag marks positive verdicts that would flip under a
    tenfold tolerance widening, i.e. some space kept full rank only through
    a singular value barely above the cut.
    """
    if not g.is_connected:
        raise GraphError("controllability test requires a connected graph")
    witness, margin = vanishing_witness(graph_decomposition(g), g.vertex_set(leaders))
    if witness is not None:
        verdict = ControllabilityVerdict(controllable=False, method="pbh-float", witness=witness)
        return verdict, False
    borderline = margin <= BORDERLINE_WIDENING * RANK_TOL
    return ControllabilityVerdict(controllable=True, method="pbh-float"), borderline


def pbh_controllable(g: Graph, leaders) -> ControllabilityVerdict:
    """Floating-point eigenspace controllability test (see _pbh_verdict)."""
    verdict, _ = _pbh_verdict(g, leaders)
    return verdict


def controllable_certified(g: Graph, leaders) -> ControllabilityVerdict:
    """PBH verdict, escalated to the exact oracle when borderline.

    A positive verdict resting on a singular value within a tenfold
    widening of the rank tolerance is re-decided by the rational route.
    """
    verdict, borderline = _pbh_verdict(g, leaders)
    if borderline:
        return kalman_controllable_exact(g, leaders)
    return verdict


# ---------------------------------------------------------------------------
# Exact rational Kalman rank
# ---------------------------------------------------------------------------


class _IntegerEchelon:
    """Incremental row-echelon basis over the integers.

    Insertion reduces a vector by cross-multiplication against the stored
    pivot rows (fraction-free, exact over the rationals) and strips the gcd
    content so entries stay small.
    """

    def __init__(self, width: int):
        self.width = width
        self.rows: list[list[int]] = []  # kept sorted by pivot column
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.rows)

    @staticmethod
    def _normalize(vec: list[int]) -> list[int] | None:
        content = 0
        for x in vec:
            content = gcd(content, x)
            if content == 1:
                break
        if content == 0:
            return None
        lead = next(x for x in vec if x != 0)
        if lead < 0:
            content = -content
        return [x // content for x in vec] if content != 1 else vec

    def insert(self, vec: list[int]) -> list[int] | None:
        """Reduce vec against the basis; store and return it if independent."""
        for pivot_col, row in zip(self.pivots, self.rows):
            coeff = vec[pivot_col]
            if coeff == 0:
                continue
            p = row[pivot_col]
            g = gcd(p, coeff)
            a, b = p // g, coeff // g
            vec = [a * x - b * y for x, y in zip(vec, row)]
        vec = self._normalize(vec)
        if vec is None:
            return None
        pivot = next(i for i, x in enumerate(vec) if x != 0)
        pos = bisect.bisect_left(self.pivots, pivot)
        self.pivots.insert(pos, pivot)
        self.rows.insert(pos, vec)
        return vec


def kalman_controllable_exact(g: Graph, leaders) -> ControllabilityVerdict:
    """Exact controllability via the rank of the Kalman matrix.

    Follower dynamics use A = L restricted to followers and B = the
    follower-to-leader block of L.  The rank of [B, AB, A^2 B, ...] is
    computed incrementally over exact integer arithmetic: the Krylov basis
    is extended block by block with early exit at full rank, and it stops
    as soon as a block contributes nothing new (the span is then invariant).
    """
    if not g.is_connected:
        raise GraphError("controllability test requires a connected graph")
    leaders = g.vertex_set(leaders)
    followers = [v for v in range(1, g.n + 1) if v not in leaders]
    if not followers:
        return ControllabilityVerdict(controllable=True, method="kalman-exact", rank=0)
    index = {v: i for i, v in enumerate(followers)}
    deg = {v: g.degree(v) for v in followers}
    nbrs_f = {
        v: [index[w] for w in g.adjacency[v] if w in index] for v in followers
    }
    n_f = len(followers)

    def apply_a(vec: list[int]) -> list[int]:
        out = [0] * n_f
        for v in followers:
            i = index[v]
            acc = deg[v] * vec[i]
            for j in nbrs_f[v]:
                acc -= vec[j]
            out[i] = acc
        return out

    echelon = _IntegerEchelon(n_f)
    frontier: list[list[int]] = []
    for w in sorted(leaders):
        col = [-1 if w in g.adjacency[v] else 0 for v in followers]
        reduced = echelon.insert(col)
        if reduced is not None:
            frontier.append(reduced)
    while frontier and echelon.rank < n_f:
        nxt = []
        for vec in frontier:
            reduced = echelon.insert(apply_a(vec))
            if reduced is not None:
                nxt.append(reduced)
        frontier = nxt
    rank = echelon.rank
    return ControllabilityVerdict(
        controllable=(rank == n_f), method="kalman-exact", rank=rank
    )


# ---------------------------------------------------------------------------
# Brute-force minimum leader search
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class MinLeaderResult:
    k_min: int | None  # None when nothing controllable up to k_max
    count: int
    sets: tuple[frozenset[int], ...] | None  # omitted when count > LIST_CAP
    lower_bound: int  # k_min when found, else max(k_max + 1, multiplicity of eigenvalue 1)

    def summary(self) -> str:
        if self.k_min is None:
            return f"k_min >= {self.lower_bound}"
        return f"k_min = {self.k_min}, count = {self.count}"


def _eigenvalue_one_multiplicity(g: Graph) -> int:
    """Exact multiplicity of Laplacian eigenvalue 1, the nullity of L - I."""
    echelon = _IntegerEchelon(g.n)
    for row in (laplacian(g) - np.eye(g.n, dtype=np.int64)).tolist():
        echelon.insert(row)
    return g.n - echelon.rank


def min_leader_bruteforce(g: Graph, k_max: int) -> MinLeaderResult:
    """Smallest controllable leader-set size by exhaustive search.

    Uses the exact rational oracle on every candidate subset, so the result
    carries no tolerance caveats.  The search starts at the exact
    multiplicity m of eigenvalue 1: fewer than m leaders leave a nonzero
    eigenvector of that eigenspace vanishing on all of them, so no smaller
    set is controllable, and a search that finds nothing up to k_max
    reports the lower bound max(k_max + 1, m).  Capped at n <= 25 vertices;
    k_max must be at least 0.
    """
    if g.n > BRUTEFORCE_N_CAP:
        raise GraphError(f"brute-force leader search capped at n={BRUTEFORCE_N_CAP}")
    if k_max < 0:
        raise GraphError(f"leader-set size bound must be >= 0, got {k_max}")
    if not g.is_connected:
        raise GraphError("brute-force leader search requires a connected graph")
    k_max = min(k_max, g.n)
    m = _eigenvalue_one_multiplicity(g)
    for k in range(max(1, m), k_max + 1):
        winners = [
            frozenset(c)
            for c in itertools.combinations(range(1, g.n + 1), k)
            if kalman_controllable_exact(g, c).controllable
        ]
        if winners:
            return MinLeaderResult(
                k_min=k,
                count=len(winners),
                sets=tuple(winners) if len(winners) <= LIST_CAP else None,
                lower_bound=k,
            )
    return MinLeaderResult(k_min=None, count=0, sets=None, lower_bound=max(k_max + 1, m))


# ---------------------------------------------------------------------------
# Minimum hitting set
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class HittingSetResult:
    size: int
    chosen: frozenset[int]
    count: int | None  # None when the optimal sets are too many to enumerate


def _hitting_bnb(sets: list[frozenset[int]]) -> frozenset[int]:
    """Deterministic branch-and-bound for one minimum hitting set."""
    best: list[frozenset[int]] = [frozenset(v for s in sets for v in s)]

    def packing_bound(remaining: list[frozenset[int]]) -> int:
        used: set[int] = set()
        bound = 0
        for s in remaining:  # greedy disjoint packing gives a lower bound
            if not (s & used):
                bound += 1
                used |= s
        return bound

    def recurse(chosen: set[int], remaining: list[frozenset[int]]) -> None:
        if not remaining:
            if len(chosen) < len(best[0]):
                best[0] = frozenset(chosen)
            return
        if len(chosen) + packing_bound(remaining) >= len(best[0]):
            return
        target = min(remaining, key=lambda s: (len(s), sorted(s)))
        for v in sorted(target):
            chosen.add(v)
            recurse(chosen, [s for s in remaining if v not in s])
            chosen.remove(v)

    recurse(set(), sorted(sets, key=lambda s: (len(s), sorted(s))))
    return best[0]


def _overlap_components(sets: list[frozenset[int]]) -> list[list[frozenset[int]]]:
    """Partition the catalog into vertex-disjoint groups of overlapping sets.

    Hitting sets decompose over the groups, which keeps branch-and-bound
    away from the exponential blowup of many mutually disjoint sets.
    """
    parent = list(range(len(sets)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    seen: dict[int, int] = {}
    for i, s in enumerate(sets):
        for v in s:
            if v in seen:
                parent[find(i)] = find(seen[v])
            else:
                seen[v] = i
    groups: dict[int, list[frozenset[int]]] = {}
    for i, s in enumerate(sets):
        groups.setdefault(find(i), []).append(s)
    return [groups[k] for k in sorted(groups)]


def minimum_hitting_set(catalog, count_optimal: bool = True) -> HittingSetResult:
    """Exact minimum hitting set over a collection of vertex sets.

    Solved independently per overlap component.  The returned set is
    deterministic (lexicographically smallest optimum within components
    whose optima are enumerable).  The count of optimal sets is produced
    when every component's enumeration stays under a million candidates.
    """
    sets = sorted({frozenset(s) for s in catalog}, key=lambda s: (len(s), sorted(s)))
    if any(not s for s in sets):
        raise GraphError("hitting-set catalog contains an empty set")
    if not sets:
        return HittingSetResult(size=0, chosen=frozenset(), count=1)
    chosen: set[int] = set()
    count: int | None = 1 if count_optimal else None
    for component in _overlap_components(sets):
        part = _hitting_bnb(component)
        size = len(part)
        if count_optimal and count is not None:
            universe = sorted({v for s in component for v in s})
            if comb(len(universe), size) <= COUNT_ENUM_CAP:
                optima = [
                    cand
                    for cand in itertools.combinations(universe, size)
                    if all(set(cand) & s for s in component)
                ]
                count *= len(optima)
                part = frozenset(optima[0])  # lexicographically smallest
            else:
                count = None
        chosen |= part
    return HittingSetResult(size=len(chosen), chosen=frozenset(chosen), count=count)


def count_to_probability(count: int, n: int, k: int) -> float:
    """count / C(n, k) as an exact rational, rendered to 4 significant digits."""
    if k > n or k < 0:
        raise GraphError(f"cannot choose {k} from {n}")
    total = comb(n, k)
    if not (0 <= count <= total):
        raise GraphError(f"count {count} outside [0, C({n},{k})={total}]")
    exact = Fraction(count, total)
    return float(f"{float(exact):.4g}")
