"""Undirected simple graphs, lobster construction, and spine analysis.

Vertices are integer ids 1..n.  A lobster is a tree in which every vertex
lies within distance 2 of a spine (a longest path); a caterpillar is the
distance-1 case and a bare path the distance-0 case.  Lobsters are built
from a generative description (:class:`LobsterSpec`) that pastes paths of
length 1 or 2 onto spine vertices.

Serialization uses a small JSON schema ({"n": ..., "edges": [[i, j], ...]})
plus a read-only DOT subset (``graph { i -- j; ... }``).
"""
from __future__ import annotations

import json
import operator
import random
import re
from collections import deque
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "LobsterSpec",
    "AttachmentProfile",
    "build_lobster",
    "random_lobster",
    "laplacian",
    "find_spine",
    "attachment_profile",
    "parse_graph",
    "serialize_graph",
    "parse_lobster_spec",
    "serialize_lobster_spec",
]

# Attachment configs pasted onto a spine vertex: multisets of path lengths.
# Load of a config is p1 + p2, counting off-spine vertices at distance 1 and
# 2 (a length-2 path contributes one of each).
BASE_CONFIGS: tuple[tuple[int, ...], ...] = ((), (1,), (2,), (1, 1), (1, 2), (2, 2))


class GraphError(ValueError):
    """Invalid graph input (bad edge, bad id, structural precondition)."""


def _config_load(config: tuple[int, ...]) -> int:
    return sum(2 if length == 2 else 1 for length in config)


@dataclass(frozen=True)
class Graph:
    """Undirected unweighted simple graph on vertices 1..n.

    Edges are stored canonically as (i, j) pairs with i < j.  Instances are
    immutable and hashable, so they can key per-graph caches.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise GraphError(f"vertex count must be >= 1, got {self.n}")
        for e in self.edges:
            i, j = e
            if i == j:
                raise GraphError(f"self-loop on vertex {i}")
            if not (1 <= i < j <= self.n):
                raise GraphError(f"edge {e} out of range for n={self.n} (want 1 <= i < j <= n)")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph, rejecting duplicates, self-loops, and bad ids."""
        canon = set()
        for e in edges:
            i, j = e
            if i == j:
                raise GraphError(f"self-loop on vertex {i}")
            if not (1 <= i <= n and 1 <= j <= n):
                raise GraphError(f"edge {list(e)} out of range for n={n}")
            key = (i, j) if i < j else (j, i)
            if key in canon:
                raise GraphError(f"duplicate edge {list(e)}")
            canon.add(key)
        return cls(n=n, edges=frozenset(canon))

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbours of each vertex, indexed by vertex id (entry 0 is empty).

        A tuple rather than a dict keeps a graph that is held on to small.
        """
        adj: list[list[int]] = [[] for _ in range(self.n + 1)]
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def vertex_set(self, vertices) -> frozenset[int]:
        """The given ids as a frozenset, checked to be nonempty and within 1..n."""
        s = frozenset(int(v) for v in vertices)
        if not s:
            raise GraphError("vertex set must be nonempty")
        bad = sorted(v for v in s if not 1 <= v <= self.n)
        if bad:
            raise GraphError(f"vertices out of range 1..{self.n}: {bad}")
        return s

    @cached_property
    def is_connected(self) -> bool:
        return len(self.bfs_distances(1)) == self.n

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1 and self.is_connected

    def bfs_distances(self, source: int) -> dict[int, int]:
        """BFS distances from one vertex."""
        dist = {source: 0}
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist


@dataclass(frozen=True)
class LobsterSpec:
    """Generative description of a lobster: spine length plus, per spine
    vertex, the multiset of attached path lengths (each 1 or 2).
    """

    spine_len: int
    attach: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.spine_len < 2:
            raise GraphError(f"spine_len must be >= 2, got {self.spine_len}")
        if len(self.attach) != self.spine_len:
            raise GraphError(
                f"attach has {len(self.attach)} entries, expected spine_len={self.spine_len}"
            )
        for i, entry in enumerate(self.attach):
            for length in entry:
                if length not in (1, 2):
                    raise GraphError(f"attach[{i}] contains invalid path length {length}")

    @classmethod
    def make(cls, spine_len: int, attach) -> "LobsterSpec":
        """Normalize attach entries to sorted tuples."""
        return cls(spine_len, tuple(tuple(sorted(entry)) for entry in attach))

    def total_vertices(self) -> int:
        return self.spine_len + sum(sum(entry) for entry in self.attach)


@dataclass(frozen=True)
class AttachmentProfile:
    """Off-spine attachment data per spine vertex.

    For spine position i: p1[i] counts all off-spine neighbors of the spine
    vertex, p2[i] the off-spine vertices at distance exactly 2, s1[i] the
    pendant (degree-1) vertices among the distance-1 layer, and s2[i] the
    tips of attached length-2 paths.
    """

    spine: tuple[int, ...]
    p1: tuple[int, ...]
    p2: tuple[int, ...]
    s1: tuple[tuple[int, ...], ...]
    s2: tuple[tuple[int, ...], ...]

    def load(self, i: int) -> int:
        """p1 + p2 at spine position i."""
        return self.p1[i] + self.p2[i]


def build_lobster(spec: LobsterSpec) -> Graph:
    """Realize a LobsterSpec as a concrete tree.

    Canonical numbering: spine vertices take ids 1..spine_len in path order;
    attachment vertices are numbered consecutively afterwards, spine vertex
    by spine vertex, each length-2 path inner-then-tip.
    """
    edges = [(i, i + 1) for i in range(1, spec.spine_len)]
    next_id = spec.spine_len + 1
    for pos, entry in enumerate(spec.attach, start=1):
        for length in entry:
            if length == 1:
                edges.append((pos, next_id))
                next_id += 1
            else:
                inner, tip = next_id, next_id + 1
                edges.append((pos, inner))
                edges.append((inner, tip))
                next_id += 2
    g = Graph.from_edges(next_id - 1, edges)
    assert g.is_tree()
    return g


def random_lobster(spine_len: int, seed: int, max_load: int = 2) -> LobsterSpec:
    """Draw a random LobsterSpec, reproducibly for a fixed seed.

    Each interior spine vertex receives an attachment config drawn i.i.d.
    uniformly from the base configs filtered to load p1 + p2 <= max_load.
    End spine vertices stay empty, but the declared spine need not be a
    longest path of the realization: a pendant 2-path at the second or
    second-to-last spine vertex makes a longer one.  `find_spine`, not the
    spec, gives the spine of the built graph; sweeps report the declared
    length.
    """
    if spine_len < 2:
        raise GraphError(f"spine_len must be >= 2, got {spine_len}")
    legal = [c for c in BASE_CONFIGS if _config_load(c) <= max_load]
    if not legal:
        raise GraphError(f"max_load={max_load} admits no attachment config")
    rng = random.Random(seed)
    attach = []
    for pos in range(1, spine_len + 1):
        if pos == 1 or pos == spine_len:
            attach.append(())
        else:
            attach.append(legal[rng.randrange(len(legal))])
    return LobsterSpec.make(spine_len, attach)


def laplacian(g: Graph) -> np.ndarray:
    """Integer Laplacian: degree on the diagonal, -1 on edges."""
    lap = np.zeros((g.n, g.n), dtype=np.int64)
    for i, j in g.edges:
        lap[i - 1, j - 1] = -1
        lap[j - 1, i - 1] = -1
        lap[i - 1, i - 1] += 1
        lap[j - 1, j - 1] += 1
    return lap


def find_spine(g: Graph) -> list[int]:
    """A longest path of a tree, deterministically tie-broken.

    Among all longest paths the one with the lexicographically smallest
    endpoint pair is returned, oriented from the smaller endpoint.  (Paths
    between two tree vertices are unique, so no further tie-breaking is
    needed.)
    """
    if not g.is_tree():
        raise GraphError("find_spine requires a tree")
    if g.n == 1:
        return [1]

    def farthest(dist: dict[int, int]) -> int:
        top = max(dist.values())
        return min(v for v, d in dist.items() if d == top)

    # In a tree, the eccentricity of v is its larger distance to the two
    # ends a, b of any longest path, so the longest paths start exactly at
    # the vertices whose eccentricity is the diameter.
    a = farthest(g.bfs_distances(1))
    dist_a = g.bfs_distances(a)
    b = farthest(dist_a)
    diameter = dist_a[b]
    dist_b = g.bfs_distances(b)
    u = min(v for v in range(1, g.n + 1) if max(dist_a[v], dist_b[v]) == diameter)
    dist_u = g.bfs_distances(u)
    path = [farthest(dist_u)]
    while path[-1] != u:  # step to the one neighbour closer to u
        x = path[-1]
        path.append(next(y for y in g.adjacency[x] if dist_u[y] == dist_u[x] - 1))
    path.reverse()
    return path


def attachment_profile(g: Graph, spine: list[int]) -> AttachmentProfile:
    """Compute p1/p2/S1/S2 per spine vertex for a tree with the given spine.

    Level 1 of a spine vertex is its off-spine neighbours, level 2 their
    other neighbours.  A vertex in no level is farther than 2 from the spine,
    and the tree is rejected as not a lobster.
    """
    if not g.is_tree():
        raise GraphError("attachment_profile requires a tree")
    spine_set = set(spine)
    level1 = [tuple(w for w in g.adjacency[sv] if w not in spine_set) for sv in spine]
    level2 = [
        tuple(sorted(x for u in l1 for x in g.adjacency[u] if x != sv))
        for sv, l1 in zip(spine, level1)
    ]
    if len(spine_set.union(*level1, *level2)) < g.n:
        raise GraphError("not a lobster: vertex farther than 2 from the spine")
    return AttachmentProfile(
        spine=tuple(spine),
        p1=tuple(map(len, level1)),
        p2=tuple(map(len, level2)),
        s1=tuple(tuple(v for v in l1 if g.degree(v) == 1) for l1 in level1),
        s2=tuple(level2),
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

_DOT_GRAPH = re.compile(r"graph(?:\s+(?:[A-Za-z_]\w*|\d+))?\s*\{(.*)\}", re.S)  # graph [ID] {...}
_DOT_STATEMENT = re.compile(r"\s*(?:(\d+)\s*--\s*(\d+))?\s*")  # one edge, or blank


def _json_int(value) -> int:
    """An integer read from graph JSON; booleans are not integers here."""
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return operator.index(value)


def parse_graph(text: str) -> Graph:
    """Parse a graph from JSON ({"n":..., "edges":[[i,j],...]}) or a DOT
    subset (``graph { i -- j; ... }``, one edge per statement)."""
    stripped = text.strip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise GraphError(f"invalid graph JSON: {exc}") from exc
        if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
            raise GraphError('graph JSON must be an object with "n" and "edges"')
        try:
            n = _json_int(obj["n"])
            edges = [(_json_int(i), _json_int(j)) for i, j in obj["edges"]]
        except (TypeError, ValueError) as exc:
            raise GraphError(
                f'graph JSON needs an integer "n" and [i, j] integer edges: {exc}'
            ) from exc
        return Graph.from_edges(n, edges)
    if stripped.startswith("graph"):
        body = _DOT_GRAPH.fullmatch(stripped)
        if body is None:
            raise GraphError("DOT statement outside 'graph [ID] { ... }'")
        statements = re.split(r"[;\n]", body[1])
        matches = [_DOT_STATEMENT.fullmatch(s) for s in statements]
        if None in matches:
            bad = statements[matches.index(None)].strip()
            raise GraphError(f"DOT statement {bad!r} is not an edge 'i -- j'")
        edges = [(int(m[1]), int(m[2])) for m in matches if m[1]]
        if not edges:
            raise GraphError("DOT graph contains no edges")
        n = max(max(e) for e in edges)
        return Graph.from_edges(n, edges)
    raise GraphError("unrecognized graph format (expected JSON object or DOT)")


def serialize_graph(g: Graph) -> str:
    """Canonical JSON text: edges sorted with i < j, lexicographically."""
    return json.dumps({"n": g.n, "edges": [list(e) for e in g.sorted_edges()]})


def parse_lobster_spec(text: str) -> LobsterSpec:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphError(f"invalid lobster JSON: {exc}") from exc
    if not isinstance(obj, dict) or "spine_len" not in obj or "attach" not in obj:
        raise GraphError('lobster JSON must be an object with "spine_len" and "attach"')
    try:
        spine_len = _json_int(obj["spine_len"])
        attach = [[_json_int(length) for length in entry] for entry in obj["attach"]]
    except (TypeError, ValueError) as exc:
        raise GraphError(
            f'lobster JSON needs an integer "spine_len" and lists of integer path lengths: {exc}'
        ) from exc
    return LobsterSpec.make(spine_len, attach)


def serialize_lobster_spec(spec: LobsterSpec) -> str:
    return json.dumps({"spine_len": spec.spine_len, "attach": [list(e) for e in spec.attach]})
