"""Immutable simple graphs: named constructions, exact metrics, s-arc enumeration.

Vertices are dense integer ids 0..n-1. All operations are pure; a Graph never
changes after construction, so everything here is safe to call concurrently.
"""

from __future__ import annotations

import operator
import random
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

UNREACHED = -1  # sentinel used by distance arrays for disconnected pairs
_GIRTH_BLOCK = 1 << 18  # matrix entries per root block in Graph.girth
_UNKNOWN = object()  # marks a cached fact not computed yet (None is a valid girth)


class GraphError(ValueError):
    pass


class DisconnectedGraphError(GraphError):
    pass


class Graph:
    """Simple undirected graph on vertices 0..n-1.

    ``adjacency[v]`` is the sorted tuple of neighbours of ``v``;
    ``edge_list`` is the sorted tuple of edges as pairs (u, v) with u < v.

    The public constructor is the one gate: it normalises every id to a
    plain ``int`` and rejects out-of-range ids, self-loops and duplicate
    edges. Subdivisions, line graphs and distance-2 components are built
    from edges already in that form, so they go through ``_trusted`` and
    skip the checks.
    """

    __slots__ = (
        "n",
        "adjacency",
        "edge_list",
        "_apsp",
        "_diameter",
        "_girth",
        "_edge_index",
        "_invariants",
        "_subdivision",
        "__weakref__",
    )

    def __init__(self, n: int, edges: Iterable[Sequence[int]]):
        try:
            n = operator.index(n)
        except TypeError:
            raise GraphError(f"vertex count {n!r} is not an integer") from None
        if n < 0:
            raise GraphError("vertex count must be nonnegative")
        seen = set()
        for e in edges:
            try:
                u, v = map(operator.index, e)
            except (TypeError, ValueError):
                raise GraphError(f"edge {e!r} is not a pair of integers") from None
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {e!r} out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if u > v:
                u, v = v, u
            if (u, v) in seen:
                raise GraphError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
        self._fill(n, tuple(sorted(seen)))

    @classmethod
    def _trusted(
        cls,
        n: int,
        edge_list: Iterable[tuple[int, int]],
        adjacency: Optional[tuple[tuple[int, ...], ...]] = None,
    ) -> "Graph":
        """A Graph on edges the library built itself: distinct pairs (u, v)
        with 0 <= u < v < n, in sorted order. A builder that already holds
        the sorted neighbour tuples of those edges passes them as
        ``adjacency``."""
        g = object.__new__(cls)
        g._fill(n, tuple(edge_list), adjacency)
        return g

    def _fill(
        self,
        n: int,
        edge_list: tuple[tuple[int, int], ...],
        adjacency: Optional[tuple[tuple[int, ...], ...]] = None,
    ) -> None:
        """Set every field from a sorted tuple of distinct pairs u < v < n,
        and their adjacency when it is given."""
        if adjacency is None:
            adj: list[list[int]] = [[] for _ in range(n)]
            # in sorted edge order a vertex meets its smaller neighbours (as v)
            # before its larger ones (as u), each run ascending: adj comes out sorted
            for u, v in edge_list:
                adj[u].append(v)
                adj[v].append(u)
            adjacency = tuple(map(tuple, adj))
        self.n = n
        self.adjacency = adjacency
        self.edge_list = edge_list
        self._apsp = None
        self._diameter = None  # set by the first call of diameter() that succeeds
        self._girth = _UNKNOWN
        self._edge_index = None
        self._invariants = None  # autgrp._vertex_invariants, once computed
        self._subdivision = None  # S(g) as built by transforms.subdivide, once built

    @property
    def m(self) -> int:
        return len(self.edge_list)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adjacency[u]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edge_list == other.edge_list

    def __hash__(self) -> int:
        return hash((self.n, self.edge_list))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    # -- cached metrics -----------------------------------------------------

    def distances_matrix(self) -> np.ndarray:
        """All-pairs hop distances as an (n, n) int32 matrix, built once by
        the bit-parallel closure ``_distance_closure``; UNREACHED (-1) marks
        disconnected pairs. Every hop distance in the library reads it."""
        if self._apsp is None:
            self._apsp = _distance_closure(self.adjacency)
        return self._apsp

    def diameter(self) -> int:
        """Largest hop distance, cached after the first call. Rejects empty
        and disconnected graphs on every call."""
        if self._diameter is None:
            if self.n == 0:
                raise DisconnectedGraphError("empty graph has no diameter")
            dist = self.distances_matrix()
            if int(dist.min()) < 0:
                raise DisconnectedGraphError("diameter undefined for disconnected graph")
            self._diameter = int(dist.max())
        return self._diameter

    def girth(self) -> Optional[int]:
        """Length of a shortest cycle, or None for acyclic graphs.

        Read off the distance matrix D. For a root r, an edge {u, w} with
        D[r,u] = D[r,w] closes a walk of length 2*D[r,u] + 1, and a vertex x
        with two neighbours at distance D[r,x] - 1 closes one of length
        2*D[r,x]; each such walk contains a cycle no longer than itself. A
        shortest cycle is isometric, so a root on it realises its length as
        one of these two cases, and the minimum over all roots is the girth.
        The odd case compares D at both ends of every edge. For the even
        case, each edge that steps one level away from r is a parent edge
        of its far end, and one np.bincount over the flat indices
        (r, child) counts the parent edges of every vertex for a block of
        roots. Unreached (-1) entries never match a reached one and are
        masked out.
        """
        if self._girth is _UNKNOWN:
            self._girth = self._girth_from_distances() if self.m else None
        return self._girth

    def _girth_from_distances(self) -> Optional[int]:
        dist = self.distances_matrix()
        n = self.n
        u, w = np.array(self.edge_list, dtype=np.intp).T
        lengths = []
        # Root blocks bound the O(rows * m) temporaries.
        step = max(1, _GIRTH_BLOCK // (2 * self.m))
        for lo in range(0, n, step):
            d = dist[lo:lo + step]
            du = d[:, u]
            diff = du - d[:, w]
            level = du[(diff == 0) & (du >= 0)]
            if level.size:
                lengths.append(2 * int(level.min()) + 1)
            # count each vertex's parent edges per root at flat index row * n + x:
            # edge (u, w) leads u -> w when D[r,u] = D[r,w] - 1, w -> u when
            # D[r,w] = D[r,u] - 1 (two unreached ends differ by 0)
            row = np.arange(0, d.shape[0] * n, n)[:, None]
            children = np.concatenate(((row + w)[diff == -1], (row + u)[diff == 1]))
            parents = np.bincount(children, minlength=d.size)
            level = d.ravel()[parents >= 2]
            if level.size:
                lengths.append(2 * int(level.min()))
        return min(lengths, default=None)

    def edge_index(self) -> dict[tuple[int, int], int]:
        """Index of each edge in sorted edge_list order."""
        if self._edge_index is None:
            self._edge_index = {e: i for i, e in enumerate(self.edge_list)}
        return self._edge_index

    def is_connected(self) -> bool:
        return self.n == 0 or bool((self.distances_matrix()[0] != UNREACHED).all())


def _distance_closure(adjacency: Sequence[Sequence[int]]) -> np.ndarray:
    """All-pairs hop distances by a bit-parallel closure (Akiba, Iwata and
    Yoshida, SIGMOD 2013); UNREACHED where no path exists.

    Row v of ``reach`` is the set of vertices within ``level`` hops of v,
    packed little-endian into 64-bit words. One level ORs the rows of v's
    closed neighbourhood into row v: one gather and one segmented OR over
    n + 2m rows. The bits a level adds are the vertices at distance exactly
    ``level``; one np.unpackbits call writes them into the matrix, and the
    closure stops at the first level that adds none.
    """
    n = len(adjacency)
    # segment v of closed is v followed by its neighbours: never empty, as reduceat needs
    closed: list[int] = []
    starts: list[int] = []
    for v, a in enumerate(adjacency):
        starts.append(len(closed))
        closed.append(v)
        closed.extend(a)
    closed_ix = np.array(closed, dtype=np.intp)
    starts_ix = np.array(starts, dtype=np.intp)
    # rows padded to whole 64-bit words, so each OR handles 8 bytes at once
    eye = np.eye(n, 64 * -(-n // 64), dtype=bool)
    dist = eye[:, :n].astype(np.int32) + UNREACHED  # 0 on the diagonal
    reach = np.packbits(eye, axis=1, bitorder="little").view("<u8")
    level = 0
    while n:  # an empty graph has no levels (and reduceat needs a segment)
        level += 1
        grown = np.bitwise_or.reduceat(reach.take(closed_ix, axis=0), starts_ix)
        new = grown ^ reach
        if not np.count_nonzero(new):
            break
        bits = np.unpackbits(new.view(np.uint8), axis=1, count=n, bitorder="little")
        np.copyto(dist, level, where=bits.view(bool))
        reach = grown
    return dist


# -- named constructions ----------------------------------------------------


def make_complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def make_complete_bipartite(m: int, n: int) -> Graph:
    """Biparts {0..m-1} and {m..m+n-1}."""
    if m < 1 or n < 1:
        raise GraphError("complete bipartite graph needs m, n >= 1")
    return Graph(m + n, [(u, m + v) for u in range(m) for v in range(n)])


def make_cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def make_petersen() -> Graph:
    """Kneser construction: vertices are 2-subsets of {1..5} in lexicographic
    order ((1,2) = 0, ..., (4,5) = 9); adjacency is disjointness."""
    pairs = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
    edges = []
    for i, p in enumerate(pairs):
        for j in range(i + 1, 10):
            q = pairs[j]
            if not (set(p) & set(q)):
                edges.append((i, j))
    return Graph(10, edges)


def make_hoffman_singleton() -> Graph:
    """Robertson construction: pentagons P_h (vertices 5h+j, j in Z_5, edges
    j ~ j+-1), pentagrams Q_k (vertices 25+5k+j, edges j ~ j+-2), and cross
    edges P_{h,j} ~ Q_{k, (h*k+j) mod 5}.

    The four defining facts (50 vertices, 7-regular, girth 5, diameter 2) are
    asserted after construction; a failure would mean a construction bug.
    """
    edges = set()
    for h in range(5):
        for j in range(5):
            edges.add(tuple(sorted((5 * h + j, 5 * h + (j + 1) % 5))))
            edges.add(tuple(sorted((25 + 5 * h + j, 25 + 5 * h + (j + 2) % 5))))
    for h in range(5):
        for j in range(5):
            for k in range(5):
                edges.add(tuple(sorted((5 * h + j, 25 + 5 * k + (h * k + j) % 5))))
    g = Graph(50, sorted(edges))
    if g.n != 50 or any(g.degree(v) != 7 for v in range(50)):
        raise GraphError("Hoffman-Singleton self-check failed: not 7-regular on 50 vertices")
    if g.girth() != 5 or g.diameter() != 2:
        raise GraphError("Hoffman-Singleton self-check failed: girth/diameter wrong")
    return g


# -- metric computations ----------------------------------------------------


def bfs_distances(g: Graph, v: int) -> list[int]:
    """Exact hop distances from v; UNREACHED (-1) for unreachable vertices."""
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    return g.distances_matrix()[v].tolist()


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None for acyclic graphs (see Graph.girth)."""
    return g.girth()


def distance_sphere(g: Graph, v: int, i: int) -> frozenset[int]:
    """The set of vertices at distance exactly i from v (may be empty)."""
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    if i < 0:
        raise GraphError("sphere radius must be nonnegative")
    return frozenset(np.flatnonzero(g.distances_matrix()[v] == i).tolist())


# -- s-arc enumeration ------------------------------------------------------
# An s-arc is a vertex tuple (v_0, ..., v_s) with each v_j adjacent to v_{j+1}
# and no immediate backtracking (v_{j-1} != v_{j+1}).


def _arc_levels(g: Graph, starts: Iterable[int], s_max: int) -> Iterator[list[tuple[int, ...]]]:
    """The i-arcs from the start vertices, one list per level
    i = 1..s_max. Each level extends the one before, so with sorted starts
    every level is in lexicographic order."""
    arcs = [(v,) for v in starts]
    for _ in range(s_max):
        arcs = [t + (w,) for t in arcs for w in g.adjacency[t[-1]] if len(t) < 2 or w != t[-2]]
        yield arcs


def _arc_tuples(g: Graph, starts: Sequence[int], s: int) -> list[tuple[int, ...]]:
    """The s-arcs from the start vertices: the last level of _arc_levels."""
    arcs = [(v,) for v in starts]
    for arcs in _arc_levels(g, starts, s):
        pass
    return arcs


def _has_arc(g: Graph, s: int) -> bool:
    """Whether g has an s-arc (s >= 1), from the set of directed edges that
    end an i-arc, i = 1..s. A non-backtracking walk longer than 2m repeats a
    directed edge and so extends forever: 2m + 1 steps settle emptiness."""
    ends = {(u, w) for u in range(g.n) for w in g.adjacency[u]}
    for _ in range(min(s, 2 * g.m + 1) - 1):
        ends = {(w, x) for u, w in ends for x in g.adjacency[w] if x != u}
    return bool(ends)


def s_arcs_from(g: Graph, v: int, s: int) -> list[tuple[int, ...]]:
    """All s-arcs with initial vertex v, as vertex tuples (v_0, ..., v_s), in
    lexicographic order."""
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    if s < 1:
        raise GraphError("arc length must be >= 1")
    return _arc_tuples(g, [v], s)


def enumerate_s_arcs(g: Graph, s: int) -> list[tuple[int, ...]]:
    """All s-arcs of g: union of s_arcs_from over all start vertices."""
    if s < 1:
        raise GraphError("arc length must be >= 1")
    return _arc_tuples(g, range(g.n), s)


# -- random graphs (seeded corpus generation) -------------------------------


def random_connected_graph(rng: random.Random, n: int) -> Graph:
    """Random connected graph: random spanning tree plus density-p extras."""
    if n < 2:
        raise GraphError("need n >= 2")
    edges = set()
    order = list(range(n))
    rng.shuffle(order)
    for i in range(1, n):
        j = rng.randrange(i)
        u, v = order[i], order[j]
        edges.add((min(u, v), max(u, v)))
    p = rng.uniform(0.1, 0.5)
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < p:
                edges.add((u, v))
    return Graph(n, sorted(edges))
