"""Immutable simple graphs: named constructions, exact metrics, s-arc enumeration.

Vertices are dense integer ids 0..n-1. All operations are pure; a Graph never
changes after construction, so everything here is safe to call concurrently.

Hop distances are kept as sphere bitsets: Python ints whose bits are the
vertices at one distance from one vertex, built once per graph by a
bit-parallel closure and cached on it. Rows, sets, the diameter, the
girth and connectivity are all read off them, with no dependency beyond
the standard library.
"""

from __future__ import annotations

import operator
import random
from typing import Iterable, Iterator, Optional, Sequence

UNREACHED = -1  # sentinel used by distance rows for disconnected pairs
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
        "_spheres",
        "_diameter",
        "_girth",
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
        self._spheres = None
        self._diameter = None  # set by the first call of diameter() that succeeds
        self._girth = _UNKNOWN
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

    def spheres(self) -> tuple[tuple[int, ...], ...]:
        """Hop-distance spheres as bitsets, built once by the bit-parallel
        closure ``_sphere_closure``: bit x of ``spheres()[v][i]`` is set
        exactly when x is at distance i from v. Row v stops at v's
        eccentricity in its component, so every listed sphere is nonempty,
        and a vertex in no sphere of row v is unreached from v. Every hop
        distance in the library reads these rows."""
        if self._spheres is None:
            self._spheres = _sphere_closure(self.adjacency)
        return self._spheres

    def diameter(self) -> int:
        """Largest hop distance, cached after the first call. Rejects empty
        and disconnected graphs on every call."""
        if self._diameter is None:
            if self.n == 0:
                raise DisconnectedGraphError("empty graph has no diameter")
            if not self.is_connected():
                raise DisconnectedGraphError("diameter undefined for disconnected graph")
            self._diameter = max(map(len, self.spheres())) - 1
        return self._diameter

    def girth(self) -> Optional[int]:
        """Length of a shortest cycle, or None for acyclic graphs.

        For a root r, an edge {x, y} with d(r, x) = d(r, y) = i closes a
        walk of length 2i + 1, and a vertex x at distance i with two
        neighbours at distance i - 1 closes one of length 2i; each such walk
        contains a cycle no longer than itself. A shortest cycle is
        isometric, so a root on it realises its length as one of these two
        cases. Since r is in S_i(x) exactly when x is in S_i(r), both cases
        are read off the spheres around x, for every root at once: the odd
        case is an edge {x, y} with S_i(x) & S_i(y) nonzero, the even case a
        vertex x whose S_i(x) meets the S_{i-1} of two distinct neighbours.
        Scanning i upwards, even before odd, the first hit is the girth; a
        level costs O(n + m) int operations.
        """
        if self._girth is _UNKNOWN:
            self._girth = self._girth_from_spheres() if self.m else None
        return self._girth

    def _girth_from_spheres(self) -> Optional[int]:
        spheres = self.spheres()
        prev = [row[0] for row in spheres]
        i = 1
        while True:
            cur = [row[i] if len(row) > i else 0 for row in spheres]
            if not any(cur):
                return None
            if i > 1:  # two neighbours never share their sphere of radius 0
                for x, nbrs in enumerate(self.adjacency):
                    if cur[x] and len(nbrs) > 1:
                        once = twice = 0
                        for w in nbrs:
                            s = prev[w]
                            twice |= once & s
                            once |= s
                        if cur[x] & twice:
                            return 2 * i
            for x, y in self.edge_list:
                if cur[x] & cur[y]:
                    return 2 * i + 1
            prev = cur
            i += 1

    def is_connected(self) -> bool:
        return self.n == 0 or sum(map(int.bit_count, self.spheres()[0])) == self.n


def _sphere_closure(
    adjacency: Sequence[Sequence[int]], seeds: Optional[Sequence[int]] = None
) -> tuple[tuple[int, ...], ...]:
    """All-pairs hop-distance spheres by a bit-parallel closure (Akiba,
    Iwata and Yoshida, SIGMOD 2013), with one Python int per ball.

    ``reach[v]`` is the set of vertices within ``level`` hops of v. One
    level ORs the balls of v's neighbours into v's, reading the previous
    level's balls; the bits it adds are the vertices at distance exactly
    ``level``, v's next sphere. A vertex whose ball stops growing has
    reached its whole component and drops out of the loop.

    ``seeds[v]``, when given, replaces {v} as v's ball of radius 0; each
    row then lists the bits that first join v's ball at each level.
    """
    reach = [1 << v for v in range(len(adjacency))] if seeds is None else list(seeds)
    rows = [[b] for b in reach]
    live = [v for v, a in enumerate(adjacency) if a]
    while live:
        old = reach[:]
        grown = []
        for v in live:
            r = b = old[v]
            for w in adjacency[v]:
                r |= old[w]
            if r != b:
                reach[v] = r
                rows[v].append(r ^ b)
                grown.append(v)
        live = grown
    return tuple(map(tuple, rows))


def _distance_row(spheres: Sequence[int], n: int) -> list[int]:
    """The distances to vertices 0..n-1 that one row of spheres gives;
    UNREACHED for a vertex in none of them."""
    row = [UNREACHED] * n
    for i, sphere in enumerate(spheres):
        for x in _members(sphere):
            row[x] = i
    return row


def _members(bits: int) -> list[int]:
    """The positions of the set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


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
    return _distance_row(g.spheres()[v], g.n)


def girth(g: Graph) -> Optional[int]:
    """Length of a shortest cycle, or None for acyclic graphs (see Graph.girth)."""
    return g.girth()


def distance_sphere(g: Graph, v: int, i: int) -> frozenset[int]:
    """The set of vertices at distance exactly i from v (may be empty)."""
    if not (0 <= v < g.n):
        raise GraphError(f"vertex {v} out of range")
    if i < 0:
        raise GraphError("sphere radius must be nonnegative")
    row = g.spheres()[v]
    return frozenset(_members(row[i]) if i < len(row) else ())


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
