"""Subdivision graph, line graph, distance-2 graph, and reconstruction.

The subdivision of a graph on n vertices and m edges keeps the original ids
0..n-1 ("V-vertices") and assigns ids n..n+m-1 to the new mid-edge vertices
("E-vertices"), in sorted edge-list order. That numbering is fixed so induced
group actions and fixture files are reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graphs import (
    UNREACHED,
    DisconnectedGraphError,
    Graph,
    GraphError,
    make_cycle,
)


class MalformedSubdivisionError(GraphError):
    pass


@dataclass(frozen=True, slots=True)
class SubdivisionGraph:
    """A subdivision graph with its base graph.

    graph: the ambient graph on n+m vertices; ids below n are V-vertices.
    edge_of: for each E-vertex (in id order n, n+1, ...), the original edge (u, v).
    base: the original graph.
    """

    graph: Graph
    edge_of: tuple[tuple[int, int], ...]
    base: Graph

    @property
    def n_base(self) -> int:
        return self.base.n

    @property
    def m_base(self) -> int:
        return self.base.m

    def is_v_vertex(self, x: int) -> bool:
        return x < self.n_base


@dataclass(frozen=True, slots=True)
class Component:
    """A connected component, relabelled to 0..k-1.

    vertices[i] is the original id of the component's vertex i.
    """

    vertices: tuple[int, ...]
    graph: Graph


@dataclass(frozen=True, slots=True)
class DeltaReport:
    d: int
    diam_s: int
    delta: int


def subdivide(g: Graph) -> SubdivisionGraph:
    """The subdivision graph: one new vertex in the middle of each edge."""
    n, m = g.n, g.m
    edges = []
    for i, (u, v) in enumerate(g.edge_list):
        e = n + i
        edges.append((u, e))
        edges.append((v, e))
    sg = Graph._trusted(n + m, sorted(edges))  # u < n <= e, and each pair is new
    return SubdivisionGraph(graph=sg, edge_of=g.edge_list, base=g)


def line_graph(g: Graph) -> Graph:
    """Line graph on m vertices; vertex i is edge g.edge_list[i]."""
    m = g.m
    edges = set()
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (u, v) in enumerate(g.edge_list):
        incident[u].append(i)
        incident[v].append(i)
    for ids in incident:  # each list ascends, so every pair has a < b
        for a in range(len(ids)):
            for b in range(a + 1, len(ids)):
                edges.add((ids[a], ids[b]))
    return Graph._trusted(m, sorted(edges))


def distance_two_graph(g: Graph) -> list[Component]:
    """The distance-2 graph split into connected components.

    Isolated vertices come back as singleton components, so e.g. K_n yields n
    of them. A connected bipartite input yields exactly two components.
    Components are ordered by smallest original vertex id.
    """
    if not g.is_connected():
        raise DisconnectedGraphError("distance-2 graph requires a connected input")
    # argwhere walks the upper triangle in row-major order: sorted pairs u < v
    pairs = np.argwhere(np.triu(g.distances_matrix() == 2)).tolist()
    return split_components(Graph._trusted(g.n, map(tuple, pairs)))


def split_components(g: Graph) -> list[Component]:
    """Connected components of g, each relabelled to 0..k-1 in label order,
    ordered by smallest vertex. Labelled by a union-find over the edges, so
    no distance matrix is built."""
    # root[v] < v links v towards the least vertex of its component
    root = list(range(g.n))
    for u, v in g.edge_list:
        while root[u] != u:
            root[u] = u = root[root[u]]
        while root[v] != v:
            root[v] = v = root[root[v]]
        if u != v:
            root[max(u, v)] = min(u, v)
    members: dict[int, list[int]] = {}
    index = []  # each vertex's label in its component
    for v in range(g.n):
        root[v] = root[root[v]]  # root[v] <= v, so its own root is resolved already
        verts = members.setdefault(root[v], [])
        index.append(len(verts))
        verts.append(v)
    # labels rise with the vertex ids, so each component's edges stay sorted
    edges: dict[int, list[tuple[int, int]]] = {r: [] for r in members}
    for u, v in g.edge_list:
        edges[root[u]].append((index[u], index[v]))
    return [
        Component(vertices=tuple(verts), graph=Graph._trusted(len(verts), edges[r]))
        for r, verts in members.items()
    ]


def reconstruct_from_ambient(gamma: Graph, comps: Optional[list[Component]] = None) -> Graph:
    """Label-free reconstruction from the ambient subdivision graph.

    The original graph is the unique component of the distance-2 graph that
    contains vertices of ambient valency other than 2; if every valency is 2
    the ambient graph is a cycle and the canonical half-length cycle is
    returned. ``comps`` is ``distance_two_graph(gamma)`` when the caller has
    it already.
    """
    if gamma.n < 3:
        raise MalformedSubdivisionError("ambient graph too small to be a subdivision")
    if not gamma.is_connected():
        raise MalformedSubdivisionError("ambient subdivision graph must be connected")
    if all(gamma.degree(v) == 2 for v in range(gamma.n)):
        if gamma.n % 2 != 0:
            raise MalformedSubdivisionError(
                "cycle of odd length is not a subdivision graph"
            )
        if gamma.n < 6:
            raise MalformedSubdivisionError(
                f"C_{gamma.n} is not the subdivision of a simple graph: an "
                "all-valency-2 cycle shorter than 6 would halve to fewer than 3 vertices"
            )
        return make_cycle(gamma.n // 2)
    if comps is None:
        comps = distance_two_graph(gamma)
    candidates = [
        c for c in comps if any(gamma.degree(v) != 2 for v in c.vertices)
    ]
    if len(candidates) != 1:
        raise MalformedSubdivisionError(
            "ambient graph does not reconstruct to a unique component"
        )
    return candidates[0].graph


def subdivision_distance(sg: SubdivisionGraph, a: int, b: int) -> int:
    """Distance in the subdivision graph by the closed three-case formula
    (2d for V/V, 2*min+1 for V/E, 2*min+2 for E/E), not by BFS; UNREACHED
    (-1) for vertices in different components."""
    g = sg.graph
    if not (0 <= a < g.n and 0 <= b < g.n):
        raise GraphError("vertex id out of range for subdivision graph")
    if a == b:
        return 0
    dist = sg.base.distances_matrix()
    n = sg.n_base
    a_is_v = sg.is_v_vertex(a)
    b_is_v = sg.is_v_vertex(b)
    if a_is_v and b_is_v:
        base, offset = int(dist[a, b]), 0
    elif a_is_v != b_is_v:
        if b_is_v:
            a, b = b, a
        u, v = sg.edge_of[b - n]
        base, offset = min(int(dist[a, u]), int(dist[a, v])), 1
    else:
        x, u = sg.edge_of[a - n]
        y, v = sg.edge_of[b - n]
        base, offset = min(int(dist[x, y]), int(dist[x, v]), int(dist[y, u]), int(dist[u, v])), 2
    return UNREACHED if base < 0 else 2 * base + offset


def subdivision_distance_matrix(sg: SubdivisionGraph) -> np.ndarray:
    """All subdivision-graph distances by the closed formula, vectorised.

    Same three cases as subdivision_distance; the diagonal of the E/E block is
    zeroed since the formula's minimum is over two distinct edges. The
    endpoints of an edge share a component, so each minimum is over base
    distances that are either all UNREACHED or all reached.
    """
    d = sg.base.distances_matrix()
    n, m = sg.n_base, sg.m_base
    out = np.empty((n + m, n + m), dtype=np.int32)
    out[:n, :n] = _scale(d, 0)
    if m:
        u = np.fromiter((e[0] for e in sg.edge_of), dtype=np.int64, count=m)
        v = np.fromiter((e[1] for e in sg.edge_of), dtype=np.int64, count=m)
        ve = _scale(np.minimum(d[:, u], d[:, v]), 1)
        out[:n, n:] = ve
        out[n:, :n] = ve.T
        ee = np.minimum(
            np.minimum(d[np.ix_(u, u)], d[np.ix_(u, v)]),
            np.minimum(d[np.ix_(v, u)], d[np.ix_(v, v)]),
        )
        ee = _scale(ee, 2)
        np.fill_diagonal(ee, 0)
        out[n:, n:] = ee
    return out


def _scale(base: np.ndarray, offset: int) -> np.ndarray:
    """2*base + offset on reached entries; UNREACHED stays UNREACHED."""
    return np.where(base < 0, UNREACHED, 2 * base + offset)


def delta_of(g: Graph, sg: Optional[SubdivisionGraph] = None) -> DeltaReport:
    """diam(S(g)) = 2*diam(g) + delta with delta in {0, 1, 2}.

    diam(S(g)) is measured on the distance matrix of the actual subdivision
    graph, never on the closed formula; the delta=2 case is cross-checked
    against its witness criterion (two edges whose four cross-distances all
    equal diam(g)). ``sg`` is ``subdivide(g)`` when the caller has it already.
    """
    if g.n < 2:
        raise GraphError("need at least 2 vertices")
    if sg is None:
        sg = subdivide(g)
    elif sg.base != g:
        raise GraphError("sg is not the subdivision of g")
    d = g.diameter()
    diam_s = sg.graph.diameter()
    delta = diam_s - 2 * d
    if delta not in (0, 1, 2):
        raise AssertionError(f"delta out of range: {delta}")
    if (delta == 2) != (delta2_witness(g) is not None):
        raise AssertionError("delta=2 witness criterion disagrees with BFS diameter")
    return DeltaReport(d=d, diam_s=diam_s, delta=delta)


def delta2_witness(g: Graph) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """An edge pair witnessing delta=2, or None: the first pair (e_i, e_j),
    i < j in edge-list order, whose four cross distances all equal diam(g).

    With edge i = (x[i], y[i]), both[i, u] says that u is at distance
    diam(g) from x[i] and from y[i], so witness[i, j] holds exactly when
    edges i and j form such a pair. witness is symmetric with a false
    diagonal (diam(g) >= 1 once there is an edge), so its first true entry
    in row-major order lies above the diagonal: it is that first pair.
    """
    at_diameter = g.distances_matrix() == g.diameter()
    x, y = np.array(g.edge_list, dtype=np.intp).reshape(-1, 2).T
    both = at_diameter[x] & at_diameter[y]
    witness = both[:, x] & both[:, y]
    hits = np.flatnonzero(witness)
    if not hits.size:
        return None
    i, j = divmod(int(hits[0]), g.m)
    return (g.edge_list[i], g.edge_list[j])
