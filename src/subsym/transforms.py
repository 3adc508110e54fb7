"""Subdivision graph, line graph, distance-2 graph, and reconstruction.

The subdivision of a graph on n vertices and m edges keeps the original ids
0..n-1 ("V-vertices") and assigns ids n..n+m-1 to the new mid-edge vertices
("E-vertices"), in sorted edge-list order. That numbering is fixed so induced
group actions and fixture files are reproducible byte for byte. S(g)'s Graph
is built once per g and cached on it, like g's distance spheres, so every
caller of ``subdivide(g)`` shares it and whatever is cached on it.

Distances are read off ``Graph.spheres``, one Python-int bitset per vertex
and radius; the closed distance formula of S(g) is stated in the same form
by ``subdivision_spheres``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import or_, xor
from typing import Optional

from .graphs import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    _distance_row,
    _members,
    _sphere_closure,
    make_cycle,
)


class MalformedSubdivisionError(GraphError):
    pass


@dataclass(frozen=True, slots=True)
class SubdivisionGraph:
    """A subdivision graph S(base) with its base graph.

    graph: S(base) on n + m vertices, n and m being base's vertex and edge
    counts. V-vertex v keeps its id v; base edge i, ``base.edge_list[i]``,
    is E-vertex n + i. So x is an E-vertex exactly when x >= base.n.
    """

    graph: Graph
    base: Graph


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
    """The subdivision graph: one new vertex in the middle of each edge.

    The Graph of S(g) is built on the first call and cached on g; each call
    wraps it in a fresh SubdivisionGraph, so the cached graph holds no
    reference back to g. Its edges are the pairs (u, n + i) for each vertex
    u and each edge i at u, made in sorted order: u ascends, then i. Its
    adjacency is read off the same lists: a V-vertex's row is its incident
    edge points, ascending, and E-vertex n + i's row is edge i's ends.
    """
    if g._subdivision is None:
        n = g.n
        incident: list[list[int]] = [[] for _ in range(n)]
        for e, (u, v) in enumerate(g.edge_list, n):
            incident[u].append(e)
            incident[v].append(e)
        g._subdivision = Graph._trusted(
            n + g.m,
            [(u, e) for u, es in enumerate(incident) for e in es],
            tuple(map(tuple, incident)) + g.edge_list,
        )
    return SubdivisionGraph(graph=g._subdivision, base=g)


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
    # u ascends, and so do the members of its sphere above u: sorted pairs u < v
    pairs = [
        (u, u + 1 + k)
        for u, row in enumerate(g.spheres()) if len(row) > 2
        for k in _members(row[2] >> (u + 1))
    ]
    return split_components(Graph._trusted(g.n, pairs))


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


def subdivision_parts(g: Graph) -> Optional[tuple[Graph, list[int], dict[tuple[int, int], int]]]:
    """(Sigma, vs, mid) when g is S(Sigma) for a connected Sigma with an edge
    that is not a cycle, else None. No labels are read.

    V and E are the parity classes of the distance from vertex 0, the one
    bipartition of a connected bipartite g. E is the only class whose
    vertices all have valency 2, and no two E-vertices share their pair of
    neighbours. So no automorphism of g swaps V and E, and Aut(g) is
    Aut(Sigma) acting on vertices and edges. Sigma is the graph on V in
    ascending order ``vs``; ``mid`` maps its edge (u, v), u < v, to the
    E-vertex between them.
    """
    if g.m == 0 or not g.is_connected():
        return None
    odd = 0
    for sphere in g.spheres()[0][1::2]:
        odd |= sphere
    side = [odd >> x & 1 for x in range(g.n)]
    v_sides = {side[x] for x, nbrs in enumerate(g.adjacency) if len(nbrs) != 2}
    if len(v_sides) != 1 or any(side[u] == side[v] for u, v in g.edge_list):
        return None  # a cycle, no class of valency-2 vertices only, or not bipartite
    (v_side,) = v_sides
    vs = [x for x in range(g.n) if side[x] == v_side]
    index = {v: i for i, v in enumerate(vs)}
    mid: dict[tuple[int, int], int] = {}
    for x in range(g.n):
        if side[x] != v_side:
            a, b = g.adjacency[x]  # sorted, and index keeps the order
            mid[index[a], index[b]] = x
    if len(vs) + len(mid) != g.n:
        return None  # two E-vertices share their pair of neighbours
    return Graph._trusted(len(vs), sorted(mid)), vs, mid


def reconstruct_from_ambient(gamma: Graph) -> Graph:
    """Label-free reconstruction: a Sigma with S(Sigma) isomorphic to gamma.
    An all-valency-2 gamma is a cycle C_2k and gives the canonical C_k; any
    other gives ``subdivision_parts``' Sigma, or MalformedSubdivisionError
    when gamma is not a subdivision."""
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
    parts = subdivision_parts(gamma)
    if parts is None:
        raise MalformedSubdivisionError("ambient graph is not the subdivision of a graph")
    return parts[0]


def subdivision_spheres(sg: SubdivisionGraph) -> tuple[tuple[int, ...], ...]:
    """S(base)'s hop-distance spheres by the closed formula, not by BFS, in
    the form of ``Graph.spheres``: bit y of row x's entry r is set when the
    formula puts y at distance r from x.

    With d the base distance, the formula has three cases:
    - V-vertices x and y: 2 d(x, y);
    - V-vertex x and the E-vertex of edge (u, v): 2 min(d(x, u), d(x, v)) + 1;
    - the E-vertices of distinct edges (u, v) and (x, y): 2 min(d(u, x),
      d(u, y), d(v, x), d(v, y)) + 2.

    So V-vertex x's sphere of radius 2i is its base sphere S_i(x), and its
    sphere of radius 2i + 1 is the set of edges that meet S_i(x) but not
    the ball B_{i-1}(x). One closure over the base gives both: x's ball of
    radius 0 is x with its edges (edge j as bit n + j), so the bits that
    join at level i are S_i(x) and those edges. For the E-vertex j of edge
    (u, v), the last two cases say d(j, y) = 1 + min(d(u, y), d(v, y)) for
    every y != j, so its ball of radius r is {j} with the balls of radius
    r - 1 of u and v. Vertices of other components are in no sphere.
    """
    g = sg.base
    n = g.n
    seeds = [1 << x for x in range(n)]
    for j, (u, v) in enumerate(g.edge_list, n):
        seeds[u] |= 1 << j
        seeds[v] |= 1 << j
    low = (1 << n) - 1
    high = ~low
    rows = []
    balls = []  # balls[x][r]: V-vertex x's ball of radius r
    for levels in _sphere_closure(g.adjacency, seeds):
        row = [part for joined in levels for part in (joined & low, joined & high)]
        if not row[-1]:
            row.pop()
        rows.append(tuple(row))
        balls.append(list(accumulate(row, or_)))
    for j, (u, v) in enumerate(g.edge_list, n):
        bu, bv = balls[u], balls[v]
        # pad the shorter list of balls with its last, whole-component ball
        if len(bu) < len(bv):
            bu = bu + bu[-1:] * (len(bv) - len(bu))
        elif len(bv) < len(bu):
            bv = bv + bv[-1:] * (len(bu) - len(bv))
        near = list(map(or_, bu, bv))  # near[r]: within r of u or of v
        bit = 1 << j
        row = [bit, near[0], *map(xor, near[1:], near)]
        row[2] ^= bit  # near[1] also holds j itself, at radius 0
        while not row[-1]:
            row.pop()
        rows.append(tuple(row))
    return tuple(rows)


def subdivision_distance_matrix(sg: SubdivisionGraph) -> list[list[int]]:
    """All subdivision-graph distances by the closed formula, not by BFS,
    as rows read off ``subdivision_spheres``; UNREACHED (-1) between
    vertices in different components."""
    size = sg.base.n + sg.base.m
    return [_distance_row(row, size) for row in subdivision_spheres(sg)]


def delta_of(g: Graph) -> DeltaReport:
    """diam(S(g)) = 2*diam(g) + delta with delta in {0, 1, 2}.

    diam(S(g)) is measured on the distance matrix of the actual subdivision
    graph, never on the closed formula; the delta=2 case is cross-checked
    against its witness criterion (two edges whose four cross-distances all
    equal diam(g)).
    """
    if g.n < 2:
        raise GraphError("need at least 2 vertices")
    d = g.diameter()
    diam_s = subdivide(g).graph.diameter()
    delta = diam_s - 2 * d
    if delta not in (0, 1, 2):
        raise AssertionError(f"delta out of range: {delta}")
    if (delta == 2) != (delta2_witness(g) is not None):
        raise AssertionError("delta=2 witness criterion disagrees with BFS diameter")
    return DeltaReport(d=d, diam_s=diam_s, delta=delta)


def delta2_witness(g: Graph) -> Optional[tuple[tuple[int, int], tuple[int, int]]]:
    """An edge pair witnessing delta=2, or None: the first pair (e_i, e_j),
    i < j in edge-list order, whose four cross distances all equal diam(g).

    For edge i = (x, y), ``both`` holds the vertices at distance diam(g)
    from x and from y; edge j pairs with edge i exactly when both its ends
    are in it. The relation is symmetric and no edge pairs with itself
    (diam(g) >= 1 once there is an edge), so the first edge i with a
    partner has none before it, and its least partner in edge-list order,
    the least pair (u, w), completes the first pair.
    """
    d = g.diameter()
    far = [row[d] if len(row) > d else 0 for row in g.spheres()]
    for x, y in g.edge_list:
        both = far[x] & far[y]
        if both:
            partners = [(u, w) for u in _members(both) for w in g.adjacency[u] if u < w and both >> w & 1]
            if partners:
                return (x, y), min(partners)
    return None
