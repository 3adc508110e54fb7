"""Graph automorphism group and isomorphism search.

Both run the same engine: equitable partition refinement (source and target
partitions refined in lockstep) plus backtracking on individualized vertices.

The automorphism group is found in two passes over one path (McKay and
Piperno, J. Symb. Comput. 60, 2014). The first pass refines the invariant
partition, then at each level individualises the least vertex b_i of the
first smallest non-singleton cell to itself and refines again, keeping each
level's partition P_i, until the partition is discrete; b_0, b_1, ... is
the base. The second pass resolves the levels deepest first. While level
i is resolved, every generator found so far fixes b_0..b_{i-1}, so they
generate a subgroup of that pointwise stabilizer: a candidate image w of
b_i in b_i's orbit under them needs no search, a failed search for w rules
out w's whole orbit under them, and any other w is searched for from P_i
with b_i -> w. The deeper levels have by then generated the stabilizer of
b_0..b_i, so level i runs at most one search per orbit of that stabilizer
on its cell: the symmetric group S_n takes n - 1 searches, not n(n - 1)/2.

Refinement keeps a vertex-to-cell index per side, so a splitter counts
neighbours only along its own adjacency lists and regroups only the cells
holding one of those neighbours (Paige and Tarjan 1987). The splitter queue
and the fragment order are still those of a scan over every cell: base
points and generators depend on them, and through the generators so do the
``--group aut`` cache, the subgroups that ``random_subgroups`` draws for
the corpus, and ``tests/golden_verify.jsonl``.

A search child individualises x -> y in one cell C of its parent's refined
partition. That partition is equitable, with the same counts on the s and
t sides, and every cell of the child lies inside a parent cell, so an
unchanged parent cell gives each current cell a constant count as a
splitter: it splits nothing and detects no mismatch. A child's refinement
therefore queues only {x} and C - {x}, and its queue, fragment keys and
result are those of the full scan. Each P_i is equitable, so this holds for
every step of the first path and every search the second pass starts. Only
the root refinement of the invariant partition, which is not equitable,
queues every cell.
"""

from __future__ import annotations

from collections import defaultdict, deque
from operator import attrgetter
from typing import Optional

import numpy as np

from .graphs import Graph, GraphError
from .groups import (
    PermGroup,
    SubdivisionLift,
    is_graph_automorphism,
    orbit_partition,
    point_action,
    validate_automorphisms,
)
from .perms import Perm


class BudgetExceededError(GraphError):
    pass


class _Cell:
    __slots__ = ("s", "t", "dead", "key")

    def __init__(self, s: list[int], t: list[int]):
        self.s = s
        self.t = t
        self.dead = False
        self.key: tuple[int, ...] = ()  # list position, set by _refine


_by_key = attrgetter("key")


def _vertex_invariants(g: Graph) -> list[tuple]:
    """Per-vertex isomorphism invariant: valency plus distance distribution,
    the sorted (distance, count) pairs of the vertex's row (-1 = unreached).
    Computed once per graph and cached on it; callers must not mutate it."""
    if g._invariants is not None:
        return g._invariants
    n = g.n
    # shift row v into its own block of n + 1 bins, so one bincount counts all rows
    shifted = g.distances_matrix() + (np.arange(n, dtype=np.int64)[:, None] * (n + 1) + 1)
    counts = np.bincount(shifted.ravel(), minlength=n * (n + 1)).reshape(n, n + 1)
    out = []
    for v in range(n):
        row = counts[v]
        present = np.flatnonzero(row)
        profile = tuple(zip((present - 1).tolist(), row[present].tolist()))
        out.append((g.degree(v), profile))
    g._invariants = out
    return out


class _MappingSearch:
    _UNSET = object()

    def __init__(self, g1: Graph, g2: Graph, node_budget: Optional[int] = None):
        self.g1 = g1
        self.g2 = g2
        self.nodes = 0
        self.budget = node_budget
        self._groups = self._UNSET  # cached invariant grouping

    def initial_cells(self) -> Optional[list[_Cell]]:
        if self._groups is self._UNSET:
            self._groups = self._compute_groups()
        if self._groups is None:
            return None
        return [_Cell(s[:], t[:]) for s, t in self._groups]

    def _compute_groups(self) -> Optional[list[tuple[list[int], list[int]]]]:
        if self.g1.n != self.g2.n or self.g1.m != self.g2.m:
            return None
        inv1 = _vertex_invariants(self.g1)
        inv2 = inv1 if self.g2 is self.g1 else _vertex_invariants(self.g2)
        by1: dict[tuple, list[int]] = defaultdict(list)
        by2: dict[tuple, list[int]] = defaultdict(list)
        for v, key in enumerate(inv1):
            by1[key].append(v)
        for v, key in enumerate(inv2):
            by2[key].append(v)
        if sorted(by1) != sorted(by2):
            return None
        groups = []
        for key in sorted(by1):
            if len(by1[key]) != len(by2[key]):
                return None
            groups.append((by1[key], by2[key]))
        return groups

    def find(self) -> Optional[list[int]]:
        """A mapping (list over g1 vertices) that is an isomorphism, or None."""
        cells = self.initial_cells()
        if cells is None:
            return None
        return self._dfs(cells)

    # -- internals ---------------------------------------------------------

    def _refine(self, cells: list[_Cell], queue: Optional[list[_Cell]] = None) -> Optional[list[_Cell]]:
        """Refine both partitions to equitable ones in lockstep, or None when
        the s and t sides stop matching.

        Each cell is a splitter once, in FIFO order. A splitter costs the
        degree sum of its vertices plus the size of the cells it touches;
        a fragment takes its parent's place in the list, ordered by count,
        which the ``key`` tuples (parent key + fragment index) record.
        ``queue`` (default: every cell) lists the first splitters; leaving
        out cells that cannot split anything changes no result (see the
        module docstring).
        """
        adj1, adj2 = self.g1.adjacency, self.g2.adjacency
        cell1: dict[int, _Cell] = {}  # vertex -> its cell, one index per side
        cell2: dict[int, _Cell] = {}
        for i, c in enumerate(cells):
            c.key = (i,)
            for v in c.s:
                cell1[v] = c
            for v in c.t:
                cell2[v] = c
        work = deque(cells if queue is None else queue)
        while work:
            w = work.popleft()
            if w.dead:
                continue
            count1: dict[int, int] = {}
            for u in w.s:
                for v in adj1[u]:
                    count1[v] = count1.get(v, 0) + 1
            count2: dict[int, int] = {}
            for u in w.t:
                for v in adj2[u]:
                    count2[v] = count2.get(v, 0) + 1
            touched = {cell1[v] for v in count1}
            if touched != {cell2[v] for v in count2}:
                return None
            # split in list order, so fragments queue as a full scan would
            for c in sorted(touched, key=_by_key):
                if len(c.s) == 1:
                    if count1[c.s[0]] != count2[c.t[0]]:
                        return None
                    continue
                groups_s: dict[int, list[int]] = defaultdict(list)
                for v in c.s:
                    groups_s[count1.get(v, 0)].append(v)
                groups_t: dict[int, list[int]] = defaultdict(list)
                for v in c.t:
                    groups_t[count2.get(v, 0)].append(v)
                keys = sorted(groups_s)
                if keys != sorted(groups_t):
                    return None
                if any(len(groups_s[k]) != len(groups_t[k]) for k in keys):
                    return None
                if len(keys) == 1:
                    continue
                c.dead = True
                for i, k in enumerate(keys):
                    frag = _Cell(groups_s[k], groups_t[k])
                    frag.key = c.key + (i,)
                    for v in frag.s:
                        cell1[v] = frag
                    for v in frag.t:
                        cell2[v] = frag
                    work.append(frag)
        return sorted(set(cell1.values()), key=_by_key)

    def _dfs(self, cells: list[_Cell], queue: Optional[list[_Cell]] = None) -> Optional[list[int]]:
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceededError(
                f"mapping search exceeded {self.budget} nodes"
            )
        cells = self._refine(cells, queue)
        if cells is None:
            return None
        at = _target(cells)
        if at is None:
            return self._verify_leaf(cells)
        target = cells[at]
        x = min(target.s)
        for y in sorted(target.t):
            res = self._dfs(*_child(cells, at, x, y))
            if res is not None:
                return res
        return None

    def _verify_leaf(self, cells: list[_Cell]) -> Optional[list[int]]:
        mapping = [0] * self.g1.n
        for c in cells:
            mapping[c.s[0]] = c.t[0]
        for u, v in self.g1.edge_list:
            if not self.g2.has_edge(mapping[u], mapping[v]):
                return None
        return mapping


def _target(cells: list[_Cell]) -> Optional[int]:
    """Index of the first smallest non-singleton cell, or None when the
    partition is discrete."""
    at = None
    for i, c in enumerate(cells):
        if len(c.s) > 1 and (at is None or len(c.s) < len(cells[at].s)):
            at = i
    return at


def _child(cells: list[_Cell], at: int, x: int, y: int) -> tuple[list[_Cell], list[_Cell]]:
    """Individualise x -> y in cell ``at`` of an equitable partition: the
    child partition, and its two new cells {x} and the rest, which are the
    only splitters its refinement needs."""
    split = cells[at]
    new = [_Cell([x], [y]), _Cell([v for v in split.s if v != x], [v for v in split.t if v != y])]
    # fresh _Cell objects, since _refine marks cells dead; it never mutates
    # the vertex lists, so parent and child share them
    child = [_Cell(c.s, c.t) for c in cells[:at]] + new
    child += [_Cell(c.s, c.t) for c in cells[at + 1:]]
    return child, new


def find_isomorphism(g1: Graph, g2: Graph, node_budget: Optional[int] = None) -> Optional[list[int]]:
    """A vertex bijection g1 -> g2 preserving adjacency, or None.

    Equal graphs map by the identity, which is also the search's first
    answer: its two sides stay identical and it tries x -> x first."""
    if g1 == g2:
        return list(range(g1.n))
    return _MappingSearch(g1, g2, node_budget).find()


def is_isomorphic(g1: Graph, g2: Graph, node_budget: Optional[int] = None) -> bool:
    return find_isomorphism(g1, g2, node_budget) is not None


def automorphism_group(g: Graph, node_budget: int = 2_000_000) -> PermGroup:
    """The full automorphism group of g as a permutation group.

    One refined path fixes the base: at each level, the least vertex b of
    the first smallest non-singleton cell is individualised to itself.
    The levels are then resolved deepest first: each candidate image w of
    b is either in b's orbit under the generators found so far, excluded
    with its orbit by an earlier failed search, or searched for explicitly
    from the level's partition. The product of the level orbit sizes is
    the group order, which is cross-checked against the chain order.
    """
    if g.n > 400:
        raise BudgetExceededError("automorphism search is budgeted for n <= 400")
    if g.n == 0:
        return PermGroup(0, ())
    search = _MappingSearch(g, g, node_budget)
    image = point_action(g.n).apply
    # first pass: (equitable partition, target cell index, base point) per level
    path: list[tuple[list[_Cell], int, int]] = []
    cells = search._refine(search.initial_cells())
    while (at := _target(cells)) is not None:
        b = min(cells[at].s)
        path.append((cells, at, b))
        cells = search._refine(*_child(cells, at, b, b))
        assert cells is not None

    # second pass, deepest level first: the generators found so far fix the
    # base points above this level, so their orbits prune its candidates
    gens: list[Perm] = []
    group = PermGroup(g.n, gens)
    order = 1
    for cells, at, b in reversed(path):
        in_orbit = orbit_partition(group, [b], image)[1]
        excluded: set[int] = set()
        for w in sorted(cells[at].s):
            if w in in_orbit or w in excluded:
                continue
            mapping = search._dfs(*_child(cells, at, b, w))
            if mapping is None:
                excluded.update(orbit_partition(group, [w], image)[1])
                continue
            gens.append(Perm(mapping))
            group = PermGroup(g.n, gens)
            in_orbit = orbit_partition(group, [b], image)[1]
        order *= len(in_orbit)

    # the search-side order is an independent count; a mismatch is a bug
    if group.order() != order:
        raise AssertionError("automorphism search order != chain order")
    return group


def subdivision_parts(g: Graph) -> Optional[tuple[Graph, SubdivisionLift]]:
    """(Sigma, lift) when g is a subdivision S(Sigma) whose two parts valency
    tells apart, else None.

    E is the set of valency-2 vertices and V the rest. When every edge has
    exactly one end in E, no two E-vertices share their pair of neighbours
    and g has an edge, g is S(Sigma) for Sigma on V with one edge per
    E-vertex, and Sigma has no valency-2 vertex. Every automorphism of g then
    keeps V and E, so Aut(g) is Aut(Sigma) acting on vertices and edges (the
    reconstruction result for subdivisions). Sigma is relabelled in the
    sorted order of V, and the lift places its vertices and edges on g's own
    labels.
    """
    if g.m == 0:
        return None
    in_e = [len(a) == 2 for a in g.adjacency]
    if any(in_e[u] == in_e[v] for u, v in g.edge_list):
        return None
    vs = [v for v in range(g.n) if not in_e[v]]
    index = {v: i for i, v in enumerate(vs)}
    mid: dict[tuple[int, int], int] = {}  # Sigma's edge -> its E-vertex
    for x in range(g.n):
        if in_e[x]:
            a, b = g.adjacency[x]  # sorted, and index keeps the order
            e = (index[a], index[b])
            if e in mid:
                return None
            mid[e] = x
    return Graph(len(vs), list(mid)), SubdivisionLift(vs, mid)


def subdivision_automorphism_group(g: Graph) -> Optional[tuple[PermGroup, Graph]]:
    """Aut(g) lifted from the base graph, when ``subdivision_parts``
    recognises g as S(Sigma), else None. Returns that group on g's own labels
    (a lifted group, see ``groups``) and Sigma."""
    parts = subdivision_parts(g)
    if parts is None:
        return None
    base, lift = parts
    aut = automorphism_group(base)
    group = lift.group(aut)
    validate_automorphisms(g, group)
    # V and E are Aut-invariant and an E-vertex is fixed by its pair, so the
    # lift is faithful; a mismatch is a bug
    if group.order() != aut.order():
        raise AssertionError("lifted group order != Aut(base) order")
    return group, base


def relift_subdivision_group(g: Graph, G: PermGroup) -> PermGroup:
    """G as a lifted group when ``subdivision_parts`` recognises g as
    S(Sigma) and G's generators are the lifts of their restrictions to V,
    so that the two groups have the same generators; G itself otherwise."""
    parts = subdivision_parts(g)
    if parts is None or G.degree != g.n:
        return G
    base, lift = parts
    restricted = []
    for p in G.generators:
        images = [lift.base_of[p.images[x]] for x in lift.vertex_at]
        if not all(isinstance(i, int) for i in images):
            return G  # p moves a V-point into E
        q = Perm(images)
        if not is_graph_automorphism(base, q):
            return G
        restricted.append(q)
    lifted = lift.group(PermGroup(base.n, restricted))
    return lifted if lifted.generators == G.generators else G
