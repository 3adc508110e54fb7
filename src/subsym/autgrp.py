"""Graph automorphism group and isomorphism search.

Both run the same engine: equitable partition refinement plus backtracking
on individualised vertices, matching a source graph g1 (the s side) to a
target graph g2 (the t side); for automorphisms both are g.

The s side of every search node lies on one individualisation path, g1's
*first path*: refine the invariant partition, then at each level
individualise the least vertex x of the first smallest non-singleton cell
and refine again, until the partition is discrete. The search refines that
path once, lazily as it first goes deeper, and keeps per level the
partition, its target cell, x and the *trace* of the refinement that made
it: for each splitter, the cells it touched in position order, each with
its sorted (count, size) groups, or with its count if a singleton. A
search node refines only its t side and compares each splitter step with
the trace; the first difference kills the node. Refining both sides in
lockstep compares the same per-side data at the same cell positions, so
this visits the same nodes in the same order and finds the same mapping
(McKay and Piperno, J. Symb. Comput. 60, 2014).

The automorphism group is found in two passes over the first path. The
first pass records it; its x's, b_0, b_1, ..., are the base. The second
pass resolves the levels deepest first. While level i is resolved, every
generator found so far fixes b_0..b_{i-1}, so they generate a subgroup of
that pointwise stabilizer: a candidate image w of b_i in b_i's orbit under
them needs no search, a failed search for w rules out w's whole orbit
under them, and any other w is searched for from the stored P_i with
b_i -> w. The deeper levels have by then generated the stabilizer of
b_0..b_i, so level i runs at most one search per orbit of that stabilizer
on its cell: the symmetric group S_n takes n - 1 searches, not
n(n - 1)/2.

The second pass also builds the group's stabilizer chain, and the group
comes back with it, with no Schreier-Sims sift. Level i's transversal is
b_i's orbit under every generator found at depth >= i, walked by
``_ChainLevel.extend`` in Schreier-Sims' own order, and it prunes level i.
Level i tries every candidate image of b_i, so those generators already
generate the stabilizer of b_0..b_{i-1} and are a strong generating set
for the path's base (McKay and Piperno 2014; Seress 2003, ch. 4): the
chain is the one ``StabilizerChain`` builds from the same generators on
that base, level for level. Three checks catch a search bug with
AssertionError: a generator found at depth d must fix b_0..b_{d-1}, and
every generator must preserve g's edges and sift to the identity through
the finished chain. The chain is memoised on the group under the prefix
(b_0,), where it serves the point stabilizer of b_0, the edge stabilizer
of (b_0, b_1) and every other prefix its base starts with.

Partitions are nauty-style arrays (``_Partition``): ``lab`` lists the
vertices cell by cell, and each vertex carries its cell id. A splitter
counts neighbours along its own adjacency lists and regroups only the
cells holding one of those neighbours (Paige and Tarjan 1987). A split
cell's fragments are written in place in count order, take fresh ids and
join the splitter queue in that order. The splitter queue and the fragment
order are those of a scan over every cell: base points and generators
depend on them, and through the generators so do the subgroups that
``random_subgroups`` draws for the corpus and ``tests/golden_verify.jsonl``.

A search child individualises x -> y in one cell C of its parent's refined
partition. That partition is equitable, and every cell of the child lies
inside a parent cell, so an unchanged parent cell gives each current cell
a constant count as a splitter: it splits nothing, and on the t side it
finds the same counts as on the s side. A child's refinement therefore
queues only {x} and C - {x}, and its queue, fragment order and result are
those of the full scan. Only the root refinement of the invariant
partition, which is not equitable, queues every cell.
"""

from __future__ import annotations

from collections import defaultdict, deque
from itertools import repeat
from typing import Optional

import numpy as np

from .graphs import Graph, GraphError
from .groups import (
    PermGroup,
    StabilizerChain,
    SubdivisionLift,
    _ChainLevel,
    is_graph_automorphism,
    validate_automorphisms,
)
from .perms import Perm
from .transforms import subdivision_parts


class BudgetExceededError(GraphError):
    pass


def _check_budget(node_budget) -> None:
    if node_budget is not None and (
        isinstance(node_budget, bool) or not isinstance(node_budget, int) or node_budget < 0
    ):
        raise GraphError(f"node_budget must be None or an int >= 0, got {node_budget!r}")


def _vertex_invariants(g: Graph) -> list[tuple]:
    """Per-vertex isomorphism invariant: valency plus distance distribution,
    the sorted (distance, count) pairs of the vertex's row (-1 = unreached).
    Computed once per graph and cached on it; callers must not mutate it."""
    if g._invariants is not None:
        return g._invariants
    n = g.n
    dist = g.distances_matrix()
    # one column per distance -1 (unreached), 0, ..., max; shift row v into
    # its own block of columns, so one bincount counts all rows
    width = int(dist.max()) + 2 if n else 0
    shifted = dist + (np.arange(n, dtype=np.int64)[:, None] * width + 1)
    rows = np.bincount(shifted.ravel(), minlength=n * width).reshape(n, width).tolist()
    g._invariants = [
        (g.degree(v), tuple((d - 1, c) for d, c in enumerate(row) if c))
        for v, row in enumerate(rows)
    ]
    return g._invariants


def _invariant_cells(g: Graph) -> dict[tuple, list[int]]:
    """g's vertices grouped by ``_vertex_invariants``, each group ascending."""
    by: dict[tuple, list[int]] = defaultdict(list)
    for v, key in enumerate(_vertex_invariants(g)):
        by[key].append(v)
    return by


class _Partition:
    """An ordered partition of a graph's vertices in array form: ``lab``
    lists the vertices cell by cell in position order, ``cell[v]`` is v's
    cell id, and cell id c holds ``lab[start[c]:start[c] + size[c]]``. A
    split cell's id is retired (size 0) and its fragments take fresh ids,
    so two sides that split alike number their cells alike. The order of
    the vertices inside a cell means nothing."""

    __slots__ = ("lab", "cell", "start", "size")

    def __init__(self, lab: list[int], cell: list[int], start: list[int], size: list[int]):
        self.lab = lab
        self.cell = cell
        self.start = start
        self.size = size

    @classmethod
    def from_cells(cls, cells: list[list[int]]) -> "_Partition":
        """The partition with these cells, numbered 0, 1, ... in order."""
        lab: list[int] = []
        cell = [0] * sum(map(len, cells))
        start = []
        for i, c in enumerate(cells):
            start.append(len(lab))
            lab += c
            for v in c:
                cell[v] = i
        return cls(lab, cell, start, [len(c) for c in cells])

    def ids(self) -> list[int]:
        """The live cell ids in position order."""
        out = []
        p = 0
        while p < len(self.lab):
            c = self.cell[self.lab[p]]
            out.append(c)
            p += self.size[c]
        return out

    def members(self, c: int) -> list[int]:
        st = self.start[c]
        return self.lab[st:st + self.size[c]]

    def target(self) -> Optional[int]:
        """The first smallest non-singleton cell, or None when the partition
        is discrete."""
        size = self.size
        at = None
        for c in self.ids():
            if size[c] > 1 and (at is None or size[c] < size[at]):
                at = c
        return at

    def child(self, c: int, x: int) -> tuple["_Partition", list[int]]:
        """Individualise x in cell c of an equitable partition: the child
        partition, with {x} in c's place followed by the rest of c, and
        those two new cells, which are the only splitters its refinement
        needs (see the module docstring)."""
        lab, cell, start, size = self.lab[:], self.cell[:], self.start[:], self.size[:]
        st, sz = start[c], size[c]
        i = lab.index(x, st, st + sz)
        lab[st], lab[i] = x, lab[st]
        new = [len(start), len(start) + 1]
        start += (st, st + 1)
        size += (1, sz - 1)
        size[c] = 0
        cell[x] = new[0]
        for v in lab[st + 1:st + sz]:
            cell[v] = new[1]
        return _Partition(lab, cell, start, size), new


def _refine(adj: list, p: _Partition, queue: list[int], trace: list, replay: bool) -> bool:
    """Refine p in place to an equitable partition.

    Each cell is a splitter once, in FIFO order, starting with ``queue``. A
    splitter costs the degree sum of its vertices plus the size of the
    cells it touches (a singleton: of the cells it splits); a fragment
    takes its parent's place, in count order.
    Each splitter step is one trace entry: the start and the (count, size)
    groups of every touched cell, by position (a singleton gives its
    count). Recording (``replay`` false) appends the entries to ``trace``.
    Replaying compares them with ``trace`` and returns False at the first
    one that differs, leaving p half refined. While the entries agree, p
    has the recorded side's cells, ids and queue, so the replay runs out
    of splitters exactly where the trace ends.

    A singleton splitter {x} gives every vertex a count of 0 or 1, so it
    counts ``adj[x]`` by cell in one pass and reads each touched cell's
    entry off its size k and its j neighbours of x: a singleton gives 1, a
    cell with j = k stays whole, and any other splits into its
    non-neighbours, then its neighbours, each in lab order. Only a cell
    that splits is scanned. A larger splitter counts the neighbours of its
    vertices in a dict and groups each touched cell's vertices by count.
    """
    lab, cell, start, size = p.lab, p.cell, p.start, p.size
    position = start.__getitem__
    work = deque(queue)
    step = 0
    while work:
        w = work.popleft()
        sz = size[w]
        if not sz:
            continue  # split since it was queued; its fragments are queued
        st = start[w]
        entry = []
        splits = []
        if sz == 1:
            near = adj[lab[st]]
            near_set = None  # built for the first cell that splits
            hits: dict[int, int] = {}
            for v in near:
                c = cell[v]
                hits[c] = hits.get(c, 0) + 1
            for c in sorted(hits, key=position):
                cs, csz = start[c], size[c]
                j = hits[c]
                if csz == 1:
                    entry += (cs, 1)
                elif j == csz:
                    entry += (cs, ((1, csz),))
                else:
                    entry += (cs, ((0, csz - j), (1, j)))
                    if near_set is None:
                        near_set = set(near)
                    out, into = [], []
                    for v in lab[cs:cs + csz]:
                        (into if v in near_set else out).append(v)
                    splits.append((c, (out, into)))
        else:
            count: dict[int, int] = {}
            for u in lab[st:st + sz]:
                for v in adj[u]:
                    count[v] = count.get(v, 0) + 1
            for c in sorted({cell[v] for v in count}, key=position):
                cs, csz = start[c], size[c]
                if csz == 1:
                    entry += (cs, count[lab[cs]])
                    continue
                members = lab[cs:cs + csz]
                counts = list(map(count.get, members, repeat(0, csz)))
                k = counts[0]
                if counts.count(k) == csz:
                    entry += (cs, ((k, csz),))
                    continue
                groups: dict[int, list[int]] = defaultdict(list)
                for v, k in zip(members, counts):
                    groups[k].append(v)
                keys = sorted(groups)
                entry += (cs, tuple((k, len(groups[k])) for k in keys))
                splits.append((c, [groups[k] for k in keys]))
        if replay:
            if trace[step] != entry:
                return False
        else:
            trace.append(entry)
        step += 1
        for c, frags in splits:
            pos = start[c]
            size[c] = 0
            for frag in frags:
                f = len(start)
                start.append(pos)
                size.append(len(frag))
                lab[pos:pos + len(frag)] = frag
                for v in frag:
                    cell[v] = f
                work.append(f)
                pos += len(frag)
    return True


class _Level:
    """One level of the first path: its refined partition, the trace of the
    refinement that made it, and its target cell and individualised vertex
    (None at the discrete last level)."""

    __slots__ = ("part", "trace", "target", "x")

    def __init__(self, part: _Partition, trace: list):
        self.part = part
        self.trace = trace
        self.target = part.target()
        self.x = None if self.target is None else min(part.members(self.target))


class _MappingSearch:
    """Searches for isomorphisms g1 -> g2 along g1's first path; ``nodes``
    counts the t-side partitions refined, which ``node_budget`` bounds."""

    def __init__(self, g1: Graph, g2: Graph, node_budget: Optional[int] = None):
        self.g1 = g1
        self.g2 = g2
        self.nodes = 0
        self.budget = node_budget
        self.path: list[_Level] = []  # g1's first path, as far as the search went

    def initial_partitions(self) -> Optional[tuple[_Partition, _Partition]]:
        """The invariant partitions of g1 and g2, cells in the same order, or
        None when their invariants differ."""
        if self.g1.n != self.g2.n or self.g1.m != self.g2.m:
            return None
        by1 = _invariant_cells(self.g1)
        by2 = by1 if self.g2 is self.g1 else _invariant_cells(self.g2)
        keys = sorted(by1)
        if keys != sorted(by2) or any(len(by1[key]) != len(by2[key]) for key in keys):
            return None
        return (_Partition.from_cells([by1[key] for key in keys]),
                _Partition.from_cells([by2[key] for key in keys]))

    def find(self) -> Optional[list[int]]:
        """A mapping (list over g1 vertices) that is an isomorphism, or None."""
        parts = self.initial_partitions()
        if parts is None:
            return None
        s, t = parts
        queue = list(range(len(s.start)))
        self._record(s, queue)
        return self._dfs(t, queue, 0)

    def first_path(self) -> list[_Level]:
        """g1's whole first path, from its invariant partition to a discrete
        one. g1 and g2 must have equal invariants, as when g2 is g1."""
        by = _invariant_cells(self.g1)
        s = _Partition.from_cells([by[key] for key in sorted(by)])
        self._record(s, list(range(len(s.start))))
        while self.path[-1].target is not None:
            self._extend()
        return self.path

    # -- internals ---------------------------------------------------------

    def _record(self, part: _Partition, queue: list[int]) -> None:
        trace: list = []
        _refine(self.g1.adjacency, part, queue, trace, False)
        self.path.append(_Level(part, trace))

    def _extend(self) -> None:
        """Refine the first path one level deeper."""
        last = self.path[-1]
        self._record(*last.part.child(last.target, last.x))

    def _dfs(self, part: _Partition, queue: list[int], depth: int) -> Optional[list[int]]:
        """Refine the t side ``part`` from ``queue`` against the trace of the
        first path's level ``depth``, then search below it."""
        self.nodes += 1
        if self.budget is not None and self.nodes > self.budget:
            raise BudgetExceededError(
                f"mapping search exceeded {self.budget} nodes"
            )
        level = self.path[depth]
        if not _refine(self.g2.adjacency, part, queue, level.trace, True):
            return None
        if level.target is None:
            return self._verify_leaf(level.part, part)
        if len(self.path) == depth + 1:
            self._extend()
        for y in sorted(part.members(level.target)):
            res = self._dfs(*part.child(level.target, y), depth + 1)
            if res is not None:
                return res
        return None

    def _verify_leaf(self, s: _Partition, t: _Partition) -> Optional[list[int]]:
        mapping = [0] * self.g1.n
        for u, v in zip(s.lab, t.lab):
            mapping[u] = v
        for u, v in self.g1.edge_list:
            if not self.g2.has_edge(mapping[u], mapping[v]):
                return None
        return mapping


def find_isomorphism(g1: Graph, g2: Graph, node_budget: Optional[int] = None) -> Optional[list[int]]:
    """A vertex bijection g1 -> g2 preserving adjacency, or None.

    Equal graphs map by the identity, which is also the search's first
    answer: its t side retraces the first path and it tries x -> x first.
    ``node_budget`` (None or an int >= 0) bounds the search nodes."""
    _check_budget(node_budget)
    if g1 == g2:
        return list(range(g1.n))
    return _MappingSearch(g1, g2, node_budget).find()


def is_isomorphic(g1: Graph, g2: Graph, node_budget: Optional[int] = None) -> bool:
    return find_isomorphism(g1, g2, node_budget) is not None


def automorphism_group(g: Graph, node_budget: int = 2_000_000) -> PermGroup:
    """The full automorphism group of g as a permutation group, returned
    with the stabilizer chain its search found.

    One refined path fixes the base: at each level, the least vertex b of
    the first smallest non-singleton cell is individualised to itself.
    The levels are then resolved deepest first: each candidate image w of
    b is either in b's orbit under the generators found so far, excluded
    with its orbit by an earlier failed search, or searched for explicitly
    from the level's partition. Those orbits are the chain's transversals,
    built by orbit walks with no Schreier-Sims sift (see the module
    docstring). A generator found at depth d must fix the base points above
    it, preserve g's edges and sift to the identity through the finished
    chain; a failure is a bug and raises AssertionError. The group is
    returned with the chain memoised on it under the prefix (b_0,), so its
    ``chain()``, ``in`` and ``order()`` read that chain and build none (see
    ``groups``). ``node_budget`` (None or an int >= 0) bounds the search
    nodes.
    """
    _check_budget(node_budget)
    if g.n > 400:
        raise BudgetExceededError(
            f"automorphism search is budgeted for n <= 400; this graph has n = {g.n}"
        )
    if g.n == 0:
        return PermGroup(0, ())
    search = _MappingSearch(g, g, node_budget)
    path = search.first_path()
    base = [level.x for level in path[:-1]]

    # second pass, deepest level first: the generators found so far fix the
    # base points above this level, so their orbits prune its candidates
    gens: list[Perm] = []
    gens_inv: list[Perm] = []
    levels: list[_ChainLevel] = []
    for depth in reversed(range(len(base))):
        level = path[depth]
        lvl = _ChainLevel(level.x, g.n)
        # the deeper generators all fix b_depth: its orbit starts as {b_depth}
        lvl.gens += gens
        lvl.gens_inv += gens_inv
        excluded: set[int] = set()
        for w in sorted(level.part.members(level.target)):
            if w in lvl.transversal or w in excluded:
                continue
            mapping = search._dfs(*level.part.child(level.target, w), depth + 1)
            if mapping is None:
                orbit = frontier = {w}
                while frontier:
                    frontier = {s.images[x] for x in frontier for s in lvl.gens} - orbit
                    orbit |= frontier
                excluded |= orbit
                continue
            if any(mapping[b] != b for b in base[:depth]):
                raise AssertionError(
                    f"automorphism search generator at depth {depth} moves a base point above it"
                )
            gens.append(Perm(mapping))
            gens_inv.append(gens[-1].inverse())
            # once the level is resolved, the generators found at depth >=
            # depth generate the stabilizer of b_0..b_{depth-1} (see the module
            # docstring), so its Schreier pairs need no sift
            deque(lvl.extend(gens[-1], gens_inv[-1]), maxlen=0)
        levels.append(lvl)

    # the chain's base is the path's without its trailing one-point levels;
    # a trivial group's is empty
    levels.reverse()
    while levels and len(levels[-1].transversal) == 1:
        levels.pop()
    chain = StabilizerChain._from_levels(g.n, levels)
    if not all(is_graph_automorphism(g, p) for p in gens):
        raise AssertionError("automorphism search generator does not preserve the graph's edges")
    if not all(chain.contains(p) for p in gens):
        raise AssertionError("automorphism search generator does not sift through its chain")
    group = PermGroup(g.n, gens)
    group._validated_graphs.add(g)  # the edge check above is validate_automorphisms' own
    # not shared yet, so no lock; a trivial group's one chain is entered
    # under (), so random_element draws from it too
    base = tuple(chain.base())
    group._chains.append((base[:1], base, chain))
    return group


def subdivision_automorphism_group(g: Graph) -> Optional[tuple[PermGroup, Graph]]:
    """Aut(g) lifted from the base graph, when ``transforms.subdivision_parts``
    recognises g as S(Sigma) for a connected Sigma that is not a cycle, else
    None. Returns that group on g's own labels (a lifted group, see
    ``groups``) and Sigma. V and E are Aut-invariant and an E-vertex is fixed
    by its pair, so the lift is faithful and the group takes Aut(Sigma)'s
    order; ``TestLiftedGroups`` in ``tests/test_groups.py`` compares that
    order with a chain built from the lifted generators."""
    parts = subdivision_parts(g)
    if parts is None:
        return None
    base, vs, mid = parts
    group = SubdivisionLift(vs, mid).group(automorphism_group(base))
    validate_automorphisms(g, group)
    return group, base
