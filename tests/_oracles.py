"""Independent brute-force oracles used to pin expected values.

These deliberately avoid the library's own algorithms: plain dict BFS,
exhaustive tuple filtering, explicit element enumeration, and the full-scan
bitmask partition refinement, the per-splitter counting refinement and
the per-row distance counts that the Aut/iso engine used to run.
"""

from collections import Counter, defaultdict, deque
from itertools import permutations, product, repeat


class PairCell:
    """One cell of a lockstep partition pair: its source-side vertices
    ``s``, its target-side vertices ``t``, and ``dead`` once split."""

    __slots__ = ("s", "t", "dead")

    def __init__(self, s, t):
        self.s = s
        self.t = t
        self.dead = False


def brute_distances(g, source):
    """Dict BFS distances; omits unreachable vertices."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in g.adjacency[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def counted_vertex_invariants(g):
    """(valency, sorted (distance, count) pairs) per vertex, -1 counting the
    unreached vertices: the Aut/iso engine's initial invariant, counted per
    row with a Counter."""
    out = []
    for v in range(g.n):
        dist = brute_distances(g, v)
        row = Counter(dist.values())
        if len(dist) < g.n:
            row[-1] = g.n - len(dist)
        out.append((g.degree(v), tuple(sorted(row.items()))))
    return out


def brute_diameter(g):
    best = 0
    for v in range(g.n):
        d = brute_distances(g, v)
        assert len(d) == g.n, "disconnected"
        best = max(best, max(d.values()))
    return best


def brute_delta2_witness(g):
    """The first edge pair (e_i, e_j), i < j in edge-list order, whose four
    cross distances all equal the diameter, or None: the pairwise loop
    that transforms.delta2_witness used to run, over dict BFS distances."""
    d = brute_diameter(g)
    dist = [brute_distances(g, v) for v in range(g.n)]
    edges = g.edge_list
    for i in range(len(edges)):
        x, y = edges[i]
        for j in range(i + 1, len(edges)):
            u, v = edges[j]
            if dist[x][u] == dist[x][v] == dist[y][u] == dist[y][v] == d:
                return (edges[i], edges[j])
    return None


def brute_girth(g):
    """min over edges of (shortest u-v path avoiding that edge) + 1."""
    best = None
    for u, v in g.edge_list:
        dist = {u: 0}
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for y in g.adjacency[x]:
                if (x, y) in ((u, v), (v, u)):
                    continue
                if y not in dist:
                    dist[y] = dist[x] + 1
                    queue.append(y)
        if v in dist:
            cycle = dist[v] + 1
            if best is None or cycle < best:
                best = cycle
    return best


def brute_arcs(g, s):
    """All s-arcs by filtering every (s+1)-tuple of vertices."""
    out = []
    for tup in product(range(g.n), repeat=s + 1):
        if all(g.has_edge(tup[i], tup[i + 1]) for i in range(s)) and all(
            tup[j - 1] != tup[j + 1] for j in range(1, s)
        ):
            out.append(tup)
    return out


def brute_closure(generators, degree, cap=None):
    """Every element of the generated group, as image tuples."""
    identity = tuple(range(degree))
    seen = {identity}
    queue = deque([identity])
    gens = [tuple(p.images) for p in generators]
    while queue:
        p = queue.popleft()
        for q in gens:
            r = tuple(q[i] for i in p)
            if r not in seen:
                if cap is not None and len(seen) >= cap:
                    raise AssertionError(f"closure exceeded cap {cap}")
                seen.add(r)
                queue.append(r)
    return seen


def brute_automorphisms(g):
    """Every automorphism of g, as image tuples: each vertex permutation
    that maps every edge to an edge."""
    edges = set(g.edge_list)
    return {
        p for p in permutations(range(g.n))
        if all((p[u], p[v]) in edges or (p[v], p[u]) in edges for u, v in g.edge_list)
    }


def brute_distance_pairs(g, i):
    """All ordered pairs at distance i, from dict BFS at every vertex."""
    return sorted((a, b) for a in range(g.n) for b, d in brute_distances(g, a).items() if d == i)


def brute_level_orbits(g, elements, name, i, vertex=None):
    """Orbits of the explicit group elements (image tuples, as from
    brute_closure) on the i-arcs ("s-arc") or the ordered distance-i pairs
    ("s-distance"): each orbit sorted, the orbits listed by least element.
    With vertex, the orbits of the elements fixing it on the arcs and pairs
    that start there."""
    domain = brute_arcs(g, i) if name == "s-arc" else brute_distance_pairs(g, i)
    if vertex is not None:
        elements = [e for e in elements if e[vertex] == vertex]
        domain = [x for x in domain if x[0] == vertex]
    orbits, seen = [], set()
    for x in sorted(domain):
        if x not in seen:
            orb = sorted({tuple(e[y] for y in x) for e in elements})
            seen.update(orb)
            orbits.append(orb)
    return orbits


def brute_bipartite_conditions(n, elements):
    """The three K_{n,n} conditions of theorems._bipartite_conditions, read
    off the explicit group elements (image tuples on sides 0..n-1 and
    n..2n-1, as from brute_closure) at every u1 and every edge: (i) one
    orbit on the vertices; (ii) (i), the side-preserving elements
    2-transitive on each side, and each G_u1 transitive on the ordered
    pairs (a, b), a != u1 in side 1, b in side 2; (iii) each edge's setwise
    stabilizer swaps its ends and is transitive on the edges disjoint from
    it."""
    side1, side2 = range(n), range(n, 2 * n)

    def transitive(group, domain, image):
        domain = set(domain)
        return not domain or {image(e, next(iter(domain))) for e in group} == domain

    cond_i = {e[0] for e in elements} == set(range(2 * n))
    kept = [e for e in elements if all(e[x] < n for x in side1)]
    cond_ii = cond_i and n >= 2 and all(
        {(e[side[0]], e[side[1]]) for e in kept} == {(a, b) for a in side for b in side if a != b}
        for side in (side1, side2)
    ) and all(
        transitive([e for e in elements if e[u1] == u1],
                   [(a, b) for a in side1 if a != u1 for b in side2],
                   lambda e, t: (e[t[0]], e[t[1]]))
        for u1 in side1
    )
    cond_iii = True
    for u1 in side1:
        for u2 in side2:
            setwise = [e for e in elements if {e[u1], e[u2]} == {u1, u2}]
            disjoint = [(a, b) for a in side1 if a != u1 for b in side2 if b != u2]
            if not any(e[u1] == u2 for e in setwise) or not transitive(
                    setwise, disjoint, lambda e, t: tuple(sorted((e[t[0]], e[t[1]])))):
                cond_iii = False
    return {"i": cond_i, "ii": cond_ii, "iii": cond_iii}


def individualize(cells, x, y):
    """Split x -> y out of their cells: {x} -> {y} takes the cell's place,
    followed by the rest of it. None when x and y lie in different cells.
    The root individualisation the Aut/iso search used to run."""
    out = []
    found = False
    for c in cells:
        if x in c.s:
            if y not in c.t:
                return None
            rest_s = [v for v in c.s if v != x]
            rest_t = [v for v in c.t if v != y]
            out.append(PairCell([x], [y]))
            if rest_s:
                out.append(PairCell(rest_s, rest_t))
            found = True
        else:
            if y in c.t:
                return None
            out.append(c)
    return out if found else None


def _neighbor_masks(g):
    masks = []
    for a in g.adjacency:
        m = 0
        for w in a:
            m |= 1 << w
        masks.append(m)
    return masks


def bitmask_refine(g1, g2, cells):
    """Reference for ``autgrp._refine``: the full-scan refinement of a pair
    of partitions (a list of PairCell) in lockstep, None once the two sides
    stop matching. For every splitter it rebuilds both neighbour bitmasks
    and regroups every vertex of every cell by its count. Marks split input
    cells dead, so pass it a copy."""
    m1, m2 = _neighbor_masks(g1), _neighbor_masks(g2)
    work = deque(cells)
    while work:
        w = work.popleft()
        if w.dead:
            continue
        wms = 0
        for v in w.s:
            wms |= 1 << v
        wmt = 0
        for v in w.t:
            wmt |= 1 << v
        new_cells = []
        for c in cells:
            if len(c.s) == 1:
                # still check the singleton's counts agree
                if (m1[c.s[0]] & wms).bit_count() != (m2[c.t[0]] & wmt).bit_count():
                    return None
                new_cells.append(c)
                continue
            groups_s = defaultdict(list)
            for v in c.s:
                groups_s[(m1[v] & wms).bit_count()].append(v)
            groups_t = defaultdict(list)
            for v in c.t:
                groups_t[(m2[v] & wmt).bit_count()].append(v)
            keys = sorted(groups_s)
            if keys != sorted(groups_t):
                return None
            if any(len(groups_s[k]) != len(groups_t[k]) for k in keys):
                return None
            if len(keys) == 1:
                new_cells.append(c)
                continue
            c.dead = True
            for k in keys:
                frag = PairCell(groups_s[k], groups_t[k])
                new_cells.append(frag)
                work.append(frag)
        cells = new_cells
    return cells


def counting_refine(adj, p, queue, trace, replay):
    """Reference for ``autgrp._refine``, with its signature and trace
    format: the refinement loop it ran before singleton splitters had their
    own path. Every splitter, a singleton included, counts its vertices'
    neighbours in a dict, and every touched cell is regrouped by those
    counts."""
    lab, cell, start, size = p.lab, p.cell, p.start, p.size
    work = deque(queue)
    step = 0
    while work:
        w = work.popleft()
        sz = size[w]
        if not sz:
            continue
        st = start[w]
        if sz == 1:
            count = dict.fromkeys(adj[lab[st]], 1)
        else:
            count = {}
            for u in lab[st:st + sz]:
                for v in adj[u]:
                    count[v] = count.get(v, 0) + 1
        entry = []
        splits = []
        for c in sorted({cell[v] for v in count}, key=start.__getitem__):
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
            groups = defaultdict(list)
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
