"""Exact permutation groups: stabilizer chains, orbits, stabilizers, and
groups lifted from a base graph to its subdivision.

Orbits of every action come from one routine, ``orbit_partition(G, domain,
apply)``, where apply(p, x) is the image of x under p: ``Perm.__call__`` on
points, ``Perm.apply_tuple`` on tuples such as arcs, and ``pair_image`` on
unordered pairs such as edges.

The stabilizer chain is built by a deterministic incremental Schreier-Sims:
each added strong generator extends its level's orbit and only the newly
created (point, generator) Schreier pairs are sifted. Base points are chosen
greedily from the largest orbits, which keeps transversals shallow for the
highly transitive groups this library works with.

A group that a subdivision S(Sigma) gets from a group B on Sigma (B acting on
V and, through its edges, on E) is a lifted group: it keeps B and the map
``SubdivisionLift`` from Sigma's vertices and edges to its own points. The
lift is faithful, so no chain is built on its n + m points: its order is
B's, its chain is B's chain with points mapped and elements lifted, and its
point stabilizers are lifts of B's stabilizers, G_v for a V-point and the
setwise edge stabilizer for an E-point. Those are lifted groups again.

Every other chain is built by ``StabilizerChain(G, prefix)`` and memoised on
G with its base prefix. A request for prefix P reuses a memoised chain built
with prefix Q and base b when len(Q) <= len(P) and b agrees with P on their
common length: both builds then choose the same base point at every level
they create, so the memoised chain is the one P would build. Point and edge
stabilizers are memoised on G in the same way, keyed by the point or by the
ordered pair.
"""

from __future__ import annotations

import random
import threading
import weakref
from collections import deque
from typing import Any, Callable, Iterable, Optional, Sequence

from .graphs import Graph, GraphError
from .perms import Perm, PermError


class NotAnAutomorphismError(GraphError):
    def __init__(self, index: int, message: str):
        super().__init__(f"generator {index}: {message}")
        self.index = index


class _Level:
    __slots__ = ("point", "gens", "gens_inv", "transversal", "transversal_inv")

    def __init__(self, point: int, degree: int):
        ident = Perm.identity(degree)
        self.point = point
        self.gens: list[Perm] = []  # all strong generators fixing earlier base points
        self.gens_inv: list[Perm] = []  # their inverses, in the same order
        self.transversal: dict[int, Perm] = {point: ident}
        self.transversal_inv: dict[int, Perm] = {point: ident}


class StabilizerChain:
    """Base points with transversals; supports order, sifting, sampling.

    Generator sets are nested: level i holds every strong generator that fixes
    the base points of levels 0..i-1, so each level's orbit is computed under
    the full stabilizer at that level. Base points after the prefix are the
    first points a residue moves, taken by decreasing orbit size under G and
    then by label.
    """

    def __init__(self, G: "PermGroup", base_prefix: Sequence[int] = ()):
        self.degree = G.degree
        self.levels: list[_Level] = []
        self._base_prefix = list(base_prefix)
        size = {x: len(orb) for orb in G.point_orbits() for x in orb}
        self._precedence = sorted(range(self.degree), key=lambda x: (-size[x], x))
        for g in G.generators:
            self.add_generator(g)

    @classmethod
    def _from_levels(cls, degree: int, levels: list[_Level]) -> "StabilizerChain":
        chain = cls.__new__(cls)
        chain.degree = degree
        chain.levels = levels
        chain._base_prefix = []
        chain._precedence = list(range(degree))
        return chain

    def order(self) -> int:
        out = 1
        for lvl in self.levels:
            out *= len(lvl.transversal)
        return out

    def base(self) -> list[int]:
        return [lvl.point for lvl in self.levels]

    def generators_at(self, level: int) -> list[Perm]:
        """Generators of the level-th stabilizer subgroup."""
        if level >= len(self.levels):
            return []
        return list(self.levels[level].gens)

    def sift(self, p: Perm, start: int = 0) -> tuple[Perm, int]:
        """Reduce p through the chain; returns (residue, level it stuck at)."""
        i = start
        for lvl in self.levels[start:]:
            beta = p.images[lvl.point]
            if beta != lvl.point:  # at the base point the transversal element is the identity
                u_inv = lvl.transversal_inv.get(beta)
                if u_inv is None:
                    return p, i
                p = p * u_inv
            i += 1
        return p, i

    def contains(self, p: Perm) -> bool:
        residue, _ = self.sift(p)
        return residue.is_identity()

    def add_generator(self, g: Perm) -> None:
        if g.degree != self.degree:
            raise PermError("generator degree mismatch")
        if g.is_identity():
            return
        residue, _ = self.sift(g)
        if residue.is_identity():
            return
        self._insert(g, 0)

    def _next_base_point(self, moved_by: Perm, idx: int) -> int:
        if idx < len(self._base_prefix):
            return self._base_prefix[idx]
        for p in self._precedence:
            if moved_by.images[p] != p:
                return p
        raise AssertionError("identity residue reached base point selection")

    def _insert(self, g: Perm, start: int) -> None:
        """Add g (known to fix base points of levels < start) to the chain."""
        j = start
        while True:
            if j == len(self.levels):
                self.levels.append(_Level(self._next_base_point(g, j), self.degree))
            lvl = self.levels[j]
            self._process_new_generator(j, g)
            if g.images[lvl.point] != lvl.point:
                return
            j += 1

    def _process_new_generator(self, j: int, g: Perm) -> None:
        """Append g at level j; extend its orbit; sift the new Schreier pairs."""
        lvl = self.levels[j]
        if g in lvl.gens:  # already processed here via a Schreier residue
            return
        g_inv = g.inverse()
        lvl.gens.append(g)
        lvl.gens_inv.append(g_inv)
        pairs = deque((p, g, g_inv) for p in sorted(lvl.transversal))
        while pairs:
            p, s, s_inv = pairs.popleft()
            q = s.images[p]
            u_p = lvl.transversal[p]
            if q not in lvl.transversal:
                lvl.transversal[q] = u_p * s
                # (u_p s)^-1 = s^-1 u_p^-1: one product, no inversion loop
                lvl.transversal_inv[q] = s_inv * lvl.transversal_inv[p]
                pairs.extend((q, t, t_inv) for t, t_inv in zip(lvl.gens, lvl.gens_inv))
                continue
            u_p_s = u_p * s
            if u_p_s == lvl.transversal[q]:  # the Schreier generator is the identity
                continue
            residue, _ = self.sift(u_p_s * lvl.transversal_inv[q], j + 1)
            if not residue.is_identity():
                self._insert(residue, j + 1)

    def random_element(self, rng: random.Random) -> Perm:
        out = Perm.identity(self.degree)
        for lvl in reversed(self.levels):
            target = rng.choice(sorted(lvl.transversal))
            out = out * lvl.transversal[target]
        return out


class PermGroup:
    """A permutation group given by generators, with a lazily built chain."""

    __slots__ = (
        "degree", "generators", "_chain", "_chains", "_orbits", "_stabilizers", "_lock",
        "_validated_graphs", "_lift", "__weakref__",
    )

    def __init__(
        self,
        degree: int,
        generators: Iterable[Perm] = (),
        _chain: Optional[StabilizerChain] = None,
        _lift: Optional[tuple["PermGroup", "SubdivisionLift"]] = None,
    ):
        gens = []
        for g in generators:
            if not isinstance(g, Perm):
                g = Perm(g)
            if g.degree != degree:
                raise PermError(f"generator degree {g.degree} != group degree {degree}")
            if not g.is_identity():
                gens.append(g)
        self.degree = degree
        self.generators = tuple(gens)
        self._chain = _chain
        # (prefix, base, chain) per chain StabilizerChain(self, prefix) built; see _prefix_chain
        self._chains: list[tuple[tuple[int, ...], tuple[int, ...], StabilizerChain]] = []
        self._orbits: Optional[tuple[tuple[int, ...], ...]] = None  # see point_orbits
        # point v -> G_v, ordered pair (u, v) -> setwise stabilizer of {u, v};
        # see stabilizer_point and stabilizer_edge
        self._stabilizers: dict[Any, PermGroup] = {}
        # reentrant: a stabilizer build holds it while _prefix_chain takes it again
        self._lock = threading.RLock()
        # graphs known to be preserved; equal graphs share one entry
        self._validated_graphs: weakref.WeakSet = weakref.WeakSet()
        # (base group, lift) when this group is the lift of a base-graph group
        self._lift = _lift

    def chain(self) -> StabilizerChain:
        if self._chain is None:
            with self._lock:
                if self._chain is None:
                    if self._lift is None:
                        self._chain = _prefix_chain(self, ())
                    else:
                        base, lift = self._lift
                        self._chain = lift.chain(base.chain())
        return self._chain

    def order(self) -> int:
        if self._lift is not None:  # the lift is faithful
            return self._lift[0].order()
        return self.chain().order()

    def __contains__(self, p: Perm) -> bool:
        if p.degree != self.degree:
            return False
        return self.chain().contains(p)

    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def random_element(self, rng: random.Random) -> Perm:
        return self.chain().random_element(rng)

    def point_orbits(self) -> tuple[tuple[int, ...], ...]:
        """Orbits on 0..degree-1, each sorted, ordered by least element.
        Computed once and immutable, so every call shares it. No lock: the
        callers that build chains hold the group's lock, and two threads that
        race here compute equal values."""
        if self._orbits is None:
            orbits, _ = orbit_partition(self, range(self.degree), Perm.__call__)
            self._orbits = tuple(tuple(sorted(orb)) for orb in orbits)
        return self._orbits

    def is_transitive(self) -> bool:
        return len(self.point_orbits()) <= 1 or self.degree == 0

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, gens={len(self.generators)})"


def pair_image(p: Perm, e: tuple[int, int]) -> tuple[int, int]:
    """The image of an unordered pair, kept as a sorted tuple, under p."""
    a, b = p.images[e[0]], p.images[e[1]]
    return (a, b) if a < b else (b, a)


def orbit_partition(G: PermGroup, domain: Sequence, apply: Callable[[Perm, Any], Any]) -> tuple[list[list], dict]:
    """All orbits of G on a G-invariant domain; returns (orbits, element->orbit id).

    Orbits are listed by their first element in domain order, and each orbit
    in BFS insertion order from that element. Points reached from a domain
    element are indexed even when the domain itself omits them.
    """
    index: dict[Any, int] = {}
    orbits: list[list] = []
    gens = G.generators
    for x in domain:
        if x in index:
            continue
        oid = len(orbits)
        orb = [x]
        index[x] = oid
        for y in orb:  # the list grows while it is read: a FIFO queue
            for g in gens:
                z = apply(g, y)
                if z not in index:
                    index[z] = oid
                    orb.append(z)
        orbits.append(orb)
    return orbits, index


# -- group constructors -------------------------------------------------------


def trivial_group(degree: int) -> PermGroup:
    return PermGroup(degree, ())


def cyclic_group(n: int) -> PermGroup:
    return PermGroup(n, [Perm(tuple((i + 1) % n for i in range(n)))])


def symmetric_group(n: int) -> PermGroup:
    if n <= 1:
        return trivial_group(max(n, 1))
    gens = [Perm.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Perm(tuple((i + 1) % n for i in range(n))))
    return PermGroup(n, gens)


def alternating_group(n: int) -> PermGroup:
    if n <= 2:
        return trivial_group(max(n, 1))
    if n == 3:
        return PermGroup(3, [Perm.from_cycles(3, [(0, 1, 2)])])
    three = Perm.from_cycles(n, [(0, 1, 2)])
    if n % 2 == 1:
        big = Perm.from_cycles(n, [tuple(range(n))])
    else:
        big = Perm.from_cycles(n, [tuple(range(1, n))])
    return PermGroup(n, [three, big])


def dihedral_group(n: int) -> PermGroup:
    """Rotation plus reflection on cycle ids 0..n-1; order 2n."""
    if n < 3:
        raise PermError("dihedral group on a cycle needs n >= 3")
    rot = Perm(tuple((i + 1) % n for i in range(n)))
    ref = Perm(tuple((n - i) % n for i in range(n)))
    return PermGroup(n, [rot, ref])


def cycle_half_dihedral(n: int) -> PermGroup:
    """For even n: the order-n subgroup of the dihedral group generated by the
    double rotation and an edge reflection; vertex transitive with two edge
    orbits on the n-cycle."""
    if n < 4 or n % 2 != 0:
        raise PermError("half-dihedral subgroup needs even n >= 4")
    rot2 = Perm(tuple((i + 2) % n for i in range(n)))
    ref = Perm(tuple((1 - i) % n for i in range(n)))
    return PermGroup(n, [rot2, ref])


def wreath_s2(n: int) -> PermGroup:
    """S_n wr S_2 acting on 2n points with blocks {0..n-1}, {n..2n-1}."""
    if n < 1:
        raise PermError("need n >= 1")
    swap = Perm(tuple(list(range(n, 2 * n)) + list(range(n))))
    gens = [swap]
    if n >= 2:
        gens.append(Perm.from_cycles(2 * n, [(0, 1)]))
        gens.append(Perm(tuple([(i + 1) % n for i in range(n)] + list(range(n, 2 * n)))))
    return PermGroup(2 * n, gens)


# -- PGL(2,8) and PGammaL(2,8) on the projective line -------------------------
#
# GF(8) is the polynomial model with x^3 = x + 1; field elements are the bit
# patterns 0..7. Projective line labels: 0 = infinity, 1+t = field element t.

_GF8_POLY = 0b1011


def _gf8_mul(a: int, b: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & 0b1000:
            a ^= _GF8_POLY
    return out


def _gf8_inv(a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("0 has no inverse in GF(8)")
    # a^7 = 1 for a != 0, so a^-1 = a^6
    out = 1
    for _ in range(6):
        out = _gf8_mul(out, a)
    return out


def _projective_perm(fn: Callable[[Optional[int]], Optional[int]]) -> Perm:
    # None encodes the point at infinity
    images = []
    for pt in [None] + list(range(8)):
        img = fn(pt)
        images.append(0 if img is None else 1 + img)
    return Perm(images)


def pgl_2_8() -> PermGroup:
    """PGL(2,8) on the 9 points of the projective line over GF(8); order 504."""
    t = _projective_perm(lambda x: None if x is None else x ^ 1)
    m = _projective_perm(lambda x: None if x is None else _gf8_mul(2, x))
    inv = _projective_perm(
        lambda x: 0 if x is None else (None if x == 0 else _gf8_inv(x))
    )
    G = PermGroup(9, [t, m, inv])
    if G.order() != 504:
        raise AssertionError("PGL(2,8) self-check failed")
    return G


def pgammal_2_8() -> PermGroup:
    """PGammaL(2,8): PGL(2,8) extended by the Frobenius x -> x^2; order 1512."""
    base = pgl_2_8()
    frob = _projective_perm(lambda x: None if x is None else _gf8_mul(x, x))
    G = PermGroup(9, list(base.generators) + [frob])
    if G.order() != 1512:
        raise AssertionError("PGammaL(2,8) self-check failed")
    return G


# -- stabilizers ---------------------------------------------------------------


def _check_point(G: PermGroup, v: int) -> None:
    if not (0 <= v < G.degree):
        raise PermError(f"point {v} out of range")


def _prefix_chain(G: PermGroup, prefix: Sequence[int]) -> StabilizerChain:
    """The chain ``StabilizerChain(G, prefix)`` builds, memoised on G. A
    memoised chain built with prefix Q and base b serves prefix P when
    len(Q) <= len(P) and b agrees with P on their first min(len b, len P)
    points: at every level either build creates, both take the same point,
    P's or Q's where the prefixes reach and the same residue's first moved
    point after that, so the chain is the one P would build."""
    prefix = tuple(prefix)
    with G._lock:
        for q, base, chain in G._chains:
            if len(q) <= len(prefix) and base[: len(prefix)] == prefix[: len(base)]:
                return chain
        chain = StabilizerChain(G, prefix)
        G._chains.append((prefix, tuple(chain.base()), chain))
        return chain


def _memoised_stabilizer(G: PermGroup, key, build: Callable[[PermGroup, Any], PermGroup]) -> PermGroup:
    """G._stabilizers[key], built once behind G's lock."""
    H = G._stabilizers.get(key)
    if H is None:
        with G._lock:
            H = G._stabilizers.get(key)
            if H is None:
                H = G._stabilizers[key] = build(G, key)
    return H


def stabilizer_point(G: PermGroup, v: int) -> PermGroup:
    """The point stabilizer G_v. It is built once per (G, v) and memoised on
    G behind the lock that guards G's chain, so every later call returns the
    same object."""
    _check_point(G, v)
    return _memoised_stabilizer(G, v, _build_stabilizer)


def _build_stabilizer(G: PermGroup, v: int) -> PermGroup:
    """G_v via a chain based at v; on a lifted group, the lift of the base
    group's stabilizer of the vertex or edge at v."""
    if G._lift is not None:
        base, lift = G._lift
        x = lift.base_of[v]
        return lift.group(stabilizer_point(base, x) if isinstance(x, int) else stabilizer_edge(base, x))
    chain = _prefix_chain(G, [v])
    if len(chain.levels) < 2:
        return PermGroup(G.degree, ())
    return PermGroup(
        G.degree,
        chain.generators_at(1),
        _chain=StabilizerChain._from_levels(G.degree, chain.levels[1:]),
    )


def stabilizer_edge(G: PermGroup, e: tuple[int, int]) -> PermGroup:
    """Setwise stabilizer of a 2-set {u, v}: the pointwise stabilizer extended
    by one endpoint-swapping element when such an element exists. It is
    memoised on G under the ordered pair (u, v), as stabilizer_point is.

    Everything is read off one chain with base prefix [u, v]: level 0's
    transversal gives t with u^t = v, level 1's gives h in G_u with
    v^h = u^(t^-1), so that h * t swaps u and v, and level 2's generators
    generate the pointwise stabilizer. A missing level means the stabilizer
    at that level is trivial."""
    u, v = e
    _check_point(G, u)
    _check_point(G, v)
    if u == v:
        raise PermError("edge must be a 2-set")
    return _memoised_stabilizer(G, (u, v), _build_edge_stabilizer)


def _build_edge_stabilizer(G: PermGroup, e: tuple[int, int]) -> PermGroup:
    u, v = e
    levels = _prefix_chain(G, e).levels
    gens = list(levels[2].gens) if len(levels) > 2 else []
    if levels and v in levels[0].transversal:
        orbit_of_v = levels[1].transversal if len(levels) > 1 else {v: Perm.identity(G.degree)}
        h = orbit_of_v.get(levels[0].transversal_inv[v].images[u])
        if h is not None:
            gens.append(h * levels[0].transversal[v])
    return PermGroup(G.degree, gens)


# -- induced actions ------------------------------------------------------------


def is_graph_automorphism(g: Graph, p: Perm) -> bool:
    if p.degree != g.n:
        return False
    index = g.edge_index()
    for u, v in g.edge_list:
        a, b = p.images[u], p.images[v]
        if ((a, b) if a < b else (b, a)) not in index:
            return False
    return True


def validate_automorphisms(g: Graph, G: PermGroup) -> None:
    """Check that G acts on g's vertices and that every generator preserves
    adjacency; cached per (graph, group)."""
    if G.degree != g.n:
        raise GraphError(f"group degree {G.degree} != vertex count {g.n}")
    if g in G._validated_graphs:
        return
    for i, p in enumerate(G.generators):
        if not is_graph_automorphism(g, p):
            raise NotAnAutomorphismError(i, "does not preserve adjacency")
    G._validated_graphs.add(g)


class SubdivisionLift:
    """Where a base graph's vertices and edges sit among the points of its
    subdivision: base vertex i at ``vertex_at[i]``, base edge (u, v), u < v,
    at ``edge_at[(u, v)]``. ``base_of`` maps each point back to its vertex
    (an int) or edge (a pair). A base automorphism p lifts to the
    permutation that moves the point of each vertex and edge to the point of
    its image under p."""

    __slots__ = ("degree", "vertex_at", "edge_at", "base_of")

    def __init__(self, vertex_at: Sequence[int], edge_at: dict[tuple[int, int], int]):
        self.vertex_at = tuple(vertex_at)
        self.edge_at = edge_at
        self.degree = len(self.vertex_at) + len(edge_at)
        self.base_of: dict[int, Any] = {x: e for e, x in edge_at.items()}
        self.base_of.update((x, i) for i, x in enumerate(self.vertex_at))

    def images(self, p: Perm) -> tuple[int, ...]:
        """The images of p's lift; p must preserve the base graph."""
        img, vertex_at, edge_at = p.images, self.vertex_at, self.edge_at
        out = [0] * self.degree
        for i, x in enumerate(vertex_at):
            out[x] = vertex_at[img[i]]
        for (u, v), x in edge_at.items():
            a, b = img[u], img[v]
            out[x] = edge_at[(a, b) if a < b else (b, a)]
        return tuple(out)

    def group(self, B: PermGroup) -> PermGroup:
        """The lift of B, a group of automorphisms of the base graph. Its
        generators are the lifts of B's, through the checked constructor."""
        return PermGroup(self.degree, [Perm(self.images(p)) for p in B.generators], _lift=(B, self))

    def chain(self, chain: StabilizerChain) -> StabilizerChain:
        """A base chain with its points mapped and its elements lifted: the
        lift is an isomorphism onto the lifted group, so this is a chain of
        that group. The lift of a bijection is a bijection, so the lifted
        elements skip the constructor's check."""
        lifted: dict[int, Perm] = {}  # id of a base element -> its lift

        def up(p: Perm) -> Perm:
            q = lifted.get(id(p))
            if q is None:
                q = lifted[id(p)] = Perm._trusted(self.images(p))
            return q

        levels = []
        for lvl in chain.levels:
            new = _Level(self.vertex_at[lvl.point], self.degree)
            new.gens = [up(g) for g in lvl.gens]
            new.gens_inv = [up(g) for g in lvl.gens_inv]
            new.transversal = {self.vertex_at[x]: up(u) for x, u in lvl.transversal.items()}
            new.transversal_inv = {self.vertex_at[x]: up(u) for x, u in lvl.transversal_inv.items()}
            levels.append(new)
        return StabilizerChain._from_levels(self.degree, levels)


def induced_subdivision_action(G: PermGroup, sg) -> PermGroup:
    """Embed G <= Aut(base) into Aut(subdivision): V-vertices move as before,
    E-vertices move with their underlying edges. Faithful, so orders agree;
    the result is a lifted group (see the module docstring)."""
    validate_automorphisms(sg.base, G)
    n = sg.n_base
    lift = SubdivisionLift(range(n), {e: n + i for i, e in enumerate(sg.edge_of)})
    return lift.group(G)


# -- derived subgroup and subgroup sampling --------------------------------------


def normal_closure(G: PermGroup, seeds: Sequence[Perm]) -> PermGroup:
    """Smallest normal subgroup of G containing the seeds."""
    chain = StabilizerChain(trivial_group(G.degree))  # no orbits: base points in label order
    gens: list[Perm] = []
    work = [s for s in seeds if not s.is_identity()]
    conjugators = list(G.generators) + [g.inverse() for g in G.generators]
    while work:
        x = work.pop()
        if chain.contains(x):
            continue
        chain.add_generator(x)
        gens.append(x)
        for g in conjugators:
            work.append(g.inverse() * x * g)
    return PermGroup(G.degree, gens, _chain=chain)


def derived_subgroup(G: PermGroup) -> PermGroup:
    """The commutator subgroup, as the normal closure of generator commutators."""
    comms = []
    for a in G.generators:
        for b in G.generators:
            c = a.inverse() * b.inverse() * a * b
            if not c.is_identity():
                comms.append(c)
    return normal_closure(G, comms)


def random_subgroups(G: PermGroup, count: int, seed: int) -> list[PermGroup]:
    """Deterministic-by-seed sampled subgroups, generated by 1-3 random
    elements each; always includes the trivial group and G itself."""
    rng = random.Random(seed)
    out = [trivial_group(G.degree), G]
    if not G.generators:
        return out
    for _ in range(count):
        k = rng.randint(1, 3)
        elems = [G.random_element(rng) for _ in range(k)]
        out.append(PermGroup(G.degree, elems))
    return out


def equal_groups(H: PermGroup, G: PermGroup) -> bool:
    """Whether H and G have the same elements, whatever their generators:
    same degree, same order, and every generator of G sifts to the identity
    through H's chain (G <= H and |G| = |H| give G = H)."""
    if H.degree != G.degree or H.order() != G.order():
        return False
    chain = H.chain()
    return all(chain.contains(p) for p in G.generators)
