"""The eight transitivity predicates on a graph with a chosen subgroup of its
automorphism group.

Every "for all vertices v" condition is decided on one representative per
G-orbit of vertices: if w = v^g then G_w = g^-1 G_v g and the spheres / arcs
at w are the g-images of those at v, so the verdicts coincide. Transitivity
on a set is decided by an orbit partition, which also yields the per-level
orbit counts and a concrete witness pair on failure.

``_KINDS`` is the one table of the two kind names, s-arc and s-distance:
whether a kind's level sets are arcs or distance spheres. Arc transitivity
is s-arc transitivity at s = 1, and distance transitivity is s-distance
transitivity at s = diam g.

All eight predicates go through ``transitivity_reports``: ``_walk`` checks
the inputs once and walks the levels once with ``_levels`` (the orbit
statistics of each representative's stabilizer on its level-i set) up to
the largest s asked for, and the report for every s is read off them. The
global forms are read off the same levels by the orbit-stabilizer
correspondence: the G-orbits on level-i objects (i-arcs, or ordered pairs
at distance i) are in bijection with the pairs (representative v, G_v-orbit
on the level-i objects at v).

``transitivity_verdicts`` reads the same ``_walk`` for a caller that needs
only the verdicts, and stops at the first level that fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from .graphs import Graph, GraphError, _arc_levels, _has_arc, bfs_distances
from .groups import (
    PermGroup,
    orbit_partition,
    stabilizer_point,
    validate_automorphisms,
)
from .perms import Perm


# kind name -> whether its level-i sets are i-arcs, else distance-i spheres
_KINDS = {"s-arc": True, "s-distance": False}


def _arcs(name: str) -> bool:
    if name not in _KINDS:
        raise ValueError(f"unknown property kind {name!r}")
    return _KINDS[name]


@dataclass(frozen=True)
class PropertyKind:
    """s-arc or s-distance transitivity at one s >= 1, global or local."""

    name: str  # a key of _KINDS
    local: bool
    s: int

    def __post_init__(self):
        _arcs(self.name)  # rejects an unknown name
        if self.s < 1:
            raise ValueError("a property kind needs s >= 1")

    @property
    def arcs(self) -> bool:
        return _KINDS[self.name]


@dataclass(frozen=True)
class Witness:
    """Evidence for a false verdict: two same-class objects in distinct orbits
    (with the vertex whose stabilizer fails, for local properties), or a note
    like "empty" when the level-s set is empty."""

    level: int
    vertex: Optional[int] = None
    first: Any = None
    second: Any = None
    note: Optional[str] = None


@dataclass(frozen=True)
class TransitivityReport:
    kind: PropertyKind
    verdict: bool
    witness: Optional[Witness]
    orbit_counts: dict[int, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out: dict[str, Any] = {
            "kind": self.kind.name,
            "local": self.kind.local,
            "s": self.kind.s,
            "verdict": self.verdict,
            "orbit_counts": {str(k): v for k, v in sorted(self.orbit_counts.items())},
        }
        if self.witness is None:
            out["witness"] = None
        else:
            w = self.witness
            out["witness"] = {
                "level": w.level,
                "vertex": w.vertex,
                "first": list(w.first) if isinstance(w.first, tuple) else w.first,
                "second": list(w.second) if isinstance(w.second, tuple) else w.second,
                "note": w.note,
            }
        return out


@dataclass
class LevelStat:
    orbits: int  # 0 exactly when the level's set is empty
    leaders: tuple  # least element of the first one or two orbits, in domain order


def _check_inputs(g: Graph, G: PermGroup) -> None:
    if g.n == 0:
        raise GraphError("transitivity predicates need a graph with at least one vertex")
    validate_automorphisms(g, G)  # checks the group degree first
    if not g.is_connected():
        raise GraphError("transitivity predicates need a connected graph")


def is_vertex_transitive(g: Graph, G: PermGroup) -> bool:
    _check_inputs(g, G)
    return len(G.point_orbits()) == 1


def _partition_stats(group: PermGroup, domain: list, apply) -> LevelStat:
    orbits, _ = orbit_partition(group, domain, apply)
    return LevelStat(len(orbits), tuple(orb[0] for orb in orbits[:2]))


# -- the level walk -----------------------------------------------------------


def _rep_levels(g: Graph, G: PermGroup, v: int, arcs: bool, s_max: int) -> Iterator[LevelStat]:
    """Orbit statistics of G_v on the level-i sets at v, i = 1..s_max: with
    arcs, the i-arcs starting at v in the lexicographic order of the arc
    enumeration; otherwise the distance-i sphere around v. G_v is built on
    the first step, so a caller that stops early builds no more than it reads."""
    Gv = stabilizer_point(G, v)
    if arcs:
        for level in _arc_levels(g, [v], s_max):
            yield _partition_stats(Gv, level, Perm.apply_tuple)
        return
    dist = bfs_distances(g, v)  # read off the cached spheres
    leaders: list[list[int]] = [[] for _ in range(s_max + 1)]
    # G_v fixes v, so each of its point orbits (cached on the memoised G_v,
    # listed by least element) lies in one sphere
    for orb in Gv.point_orbits():
        if 1 <= dist[orb[0]] <= s_max:
            leaders[dist[orb[0]]].append(orb[0])
    yield from (LevelStat(len(ls), tuple(ls[:2])) for ls in leaders[1:])


def _levels(g: Graph, G: PermGroup, reps: list[int], arcs: bool, s_max: int) -> Iterator[Iterator[LevelStat]]:
    """Levels 1..s_max, each the representatives' LevelStats in reps order.
    Both are lazy, so a caller that stops early builds only the stabilizers
    and level sets it read; one that stops within a level stops the walk."""
    walks = [_rep_levels(g, G, v, arcs, s_max) for v in reps]
    for _ in range(s_max):
        yield map(next, walks)


# -- predicate assembly -------------------------------------------------------


def _report(kind: PropertyKind, reps: list[int], table: list[list[LevelStat]]) -> TransitivityReport:
    """The report at s = kind.s off table[i - 1], the representatives' stats
    on level i, walked to at least s.

    Local: orbit_counts holds the worst count over the representatives; the
    witness is the lowest failing level at the first representative that
    fails. Global: the G-orbits on a level correspond to the pairs
    (representative, G_v-orbit), so orbit_counts holds the sum over the
    representatives. Listed by least element, the global orbits lead with the
    representatives' leaders in representative order (a distance leader w at
    v is the pair (v, w)); the witness is the first two at the lowest failing
    level."""
    s = kind.s
    combine = max if kind.local else sum
    orbit_counts = {i: combine(st.orbits for st in table[i - 1]) for i in range(1, s + 1)}
    if kind.local:
        for v, stats in zip(reps, zip(*table[:s])):
            for i, st in enumerate(stats, 1):
                if st.orbits > 1:
                    witness = Witness(level=i, vertex=v, first=st.leaders[0], second=st.leaders[1])
                    return TransitivityReport(kind, False, witness, orbit_counts)
    else:
        for i in range(1, s + 1):
            if orbit_counts[i] > 1:
                first, second = [
                    w if kind.arcs else (v, w)
                    for v, st in zip(reps, table[i - 1])
                    for w in st.leaders
                ][:2]
                witness = Witness(level=i, first=first, second=second)
                return TransitivityReport(kind, False, witness, orbit_counts)
    if orbit_counts[s] == 0:
        return TransitivityReport(
            kind, False, Witness(level=s, note="empty"), orbit_counts
        )
    return TransitivityReport(kind, True, None, orbit_counts)


def _walk(
    g: Graph, G: PermGroup, name: str, local: bool, s_values: Iterable[int]
) -> tuple[list[PropertyKind], list[int], Iterator[Iterator[LevelStat]]]:
    """The kinds to evaluate, one per s in s_values, the vertex-orbit
    representatives and the lazy level walk up to the largest s: the one set
    of input checks that reports and verdicts share. The name is checked
    first, then the s values (s >= 1, and s <= diam g for s-distance), then,
    unless there are none, the graph and the group."""
    arcs = _arcs(name)
    d = None if arcs else g.diameter()
    kinds = []
    for s in s_values:
        if arcs and s < 1:
            raise GraphError("s must be >= 1")
        if not arcs and not (1 <= s <= d):
            raise GraphError(f"s must satisfy 1 <= s <= diam = {d}")
        kinds.append(PropertyKind(name, local, s))
    if not kinds:
        return [], [], iter(())
    _check_inputs(g, G)
    reps = [orb[0] for orb in G.point_orbits()]
    return kinds, reps, _levels(g, G, reps, arcs, max(k.s for k in kinds))


def transitivity_reports(
    g: Graph, G: PermGroup, name: str, local: bool, s_values: Iterable[int]
) -> list[TransitivityReport]:
    """One report per s in s_values, all read off one level walk of (g, G).

    name is "s-arc" or "s-distance". The inputs are validated once and the
    levels are walked once, up to the largest level asked for."""
    kinds, reps, levels = _walk(g, G, name, local, s_values)
    table = [list(stats) for stats in levels]
    return [_report(k, reps, table) for k in kinds]


def transitivity_verdicts(
    g: Graph, G: PermGroup, name: str, local: bool, s_values: Iterable[int]
) -> dict[int, bool]:
    """The verdict per s in s_values, in the order given, of the reports
    transitivity_reports gives, with the same input checks.

    By _report's rule, verdict(s) holds iff the combined orbit count (max
    over the representatives when local, sum when global) is at most 1 on
    levels 1..s and nonzero on level s. So the walk stops at the first level
    whose count exceeds 1: that level fails every s from there on. A group
    that fails early builds the stabilizers and level sets read up to there
    only."""
    kinds, _, levels = _walk(g, G, name, local, s_values)
    held: list[int] = []  # the combined orbit count of each level that held
    for stats in levels:
        count = 0
        for st in stats:
            count = max(count, st.orbits) if local else count + st.orbits
            if count > 1:
                break
        if count > 1:
            break
        held.append(count)
    return {k.s: k.s <= len(held) and held[k.s - 1] > 0 for k in kinds}


def is_s_arc_transitive(g: Graph, G: PermGroup, s: int) -> TransitivityReport:
    """G transitive on the i-arcs for every i <= s, with some s-arc existing."""
    return transitivity_reports(g, G, "s-arc", False, [s])[0]


def is_arc_transitive(g: Graph, G: PermGroup) -> TransitivityReport:
    return is_s_arc_transitive(g, G, 1)


def is_locally_s_arc_transitive(g: Graph, G: PermGroup, s: int) -> TransitivityReport:
    """Every vertex stabilizer transitive on the i-arcs from its vertex for
    i <= s (vacuously on empty sets), with an s-arc from some vertex."""
    return transitivity_reports(g, G, "s-arc", True, [s])[0]


def is_locally_arc_transitive(g: Graph, G: PermGroup) -> TransitivityReport:
    return is_locally_s_arc_transitive(g, G, 1)


def is_s_distance_transitive(g: Graph, G: PermGroup, s: int) -> TransitivityReport:
    """G transitive on the ordered pairs at distance i for every i <= s."""
    return transitivity_reports(g, G, "s-distance", False, [s])[0]


def is_distance_transitive(g: Graph, G: PermGroup) -> TransitivityReport:
    return is_s_distance_transitive(g, G, g.diameter())


def is_locally_s_distance_transitive(g: Graph, G: PermGroup, s: int) -> TransitivityReport:
    """Every vertex stabilizer transitive on its distance-i spheres for i <= s
    (vacuously on empty spheres), with the level-s sphere nonempty somewhere."""
    return transitivity_reports(g, G, "s-distance", True, [s])[0]


def is_locally_distance_transitive(g: Graph, G: PermGroup) -> TransitivityReport:
    return is_locally_s_distance_transitive(g, G, g.diameter())


def _is_vertex(g: Graph, x) -> bool:
    return isinstance(x, int) and 0 <= x < g.n


def _is_arc(g: Graph, x: tuple) -> bool:
    """Consecutive vertices adjacent, and no immediate backtrack."""
    return all(g.has_edge(a, b) for a, b in zip(x, x[1:])) and all(a != c for a, c in zip(x, x[2:]))


def _in_level_class(g: Graph, kind: PropertyKind, level: int, vertex: Optional[int], x) -> bool:
    """Whether x is in the level's class for the kind: a level-arc, an ordered
    pair at distance level, or (local distance) a vertex at distance level from
    vertex. Local arcs start at vertex. Membership is checked directly: the
    arc rule of _is_arc, or one bit of the cached spheres."""
    if kind.arcs:
        return (
            isinstance(x, tuple) and len(x) == level + 1 and all(_is_vertex(g, y) for y in x)
            and vertex in (None, x[0]) and _is_arc(g, x)
        )
    if vertex is None:
        return (
            isinstance(x, tuple) and len(x) == 2 and all(_is_vertex(g, y) for y in x)
            and _at_distance(g, x[0], x[1], level)
        )
    return _is_vertex(g, x) and _at_distance(g, vertex, x, level)


def _at_distance(g: Graph, x: int, y: int, level: int) -> bool:
    row = g.spheres()[x]
    return level < len(row) and bool(row[level] >> y & 1)


def verify_witness(g: Graph, G: PermGroup, report: TransitivityReport) -> bool:
    """Check a failure witness: a level the report covers (1..s), both
    objects in the level's class for the report's kind, and an orbit
    recomputation confirming they lie in distinct orbits; a note "empty"
    only when the level's set is empty."""
    if report.verdict or report.witness is None:
        return False
    w, kind = report.witness, report.kind
    if not (isinstance(w.level, int) and 1 <= w.level <= kind.s):
        return False
    if w.note == "empty":
        if kind.arcs:
            return w.vertex is None and not _has_arc(g, w.level)
        return w.vertex is None and all(len(row) <= w.level for row in g.spheres())
    if not (_is_vertex(g, w.vertex) if kind.local else w.vertex is None):
        return False
    if not all(_in_level_class(g, kind, w.level, w.vertex, x) for x in (w.first, w.second)):
        return False
    group = stabilizer_point(G, w.vertex) if kind.local else G
    apply = Perm.apply_tuple if isinstance(w.first, tuple) else Perm.__call__
    _, orbit_of_first = orbit_partition(group, [w.first], apply)
    return w.second not in orbit_of_first
