"""The eight transitivity predicates on a graph with a chosen subgroup of its
automorphism group, plus the neighbourhood 2-transitivity test.

Every "for all vertices v" condition is decided on one representative per
G-orbit of vertices: if w = v^g then G_w = g^-1 G_v g and the spheres / arcs
at w are the g-images of those at v, so the verdicts coincide. Transitivity
on a set is decided by an orbit partition, which also yields the per-level
orbit counts and a concrete witness pair on failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

from .graphs import Graph, GraphError, _arc_tuples_from
from .groups import (
    PermGroup,
    orbit_partition,
    stabilizer_point,
    validate_automorphisms,
)


@dataclass(frozen=True)
class PropertyKind:
    """One of arc / s-arc / s-distance / distance transitivity, global or local."""

    name: str  # "arc" | "s-arc" | "s-distance" | "distance"
    local: bool
    s: Optional[int] = None

    def __post_init__(self):
        if self.name not in ("arc", "s-arc", "s-distance", "distance"):
            raise ValueError(f"unknown property kind {self.name!r}")
        if self.name in ("s-arc", "s-distance") and (self.s is None or self.s < 1):
            raise ValueError("parameterised kinds need s >= 1")

    def label(self) -> str:
        scope = "locally" if self.local else "globally"
        if self.s is not None:
            return f"{scope} {self.s}-{self.name.replace('s-', '')} transitive"
        return f"{scope} {self.name} transitive"


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
    size: int
    orbits: int
    witness: Optional[tuple[Any, Any]]


def _check_inputs(g: Graph, G: PermGroup) -> None:
    if G.degree != g.n:
        raise GraphError(f"group degree {G.degree} != vertex count {g.n}")
    if not g.is_connected():
        raise GraphError("transitivity predicates need a connected graph")
    validate_automorphisms(g, G)


def vertex_orbit_reps(g: Graph, G: PermGroup) -> list[int]:
    """The least vertex of each G-orbit."""
    return [orb[0] for orb in G.point_orbits()]


def is_vertex_transitive(g: Graph, G: PermGroup) -> bool:
    _check_inputs(g, G)
    return len(G.point_orbits()) == 1


def _partition_stats(group: PermGroup, domain: list, apply) -> LevelStat:
    if not domain:
        return LevelStat(size=0, orbits=0, witness=None)
    orbits, _ = orbit_partition(group, domain, apply)
    witness = (orbits[0][0], orbits[1][0]) if len(orbits) > 1 else None
    return LevelStat(size=len(domain), orbits=len(orbits), witness=witness)


# -- profiles ---------------------------------------------------------------


def global_arc_profile(g: Graph, G: PermGroup, s_max: int) -> list[LevelStat]:
    """Orbit statistics of G on the i-arc sets, i = 1..s_max."""
    _check_inputs(g, G)
    stats = []
    apply = lambda p, t: p.apply_tuple(t)
    for i in range(1, s_max + 1):
        arcs = [t for v in range(g.n) for t in _arc_tuples_from(g, v, i)]
        stats.append(_partition_stats(G, arcs, apply))
        if not arcs:
            # no i-arcs means no longer arcs either
            for _ in range(i + 1, s_max + 1):
                stats.append(LevelStat(size=0, orbits=0, witness=None))
            break
    return stats


def global_distance_profile(g: Graph, G: PermGroup, s_max: int) -> list[LevelStat]:
    """Orbit statistics of G on the ordered distance-i pair sets."""
    _check_inputs(g, G)
    dist = g.distances_matrix()
    apply = lambda p, t: p.apply_tuple(t)
    stats = []
    for i in range(1, s_max + 1):
        pairs = [(int(a), int(b)) for a, b in np.argwhere(dist == i)]
        stats.append(_partition_stats(G, pairs, apply))
    return stats


def local_arc_profile(
    g: Graph, G: PermGroup, s_max: int
) -> dict[int, list[LevelStat]]:
    """Per orbit-representative vertex v: orbit statistics of G_v on the
    i-arcs starting at v, i = 1..s_max."""
    _check_inputs(g, G)
    apply = lambda p, t: p.apply_tuple(t)
    out: dict[int, list[LevelStat]] = {}
    for v in vertex_orbit_reps(g, G):
        Gv = stabilizer_point(G, v)
        stats = []
        for i in range(1, s_max + 1):
            arcs = _arc_tuples_from(g, v, i)
            stats.append(_partition_stats(Gv, arcs, apply))
            if not arcs:
                for _ in range(i + 1, s_max + 1):
                    stats.append(LevelStat(size=0, orbits=0, witness=None))
                break
        out[v] = stats
    return out


def local_distance_profile(
    g: Graph, G: PermGroup, s_max: int
) -> dict[int, list[LevelStat]]:
    """Per orbit-representative vertex v: orbit statistics of G_v on the
    distance-i spheres around v, i = 1..s_max."""
    _check_inputs(g, G)
    out: dict[int, list[LevelStat]] = {}
    for v in vertex_orbit_reps(g, G):
        Gv = stabilizer_point(G, v)
        dist = g.bfs_from(v)
        # one orbit partition of G_v on all vertices; spheres are unions of cells
        _, orbit_id = orbit_partition(
            Gv, list(range(g.n)), lambda p, x: p.images[x]
        )
        stats = []
        for i in range(1, s_max + 1):
            sphere = [int(w) for w in np.flatnonzero(dist == i)]
            ids_seen: dict[int, int] = {}
            witness = None
            for w in sphere:
                oid = orbit_id[w]
                if oid not in ids_seen:
                    ids_seen[oid] = w
                    if len(ids_seen) == 2 and witness is None:
                        first_two = list(ids_seen.values())
                        witness = (first_two[0], first_two[1])
            stats.append(
                LevelStat(size=len(sphere), orbits=len(ids_seen), witness=witness)
            )
        out[v] = stats
    return out


# -- predicate assembly -------------------------------------------------------


def report_from_global_profile(
    kind: PropertyKind, stats: list[LevelStat], s: int
) -> TransitivityReport:
    """Assemble a report from a profile computed to s_max >= s."""
    stats = stats[:s]
    orbit_counts = {i + 1: st.orbits for i, st in enumerate(stats)}
    for i, st in enumerate(stats):
        if st.orbits > 1:
            return TransitivityReport(
                kind,
                False,
                Witness(level=i + 1, first=st.witness[0], second=st.witness[1]),
                orbit_counts,
            )
    if stats[s - 1].size == 0:
        return TransitivityReport(
            kind, False, Witness(level=s, note="empty"), orbit_counts
        )
    return TransitivityReport(kind, True, None, orbit_counts)


def report_from_local_profile(
    kind: PropertyKind, profile: dict[int, list[LevelStat]], s: int
) -> TransitivityReport:
    """Assemble a report from per-representative profiles with s_max >= s."""
    orbit_counts = {
        i: max(stats[i - 1].orbits for stats in profile.values())
        for i in range(1, s + 1)
    }
    for v, stats in profile.items():
        for i, st in enumerate(stats[:s]):
            if st.orbits > 1:
                return TransitivityReport(
                    kind,
                    False,
                    Witness(
                        level=i + 1, vertex=v, first=st.witness[0], second=st.witness[1]
                    ),
                    orbit_counts,
                )
    if all(stats[s - 1].size == 0 for stats in profile.values()):
        return TransitivityReport(
            kind, False, Witness(level=s, note="empty"), orbit_counts
        )
    return TransitivityReport(kind, True, None, orbit_counts)


def is_s_arc_transitive(g: Graph, G: PermGroup, s: int) -> TransitivityReport:
    """G transitive on the i-arcs for every i <= s, with some s-arc existing."""
    if s < 1:
        raise GraphError("s must be >= 1")
    kind = PropertyKind("s-arc", local=False, s=s)
    return report_from_global_profile(kind, global_arc_profile(g, G, s), s)


def is_arc_transitive(g: Graph, G: PermGroup) -> TransitivityReport:
    kind = PropertyKind("arc", local=False)
    return report_from_global_profile(kind, global_arc_profile(g, G, 1), 1)


def is_locally_s_arc_transitive(g: Graph, G: PermGroup, s: int) -> TransitivityReport:
    """Every vertex stabilizer transitive on the i-arcs from its vertex for
    i <= s (vacuously on empty sets), with an s-arc from some vertex."""
    if s < 1:
        raise GraphError("s must be >= 1")
    kind = PropertyKind("s-arc", local=True, s=s)
    return report_from_local_profile(kind, local_arc_profile(g, G, s), s)


def is_locally_arc_transitive(g: Graph, G: PermGroup) -> TransitivityReport:
    kind = PropertyKind("arc", local=True)
    return report_from_local_profile(kind, local_arc_profile(g, G, 1), 1)


def is_s_distance_transitive(g: Graph, G: PermGroup, s: int) -> TransitivityReport:
    """G transitive on the ordered pairs at distance i for every i <= s."""
    d = g.diameter()
    if not (1 <= s <= d):
        raise GraphError(f"s must satisfy 1 <= s <= diam = {d}")
    kind = PropertyKind("s-distance", local=False, s=s)
    return report_from_global_profile(kind, global_distance_profile(g, G, s), s)


def is_distance_transitive(g: Graph, G: PermGroup) -> TransitivityReport:
    d = g.diameter()
    if d < 1:
        raise GraphError("distance transitivity needs at least two vertices")
    kind = PropertyKind("distance", local=False, s=d)
    return report_from_global_profile(kind, global_distance_profile(g, G, d), d)


def is_locally_s_distance_transitive(g: Graph, G: PermGroup, s: int) -> TransitivityReport:
    """Every vertex stabilizer transitive on its distance-i spheres for i <= s
    (vacuously on empty spheres), with the level-s sphere nonempty somewhere."""
    d = g.diameter()
    if not (1 <= s <= d):
        raise GraphError(f"s must satisfy 1 <= s <= diam = {d}")
    kind = PropertyKind("s-distance", local=True, s=s)
    return report_from_local_profile(kind, local_distance_profile(g, G, s), s)


def is_locally_distance_transitive(g: Graph, G: PermGroup) -> TransitivityReport:
    d = g.diameter()
    if d < 1:
        raise GraphError("distance transitivity needs at least two vertices")
    kind = PropertyKind("distance", local=True, s=d)
    return report_from_local_profile(kind, local_distance_profile(g, G, d), d)


def neighborhood_two_transitive(g: Graph, G: PermGroup) -> bool:
    """True iff every vertex stabilizer is 2-transitive on that vertex's
    neighbours (single orbit on ordered distinct neighbour pairs)."""
    _check_inputs(g, G)
    apply = lambda p, t: p.apply_tuple(t)
    for v in vertex_orbit_reps(g, G):
        nbrs = g.adjacency[v]
        pairs = [(a, b) for a in nbrs for b in nbrs if a != b]
        if not pairs:
            continue
        Gv = stabilizer_point(G, v)
        orbits, _ = orbit_partition(Gv, pairs, apply)
        if len(orbits) > 1:
            return False
    return True


def verify_witness(g: Graph, G: PermGroup, report: TransitivityReport) -> bool:
    """Check a failure witness: both objects in the stated class, and an orbit
    recomputation confirming they lie in distinct orbits."""
    if report.verdict or report.witness is None:
        return False
    w = report.witness
    if w.note == "empty":
        return True
    group = G if w.vertex is None else stabilizer_point(G, w.vertex)
    if isinstance(w.first, tuple):
        apply = lambda p, t: p.apply_tuple(t)
    else:
        apply = lambda p, x: p.images[x]
    _, orbit_of_first = orbit_partition(group, [w.first], apply)
    return w.second not in orbit_of_first
