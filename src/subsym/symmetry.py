"""The eight transitivity predicates on a graph with a chosen subgroup of its
automorphism group.

Every "for all vertices v" condition is decided on one representative per
G-orbit of vertices: if w = v^g then G_w = g^-1 G_v g and the spheres / arcs
at w are the g-images of those at v, so the verdicts coincide. Transitivity
on a set is decided by an orbit partition, which also yields the per-level
orbit counts and a concrete witness pair on failure.

All eight predicates go through ``transitivity_reports``: it validates the
inputs once, builds one local profile (the per-level orbit statistics of each
representative's stabilizer) up to the largest s asked for, and reads the
report for every s off that profile. The global forms are read off the same
profile by the orbit-stabilizer correspondence: the G-orbits on level-i
objects (i-arcs, or ordered pairs at distance i) are in bijection with the
pairs (representative v, G_v-orbit on the level-i objects at v).

A caller that needs only the verdicts asks ``transitivity_verdicts``. Reports
and verdicts share one level walk, ``_rep_levels``, per representative: the
profile runs every walk to the end, while the verdicts step the walks level
by level and stop at the first level that fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from .graphs import Graph, GraphError, SArc, _arc_levels, _has_arc
from .groups import (
    PermGroup,
    orbit_partition,
    stabilizer_point,
    validate_automorphisms,
)
from .perms import Perm


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
    orbits: int  # 0 exactly when the level's set is empty
    leaders: tuple  # least element of the first one or two orbits, in domain order


# A profile maps each vertex-orbit representative v to the statistics of G_v
# on its level-1..s_max sets.
Profile = dict[int, list[LevelStat]]


def _check_inputs(g: Graph, G: PermGroup) -> None:
    if g.n == 0:
        raise GraphError("transitivity predicates need a graph with at least one vertex")
    validate_automorphisms(g, G)  # checks the group degree first
    if not g.is_connected():
        raise GraphError("transitivity predicates need a connected graph")


def vertex_orbit_reps(g: Graph, G: PermGroup) -> list[int]:
    """The least vertex of each G-orbit."""
    return [orb[0] for orb in G.point_orbits()]


def is_vertex_transitive(g: Graph, G: PermGroup) -> bool:
    _check_inputs(g, G)
    return len(G.point_orbits()) == 1


def _partition_stats(group: PermGroup, domain: list, apply) -> LevelStat:
    orbits, _ = orbit_partition(group, domain, apply)
    return LevelStat(len(orbits), tuple(orb[0] for orb in orbits[:2]))


# -- profiles ---------------------------------------------------------------


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
    dist = g.distances_matrix()[v]  # cached; checking an s range builds it
    leaders: list[list[int]] = [[] for _ in range(s_max + 1)]
    # G_v fixes v, so each of its point orbits (cached on the memoised G_v,
    # listed by least element) lies in one sphere
    for orb in Gv.point_orbits():
        if 1 <= dist[orb[0]] <= s_max:
            leaders[dist[orb[0]]].append(orb[0])
    yield from (LevelStat(len(ls), tuple(ls[:2])) for ls in leaders[1:])


def local_arc_profile(g: Graph, G: PermGroup, s_max: int) -> Profile:
    """Per orbit-representative vertex v: orbit statistics of G_v on the
    i-arcs starting at v, i = 1..s_max."""
    _check_inputs(g, G)
    return {v: list(_rep_levels(g, G, v, True, s_max)) for v in vertex_orbit_reps(g, G)}


def local_distance_profile(g: Graph, G: PermGroup, s_max: int) -> Profile:
    """Per orbit-representative vertex v: orbit statistics of G_v on the
    distance-i spheres around v, i = 1..s_max."""
    _check_inputs(g, G)
    return {v: list(_rep_levels(g, G, v, False, s_max)) for v in vertex_orbit_reps(g, G)}


# -- predicate assembly -------------------------------------------------------


def report_from_profile(kind: PropertyKind, profile: Profile, s: int) -> TransitivityReport:
    """Assemble the level-s report from a profile computed to s_max >= s.

    Local: orbit_counts holds the worst count over the representatives; the
    witness is the lowest failing level at the first representative that
    fails. Global: the G-orbits on a level correspond to the pairs
    (representative, G_v-orbit), so orbit_counts holds the sum over the
    representatives. Listed by least element, the global orbits lead with the
    representatives' leaders in representative order (a distance leader w at
    v is the pair (v, w)); the witness is the first two at the lowest failing
    level."""
    combine = max if kind.local else sum
    orbit_counts = {
        i: combine(stats[i - 1].orbits for stats in profile.values())
        for i in range(1, s + 1)
    }
    if kind.local:
        for v, stats in profile.items():
            for i, st in enumerate(stats[:s], 1):
                if st.orbits > 1:
                    witness = Witness(level=i, vertex=v, first=st.leaders[0], second=st.leaders[1])
                    return TransitivityReport(kind, False, witness, orbit_counts)
    else:
        for i in range(1, s + 1):
            if orbit_counts[i] > 1:
                pairs = kind.name.endswith("distance")
                first, second = [
                    (v, w) if pairs else w
                    for v, stats in profile.items()
                    for w in stats[i - 1].leaders
                ][:2]
                witness = Witness(level=i, first=first, second=second)
                return TransitivityReport(kind, False, witness, orbit_counts)
    if orbit_counts[s] == 0:
        return TransitivityReport(
            kind, False, Witness(level=s, note="empty"), orbit_counts
        )
    return TransitivityReport(kind, True, None, orbit_counts)


def _kinds(g: Graph, name: str, local: bool, s_values: Optional[Iterable[int]]) -> list[PropertyKind]:
    """The kinds to evaluate, one per s in s_values, after checking name and
    the s values against it (s >= 1, and s <= diam g for s-distance)."""
    if (s_values is None) != (name in ("arc", "distance")):
        raise ValueError(f"{name!r} needs s values exactly when it is parameterised")
    if name.endswith("distance"):
        d = g.diameter()
    if name == "arc":
        return [PropertyKind("arc", local)]
    if name == "distance":
        if d < 1:
            raise GraphError("distance transitivity needs at least two vertices")
        return [PropertyKind("distance", local, s=d)]
    s_values = list(s_values)
    for s in s_values:
        if name == "s-arc" and s < 1:
            raise GraphError("s must be >= 1")
        if name == "s-distance" and not (1 <= s <= d):
            raise GraphError(f"s must satisfy 1 <= s <= diam = {d}")
    return [PropertyKind(name, local, s=s) for s in s_values]


def transitivity_reports(
    g: Graph,
    G: PermGroup,
    name: str,
    local: bool,
    s_values: Optional[Iterable[int]] = None,
) -> list[TransitivityReport]:
    """One report per s in s_values, all read off one profile of (g, G).

    name is "s-arc" or "s-distance" with the s values to report, or the
    unparameterised "arc" (level 1) or "distance" (level diam g) with
    s_values omitted. The inputs are validated once and the profile is built
    once, up to the largest level asked for."""
    kinds = _kinds(g, name, local, s_values)
    if not kinds:
        return []
    levels = [1 if k.s is None else k.s for k in kinds]
    # looked up at call time, so a wrapper set on the module attribute sees the call
    build = local_arc_profile if name.endswith("arc") else local_distance_profile
    profile = build(g, G, max(levels))
    return [report_from_profile(k, profile, level) for k, level in zip(kinds, levels)]


def transitivity_verdicts(
    g: Graph, G: PermGroup, name: str, local: bool, s_values: Iterable[int]
) -> dict[int, bool]:
    """The verdict per s in s_values, in the order given, of the reports
    transitivity_reports gives for "s-arc" or "s-distance", with the same
    input checks.

    By report_from_profile's rule, verdict(s) holds iff the combined orbit
    count (max over the representatives when local, sum when global) is at
    most 1 on levels 1..s and nonzero on level s. So the levels are walked
    across the representatives, and the walk stops at the first level whose
    count exceeds 1: that level fails every s from there on. A group that
    fails early builds the stabilizers and level sets read up to there only."""
    kinds = _kinds(g, name, local, s_values)
    if name in ("arc", "distance"):
        raise ValueError(f"{name!r} is not parameterised; its report gives its verdict")
    if not kinds:
        return {}
    _check_inputs(g, G)
    s_max = max(k.s for k in kinds)
    walks = [_rep_levels(g, G, v, name == "s-arc", s_max) for v in vertex_orbit_reps(g, G)]
    held: list[int] = []  # the combined orbit count of each level that held
    while len(held) < s_max:
        count = 0
        for walk in walks:
            orbits = next(walk).orbits
            count = max(count, orbits) if local else count + orbits
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
    return transitivity_reports(g, G, "arc", False)[0]


def is_locally_s_arc_transitive(g: Graph, G: PermGroup, s: int) -> TransitivityReport:
    """Every vertex stabilizer transitive on the i-arcs from its vertex for
    i <= s (vacuously on empty sets), with an s-arc from some vertex."""
    return transitivity_reports(g, G, "s-arc", True, [s])[0]


def is_locally_arc_transitive(g: Graph, G: PermGroup) -> TransitivityReport:
    return transitivity_reports(g, G, "arc", True)[0]


def is_s_distance_transitive(g: Graph, G: PermGroup, s: int) -> TransitivityReport:
    """G transitive on the ordered pairs at distance i for every i <= s."""
    return transitivity_reports(g, G, "s-distance", False, [s])[0]


def is_distance_transitive(g: Graph, G: PermGroup) -> TransitivityReport:
    return transitivity_reports(g, G, "distance", False)[0]


def is_locally_s_distance_transitive(g: Graph, G: PermGroup, s: int) -> TransitivityReport:
    """Every vertex stabilizer transitive on its distance-i spheres for i <= s
    (vacuously on empty spheres), with the level-s sphere nonempty somewhere."""
    return transitivity_reports(g, G, "s-distance", True, [s])[0]


def is_locally_distance_transitive(g: Graph, G: PermGroup) -> TransitivityReport:
    return transitivity_reports(g, G, "distance", True)[0]


def _is_vertex(g: Graph, x) -> bool:
    return isinstance(x, int) and 0 <= x < g.n


def _is_arc(g: Graph, x) -> bool:
    try:
        SArc(x).validate(g)
    except GraphError:
        return False
    return True


def _in_level_class(g: Graph, kind: PropertyKind, level: int, vertex: Optional[int], x) -> bool:
    """Whether x is in the level's class for the kind: a level-arc, an ordered
    pair at distance level, or (local distance) a vertex at distance level from
    vertex. Local arcs start at vertex. Membership is checked directly: the
    arc rule of SArc.validate, or one entry of the cached distance matrix."""
    if kind.name.endswith("arc"):
        return (
            isinstance(x, tuple) and len(x) == level + 1 and all(_is_vertex(g, y) for y in x)
            and vertex in (None, x[0]) and _is_arc(g, x)
        )
    if vertex is None:
        return (
            isinstance(x, tuple) and len(x) == 2 and all(_is_vertex(g, y) for y in x)
            and g.distances_matrix()[x[0], x[1]] == level
        )
    return _is_vertex(g, x) and g.distances_matrix()[vertex, x] == level


def verify_witness(g: Graph, G: PermGroup, report: TransitivityReport) -> bool:
    """Check a failure witness: a level the report covers (1..s, or 1 for
    the unparameterised arc kind), both objects in the level's class for the
    report's kind, and an orbit recomputation confirming they lie in distinct
    orbits; a note "empty" only when the level's set is empty."""
    if report.verdict or report.witness is None:
        return False
    w, kind = report.witness, report.kind
    if not (isinstance(w.level, int) and 1 <= w.level <= (kind.s or 1)):
        return False
    if w.note == "empty":
        if kind.name.endswith("arc"):
            return w.vertex is None and not _has_arc(g, w.level)
        return w.vertex is None and not (g.distances_matrix() == w.level).any()
    if not (_is_vertex(g, w.vertex) if kind.local else w.vertex is None):
        return False
    if not all(_in_level_class(g, kind, w.level, w.vertex, x) for x in (w.first, w.second)):
        return False
    group = stabilizer_point(G, w.vertex) if kind.local else G
    apply = Perm.apply_tuple if isinstance(w.first, tuple) else Perm.__call__
    _, orbit_of_first = orbit_partition(group, [w.first], apply)
    return w.second not in orbit_of_first
