"""Machine checks for the structural results on subdivision graphs.

Each check evaluates both sides of an equivalence (or an implication) on a
concrete graph-and-group instance and reports confirmed / refuted / skipped.
``run_corpus`` sweeps a fixed corpus, one generator per section in
``SECTIONS``: ``rows`` (the small-s classification rows for K_n, n = 4..9,
K_{n,n}, n = 2..4, C_5 and Petersen, with the K_5/A_5 counterexample next
to its row, and the K_{n,n} conditions), ``hoffman-singleton`` (the HoSi
row under Aut and its derived group; the one section not run by default),
``structural`` (distance formula and reconstruction on named graphs),
``named-instances`` (implication checks on hand-picked graph-and-group
pairs), ``large-cycles`` (C_16..C_19 under the dihedral group and under one
subgroup of each proper conjugacy class of it) and ``random`` (24 random
connected graphs, seeded by the config, under sampled subgroups of their
automorphism groups, the only section that samples). A refuted outcome on
the default corpus is a build failure.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from functools import cache
from itertools import zip_longest
from typing import Callable, Iterator, Optional, TypeVar

from .autgrp import automorphism_group, is_isomorphic
from .formats import _data_lines
from .graphs import (
    Graph,
    GraphError,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_hoffman_singleton,
    make_petersen,
    random_connected_graph,
)
from .groups import (
    PermGroup,
    alternating_group,
    cycle_half_dihedral,
    cyclic_group,
    derived_subgroup,
    dihedral_group,
    equal_groups,
    induced_subdivision_action,
    orbit_partition,
    pair_image,
    pgammal_2_8,
    pgl_2_8,
    random_subgroups,
    stabilizer_edge,
    stabilizer_point,
    symmetric_group,
    validate_automorphisms,
    wreath_s2,
)
from .perms import Perm
from .symmetry import _rep_levels, is_vertex_transitive, transitivity_verdicts
from .transforms import (
    SubdivisionGraph,
    delta_of,
    distance_two_graph,
    line_graph,
    reconstruct_from_ambient,
    subdivide,
    subdivision_spheres,
)

CONFIRMED = "confirmed"
REFUTED = "refuted"
SKIPPED = "skipped"

T = TypeVar("T")


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    instance: str
    status: str
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "instance": self.instance,
            "status": self.status,
            "details": _jsonable(self.details),
        }


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, (bool, int, float, str)) or x is None:
        return x
    return repr(x)


def _outcome(name: str, instance: str, ok: Optional[bool], details: dict, reason: str = "") -> CheckOutcome:
    if ok is None:
        details = dict(details)
        details["reason"] = reason
        return CheckOutcome(name, instance, SKIPPED, details)
    return CheckOutcome(name, instance, CONFIRMED if ok else REFUTED, details)


def _skip_unless_connected(g: Graph, name: str, instance: str) -> Optional[CheckOutcome]:
    """A skipped outcome unless g is connected on at least 2 vertices."""
    if g.n < 2 or not g.is_connected():
        return _outcome(name, instance, None, {}, "need a connected graph on >= 2 vertices")
    return None


def _ceil_half_succ(s: int) -> int:
    # smallest integer >= (s+1)/2
    return (s + 2) // 2


def _lift(g: Graph, G: PermGroup) -> tuple[SubdivisionGraph, PermGroup]:
    """The subdivision graph S(g) and the action G induces on it."""
    sg = subdivide(g)
    return sg, induced_subdivision_action(G, sg)


# -- equivalence checks --------------------------------------------------------


ARC_EQUIVALENCE = "local-arc-equivalence"
DISTANCE_EQUIVALENCE = "local-distance-equivalence"


def _equivalence_verdicts(g: Graph, G: PermGroup, arc_s, distance_s) -> tuple[dict, dict]:
    """Both sides of the local arc equivalence for each s in arc_s and of the
    local distance equivalence for each s in distance_s, for G acting on the
    base graph g: (subdivision verdicts per equivalence and s, base
    verdicts per t). Each side reads all its verdicts off one level walk: the
    subdivision side off (S(g), the action G induces on it), the base side
    off (g, G) at t = ceil((s+1)/2). They depend on G's elements only, not on
    its generators."""
    # a single edge with even s is the degenerate case of the arc equivalence
    arc_evaluated = [s for s in arc_s if g.n != 2 or s % 2 == 1]
    sg, Gs = _lift(g, G)
    sides = {
        ARC_EQUIVALENCE: transitivity_verdicts(sg.graph, Gs, "s-arc", True, arc_evaluated),
        DISTANCE_EQUIVALENCE: transitivity_verdicts(sg.graph, Gs, "s-distance", True, distance_s),
    }
    t_values = sorted({_ceil_half_succ(s) for side in sides.values() for s in side})
    return sides, transitivity_verdicts(g, G, "s-arc", False, t_values)


def _equivalence_outcomes(verdicts: tuple[dict, dict], arc_s, distance_s, prefix: str) -> list[CheckOutcome]:
    """The outcomes of _equivalence_verdicts under the instance prefix,
    ordered by s (arc first)."""
    sides, base = verdicts
    out = []
    for s in sorted({*arc_s, *distance_s}):
        t = _ceil_half_succ(s)
        for name, s_values in ((ARC_EQUIVALENCE, arc_s), (DISTANCE_EQUIVALENCE, distance_s)):
            if s not in s_values:
                continue
            instance = f"{prefix} s={s}"
            if s not in sides[name]:
                out.append(_outcome(
                    name, instance, None, {},
                    "single-edge base graph with even s: level-s nonemptiness is only "
                    "witnessed at a degree-1 side, the equivalence is not defined here",
                ))
                continue
            lhs, rhs = sides[name][s], base[t]
            out.append(_outcome(
                name, instance, lhs == rhs, {"s": s, "t": t, "subdivision_side": lhs, "base_side": rhs}
            ))
    return out


def _once_per_group(evaluated: list, G: PermGroup, evaluate: Callable[[], T]) -> T:
    """The value stored in evaluated for a group equal to G (same elements,
    whatever the generators), or else evaluate(), stored under G."""
    for H, value in evaluated:
        if equal_groups(H, G):
            return value
    value = evaluate()
    evaluated.append((G, value))
    return value


def check_local_arc_equivalence(g: Graph, G: PermGroup, s: int) -> CheckOutcome:
    """Local s-arc transitivity of the subdivision graph is equivalent to
    ceil((s+1)/2)-arc transitivity of the base graph.

    Degenerate exception: on the single-edge graph with even s the subdivision
    side can be vacuously true while the base side has no s/2+1-arcs at all;
    that instance is reported as skipped rather than stretched either way.
    """
    prefix = f"g=({g.n},{g.m}) |G|={G.order()}"
    if skip := _skip_unless_connected(g, ARC_EQUIVALENCE, f"{prefix} s={s}"):
        return skip
    return _equivalence_outcomes(_equivalence_verdicts(g, G, [s], []), [s], [], prefix)[0]


def check_local_distance_equivalence(g: Graph, G: PermGroup, s: int) -> CheckOutcome:
    """For s <= 2*diam-1: local s-distance transitivity of the subdivision
    graph is equivalent to ceil((s+1)/2)-arc transitivity of the base graph."""
    prefix = f"g=({g.n},{g.m}) |G|={G.order()}"
    instance = f"{prefix} s={s}"
    if skip := _skip_unless_connected(g, DISTANCE_EQUIVALENCE, instance):
        return skip
    d = g.diameter()
    if s > 2 * d - 1:
        return _outcome(DISTANCE_EQUIVALENCE, instance, None, {"d": d},
                        f"s={s} exceeds 2d-1={2 * d - 1}")
    return _equivalence_outcomes(_equivalence_verdicts(g, G, [], [s]), [], [s], prefix)[0]


def check_small_s_equivalences(g: Graph, G: PermGroup) -> CheckOutcome:
    """The four conditions that coincide for any base graph other than a
    single edge: subdivision locally 2-distance / locally 3-arc / locally
    3-distance transitive, and base 2-arc transitive."""
    name = "small-s-equivalences"
    instance = f"g=({g.n},{g.m}) |G|={G.order()}"
    if skip := _skip_unless_connected(g, name, instance):
        return skip
    if g.n == 2:
        return _outcome(name, instance, None, {}, "single-edge graph excluded")
    sg, Gs = _lift(g, G)
    ldist = transitivity_verdicts(sg.graph, Gs, "s-distance", True, [2, 3])
    verdicts = {
        "loc2dist": ldist[2],
        "base2arc": transitivity_verdicts(g, G, "s-arc", False, [2])[2],
        "loc3arc": transitivity_verdicts(sg.graph, Gs, "s-arc", True, [3])[3],
        "loc3dist": ldist[3],
    }
    return _outcome(name, instance, len(set(verdicts.values())) == 1, verdicts)


def check_edge_stabilizer_conditions(g: Graph, G: PermGroup) -> CheckOutcome:
    """(a) If every edge stabilizer is transitive on its endpoints then the
    group is vertex transitive. (b) For base graphs other than a single edge:
    edge stabilizers transitive on the distance-1 and distance-2 spheres of
    every subdivision E-vertex iff the base is 2-arc transitive or it is an
    even cycle with the half-dihedral group (two edge orbits)."""
    name = "edge-stabilizer-conditions"
    instance = f"g=({g.n},{g.m}) |G|={G.order()}"
    if skip := _skip_unless_connected(g, name, instance):
        return skip
    sg, Gs = _lift(g, G)
    # orbit stats of each E-vertex representative's stabilizer on its spheres
    reps = [orb[0] for orb in Gs.point_orbits() if orb[0] >= sg.base.n]
    stats = [list(_rep_levels(sg.graph, Gs, v, False, 2)) for v in reps]
    left_a = all(st[0].orbits <= 1 for st in stats)
    vertex_transitive = is_vertex_transitive(g, G)
    a_holds = (not left_a) or vertex_transitive
    details: dict = {"endpoint_transitive": left_a, "vertex_transitive": vertex_transitive}
    if g.n == 2:
        return _outcome(name, instance, a_holds, details)
    left_b = left_a and all(st[1].orbits <= 1 for st in stats)
    two_arc = transitivity_verdicts(g, G, "s-arc", False, [2])[2]
    exceptional = _is_even_cycle_half_dihedral(g, G)
    right_b = two_arc or exceptional
    details.update({"left_b": left_b, "two_arc": two_arc, "exceptional_cycle": exceptional})
    return _outcome(name, instance, a_holds and (left_b == right_b), details)


def _is_even_cycle_half_dihedral(g: Graph, G: PermGroup) -> bool:
    if g.n % 2 != 0 or g.m != g.n or any(g.degree(v) != 2 for v in range(g.n)):
        return False
    if G.order() != g.n or not is_vertex_transitive(g, G):
        return False
    orbits, _ = orbit_partition(G, g.edge_list, pair_image)
    return len(orbits) == 2


def check_girth_bound(g: Graph, G: PermGroup, s: int) -> CheckOutcome:
    """For even s <= 2*diam-1: local s-distance transitivity of the
    subdivision graph forces base girth >= s+2."""
    name = "girth-bound"
    instance = f"g=({g.n},{g.m}) |G|={G.order()} s={s}"
    if s % 2 != 0 or s < 2:
        return _outcome(name, instance, None, {}, "s must be a positive even integer")
    if skip := _skip_unless_connected(g, name, instance):
        return skip
    d = g.diameter()
    if s > 2 * d - 1:
        return _outcome(name, instance, None, {"d": d}, f"s={s} exceeds 2d-1={2 * d - 1}")
    sg, Gs = _lift(g, G)
    premise = transitivity_verdicts(sg.graph, Gs, "s-distance", True, [s])[s]
    gr = g.girth()
    holds = (not premise) or (gr is not None and gr >= s + 2)
    return _outcome(name, instance, holds, {"premise": premise, "girth": gr, "bound": s + 2})


def check_girth5_three_arc(g: Graph, G: PermGroup) -> CheckOutcome:
    """For base girth >= 5: the subdivision graph has diameter >= 5, and its
    local 4-distance transitivity forces 3-arc transitivity of the base."""
    name = "girth5-three-arc"
    instance = f"g=({g.n},{g.m}) |G|={G.order()}"
    if skip := _skip_unless_connected(g, name, instance):
        return skip
    gr = g.girth()
    if gr is None or gr < 5:
        return _outcome(name, instance, None, {"girth": gr}, "needs girth >= 5")
    sg, Gs = _lift(g, G)
    diam_s = sg.graph.diameter()
    premise = transitivity_verdicts(sg.graph, Gs, "s-distance", True, [4])[4]
    conclusion = transitivity_verdicts(g, G, "s-arc", False, [3])[3]
    ok = diam_s >= 5 and ((not premise) or conclusion)
    return _outcome(name, instance, ok, {"diam_s": diam_s, "premise": premise, "three_arc": conclusion})


# -- structural checks -----------------------------------------------------------


def check_distance_formula(g: Graph) -> CheckOutcome:
    """Closed-form subdivision distances agree with BFS on every vertex pair,
    the diameter excess delta lies in {0,1,2}, and delta=2 exactly when two
    edges realise the base diameter on all four cross distances."""
    name = "distance-formula"
    instance = f"g=({g.n},{g.m})"
    if skip := _skip_unless_connected(g, name, instance):
        return skip
    sg = subdivide(g)
    bfs = sg.graph.spheres()
    # a vertex whose distances differ is in exactly one of the two spheres at
    # one of its distances, so the XORs of the spheres mark the mismatched pairs
    mismatches = 0
    for formula_row, bfs_row in zip(subdivision_spheres(sg), bfs):
        if formula_row != bfs_row:
            differ = 0
            for a, b in zip_longest(formula_row, bfs_row, fillvalue=0):
                differ |= a ^ b
            mismatches += differ.bit_count()
    report = delta_of(g)  # raises if delta leaves {0,1,2} or witness test disagrees
    ok = mismatches == 0
    return _outcome(
        name,
        instance,
        ok,
        {"pairs": len(bfs) ** 2, "mismatches": mismatches, "d": report.d, "delta": report.delta},
    )


def check_reconstruction(g: Graph) -> CheckOutcome:
    """The distance-2 graph of the subdivision splits into exactly two
    components, one isomorphic to the base and one to its line graph, and
    label-free reconstruction recovers the base up to isomorphism."""
    name = "reconstruction"
    instance = f"g=({g.n},{g.m})"
    if skip := _skip_unless_connected(g, name, instance):
        return skip
    gamma = subdivide(g).graph
    comps = distance_two_graph(gamma)
    lg = line_graph(g)
    two = len(comps) == 2
    matched = False
    if two:
        c0, c1 = comps[0].graph, comps[1].graph
        matched = (is_isomorphic(c0, g) and is_isomorphic(c1, lg)) or (
            is_isomorphic(c1, g) and is_isomorphic(c0, lg)
        )
    recon = reconstruct_from_ambient(gamma)
    round_trip = is_isomorphic(recon, g)
    ok = two and matched and round_trip
    return _outcome(
        name,
        instance,
        ok,
        {
            "components": len(comps),
            "component_sizes": [c.graph.n for c in comps],
            "matched": matched,
            "round_trip": round_trip,
        },
    )


# -- classification rows -----------------------------------------------------------


def is_k_transitive(G: PermGroup, k: int) -> bool:
    """Whether G is k-transitive on its full point domain: on G's own chain,
    with base b, the stabilizer of b_0..b_{i-1} moves b_i onto all n - i
    remaining points for every i < k (a level the chain never needed has a
    one-point transversal). Any chain decides it, since the stabilizer of
    any i points of a k-transitive group is transitive on the other n - i."""
    n = G.degree
    if k > n:
        return False
    levels = G.chain().levels
    return all(
        (len(levels[i].transversal) if i < len(levels) else 1) == n - i for i in range(k)
    )


def _is_aut(g: Graph, G: PermGroup, aut: Callable[[], PermGroup]) -> bool:
    """G is Aut(Σ)."""
    return G.order() == aut().order()


def _kn_listed(g: Graph, G: PermGroup, aut: Callable[[], PermGroup]) -> bool:
    """G is 4-transitive, or is PΓL(2,8) on K_9."""
    return is_k_transitive(G, 4) or (g.n == 9 and G.order() == 1512 and is_k_transitive(G, 3))


def _knn_listed(g: Graph, G: PermGroup, aut: Callable[[], PermGroup]) -> bool:
    """Conditions (i)-(iii) of check_bipartite_conditions hold."""
    return all(_bipartite_conditions(g, G).values())


def _contains_psu_3_5(g: Graph, G: PermGroup, aut: Callable[[], PermGroup]) -> bool:
    """G contains PSU(3,5)."""
    return G.order() in (126000, 252000)


@dataclass(frozen=True)
class Row:
    """One row of the published small-s classification: Σ, built from n or,
    when least_n is None, from nothing; Aut(Σ), the default group; the
    published (d, delta); and the groups G <= Aut(Σ) the table lists, those
    for which S(Σ) is locally (G, s)-distance transitive up to its diameter
    2d + delta, as a test listed(g, G, aut) whose docstring states it; aut()
    builds Aut(Σ) when first called, so a test that does not read it costs
    no automorphism search. For any other group the largest such s is 3 when
    G is 2-arc transitive on Σ, 1 when arc transitive, and else 0 (the
    small-s equivalences; on K_n these are 3- and 2-transitivity). A
    counterexample (n, group name, group of n) is a group the row does not
    list that reaches the diameter all the same."""
    least_n: Optional[int]
    graph: Callable[..., Graph]
    group: Callable[[Graph], PermGroup]
    d_delta: tuple[int, int]
    listed: Callable[[Graph, PermGroup, Callable[[], PermGroup]], bool]
    counterexample: Optional[tuple[int, str, Callable[[int], PermGroup]]] = None


# P and HoSi look automorphism_group up per call, so a wrapper installed later sees it
ROWS: dict[str, Row] = {
    "K2": Row(None, lambda: make_complete(2), lambda g: symmetric_group(g.n), (1, 0), _is_aut),
    "K3": Row(None, lambda: make_complete(3), lambda g: symmetric_group(g.n), (1, 1), _is_aut),
    "Kn": Row(4, make_complete, lambda g: symmetric_group(g.n), (1, 2), _kn_listed, (5, "A_5", alternating_group)),
    "Knn": Row(2, lambda n: make_complete_bipartite(n, n), lambda g: wreath_s2(g.n // 2), (2, 0), _knn_listed),
    "C5": Row(None, lambda: make_cycle(5), lambda g: dihedral_group(g.n), (2, 1), _is_aut),
    "P": Row(None, make_petersen, lambda g: automorphism_group(g), (2, 2), _is_aut),
    "HoSi": Row(None, make_hoffman_singleton, lambda g: automorphism_group(g), (2, 2), _contains_psu_3_5),
}


def check_classification_row(row: str, G: Optional[PermGroup] = None, n: Optional[int] = None) -> CheckOutcome:
    """Verify one row of ROWS: the subdivision graph is locally (G, s)-distance
    transitive exactly for s up to the bound the row gives this group, and
    the (d, delta) columns re-derive. G defaults to the row's group."""
    spec = ROWS.get(row)
    if spec is None:
        raise GraphError(f"unknown classification row {row!r}")
    if spec.least_n is None and n is not None:
        raise GraphError(f"row {row} takes no n, got n={n}")
    if spec.least_n is not None and (n is None or n < spec.least_n):
        raise GraphError(f"row {row} needs n >= {spec.least_n}")
    g = spec.graph() if n is None else spec.graph(n)
    aut = cache(lambda: spec.group(g))  # built only when G is None or listed reads it
    G = aut() if G is None else G
    instance = f"row={row}{'' if n is None else f'(n={n})'} |G|={G.order()}"
    report = delta_of(g)
    diam_s = 2 * report.d + report.delta
    sg, Gs = _lift(g, G)
    if spec.listed(g, G, aut):
        s_max = diam_s
    else:
        arc = transitivity_verdicts(g, G, "s-arc", False, [1, 2])
        s_max = 3 if arc[2] else 1 if arc[1] else 0
    verdicts = transitivity_verdicts(sg.graph, Gs, "s-distance", True, range(1, diam_s + 1))
    ok = (report.d, report.delta) == spec.d_delta and all(v == (s <= s_max) for s, v in verdicts.items())
    return _outcome("classification-row", instance, ok,
                    {"d": report.d, "delta": report.delta, "expected_s_max": s_max, "verdicts": verdicts})


def check_known_exception() -> CheckOutcome:
    """The one instance where the published small-s classification fails:
    the counterexample of the Kn row in ROWS, the subdivided K_5 with the
    alternating group A_5.

    A_5 is sharply 3-transitive on 5 points, not 4-transitive, yet its edge
    stabilizer (order 6) is transitive on the 3 edges disjoint from the fixed
    edge, so every sphere condition holds and the subdivision is locally
    (A_5, 4)-distance transitive. The classification's cited result on groups
    transitive on 4-subsets needs degree >= 8 and does not cover degree 5.
    This check confirms the counterexample still reproduces: all verdicts true
    through s = 4 while A_5 is not 4-transitive.
    """
    kn = ROWS["Kn"]
    n, label, group = kn.counterexample
    G = group(n)
    sg, Gs = _lift(kn.graph(n), G)
    verdicts = transitivity_verdicts(sg.graph, Gs, "s-distance", True, range(1, sg.graph.diameter() + 1))
    four_transitive = is_k_transitive(G, 4)
    ok = all(verdicts.values()) and not four_transitive
    return _outcome(
        "classification-row-exception", f"K_{n} with {label}", ok,
        {"verdicts": verdicts, "four_transitive": four_transitive,
         "note": "counterexample to the published table; verdicts from exact orbit "
                 f"partitions of the vertex stabilizers of {label} acting on S(K_{n})"},
    )


# -- complete bipartite conditions ---------------------------------------------------


def _bipartite_conditions(g: Graph, G: PermGroup) -> dict[str, bool]:
    """The three conditions tied to local 4-distance transitivity of the
    subdivided complete bipartite graph K_{n,n}:
      (i) vertex transitivity,
      (ii) the side-preserving subgroup is 2-transitive on each side and a
           vertex stabilizer is transitive on (own side minus itself) x other side,
      (iii) each edge stabilizer swaps the endpoints and is transitive on the
           edges disjoint from it.
    Once (i) holds, (ii) is one orbit test of G_0."""
    n = g.n // 2
    side1 = list(range(n))
    side2 = list(range(n, 2 * n))
    cond_i = is_vertex_transitive(g, G)
    # With G transitive, let N be the side-preserving subgroup. An automorphism
    # fixing a vertex keeps the sides, so N_0 = G_0, and N is transitive on each
    # side. So G_0 transitive on (side 1 - {0}) x side 2 makes N 2-transitive on
    # side 1, and conjugating by an element that swaps the sides gives the same for
    # side 2 and for every other vertex stabilizer.
    pairs = [(a, b) for a in side1[1:] for b in side2]
    cond_ii = cond_i and len(orbit_partition(stabilizer_point(G, 0), pairs, Perm.apply_tuple)[0]) == 1
    cond_iii = _edge_swap_and_complement(G, side1, side2)
    return {"i": cond_i, "ii": cond_ii, "iii": cond_iii}


def _edge_swap_and_complement(G: PermGroup, side1, side2) -> bool:
    """Condition (iii), checked at one edge per G-orbit on the edges: both
    parts are invariant under conjugation by G."""
    edges = [(u1, u2) for u1 in side1 for u2 in side2]
    edge_orbits, _ = orbit_partition(G, edges, pair_image)
    for u1, u2 in (edge_orbit[0] for edge_orbit in edge_orbits):
        Ge = stabilizer_edge(G, (u1, u2))
        if not any(u1 in orb and u2 in orb for orb in Ge.point_orbits()):
            return False
        domain = [(a, b) for a in side1 if a != u1 for b in side2 if b != u2]
        orbits, _ = orbit_partition(Ge, domain, pair_image)
        if len(orbits) > 1:
            return False
    return True


def check_bipartite_conditions(n: int, G: PermGroup) -> CheckOutcome:
    """The three conditions above hold together iff the subdivided K_{n,n}
    is locally (G, 4)-distance transitive."""
    name = "bipartite-conditions"
    least = ROWS["Knn"].least_n
    if n < least:
        raise GraphError(f"K_{{n,n}} needs n >= {least}, got n={n}")
    if G.degree != 2 * n:
        raise GraphError("group degree must be 2n")
    instance = f"K_{{{n},{n}}} |G|={G.order()}"
    g = make_complete_bipartite(n, n)
    validate_automorphisms(g, G)  # the one-per-orbit checks need automorphisms
    conds = _bipartite_conditions(g, G)
    sg, Gs = _lift(g, G)
    rhs = transitivity_verdicts(sg.graph, Gs, "s-distance", True, [4])[4]
    lhs = all(conds.values())
    return _outcome(name, instance, lhs == rhs, {**conds, "local_4_distance": rhs})


# -- large-s cycles ----------------------------------------------------------------


def _proper_dihedral_classes(n: int) -> dict[str, PermGroup]:
    """One subgroup per conjugacy class of proper subgroups of
    dihedral_group(n) = <r, s>, r: i -> i+1, s: i -> -i, by label. For each
    divisor d of n, with k = n/d: C_d = <r^k>; for d < n, D_d = <r^k, s>;
    and for d < n and k even, D_d' = <r^k, rs>, which is conjugate to D_d
    when k is odd."""
    r, s = dihedral_group(n).generators
    classes = {}
    for d in (d for d in range(1, n + 1) if n % d == 0):
        k = n // d
        rk = Perm(tuple((i + k) % n for i in range(n)))
        classes[f"C_{d}"] = PermGroup(n, [rk])
        if d < n:
            classes[f"D_{d}"] = PermGroup(n, [rk, s])
            if k % 2 == 0:
                classes[f"D_{d}'"] = PermGroup(n, [rk, r * s])
    return classes


def check_large_s_cycles(n: int) -> CheckOutcome:
    """Positive direction of the large-s classification on cycles: the
    subdivided n-cycle with the full dihedral group is locally s-distance
    transitive for s = n (and s = n-1 when n is odd, where s must be even),
    while every proper subgroup fails. The negatives hold one verdict set
    per class of _proper_dihedral_classes: a verdict is invariant under
    conjugation in Aut(C_n) = D_n, so they cover every proper subgroup."""
    name = "large-s-cycles"
    instance = f"C_{n}"
    g = make_cycle(n)
    s_values = [n] + ([n - 1] if n % 2 == 1 else [])
    sg, Gs = _lift(g, dihedral_group(n))
    positives = transitivity_verdicts(sg.graph, Gs, "s-distance", True, s_values)
    negatives = {
        label: transitivity_verdicts(sg.graph, induced_subdivision_action(H, sg), "s-distance", True, s_values)
        for label, H in _proper_dihedral_classes(n).items()
    }
    ok = all(positives.values()) and all(
        not v for vs in negatives.values() for v in vs.values()
    )
    return _outcome(name, instance, ok, {"positives": positives, "negatives": negatives})


# -- corpus sweep ------------------------------------------------------------------
# A section yields (check name, instance, thunk) triples. run_corpus calls or
# skips each thunk before it takes the next, so thunks may bind loop variables late.

_Instances = Iterator[tuple[str, str, Callable[[], "CheckOutcome | list[CheckOutcome]"]]]

_S_MAX = 5  # the largest s the named-instance and random sections check


def _rows(config: CorpusConfig) -> _Instances:
    row = "classification-row"
    exception_n, exception_label, _ = ROWS["Kn"].counterexample
    yield row, "K2", lambda: check_classification_row("K2")
    yield row, "K3", lambda: check_classification_row("K3")
    for n in range(4, 10):
        yield row, f"Kn S_{n}", lambda: check_classification_row("Kn", symmetric_group(n), n)
        if n == exception_n:
            yield "classification-row-exception", f"Kn {exception_label}", check_known_exception
        else:
            yield row, f"Kn A_{n}", lambda: check_classification_row("Kn", alternating_group(n), n)
    yield row, "K9 PGammaL(2,8)", lambda: check_classification_row("Kn", pgammal_2_8(), 9)
    yield row, "K9 PGL(2,8)", lambda: check_classification_row("Kn", pgl_2_8(), 9)
    for n in range(2, 5):
        yield row, f"Knn n={n}", lambda: check_classification_row("Knn", wreath_s2(n), n)
        yield "bipartite-conditions", f"n={n} wreath", lambda: check_bipartite_conditions(n, wreath_s2(n))
    yield "bipartite-conditions", "n=3 no-swap", lambda: check_bipartite_conditions(3, _s3_times_s3())
    yield row, "C5", lambda: check_classification_row("C5")
    yield row, "P", lambda: check_classification_row("P")


def _hoffman_singleton(config: CorpusConfig) -> _Instances:
    """The HoSi row under the full and the derived group; each searches Aut(HoSi)."""
    yield "classification-row", "HoSi full", lambda: check_classification_row("HoSi")
    yield "classification-row", "HoSi derived", lambda: check_classification_row(
        "HoSi", derived_subgroup(automorphism_group(make_hoffman_singleton())))


def _structural(config: CorpusConfig) -> _Instances:
    graphs = [make_complete(n) for n in range(2, 7)]
    graphs += [make_complete_bipartite(n, n) for n in range(2, 5)]
    graphs.append(make_complete_bipartite(2, 3))
    graphs += [make_cycle(n) for n in range(3, 9)]
    graphs.append(make_petersen())
    for g in graphs:
        inst = f"g=({g.n},{g.m})"
        yield "distance-formula", inst, lambda: check_distance_formula(g)
        yield "reconstruction", inst, lambda: check_reconstruction(g)


def _named_instances(config: CorpusConfig) -> _Instances:
    """Implication-style checks on hand-picked (graph, group) instances."""
    p = make_petersen()
    aut_p = automorphism_group(p)
    instances = (
        ("K4/S4", make_complete(4), symmetric_group(4)),
        ("K4/A4", make_complete(4), alternating_group(4)),
        ("K33/wreath", make_complete_bipartite(3, 3), wreath_s2(3)),
        ("K23/no-swap", make_complete_bipartite(2, 3),
         PermGroup(5, [Perm.from_cycles(5, [c]) for c in ((0, 1), (2, 3), (2, 3, 4))])),
        ("C6/full", make_cycle(6), dihedral_group(6)),
        ("C6/half", make_cycle(6), cycle_half_dihedral(6)),
        ("C7/full", make_cycle(7), dihedral_group(7)),
        ("C8/rotations", make_cycle(8), cyclic_group(8)),
        ("P/S5", p, aut_p),
        ("P/A5", p, derived_subgroup(aut_p)),
    )
    for label, g, G in instances:
        yield "edge-stabilizer-conditions", label, lambda: check_edge_stabilizer_conditions(g, G)
        yield "small-s-equivalences", label, lambda: check_small_s_equivalences(g, G)
        for s in range(2, min(2 * g.diameter() - 1, _S_MAX) + 1, 2):
            yield "girth-bound", f"{label} s={s}", lambda: check_girth_bound(g, G, s)
        gr = g.girth()
        if gr is not None and gr >= 5:
            yield "girth5-three-arc", label, lambda: check_girth5_three_arc(g, G)


def _large_cycles(config: CorpusConfig) -> _Instances:
    for n in (16, 17, 18, 19):
        yield "large-s-cycles", f"C_{n}", lambda: check_large_s_cycles(n)


def _random(config: CorpusConfig) -> _Instances:
    """24 seeded random connected graphs on 3..7 vertices, each checked under
    Aut(g) and sampled subgroups by one equivalence sweep."""
    rng = random.Random(config.seed)
    for idx in range(24):
        g = random_connected_graph(rng, rng.randint(3, 7))
        inst = f"random#{idx}(n={g.n},m={g.m})"
        # drawn here, not in the thunk, so a budget skip leaves the later graphs as they are
        seed = rng.randrange(2**30)
        yield "distance-formula", inst, lambda: check_distance_formula(g)
        yield "reconstruction", inst, lambda: check_reconstruction(g)
        yield "equivalence-sweep", inst, lambda: _equivalence_sweep(g, seed, inst)


def _equivalence_sweep(g: Graph, seed: int, prefix: str) -> list[CheckOutcome]:
    """Both equivalences for s up to _S_MAX on g under its automorphism
    group and 8 subgroups sampled with seed.

    Sampled generators often generate the same group twice, and a verdict
    depends on the group's elements only, so equal groups on one graph share
    one evaluation: a repeat is found by equal_groups and its outcomes are
    assembled under its own label from the earlier group's verdicts."""
    aut = automorphism_group(g)
    groups = [aut] + random_subgroups(aut, 8, seed)[2:]
    s_values = range(1, _S_MAX + 1)
    distance_s = range(1, min(_S_MAX, 2 * g.diameter() - 1) + 1)
    evaluated: list = []  # (group, verdicts) on this graph only
    outcomes = []
    for gi, G in enumerate(groups):
        label = f"{prefix} G#{gi}(|G|={G.order()})"
        verdicts = _once_per_group(evaluated, G, lambda: _equivalence_verdicts(g, G, s_values, distance_s))
        outcomes.extend(_equivalence_outcomes(verdicts, s_values, distance_s, label))
    return outcomes


# one row per section, in run order: (name, instances, whether it runs by default)
SECTIONS: tuple[tuple[str, Callable[[CorpusConfig], _Instances], bool], ...] = (
    ("rows", _rows, True),
    ("hoffman-singleton", _hoffman_singleton, False),
    ("structural", _structural, True),
    ("named-instances", _named_instances, True),
    ("large-cycles", _large_cycles, True),
    ("random", _random, True),
)
DEFAULT_SECTIONS = tuple(name for name, _, default in SECTIONS if default)


@dataclass
class CorpusConfig:
    seed: int = 1729
    sections: tuple[str, ...] = DEFAULT_SECTIONS
    budget_seconds: Optional[float] = None

    def check(self, where: str = "CorpusConfig") -> None:
        """Raise GraphError, prefixed with where, for an unknown section or a
        budget below 0, which would skip every check."""
        for part in self.sections:
            if part not in (name for name, _, _ in SECTIONS):
                raise GraphError(f"{where}: unknown section {part!r}")
        if self.budget_seconds is not None and not self.budget_seconds >= 0:  # also rejects nan
            raise GraphError(f"{where}: budget_seconds must be >= 0, got {self.budget_seconds}")

    @staticmethod
    def from_file(path: str) -> "CorpusConfig":
        """Parse ``key = value`` lines. A malformed line, an unknown key, or a
        value that ``check`` rejects raises GraphError naming the file, the
        line and the key."""
        cfg = CorpusConfig()
        for lineno, line in _data_lines(path):
            line = line.split("#", 1)[0].strip()  # drop an inline comment
            if "=" not in line:
                raise GraphError(f"{path}:{lineno}: expected key = value")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                if key == "seed":
                    cfg.seed = int(value)
                elif key == "sections":
                    cfg.sections = tuple(x.strip() for x in value.split(",") if x.strip())
                elif key == "budget_seconds":
                    cfg.budget_seconds = float(value)
                else:
                    raise GraphError(f"{path}:{lineno}: unknown key {key!r}")
            except GraphError:  # a ValueError too, but not a bad value
                raise
            except ValueError:  # int() or float()
                raise GraphError(f"{path}:{lineno}: bad value {value!r} for {key}") from None
            cfg.check(f"{path}:{lineno}")
        return cfg

    def __str__(self) -> str:
        """Every key as ``key=value``, spelled as from_file reads it back (a
        budget of None aside)."""
        return f"seed={self.seed} sections={','.join(self.sections)} budget_seconds={self.budget_seconds}"


def run_corpus(config: CorpusConfig) -> list[CheckOutcome]:
    """The sections of config.sections, in SECTIONS order; every refuted
    outcome is a failure. A config that ``CorpusConfig.check`` rejects
    raises GraphError before any check runs. The budget is checked before
    each check, and a check started past it is reported skipped, naming the
    budget."""
    config.check()
    budget = config.budget_seconds
    started = time.monotonic()
    outcomes: list[CheckOutcome] = []
    for section, instances, _ in SECTIONS:
        if section not in config.sections:
            continue
        for name, instance, thunk in instances(config):
            if budget is not None and time.monotonic() - started > budget:
                details = {"reason": "budget exhausted", "budget_seconds": budget}
                outcomes.append(CheckOutcome(name, instance, SKIPPED, details))
                continue
            result = thunk()
            outcomes.extend([result] if isinstance(result, CheckOutcome) else result)
    return outcomes


def _s3_times_s3() -> PermGroup:
    return PermGroup(6, [
        Perm.from_cycles(6, [(0, 1)]),
        Perm.from_cycles(6, [(0, 1, 2)]),
        Perm.from_cycles(6, [(3, 4)]),
        Perm.from_cycles(6, [(3, 4, 5)]),
    ])


def summarize(outcomes: list[CheckOutcome]) -> dict[str, int]:
    counts = {CONFIRMED: 0, REFUTED: 0, SKIPPED: 0}
    for oc in outcomes:
        counts[oc.status] += 1
    return counts
