import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from subsym.autgrp import automorphism_group
from subsym.graphs import (
    GraphError,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_petersen,
    random_connected_graph,
)
from subsym.groups import (
    PermGroup,
    alternating_group,
    cyclic_group,
    dihedral_group,
    induced_subdivision_action,
    pgammal_2_8,
    pgl_2_8,
    random_subgroups,
    stabilizer_point,
    symmetric_group,
    trivial_group,
    wreath_s2,
)
from subsym.perms import Perm
from subsym.symmetry import (
    PropertyKind,
    TransitivityReport,
    Witness,
    is_arc_transitive,
    is_distance_transitive,
    is_locally_arc_transitive,
    is_locally_distance_transitive,
    is_locally_s_arc_transitive,
    is_locally_s_distance_transitive,
    is_s_arc_transitive,
    is_s_distance_transitive,
    is_vertex_transitive,
    transitivity_reports,
    transitivity_verdicts,
    verify_witness,
)
from subsym.transforms import subdivide

from _oracles import brute_closure, brute_level_orbits


def s2_times_s3():
    return PermGroup(5, [
        Perm.from_cycles(5, [(0, 1)]),
        Perm.from_cycles(5, [(2, 3)]),
        Perm.from_cycles(5, [(2, 3, 4)]),
    ])


def corpus_pairs(seed=2025, count=10):
    """Deterministic (graph, group) pairs mixing named and random instances."""
    rng = random.Random(seed)
    pairs = [
        (make_complete(4), symmetric_group(4)),
        (make_complete(4), alternating_group(4)),
        (make_cycle(6), dihedral_group(6)),
        (make_cycle(6), cyclic_group(6)),
        (make_complete_bipartite(2, 3), s2_times_s3()),
        (make_petersen(), automorphism_group(make_petersen())),
        (make_complete_bipartite(3, 3), wreath_s2(3)),
    ]
    for _ in range(count):
        g = random_connected_graph(rng, rng.randint(3, 7))
        aut = automorphism_group(g)
        subs = random_subgroups(aut, 2, rng.randrange(2**30))
        pairs.append((g, aut))
        pairs.append((g, subs[-1]))
    return pairs


class TestArcTransitivity:
    def test_complete_graphs(self):
        assert is_s_arc_transitive(make_complete(5), symmetric_group(5), 2).verdict
        assert is_s_arc_transitive(make_complete(9), symmetric_group(9), 2).verdict

    def test_cycles_any_s(self):
        for s in (1, 3, 5, 7):
            assert is_s_arc_transitive(make_cycle(7), dihedral_group(7), s).verdict

    def test_petersen_three_not_four(self):
        p = make_petersen()
        G = automorphism_group(p)
        assert is_s_arc_transitive(p, G, 3).verdict
        rep = is_s_arc_transitive(p, G, 4)
        assert not rep.verdict
        assert rep.witness is not None and rep.witness.level == 4

    def test_empty_level_fails_with_note(self):
        rep = is_s_arc_transitive(make_complete(2), symmetric_group(2), 2)
        assert not rep.verdict
        assert rep.witness.note == "empty"

    def test_requires_automorphisms(self):
        from subsym.graphs import Graph
        from subsym.groups import NotAnAutomorphismError

        path = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotAnAutomorphismError):
            is_s_arc_transitive(path, cyclic_group(3), 1)


class TestLocalArcTransitivity:
    def test_subdivided_petersen_true_to_5_false_at_6(self):
        p = make_petersen()
        sg = subdivide(p)
        Gs = induced_subdivision_action(automorphism_group(p), sg)
        assert is_locally_s_arc_transitive(sg.graph, Gs, 5).verdict
        assert not is_locally_s_arc_transitive(sg.graph, Gs, 6).verdict

    def test_unbalanced_bipartite_local_but_not_global(self):
        g = make_complete_bipartite(2, 3)
        G = s2_times_s3()
        assert is_locally_s_arc_transitive(g, G, 2).verdict
        assert not is_s_arc_transitive(g, G, 1).verdict

    def test_trivial_group_fails(self):
        g = make_cycle(5)
        assert not is_locally_s_arc_transitive(g, trivial_group(5), 1).verdict


class TestDistanceTransitivity:
    def test_complete(self):
        assert is_distance_transitive(make_complete(6), symmetric_group(6)).verdict

    def test_petersen(self):
        p = make_petersen()
        G = automorphism_group(p)
        assert is_s_distance_transitive(p, G, 2).verdict
        assert is_distance_transitive(p, G).verdict

    def test_rotations_fail_at_1(self):
        rep = is_s_distance_transitive(make_cycle(6), cyclic_group(6), 1)
        assert not rep.verdict

    def test_s_beyond_diameter_rejected(self):
        with pytest.raises(GraphError):
            is_s_distance_transitive(make_complete(4), symmetric_group(4), 2)
        with pytest.raises(GraphError):
            is_locally_s_distance_transitive(make_complete(4), symmetric_group(4), 2)

    def test_single_vertex_rejected(self):
        # K_1 has diameter 0, so the level s = diam is out of range
        from subsym.graphs import Graph

        k1 = Graph(1, [])
        for predicate in (is_distance_transitive, is_locally_distance_transitive):
            with pytest.raises(GraphError) as err:
                predicate(k1, trivial_group(1))
            assert str(err.value) == "s must satisfy 1 <= s <= diam = 0"


class TestLocalDistanceTransitivity:
    def test_subdivided_k9_with_projective_groups(self):
        sg = subdivide(make_complete(9))
        assert is_locally_s_distance_transitive(
            sg.graph, induced_subdivision_action(pgammal_2_8(), sg), 4
        ).verdict
        rep = is_locally_s_distance_transitive(
            sg.graph, induced_subdivision_action(pgl_2_8(), sg), 4
        )
        assert not rep.verdict

    def test_subdivided_k4(self):
        sg = subdivide(make_complete(4))
        assert is_locally_s_distance_transitive(
            sg.graph, induced_subdivision_action(symmetric_group(4), sg), 4
        ).verdict
        assert not is_locally_s_distance_transitive(
            sg.graph, induced_subdivision_action(alternating_group(4), sg), 2
        ).verdict

    def test_locally_distance_transitive_full_diameter(self):
        p = make_petersen()
        sg = subdivide(p)
        Gs = induced_subdivision_action(automorphism_group(p), sg)
        assert is_locally_distance_transitive(sg.graph, Gs).verdict


def neighborhood_two_transitive(g, G):
    """Brute force: every vertex stabilizer, enumerated element by element, is
    transitive on the ordered pairs of distinct neighbours of its vertex."""
    elements = brute_closure(G.generators, G.degree)
    for v in range(g.n):
        pairs = {(a, b) for a in g.adjacency[v] for b in g.adjacency[v] if a != b}
        if pairs:
            a, b = min(pairs)
            if {(e[a], e[b]) for e in elements if e[v] == v} != pairs:
                return False
    return True


class TestNeighborhoodTwoTransitive:
    def test_matches_local_two_arc_on_corpus(self):
        for g, G in corpus_pairs(count=6):
            assert neighborhood_two_transitive(g, G) == is_locally_s_arc_transitive(g, G, 2).verdict

    def test_single_edge_vacuous(self):
        assert neighborhood_two_transitive(make_complete(2), symmetric_group(2))

    def test_cycle_reflection(self):
        assert neighborhood_two_transitive(make_cycle(5), dihedral_group(5))


def test_local_kinds_share_point_stabilizers(chain_builds):
    # local arc reports then local distance reports on one (g, G): the second
    # kind reuses the stabilizers the first built. G is lifted from the base
    # group, so each representative's stabilizer is the lift of the base
    # group's stabilizer of its vertex or of the ends (0, 7) of its edge; the
    # chain the Aut search returned, based at [0, 7, ...], serves both, so
    # no chain is built
    sg = subdivide(make_petersen())
    G = induced_subdivision_action(automorphism_group(make_petersen()), sg)
    reps = [orb[0] for orb in G.point_orbits()]
    chain_builds.clear()  # the search's own chain
    arc = transitivity_reports(sg.graph, G, "s-arc", True, range(1, 7))
    distance = transitivity_reports(sg.graph, G, "s-distance", True, range(1, 5))
    assert [r.verdict for r in arc] == [True] * 5 + [False]
    assert all(r.verdict for r in distance)
    assert reps == [0, 10] and sg.edge_of[0] == (0, 7)
    built = [(H.degree, list(prefix)) for H, prefix in chain_builds]
    assert built == []


class TestStructuralInvariants:
    def test_monotone_in_s(self):
        for g, G in corpus_pairs(count=6):
            d = g.diameter()
            for s in range(2, 5):
                if is_s_arc_transitive(g, G, s).verdict:
                    assert is_s_arc_transitive(g, G, s - 1).verdict
                if is_locally_s_arc_transitive(g, G, s).verdict:
                    assert is_locally_s_arc_transitive(g, G, s - 1).verdict
                if s <= d and is_s_distance_transitive(g, G, s).verdict:
                    assert is_s_distance_transitive(g, G, s - 1).verdict

    def test_level_one_concepts_coincide(self):
        for g, G in corpus_pairs(count=6):
            a = is_locally_arc_transitive(g, G).verdict
            b = is_locally_s_arc_transitive(g, G, 1).verdict
            c = is_locally_s_distance_transitive(g, G, 1).verdict
            assert a == b == c

    def test_global_implies_local(self):
        for g, G in corpus_pairs(count=6):
            d = g.diameter()
            if is_s_arc_transitive(g, G, 2).verdict:
                assert is_locally_s_arc_transitive(g, G, 2).verdict
            if is_arc_transitive(g, G).verdict:
                assert is_locally_arc_transitive(g, G).verdict
            for s in range(1, d + 1):
                if is_s_distance_transitive(g, G, s).verdict:
                    assert is_locally_s_distance_transitive(g, G, s).verdict

    def test_local_plus_vertex_transitive_iff_global(self):
        for g, G in corpus_pairs(count=8):
            d = g.diameter()
            vt = is_vertex_transitive(g, G)
            for s in (1, 2):
                local = is_locally_s_arc_transitive(g, G, s).verdict
                glob = is_s_arc_transitive(g, G, s).verdict
                assert glob == (local and vt)
                if s <= d:
                    locd = is_locally_s_distance_transitive(g, G, s).verdict
                    globd = is_s_distance_transitive(g, G, s).verdict
                    assert globd == (locd and vt)

    def test_every_false_report_has_verified_witness(self):
        for g, G in corpus_pairs(count=8):
            d = g.diameter()
            reports = [
                is_s_arc_transitive(g, G, 2),
                is_locally_s_arc_transitive(g, G, 2),
                is_s_distance_transitive(g, G, min(2, d)),
                is_locally_s_distance_transitive(g, G, min(2, d)),
            ]
            for rep in reports:
                if not rep.verdict:
                    assert rep.witness is not None
                    assert verify_witness(g, G, rep)


class TestVerifyWitness:
    @staticmethod
    def false_report(name, local, s, **witness):
        return TransitivityReport(PropertyKind(name, local, s), False, Witness(level=s, **witness))

    def test_local_distance_objects_must_be_on_the_sphere(self):
        p = make_petersen()  # neighbours of 0: 7, 8, 9; vertex 1 is at distance 2
        T = trivial_group(10)
        assert verify_witness(p, T, self.false_report("s-distance", True, 1, vertex=0, first=7, second=8))
        assert not verify_witness(p, T, self.false_report("s-distance", True, 1, vertex=0, first=7, second=1))
        assert not verify_witness(p, T, self.false_report("s-distance", True, 1, vertex=None, first=7, second=8))

    def test_arc_objects_must_be_arcs(self):
        p = make_petersen()
        T = trivial_group(10)
        assert verify_witness(p, T, self.false_report("s-arc", False, 1, first=(0, 7), second=(0, 8)))
        assert not verify_witness(p, T, self.false_report("s-arc", False, 1, first=(0, 1), second=(0, 2)))
        assert not verify_witness(p, T, self.false_report("s-arc", False, 2, first=(0, 7, 0), second=(0, 8, 3)))
        local = self.false_report("s-arc", True, 1, vertex=7, first=(0, 7), second=(0, 8))
        assert not verify_witness(p, T, local)  # local arcs start at the vertex

    def test_global_distance_objects_must_be_pairs_at_that_distance(self):
        c = make_cycle(6)
        G = cyclic_group(6)
        assert verify_witness(c, G, self.false_report("s-distance", False, 1, first=(0, 1), second=(1, 0)))
        assert not verify_witness(c, G, self.false_report("s-distance", False, 1, first=(0, 1), second=(0, 2)))

    def test_empty_note_only_for_an_empty_level(self):
        p = make_petersen()
        T = trivial_group(10)
        assert not verify_witness(p, T, self.false_report("s-arc", False, 4, note="empty"))
        assert not verify_witness(p, T, self.false_report("s-distance", True, 2, note="empty"))
        assert verify_witness(p, T, self.false_report("s-distance", False, 3, note="empty"))
        k2 = make_complete(2)
        assert verify_witness(k2, symmetric_group(2), self.false_report("s-arc", True, 2, note="empty"))

    def test_level_must_lie_in_the_reports_range(self):
        p = make_petersen()
        T = trivial_group(10)
        kind = PropertyKind("s-distance", True, 1)
        for level in (5, -1, 0):
            report = TransitivityReport(kind, False, Witness(level=level, note="empty"))
            assert not verify_witness(p, T, report)
        beyond = TransitivityReport(kind, False, Witness(level=2, vertex=0, first=1, second=2))
        assert not verify_witness(p, T, beyond)  # a real level-2 split, but s = 1
        arc = TransitivityReport(PropertyKind("s-arc", False, 1), False, Witness(level=2, first=(0, 7, 3), second=(0, 8, 2)))
        assert not verify_witness(p, T, arc)
        assert verify_witness(p, T, TransitivityReport(PropertyKind("s-arc", False, 1), False, Witness(level=1, first=(0, 7), second=(0, 8))))

    def test_empty_arc_level_decided_without_enumerating_arcs(self):
        from subsym.graphs import Graph

        p = make_petersen()
        start = time.perf_counter()
        assert not verify_witness(p, trivial_group(10), self.false_report("s-arc", False, 10**6, note="empty"))
        assert time.perf_counter() - start < 1.0
        path = Graph(3, [(0, 1), (1, 2)])
        T = trivial_group(3)
        assert verify_witness(path, T, self.false_report("s-arc", False, 3, note="empty"))
        assert not verify_witness(path, T, self.false_report("s-arc", False, 2, note="empty"))

    def test_objects_must_be_vertices_in_range(self):
        # a negative id would otherwise index from the end: vertex 9 is a neighbour of 0
        p = make_petersen()
        T = trivial_group(10)
        assert verify_witness(p, T, self.false_report("s-distance", False, 1, first=(0, 7), second=(0, 9)))
        assert not verify_witness(p, T, self.false_report("s-distance", False, 1, first=(0, 7), second=(0, -1)))
        assert not verify_witness(p, T, self.false_report("s-distance", False, 1, first=(0, 7), second=(0, 10)))
        assert not verify_witness(p, T, self.false_report("s-distance", True, 1, vertex=0, first=7, second=-1))
        assert not verify_witness(p, T, self.false_report("s-distance", True, 1, vertex=0, first=7, second=9.0))
        assert not verify_witness(p, T, self.false_report("s-distance", True, 1, vertex=0.0, first=7, second=8))
        assert not verify_witness(p, T, self.false_report("s-arc", False, 2, first=(8, 0, 7), second=(9, 0, -3)))

    def test_distinct_orbits_still_required(self):
        p = make_petersen()
        G = automorphism_group(p)
        assert not verify_witness(p, G, self.false_report("s-arc", False, 1, first=(0, 7), second=(0, 8)))


def _sampled_pairs(seed=11, count=6):
    """Small random connected graphs with their Aut and sampled subgroups,
    and the subdivisions of the first two with the induced actions."""
    rng = random.Random(seed)
    pairs = []
    for i in range(count):
        g = random_connected_graph(rng, rng.randint(3, 6))
        aut = automorphism_group(g)
        for G in [aut] + random_subgroups(aut, 2, rng.randrange(2**30)):
            pairs.append((g, G))
            if i < 2:
                sg = subdivide(g)
                pairs.append((sg.graph, induced_subdivision_action(G, sg)))
    return pairs


class TestOneEvaluationPath:
    """A range evaluation reads every s off one profile; each report must be
    the one a single-s call gives."""

    S_MAX_ARC = 5

    def test_range_equals_single_s_calls(self):
        single = {
            ("s-arc", False): is_s_arc_transitive,
            ("s-arc", True): is_locally_s_arc_transitive,
            ("s-distance", False): is_s_distance_transitive,
            ("s-distance", True): is_locally_s_distance_transitive,
        }
        for g, G in _sampled_pairs():
            d = g.diameter()
            for (name, local), predicate in single.items():
                s_max = self.S_MAX_ARC if name == "s-arc" else d
                ranged = transitivity_reports(g, G, name, local, range(1, s_max + 1))
                assert [r.kind.s for r in ranged] == list(range(1, s_max + 1))
                for s, rep in zip(range(1, s_max + 1), ranged):
                    assert rep.to_json_dict() == predicate(g, G, s).to_json_dict(), (name, local, s)

    def test_unparameterised_predicates_match_their_level(self):
        # arc transitivity is the s-arc report at s = 1, distance
        # transitivity the s-distance report at s = diam, kind included
        for g, G in _sampled_pairs():
            d = g.diameter()
            for local, arc, dist in (
                (False, is_arc_transitive, is_distance_transitive),
                (True, is_locally_arc_transitive, is_locally_distance_transitive),
            ):
                ranged = transitivity_reports(g, G, "s-arc", local, [1])[0]
                assert arc(g, G).to_json_dict() == ranged.to_json_dict()
                ranged = transitivity_reports(g, G, "s-distance", local, range(1, d + 1))[-1]
                assert dist(g, G).to_json_dict() == ranged.to_json_dict()

    def test_bad_s_values_rejected(self):
        g, G = make_petersen(), automorphism_group(make_petersen())
        with pytest.raises(GraphError):
            transitivity_reports(g, G, "s-distance", True, [1, 2, 3])
        with pytest.raises(GraphError):
            transitivity_reports(g, G, "s-arc", False, [2, 0])
        for evaluate in (transitivity_reports, transitivity_verdicts):
            for name in ("arc", "distance"):
                with pytest.raises(ValueError, match=f"unknown property kind '{name}'"):
                    evaluate(g, G, name, False, [1])

    @pytest.mark.parametrize("evaluate", [transitivity_reports, transitivity_verdicts])
    @pytest.mark.parametrize("s_values", [[], [1], None])
    def test_unknown_kind_rejected(self, evaluate, s_values):
        # the name is checked before the s values, so no s values is no escape
        p = make_petersen()
        with pytest.raises(ValueError, match="unknown property kind 'foo'"):
            evaluate(p, automorphism_group(p), "foo", True, s_values)


class TestVerdictPath:
    """transitivity_verdicts walks the levels across the representatives and
    stops at the first failing level; its verdicts must be the reports'."""

    S_MAX_ARC = 5

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_verdicts_equal_report_verdicts(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 7))
        sg = subdivide(g)
        for H in random_subgroups(automorphism_group(g), 2, rng.randrange(2**30)):
            for graph, G in ((g, H), (sg.graph, induced_subdivision_action(H, sg))):
                d = graph.diameter()
                for name, cap in (("s-arc", self.S_MAX_ARC), ("s-distance", d)):
                    for local in (True, False):
                        s_values = rng.sample(range(1, cap + 1), rng.randint(0, cap))
                        want = {r.kind.s: r.verdict for r in transitivity_reports(graph, G, name, local, s_values)}
                        assert transitivity_verdicts(graph, G, name, local, s_values) == want
                        assert list(want) == s_values
                        for bad in ([1, 0], [d + 1]) if name == "s-distance" else ([0],):
                            with pytest.raises(GraphError) as want_error:
                                transitivity_reports(graph, G, name, local, bad)
                            with pytest.raises(GraphError) as got_error:
                                transitivity_verdicts(graph, G, name, local, bad)
                            assert str(got_error.value) == str(want_error.value)

    @pytest.mark.parametrize("name", ["s-arc", "s-distance"])
    @pytest.mark.parametrize("local", [True, False])
    def test_stops_at_the_first_failing_level(self, name, local):
        # the trivial group fixes both neighbours of vertex 0 of C_5, so the
        # first representative fails at level 1 and no other G_v is built
        g = make_cycle(5)
        walked, reported = trivial_group(5), trivial_group(5)
        assert transitivity_verdicts(g, walked, name, local, [1, 2]) == {1: False, 2: False}
        assert [r.verdict for r in transitivity_reports(g, reported, name, local, [1, 2])] == [False, False]
        assert list(walked._stabilizers) == [0]
        assert sorted(reported._stabilizers) == [0, 1, 2, 3, 4]

    def test_unparameterised_kinds_rejected(self):
        # arc and distance transitivity are s-arc at s = 1 and s-distance at
        # s = diam, not kinds of their own
        g, G = make_cycle(5), dihedral_group(5)
        for evaluate in (transitivity_reports, transitivity_verdicts):
            for name, s_values in (("arc", [1]), ("distance", [2]), ("arc", [])):
                with pytest.raises(ValueError, match=f"unknown property kind '{name}'"):
                    evaluate(g, G, name, True, s_values)


class TestGlobalReportsAgainstElementwiseOrbits:
    """The global reports are read off the local profile; the reference
    partitions every level-i object under every element of G."""

    S_MAX_ARC = 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.sampled_from(["aut", "subgroup"]), st.booleans())
    def test_global_reports_match_brute_orbits(self, seed, which, subdivided):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 4 if subdivided else 6))
        G = automorphism_group(g)
        if which == "subgroup":
            subs = [H for H in random_subgroups(G, 3, rng.randrange(2**30)) if len(H.point_orbits()) > 1]
            G = subs[0] if subs else stabilizer_point(G, 0)
        if subdivided:
            sg = subdivide(g)
            g, G = sg.graph, induced_subdivision_action(G, sg)
        elements = brute_closure(G.generators, g.n)
        for name, s_max in (("s-arc", self.S_MAX_ARC), ("s-distance", g.diameter())):
            levels = [brute_level_orbits(g, elements, name, i) for i in range(1, s_max + 1)]
            reports = transitivity_reports(g, G, name, False, range(1, s_max + 1))
            for s, rep in enumerate(reports, 1):
                counts = {i: len(orbits) for i, orbits in enumerate(levels[:s], 1)}
                failing = next((i for i, count in counts.items() if count > 1), None)
                if failing is not None:
                    orbits = levels[failing - 1]
                    witness = Witness(level=failing, first=orbits[0][0], second=orbits[1][0])
                elif counts[s] == 0:
                    witness = Witness(level=s, note="empty")
                else:
                    witness = None
                assert (rep.verdict, rep.orbit_counts, rep.witness) == (witness is None, counts, witness)


class TestLocalReportsAgainstElementwiseOrbits:
    """A local report's witness is the first failing representative, at its
    lowest failing level, with the least elements of its first two orbits;
    the reference partitions the level-i objects at each representative
    under every element that fixes it."""

    S_MAX_ARC = 3

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9), st.sampled_from(["aut", "subgroup"]), st.booleans())
    def test_local_reports_match_brute_orbits(self, seed, which, subdivided):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 4 if subdivided else 6))
        G = automorphism_group(g)
        if which == "subgroup":
            subs = [H for H in random_subgroups(G, 3, rng.randrange(2**30)) if len(H.point_orbits()) > 1]
            G = subs[0] if subs else stabilizer_point(G, 0)
        if subdivided:
            sg = subdivide(g)
            g, G = sg.graph, induced_subdivision_action(G, sg)
        elements = brute_closure(G.generators, g.n)
        reps = sorted({min(e[v] for e in elements) for v in range(g.n)})
        for name, s_max in (("s-arc", self.S_MAX_ARC), ("s-distance", g.diameter())):
            # at[v][i - 1]: the orbits of G_v on the level-i objects at v
            at = {v: [brute_level_orbits(g, elements, name, i, v) for i in range(1, s_max + 1)] for v in reps}
            reports = transitivity_reports(g, G, name, True, range(1, s_max + 1))
            for s, rep in enumerate(reports, 1):
                counts = {i: max(len(at[v][i - 1]) for v in reps) for i in range(1, s + 1)}
                failing = next(((v, i) for v in reps for i in range(1, s + 1) if len(at[v][i - 1]) > 1), None)
                if failing is not None:
                    v, i = failing
                    first, second = (orb[0] if name == "s-arc" else orb[0][1] for orb in at[v][i - 1][:2])
                    witness = Witness(level=i, vertex=v, first=first, second=second)
                elif counts[s] == 0:
                    witness = Witness(level=s, note="empty")
                else:
                    witness = None
                assert (rep.verdict, rep.orbit_counts, rep.witness) == (witness is None, counts, witness)


def test_arc_levels_come_in_enumeration_order(monkeypatch):
    # orbit order, and so every arc witness, follows the order of the domain
    from subsym import symmetry
    from subsym.graphs import Graph, s_arcs_from

    domains = []
    partition_stats = symmetry._partition_stats

    def recording(group, domain, apply):
        domains.append(list(domain))
        return partition_stats(group, domain, apply)

    monkeypatch.setattr(symmetry, "_partition_stats", recording)
    rng = random.Random(8)
    graphs = [Graph(3, [(0, 1), (1, 2)]), make_petersen()]
    graphs += [random_connected_graph(rng, rng.randint(3, 7)) for _ in range(4)]
    for g in graphs:
        domains.clear()
        transitivity_reports(g, trivial_group(g.n), "s-arc", True, [4])
        # the walk steps the representatives (every vertex) level by level
        assert domains == [
            s_arcs_from(g, v, i) for i in range(1, 5) for v in range(g.n)
        ]


@pytest.mark.parametrize("predicate", [
    is_arc_transitive, is_locally_arc_transitive, is_distance_transitive, is_locally_distance_transitive,
    lambda g, G: is_s_arc_transitive(g, G, 1), lambda g, G: is_locally_s_arc_transitive(g, G, 1),
    lambda g, G: is_s_distance_transitive(g, G, 1), lambda g, G: is_locally_s_distance_transitive(g, G, 1),
])
def test_graph_without_vertices_rejected(predicate):
    from subsym.graphs import Graph

    with pytest.raises(GraphError):
        predicate(Graph(0, []), trivial_group(0))


class TestReportSerialization:
    def test_json_dict_shape(self):
        rep = is_s_arc_transitive(make_petersen(), automorphism_group(make_petersen()), 4)
        d = rep.to_json_dict()
        assert d["kind"] == "s-arc" and d["local"] is False and d["s"] == 4
        assert d["verdict"] is False
        assert isinstance(d["witness"]["first"], list)
        assert d["orbit_counts"]["4"] >= 2
