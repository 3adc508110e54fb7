import itertools

import pytest

from subsym import groups as groups_module
from subsym import theorems
from subsym.autgrp import automorphism_group
from subsym.graphs import (
    GraphError,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_petersen,
)
from subsym.groups import (
    NotAnAutomorphismError,
    PermGroup,
    alternating_group,
    cycle_half_dihedral,
    cyclic_group,
    dihedral_group,
    pgammal_2_8,
    pgl_2_8,
    random_subgroups,
    symmetric_group,
    trivial_group,
    validate_automorphisms,
    wreath_s2,
)
from subsym.perms import Perm
from subsym.theorems import (
    CONFIRMED,
    REFUTED,
    SKIPPED,
    CorpusConfig,
    check_bipartite_conditions,
    check_classification_row,
    check_distance_formula,
    check_edge_stabilizer_conditions,
    check_girth5_three_arc,
    check_girth_bound,
    check_known_exception,
    check_large_s_cycles,
    check_local_arc_equivalence,
    check_local_distance_equivalence,
    check_reconstruction,
    check_small_s_equivalences,
    run_corpus,
    summarize,
    _s3_times_s3,
)
from subsym.transforms import subdivide

from _oracles import brute_bipartite_conditions, brute_closure


class TestLocalArcEquivalence:
    def test_petersen_true_side(self):
        p = make_petersen()
        G = automorphism_group(p)
        oc = check_local_arc_equivalence(p, G, 5)
        assert oc.status == CONFIRMED and oc.details["subdivision_side"]

    def test_petersen_false_side(self):
        p = make_petersen()
        G = automorphism_group(p)
        oc = check_local_arc_equivalence(p, G, 7)
        assert oc.status == CONFIRMED and not oc.details["subdivision_side"]

    def test_trivial_group_both_false(self):
        g = make_cycle(5)
        oc = check_local_arc_equivalence(g, trivial_group(5), 1)
        assert oc.status == CONFIRMED
        assert not oc.details["subdivision_side"] and not oc.details["base_side"]

    def test_single_edge_even_s_skipped(self):
        oc = check_local_arc_equivalence(make_complete(2), symmetric_group(2), 2)
        assert oc.status == SKIPPED

    def test_single_edge_odd_s_confirmed(self):
        for s in (1, 3):
            oc = check_local_arc_equivalence(make_complete(2), symmetric_group(2), s)
            assert oc.status == CONFIRMED


class TestLocalDistanceEquivalence:
    def test_k33(self):
        oc = check_local_distance_equivalence(make_complete_bipartite(3, 3), wreath_s2(3), 3)
        assert oc.status == CONFIRMED and oc.details["subdivision_side"]

    def test_c8_full_dihedral(self):
        oc = check_local_distance_equivalence(make_cycle(8), dihedral_group(8), 7)
        assert oc.status == CONFIRMED and oc.details["subdivision_side"]

    def test_c8_rotations_only(self):
        oc = check_local_distance_equivalence(make_cycle(8), cyclic_group(8), 1)
        assert oc.status == CONFIRMED
        assert not oc.details["subdivision_side"] and not oc.details["base_side"]

    def test_out_of_range_skipped(self):
        oc = check_local_distance_equivalence(make_complete(4), symmetric_group(4), 2)
        assert oc.status == SKIPPED


class TestSmallSEquivalences:
    def test_k4_groups(self):
        assert check_small_s_equivalences(make_complete(4), symmetric_group(4)).status == CONFIRMED
        oc = check_small_s_equivalences(make_complete(4), alternating_group(4))
        assert oc.status == CONFIRMED and not oc.details["base2arc"]

    def test_c6(self):
        oc = check_small_s_equivalences(make_cycle(6), dihedral_group(6))
        assert oc.status == CONFIRMED and oc.details["base2arc"]

    def test_single_edge_skipped(self):
        assert check_small_s_equivalences(make_complete(2), symmetric_group(2)).status == SKIPPED


class TestEdgeStabilizerConditions:
    def test_half_dihedral_exceptional_case(self):
        oc = check_edge_stabilizer_conditions(make_cycle(6), cycle_half_dihedral(6))
        assert oc.status == CONFIRMED
        assert oc.details["left_b"] and oc.details["exceptional_cycle"] and not oc.details["two_arc"]

    def test_petersen_both_sides(self):
        oc = check_edge_stabilizer_conditions(make_petersen(), automorphism_group(make_petersen()))
        assert oc.status == CONFIRMED and oc.details["two_arc"]

    def test_unbalanced_bipartite_left_false(self):
        oc = check_edge_stabilizer_conditions(make_complete_bipartite(2, 3), _s2_x_s3())
        assert oc.status == CONFIRMED
        assert not oc.details["endpoint_transitive"] and not oc.details["two_arc"]


def _s2_x_s3():
    from subsym.groups import PermGroup
    from subsym.perms import Perm

    return PermGroup(5, [
        Perm.from_cycles(5, [(0, 1)]),
        Perm.from_cycles(5, [(2, 3)]),
        Perm.from_cycles(5, [(2, 3, 4)]),
    ])


class TestGirthChecks:
    def test_girth_bound_with_true_premise(self):
        oc = check_girth_bound(make_complete_bipartite(3, 3), wreath_s2(3), 2)
        assert oc.status == CONFIRMED and oc.details["premise"]

    def test_girth_bound_vacuous(self):
        oc = check_girth_bound(make_complete_bipartite(3, 3), _s3_times_s3(), 2)
        assert oc.status == CONFIRMED and not oc.details["premise"]

    def test_girth_bound_rejects_odd_s(self):
        assert check_girth_bound(make_cycle(8), dihedral_group(8), 3).status == SKIPPED

    def test_girth5_instances(self):
        assert check_girth5_three_arc(make_petersen(), automorphism_group(make_petersen())).status == CONFIRMED
        assert check_girth5_three_arc(make_cycle(7), dihedral_group(7)).status == CONFIRMED
        assert check_girth5_three_arc(make_complete(4), symmetric_group(4)).status == SKIPPED

    def test_girth5_hoffman_singleton(self):
        from subsym.graphs import make_hoffman_singleton

        h = make_hoffman_singleton()
        oc = check_girth5_three_arc(h, automorphism_group(h))
        assert oc.status == CONFIRMED
        assert oc.details["premise"] and oc.details["three_arc"]


class TestStructuralChecks:
    def test_distance_formula_named(self):
        for g in [make_complete(4), make_cycle(9), make_petersen(), make_complete_bipartite(2, 3)]:
            oc = check_distance_formula(g)
            assert oc.status == CONFIRMED and oc.details["mismatches"] == 0
            # every ordered pair of S(g)'s vertices, itself with itself included
            assert oc.details["pairs"] == (g.n + g.m) ** 2

    def test_distance_formula_counts_mismatched_ordered_pairs(self, monkeypatch):
        g = make_petersen()
        sg = subdivide(g)
        spheres = [list(row) for row in sg.graph.spheres()]
        # claim V-vertex 0 and its first edge point x at distance 2, not 1,
        # in both rows; the eccentricities, and so delta, do not move
        assert g.edge_list[0][0] == 0
        x = g.n
        for a, b in ((0, x), (x, 0)):
            spheres[a][1] ^= 1 << b
            spheres[a][2] |= 1 << b
        monkeypatch.setattr(sg.graph, "_spheres", tuple(map(tuple, spheres)))
        oc = check_distance_formula(g)
        assert oc.status == REFUTED
        assert oc.details["mismatches"] == 2 and oc.details["pairs"] == 25 ** 2

    def test_reconstruction_named(self):
        for g in [make_cycle(5), make_petersen(), make_complete(2)]:
            assert check_reconstruction(g).status == CONFIRMED

    def test_reconstruction_component_sizes(self):
        oc = check_reconstruction(make_petersen())
        assert sorted(oc.details["component_sizes"]) == [10, 15]


class TestClassificationRows:
    def test_default_rows(self):
        for row in ("K2", "K3", "C5", "P"):
            assert check_classification_row(row).status == CONFIRMED

    def test_kn_rows(self):
        assert check_classification_row("Kn", symmetric_group(7), 7).status == CONFIRMED
        assert check_classification_row("Kn", alternating_group(7), 7).status == CONFIRMED
        assert check_classification_row("Kn", pgammal_2_8(), 9).status == CONFIRMED
        oc = check_classification_row("Kn", pgl_2_8(), 9)
        assert oc.status == CONFIRMED and oc.details["expected_s_max"] == 3

    def test_knn_rows(self):
        for n in (2, 3):
            assert check_classification_row("Knn", wreath_s2(n), n).status == CONFIRMED

    def test_kn_row_reuses_the_group_chain(self, chain_builds):
        # G.order()'s chain serves every stabilizer whose prefix its base
        # starts with, and the k-transitivity tests read it as it is
        assert check_classification_row("Kn", symmetric_group(9), 9).status == CONFIRMED
        assert len(chain_builds) == 1

    def test_heavy_rows_search_aut_hosi_twice(self, monkeypatch):
        # once for the full row and once for its derived subgroup; the derived
        # row's _contains_psu_3_5 never reads Aut(HoSi), so it builds none
        search = theorems.automorphism_group
        searched = []
        monkeypatch.setattr(theorems, "automorphism_group", lambda g: searched.append(g.n) or search(g))
        outcomes = run_corpus(CorpusConfig(sections=("rows", "hoffman-singleton")))
        assert summarize(outcomes)[REFUTED] == 0
        assert searched.count(50) == 2

    def test_hoffman_singleton_section_runs_the_two_hosi_rows(self):
        outcomes = run_corpus(CorpusConfig(sections=("hoffman-singleton",)))
        assert [(o.name, o.instance, o.status) for o in outcomes] == [
            ("classification-row", f"row=HoSi |G|={order}", CONFIRMED) for order in (252000, 126000)
        ]
        assert "hoffman-singleton" not in theorems.DEFAULT_SECTIONS

    def test_published_table_fails_on_k5_with_a5(self):
        # The machine-found counterexample: the published table predicts the
        # alternating group fails at s=4 on the subdivided K_5, but every
        # sphere condition actually holds (see check_known_exception).
        oc = check_classification_row("Kn", alternating_group(5), 5)
        assert oc.status == REFUTED
        assert oc.details["expected_s_max"] == 3
        assert oc.details["verdicts"][4] is True

    @pytest.mark.parametrize("row", ["P", "K2", "C5"])
    def test_a_row_without_n_rejects_one(self, row):
        with pytest.raises(GraphError, match=f"row {row} takes no n, got n=7"):
            check_classification_row(row, None, 7)

    def test_known_exception_reproduces(self):
        oc = check_known_exception()
        assert oc.status == CONFIRMED
        assert oc.details["verdicts"] == {1: True, 2: True, 3: True, 4: True}
        assert not oc.details["four_transitive"]


class TestGroupDegree:
    @pytest.mark.parametrize("G", [trivial_group(3), symmetric_group(3)], ids=["no-generators", "S_3"])
    def test_a_group_on_other_points_is_rejected(self, G):
        # a group with no generators passes every adjacency check, so only
        # its degree tells that it does not act on the graph's vertices
        k5 = make_complete(5)
        calls = (
            lambda: validate_automorphisms(k5, G),
            lambda: check_classification_row("Kn", G, 5),
            lambda: check_edge_stabilizer_conditions(k5, G),
        )
        for call in calls:
            with pytest.raises(GraphError, match="group degree 3 != vertex count 5"):
                call()


class TestBipartiteConditions:
    def test_wreath_cases(self):
        for n in (2, 3):
            oc = check_bipartite_conditions(n, wreath_s2(n))
            assert oc.status == CONFIRMED and oc.details["local_4_distance"]

    def test_no_swap_case(self):
        oc = check_bipartite_conditions(3, _s3_times_s3())
        assert oc.status == CONFIRMED
        assert not oc.details["iii"] and not oc.details["local_4_distance"]

    def test_rejects_n_below_the_knn_row(self):
        # K_{1,1} is a single edge; the Knn row starts at n = 2
        with pytest.raises(GraphError, match=r"K_\{n,n\} needs n >= 2, got n=1"):
            check_bipartite_conditions(1, wreath_s2(1))

    def test_rejects_a_group_that_does_not_preserve_the_graph(self):
        with pytest.raises(NotAnAutomorphismError):
            check_bipartite_conditions(2, PermGroup(4, [Perm.from_cycles(4, [(1, 2)])]))

    def test_one_check_per_orbit(self, chain_builds):
        # wreath_s2(4) is transitive on vertices and on edges: one G_0 and one
        # edge stabilizer, against 4 and 16 at every u1 and every edge. The
        # one chain built is G's own, based at 0 then 4; G_0 and the
        # stabilizer of the edge (0, 4) are both read off it
        G = wreath_s2(4)
        assert check_bipartite_conditions(4, G).status == CONFIRMED
        assert chain_builds == [(G, ())]

    def test_conditions_match_every_vertex_and_edge(self):
        diagonal = PermGroup(6, [  # S_3 acting on both sides at once, and the side swap
            Perm.from_cycles(6, [(0, 1), (3, 4)]),
            Perm.from_cycles(6, [(0, 1, 2), (3, 4, 5)]),
            wreath_s2(3).generators[0],
        ])
        cases = [(n, wreath_s2(n)) for n in (2, 3, 4)] + [(3, _s3_times_s3()), (3, diagonal)]
        cases += [(3, H) for seed in range(6) for H in random_subgroups(wreath_s2(3), 6, seed)]
        seen = set()
        for n, G in cases:
            expected = brute_bipartite_conditions(n, brute_closure(G.generators, 2 * n))
            assert theorems._bipartite_conditions(make_complete_bipartite(n, n), G) == expected
            seen.add(tuple(expected.values()))
        # all hold; (iii) alone fails; (ii) fails with (i) holding (the diagonal
        # group is 2-transitive on each side, but G_0 has order 2 on 6 pairs)
        assert {(True, True, True), (True, True, False), (True, False, False), (False, False, False)} <= seen


def _brute_dihedral_classes(n):
    """The conjugacy classes of subgroups of the dihedral group on n points,
    each a frozenset of subgroups given as frozensets of image tuples, and
    the group's elements: every subgroup of D_n is generated by <= 2
    elements, so closing each pair of elements finds all of them."""
    elements = brute_closure(dihedral_group(n).generators, n)
    subgroups = {frozenset(brute_closure([Perm(a), Perm(b)], n)) for a in elements for b in elements}

    def conjugate(sub, g):
        inv = tuple(sorted(range(n), key=g.__getitem__))
        return frozenset(tuple(g[x[inv[i]]] for i in range(n)) for x in sub)

    return {frozenset(conjugate(sub, g) for g in elements) for sub in subgroups}, frozenset(elements)


class TestLargeSCycles:
    def test_even_and_odd(self):
        oc16 = check_large_s_cycles(16)
        assert oc16.status == CONFIRMED and oc16.details["positives"] == {16: True}
        assert len(oc16.details["negatives"]) == 13
        oc17 = check_large_s_cycles(17)
        assert oc17.status == CONFIRMED and oc17.details["positives"] == {17: True, 16: True}
        assert len(oc17.details["negatives"]) == 3

    def test_equal_subgroups_evaluated_once(self, monkeypatch):
        # D_19 has three proper classes, the trivial group, a reflection and
        # the rotations; each is lifted and evaluated once, after D_19 itself
        induce = theorems.induced_subdivision_action
        lifted = []
        monkeypatch.setattr(theorems, "induced_subdivision_action", lambda G, sg: lifted.append(G) or induce(G, sg))
        oc = check_large_s_cycles(19)
        assert [G.order() for G in lifted] == [38, 1, 2, 19]
        assert oc.status == CONFIRMED
        assert oc.details == {
            "positives": {19: True, 18: True},
            "negatives": {label: {19: False, 18: False} for label in ("C_1", "D_1", "C_19")},
        }

    def test_one_subgroup_per_proper_class(self):
        for n in range(3, 21):
            classes, full = _brute_dihedral_classes(n)
            proper = {cls for cls in classes if full not in cls}
            found = [
                next(cls for cls in classes if frozenset(brute_closure(H.generators, n)) in cls)
                for H in theorems._proper_dihedral_classes(n).values()
            ]
            assert len(found) == len(set(found)) and set(found) == proper, n

    def test_class_counts(self):
        counts = {n: len(theorems._proper_dihedral_classes(n)) for n in range(16, 20)}
        assert counts == {16: 13, 17: 3, 18: 14, 19: 3}

    def test_records_do_not_depend_on_the_seed(self):
        def records(seed):
            outcomes = run_corpus(CorpusConfig(seed=seed, sections=("large-cycles",)))
            return [oc.to_json_dict() for oc in outcomes]

        assert records(1729) == records(4099)


class TestRunCorpus:
    def test_empty_sections_empty_list(self):
        assert run_corpus(CorpusConfig(sections=())) == []

    def test_default_corpus_zero_refuted(self):
        outcomes = run_corpus(CorpusConfig())
        counts = summarize(outcomes)
        assert counts[REFUTED] == 0
        assert counts[CONFIRMED] > 50

    def test_deterministic_given_seed(self):
        cfg = CorpusConfig(seed=99)
        a = run_corpus(cfg)
        b = run_corpus(cfg)
        assert [(o.name, o.instance, o.status) for o in a] == [
            (o.name, o.instance, o.status) for o in b
        ]

    def test_unknown_section_raises(self):
        with pytest.raises(GraphError, match="unknown section 'rowz'"):
            run_corpus(CorpusConfig(sections=("rows", "rowz")))

    @pytest.mark.parametrize("values, message", [
        ({"budget_seconds": -1.0}, "budget_seconds must be >= 0, got -1.0"),
        ({"budget_seconds": float("nan")}, "budget_seconds must be >= 0, got nan"),
        ({"sections": ("hoffman_singleton",)}, "unknown section 'hoffman_singleton'"),
    ])
    def test_rejects_what_a_config_file_may_not_say(self, values, message):
        # the same check as CorpusConfig.from_file, before any check runs
        with pytest.raises(GraphError) as err:
            run_corpus(CorpusConfig(**values))
        assert str(err.value) == f"CorpusConfig: {message}"

    def test_budget_exhaustion_reports_skips(self):
        outcomes = run_corpus(CorpusConfig(budget_seconds=0.0))
        counts = summarize(outcomes)
        assert counts[SKIPPED] == len(outcomes)
        assert all(o.details == {"reason": "budget exhausted", "budget_seconds": 0.0} for o in outcomes)

    def test_budget_exhausted_mid_run(self, monkeypatch):
        # a clock that advances one second per reading: the start, then one
        # reading per check, its budget test
        full = run_corpus(CorpusConfig(sections=("random",)))
        ticks = itertools.count()
        monkeypatch.setattr(theorems.time, "monotonic", lambda: float(next(ticks)))
        outcomes = run_corpus(CorpusConfig(sections=("random",), budget_seconds=3))
        # graph 0 runs its three checks (2 outcomes + its equivalence sweep),
        # graphs 1-23 skip theirs, the equivalences as one record per graph
        real = [o for o in outcomes if o.status != SKIPPED]
        skipped = outcomes[len(real):]
        assert real == full[:len(real)] and all(o.status == CONFIRMED for o in real)
        assert [(o.name, o.instance.split("(", 1)[0]) for o in skipped] == [
            (name, f"random#{i}") for i in range(1, 24)
            for name in ("distance-formula", "reconstruction", "equivalence-sweep")
        ]
        assert all(o.details == {"reason": "budget exhausted", "budget_seconds": 3} for o in skipped)

    @pytest.mark.parametrize("budget", [0.0, 3])
    def test_budget_skips_name_instances_of_the_full_run(self, monkeypatch, budget):
        # each graph's subgroup seed is drawn whether its sweep runs or not,
        # so a skip names a graph the unbudgeted run builds under that name
        # (its sweep outcomes lead their instance with the graph's)
        full = {o.instance.split(" ")[0] for o in run_corpus(CorpusConfig(sections=("random",)))}
        ticks = itertools.count()
        monkeypatch.setattr(theorems.time, "monotonic", lambda: float(next(ticks)))
        outcomes = run_corpus(CorpusConfig(sections=("random",), budget_seconds=budget))
        skipped = [o.instance for o in outcomes if o.status == SKIPPED]
        assert skipped and set(skipped) <= full

    def test_sections_are_independent(self):
        def records(outcomes):
            return [o.to_json_dict() for o in outcomes]

        full = records(run_corpus(CorpusConfig()))
        parts = [records(run_corpus(CorpusConfig(sections=(name,)))) for name in theorems.DEFAULT_SECTIONS]
        assert all(parts) and sum(parts, []) == full

    def test_edge_stabilizers_per_default_run(self, monkeypatch):
        calls = []
        edge = groups_module.stabilizer_edge

        def counting(G, e):
            calls.append((G, e))
            return edge(G, e)

        monkeypatch.setattr(groups_module, "stabilizer_edge", counting)
        monkeypatch.setattr(theorems, "stabilizer_edge", counting)
        assert summarize(run_corpus(CorpusConfig()))[REFUTED] == 0
        assert len(calls) <= 76

    def test_random_sweep_lifts_each_graph_once(self, monkeypatch):
        subdivide = theorems.subdivide
        lifted = []

        def counting(g):
            lifted.append(subdivide(g))
            return lifted[-1]

        monkeypatch.setattr(theorems, "subdivide", counting)
        sample = theorems.random_subgroups
        counts = []
        for samples in (1, 8):
            lifted.clear()
            monkeypatch.setattr(theorems, "random_subgroups", lambda G, _, seed: sample(G, samples, seed))
            outcomes = run_corpus(CorpusConfig(sections=("random",)))
            assert summarize(outcomes)[REFUTED] == 0
            counts.append(len({id(sg.graph) for sg in lifted}))
        # the distance formula, the reconstruction and the equivalence sweep
        # share one S(g) of each random graph, however many groups are sampled
        assert counts == [24, 24]

    def test_random_sweep_evaluates_each_distinct_group_once(self, monkeypatch):
        make, induce, once = theorems.random_connected_graph, theorems.induced_subdivision_action, theorems._once_per_group
        graphs, lifted, groups = [], [], []  # groups: (group, whether its verdicts were reused)

        def recording(evaluated, G, evaluate):
            before = len(evaluated)
            value = once(evaluated, G, evaluate)
            groups.append((G, len(evaluated) == before))
            return value

        monkeypatch.setattr(theorems, "random_connected_graph", lambda rng, n: graphs.append(make(rng, n)) or graphs[-1])
        monkeypatch.setattr(theorems, "induced_subdivision_action", lambda G, sg: lifted.append(G) or induce(G, sg))
        monkeypatch.setattr(theorems, "_once_per_group", recording)
        outcomes = run_corpus(CorpusConfig(sections=("random",)))
        # 184 (graph, group) pairs at seed 1729 hold 68 distinct groups
        assert len(groups) == 184 and len(lifted) == 68
        assert sum(reused for _, reused in groups) == 116
        by_label: dict[str, list] = {}
        for oc in outcomes:
            if oc.name in (theorems.ARC_EQUIVALENCE, theorems.DISTANCE_EQUIVALENCE):
                by_label.setdefault(oc.instance.rsplit(" s=", 1)[0], []).append(oc)
        assert len(by_label) == len(groups)
        monkeypatch.setattr(theorems, "induced_subdivision_action", induce)
        s_values = range(1, theorems._S_MAX + 1)
        for (label, got), (G, reused) in zip(by_label.items(), groups):
            g = graphs[int(label.split("#", 1)[1].split("(", 1)[0])]
            assert label.endswith(f"(|G|={G.order()})")
            if reused:
                distance_s = range(1, min(theorems._S_MAX, 2 * g.diameter() - 1) + 1)
                verdicts = theorems._equivalence_verdicts(g, G, s_values, distance_s)
                assert got == theorems._equivalence_outcomes(verdicts, s_values, distance_s, label)
