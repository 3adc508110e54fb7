import functools
import gc
import hashlib
import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from subsym import groups as groups_module
from subsym.autgrp import automorphism_group, subdivision_automorphism_group
from subsym.formats import read_generators
from subsym.graphs import (
    Graph,
    enumerate_s_arcs,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_hoffman_singleton,
    make_petersen,
    random_connected_graph,
)
from subsym.groups import (
    NotAnAutomorphismError,
    PermGroup,
    alternating_group,
    cycle_half_dihedral,
    cyclic_group,
    derived_subgroup,
    dihedral_group,
    equal_groups,
    induced_subdivision_action,
    normal_closure,
    orbit_partition,
    pair_image,
    pgammal_2_8,
    pgl_2_8,
    random_subgroups,
    stabilizer_edge,
    stabilizer_point,
    symmetric_group,
    trivial_group,
    validate_automorphisms,
    wreath_s2,
)
from subsym.perms import Perm, PermError
from subsym.theorems import is_k_transitive
from subsym.transforms import subdivide

from _oracles import brute_closure
from test_autgrp import _relabel

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


class TestConstruction:
    def test_trivial_group(self):
        G = trivial_group(5)
        assert G.order() == 1
        assert orbit_partition(G, [2], Perm.__call__)[0] == [[2]]

    def test_degree_mismatch(self):
        with pytest.raises(PermError):
            PermGroup(4, [Perm.identity(5)])

    def test_standard_orders(self):
        assert symmetric_group(5).order() == 120
        assert symmetric_group(2).order() == 2
        assert alternating_group(4).order() == 12
        assert alternating_group(5).order() == 60
        assert alternating_group(6).order() == 360
        assert alternating_group(9).order() == 181440
        assert dihedral_group(3).order() == 6
        assert dihedral_group(5).order() == 10
        assert dihedral_group(16).order() == 32
        assert cyclic_group(7).order() == 7
        assert wreath_s2(3).order() == 72
        assert wreath_s2(4).order() == 1152
        assert cycle_half_dihedral(6).order() == 6

    def test_dihedral_rejects_small(self):
        with pytest.raises(PermError):
            dihedral_group(2)


class TestChainAgainstBruteForce:
    def test_dihedral(self):
        for n in range(3, 13):
            G = dihedral_group(n)
            assert G.order() == len(brute_closure(G.generators, n)) == 2 * n

    def test_symmetric(self):
        import math

        for n in range(2, 7):
            G = symmetric_group(n)
            assert G.order() == len(brute_closure(G.generators, n)) == math.factorial(n)

    def test_pgammal(self):
        G = pgammal_2_8()
        assert G.order() == len(brute_closure(G.generators, 9)) == 1512

    def test_petersen_aut(self):
        G = automorphism_group(make_petersen())
        assert G.order() == len(brute_closure(G.generators, 10)) == 120

    def test_membership_via_sift(self):
        G = dihedral_group(6)
        elements = {Perm(p) for p in brute_closure(G.generators, 6)}
        for p in elements:
            assert p in G
        outsider = Perm.from_cycles(6, [(0, 1)])
        assert outsider not in elements
        assert outsider not in G


class TestOrbitsAndStabilizers:
    def test_orbit_examples(self):
        d10 = dihedral_group(5)
        assert sorted(orbit_partition(d10, [0], Perm.__call__)[0][0]) == [0, 1, 2, 3, 4]
        p = make_petersen()
        G = automorphism_group(p)
        two_arcs = enumerate_s_arcs(p, 2)
        assert len(two_arcs) == 60
        assert len(orbit_partition(G, [two_arcs[0]], Perm.apply_tuple)[0][0]) == 60

    def test_orbit_deterministic(self):
        G = symmetric_group(5)
        assert orbit_partition(G, [0], Perm.__call__) == orbit_partition(G, [0], Perm.__call__)

    def test_stabilizer_point_orders(self):
        assert stabilizer_point(symmetric_group(5), 0).order() == 24
        p = make_petersen()
        G = automorphism_group(p)
        assert stabilizer_point(G, 0).order() == 12

    def test_stabilizer_fixes_point(self):
        G = automorphism_group(make_petersen())
        Gv = stabilizer_point(G, 3)
        assert all(g.images[3] == 3 for g in Gv.generators)

    def test_orbit_stabilizer_identity(self):
        rng = random.Random(11)
        for G in [symmetric_group(5), dihedral_group(8), pgammal_2_8(), alternating_group(6)]:
            for _ in range(3):
                x = rng.randrange(G.degree)
                orb = orbit_partition(G, [x], Perm.__call__)[0][0]
                assert G.order() == len(orb) * stabilizer_point(G, x).order()

    def test_stabilizer_edge(self):
        p = make_petersen()
        G = automorphism_group(p)
        for e in p.edge_list[:3]:
            Ge = stabilizer_edge(G, e)
            assert Ge.order() == 8
            for g in Ge.generators:
                assert {g.images[e[0]], g.images[e[1]]} == set(e)

    def test_stabilizer_edge_trivial_group(self):
        G = trivial_group(4)
        assert stabilizer_edge(G, (0, 1)).order() == 1

    def test_hoffman_singleton_stabilizer_orders(self):
        h = make_hoffman_singleton()
        full = automorphism_group(h)
        half = derived_subgroup(full)
        assert half.order() == 126000
        # vertex stabilizers: order 2520 in the simple half, 5040 in the full group
        assert stabilizer_point(half, 0).order() == 2520
        assert stabilizer_point(full, 0).order() == 5040
        # edge stabilizer in the simple half has order 720
        assert stabilizer_edge(half, h.edge_list[0]).order() == 720

    def test_stabilizer_point_is_memoised(self):
        G = automorphism_group(make_petersen())
        assert stabilizer_point(G, 3) is stabilizer_point(G, 3)
        assert stabilizer_point(G, 3) is not stabilizer_point(G, 4)
        # edge stabilizers are memoised under the ordered pair
        assert stabilizer_edge(G, (0, 1)) is stabilizer_edge(G, (0, 1))
        assert stabilizer_edge(G, (1, 0)) is not stabilizer_edge(G, (0, 1))

    def test_point_orbits_are_cached_and_shared(self, chain_builds):
        sg = subdivide(make_petersen())
        G = induced_subdivision_action(automorphism_group(make_petersen()), sg)
        orbits = G.point_orbits()
        assert G.point_orbits() is orbits
        assert orbits == (tuple(range(10)), tuple(range(10, 25)))
        # a lifted group's stabilizers are lifts of the base group's, of
        # vertex 0 and of the edge (0, 7). The Aut search's chain, based at
        # [0, 7, ...], serves both, so no chain is built, and none on all
        # 25 points
        chain_builds.clear()  # the search's own chain

        def built():
            return [(H.degree, list(prefix)) for H, prefix in chain_builds]

        stabilizers = [stabilizer_point(G, orb[0]) for orb in orbits]
        assert built() == []
        assert [Gv.order() for Gv in stabilizers] == [12, 8]
        # the setwise edge stabilizer has no chain yet: its order builds one,
        # on the 10 base points
        assert built() == [(10, [])]
        assert all(stabilizer_point(G, orb[0]) is Gv for orb, Gv in zip(orbits, stabilizers))
        assert G.point_orbits() is orbits

    @pytest.mark.parametrize("G, e", [
        (symmetric_group(3), (0, 7)),
        (symmetric_group(3), (0, -1)),
        (trivial_group(3), (0, 9)),
    ])
    def test_stabilizer_edge_rejects_bad_points(self, G, e):
        with pytest.raises(PermError):
            stabilizer_edge(G, e)

    def test_edge_stabilizer_contains_pointwise_index_at_most_2(self):
        for G, e in [
            (automorphism_group(make_petersen()), (0, 9)),
            (symmetric_group(5), (1, 2)),
            (cyclic_group(6), (0, 1)),
        ]:
            Ge = stabilizer_edge(G, e)
            pointwise = stabilizer_point(stabilizer_point(G, e[0]), e[1])
            ratio = Ge.order() / pointwise.order()
            assert ratio in (1.0, 2.0)


class TestProjectiveGroups:
    def test_orders(self):
        assert pgl_2_8().order() == 504
        assert pgammal_2_8().order() == 1512

    def test_transitivity_degrees(self):
        G = pgammal_2_8()
        assert is_k_transitive(G, 3)
        assert not is_k_transitive(G, 4)
        H = pgl_2_8()
        assert is_k_transitive(H, 3)
        assert not is_k_transitive(H, 4)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=6).flatmap(
        lambda n: st.lists(st.permutations(range(n)), max_size=3).map(lambda gens: (n, gens))))
    def test_k_transitivity_matches_closure(self, case):
        import math

        degree, images = case
        G = PermGroup(degree, [Perm(p) for p in images])
        elements = brute_closure(G.generators, degree)
        for k in range(degree + 2):
            # the images of (0, ..., k-1) must be every k-tuple of distinct points
            expected = k <= degree and len({e[:k] for e in elements}) == math.perm(degree, k)
            assert is_k_transitive(G, k) == expected, k


class TestInducedActions:
    def test_edge_action_identity(self):
        g = make_complete(4)
        e = Perm.identity(4)
        assert all(pair_image(e, x) == x for x in g.edge_list)

    def test_edge_action_transitive(self):
        for g, G in [(make_cycle(5), dihedral_group(5)), (make_complete(4), symmetric_group(4))]:
            orbits, _ = orbit_partition(G, g.edge_list, pair_image)
            assert len(orbits) == 1 and sorted(orbits[0]) == list(g.edge_list)

    def test_rejects_non_automorphism(self):
        path = Graph(3, [(0, 1), (1, 2)])
        with pytest.raises(NotAnAutomorphismError) as exc:
            validate_automorphisms(path, cyclic_group(3))
        assert "generator 0" in str(exc.value)

    def test_subdivision_action_faithful(self):
        for g, G in [
            (make_cycle(5), dihedral_group(5)),
            (make_petersen(), automorphism_group(make_petersen())),
            (make_complete(4), alternating_group(4)),
        ]:
            sg = subdivide(g)
            Gs = induced_subdivision_action(G, sg)
            assert Gs.order() == G.order()
            assert Gs.degree == g.n + g.m

    def test_subdivision_action_lands_in_aut(self):
        g = make_cycle(5)
        sg = subdivide(g)
        Gs = induced_subdivision_action(dihedral_group(5), sg)
        from subsym.groups import is_graph_automorphism

        assert all(is_graph_automorphism(sg.graph, p) for p in Gs.generators)
        big = automorphism_group(sg.graph)
        assert all(p in big for p in Gs.generators)

    def test_validated_graphs_are_not_kept_alive(self):
        G = dihedral_group(6)
        g = make_cycle(6)
        validate_automorphisms(g, G)
        validate_automorphisms(make_cycle(6), G)  # an equal graph shares the entry
        assert len(G._validated_graphs) == 1
        del g
        gc.collect()
        assert len(G._validated_graphs) == 0

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["cycle5", "cycle6", "k4", "k33", "petersen", "random"]),
        st.integers(min_value=0, max_value=10**9),
    )
    def test_subdivision_action_is_faithful_homomorphism(self, name, seed):
        rng = random.Random(seed)
        g = {
            "cycle5": lambda: make_cycle(5),
            "cycle6": lambda: make_cycle(6),
            "k4": lambda: make_complete(4),
            "k33": lambda: make_complete_bipartite(3, 3),
            "petersen": make_petersen,
            "random": lambda: random_connected_graph(rng, rng.randint(4, 8)),
        }[name]()
        sg = subdivide(g)
        index = g.edge_index()
        H = rng.choice(random_subgroups(automorphism_group(g), 3, seed))
        Hs = induced_subdivision_action(H, sg)
        assert Hs.order() == H.order()
        for _ in range(5):
            x = Hs.random_element(rng)
            # V is invariant and x restricts on it to an element of H ...
            restricted = Perm(x.images[:g.n])
            assert restricted in H
            # ... and each E-vertex follows its edge
            for i, (u, v) in enumerate(sg.edge_of):
                a, b = restricted(u), restricted(v)
                assert x.images[g.n + i] == g.n + index[(a, b) if a < b else (b, a)]

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_action_axioms(self, seed):
        rng = random.Random(seed)
        g = make_petersen()
        G = automorphism_group(g)
        a = G.random_element(rng)
        b = G.random_element(rng)
        x = rng.choice(g.edge_list)
        assert pair_image(Perm.identity(10), x) == x
        assert pair_image(a * b, x) == pair_image(b, pair_image(a, x))
        assert pair_image(a, x) in g.edge_index()


def _check_chain_shape(chain) -> None:
    """Each level's transversal takes its base point to each orbit point
    it is keyed by, its inverses undo it, and the level's generators fix
    the earlier base points."""
    base = chain.base()
    for i, lvl in enumerate(chain.levels):
        assert lvl.transversal.keys() == lvl.transversal_inv.keys()
        for pt, u in lvl.transversal.items():
            assert u.images[lvl.point] == pt and lvl.transversal_inv[pt] == u.inverse()
        assert all(g.images[b] == b for g in lvl.gens for b in base[:i])
        assert lvl.gens_inv == [g.inverse() for g in lvl.gens]


def _check_against_scratch_chain(G: PermGroup, rng: random.Random) -> None:
    """Compare a lifted group with a StabilizerChain built from scratch on
    its generators: the order, the stabilizer of each orbit representative
    (order and point orbits), and membership of random elements and of
    non-members, in the group and in each of those stabilizers."""
    assert G._lift is not None
    plain = PermGroup(G.degree, G.generators)  # the same generators, no base group
    scratch = groups_module.StabilizerChain(plain)
    chain = G.chain()
    _check_chain_shape(chain)
    assert G.order() == chain.order() == scratch.order()
    # an element fixing every V-point fixes every E-point, so swapping two
    # E-points alone is never an element
    e1, e2 = sorted(G._lift[1].edge_at.values())[:2]
    outsider = Perm.from_cycles(G.degree, [(e1, e2)])
    for _ in range(5):
        p, q = G.random_element(rng), scratch.random_element(rng)
        assert scratch.contains(p) and chain.contains(q)
        assert not scratch.contains(p * outsider) and not chain.contains(p * outsider)
    for orb in G.point_orbits():
        x = orb[0]
        Gx, Px = stabilizer_point(G, x), stabilizer_point(plain, x)
        assert Gx._lift is not None and Px._lift is None
        _check_chain_shape(Gx.chain())
        assert Gx.order() == Gx.chain().order() == Px.order()
        assert Gx.point_orbits() == Px.point_orbits()
        for _ in range(3):
            p, q = Gx.random_element(rng), Px.random_element(rng)
            assert p in Px and q in Gx
            mover = G.random_element(rng)
            if mover.images[x] != x:
                assert mover not in Gx and mover not in Px


class TestLiftedGroups:
    """Lifted groups (the induced subdivision action, and Aut(S(Sigma))
    read off Sigma) against chains built from scratch on their generators."""

    @pytest.fixture(scope="class")
    def shosi(self):
        sg = subdivide(make_hoffman_singleton())
        return sg, read_generators(os.path.join(FIXTURES, "hoffman_singleton_aut.gens"))

    def test_petersen(self):
        g = make_petersen()
        _check_against_scratch_chain(induced_subdivision_action(automorphism_group(g), subdivide(g)),
                                     random.Random(1))

    def test_petersen_relabelled(self):
        # V and E interleaved in the labels, so the lift moves points around
        rng = random.Random(2)
        G, _ = subdivision_automorphism_group(_relabel(subdivide(make_petersen()).graph, rng))
        assert G.order() == 120
        _check_against_scratch_chain(G, rng)

    def test_k5_alternating(self):
        G = induced_subdivision_action(alternating_group(5), subdivide(make_complete(5)))
        assert G.order() == 60
        _check_against_scratch_chain(G, random.Random(3))

    def test_hoffman_singleton_fixture(self, shosi):
        sg, fixture = shosi
        _check_against_scratch_chain(induced_subdivision_action(fixture, sg), random.Random(4))

    def test_hoffman_singleton_aut(self, shosi):
        G, base = subdivision_automorphism_group(shosi[0].graph)
        assert base == make_hoffman_singleton() and G.order() == 252000
        _check_against_scratch_chain(G, random.Random(5))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10**9))
    def test_random_subgroups(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(3, 8))
        sg = subdivide(g)
        for H in random_subgroups(automorphism_group(g), 2, seed):
            _check_against_scratch_chain(induced_subdivision_action(H, sg), rng)
        lifted = subdivision_automorphism_group(_relabel(sg.graph, rng))
        if lifted is not None:  # Sigma has no valency-2 vertex
            _check_against_scratch_chain(lifted[0], rng)


_NAMED_GROUPS = {
    "symmetric": symmetric_group,
    "alternating": alternating_group,
    "dihedral": dihedral_group,
    "wreath": wreath_s2,
    "trivial": trivial_group,
    "cyclic": cyclic_group,
}


@st.composite
def _memo_cases(draw):
    """A group with nothing memoised, and up to 8 prefixes of 0-4 distinct points."""
    kind = draw(st.sampled_from(["aut", *_NAMED_GROUPS]))
    n = draw(st.integers(min_value=3, max_value=7))
    if kind == "aut":
        rng = random.Random(draw(st.integers(min_value=0, max_value=10**9)))
        pool = random_subgroups(automorphism_group(random_connected_graph(rng, n)), 3, rng.randrange(10**6))
        H = draw(st.sampled_from(pool))
    else:
        H = _NAMED_GROUPS[kind](n)
    G = PermGroup(H.degree, H.generators)
    points = st.integers(min_value=0, max_value=G.degree - 1)
    prefixes = draw(st.lists(
        st.lists(points, unique=True, max_size=min(4, G.degree)).map(tuple), min_size=1, max_size=8))
    return G, prefixes


class TestChainMemo:
    @settings(max_examples=80, deadline=None)
    @given(_memo_cases())
    def test_memoised_chain_is_the_one_the_prefix_builds(self, case):
        G, prefixes = case
        for prefix in prefixes:
            chain = groups_module._prefix_chain(G, prefix)
            assert _levels_digest(chain) == _levels_digest(groups_module.StabilizerChain(G, prefix))
            assert groups_module._prefix_chain(G, prefix) is chain
        assert len({prefix for prefix, _, _ in G._chains}) == len(G._chains)

    def test_longer_prefix_is_not_reused(self):
        G = symmetric_group(5)
        longer = groups_module._prefix_chain(G, (0, 2))
        shorter = groups_module._prefix_chain(G, (0,))
        # the chain based at [0, 2, ...] agrees with (0,) on its first point,
        # but the (0,) build takes its second base point by precedence
        assert longer.base()[:2] == [0, 2] and shorter.base()[:2] == [0, 1]
        assert _levels_digest(shorter) == _levels_digest(groups_module.StabilizerChain(G, (0,)))
        # the shorter chain serves every longer prefix its base agrees with
        assert groups_module._prefix_chain(G, (0, 1, 2)) is shorter
        assert groups_module._prefix_chain(G, (0, 2, 1)) is longer

    def test_given_and_lifted_chains_are_memoised(self, chain_builds):
        G = symmetric_group(5)
        Gv = stabilizer_point(G, 0)  # a chain tail passed in through _chain=
        [(_, _, built)] = G._chains
        [(prefix, base, tail)] = Gv._chains
        assert prefix == () and tail.levels == built.levels[1:]
        chain_builds.clear()
        assert Gv.chain() is tail and Gv.chain().order() == 24
        # the tail serves a stabilizer of G_v at its own first base point
        assert groups_module._prefix_chain(Gv, base[:1]) is tail and chain_builds == []
        # a lifted group's chain is built on its own points, like any other group's
        sg = subdivide(make_petersen())
        lifted = induced_subdivision_action(automorphism_group(make_petersen()), sg)
        chain = lifted.chain()
        assert chain.degree == 25 and chain.order() == 120
        assert [c for _, _, c in lifted._chains] == [chain] and lifted.chain() is chain

    def test_aut_group_reads_its_search_chain(self, chain_builds):
        G = automorphism_group(make_petersen())
        [(_, _, search_chain)] = G._chains
        chain_builds.clear()
        assert G.chain() is search_chain and G.generators[0] in G and G.order() == 120
        assert chain_builds == []

    @pytest.mark.parametrize("make", [
        lambda: automorphism_group(make_petersen()),
        lambda: automorphism_group(subdivide(make_complete(4)).graph),
        lambda: symmetric_group(6),
        lambda: wreath_s2(3),
    ], ids=["aut-petersen", "aut-subdivided-k4", "symmetric-6", "wreath-3"])
    def test_random_element_ignores_the_chains_a_group_holds(self, make):
        G = make()
        for v in (2, 1, 0):  # memoise point and edge stabilizer chains first
            stabilizer_point(G, v)
            stabilizer_edge(G, (v, v + 1))
        assert G._chains
        fresh = PermGroup(G.degree, G.generators)
        rng, fresh_rng = random.Random(11), random.Random(11)
        assert [G.random_element(rng) for _ in range(8)] == [fresh.random_element(fresh_rng) for _ in range(8)]


class TestSubgroups:
    def test_random_subgroups_contract(self):
        G = symmetric_group(5)
        subs = random_subgroups(G, 4, seed=17)
        assert subs[0].order() == 1
        assert subs[1] is G
        assert len(subs) == 6
        again = random_subgroups(G, 4, seed=17)
        assert [H.order() for H in subs] == [H.order() for H in again]
        for H in subs:
            assert G.order() % H.order() == 0
            assert all(p in G for p in H.generators)

    def test_random_subgroups_zero_count(self):
        G = dihedral_group(4)
        subs = random_subgroups(G, 0, seed=1)
        assert [H.order() for H in subs] == [1, 8]

    def test_derived_subgroups(self):
        assert derived_subgroup(symmetric_group(5)).order() == 60
        assert derived_subgroup(dihedral_group(5)).order() == 5
        assert derived_subgroup(alternating_group(4)).order() == 4  # V_4
        assert derived_subgroup(trivial_group(3)).order() == 1

    def test_normal_closure_is_normal(self):
        G = symmetric_group(4)
        N = normal_closure(G, [Perm.from_cycles(4, [(0, 1), (2, 3)])])
        assert N.order() == 4
        rng = random.Random(0)
        for _ in range(20):
            g = G.random_element(rng)
            n = N.random_element(rng)
            assert g.inverse() * n * g in N

    def test_equal_groups_ignores_generators(self):
        rot = cyclic_group(6).generators[0]
        rot2 = rot * rot
        assert equal_groups(cyclic_group(6), PermGroup(6, [rot.inverse()]))
        assert equal_groups(cyclic_group(6), PermGroup(6, [rot2, rot2 * rot]))
        assert not equal_groups(cyclic_group(6), PermGroup(6, [rot2]))
        # same order, different elements
        assert not equal_groups(PermGroup(4, [Perm.from_cycles(4, [(0, 1)])]),
                                PermGroup(4, [Perm.from_cycles(4, [(2, 3)])]))
        assert not equal_groups(trivial_group(3), trivial_group(4))
        assert equal_groups(trivial_group(3), PermGroup(3, [Perm.identity(3)]))

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=6).flatmap(lambda n: st.tuples(
        st.just(n),
        st.lists(st.permutations(range(n)), max_size=3),
        st.lists(st.permutations(range(n)), max_size=3),
        st.lists(st.lists(st.integers(min_value=0, max_value=2), max_size=3), max_size=3),
    )))
    def test_equal_groups_matches_closure(self, case):
        degree, h_images, g_images, words = case
        H = PermGroup(degree, [Perm(p) for p in h_images])
        letters = [Perm(p) for p in h_images] or [Perm.identity(degree)]
        # words in H's generators (the empty word is the identity): they
        # generate H itself under other generators, or a subgroup of it
        from_words = [
            functools.reduce(lambda a, b: a * b, (letters[i % len(letters)] for i in word), Perm.identity(degree))
            for word in words
        ]
        candidates = [
            PermGroup(degree, [Perm(p) for p in g_images]),
            PermGroup(degree, from_words),
            PermGroup(degree, from_words + list(reversed(letters))),
        ]
        elements = brute_closure(H.generators, degree)
        for G in candidates:
            expected = brute_closure(G.generators, degree) == elements
            assert equal_groups(H, G) == expected == equal_groups(G, H)


class TestConcurrency:
    def test_concurrent_first_queries_agree(self):
        import threading

        G = automorphism_group(make_hoffman_singleton())
        fresh = PermGroup(G.degree, G.generators)
        results = []

        def query():
            results.append(fresh.order())

        threads = [threading.Thread(target=query) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == [252000] * 8

    def test_concurrent_lifted_stabilizers_are_shared(self):
        import sys
        import threading

        sg = subdivide(make_hoffman_singleton())
        fixture = read_generators(os.path.join(FIXTURES, "hoffman_singleton_aut.gens"))
        G = induced_subdivision_action(fixture, sg)
        results = []

        def query():
            # a V-point, an E-point and the chain: each takes G's lock, then its base group's
            results.append((stabilizer_point(G, 0), stabilizer_point(G, 50), G.chain()))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=query) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(results) == 8
        assert all(all(a is b for a, b in zip(r, results[0])) for r in results)
        G0, G50, chain = results[0]
        assert (G0.order(), G50.order(), chain.order()) == (5040, 1440, 252000)

    def test_concurrent_memoised_chains_are_built_once(self, chain_builds):
        import sys
        import threading

        G = pgammal_2_8()
        G = PermGroup(G.degree, G.generators)  # nothing memoised yet
        calls = [
            ("point", 0), ("point", 4), ("edge", (0, 1)), ("edge", (4, 2)), ("edge", (1, 0)),
            ("k", 2), ("k", 3), ("k", 4), ("chain", None),
        ]
        results = []
        start = threading.Barrier(8)

        def query(seed):
            order = random.Random(seed).sample(calls, len(calls))
            out = {}
            start.wait(timeout=60)
            for kind, arg in order:
                if kind == "point":
                    out[kind, arg] = stabilizer_point(G, arg)
                elif kind == "edge":
                    out[kind, arg] = stabilizer_edge(G, arg)
                elif kind == "k":
                    out[kind, arg] = is_k_transitive(G, arg)
                else:
                    out[kind, arg] = G.chain()
            results.append(out)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=query, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(results) == 8
        first = results[0]
        assert all(r[key] is first[key] for r in results for key in first)
        assert [first["k", k] for k in (2, 3, 4)] == [True, True, False]
        built = [prefix for H, prefix in chain_builds if H is G]
        assert len(built) == len(set(built))  # each prefix chain built once
        assert first["chain", None].order() == 1512


class TestOrbitPartition:
    def test_partition_counts(self):
        G = cyclic_group(6)
        orbits, index = orbit_partition(G, list(range(6)), Perm.__call__)
        assert len(orbits) == 1
        half = cycle_half_dihedral(6)
        edges = make_cycle(6).edge_list
        orbs, _ = orbit_partition(half, edges, pair_image)
        assert len(orbs) == 2

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.lists(st.permutations(range(n)), max_size=3).map(lambda gens: (n, gens))))
    def test_orbit_routines_match_closure(self, case):
        degree, images = case
        G = PermGroup(degree, [Perm(p) for p in images])
        elements = brute_closure(G.generators, degree)
        assert G.order() == len(elements)
        expected = sorted({tuple(sorted({e[x] for e in elements})) for x in range(degree)})
        assert [tuple(o) for o in G.point_orbits()] == expected
        orbits, index = orbit_partition(G, range(degree), Perm.__call__)
        assert sorted(tuple(sorted(o)) for o in orbits) == expected
        for x in range(degree):
            orb = orbit_partition(G, [x], Perm.__call__)[0][0]
            assert orb[0] == x and sorted(orb) == sorted({e[x] for e in elements})
            assert {y for y in range(degree) if index[y] == index[x]} == set(orb)
        pair = (0, degree - 1)
        assert set(orbit_partition(G, [pair], Perm.apply_tuple)[0][0]) == {(e[0], e[degree - 1]) for e in elements}
        for x in range(degree):
            Gx = stabilizer_point(G, x)
            fixing = {e for e in elements if e[x] == x}
            assert brute_closure(Gx.generators, degree) == fixing and Gx.order() == len(fixing)
        if degree > 1:
            Ge = stabilizer_edge(G, pair)
            setwise = {e for e in elements if {e[0], e[degree - 1]} == set(pair)}
            assert brute_closure(Ge.generators, degree) == setwise and Ge.order() == len(setwise)


def _chain_digest(G: PermGroup) -> str:
    return _levels_digest(G.chain())


def _levels_digest(chain) -> str:
    record = {
        "base": chain.base(),
        "transversals": [[[pt, list(u.images)] for pt, u in lvl.transversal.items()] for lvl in chain.levels],
        "inverses": [[[pt, list(u.images)] for pt, u in lvl.transversal_inv.items()] for lvl in chain.levels],
        "gens": [[list(g.images) for g in lvl.gens] for lvl in chain.levels],
    }
    return hashlib.sha256(json.dumps(record).encode()).hexdigest()


class TestPinnedChainBytes:
    """Base points, transversals (points, images and inverses, in insertion
    order) and level generators of a few chains, so that a change in how a
    chain is built shows here. The sweep's ``random_subgroups`` draws only
    from chains of base-graph groups (Aut(g) and the dihedral groups), so
    ``tests/golden_verify.jsonl`` rests on how those are built, which the
    PGammaL(2,8) digest pins, and not on the subdivided chains.
    The PGammaL(2,8) and edge-stabilizer digests were computed before
    products became trusted and identity Schreier generators were skipped.
    The ``lifted`` and normal-closure digests start from generators the Aut
    search finds, so they are those of the search that resolves its levels
    deepest first. The ``lifted`` and ``fixture`` groups act on S(HoSi):
    their stabilizers are lifts of stabilizers on HoSi's 50 points, and each
    chain pinned here is built from the lifted generators on S(HoSi)'s 225.
    The ``lifted`` stabilizers at 0 and 50 lift HoSi's G_0 and the
    stabilizer of the edge (0, 1), whose generators are read off the chain
    the Aut search returns (base [0, 1, ...], a level's generators those
    found at its depth and below), not off a Schreier-Sims chain based
    there; their orders, 5040 and 1440, are unchanged."""

    @pytest.fixture(scope="class")
    def groups(self):
        sg = subdivide(make_hoffman_singleton())
        lifted, _ = subdivision_automorphism_group(sg.graph)
        fixture = read_generators(os.path.join(FIXTURES, "hoffman_singleton_aut.gens"))
        return {"lifted": lifted, "fixture": induced_subdivision_action(fixture, sg)}

    @pytest.mark.parametrize("name, point, digest", [
        pytest.param("lifted", None, "8ef0f5ae329c833bfbe94d2798e68f185f03e1472dd7c0f334b8fdccbe2cf7b8",
                     id="lifted-None"),
        pytest.param("lifted", 0, "557dd45e098bb2f937b9ee551782d8178e065e8c0f1c9eea65e7213d4393e8f5",
                     id="lifted-0"),
        pytest.param("lifted", 50, "145433130965a0c40accdc41112364c36677139c88e5b28b3ccb243f66cdcc25",
                     id="lifted-50"),
        pytest.param("fixture", None, "3f9aa43a69fdcc99ea7792abda2193a349d537b0505166e1cba57d5682cb62bc",
                     id="fixture-None"),
        pytest.param("fixture", 0, "3602dc7513c037ccd12485e78f7728d78eed29ccd226128971cc9cdf1f3e5f31",
                     id="fixture-0"),
        pytest.param("fixture", 50, "47f7de7a3383785f027792fad2f691edfd4e56c729ea5f093d1adbea55c0bfd5",
                     id="fixture-50"),
    ])
    def test_subdivided_hoffman_singleton(self, groups, name, point, digest):
        G = groups[name]
        if point is not None:
            G = stabilizer_point(G, point)
        assert _chain_digest(G) == digest

    def test_pgammal_2_8(self):
        assert _chain_digest(pgammal_2_8()) == "a414f550c661e91941d17e54b39620e5babb1dc4593ca04f1e976842e1bf40f3"

    def test_normal_closure_from_empty_generators(self):
        # normal_closure starts from a chain with no generators, so its base
        # points follow label order
        D = derived_subgroup(automorphism_group(make_petersen()))
        assert D.order() == 60
        assert _chain_digest(D) == "2da3d3c7812227634bcacee8374cb62d147b27daaa23075ee828f308bf5c5286"

    def test_stabilizer_edge_levels(self, groups, chain_builds):
        # a fresh group with the fixture's generators: the class-scoped one
        # may already hold this edge stabilizer
        G = groups["fixture"]
        H = PermGroup(G.degree, G.generators)
        Ge = stabilizer_edge(H, (0, 50))
        assert len(chain_builds) == 1 and Ge.order() == 720
        [(_, _, built)] = H._chains
        assert _levels_digest(built) == "ed7d0b29d257078957eb308ea73e6508d6adb80406394693b90575ecd3b88075"
        gens = json.dumps([list(g.images) for g in Ge.generators]).encode()
        assert hashlib.sha256(gens).hexdigest() == "29e998fcaeb3311831b8e7d8f696deab5320713b9dbf7b8654917a4b41537c94"
