"""Defense-in-depth checks of the core engines against independent routes:
a naive all-vertices/all-elements evaluation of the local predicates,
a brute force of the K_5/A_5 counterexample to the published classification
table, sympy's permutation-group machinery for chain orders, and networkx's
girth, diameter, connected components, isomorphism test and VF2
automorphism counts."""

import math
import random

import pytest
from hypothesis import given, settings

from subsym.autgrp import automorphism_group, is_isomorphic
from subsym.graphs import (
    Graph,
    girth,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_hoffman_singleton,
    make_petersen,
    random_connected_graph,
)
from subsym.groups import random_subgroups
from subsym.perms import Perm
from subsym.symmetry import (
    is_locally_s_arc_transitive,
    is_locally_s_distance_transitive,
)
from subsym.transforms import (
    MalformedSubdivisionError,
    reconstruct_from_ambient,
    split_components,
    subdivide,
)
from subsym.groups import induced_subdivision_action

from _oracles import brute_arcs, brute_closure, brute_distances
from test_graphs import random_graph_strategy


def naive_locally_distance_transitive(g, elements, s):
    """Literal definition: for EVERY vertex, the stabilizer (filtered from the
    full element list) is transitive on every distance-i sphere, i <= s; the
    level-s sphere is nonempty for some vertex."""
    some_nonempty = False
    for v in range(g.n):
        dist = brute_distances(g, v)
        stab = [p for p in elements if p[v] == v]
        for i in range(1, s + 1):
            sphere = sorted(w for w in range(g.n) if dist.get(w) == i)
            if not sphere:
                continue
            if i == s:
                some_nonempty = True
            orb = {sphere[0]}
            frontier = [sphere[0]]
            while frontier:
                x = frontier.pop()
                for p in stab:
                    y = p[x]
                    if y not in orb:
                        orb.add(y)
                        frontier.append(y)
            if orb != set(sphere):
                return False
    return some_nonempty


def naive_locally_arc_transitive(g, elements, s):
    some_nonempty = False
    for v in range(g.n):
        stab = [p for p in elements if p[v] == v]
        for i in range(1, s + 1):
            arcs = [a for a in brute_arcs(g, i) if a[0] == v]
            if not arcs:
                continue
            if i == s:
                some_nonempty = True
            orb = {arcs[0]}
            frontier = [arcs[0]]
            while frontier:
                x = frontier.pop()
                for p in stab:
                    y = tuple(p[j] for j in x)
                    if y not in orb:
                        orb.add(y)
                        frontier.append(y)
            if orb != set(arcs):
                return False
    return some_nonempty


class TestAgainstNaiveDefinitions:
    def test_local_predicates_match_naive_on_random_instances(self):
        rng = random.Random(777)
        checked = 0
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 6))
            aut = automorphism_group(g)
            groups = [aut] + random_subgroups(aut, 2, rng.randrange(2**30))[2:]
            d = g.diameter()
            for G in groups:
                if G.order() > 5000:
                    continue
                elements = list(brute_closure(G.generators, g.n))
                for s in range(1, min(3, d) + 1):
                    fast = is_locally_s_distance_transitive(g, G, s).verdict
                    slow = naive_locally_distance_transitive(g, elements, s)
                    assert fast == slow, (g.edge_list, G.generators, s)
                    checked += 1
                for s in (1, 2):
                    fast = is_locally_s_arc_transitive(g, G, s).verdict
                    slow = naive_locally_arc_transitive(g, elements, s)
                    assert fast == slow, (g.edge_list, G.generators, s)
                    checked += 1
        assert checked > 40

    def test_subdivided_instances_match_naive(self):
        for g, G in [
            (make_complete(4), automorphism_group(make_complete(4))),
            (make_complete_bipartite(2, 2), automorphism_group(make_complete_bipartite(2, 2))),
            (make_cycle(5), automorphism_group(make_cycle(5))),
        ]:
            sg = subdivide(g)
            Gs = induced_subdivision_action(G, sg)
            elements = list(brute_closure(Gs.generators, sg.graph.n))
            d = sg.graph.diameter()
            for s in range(1, d + 1):
                fast = is_locally_s_distance_transitive(sg.graph, Gs, s).verdict
                slow = naive_locally_distance_transitive(sg.graph, elements, s)
                assert fast == slow


def lifted_complete_closure(n, generators):
    """Every element of the group generated on the n points of K_n, acting on
    the vertices of S(K_n): points keep their labels and each edge vertex goes
    to the edge vertex whose two neighbours are the images of its own."""
    sg = subdivide(make_complete(n)).graph
    ends = {w: frozenset(sg.adjacency[w]) for w in range(n, sg.n)}
    assert all(len(e) == 2 and max(e) < n for e in ends.values())
    edge_vertex = {e: w for w, e in ends.items()}
    elements = []
    for p in brute_closure(generators, n):
        lifted = list(p) + [edge_vertex[frozenset(p[a] for a in ends[w])] for w in range(n, sg.n)]
        elements.append(tuple(lifted))
    return sg, elements


class TestK5A5CounterexampleByBruteForce:
    """The table gives s_max = 3 for K_5 with A_5; every sphere up to i = 4 is
    in fact one orbit of the vertex stabilizer. Only brute_closure and
    brute_distances are used."""

    def test_a5_is_transitive_on_every_sphere_to_four(self):
        sg, elements = lifted_complete_closure(5, [Perm([1, 2, 0, 3, 4]), Perm([1, 2, 3, 4, 0])])
        assert len(elements) == 60
        # True also requires Gamma_4 to be non-empty: the 3 edges disjoint
        # from an edge vertex
        assert naive_locally_distance_transitive(sg, elements, 4)

    def test_s5_control_is_transitive_on_every_sphere(self):
        sg, elements = lifted_complete_closure(5, [Perm([1, 0, 2, 3, 4]), Perm([1, 2, 3, 4, 0])])
        assert len(elements) == 120
        assert naive_locally_distance_transitive(sg, elements, 4)

    def test_a4_on_k4_control_fails_at_sphere_two(self):
        # the setwise stabilizer of the edge {0, 1} is {1, (0 1)(2 3)}, which
        # splits the four edges meeting it into two orbits
        sg, elements = lifted_complete_closure(4, [Perm([1, 2, 0, 3]), Perm([1, 0, 3, 2])])
        assert len(elements) == 12
        assert naive_locally_distance_transitive(sg, elements, 1)
        assert not naive_locally_distance_transitive(sg, elements, 2)


class TestAgainstSympy:
    def test_chain_orders_match_sympy(self):
        sympy_perms = pytest.importorskip("sympy.combinatorics")
        from sympy.combinatorics import Permutation, PermutationGroup

        from subsym.groups import pgammal_2_8, wreath_s2

        cases = [
            pgammal_2_8(),
            wreath_s2(4),
            automorphism_group(make_petersen()),
            automorphism_group(make_hoffman_singleton()),
        ]
        for G in cases:
            sympy_group = PermutationGroup(
                [Permutation(list(p.images)) for p in G.generators]
            )
            assert sympy_group.order() == G.order()

    def test_stabilizer_orders_match_sympy(self):
        pytest.importorskip("sympy.combinatorics")
        from sympy.combinatorics import Permutation, PermutationGroup

        from subsym.groups import stabilizer_point

        p = make_petersen()
        G = automorphism_group(p)
        sympy_group = PermutationGroup([Permutation(list(q.images)) for q in G.generators])
        for v in range(3):
            assert sympy_group.stabilizer(v).order() == stabilizer_point(G, v).order()
        # the lifted group on S(Petersen): V-points and E-points, whose
        # stabilizers are lifts of vertex and edge stabilizers of Aut(Petersen)
        lifted = induced_subdivision_action(G, subdivide(p))
        sympy_lifted = PermutationGroup([Permutation(list(q.images)) for q in lifted.generators])
        assert sympy_lifted.order() == lifted.order() == 120
        for v in (0, 1, 10, 11, 24):
            assert sympy_lifted.stabilizer(v).order() == stabilizer_point(lifted, v).order()


def to_nx(nx, g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edge_list)
    return h


class TestAgainstNetworkx:
    def test_girth_and_diameter_match_networkx(self):
        nx = pytest.importorskip("networkx")

        rng = random.Random(31337)
        bases = [
            make_complete(2),
            make_complete(5),
            make_complete_bipartite(3, 4),
            make_cycle(7),
            make_petersen(),
            make_hoffman_singleton(),
            Graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)]),
        ]
        bases += [random_connected_graph(rng, rng.randint(3, 12)) for _ in range(20)]
        for g in bases:
            sg = subdivide(g).graph
            nx_girths = []
            for h in (g, sg):
                ref = to_nx(nx, h)
                nx_girth = nx.girth(ref)
                nx_girths.append(nx_girth)
                assert girth(h) == (None if nx_girth == math.inf else nx_girth), g.edge_list
                assert h.diameter() == nx.diameter(ref), g.edge_list
            assert nx_girths[1] == 2 * nx_girths[0]

    @settings(max_examples=100, deadline=None)
    @given(random_graph_strategy(max_n=12, min_n=0))
    def test_split_components_match_networkx(self, g):
        nx = pytest.importorskip("networkx")
        ref = to_nx(nx, g)
        expected = sorted(tuple(sorted(c)) for c in nx.connected_components(ref))
        comps = split_components(g)
        assert [c.vertices for c in comps] == expected  # ordered by least vertex
        for c in comps:
            sub = nx.convert_node_labels_to_integers(ref.subgraph(c.vertices), ordering="sorted")
            assert c.graph == Graph(len(c.vertices), sub.edges())

    def test_isomorphism_matches_networkx_on_relabellings(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(4242)
        for _ in range(30):
            g = random_connected_graph(rng, rng.randint(3, 14))
            images = list(range(g.n))
            rng.shuffle(images)
            h = Graph(g.n, [(images[u], images[v]) for u, v in g.edge_list])
            assert is_isomorphic(g, h)
            assert nx.is_isomorphic(to_nx(nx, g), to_nx(nx, h))

    def test_non_isomorphic_pairs_with_equal_degree_sequences(self):
        nx = pytest.importorskip("networkx")
        rng = random.Random(777)
        pairs = 0
        for _ in range(60):
            g = random_connected_graph(rng, rng.randint(6, 14))
            swapped = to_nx(nx, g)
            try:
                nx.double_edge_swap(swapped, nswap=2, max_tries=200, seed=rng.randrange(10**9))
            except nx.NetworkXAlgorithmError:
                continue  # no swap exists (near-complete graphs)
            if nx.is_isomorphic(to_nx(nx, g), swapped):
                continue
            h = Graph(g.n, swapped.edges())
            assert sorted(map(g.degree, range(g.n))) == sorted(map(h.degree, range(h.n)))
            assert not is_isomorphic(g, h)
            pairs += 1
        assert pairs >= 20

    def test_reconstruction_is_sound_and_complete(self):
        # sound: every graph it returns is a preimage; complete: it returns
        # one for every subdivision of a connected graph with an edge
        nx = pytest.importorskip("networkx")
        rng = random.Random(2718)
        bases = [make_complete(n) for n in range(2, 7)]
        bases += [make_complete_bipartite(a, b) for a in range(1, 4) for b in range(a, 5)]
        bases += [make_cycle(n) for n in range(3, 9)]
        bases += [Graph(n, [(i, i + 1) for i in range(n - 1)]) for n in range(2, 7)]
        bases.append(make_petersen())
        bases += [random_connected_graph(rng, rng.randint(2, 10)) for _ in range(120)]
        returned = raised = 0
        for base in bases:
            for h, is_subdivision in ((base, False), (subdivide(base).graph, True)):
                images = list(range(h.n))
                rng.shuffle(images)
                for x in (h, Graph(h.n, [(images[u], images[v]) for u, v in h.edge_list])):
                    try:
                        sigma = reconstruct_from_ambient(x)
                    except MalformedSubdivisionError:
                        assert not is_subdivision, base.edge_list
                        raised += 1
                        continue
                    assert nx.is_isomorphic(to_nx(nx, subdivide(sigma).graph), to_nx(nx, x)), x.edge_list
                    returned += 1
        assert returned > len(bases) * 2 and raised > len(bases)

    def test_aut_orders_match_vf2_counts(self):
        nx = pytest.importorskip("networkx")
        from networkx.algorithms.isomorphism import GraphMatcher

        rng = random.Random(8)
        graphs = [make_complete(5), make_cycle(8), make_complete_bipartite(3, 3)]
        for _ in range(40):
            n = rng.randint(1, 8)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            graphs.append(Graph(n, rng.sample(pairs, rng.randint(0, len(pairs)))))
        for g in graphs:
            ref = to_nx(nx, g)
            vf2 = sum(1 for _ in GraphMatcher(ref, ref).isomorphisms_iter())
            assert automorphism_group(g).order() == vf2, g.edge_list
