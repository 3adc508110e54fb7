import random

import pytest
from hypothesis import example, given, settings

from subsym.autgrp import is_isomorphic
from subsym.graphs import (
    UNREACHED,
    DisconnectedGraphError,
    Graph,
    GraphError,
    bfs_distances,
    girth,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_petersen,
    random_connected_graph,
)
from subsym.transforms import (
    MalformedSubdivisionError,
    delta2_witness,
    delta_of,
    distance_two_graph,
    line_graph,
    reconstruct_from_ambient,
    split_components,
    subdivide,
    subdivision_distance_matrix,
    subdivision_spheres,
)

from _oracles import brute_delta2_witness, brute_distances
from test_graphs import random_graph_strategy


def small_corpus():
    rng = random.Random(99)
    graphs = [
        make_complete(2),
        make_complete(3),
        make_complete(4),
        make_complete(5),
        make_complete_bipartite(2, 3),
        make_complete_bipartite(3, 3),
        make_cycle(4),
        make_cycle(5),
        make_cycle(7),
        make_petersen(),
        Graph(4, [(0, 1), (1, 2), (2, 3)]),  # path
        Graph(4, [(0, 1), (0, 2), (0, 3)]),  # star
    ]
    graphs += [random_connected_graph(rng, rng.randint(3, 9)) for _ in range(8)]
    return graphs


@settings(max_examples=100, deadline=None)
@given(random_graph_strategy(max_n=10, min_n=1))
def test_built_graphs_equal_checked_ones(g):
    # subdivide, line_graph and the distance-2 components skip the public
    # constructor's checks; rebuilding them through it changes nothing
    built = [subdivide(g).graph, line_graph(g)]
    if g.is_connected():
        built += [c.graph for c in distance_two_graph(g)]
    for h in built:
        checked = Graph(h.n, h.edge_list)
        assert (h.n, h.edge_list, h.adjacency) == (checked.n, checked.edge_list, checked.adjacency)


@settings(max_examples=100, deadline=None)
@given(random_graph_strategy(max_n=10, min_n=0))
@example(Graph(5, []))  # no edges
@example(Graph(5, [(1, 3)]))  # isolated vertices
def test_subdivision_is_built_once_in_sorted_order(g):
    # the pairs (u, n+i), (v, n+i) through the checked constructor give the
    # same graph as the direct sorted build, and every call shares that graph
    sg = subdivide(g)
    pairs = [(x, g.n + i) for i, e in enumerate(g.edge_list) for x in e]
    checked = Graph(g.n + g.m, pairs)
    assert (sg.graph.n, sg.graph.edge_list, sg.graph.adjacency) == (checked.n, checked.edge_list, checked.adjacency)
    assert subdivide(g).graph is sg.graph
    assert subdivide(g) is not sg and subdivide(g).base is g


class TestSubdivide:
    def test_single_edge_becomes_path(self):
        sg = subdivide(make_complete(2))
        assert sg.graph.n == 3 and sg.graph.m == 2
        assert sorted(sg.graph.degree(v) for v in range(3)) == [1, 1, 2]

    def test_triangle_becomes_six_cycle(self):
        assert is_isomorphic(subdivide(make_complete(3)).graph, make_cycle(6))

    def test_cycles_double(self):
        for n in (3, 5, 8):
            assert is_isomorphic(subdivide(make_cycle(n)).graph, make_cycle(2 * n))

    def test_structure(self):
        g = make_petersen()
        sg = subdivide(g)
        assert sg.graph.n == g.n + g.m and sg.graph.m == 2 * g.m
        assert all(sg.graph.degree(g.n + i) == 2 for i in range(g.m))
        # S(g) is bipartite with parts V = 0..n-1 and E = n..n+m-1
        assert all(a < g.n <= b for a, b in sg.graph.edge_list)

    def test_girth_doubles(self):
        for g in small_corpus():
            base = girth(g)
            if base is not None:
                assert girth(subdivide(g).graph) == 2 * base


class TestLineGraph:
    def test_cycles_fixed(self):
        for n in (3, 5, 8):
            assert is_isomorphic(line_graph(make_cycle(n)), make_cycle(n))

    def test_single_edge(self):
        lg = line_graph(make_complete(2))
        assert (lg.n, lg.m) == (1, 0)

    def test_k4_gives_octahedron(self):
        lg = line_graph(make_complete(4))
        assert lg.n == 6
        assert all(lg.degree(v) == 4 for v in range(6))
        assert is_isomorphic(lg, make_complete_bipartite(2, 2)) is False
        # octahedron = K_{2,2,2}
        octa = Graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6) if u + 3 != v])
        assert is_isomorphic(lg, octa)


class TestDistanceTwo:
    def test_complete_graph_isolates(self):
        comps = distance_two_graph(make_complete(5))
        assert len(comps) == 5
        assert all(c.graph.n == 1 and c.graph.m == 0 for c in comps)

    def test_c6_splits_into_triangles(self):
        comps = distance_two_graph(make_cycle(6))
        assert len(comps) == 2
        assert all(is_isomorphic(c.graph, make_cycle(3)) for c in comps)

    def test_subdivided_petersen(self):
        p = make_petersen()
        comps = distance_two_graph(subdivide(p).graph)
        assert sorted(c.graph.n for c in comps) == [10, 15]
        small = min(comps, key=lambda c: c.graph.n)
        large = max(comps, key=lambda c: c.graph.n)
        assert is_isomorphic(small.graph, p)
        assert is_isomorphic(large.graph, line_graph(p))

    def test_components_follow_parts(self):
        for g in small_corpus():
            if g.n < 2:
                continue
            sg = subdivide(g)
            comps = distance_two_graph(sg.graph)
            assert len(comps) == 2
            parts = {frozenset(c.vertices) for c in comps}
            assert parts == {
                frozenset(range(g.n)),
                frozenset(range(g.n, g.n + g.m)),
            }

    def test_rejects_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            distance_two_graph(Graph(3, [(0, 1)]))

    def test_split_components_builds_no_distance_matrix(self):
        g = Graph(7, [(0, 4), (4, 6), (2, 5)])
        comps = split_components(g)
        assert [c.vertices for c in comps] == [(0, 4, 6), (1,), (2, 5), (3,)]
        assert [c.graph.edge_list for c in comps] == [((0, 1), (1, 2)), (), ((0, 1),), ()]
        assert g._spheres is None
        assert split_components(Graph(0, [])) == []


class TestReconstruct:
    def test_labelled_roundtrip_exact(self):
        # the neighbours of each E-vertex are its base edge, so the labels alone give g back
        for g in small_corpus():
            sg = subdivide(g)
            edges = [tuple(sg.graph.adjacency[x]) for x in range(g.n, sg.graph.n)]
            assert list(sg.base.edge_list) == edges and Graph(g.n, edges) == g

    def test_forget_labels_roundtrip(self):
        for g in small_corpus():
            assert is_isomorphic(reconstruct_from_ambient(subdivide(g).graph), g)

    def test_cycle_comes_back_canonical(self):
        assert reconstruct_from_ambient(subdivide(make_cycle(5)).graph) == make_cycle(5)

    def test_odd_cycle_rejected(self):
        with pytest.raises(MalformedSubdivisionError):
            reconstruct_from_ambient(make_cycle(7))

    def test_even_cycle_halves(self):
        assert reconstruct_from_ambient(make_cycle(10)) == make_cycle(5)

    def test_four_cycle_rejected(self):
        # C_4 would halve to a "cycle" on 2 vertices, which no simple graph is
        with pytest.raises(MalformedSubdivisionError, match="C_4 is not the subdivision of a simple graph"):
            reconstruct_from_ambient(make_cycle(4))

    def test_check_reconstruction_builds_the_distance_two_graph_once(self, monkeypatch):
        from subsym import theorems, transforms

        builds = []

        def counting_distance_two_graph(h):
            builds.append(h)
            return distance_two_graph(h)

        monkeypatch.setattr(transforms, "distance_two_graph", counting_distance_two_graph)
        monkeypatch.setattr(theorems, "distance_two_graph", counting_distance_two_graph)
        assert theorems.check_reconstruction(make_petersen()).status == theorems.CONFIRMED
        assert len(builds) == 1


def bfs_rows(g):
    return [bfs_distances(g, v) for v in range(g.n)]


class TestSubdivisionDistance:
    def test_same_vertex_zero(self):
        mat = subdivision_distance_matrix(subdivide(make_complete(4)))
        assert mat[0][0] == 0
        assert mat[5][5] == 0

    def test_c5_example(self):
        g = make_cycle(5)
        e = g.edge_list.index((2, 3))
        assert subdivision_distance_matrix(subdivide(g))[0][5 + e] == 5

    def test_k4_disjoint_edges(self):
        g = make_complete(4)
        i = g.edge_list.index((0, 1))
        j = g.edge_list.index((2, 3))
        assert subdivision_distance_matrix(subdivide(g))[4 + i][4 + j] == 4

    def test_formula_equals_bfs_everywhere(self):
        for g in small_corpus():
            sg = subdivide(g)
            assert subdivision_spheres(sg) == sg.graph.spheres()
            assert subdivision_distance_matrix(sg) == bfs_rows(sg.graph)

    def test_disconnected_base_gives_unreached(self):
        sg = subdivide(Graph(4, [(0, 1), (2, 3)]))
        mat = subdivision_distance_matrix(sg)
        assert mat == bfs_rows(sg.graph)
        assert mat[0][2] == UNREACHED
        assert mat[4][5] == UNREACHED
        # V-vertex 0 reaches only its own edge point 4 and vertex 1
        assert subdivision_spheres(sg)[0] == (1 << 0, 1 << 4, 1 << 1)

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy())
    @example(Graph(0, []))
    @example(Graph(1, []))
    @example(Graph(3, []))
    @example(Graph(5, [(0, 1), (2, 3)]))
    def test_formula_equals_bfs_on_any_edge_set(self, g):
        sg = subdivide(g)
        assert subdivision_spheres(sg) == sg.graph.spheres()
        assert subdivision_distance_matrix(sg) == bfs_rows(sg.graph)

    def test_bfs_oracle_spot(self):
        sg = subdivide(make_complete_bipartite(3, 3))
        oracle = brute_distances(sg.graph, 1)
        row = subdivision_distance_matrix(sg)[1]
        for b in range(sg.graph.n):
            assert row[b] == oracle[b]


class TestDelta:
    def test_named_values(self):
        assert (delta_of(make_complete(2)).d, delta_of(make_complete(2)).diam_s,
                delta_of(make_complete(2)).delta) == (1, 2, 0)
        assert delta_of(make_complete(3)).delta == 1
        for n in (4, 5, 9):
            assert delta_of(make_complete(n)).delta == 2
        for n in (4, 6, 8):
            assert delta_of(make_cycle(n)).delta == 0
        for n in (5, 7, 9):
            assert delta_of(make_cycle(n)).delta == 1
        assert delta_of(make_petersen()).delta == 2

    def test_delta_always_in_range(self):
        for g in small_corpus():
            assert delta_of(g).delta in (0, 1, 2)

    def test_subdivided_complete_diameter_caps_at_four(self):
        for n in range(2, 10):
            assert delta_of(make_complete(n)).diam_s == min(n, 4)

    def test_delta2_witness(self):
        w = delta2_witness(make_complete(4))
        assert w is not None
        e, f = w
        assert set(e).isdisjoint(f)
        assert delta2_witness(make_complete(3)) is None

    def test_delta2_witness_examples(self):
        assert delta2_witness(make_complete(4)) == ((0, 1), (2, 3))
        cases = [make_petersen(), subdivide(make_petersen()).graph]
        for n in range(2, 13):
            cases += [make_complete(n), make_complete_bipartite(n, n), make_cycle(n + 1)]
        for g in cases:
            assert delta2_witness(g) == brute_delta2_witness(g)
        assert delta2_witness(make_complete_bipartite(20, 20)) is None
        for g in (Graph(1, []), make_complete(2), make_cycle(5), make_cycle(6)):
            assert delta2_witness(g) is None  # fewer than 2 edges, or no witness
        with pytest.raises(DisconnectedGraphError):
            delta2_witness(Graph(4, [(0, 1), (2, 3)]))

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy(max_n=9, min_n=0))
    def test_delta2_witness_matches_pairwise_loop(self, g):
        if g.n == 0 or not g.is_connected():
            with pytest.raises(DisconnectedGraphError):
                delta2_witness(g)
        else:
            assert delta2_witness(g) == brute_delta2_witness(g)

    def test_formula_and_reconstruction_share_one_subdivision(self, monkeypatch):
        from subsym import graphs, theorems

        closure = graphs._sphere_closure
        sizes = []

        def counting(adjacency, seeds=None):
            sizes.append(len(adjacency))
            return closure(adjacency, seeds)

        # counts the closures Graph.spheres caches; the formula's own closure
        # over g is bound in transforms and is not counted
        monkeypatch.setattr(graphs, "_sphere_closure", counting)
        g = make_complete_bipartite(3, 4)
        assert theorems.check_distance_formula(g).status == theorems.CONFIRMED
        assert theorems.check_reconstruction(g).status == theorems.CONFIRMED
        # one set of spheres of g and one of S(g), shared by delta_of and both checks
        assert sizes == [g.n, g.n + g.m]
