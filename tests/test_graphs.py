import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from subsym import graphs
from subsym.graphs import (
    DisconnectedGraphError,
    Graph,
    GraphError,
    bfs_distances,
    distance_sphere,
    enumerate_s_arcs,
    girth,
    make_complete,
    make_complete_bipartite,
    make_cycle,
    make_hoffman_singleton,
    make_petersen,
    random_connected_graph,
    s_arcs_from,
)
from subsym.formats import read_graph, write_graph
from subsym.transforms import subdivide

from _oracles import brute_arcs, brute_diameter, brute_distances, brute_girth


def random_graph_strategy(max_n=8, min_n=2):
    """Any simple graph on min_n..max_n vertices; disconnected graphs and
    isolated vertices included."""

    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=min_n, max_value=max_n))
        all_edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.lists(st.booleans(), min_size=len(all_edges), max_size=len(all_edges)))
        return Graph(n, [e for e, keep in zip(all_edges, mask) if keep])

    return build()


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphError):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 2)])

    def test_adjacency_symmetric_and_sorted(self):
        g = Graph(4, [(2, 0), (3, 1), (0, 1)])
        assert g.edge_list == ((0, 1), (0, 2), (1, 3))
        for u, v in g.edge_list:
            assert v in g.adjacency[u] and u in g.adjacency[v]
        assert all(list(a) == sorted(a) for a in g.adjacency)

    @pytest.mark.parametrize("n, edges", [
        (2, [(0.0, 1.0)]),
        (3, [("0", "1")]),
        (3, [(0, 1, 2)]),
        (3, [(0,)]),
        (3, [0]),
        (2.0, [(0, 1)]),
        ("3", []),
    ])
    def test_rejects_non_integer_input(self, n, edges):
        with pytest.raises(GraphError):
            Graph(n, edges)

    def test_integer_like_ids_are_normalised(self, tmp_path):
        g = Graph(2, [(True, False)])
        assert g.edge_list == ((0, 1),) and g.adjacency == ((1,), (0,))
        assert all(type(x) is int for e in g.edge_list for x in e)
        path = str(tmp_path / "bools.g")
        write_graph(path, g)
        with open(path) as fh:
            assert fh.read() == "2 1\n0 1\n"
        assert read_graph(path) == g
        h = Graph(np.int64(3), [(np.int32(2), np.int64(0))])
        assert type(h.n) is int and h.edge_list == ((0, 2),)
        assert all(type(x) is int for x in h.edge_list[0])

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy(max_n=12, min_n=0), st.randoms(use_true_random=False))
    def test_trusted_constructor_matches_the_checked_one(self, g, rng):
        # the checked constructor takes edges in any order and orientation;
        # both must come out with the sorted neighbour sets of the edges
        shuffled = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in g.edge_list]
        rng.shuffle(shuffled)
        checked = Graph(g.n, shuffled)
        trusted = Graph._trusted(g.n, g.edge_list)
        neighbours = [sorted({w for e in g.edge_list if v in e for w in e if w != v}) for v in range(g.n)]
        for h in (checked, trusted):
            assert (h.n, h.edge_list) == (g.n, g.edge_list)
            assert [list(a) for a in h.adjacency] == neighbours
            assert all(type(a) is tuple for a in h.adjacency)
        assert trusted == checked

    def test_edge_count_matches_valency_sum(self):
        g = make_petersen()
        assert 2 * g.m == sum(g.degree(v) for v in range(g.n))


class TestNamedGraphs:
    def test_complete_small(self):
        assert make_complete(2).edge_list == ((0, 1),)
        k4 = make_complete(4)
        assert k4.m == 6
        assert all(k4.degree(v) == 3 for v in range(4))
        assert k4.diameter() == 1
        k9 = make_complete(9)
        assert k9.m == 36
        assert k9.girth() == 3

    def test_complete_rejects_zero(self):
        with pytest.raises(GraphError):
            make_complete(0)

    def test_complete_bipartite(self):
        assert make_complete_bipartite(1, 1).edge_list == ((0, 1),)
        k22 = make_complete_bipartite(2, 2)
        assert (k22.n, k22.m, k22.girth()) == (4, 4, 4)
        k33 = make_complete_bipartite(3, 3)
        assert k33.diameter() == brute_diameter(k33) == 2
        assert k33.girth() == brute_girth(k33) == 4
        # every edge joins the two sides {0, 1, 2} and {3, 4, 5}
        assert all(u < 3 <= v for u, v in k33.edge_list)

    def test_cycle(self):
        assert make_cycle(3).edge_list == make_complete(3).edge_list
        assert make_cycle(5).diameter() == 2
        assert make_cycle(5).girth() == 5
        assert make_cycle(6).diameter() == 3
        with pytest.raises(GraphError):
            make_cycle(2)

    def test_petersen(self):
        p = make_petersen()
        assert (p.n, p.m) == (10, 15)
        assert all(p.degree(v) == 3 for v in range(10))
        assert p.girth() == brute_girth(p) == 5
        assert p.diameter() == 2

    def test_hoffman_singleton(self):
        h = make_hoffman_singleton()
        assert h.n == 50
        assert all(h.degree(v) == 7 for v in range(50))
        assert h.diameter() == 2
        assert h.girth() == 5


def oracle_row(g, source):
    dist = brute_distances(g, source)
    return [dist.get(v, -1) for v in range(g.n)]


class TestDistances:
    @settings(max_examples=100, deadline=None)
    @given(random_graph_strategy(max_n=12))
    def test_bfs_and_matrix_match_oracle_on_any_edge_set(self, g):
        # any edge set: disconnected graphs and isolated vertices included
        mat = g.distances_matrix()
        assert mat.shape == (g.n, g.n) and mat.dtype == np.int32
        for s in range(g.n):
            assert bfs_distances(g, s) == oracle_row(g, s) == mat[s].tolist()

    def test_matrix_matches_oracle(self):
        cases = [make_petersen(), subdivide(make_complete_bipartite(4, 4)).graph]
        rng = random.Random(5)
        cases += [random_connected_graph(rng, rng.randint(4, 25)) for _ in range(6)]
        for g in cases:
            assert g.distances_matrix().tolist() == [oracle_row(g, s) for s in range(g.n)]

    def test_unreachable_is_minus_one(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert bfs_distances(g, 0) == [0, 1, -1, -1]
        assert g.distances_matrix().tolist() == [[0, 1, -1, -1], [1, 0, -1, -1], [-1, -1, 0, 1], [-1, -1, 1, 0]]
        empty = Graph(0, []).distances_matrix()
        assert empty.shape == (0, 0) and empty.dtype == np.int32


@st.composite
def relabelled_paths_and_cycles(draw):
    """A path or cycle on up to 60 vertices (up to 59 levels), plus a few
    isolated vertices, under a random relabelling."""
    k = draw(st.integers(min_value=1, max_value=60))
    cycle = k >= 3 and draw(st.booleans())
    isolated = draw(st.integers(min_value=0, max_value=3))
    label = draw(st.permutations(range(k + isolated)))
    edges = [(i, i + 1) for i in range(k - 1)] + ([(k - 1, 0)] if cycle else [])
    return Graph(k + isolated, [(label[u], label[v]) for u, v in edges])


class TestDistanceClosure:
    """The bit-parallel closure behind Graph.distances_matrix against the
    dict BFS oracle, row by row."""

    @staticmethod
    def assert_matches_oracle(g):
        mat = g.distances_matrix()
        assert mat.shape == (g.n, g.n) and mat.dtype == np.int32
        assert mat.tolist() == [oracle_row(g, s) for s in range(g.n)]

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy(max_n=14, min_n=0))
    def test_any_edge_set(self, g):
        self.assert_matches_oracle(g)
        assert g.is_connected() == (g.n == 0 or len(brute_distances(g, 0)) == g.n)

    @settings(max_examples=60, deadline=None)
    @given(relabelled_paths_and_cycles())
    def test_many_levels(self, g):
        self.assert_matches_oracle(g)

    def test_tiny_graphs(self):
        for n in (0, 1):
            self.assert_matches_oracle(Graph(n, []))
            assert Graph(n, []).is_connected()
        assert Graph(1, []).distances_matrix().tolist() == [[0]]
        assert not Graph(2, []).is_connected()

    def test_word_boundaries(self):
        # rows are packed into 64-bit words: cross the first word boundaries
        for n in (63, 64, 65, 127, 128, 129):
            self.assert_matches_oracle(make_cycle(n))
            self.assert_matches_oracle(Graph(n, [(v, v + 1) for v in range(n - 2)]))

    def test_spheres_read_the_matrix(self):
        g = make_cycle(9)
        mat = g.distances_matrix()
        for v in range(g.n):
            for i in range(6):
                assert distance_sphere(g, v, i) == {w for w in range(g.n) if mat[v, w] == i}


class TestMetrics:
    def test_bfs_examples(self):
        assert bfs_distances(make_complete(4), 0) == [0, 1, 1, 1]
        assert bfs_distances(make_cycle(6), 0) == [0, 1, 2, 3, 2, 1]
        p = make_petersen()
        d = bfs_distances(p, 0)
        assert sorted(d) == [0] + [1] * 3 + [2] * 6

    def test_bfs_rejects_bad_vertex(self):
        with pytest.raises(GraphError):
            bfs_distances(make_complete(3), 5)

    def test_bfs_unreachable_sentinel(self):
        g = Graph(3, [(0, 1)])
        assert bfs_distances(g, 0) == [0, 1, -1]

    def test_disconnected_metrics_rejected(self):
        for g in (Graph(3, [(0, 1)]), Graph(0, [])):
            for _ in range(2):  # a failure is never cached
                with pytest.raises(DisconnectedGraphError):
                    g.diameter()

    def test_diameter_is_cached(self, monkeypatch):
        g = make_petersen()
        assert g.diameter() == 2
        monkeypatch.setattr(Graph, "distances_matrix", lambda self: pytest.fail("matrix read again"))
        assert g.diameter() == 2

    def test_acyclic_girth_is_none(self):
        path = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert path.girth() is None

    def test_girth_against_oracle_random(self):
        rng = random.Random(2024)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(3, 9))
            assert girth(g) == brute_girth(g)
        assert girth(Graph(0, [])) is None and girth(Graph(1, [])) is None

    @settings(max_examples=150, deadline=None)
    @given(random_graph_strategy(max_n=10))
    def test_girth_matches_oracle_on_any_edge_set(self, g):
        # disconnected graphs and forests included
        assert girth(g) == brute_girth(g)

    def test_girth_in_one_root_block_per_root(self, monkeypatch):
        monkeypatch.setattr(graphs, "_GIRTH_BLOCK", 1)
        rng = random.Random(77)
        cases = [make_petersen(), make_complete_bipartite(2, 3), Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4)])]
        cases += [random_connected_graph(rng, rng.randint(3, 9)) for _ in range(20)]
        for g in cases:
            assert girth(g) == brute_girth(g)

    @settings(max_examples=60, deadline=None)
    @given(random_graph_strategy())
    def test_diameter_matches_oracle(self, g):
        if g.is_connected():
            assert g.diameter() == brute_diameter(g) == g.diameter()
        else:
            for _ in range(2):
                with pytest.raises(DisconnectedGraphError):
                    g.diameter()

    def test_distance_sphere(self):
        p = make_petersen()
        assert distance_sphere(p, 3, 0) == frozenset({3})
        sp = subdivide(make_petersen())
        # from a base vertex: [1, 3, 3, 6, 6, 6]; from an edge vertex the
        # level-4 sphere has 8 elements
        assert len(distance_sphere(sp.graph, 0, 4)) == 6
        assert len(distance_sphere(sp.graph, 10, 4)) == 8
        sh = subdivide(make_hoffman_singleton())
        assert len(distance_sphere(sh.graph, 50, 4)) == 72
        assert len(distance_sphere(sh.graph, 0, 1)) == 7

    @settings(max_examples=40, deadline=None)
    @given(random_graph_strategy())
    def test_sphere_sizes_partition_vertices(self, g):
        for v in range(g.n):
            reachable = brute_distances(g, v)
            total = sum(
                len(distance_sphere(g, v, i)) for i in range(0, g.n + 1)
            )
            assert total == len(reachable)

    @settings(max_examples=40, deadline=None)
    @given(random_graph_strategy())
    def test_girth_diameter_bound(self, g):
        if not g.is_connected():
            return
        gr = girth(g)
        if gr is not None:
            assert gr <= 2 * g.diameter() + 1


class TestArcs:
    def test_single_edge(self):
        k2 = make_complete(2)
        assert s_arcs_from(k2, 0, 1) == [(0, 1)]
        assert s_arcs_from(k2, 0, 2) == []

    def test_cycle_directions(self):
        arcs = s_arcs_from(make_cycle(5), 0, 3)
        assert arcs == [(0, 1, 2, 3), (0, 4, 3, 2)]

    def test_triangle_counts(self):
        k3 = make_complete(3)
        assert len(enumerate_s_arcs(k3, 1)) == 6
        assert len(enumerate_s_arcs(k3, 2)) == 6

    def test_cycle_counts(self):
        for n in (4, 6, 9):
            g = make_cycle(n)
            for s in (1, 2, n - 1):
                assert len(enumerate_s_arcs(g, s)) == 2 * n

    def test_arcs_validate_and_are_lexicographic(self):
        g = make_petersen()
        arcs = enumerate_s_arcs(g, 3)
        for a in arcs:
            assert all(g.has_edge(u, w) for u, w in zip(a, a[1:]))
            assert all(u != w for u, w in zip(a, a[2:]))  # no immediate backtrack
        # brute_arcs filters every 4-tuple of vertices in lexicographic order
        assert arcs == brute_arcs(g, 3)

    def test_enumeration_deterministic(self):
        g = make_petersen()
        assert enumerate_s_arcs(g, 3) == enumerate_s_arcs(g, 3)

    def test_counts_match_brute_force(self):
        rng = random.Random(7)
        graphs = [random_connected_graph(rng, rng.randint(3, 8)) for _ in range(6)]
        graphs += [make_complete(4), make_cycle(5), make_complete_bipartite(2, 3)]
        for g in graphs:
            for s in range(1, 5):
                assert len(enumerate_s_arcs(g, s)) == len(brute_arcs(g, s))

    def test_rejects_bad_arguments(self):
        with pytest.raises(GraphError):
            s_arcs_from(make_complete(3), 0, 0)
        with pytest.raises(GraphError):
            s_arcs_from(make_complete(3), 9, 1)


class TestRandomGraphs:
    def test_connected_and_deterministic(self):
        a = random_connected_graph(random.Random(5), 9)
        b = random_connected_graph(random.Random(5), 9)
        assert a == b
        assert a.is_connected()
