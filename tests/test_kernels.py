import random

import numpy as np
from hypothesis import given, settings

from subsym import kernels
from subsym.graphs import Graph, make_complete_bipartite, make_petersen, random_connected_graph
from subsym.transforms import subdivide

from _oracles import brute_distances
from test_graphs import random_graph_strategy


def oracle_row(g, source):
    dist = brute_distances(g, source)
    return [dist.get(v, -1) for v in range(g.n)]


@settings(max_examples=100, deadline=None)
@given(random_graph_strategy(max_n=12))
def test_single_source_matches_oracle(g):
    # any edge set: disconnected graphs and isolated vertices included
    indptr, indices = g._csr()
    mat = kernels.all_pairs_distances(indptr, indices, g.n)
    assert mat.shape == (g.n, g.n) and mat.dtype == np.int32
    for s in range(g.n):
        dist = kernels.bfs_distances(indptr, indices, g.n, s)
        assert dist.tolist() == oracle_row(g, s)
        assert mat[s].tolist() == dist.tolist()


def test_all_pairs_matches_oracle():
    graphs = [
        make_petersen(),
        subdivide(make_complete_bipartite(4, 4)).graph,
    ]
    rng = random.Random(5)
    graphs += [random_connected_graph(rng, rng.randint(4, 25)) for _ in range(6)]
    for g in graphs:
        indptr, indices = g._csr()
        mat = kernels.all_pairs_distances(indptr, indices, g.n)
        assert mat.tolist() == [oracle_row(g, s) for s in range(g.n)]


def test_unreachable_is_minus_one():
    g = Graph(4, [(0, 1), (2, 3)])
    indptr, indices = g._csr()
    assert kernels.bfs_distances(indptr, indices, 4, 0).tolist() == [0, 1, -1, -1]
    assert kernels.all_pairs_distances(*Graph(0, [])._csr(), 0).shape == (0, 0)
