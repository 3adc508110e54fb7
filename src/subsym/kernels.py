"""Breadth-first-search kernels over CSR adjacency.

Graphs are passed in CSR form: ``indices[indptr[v]:indptr[v+1]]`` are the
neighbours of ``v``. Both kernels convert the arrays to plain lists once and
run the same BFS loop, which is much faster in CPython than indexing numpy
arrays element by element.
"""

import numpy as np


def _adjacency(indptr, indices, n: int) -> list[list[int]]:
    ptr, nbrs = indptr.tolist(), indices.tolist()
    return [nbrs[ptr[v]:ptr[v + 1]] for v in range(n)]


def _bfs(adj: list[list[int]], source: int) -> list[int]:
    dist = [-1] * len(adj)
    dist[source] = 0
    queue = [source]
    for v in queue:  # the list grows while it is read: a FIFO queue
        d = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                dist[w] = d
                queue.append(w)
    return dist


def bfs_distances(indptr, indices, n, source):
    """Hop distances from ``source``; unreached vertices get -1."""
    return np.array(_bfs(_adjacency(indptr, indices, n), source), dtype=np.int32)


def all_pairs_distances(indptr, indices, n):
    """(n, n) matrix of hop distances; -1 marks unreachable pairs."""
    adj = _adjacency(indptr, indices, n)
    out = np.empty((n, n), dtype=np.int32)
    for s in range(n):
        out[s] = _bfs(adj, s)
    return out
