"""Dense-matrix kernels of the trial fast path (DESIGN.md §15.4).

:mod:`repro.perf.fastpath` evaluates a lock-step trial's closed forms
as array passes over two shared kernels:

* :func:`adjacency_matrix` — the graph's dense boolean adjacency
  matrix, built once per :class:`Graph` and cached on it;
* :func:`directed_distances` — all-pairs hop distances along a
  directed delivery matrix, one boolean matmul per BFS depth.

κ certification has no kernel here: every κ query runs
:mod:`repro.graphs.connectivity`'s one path-counting engine, with or
without numpy.  Both kernels return numpy arrays that only the fast
path consumes; numpy types never reach a row.
"""

from __future__ import annotations

from repro.graphs.graph import Graph
from repro.perf import numpy_or_none

__all__ = ["adjacency_matrix", "directed_distances"]


def _build_dense(graph: Graph):
    """Builder callback for :meth:`Graph.dense_adjacency`."""
    np = numpy_or_none()
    dense = np.zeros((graph.n, graph.n), dtype=bool)
    for u, v in graph.edges():
        dense[u, v] = True
        dense[v, u] = True
    dense.setflags(write=False)
    return dense


def adjacency_matrix(graph: Graph):
    """The graph's dense boolean adjacency matrix (memoised, read-only)."""
    return graph.dense_adjacency(_build_dense)


def directed_distances(matrix):
    """All-pairs hop distances along a directed boolean matrix.

    ``matrix[s, j]`` means s reaches j in one hop.  Returns an int32
    array ``dist`` with ``dist[u, i]`` the shortest hop count u → i and
    ``n + 1`` as the unreachable sentinel (strictly larger than any
    real distance, so ``min`` folds stay correct).  Runs as boolean
    matrix-matrix BFS level fronts: one matmul per BFS depth advances
    every source at once.
    """
    np = numpy_or_none()
    n = matrix.shape[0]
    step = np.ascontiguousarray(matrix, dtype=np.uint8)
    dist = np.full((n, n), n + 1, dtype=np.int32)
    reach = np.eye(n, dtype=bool)
    np.fill_diagonal(dist, 0)
    frontier = reach.copy()
    depth = 0
    while True:
        depth += 1
        advanced = (frontier.astype(np.uint8) @ step) > 0
        frontier = advanced & ~reach
        if not frontier.any():
            break
        dist[frontier] = depth
        reach |= frontier
    return dist
