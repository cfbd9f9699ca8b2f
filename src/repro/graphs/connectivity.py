"""Vertex connectivity (κ) and local connectivity κ(s, t).

The whole paper revolves around vertex connectivity: a graph is
t-Byzantine partitionable iff κ(G) <= t (Corollary 1), and NECTAR's
decision phase computes κ of the discovered graph (Algorithm 1 l. 17).

We implement the classical algorithm used for exact node connectivity:

* κ(s, t) for non-adjacent s, t is the number of internally
  vertex-disjoint s–t paths (Menger's theorem [20]).  One engine,
  :func:`_disjoint_paths`, counts them as unit augmenting paths in the
  vertex-split digraph (Even & Tarjan, 1975) without building it: the
  digraph's v_in/v_out states stay implicit in the graph's adjacency
  sets, and the flow is one path-predecessor pointer per vertex.
  Dolev's delivery test (:mod:`repro.extensions.dolev`) runs the same
  engine on the out-neighbour sets of a directed union of paths;
* κ(G) = min over a quadratic-free pair family built from a minimum
  degree vertex v: pairs (v, w) for w non-adjacent to v, plus pairs of
  non-adjacent neighbors of v.  Every minimum cut either excludes v
  (first family) or contains v, in which case v has neighbors in two
  components of G - C (second family).

A ``cutoff`` argument allows early exit: callers that only need to
compare κ against a threshold (NECTAR compares against t and the
sensitivity bound 2t) can cap every path count at the threshold.
Each common neighbor of s and t is a two-hop path, so a pair with at
least ``cutoff`` of them is decided without any search.
"""

from __future__ import annotations

from typing import AbstractSet, Sequence

from repro.errors import GraphError
from repro.graphs.graph import Graph
from repro.types import NodeId

#: κ(s, t) of adjacent vertices, which no vertex set separates.
INFINITY = 10**9

#: Final-search reach of :func:`_disjoint_paths`: ``(in_from, out_from)``.
_Residual = tuple[list[int], list[int]]


def _augmenting_search(
    adjacency: Sequence[AbstractSet[NodeId]],
    prev: list[int],
    source: NodeId,
    sink_side: AbstractSet[NodeId],
    in_from: list[int],
    out_from: list[int],
) -> int:
    """Breadth-first search of the residual digraph from source_out.

    Returns the first reached out-state with an arc into the sink (that
    arc is uncapacitated, so the search stops there), or -1 once
    everything reachable is explored.
    """
    queue = [source]
    for v in queue:  # grows while iterated
        p = prev[v]
        if p != -1 and in_from[v] == -1:
            # Back through v's own saturated internal arc, then
            # backwards along the path's step p -> v.
            in_from[v] = v
            if out_from[p] == -1:
                out_from[p] = v
                if p in sink_side:
                    return p
                queue.append(p)
        for w in adjacency[v]:
            if in_from[w] != -1:
                continue
            in_from[w] = v
            p = prev[w]
            if p == -1:  # w is free: on through its internal arc
                out_from[w] = w
                p = w
            elif out_from[p] == -1:  # backwards along the step p -> w
                out_from[p] = w
            else:
                continue
            if p in sink_side:
                return p
            queue.append(p)
    return -1


def _disjoint_paths(
    adjacency: Sequence[AbstractSet[NodeId]],
    source: NodeId,
    sink: NodeId,
    cutoff: int,
    sink_side: AbstractSet[NodeId] | None = None,
) -> tuple[int, _Residual | None]:
    """Count internally vertex-disjoint paths between non-adjacent terminals.

    ``adjacency[v]`` holds v's out-neighbours and ``sink_side`` the
    vertices with an arc into the sink.  An undirected graph is the
    symmetric case, where ``sink_side`` defaults to ``adjacency[sink]``;
    a digraph passes the sink's in-neighbours, since the search stops
    at them and never expands the sink.

    Returns ``(min(κ(source, sink), cutoff), residual)``.  ``residual``
    is None when the count reached ``cutoff``; otherwise the flow is
    maximum and ``residual`` is the reach of the final, failing search:
    ``in_from[v]``/``out_from[v]`` are -1 exactly when v_in/v_out is
    unreachable from the source in the residual digraph (both source
    states count as reached).

    The flow starts with the two-hop paths through the source's
    out-neighbours in ``sink_side``.  ``prev[v]`` is the vertex before
    v on the path through v (-1 when v carries no flow); every residual
    arc follows from it:

    * v_out -> w_in for every out-neighbour w (edge arcs are
      uncapacitated);
    * v_in -> v_out when v is free, and v_out -> v_in when it is not;
    * w_in -> prev[w]_out, cancelling the path's step into w.

    A v_in state has exactly one residual successor, so the search
    queues out-states only.  ``in_from[w]`` is the vertex whose out-state
    reached w_in (w itself: its own reverse internal arc), and
    ``out_from[v]`` the vertex whose in-state reached v_out (v itself:
    its internal arc), so walking an augmenting path back from the sink
    rewrites ``prev`` of each in-state on it in one step.
    """
    if sink_side is None:
        sink_side = adjacency[sink]
    common = adjacency[source] & sink_side
    if len(common) >= cutoff:
        return cutoff, None
    paths = len(common)
    n = len(adjacency)
    prev = [-1] * n
    for vertex in common:
        prev[vertex] = source
    while True:
        in_from = [-1] * n
        out_from = [-1] * n
        in_from[source] = out_from[source] = source
        v = _augmenting_search(adjacency, prev, source, sink_side, in_from, out_from)
        if v == -1:
            return paths, (in_from, out_from)
        while v != source:
            w = out_from[v]
            u = in_from[w]
            prev[w] = -1 if u == w else u
            v = u
        paths += 1
        if paths == cutoff:
            return cutoff, None


def _adjacency(graph: Graph) -> list[frozenset[NodeId]]:
    return [neighbors for _, neighbors in graph.iter_adjacency()]


def _check_terminals(graph: Graph, source: NodeId, sink: NodeId) -> None:
    for vertex in (source, sink):
        if not 0 <= vertex < graph.n:
            raise GraphError(f"node {vertex} outside range [0, {graph.n})")


def _residual_cut(residual: _Residual) -> set[NodeId]:
    """Vertices whose in-state the failing search reached but not their out-state.

    These are the saturated internal arcs leaving the source side of
    the residual digraph.  That side is the same for every maximum
    flow, so the cut does not depend on which paths were found.
    """
    in_from, out_from = residual
    return {
        vertex
        for vertex, (reached_in, reached_out) in enumerate(zip(in_from, out_from))
        if reached_in != -1 and reached_out == -1
    }


def _pivot_pairs(graph: Graph) -> list[tuple[NodeId, NodeId]]:
    """The Esfahanian–Hakimi pair families of a minimum-degree pivot."""
    pivot = min(graph.nodes(), key=graph.degree)
    pivot_adjacent = graph.neighbors(pivot)
    pivot_neighbors = sorted(pivot_adjacent)
    # Family 1: pivot against every non-neighbor.
    pairs = [
        (pivot, other)
        for other in graph.nodes()
        if other != pivot and other not in pivot_adjacent
    ]
    # Family 2: non-adjacent pairs of pivot's neighbors (covers minimum
    # cuts that contain the pivot itself).
    pairs.extend(
        (x, y)
        for i, x in enumerate(pivot_neighbors)
        for y in pivot_neighbors[i + 1:]
        if not graph.has_edge(x, y)
    )
    return pairs


def local_connectivity(
    graph: Graph, source: NodeId, sink: NodeId, cutoff: int | None = None
) -> int:
    """κ(source, sink): the number of vertex-independent paths.

    For adjacent vertices no vertex set separates them; following the
    usual convention this returns ``INFINITY`` (truncated at ``cutoff``
    when one is given).

    Raises:
        GraphError: if either vertex is outside ``[0, n)``.
        ValueError: if ``source == sink``.
    """
    _check_terminals(graph, source, sink)
    if source == sink:
        raise ValueError("local connectivity needs two distinct vertices")
    if graph.has_edge(source, sink):
        return INFINITY if cutoff is None else cutoff
    paths, _ = _disjoint_paths(
        _adjacency(graph), source, sink, graph.n if cutoff is None else cutoff
    )
    return paths


def vertex_connectivity(graph: Graph, cutoff: int | None = None) -> int:
    """Global vertex connectivity κ(G).

    Args:
        graph: the graph to analyse.
        cutoff: when given, the computation may stop early and return
            ``min(κ(G), cutoff)``; useful when the caller only needs to
            know whether κ reaches a threshold.

    Returns:
        κ(G) exactly, or its truncation at ``cutoff``.  A disconnected
        graph (including any graph with an isolated vertex) has κ = 0;
        the complete graph K_n has κ = n - 1 by convention.
    """
    n = graph.n
    if n == 1:
        return 0 if cutoff is None else min(0, cutoff)
    if not graph.is_connected():
        return 0
    if cutoff is not None and cutoff <= 1:
        # Connected ⇒ κ >= 1, so the truncation is already decided
        # without any path search (the cost sweeps run cutoff=1).
        return max(0, cutoff)
    if graph.edge_count == n * (n - 1) // 2:
        kappa = n - 1
        return kappa if cutoff is None else min(kappa, cutoff)

    # The minimum degree bounds κ from above, the user cutoff may bound
    # it further; every pair is capped at the running minimum.
    best = graph.min_degree()
    if cutoff is not None:
        best = min(best, cutoff)
    adjacency = _adjacency(graph)
    for s, t in _pivot_pairs(graph):
        best, _ = _disjoint_paths(adjacency, s, t, best)
    return best


def minimum_st_vertex_cut(graph: Graph, source: NodeId, sink: NodeId) -> set[NodeId]:
    """A minimum vertex set separating two non-adjacent vertices.

    By Menger's theorem its size equals κ(source, sink).  The cut is
    read off the saturated internal arcs on the residual boundary of a
    maximum flow.

    Raises:
        GraphError: if either vertex is outside ``[0, n)``.
        ValueError: for adjacent (or identical) vertices, which no
            vertex set separates.
    """
    _check_terminals(graph, source, sink)
    if source == sink or graph.has_edge(source, sink):
        raise ValueError("a vertex cut needs two distinct non-adjacent vertices")
    # κ(source, sink) <= n - 2, so a cutoff of n always ends on a
    # failing search.
    _, residual = _disjoint_paths(_adjacency(graph), source, sink, graph.n)
    return _residual_cut(residual)


def minimum_vertex_cut(graph: Graph) -> set[NodeId]:
    """A minimum vertex cut of a connected, non-complete graph.

    Useful to place Byzantine nodes in the worst position the paper
    reasons about: |cut| = κ(G) nodes whose removal partitions the
    correct remainder.  Pairs are tried in :func:`vertex_connectivity`'s
    order, and a pair's cut replaces the current one only when strictly
    smaller, so later pairs only search up to the current cut's size.

    Raises:
        ValueError: for disconnected or complete graphs (no vertex cut
            exists in either case).
    """
    n = graph.n
    if not graph.is_connected():
        raise ValueError("a disconnected graph has no minimum vertex cut")
    if graph.edge_count == n * (n - 1) // 2:
        raise ValueError("a complete graph has no vertex cut")
    adjacency = _adjacency(graph)
    best_cut: set[NodeId] | None = None
    for s, t in _pivot_pairs(graph):
        cap = n if best_cut is None else len(best_cut)
        _, residual = _disjoint_paths(adjacency, s, t, cap)
        if residual is not None:
            best_cut = _residual_cut(residual)
    if best_cut is None:  # pragma: no cover - excluded by the guards above
        raise ValueError("no separable pair found")
    return best_cut


def is_vertex_cut(graph: Graph, nodes: frozenset[NodeId] | set[NodeId]) -> bool:
    """Whether removing ``nodes`` disconnects the remaining vertices.

    This is the Safety condition of Def. 3 ("if V_b is a vertex cut of
    G ...").  Removing everything (or all but one vertex) is not a cut.
    """
    remaining = [v for v in graph.nodes() if v not in nodes]
    if len(remaining) <= 1:
        return False
    stripped = graph.without_nodes(nodes)
    reachable = stripped.bfs_reachable(remaining[0], forbidden=frozenset(nodes))
    return len(reachable) != len(remaining)


def is_byzantine_partitionable(graph: Graph, t: int) -> bool:
    """Corollary 1: G is t-Byzantine partitionable iff κ(G) <= t."""
    if t < 0:
        raise ValueError("t must be non-negative")
    if t == 0:
        return not graph.is_connected()
    return vertex_connectivity(graph, cutoff=t + 1) <= t
