"""Tests for vertex connectivity — including property tests vs networkx.

The path-counting engine behind every function here is also pinned to
independent references built from networkx: its own connectivity
functions, and a brute-force Menger reference over the vertex-split
digraph (one max flow per non-adjacent pair, and the source side of
its residual for cuts).
"""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from networkx.algorithms.connectivity import local_node_connectivity
from networkx.algorithms.flow import edmonds_karp

from repro.errors import GraphError
from repro.graphs import INFINITY
from repro.graphs.connectivity import (
    is_byzantine_partitionable,
    is_vertex_cut,
    local_connectivity,
    minimum_st_vertex_cut,
    minimum_vertex_cut,
    vertex_connectivity,
)
from repro.graphs.generators.classic import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
    two_cliques_bridge,
)
from repro.graphs.graph import Graph


def to_networkx(graph: Graph) -> nx.Graph:
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(graph.nodes())
    nx_graph.add_edges_from(graph.edges())
    return nx_graph


class TestKnownValues:
    def test_path(self):
        assert vertex_connectivity(path_graph(6)) == 1

    def test_cycle(self):
        assert vertex_connectivity(cycle_graph(7)) == 2

    def test_star(self):
        assert vertex_connectivity(star_graph(8)) == 1

    def test_complete(self):
        assert vertex_connectivity(complete_graph(6)) == 5

    def test_grid(self):
        assert vertex_connectivity(grid_graph(3, 4)) == 2

    def test_two_cliques_bridges(self):
        for bridges in (1, 2, 3):
            graph = two_cliques_bridge(5, bridges=bridges)
            assert vertex_connectivity(graph) == bridges

    def test_disconnected_is_zero(self):
        assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0

    def test_isolated_vertex_is_zero(self):
        assert vertex_connectivity(Graph(3, [(0, 1)])) == 0

    def test_single_node(self):
        assert vertex_connectivity(Graph(1)) == 0

    def test_two_connected_nodes(self):
        assert vertex_connectivity(Graph(2, [(0, 1)])) == 1

    def test_cutoff_truncates(self):
        assert vertex_connectivity(complete_graph(8), cutoff=3) == 3

    def test_cutoff_above_kappa_is_exact(self):
        assert vertex_connectivity(cycle_graph(6), cutoff=5) == 2


class TestLocalConnectivity:
    def test_adjacent_is_infinite(self):
        graph = cycle_graph(5)
        assert local_connectivity(graph, 0, 1) == INFINITY

    def test_adjacent_with_cutoff(self):
        graph = cycle_graph(5)
        assert local_connectivity(graph, 0, 1, cutoff=3) == 3

    def test_cycle_opposite(self):
        graph = cycle_graph(6)
        assert local_connectivity(graph, 0, 3) == 2

    def test_same_vertex_rejected(self):
        with pytest.raises(ValueError):
            local_connectivity(cycle_graph(5), 2, 2)

    def test_matches_menger_disjoint_paths(self):
        """κ(s, t) on a graph with exactly 3 vertex-disjoint paths."""
        # s=0, t=7, three internally disjoint 0-x-y-7 paths.
        edges = [(0, 1), (1, 2), (2, 7), (0, 3), (3, 4), (4, 7), (0, 5), (5, 6), (6, 7)]
        graph = Graph(8, edges)
        assert local_connectivity(graph, 0, 7) == 3


class TestNodeRange:
    """Ids outside [0, n) are rejected, never wrapped or indexed."""

    graph = Graph(4, [(0, 1), (1, 2), (2, 3)])

    def test_local_connectivity_rejects_large_id(self):
        with pytest.raises(GraphError):
            local_connectivity(self.graph, 0, 7)

    def test_st_cut_rejects_large_id(self):
        with pytest.raises(GraphError):
            minimum_st_vertex_cut(self.graph, 0, 9)

    def test_local_connectivity_rejects_negative_id(self):
        with pytest.raises(GraphError):
            local_connectivity(self.graph, -1, 2)


class TestMinimumCuts:
    def test_st_cut_on_bridge_graph(self):
        graph = two_cliques_bridge(4, bridges=2)
        cut = minimum_st_vertex_cut(graph, 3, 7)  # non-bridge endpoints
        assert len(cut) == 2
        assert is_vertex_cut(graph, cut)

    def test_st_cut_rejects_adjacent(self):
        with pytest.raises(ValueError):
            minimum_st_vertex_cut(cycle_graph(5), 0, 1)

    def test_global_cut_matches_kappa(self):
        for graph in (cycle_graph(8), grid_graph(3, 3), two_cliques_bridge(4, 2)):
            cut = minimum_vertex_cut(graph)
            assert len(cut) == vertex_connectivity(graph)
            assert is_vertex_cut(graph, cut)

    def test_global_cut_rejects_complete(self):
        with pytest.raises(ValueError):
            minimum_vertex_cut(complete_graph(4))

    def test_global_cut_rejects_disconnected(self):
        with pytest.raises(ValueError):
            minimum_vertex_cut(Graph(4, [(0, 1), (2, 3)]))


class TestIsVertexCut:
    def test_star_center(self):
        assert is_vertex_cut(star_graph(6), {0})

    def test_star_leaf_is_not(self):
        assert not is_vertex_cut(star_graph(6), {3})

    def test_removing_almost_everything_is_not_a_cut(self):
        graph = cycle_graph(4)
        assert not is_vertex_cut(graph, {0, 1, 2})


class TestByzantinePartitionable:
    def test_corollary_on_star(self):
        # Fig. 1b: the star is 1-Byzantine partitionable.
        assert is_byzantine_partitionable(star_graph(8), 1)

    def test_corollary_on_two_connected(self):
        # Fig. 1a-style: a 2-connected graph is not 1-Byzantine partitionable.
        assert not is_byzantine_partitionable(cycle_graph(8), 1)

    def test_t_zero_means_actually_partitioned(self):
        assert is_byzantine_partitionable(Graph(4, [(0, 1), (2, 3)]), 0)
        assert not is_byzantine_partitionable(cycle_graph(4), 0)

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            is_byzantine_partitionable(cycle_graph(4), -1)


# ----------------------------------------------------------------------
# Property tests against networkx
# ----------------------------------------------------------------------
@st.composite
def random_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
    )
    return Graph(n, edges)


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_vertex_connectivity_matches_networkx(graph):
    ours = vertex_connectivity(graph)
    theirs = nx.node_connectivity(to_networkx(graph))
    assert ours == theirs


@settings(max_examples=60, deadline=None)
@given(random_graphs())
def test_kappa_bounded_by_min_degree(graph):
    assert vertex_connectivity(graph) <= max(graph.min_degree(), 0)


@settings(max_examples=40, deadline=None)
@given(random_graphs(), st.integers(min_value=0, max_value=12))
def test_cutoff_is_truncation(graph, cutoff):
    exact = vertex_connectivity(graph)
    truncated = vertex_connectivity(graph, cutoff=cutoff)
    assert truncated == min(exact, cutoff)


@settings(max_examples=40, deadline=None)
@given(random_graphs())
def test_minimum_cut_is_a_cut_of_kappa_size(graph):
    kappa = vertex_connectivity(graph)
    complete = graph.edge_count == graph.n * (graph.n - 1) // 2
    if not graph.is_connected() or complete:
        return
    cut = minimum_vertex_cut(graph)
    assert len(cut) == kappa
    assert is_vertex_cut(graph, cut)


# ----------------------------------------------------------------------
# The engine against a brute-force Menger reference and networkx
# ----------------------------------------------------------------------
def split_network(graph: Graph, source: int, sink: int) -> nx.DiGraph:
    """The vertex-split digraph of a κ(source, sink) query.

    v becomes v_in = 2v and v_out = 2v + 1 joined by a unit arc
    (uncapacitated for the terminals); each edge (u, v) becomes the
    uncapacitated arcs u_out -> v_in and v_out -> u_in.  networkx reads
    an arc without a ``capacity`` as uncapacitated.
    """
    network = nx.DiGraph()
    for vertex in graph.nodes():
        if vertex in (source, sink):
            network.add_edge(2 * vertex, 2 * vertex + 1)
        else:
            network.add_edge(2 * vertex, 2 * vertex + 1, capacity=1)
    for u, v in graph.edges():
        network.add_edge(2 * u + 1, 2 * v)
        network.add_edge(2 * v + 1, 2 * u)
    return network


def reference_kappa(graph: Graph, cutoff: int | None) -> int:
    """min over every non-adjacent pair of its split-graph max flow."""
    n = graph.n
    kappa = n - 1  # K_n by convention (and 0 for the single node)
    for s in range(n):
        for t in range(s + 1, n):
            if not graph.has_edge(s, t):
                network = split_network(graph, s, t)
                kappa = min(kappa, nx.maximum_flow_value(network, 2 * s + 1, 2 * t))
    return kappa if cutoff is None else min(kappa, cutoff)


def reference_cut(graph: Graph, source: int, sink: int) -> set[int]:
    """The saturated unit arcs leaving the source side of the residual.

    The source side is what the source reaches over arcs with
    ``flow < capacity``; it is the same for every maximum flow.
    ``nx.minimum_cut`` partitions by the sink side instead, which can
    give a different minimum cut.
    """
    network = split_network(graph, source, sink)
    residual = edmonds_karp(network, 2 * source + 1, 2 * sink)
    reachable = {2 * source + 1}
    queue = [2 * source + 1]
    for u in queue:  # grows while iterated
        for v, arc in residual[u].items():
            if arc["flow"] < arc["capacity"] and v not in reachable:
                reachable.add(v)
                queue.append(v)
    return {
        v
        for v in graph.nodes()
        if v not in (source, sink) and 2 * v in reachable and 2 * v + 1 not in reachable
    }


@st.composite
def graphs_up_to_14(draw, min_nodes=1):
    n = draw(st.integers(min_value=min_nodes, max_value=14))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not possible:
        return Graph(n)
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
    )
    return Graph(n, edges)


@st.composite
def graph_with_pair(draw):
    graph = draw(graphs_up_to_14(min_nodes=2))
    source, sink = draw(
        st.lists(
            st.integers(0, graph.n - 1), min_size=2, max_size=2, unique=True
        )
    )
    return graph, source, sink


cutoffs = st.one_of(st.none(), st.integers(min_value=1, max_value=8))


@settings(max_examples=80, deadline=None)
@given(graphs_up_to_14(), cutoffs)
def test_kappa_matches_brute_force_menger(graph, cutoff):
    assert vertex_connectivity(graph, cutoff=cutoff) == reference_kappa(graph, cutoff)


@settings(max_examples=80, deadline=None)
@given(graph_with_pair(), cutoffs)
def test_local_connectivity_matches_networkx(drawn, cutoff):
    graph, source, sink = drawn
    ours = local_connectivity(graph, source, sink, cutoff=cutoff)
    if graph.has_edge(source, sink):
        assert ours == (INFINITY if cutoff is None else cutoff)
        return
    theirs = local_node_connectivity(to_networkx(graph), source, sink)
    assert ours == (theirs if cutoff is None else min(theirs, cutoff))


@settings(max_examples=80, deadline=None)
@given(graph_with_pair())
def test_st_cut_matches_networkx_residual_cut(drawn):
    graph, source, sink = drawn
    if graph.has_edge(source, sink):
        return
    assert minimum_st_vertex_cut(graph, source, sink) == reference_cut(
        graph, source, sink
    )


def test_augmenting_path_cancels_an_earlier_path():
    """The only shortest path s-a-b-c-t blocks both disjoint routes.

    The second search must enter that path at c, run backwards through
    b (freeing it) to a, and leave again: s-a-y1-y2-y3-t plus
    s-x1-x2-x3-c-t.
    """
    s, a, b, c, t = 0, 1, 2, 3, 4
    x1, x2, x3, y1, y2, y3 = 5, 6, 7, 8, 9, 10
    edges = [
        (s, a), (a, b), (b, c), (c, t),
        (s, x1), (x1, x2), (x2, x3), (x3, c),
        (a, y1), (y1, y2), (y2, y3), (y3, t),
    ]
    graph = Graph(11, edges)
    assert local_connectivity(graph, s, t) == 2
    assert local_connectivity(graph, s, t, cutoff=2) == 2
    assert minimum_st_vertex_cut(graph, s, t) == reference_cut(graph, s, t)
    assert vertex_connectivity(graph) == reference_kappa(graph, None) == 2
