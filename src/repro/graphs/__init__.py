"""Graph substrate: structure, connectivity, analysis, generators."""

from repro.graphs.analysis import (
    GraphSummary,
    correct_subgraph,
    correct_subgraph_partitioned,
    diameter,
    summarize,
)
from repro.graphs.connectivity import (
    INFINITY,
    is_byzantine_partitionable,
    is_vertex_cut,
    local_connectivity,
    minimum_st_vertex_cut,
    minimum_vertex_cut,
    vertex_connectivity,
)
from repro.graphs.graph import Graph, complete_graph_edges, graph_from_adjacency

__all__ = [
    "GraphSummary",
    "correct_subgraph",
    "correct_subgraph_partitioned",
    "diameter",
    "summarize",
    "is_byzantine_partitionable",
    "is_vertex_cut",
    "local_connectivity",
    "minimum_st_vertex_cut",
    "minimum_vertex_cut",
    "vertex_connectivity",
    "Graph",
    "complete_graph_edges",
    "graph_from_adjacency",
    "INFINITY",
]
