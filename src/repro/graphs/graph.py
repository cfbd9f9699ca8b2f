"""Undirected communication graphs (Sec. II).

:class:`Graph` is a small immutable adjacency-set structure.  It is
deliberately independent of networkx: the reproduction implements its
own graph algorithms (connectivity, reachability, diameter) and uses
networkx only as a test oracle.
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator

from repro.errors import GraphError
from repro.types import Edge, NodeId, canonical_edge, validate_node_ids


class Graph:
    """An immutable undirected graph over nodes ``0 .. n-1``.

    Args:
        n: number of nodes (nodes are the ids ``0 .. n-1``).
        edges: iterable of (u, v) pairs; order and duplicates are
            normalised away.

    Raises:
        GraphError: on out-of-range endpoints or self loops.
    """

    __slots__ = ("_n", "_adjacency", "_edges", "_digest")

    def __init__(self, n: int, edges: Iterable[Edge] = ()) -> None:
        if n < 1:
            raise GraphError("a graph needs at least one node")
        validate_node_ids([n - 1])
        adjacency: list[set[NodeId]] = [set() for _ in range(n)]
        edge_set: set[Edge] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u}, {v}) outside node range [0, {n})")
            try:
                edge = canonical_edge(u, v)
            except ValueError as exc:
                raise GraphError(str(exc)) from exc
            if edge in edge_set:
                continue
            edge_set.add(edge)
            adjacency[u].add(v)
            adjacency[v].add(u)
        self._n = n
        self._adjacency = tuple(frozenset(neighbors) for neighbors in adjacency)
        self._edges = frozenset(edge_set)
        self._digest: str | None = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Number of nodes."""
        return self._n

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return len(self._edges)

    def nodes(self) -> range:
        """All node ids."""
        return range(self._n)

    def edges(self) -> frozenset[Edge]:
        """All edges in canonical form."""
        return self._edges

    def neighbors(self, node: NodeId) -> frozenset[NodeId]:
        """The neighborhood Γ(node)."""
        if not 0 <= node < self._n:
            raise GraphError(f"node {node} outside range [0, {self._n})")
        return self._adjacency[node]

    def degree(self, node: NodeId) -> int:
        """|Γ(node)|."""
        return len(self.neighbors(node))

    def min_degree(self) -> int:
        """The minimum degree over all nodes."""
        return min(len(neighbors) for neighbors in self._adjacency)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """Whether (u, v) is a channel of the graph."""
        if u == v:
            return False
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        return v in self._adjacency[u]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def digest(self) -> str:
        """A stable content digest of ``(n, sorted edges)``.

        Two graphs share a digest iff they are equal, independently of
        construction order or process — which makes the digest usable
        as a content address across worker processes and on disk (the
        artifact layer keys connectivity certificates by it).  Computed
        lazily and memoised; the graph is immutable so the digest never
        goes stale.
        """
        if self._digest is None:
            hasher = hashlib.sha256(f"graph|{self._n}|".encode())
            for u, v in sorted(self._edges):
                hasher.update(f"{u},{v};".encode())
            self._digest = hasher.hexdigest()
        return self._digest

    # ------------------------------------------------------------------
    # Pickling
    # ------------------------------------------------------------------
    def __getstate__(self) -> tuple:
        return (self._n, sorted(self._edges), self._digest)

    def __setstate__(self, state: tuple) -> None:
        n, edges, digest = state
        self.__init__(n, edges)
        self._digest = digest

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(n={self._n}, edges={self.edge_count})"

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def without_nodes(self, removed: Iterable[NodeId]) -> "Graph":
        """The subgraph induced by removing ``removed``.

        Node ids are preserved: removed nodes become isolated and are
        excluded from every edge.  Keeping ids stable (instead of
        compacting them) matches how the paper reasons about the
        "subgraph of correct nodes" while nodes keep their identity.
        """
        removed_set = set(removed)
        kept_edges = [
            edge for edge in self._edges
            if edge[0] not in removed_set and edge[1] not in removed_set
        ]
        return Graph(self._n, kept_edges)

    def induced(self, kept: Iterable[NodeId]) -> "Graph":
        """The subgraph induced by keeping only ``kept`` nodes."""
        kept_set = set(kept)
        return self.without_nodes(set(self.nodes()) - kept_set)

    def with_edges(self, extra: Iterable[Edge]) -> "Graph":
        """A new graph with additional edges."""
        return Graph(self._n, list(self._edges) + list(extra))

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def bfs_reachable(
        self, source: NodeId, forbidden: frozenset[NodeId] = frozenset()
    ) -> set[NodeId]:
        """Nodes reachable from ``source`` avoiding ``forbidden`` nodes.

        ``source`` itself is included (unless it is forbidden, in which
        case the result is empty).
        """
        if source in forbidden:
            return set()
        seen = {source}
        frontier = [source]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in self._adjacency[node]:
                    if neighbor in seen or neighbor in forbidden:
                        continue
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
            frontier = next_frontier
        return seen

    def connected_components(self) -> list[set[NodeId]]:
        """All connected components, as sets of node ids."""
        remaining = set(self.nodes())
        components = []
        while remaining:
            source = next(iter(remaining))
            component = self.bfs_reachable(source)
            components.append(component)
            remaining -= component
        return components

    def is_connected(self) -> bool:
        """Whether the whole graph is one component."""
        return len(self.bfs_reachable(0)) == self._n

    def bfs_distances(self, source: NodeId) -> dict[NodeId, int]:
        """Hop distances from ``source`` to every reachable node."""
        distances = {source: 0}
        frontier = [source]
        depth = 0
        while frontier:
            depth += 1
            next_frontier = []
            for node in frontier:
                for neighbor in self._adjacency[node]:
                    if neighbor not in distances:
                        distances[neighbor] = depth
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return distances

    def iter_adjacency(self) -> Iterator[tuple[NodeId, frozenset[NodeId]]]:
        """Yield (node, neighborhood) pairs."""
        for node in self.nodes():
            yield node, self._adjacency[node]


def graph_from_adjacency(adjacency: dict[NodeId, Iterable[NodeId]], n: int) -> Graph:
    """Build a :class:`Graph` from an adjacency mapping."""
    edges = []
    for node, neighbors in adjacency.items():
        for neighbor in neighbors:
            edges.append((node, neighbor))
    return Graph(n, edges)


def complete_graph_edges(n: int) -> list[Edge]:
    """All edges of the complete graph K_n."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]
