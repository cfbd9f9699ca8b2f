"""The discovered graph G_i of Algorithm 1.

Each node keeps "an adjacency matrix that will contain all the edges
it discovers during the algorithm's execution", holding a neighborhood
proof per known edge (Algorithm 1, ll. 1-4).  We store it sparsely as
a proof-by-edge map with an adjacency index for traversal.
"""

from __future__ import annotations

from repro.crypto.proofs import NeighborhoodProof
from repro.graphs.graph import Graph
from repro.types import Edge, NodeId, canonical_edge


class DiscoveredGraph:
    """A node's evolving view of the topology, with proofs.

    Args:
        n: total number of processes (known to all, Sec. II).
    """

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError("n must be positive")
        self._n = n
        self._proofs: dict[Edge, NeighborhoodProof] = {}
        self._adjacency: dict[NodeId, set[NodeId]] = {}

    @property
    def n(self) -> int:
        """Total number of processes in the system."""
        return self._n

    @property
    def proofs(self) -> dict[Edge, NeighborhoodProof]:
        """The proof-by-canonical-edge map (read-only by convention).

        Exposed so hot receive loops can test membership without a
        method call per delivered announcement copy; mutate only
        through :meth:`add`.
        """
        return self._proofs

    def knows(self, u: NodeId, v: NodeId) -> bool:
        """Whether the edge (u, v) is already recorded (l. 14's check)."""
        # Inlined canonicalisation: this runs once per delivered
        # announcement copy, ahead of all other validation.
        if u > v:
            u, v = v, u
        elif u == v:
            return False  # self loops are never recorded
        return (u, v) in self._proofs

    def add(self, proof: NeighborhoodProof) -> bool:
        """Record an edge's proof; returns False if already known."""
        edge = proof.edge
        if edge in self._proofs:
            return False
        u, v = edge
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise ValueError(f"edge {edge} outside the id space [0, {self._n})")
        self._proofs[edge] = proof
        self._adjacency.setdefault(u, set()).add(v)
        self._adjacency.setdefault(v, set()).add(u)
        return True

    def copy(self) -> DiscoveredGraph:
        """An independent copy sharing the (immutable) proof objects."""
        clone = DiscoveredGraph(self._n)
        clone._proofs = dict(self._proofs)
        clone._adjacency = {node: set(peers) for node, peers in self._adjacency.items()}
        return clone

    def proof_of(self, u: NodeId, v: NodeId) -> NeighborhoodProof:
        """The recorded proof for an edge.

        Raises:
            KeyError: if the edge is unknown.
        """
        return self._proofs[canonical_edge(u, v)]

    def edge_count(self) -> int:
        """Number of recorded edges."""
        return len(self._proofs)

    def edges(self) -> frozenset[Edge]:
        """All recorded edges."""
        return frozenset(self._proofs)

    def reachable_from(self, source: NodeId) -> set[NodeId]:
        """Nodes reachable from ``source`` in the discovered graph.

        This implements ``DetectReachableNode(G_i)`` (Algorithm 1,
        l. 16): the node counts how many processes it can see a path
        to, itself included.
        """
        seen = {source}
        frontier = [source]
        while frontier:
            next_frontier = []
            for node in frontier:
                for neighbor in self._adjacency.get(node, ()):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        next_frontier.append(neighbor)
            frontier = next_frontier
        return seen

    def to_graph(self) -> Graph:
        """The discovered topology as a plain :class:`Graph` on n nodes."""
        return Graph(self._n, self._proofs.keys())
