"""The discovered graph G_i of Algorithm 1.

Each node keeps "an adjacency matrix that will contain all the edges
it discovers during the algorithm's execution", holding a neighborhood
proof per known edge (Algorithm 1, ll. 1-4).  We store it sparsely as
a proof-by-edge map.  What queries derive from the proof keys lives in
a memo that copies share until either side's next ``add()``, so nodes
ending a run with the same G_i (Lemma 2) traverse it once.
"""

from __future__ import annotations

from repro.crypto.proofs import NeighborhoodProof
from repro.graphs.graph import Graph
from repro.types import Edge, NodeId, canonical_edge


class _Memo:
    """Filled on first query; a field is assigned only once complete."""

    __slots__ = ("adjacency", "edges", "components")

    def __init__(self) -> None:
        self.adjacency: dict[NodeId, list[NodeId]] | None = None
        self.edges: frozenset[Edge] | None = None
        self.components: dict[NodeId, frozenset[NodeId]] = {}  # one per member


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
        self._memo: _Memo | None = None

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
        return u != v and canonical_edge(u, v) in self._proofs

    def add(self, proof: NeighborhoodProof) -> bool:
        """Record an edge's proof; returns False if already known."""
        edge = proof.edge
        if edge in self._proofs:
            return False
        u, v = edge
        if not (0 <= u < self._n and 0 <= v < self._n):
            raise ValueError(f"edge {edge} outside the id space [0, {self._n})")
        self._proofs[edge] = proof
        self._memo = None  # copies sharing the old memo keep it
        return True

    def copy(self) -> DiscoveredGraph:
        """An independent copy sharing the (immutable) proof objects
        and, until either side's next :meth:`add`, the query memo."""
        clone = DiscoveredGraph(self._n)
        clone._proofs = dict(self._proofs)
        clone._memo = self._shared_memo()
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
        """All recorded edges (one frozenset, hashed once, per memo)."""
        memo = self._shared_memo()
        if memo.edges is None:
            memo.edges = frozenset(self._proofs)
        return memo.edges

    def reachable_from(self, source: NodeId) -> set[NodeId]:
        """Nodes reachable from ``source`` in the discovered graph.

        This implements ``DetectReachableNode(G_i)`` (Algorithm 1,
        l. 16): the node counts how many processes it can see a path
        to, itself included.  One BFS per component and memo; the
        caller owns the returned set.
        """
        memo = self._shared_memo()
        component = memo.components.get(source)
        if component is None:
            adjacency = memo.adjacency
            if adjacency is None:
                adjacency = {}
                for u, v in self._proofs:
                    adjacency.setdefault(u, []).append(v)
                    adjacency.setdefault(v, []).append(u)
                memo.adjacency = adjacency
            seen, queue = {source}, [source]
            for node in queue:  # the queue grows while it is walked
                for neighbor in adjacency.get(node, ()):
                    if neighbor not in seen:
                        seen.add(neighbor)
                        queue.append(neighbor)
            component = frozenset(seen)
            memo.components.update(dict.fromkeys(component, component))
        return set(component)

    def to_graph(self) -> Graph:
        """The discovered topology as a plain :class:`Graph` on n nodes."""
        return Graph(self._n, self._proofs.keys())

    def _shared_memo(self) -> _Memo:
        memo = self._memo
        if memo is None:
            memo = self._memo = _Memo()
        return memo
