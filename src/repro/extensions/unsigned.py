"""Signature-free partition detection (the paper's Sec. VII conjecture).

    "we posit that it [Byzantine partition detection] can be
    accomplished without signatures in synchronous networks, albeit at
    a significant cost."

This module explores that conjecture constructively.  Instead of
chained signatures, edge announcements travel Dolev-style with the
path they followed, and a node accepts an edge (u, v) only when

* **both endpoints** independently claimed the edge (a correct node
  never claims a fictitious edge, so a single Byzantine node cannot
  attach itself to a correct victim — the unsigned analogue of the
  co-signed neighborhood proof), and
* each endpoint's claim is supported by t + 1 internally
  vertex-disjoint paths (or direct reception), so at least one copy
  travelled a fully correct route — the unsigned analogue of an
  unforgeable signature (Dolev [11]).

The decision phase is NECTAR's, unchanged.  The price is exactly what
the paper predicts: path-annotated flooding multiplies message counts
(worst case O(n!) versus NECTAR's O(n^4)), and acceptance needs
higher connectivity — claims only certify on well-connected graphs,
making the unsigned variant *more conservative* (it may answer
PARTITIONABLE where signed NECTAR certifies NOT_PARTITIONABLE, but
never the other way around on the same evidence).  The companion
bench quantifies the cost gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.core.decision import decide
from repro.errors import ProtocolError
from repro.extensions.dolev import DIRECT, disjoint_path_support, is_id_tuple
from repro.graphs.graph import Graph
from repro.net.message import Outgoing
from repro.net.simulator import RoundProtocol
from repro.crypto.sizes import WireProfile
from repro.types import Edge, NodeId, Verdict, canonical_edge


@dataclass(frozen=True)
class EdgeClaim:
    """An unsigned edge claim in flight.

    Attributes:
        claimant: the endpoint asserting the edge (must be one of the
            edge's endpoints; receivers enforce it).
        edge: the claimed edge, canonical.
        path: relays traversed so far (claimant and receiver excluded).
    """

    claimant: NodeId
    edge: Edge
    path: tuple[NodeId, ...]

    def encoded_size(self, profile: WireProfile) -> int:
        return profile.node_id_bytes * (3 + len(self.path))


class UnsignedNectarNode(RoundProtocol):
    """NECTAR without signatures, using disjoint-path evidence.

    Args:
        node_id: this node.
        n: system size.
        t: Byzantine bound.
        neighbors: Γ(node_id).
        connectivity_cutoff: forwarded to the decision phase.
    """

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        t: int,
        neighbors: Iterable[NodeId],
        connectivity_cutoff: int | None = None,
    ) -> None:
        if t < 0:
            raise ProtocolError("t must be non-negative")
        self._node_id = node_id
        self._n = n
        self._t = t
        self._neighbors = frozenset(neighbors)
        if node_id in self._neighbors:
            raise ProtocolError("a node cannot neighbor itself")
        self._connectivity_cutoff = connectivity_cutoff
        # Evidence: (claimant, edge) -> received paths.
        self._paths: dict[tuple[NodeId, Edge], set[tuple[NodeId, ...]]] = {}
        self._certified: set[tuple[NodeId, Edge]] = set()
        self._seen_copies: set[EdgeClaim] = set()
        self._pending: list[tuple[EdgeClaim, NodeId]] = []
        self._decided = False
        # Our own adjacency is ground truth (channel authenticity).
        for neighbor in self._neighbors:
            edge = canonical_edge(node_id, neighbor)
            self._certified.add((node_id, edge))
            self._certified.add((neighbor, edge))

    # ------------------------------------------------------------------
    # RoundProtocol interface
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> NodeId:
        return self._node_id

    def accepted_edges(self) -> frozenset[Edge]:
        """Edges certified by both endpoints' claims."""
        by_edge: dict[Edge, set[NodeId]] = {}
        for claimant, edge in self._certified:
            by_edge.setdefault(edge, set()).add(claimant)
        return frozenset(
            edge
            for edge, claimants in by_edge.items()
            if set(edge) <= claimants
        )

    def begin_round(self, round_number: int) -> list[Outgoing]:
        outgoing: list[Outgoing] = []
        if round_number == 1:
            for neighbor in sorted(self._neighbors):
                claim_targets = sorted(self._neighbors)
                for other in claim_targets:
                    claim = EdgeClaim(
                        claimant=self._node_id,
                        edge=canonical_edge(self._node_id, other),
                        path=DIRECT,
                    )
                    outgoing.append(Outgoing(destination=neighbor, payload=claim))
        pending, self._pending = self._pending, []
        for claim, received_from in pending:
            relayed = EdgeClaim(
                claimant=claim.claimant,
                edge=claim.edge,
                path=claim.path + (self._node_id,),
            )
            blocked = set(relayed.path) | {claim.claimant, received_from}
            outgoing.extend(
                Outgoing(destination=neighbor, payload=relayed)
                for neighbor in sorted(self._neighbors - blocked)
            )
        return outgoing

    def deliver(self, round_number: int, sender: NodeId, payload: Any) -> None:
        if not isinstance(payload, EdgeClaim):
            return
        edge = payload.edge
        if not (is_id_tuple(payload.path) and is_id_tuple(edge) and len(edge) == 2):
            return
        if not 0 <= edge[0] < edge[1] < self._n:
            return  # canonical edges only, as NECTAR's validation rule 3
        if type(payload.claimant) is not int or payload.claimant not in edge:
            return  # only endpoints may claim an edge
        if self._node_id in payload.path or payload.claimant == self._node_id:
            return
        if payload.path:
            if payload.path[-1] != sender:
                return  # the channel contradicts the annotated path
        elif payload.claimant != sender:
            return
        if payload in self._seen_copies:
            return
        self._seen_copies.add(payload)
        key = (payload.claimant, payload.edge)
        self._paths.setdefault(key, set()).add(payload.path)
        if key not in self._certified:
            if disjoint_path_support(
                payload.claimant, self._node_id, self._paths[key], self._t + 1
            ):
                self._certified.add(key)
            self._pending.append((payload, sender))

    def conclude(self) -> Verdict:
        if self._decided:
            raise ProtocolError("decide() is one-shot")
        self._decided = True
        # Reuse NECTAR's decision phase over the certified edges.
        from repro.core.adjacency import DiscoveredGraph
        from repro.crypto.proofs import NeighborhoodProof

        discovered = DiscoveredGraph(self._n)
        for edge in self.accepted_edges():
            discovered.add(
                NeighborhoodProof(edge=edge, signature_lo=b"", signature_hi=b"")
            )
        return decide(
            discovered,
            self._node_id,
            self._t,
            connectivity_cutoff=self._connectivity_cutoff,
        )


class LyingClaimantNode(RoundProtocol):
    """Byzantine node claiming fictitious edges in the unsigned variant.

    The attack the both-endpoints rule exists to stop: the liar floods
    claims for edges toward ``victims`` it does not actually have.
    Correct victims never co-claim, so the edges are never certified
    (asserted by tests and the property suite).
    """

    def __init__(
        self,
        node_id: NodeId,
        neighbors: Iterable[NodeId],
        victims: Iterable[NodeId],
    ) -> None:
        self._node_id = node_id
        self._neighbors = sorted(set(neighbors))
        self._victims = sorted(set(victims) - {node_id})

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    def begin_round(self, round_number: int) -> list[Outgoing]:
        if round_number != 1:
            return []
        outgoing = []
        for victim in self._victims:
            claim = EdgeClaim(
                claimant=self._node_id,
                edge=canonical_edge(self._node_id, victim),
                path=DIRECT,
            )
            outgoing.extend(
                Outgoing(destination=neighbor, payload=claim)
                for neighbor in self._neighbors
            )
        return outgoing

    def deliver(self, round_number: int, sender: NodeId, payload: Any) -> None:
        pass

    def conclude(self) -> None:
        return None


def unsigned_round_count(n: int) -> int:
    """Path-annotated flooding may need up to n rounds to unfold."""
    return max(1, n)


def build_unsigned_protocols(
    graph: Graph, t: int, connectivity_cutoff: int | None = None
) -> dict[NodeId, UnsignedNectarNode]:
    """One honest unsigned node per vertex of ``graph``."""
    return {
        v: UnsignedNectarNode(
            v,
            graph.n,
            t,
            graph.neighbors(v),
            connectivity_cutoff=connectivity_cutoff,
        )
        for v in graph.nodes()
    }
