"""Dolev's reliable communication on partially connected networks.

The related-work substrate of Sec. VI-B: Dolev [11] showed that
reliable point-to-point communication despite t Byzantine nodes is
possible iff the network is (2t+1)-connected, *without signatures*,
by flooding messages annotated with the path they travelled.  A
receiver delivers a message once it can exhibit t + 1 internally
vertex-disjoint paths that carried identical copies: at most t of any
t + 1 disjoint paths can contain a Byzantine node, so at least one
copy is authentic.

This module implements the unknown-topology variant as a
:class:`repro.net.simulator.RoundProtocol`, including the classic
optimisations that make it tractable on small graphs:

* copies received directly from the claimed source count as a
  zero-length (always-authentic) path;
* once delivered, a node stops relaying further copies of the same
  message (Bonomi et al. [12], optimisation MD.1-style).

The disjoint-path test is exact: it counts internally vertex-disjoint
source→target paths in the directed union of the received paths, with
the engine that certifies κ (:mod:`repro.graphs.connectivity`).

It is both a faithful reproduction of the paper's cited substrate and
the engine behind :mod:`repro.extensions.unsigned`, the signature-free
NECTAR variant conjectured in the paper's conclusion.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Hashable, Iterable

from repro.errors import ProtocolError
from repro.graphs.connectivity import _disjoint_paths
from repro.net.simulator import RoundProtocol
from repro.net.message import Outgoing
from repro.crypto.sizes import WireProfile
from repro.types import NodeId

#: Marker meaning "received straight from the source over the channel".
DIRECT: tuple[NodeId, ...] = ()


def is_id_tuple(value: Any) -> bool:
    """Whether ``value`` is a tuple of node ids, as honest paths and edges are.

    The scheduler hands payloads over as sent, so a Byzantine neighbour
    can put anything in a path field.
    """
    return type(value) is tuple and all(type(vertex) is int for vertex in value)


def disjoint_path_support(
    source: NodeId,
    target: NodeId,
    paths: Iterable[tuple[NodeId, ...]],
    threshold: int,
) -> bool:
    """Whether ``paths`` contain ``threshold`` internally disjoint paths.

    Args:
        source: the claimed originator.
        target: the evaluating node.
        paths: relay sequences (source and target excluded); the empty
            path denotes direct reception and is unconditionally
            authentic, so it counts as one disjoint path that no other
            path can collide with.
        threshold: required number of internally disjoint paths.

    The count runs on the directed union of the paths, with an arc a→b
    for each pair of consecutive hops; an undirected union over-counts.
    Its number of internally disjoint source→target paths is exactly
    the number of disjoint routes within the received evidence
    (Menger's theorem again).  A cyclic path, one that repeats a vertex
    or passes through a terminal, adds nothing.
    """
    if threshold <= 0:
        return True
    path_list = [tuple(p) for p in paths]
    if DIRECT in path_list:
        # Direct reception is proof by itself; remaining demand drops
        # by one and no relay vertex is consumed.
        remaining = [p for p in path_list if p != DIRECT]
        return disjoint_path_support(source, target, remaining, threshold - 1)
    if source == target:
        return False  # every path from a node to itself is cyclic
    # Dense-index the vertices mentioned by the evidence: the source is
    # 0 and the target 1, which has in-arcs only.
    vertices = {source: 0, target: 1}
    out_neighbors: list[set[int]] = [set(), set()]
    into_target: set[int] = set()
    for path in path_list:
        hops = [source, *path, target]
        if len(set(hops)) != len(hops):
            continue  # cyclic path: worthless evidence
        dense = []
        for vertex in hops:
            if vertex not in vertices:
                vertices[vertex] = len(out_neighbors)
                out_neighbors.append(set())
            dense.append(vertices[vertex])
        for a, b in zip(dense, dense[1:]):
            out_neighbors[a].add(b)
        into_target.add(dense[-2])
    count, _ = _disjoint_paths(out_neighbors, 0, 1, threshold, into_target)
    return count == threshold


@dataclass(frozen=True)
class DolevMessage:
    """A flooded copy: the claimed source, its payload and the path."""

    source: NodeId
    content: Hashable
    path: tuple[NodeId, ...]

    def encoded_size(self, profile: WireProfile) -> int:
        # source + per-hop ids + a fixed content stand-in of 32 bytes.
        return profile.node_id_bytes * (1 + len(self.path)) + 32


class DolevNode(RoundProtocol):
    """One node of Dolev's unsigned reliable broadcast.

    Args:
        node_id: this node.
        t: Byzantine bound; delivery requires t + 1 disjoint paths.
        neighbors: Γ(node_id).
        broadcast: content to reliably broadcast, or ``None`` for a
            pure relay/receiver node.
    """

    def __init__(
        self,
        node_id: NodeId,
        t: int,
        neighbors: Iterable[NodeId],
        broadcast: Hashable | None = None,
    ) -> None:
        if t < 0:
            raise ProtocolError("t must be non-negative")
        self._node_id = node_id
        self._t = t
        self._neighbors = frozenset(neighbors)
        if node_id in self._neighbors:
            raise ProtocolError("a node cannot neighbor itself")
        self._broadcast = broadcast
        # Evidence: (source, content) -> set of received paths.
        self._paths: dict[tuple[NodeId, Hashable], set[tuple[NodeId, ...]]] = {}
        self._delivered: set[tuple[NodeId, Hashable]] = set()
        self._seen_copies: set[DolevMessage] = set()
        self._pending: list[tuple[DolevMessage, NodeId]] = []

    # ------------------------------------------------------------------
    # RoundProtocol interface
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def delivered(self) -> frozenset[tuple[NodeId, Hashable]]:
        """(source, content) pairs reliably delivered so far."""
        return frozenset(self._delivered)

    def begin_round(self, round_number: int) -> list[Outgoing]:
        outgoing: list[Outgoing] = []
        if round_number == 1 and self._broadcast is not None:
            message = DolevMessage(
                source=self._node_id, content=self._broadcast, path=DIRECT
            )
            outgoing.extend(
                Outgoing(destination=neighbor, payload=message)
                for neighbor in sorted(self._neighbors)
            )
        pending, self._pending = self._pending, []
        for message, received_from in pending:
            relayed = DolevMessage(
                source=message.source,
                content=message.content,
                path=message.path + (self._node_id,),
            )
            blocked = set(relayed.path) | {message.source, received_from}
            outgoing.extend(
                Outgoing(destination=neighbor, payload=relayed)
                for neighbor in sorted(self._neighbors - blocked)
            )
        return outgoing

    def deliver(self, round_number: int, sender: NodeId, payload: Any) -> None:
        if not isinstance(payload, DolevMessage):
            return
        if type(payload.source) is not int or not is_id_tuple(payload.path):
            return
        try:
            hash(payload.content)
        except TypeError:
            return  # unhashable content cannot key the evidence
        if self._node_id in payload.path or payload.source == self._node_id:
            return  # our own relay echoed back: drop
        # The path must end at the delivering neighbor (or be direct
        # from the source itself) — the channel authenticates the hop.
        if payload.path:
            if payload.path[-1] != sender:
                return
        elif payload.source != sender:
            return
        if payload in self._seen_copies:
            return
        self._seen_copies.add(payload)
        key = (payload.source, payload.content)
        self._paths.setdefault(key, set()).add(payload.path)
        if key not in self._delivered:
            if disjoint_path_support(
                payload.source, self._node_id, self._paths[key], self._t + 1
            ):
                self._delivered.add(key)
            # Relay only while undelivered (and the copy that completed
            # the proof): delivered messages need no more evidence.
            self._pending.append((payload, sender))
        # else: suppression — no further relaying of delivered messages.

    def conclude(self) -> frozenset[tuple[NodeId, Hashable]]:
        return self.delivered


def dolev_round_count(n: int) -> int:
    """Rounds for every path to unfold: n is always sufficient."""
    return max(1, n)
