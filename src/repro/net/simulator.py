"""Deterministic lock-step execution of synchronous round protocols.

The paper's system model (Sec. II) *is* the synchronous model: there
is a bound ΔT such that every message sent in a round arrives before
the next one, channels are reliable, and processing time is
negligible.  A lock-step scheduler is therefore a faithful executor of
that model (what the paper approximates with timeouts over TCP, we get
exactly).

The scheduler also enforces the model's physical constraints on
*every* node, Byzantine ones included:

* messages can only be sent over existing channels — "Byzantine nodes
  cannot prevent two correct neighbors from communicating" and cannot
  reach non-neighbors directly;
* every sent message is delivered within the round (reliable links);
* a payload that cannot be sized (a Byzantine sender's garbage) never
  leaves its sender: it is neither counted nor delivered.

What the physical channel does to in-flight messages is delegated to a
:class:`repro.net.channel.ChannelModel` (DESIGN.md §8): ``reliable``
(the paper's model, the default), ``lossy`` (MindTheGap's Sec. VI-A
regime — "MtG detects 90% of partitions despite a 40% message loss
rate" — reproduced by ``benchmarks/bench_mtg_loss_tolerance.py``),
``jittered``, ``mobility`` and ``budgeted``.
"""

from __future__ import annotations

import abc
from typing import Any, Mapping

from repro.crypto.sizes import DEFAULT_PROFILE, WireProfile
from repro.errors import ChannelError, ProtocolError
from repro.graphs.graph import Graph
from repro.net.channel import RELIABLE_CHANNEL, ChannelModel
from repro.net.message import Envelope, Outgoing
from repro.net.stats import TrafficStats
from repro.types import NodeId


class RoundProtocol(abc.ABC):
    """A per-node protocol driven by the synchronous scheduler.

    Lifecycle, for rounds ``1 .. R``:

    1. :meth:`begin_round` — produce this round's sends (round 1 sends
       the initial messages; later rounds typically relay what was
       received in the previous round);
    2. :meth:`deliver` — called once per incoming message of the round;
    3. after the last round, :meth:`conclude` — the one-shot
       ``decide()`` of the specification.
    """

    @property
    @abc.abstractmethod
    def node_id(self) -> NodeId:
        """Id of the node running this protocol instance."""

    @abc.abstractmethod
    def begin_round(self, round_number: int) -> list[Outgoing]:
        """Return the messages to send in ``round_number``."""

    @abc.abstractmethod
    def deliver(self, round_number: int, sender: NodeId, payload: Any) -> None:
        """Handle one message received during ``round_number``."""

    @abc.abstractmethod
    def conclude(self) -> Any:
        """Decide; called exactly once, after the last round."""


class SyncNetwork:
    """Lock-step scheduler over a static graph.

    Args:
        graph: the communication graph G.
        protocols: one :class:`RoundProtocol` per node id of ``graph``.
        profile: wire profile used for byte accounting.
        channel: what the physical channel does to in-flight messages
            (default: the paper's reliable channels); message loss is
            ``channel=LossyChannel(p)``.  Dropped messages count as
            sent but not received.
        loss_seed: RNG seed for the channel model's state.
        quiescence_skip: stop iterating once a round emits zero sends
            (DESIGN.md §6.2).  A round without sends delivers nothing,
            so under the round-protocol contract — sends after round 1
            are a function of earlier deliveries only — every remaining
            round is a no-op: skipping them preserves verdicts, byte
            accounting, and (because no messages means no loss-RNG
            draws) the exact lossy-channel drop set.  Disable for
            protocols that emit spontaneously on a round-number
            schedule after a silent round; no protocol in this
            repository does (the always-gossiping baselines simply
            never quiesce).

    Raises:
        ProtocolError: when the protocol map does not cover the graph.
    """

    def __init__(
        self,
        graph: Graph,
        protocols: Mapping[NodeId, RoundProtocol],
        profile: WireProfile = DEFAULT_PROFILE,
        channel: ChannelModel = RELIABLE_CHANNEL,
        loss_seed: int = 0,
        quiescence_skip: bool = True,
    ) -> None:
        if set(protocols) != set(graph.nodes()):
            raise ProtocolError("protocols must cover exactly the graph's nodes")
        for node_id, protocol in protocols.items():
            if protocol.node_id != node_id:
                raise ProtocolError(
                    f"protocol registered at {node_id} claims id {protocol.node_id}"
                )
        self._graph = graph
        self._protocols = dict(protocols)
        self._profile = profile
        self.channel = channel
        self._channel_state = channel.state(graph, loss_seed)
        self._quiescence_skip = quiescence_skip
        self.stats = TrafficStats()
        #: rounds asked for / actually iterated by the last :meth:`run`.
        self.rounds_requested = 0
        self.rounds_executed = 0
        self._ran = False

    @property
    def rounds_skipped(self) -> int:
        """Provably-no-op rounds elided by quiescence short-circuiting."""
        return self.rounds_requested - self.rounds_executed

    def run(self, rounds: int) -> dict[NodeId, Any]:
        """Execute ``rounds`` synchronous rounds and collect verdicts.

        Returns:
            ``{node_id: protocol.conclude()}`` for every node.

        Raises:
            ChannelError: if any node (Byzantine included) attempts to
                send over a non-existent channel — the model forbids it.
            ProtocolError: when reused, or on a non-positive round count.
        """
        if self._ran:
            raise ProtocolError("a SyncNetwork instance runs exactly once")
        if rounds < 1:
            raise ProtocolError("at least one round is required")
        self._ran = True
        self.rounds_requested = rounds
        node_order = sorted(self._protocols)
        for round_number in range(1, rounds + 1):
            self.rounds_executed = round_number
            deliveries: list[tuple[Envelope, NodeId, int]] = []
            for node_id in node_order:
                protocol = self._protocols[node_id]
                sent_bytes = 0
                sent_count = 0
                for outgoing in protocol.begin_round(round_number):
                    self._check_channel(node_id, outgoing)
                    envelope = Envelope(
                        sender=node_id,
                        round_number=round_number,
                        payload=outgoing.payload,
                    )
                    try:
                        size = envelope.wire_size(self._profile)
                    except (TypeError, AttributeError):
                        continue  # a Byzantine payload with no wire size: dropped
                    sent_bytes += size
                    sent_count += 1
                    deliveries.append((envelope, outgoing.destination, size))
                self.stats.record_send_bulk(node_id, sent_bytes, sent_count)
            # Synchrony: everything sent in this round arrives before
            # the next round starts (unless the channel model drops
            # it).  The channel's drop decisions are drawn first, in
            # the historical one-draw-per-delivery order, so the mask
            # pass leaves stateful (RNG) channels bit-identical; the
            # per-receiver byte totals then land as one bulk update
            # per node per round.
            channel_state = self._channel_state
            if channel_state.always_delivers:
                kept = deliveries
            else:
                kept = [
                    delivery
                    for delivery in deliveries
                    if channel_state.delivers(
                        round_number, delivery[0].sender, delivery[1]
                    )
                ]
            received_bytes: dict[NodeId, int] = {}
            received_count: dict[NodeId, int] = {}
            for _, destination, size in kept:
                received_bytes[destination] = (
                    received_bytes.get(destination, 0) + size
                )
                received_count[destination] = received_count.get(destination, 0) + 1
            for destination, total in received_bytes.items():
                self.stats.record_receive_bulk(
                    destination, total, received_count[destination]
                )
            for envelope, destination, size in kept:
                self._protocols[destination].deliver(
                    round_number, envelope.sender, envelope.payload
                )
            if self._quiescence_skip and not deliveries:
                # Nothing was sent, so nothing was delivered; all
                # remaining rounds are no-ops and can be elided.
                break
        return {
            node_id: self._protocols[node_id].conclude() for node_id in node_order
        }

    def _check_channel(self, sender: NodeId, outgoing: Outgoing) -> None:
        if not self._graph.has_edge(sender, outgoing.destination):
            raise ChannelError(
                f"node {sender} attempted to send to non-neighbor "
                f"{outgoing.destination}; no such channel exists in G"
            )
