"""Traffic accounting.

The paper's cost metric is "data sent per node (KBytes)" (Figs. 3-7).
:class:`TrafficStats` tracks bytes and message counts per node on the
send side (and bytes received, used by tests for conservation checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.types import NodeId


@dataclass
class TrafficStats:
    """Mutable per-run traffic counters."""

    bytes_sent: dict[NodeId, int] = field(default_factory=dict)
    bytes_received: dict[NodeId, int] = field(default_factory=dict)
    messages_sent: dict[NodeId, int] = field(default_factory=dict)
    messages_received: dict[NodeId, int] = field(default_factory=dict)

    def record_send(self, sender: NodeId, size: int) -> None:
        """Account one outgoing message of ``size`` bytes."""
        self.bytes_sent[sender] = self.bytes_sent.get(sender, 0) + size
        self.messages_sent[sender] = self.messages_sent.get(sender, 0) + 1

    def record_receive(self, receiver: NodeId, size: int) -> None:
        """Account one incoming message of ``size`` bytes."""
        self.bytes_received[receiver] = self.bytes_received.get(receiver, 0) + size
        self.messages_received[receiver] = self.messages_received.get(receiver, 0) + 1

    # ------------------------------------------------------------------
    # Bulk accounting (DESIGN.md §15)
    # ------------------------------------------------------------------
    # Byte and message counts are integer sums, so folding a whole
    # round's traffic per node into one dict update is bit-identical to
    # the per-message calls — the array-delivery path in SyncNetwork
    # and the closed-form trial engine both account through these.

    def record_send_bulk(self, sender: NodeId, total_bytes: int, count: int) -> None:
        """Account ``count`` outgoing messages totalling ``total_bytes``."""
        if count <= 0:
            return
        self.bytes_sent[sender] = self.bytes_sent.get(sender, 0) + total_bytes
        self.messages_sent[sender] = self.messages_sent.get(sender, 0) + count

    def record_receive_bulk(
        self, receiver: NodeId, total_bytes: int, count: int
    ) -> None:
        """Account ``count`` incoming messages totalling ``total_bytes``."""
        if count <= 0:
            return
        self.bytes_received[receiver] = self.bytes_received.get(receiver, 0) + total_bytes
        self.messages_received[receiver] = (
            self.messages_received.get(receiver, 0) + count
        )

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_bytes_sent(self) -> int:
        """Sum of bytes sent over all nodes."""
        return sum(self.bytes_sent.values())

    def bytes_sent_by(self, node: NodeId) -> int:
        """Bytes sent by one node (0 if it never sent)."""
        return self.bytes_sent.get(node, 0)

    def mean_bytes_sent(self, node_ids) -> float:
        """Average bytes sent over ``node_ids`` (the paper's per-node metric).

        Nodes that never sent count as zero, matching a per-process
        average over the deployment.
        """
        ids = list(node_ids)
        if not ids:
            raise ValueError("mean over an empty node set")
        return sum(self.bytes_sent.get(node, 0) for node in ids) / len(ids)

    def mean_kb_sent(self, node_ids) -> float:
        """Average KB sent per node (1 KB = 1000 bytes, as in the paper's figures)."""
        return self.mean_bytes_sent(node_ids) / 1000.0

    def conservation_gap(self) -> int:
        """Total bytes sent minus total bytes received.

        Zero on a reliable network where every message is delivered;
        tests assert this.
        """
        return self.total_bytes_sent() - sum(self.bytes_received.values())
