"""MindTheGap (MtG) — the paper's first baseline [6].

"Processes in MtG flood a list of reachable nodes to each other.
Nodes keep in memory a list of reachable nodes (that only contains
themselves initially), and send regularly this list to their
neighbors, during a fixed period of time (an epoch).  When receiving a
list of neighbors, nodes can actualize their own list of reachable
nodes." (Sec. V-A)

The list is a Bloom filter; our node gossips its filter to every
neighbor each epoch *when the filter changed* since the previous
gossip to that neighbor (resending identical filters would carry no
information, and the change-driven schedule is what makes MtG's cost
nearly independent of d and radius, the flat red curve of Fig. 4).

MtG is not Byzantine-resilient: a saturated filter (all bits set)
makes every id look reachable (Sec. V-D); the attack lives in
:mod:`repro.adversary.behaviors`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable

from repro.baselines.bloom import BloomFilter, optimal_parameters
from repro.crypto.sizes import WireProfile
from repro.errors import ProtocolError
from repro.net.codec import ByteReader, PayloadCodec, register_payload_codec
from repro.net.message import Outgoing
from repro.net.simulator import RoundProtocol
from repro.types import BaselineDecision, NodeId

#: Default false-positive target used to size the filters.
DEFAULT_FP_RATE = 0.01


@dataclass(frozen=True)
class BloomPayload:
    """One gossiped Bloom filter."""

    bit_count: int
    hash_count: int
    bits: bytes

    def encoded_size(self, profile: WireProfile) -> int:
        # 4 bytes of bit_count + 1 byte of hash_count + the bit array,
        # plus the baseline's epoch framing.
        return profile.epoch_header_bytes + 5 + len(self.bits)


class BloomPayloadCodec(PayloadCodec):
    """Binary codec for :class:`BloomPayload` (tag 2)."""

    tag = 2
    payload_type = BloomPayload

    def encode(self, payload: BloomPayload, profile: WireProfile) -> bytes:
        header = bytes(profile.epoch_header_bytes)
        return (
            header
            + payload.bit_count.to_bytes(4, "big")
            + payload.hash_count.to_bytes(1, "big")
            + payload.bits
        )

    def decode(self, data: bytes, profile: WireProfile) -> BloomPayload:
        reader = ByteReader(data)
        reader.take(profile.epoch_header_bytes)
        bit_count = reader.take_u32()
        hash_count = reader.take_u8()
        bits = reader.take(len(data) - profile.epoch_header_bytes - 5)
        reader.finish()
        return BloomPayload(bit_count=bit_count, hash_count=hash_count, bits=bits)


register_payload_codec(BloomPayloadCodec())


def mtg_epoch_count(n: int) -> int:
    """Number of gossip epochs: n - 1 guarantees convergence on any
    connected topology (information travels one hop per epoch)."""
    return max(1, n - 1)


class MtgNode(RoundProtocol):
    """One MindTheGap process.

    Args:
        node_id: this process's id.
        n: total number of processes.
        neighbors: Γ(i).
        false_positive_rate: Bloom sizing target (system-wide constant).
        resend_period: 0 (default) gossips only when the filter changed
            since the last send — the cheap schedule behind MtG's flat
            cost curve.  A positive p re-gossips every p epochs even
            without changes, which is what buys MtG its loss tolerance
            on unreliable MANET channels (Sec. VI-A; see the loss
            bench).
    """

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        neighbors: Iterable[NodeId],
        false_positive_rate: float = DEFAULT_FP_RATE,
        resend_period: int = 0,
    ) -> None:
        self._node_id = node_id
        self._n = n
        self._neighbors = frozenset(neighbors)
        if node_id in self._neighbors:
            raise ProtocolError("a node cannot neighbor itself")
        if resend_period < 0:
            raise ProtocolError("resend_period cannot be negative")
        bit_count, hash_count = optimal_parameters(n, false_positive_rate)
        self._filter = BloomFilter(bit_count, hash_count)
        self._filter.add(node_id)
        self._resend_period = resend_period
        # Last filter snapshot gossiped (same to all neighbors).
        self._last_sent: BloomFilter | None = None
        self._decided = False

    # ------------------------------------------------------------------
    # RoundProtocol interface (round == epoch)
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def reachable_filter(self) -> BloomFilter:
        """The node's current reachable-set filter (tests, attacks)."""
        return self._filter

    def begin_round(self, round_number: int) -> list[Outgoing]:
        current = self._gossip_filter()
        periodic_refresh = (
            self._resend_period > 0 and round_number % self._resend_period == 0
        )
        if (
            self._last_sent is not None
            and current == self._last_sent
            and not periodic_refresh
        ):
            return []  # nothing new to say this epoch
        self._last_sent = current.copy()
        payload = BloomPayload(
            bit_count=current.bit_count,
            hash_count=current.hash_count,
            bits=current.to_bytes(),
        )
        return [
            out
            for out in (
                Outgoing(destination=neighbor, payload=payload)
                for neighbor in sorted(self._neighbors)
            )
            if self._keep_outgoing(out, round_number)
        ]

    def deliver(self, round_number: int, sender: NodeId, payload: Any) -> None:
        if not isinstance(payload, BloomPayload):
            return
        if (payload.bit_count, payload.hash_count) != (
            self._filter.bit_count,
            self._filter.hash_count,
        ):
            return  # wrong geometry: drop
        try:
            received = BloomFilter.from_bytes(
                payload.bit_count, payload.hash_count, payload.bits
            )
        except ValueError:
            return
        self._filter.union_with(received)

    def conclude(self) -> BaselineDecision:
        if self._decided:
            raise ProtocolError("decide() is one-shot")
        self._decided = True
        if self._filter.contains_ids(self._n):  # all n ids reachable
            return BaselineDecision.CONNECTED
        return BaselineDecision.PARTITIONED

    # ------------------------------------------------------------------
    # Hooks for Byzantine subclasses
    # ------------------------------------------------------------------
    def _gossip_filter(self) -> BloomFilter:
        """The filter advertised this epoch; honest nodes tell the truth."""
        return self._filter

    def _keep_outgoing(self, outgoing: Outgoing, round_number: int) -> bool:
        """Final say on each send; honest nodes send everything."""
        return True
