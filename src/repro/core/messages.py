"""NECTAR's wire messages.

During the edge-propagation phase (Algorithm 1, ll. 5-15) nodes
exchange *edge announcements*: a neighborhood proof wrapped in a
signature chain whose length equals the round number.  All the
announcements a node sends to a given neighbor in a given round are
batched into one :class:`NectarBatch` envelope — this mirrors how a
real deployment (the paper's salticidae prototype) coalesces per-round
traffic, and the ablation bench quantifies the difference with
one-message-per-edge framing.

A relayed announcement (:meth:`EdgeAnnouncement.relayed`) signs its
outer link on first read: a receiver keeps only the first copy of an
edge and drops the others before reading a chain, so most relays are
never signed (DESIGN.md §15.4).
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError, dataclass
from operator import attrgetter
from typing import Callable

from repro.crypto.chain import ChainLink
from repro.crypto.proofs import NeighborhoodProof
from repro.crypto.sizes import WireProfile
from repro.net.codec import (
    ByteReader,
    PayloadCodec,
    pack_node_id,
    register_payload_codec,
)

#: Per-announcement framing overhead: a two-byte chain-length field.
_CHAIN_COUNT_BYTES = 2
#: Per-batch framing overhead: a two-byte announcement count.
_BATCH_COUNT_BYTES = 2


class EdgeAnnouncement:
    """One relayed edge: σ_k(...σ_u(proof_{u,v})).

    An immutable value of its proof and chain: equality, hashing,
    ``repr``, ``copy`` and pickling see those two fields and nothing
    else.  Built directly, an announcement holds the chain it is
    given; built by :meth:`relayed`, it holds the relayer's chain
    extension and the prefix until ``chain`` is first read.

    Attributes:
        proof: the co-signed edge being announced.
        chain: the signature chain, innermost (originator) first.  A
            valid announcement received in round R carries exactly R
            links (Algorithm 1, l. 14).
        chain_length: ``len(chain)``, read without signing a pending
            link; None for a chain with no length (a Byzantine
            sender's garbage), which then has no wire size.
    """

    # While the outer link is pending, ``_chain`` holds the prefix and
    # ``_relay`` the relayer's chain extension; both slots are then
    # set once, to the chain and None.  ``chain_length`` is a plain
    # slot, not a property, because the scheduler sizes every copy of
    # every announcement.  As on NeighborhoodProof, there is no
    # ``__getattr__`` hook.
    __slots__ = ("proof", "chain_length", "_chain", "_relay")

    def __init__(self, proof: NeighborhoodProof, chain: tuple[ChainLink, ...]) -> None:
        try:
            length = len(chain)
        except TypeError:
            length = None
        object.__setattr__(self, "proof", proof)
        object.__setattr__(self, "chain_length", length)
        object.__setattr__(self, "_chain", chain)
        object.__setattr__(self, "_relay", None)

    @classmethod
    def relayed(
        cls,
        relay_chain: Callable[..., tuple[ChainLink, ...]],
        proof: NeighborhoodProof,
        prefix: tuple[ChainLink, ...],
    ) -> "EdgeAnnouncement":
        """The announcement of ``proof`` whose chain is
        ``relay_chain(proof, prefix)``, one link longer than ``prefix``,
        called on first read.  No lock: an announcement lives inside
        one trial, on one thread."""
        announcement = object.__new__(cls)
        object.__setattr__(announcement, "proof", proof)
        object.__setattr__(announcement, "chain_length", len(prefix) + 1)
        object.__setattr__(announcement, "_chain", prefix)
        object.__setattr__(announcement, "_relay", relay_chain)
        return announcement

    @property
    def chain(self) -> tuple[ChainLink, ...]:
        relay = self._relay
        if relay is not None:
            # An error from the relayer reaches the reader and leaves
            # the link pending.
            object.__setattr__(self, "_chain", relay(self.proof, self._chain))
            object.__setattr__(self, "_relay", None)
        return self._chain

    def _fields(self) -> tuple[NeighborhoodProof, tuple[ChainLink, ...]]:
        return self.proof, self.chain

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "{}(proof={!r}, chain={!r})".format(
            type(self).__qualname__, *self._fields()
        )

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def encoded_size(self, profile: WireProfile) -> int:
        """Wire size of this announcement."""
        return (
            profile.proof_bytes
            + _CHAIN_COUNT_BYTES
            + self.chain_length * profile.chain_link_bytes
        )


@dataclass(frozen=True)
class NectarBatch:
    """All announcements one node sends to one neighbor in one round."""

    announcements: tuple[EdgeAnnouncement, ...]

    _CHAIN_LENGTH_OF = attrgetter("chain_length")

    def encoded_size(self, profile: WireProfile) -> int:
        # Equivalent to summing each announcement's encoded_size, in
        # one C-level pass over the chain lengths (this runs once per
        # envelope in the hot send loop), without signing a pending
        # link.
        total_links = sum(map(self._CHAIN_LENGTH_OF, self.announcements))
        return (
            _BATCH_COUNT_BYTES
            + len(self.announcements) * (profile.proof_bytes + _CHAIN_COUNT_BYTES)
            + total_links * profile.chain_link_bytes
        )

    def __len__(self) -> int:
        return len(self.announcements)


class NectarBatchCodec(PayloadCodec):
    """Binary codec for :class:`NectarBatch` (tag 1)."""

    tag = 1
    payload_type = NectarBatch

    def encode(self, payload: NectarBatch, profile: WireProfile) -> bytes:
        sig = profile.signature_bytes
        parts = [len(payload.announcements).to_bytes(_BATCH_COUNT_BYTES, "big")]
        for announcement in payload.announcements:
            proof = announcement.proof
            if len(proof.signature_lo) != sig or len(proof.signature_hi) != sig:
                raise ValueError(
                    "proof signature width does not match the wire profile"
                )
            parts.append(pack_node_id(proof.lo))
            parts.append(pack_node_id(proof.hi))
            parts.append(proof.signature_lo)
            parts.append(proof.signature_hi)
            chain = announcement.chain  # signs a pending link: real bytes
            parts.append(len(chain).to_bytes(_CHAIN_COUNT_BYTES, "big"))
            for link in chain:
                if len(link.signature) != sig:
                    raise ValueError(
                        "chain signature width does not match the wire profile"
                    )
                parts.append(pack_node_id(link.signer))
                parts.append(link.signature)
        return b"".join(parts)

    def decode(self, data: bytes, profile: WireProfile) -> NectarBatch:
        sig = profile.signature_bytes
        reader = ByteReader(data)
        count = reader.take_u16()
        announcements = []
        for _ in range(count):
            lo = reader.take_u16()
            hi = reader.take_u16()
            signature_lo = reader.take(sig)
            signature_hi = reader.take(sig)
            proof = NeighborhoodProof(
                edge=(lo, hi),
                signature_lo=signature_lo,
                signature_hi=signature_hi,
            )
            chain_length = reader.take_u16()
            links = tuple(
                ChainLink(signer=reader.take_u16(), signature=reader.take(sig))
                for _ in range(chain_length)
            )
            announcements.append(EdgeAnnouncement(proof=proof, chain=links))
        reader.finish()
        return NectarBatch(announcements=tuple(announcements))


register_payload_codec(NectarBatchCodec())
