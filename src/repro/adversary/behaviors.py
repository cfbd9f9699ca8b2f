"""The Byzantine attack library (Sec. V-D and the model of Sec. II).

Byzantine nodes "may deviate arbitrarily from their specified
protocol, e.g., they may drop, modify, or inject messages at any
time", but cannot forge signatures, create channels, or break
synchrony.  Each class here is one concrete deviation, implemented as
a :class:`repro.net.simulator.RoundProtocol` (often by subclassing the
honest protocol and overriding its deviation hooks), so attacks run on
both execution backends.

Paper-relevant behaviours:

* :class:`SilentNode` — a crash-like Byzantine node (drops everything).
* :class:`TwoFacedNectarNode` / :class:`TwoFacedMtgv2Node` — "Byzantine
  nodes act correctly toward one part of the subgraph of correct
  nodes, and as crashed nodes for the other part" (the Fig. 8 attack).
* :class:`SaturatingMtgNode` — "send filters full of 1 values to lead
  correct nodes to conclude that the system is connected".
* :class:`EdgeConcealingNectarNode` — omit some of one's own edges,
  lowering the perceived connectivity (Sec. IV, Byzantine deviations).
* :class:`FictitiousEdgeNectarNode` — a Byzantine pair declares a fake
  edge between themselves (possible per the model, harmless per the
  paper).
* :class:`StaleChainNectarNode` / :class:`OverChainedNectarNode` —
  relay with wrong-length chains (late/early messages; must be
  rejected by l. 14).
* :class:`ForgingNectarNode` — attempts an actual forgery of a proof
  involving a correct node; the signature layer defeats it.
* :class:`SpamNectarNode` — re-announces its own edges every round to
  inflate traffic (defeated by receiver-side dedup; measured by the
  dedup ablation).
* :class:`JunkInjectorNode` — ships unparseable garbage.

Campaign behaviours (the ``repro mission`` adversary profiles, see
:mod:`repro.adversary.campaign`):

* :class:`SleeperNectarNode` — runs the honest protocol to the letter
  while still counting against the budget t; the correct-acting shape
  behind the Definition-3 Validity counterexample.
* :class:`EquivocatingNectarNode` — tells each half of the correct
  nodes a different story, coordinated across the coalition through a
  shared :class:`CollusionTracker`.
* :class:`BadAggregatorNectarNode` — relays faithfully except that
  announcements involving a victim set silently vanish, eroding the
  perceived connectivity from a trusted-looking relay position.
"""

from __future__ import annotations

import random
from typing import Any, Iterable

from repro.baselines.bloom import BloomFilter
from repro.baselines.mtg import MtgNode
from repro.baselines.mtgv2 import Mtgv2Node
from repro.core.messages import EdgeAnnouncement, NectarBatch
from repro.core.nectar import NectarNode
from repro.crypto.chain import ChainLink, extend_chain
from repro.crypto.proofs import NeighborhoodProof, make_proof, proof_bytes
from repro.crypto.signer import KeyPair, SignatureScheme
from repro.net.message import Outgoing, RawPayload
from repro.net.simulator import RoundProtocol
from repro.types import NodeId


#: The ``mixed`` adversary profile (a registered
#: :data:`repro.experiments.spec.ADVERSARIES` value): a heterogeneous
#: coalition where Byzantine nodes, in id order, cycle through these
#: behaviours instead of all misbehaving identically.  "May deviate
#: arbitrarily" (Sec. II) includes deviating *differently* — a
#: coalition mixing partition-hiding bridges, crashed nodes and
#: traffic spammers is the realistic worst case the homogeneous
#: profiles bound from each side.
MIXED_ADVERSARY_CYCLE: tuple[str, ...] = ("two-faced", "silent", "spam")


class SilentNode(RoundProtocol):
    """A Byzantine node that sends nothing at all (crash-like).

    The least detectable misbehaviour: indistinguishable from a node
    whose edges simply were never announced.
    """

    def __init__(self, node_id: NodeId) -> None:
        self._node_id = node_id

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    def begin_round(self, round_number: int) -> list[Outgoing]:
        return []

    def deliver(self, round_number: int, sender: NodeId, payload: Any) -> None:
        pass

    def conclude(self) -> None:
        return None


class JunkInjectorNode(RoundProtocol):
    """Sends random unparseable bytes to every neighbor each round."""

    def __init__(self, node_id: NodeId, neighbors: Iterable[NodeId], seed: int = 0,
                 junk_size: int = 64) -> None:
        self._node_id = node_id
        self._neighbors = sorted(set(neighbors))
        self._rng = random.Random(("junk", node_id, seed).__repr__())
        self._junk_size = junk_size

    @property
    def node_id(self) -> NodeId:
        return self._node_id

    def begin_round(self, round_number: int) -> list[Outgoing]:
        return [
            Outgoing(
                destination=neighbor,
                payload=RawPayload(data=self._rng.randbytes(self._junk_size)),
            )
            for neighbor in self._neighbors
        ]

    def deliver(self, round_number: int, sender: NodeId, payload: Any) -> None:
        pass

    def conclude(self) -> None:
        return None


# ----------------------------------------------------------------------
# NECTAR deviations
# ----------------------------------------------------------------------
class TwoFacedNectarNode(NectarNode):
    """Behaves correctly toward one side, crashed toward the other.

    This is the NECTAR/MtGv2 attack of Fig. 8: the Byzantine bridges
    relay faithfully for one part of the partitioned correct subgraph
    and stay mute toward the other.

    Args:
        silent_towards: neighbor ids that never receive anything.
        (remaining arguments as :class:`NectarNode`)
    """

    def __init__(self, *args, silent_towards: Iterable[NodeId] = (), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._silent_towards = frozenset(silent_towards)

    def _keep_outgoing(self, outgoing: Outgoing, round_number: int) -> bool:
        return outgoing.destination not in self._silent_towards


class EdgeConcealingNectarNode(NectarNode):
    """Never announces its edges toward ``concealed`` neighbors.

    "Edges that connect two Byzantine nodes might never be discovered,
    which might decrease the graph's vertex connectivity below t"
    (Sec. IV).  The node still relays other nodes' announcements
    faithfully, making the omission hard to attribute.
    """

    def __init__(self, *args, concealed: Iterable[NodeId] = (), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._concealed = frozenset(concealed)

    def _initial_proofs(self) -> list[NeighborhoodProof]:
        return [
            proof
            for proof in super()._initial_proofs()
            if not (proof.endpoints() - {self.node_id}) & self._concealed
        ]


class FictitiousEdgeNectarNode(NectarNode):
    """Announces a fabricated edge to a colluding Byzantine partner.

    Both partners hold their own private keys, so together they can
    mint a valid :class:`NeighborhoodProof` for an edge that does not
    exist — exactly the forgery boundary the model allows.  Per the
    paper this "is not an issue because these edges will never
    increase the vertex-connectivity above t if the subgraph of
    correct nodes is partitioned".

    Args:
        partner_key: the colluding partner's key pair (shared inside
            the coalition).
        scheme: needed positionally before it reaches the base class.
    """

    def __init__(self, *args, partner_key: KeyPair, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._partner_key = partner_key

    def _initial_proofs(self) -> list[NeighborhoodProof]:
        proofs = list(super()._initial_proofs())
        fake = make_proof(self._scheme, self._key_pair, self._partner_key)
        proofs.append(fake)
        return proofs


class StaleChainNectarNode(NectarNode):
    """Relays without appending its signature (chains one link short).

    Violates the invariant lengthSign(msg) = R; every correct receiver
    must reject the relays (Algorithm 1, l. 14).  Its own round-1
    announcements remain valid.  Relays are built eagerly: a pending
    link would size them one link longer than they are.
    """

    def _announce(
        self, proof: NeighborhoodProof, chain: tuple[ChainLink, ...]
    ) -> EdgeAnnouncement:
        if not chain:
            return super()._announce(proof, chain)
        return EdgeAnnouncement(proof, chain)  # unmodified: one link too short


class OverChainedNectarNode(NectarNode):
    """Appends two signature layers per relay (chains one link long).

    The dual of :class:`StaleChainNectarNode`: messages appear to come
    from the future and must equally be rejected.  Announcements are
    built eagerly, with both layers signed.
    """

    def _announce(
        self, proof: NeighborhoodProof, chain: tuple[ChainLink, ...]
    ) -> EdgeAnnouncement:
        extended = self._relay_chain(proof, self._relay_chain(proof, chain))
        return EdgeAnnouncement(proof, extended)


class ForgingNectarNode(NectarNode):
    """Attempts to forge an edge proof naming a correct victim.

    It signs *both* proof slots with its own key — the best it can do
    without the victim's private key.  Verification of the victim's
    slot fails at every correct receiver, so the fake edge never
    enters any discovered graph (asserted by tests).
    """

    def __init__(self, *args, victim: NodeId, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if victim == self.node_id:
            raise ValueError("the victim must be another node")
        self._victim = victim

    def _initial_proofs(self) -> list[NeighborhoodProof]:
        proofs = list(super()._initial_proofs())
        # Forge by signing the victim's slot with our own key.
        forged = make_proof(self._scheme, self._key_pair, self._key_pair_as(self._victim))
        proofs.append(forged)
        return proofs

    def _key_pair_as(self, claimed_id: NodeId) -> KeyPair:
        """Our own secret dressed up with someone else's id."""
        return KeyPair(
            node_id=claimed_id,
            private_key=self._key_pair.private_key,
            public_key=self._key_pair.public_key,
        )


class SpamNectarNode(NectarNode):
    """Re-announces its whole neighborhood every round.

    Chains are padded with self-signatures to match the round number,
    so each copy passes the structural checks.  A receiver that already
    knows the edge drops a copy before reading its chain, and a copy is
    signed, like a relay, only when a receiver first reads its chain:
    on a reliable channel no spam link is ever signed.  Used by the
    dedup ablation to measure the cost of announcement spam.
    """

    def begin_round(self, round_number: int) -> list[Outgoing]:
        outgoing = super().begin_round(round_number)
        if round_number == 1:
            return outgoing
        # A relayed copy is sized as its prefix plus one link, so
        # round_number - 1 placeholders stand in for the padding, which
        # _padded_chain signs together with the outer link.
        padding = (None,) * (round_number - 1)
        announcements = [
            EdgeAnnouncement.relayed(self._padded_chain, proof, padding)
            for proof in self._initial_proofs()
        ]
        if announcements:
            batch = NectarBatch(announcements=tuple(announcements))
            for neighbor in sorted(self.neighbors):
                outgoing.append(Outgoing(destination=neighbor, payload=batch))
        return [
            out for out in outgoing if self._keep_outgoing(out, round_number)
        ]

    def _padded_chain(
        self, proof: NeighborhoodProof, padding: tuple[None, ...]
    ) -> tuple[ChainLink, ...]:
        """``len(padding) + 1`` links over ``proof``, all signed by us."""
        chain: tuple[ChainLink, ...] = ()
        for _ in range(len(padding) + 1):
            chain = extend_chain(self._scheme, self._key_pair, proof_bytes(proof), chain)
        return chain


class SleeperNectarNode(NectarNode):
    """A Byzantine node that behaves perfectly correctly.

    Allowed by the model ("may deviate arbitrarily" includes not
    deviating at all) and the worst case for attribution: it consumes
    one unit of the budget t while producing zero observable
    misbehaviour.  Combined with a silent colluder this is exactly the
    path-graph shape that used to break Validity — the correct nodes
    cannot tell whether the missing processes are a genuine cut or a
    sleeper cell that stayed quiet (see
    tests/test_known_regressions.py).
    """


class CollusionTracker:
    """Shared coordination state for an equivocating coalition.

    The coalition splits the correct nodes into two deterministic
    halves; every :class:`EquivocatingNectarNode` holding the same
    tracker shows the *same* face to the same destination, so the two
    halves each receive an internally consistent — but mutually
    contradictory — view.  Uncoordinated equivocation is easy to spot
    (stories disagree within a half); the tracker is what makes the
    attack coherent.

    The tracker also records every shaping decision, so tests can
    assert coalition-wide consistency after a run.
    """

    def __init__(self, correct: Iterable[NodeId], seed: int = 0) -> None:
        ordered = sorted(set(correct))
        rng = random.Random(("collusion", tuple(ordered), seed).__repr__())
        shuffled = list(ordered)
        rng.shuffle(shuffled)
        half = (len(shuffled) + 1) // 2
        self._halves: tuple[frozenset[NodeId], frozenset[NodeId]] = (
            frozenset(shuffled[:half]),
            frozenset(shuffled[half:]),
        )
        self._events: list[tuple[NodeId, NodeId, int]] = []

    @property
    def halves(self) -> tuple[frozenset[NodeId], frozenset[NodeId]]:
        """The (favored, starved) split of the correct nodes."""
        return self._halves

    def face_of(self, destination: NodeId) -> int:
        """0 = full view (favored half), 1 = censored view (starved)."""
        return 1 if destination in self._halves[1] else 0

    def record(self, byzantine: NodeId, destination: NodeId) -> None:
        """Log one shaping decision (sender, destination, face shown)."""
        self._events.append((byzantine, destination, self.face_of(destination)))

    @property
    def events(self) -> tuple[tuple[NodeId, NodeId, int], ...]:
        return tuple(self._events)

    def consistent(self) -> bool:
        """True iff every destination was only ever shown one face."""
        faces: dict[NodeId, int] = {}
        return all(
            faces.setdefault(destination, face) == face
            for _, destination, face in self._events
        )


class EquivocatingNectarNode(NectarNode):
    """Equivocates between the two halves of the correct nodes.

    Toward the favored half it acts fully correctly; toward the
    starved half it strips every announcement involving itself, so
    that half perceives the node (and everything only reachable
    through it) as missing.  All coalition members sharing one
    :class:`CollusionTracker` starve the *same* half, which is what
    lets the lie survive cross-checking inside each half.
    """

    def __init__(self, *args, tracker: CollusionTracker, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tracker = tracker

    def begin_round(self, round_number: int) -> list[Outgoing]:
        shaped: list[Outgoing] = []
        for out in super().begin_round(round_number):
            if not isinstance(out.payload, NectarBatch):
                shaped.append(out)
                continue
            self._tracker.record(self.node_id, out.destination)
            if self._tracker.face_of(out.destination) == 0:
                shaped.append(out)
                continue
            kept = tuple(
                announcement
                for announcement in out.payload.announcements
                if self.node_id not in announcement.proof.endpoints()
            )
            if kept:
                shaped.append(
                    Outgoing(destination=out.destination, payload=NectarBatch(kept))
                )
        return shaped


class BadAggregatorNectarNode(NectarNode):
    """Censors relayed announcements involving a victim set.

    Round 1 is honest (its own edges are announced, keeping the node
    above suspicion); from round 2 on, any announcement whose edge
    touches a victim is silently dropped from its relays.  Where the
    node sits on many shortest paths this starves the rest of the
    network of the victims' edges — the aggregator-corruption shape,
    translated to NECTAR's relay role.
    """

    def __init__(self, *args, victims: Iterable[NodeId] = (), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._victims = frozenset(victims)

    def begin_round(self, round_number: int) -> list[Outgoing]:
        outgoing = super().begin_round(round_number)
        if round_number == 1:
            return outgoing
        shaped: list[Outgoing] = []
        for out in outgoing:
            if not isinstance(out.payload, NectarBatch):
                shaped.append(out)
                continue
            kept = tuple(
                announcement
                for announcement in out.payload.announcements
                if not (announcement.proof.endpoints() & self._victims)
            )
            if kept:
                shaped.append(
                    Outgoing(destination=out.destination, payload=NectarBatch(kept))
                )
        return shaped


# ----------------------------------------------------------------------
# MtG deviations
# ----------------------------------------------------------------------
class SaturatingMtgNode(MtgNode):
    """Gossips an all-ones Bloom filter (the Sec. V-D MtG attack).

    Every membership test on a saturated filter succeeds, so receivers
    conclude that all n processes are reachable.
    """

    def _gossip_filter(self) -> BloomFilter:
        poisoned = self.reachable_filter.copy()
        poisoned.saturate()
        return poisoned


class TwoFacedMtgNode(MtgNode):
    """MtG node that gossips to one side only."""

    def __init__(self, *args, silent_towards: Iterable[NodeId] = (), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._silent_towards = frozenset(silent_towards)

    def _keep_outgoing(self, outgoing: Outgoing, round_number: int) -> bool:
        return outgoing.destination not in self._silent_towards


# ----------------------------------------------------------------------
# MtGv2 deviations
# ----------------------------------------------------------------------
class TwoFacedMtgv2Node(Mtgv2Node):
    """MtGv2 node that forwards signed ids to one side only."""

    def __init__(self, *args, silent_towards: Iterable[NodeId] = (), **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._silent_towards = frozenset(silent_towards)

    def _keep_outgoing(self, outgoing: Outgoing, round_number: int) -> bool:
        return outgoing.destination not in self._silent_towards
