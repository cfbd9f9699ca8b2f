"""NECTAR — Neighbors Exploring Connections Toward Adversary Resilience.

This is Algorithm 1 of the paper, as a :class:`repro.net.simulator.
RoundProtocol` that runs unchanged on the lock-step and asyncio
backends.

Inputs, per node i (Sec. IV-A): the system size ``n``, the Byzantine
bound ``t``, the neighborhood Γ(i), and a proof of neighborhood for
each neighbor.  Output: a :class:`repro.types.Verdict` with the
NOT_PARTITIONABLE / PARTITIONABLE decision and the ``confirmed`` flag.

Protected hooks (``_initial_proofs``, ``_announce``, ``_relay_chain``,
``_keep_outgoing``) exist so that Byzantine behaviours in
:mod:`repro.adversary.behaviors` can deviate in precisely controlled
ways while reusing the honest machinery; honest nodes never override
them.  Every announcement a node sends comes from ``_announce``, which
signs the relayer's link on first read, so a relay that every receiver
drops as a duplicate is never signed.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping

from repro.core.adjacency import DiscoveredGraph
from repro.core.decision import decide
from repro.core.messages import EdgeAnnouncement, NectarBatch
from repro.core.validation import AnnouncementValidator, ValidationMode
from repro.crypto.cache import VerificationCache
from repro.crypto.chain import ChainLink, extend_chain, well_formed
from repro.crypto.proofs import NeighborhoodProof, proof_bytes
from repro.crypto.signer import KeyPair, PublicDirectory, SignatureScheme
from repro.errors import ProtocolError
from repro.net.message import Outgoing
from repro.net.simulator import RoundProtocol
from repro.types import NodeId, Verdict, canonical_edge


def nectar_round_count(n: int) -> int:
    """The number of propagation rounds, R = n - 1 (Sec. IV-B).

    n - 1 is the smallest value that is safe without topology
    knowledge (the worst case being the chain topology).
    """
    if n < 1:
        raise ValueError("n must be positive")
    return max(1, n - 1)


class NectarNode(RoundProtocol):
    """One NECTAR process.

    Args:
        node_id: this process's id.
        n: total number of processes (known to all).
        t: maximum number of Byzantine processes.
        key_pair: this process's signing keys.
        scheme: the signature scheme shared by the deployment.
        directory: the public-key directory.
        neighbor_proofs: proof of neighborhood for each neighbor
            (keyed by neighbor id); defines Γ(i).
        validation_mode: FULL (default) or ACCOUNTING (adversary-free
            cost sweeps only).
        connectivity_cutoff: optional early-exit bound for the decision
            phase's connectivity computation (must exceed ``t``).
        verification_cache: optional
            :class:`repro.crypto.cache.VerificationCache` memoizing
            rules 4-5 of validation.  Pass a per-node instance to bound
            replay verification, or share one across a simulated
            deployment to verify each signature once globally
            (DESIGN.md §6.1); ``None`` verifies every time.
    """

    def __init__(
        self,
        node_id: NodeId,
        n: int,
        t: int,
        key_pair: KeyPair,
        scheme: SignatureScheme,
        directory: PublicDirectory,
        neighbor_proofs: Mapping[NodeId, NeighborhoodProof],
        validation_mode: ValidationMode = ValidationMode.FULL,
        connectivity_cutoff: int | None = None,
        batching: bool = True,
        verification_cache: VerificationCache | None = None,
    ) -> None:
        if t < 0:
            raise ProtocolError("t must be non-negative")
        if key_pair.node_id != node_id:
            raise ProtocolError("key pair does not belong to this node")
        for neighbor, proof in neighbor_proofs.items():
            if neighbor == node_id:
                raise ProtocolError("a node cannot neighbor itself")
            if proof.edge != canonical_edge(node_id, neighbor):
                raise ProtocolError(
                    f"proof for neighbor {neighbor} does not cover the edge"
                )
        self._node_id = node_id
        self._n = n
        self._t = t
        self._key_pair = key_pair
        self._scheme = scheme
        self._directory = directory
        self._neighbors = frozenset(neighbor_proofs)
        self._neighbor_proofs = dict(neighbor_proofs)
        self._validator = AnnouncementValidator(
            scheme, directory, validation_mode, cache=verification_cache
        )
        self._connectivity_cutoff = connectivity_cutoff
        # Batched framing (default) coalesces all announcements for a
        # neighbor into one envelope per round; per-edge framing pays
        # one envelope header per announcement (measured by the
        # batching ablation, DESIGN.md §5.3).
        self._batching = batching
        # Initialising G_i (Algorithm 1, ll. 1-4).
        self._discovered = DiscoveredGraph(n)
        for proof in self._neighbor_proofs.values():
            self._discovered.add(proof)
        # to_be_sent: announcements accepted this round, to relay next
        # round, with the neighbor they came from (excluded on relay).
        self._pending: list[tuple[EdgeAnnouncement, NodeId]] = []
        self._decided = False
        self._verdict: Verdict | None = None

    # ------------------------------------------------------------------
    # RoundProtocol interface
    # ------------------------------------------------------------------
    @property
    def node_id(self) -> NodeId:
        return self._node_id

    @property
    def neighbors(self) -> frozenset[NodeId]:
        """Γ(i)."""
        return self._neighbors

    @property
    def discovered(self) -> DiscoveredGraph:
        """This node's G_i (read access for tests and reports)."""
        return self._discovered

    def begin_round(self, round_number: int) -> list[Outgoing]:
        if round_number == 1:
            outgoing = self._first_round_sends()
        else:
            outgoing = self._relay_sends(round_number)
        return [out for out in outgoing if self._keep_outgoing(out, round_number)]

    def deliver(self, round_number: int, sender: NodeId, payload: Any) -> None:
        if not isinstance(payload, NectarBatch):
            return  # foreign or junk payload: ignore (l. 13)
        announcements = payload.announcements
        if type(announcements) is not tuple:
            return  # a malformed batch: ignore it whole
        # Local bindings: this loop runs once per announcement copy per
        # receiver and dominates large sweeps.
        discovered = self._discovered
        known = discovered.proofs
        validate = self._validator.validate
        pending = self._pending
        for announcement in announcements:
            # The scheduler hands a Byzantine neighbour's objects over
            # as sent, so a copy that is not an announcement of a proof
            # of an id pair is dropped here, in O(1) and without reading
            # a signature.
            if type(announcement) is not EdgeAnnouncement:
                continue
            proof = announcement.proof
            if type(proof) is not NeighborhoodProof:
                continue
            edge = proof.edge
            if (
                type(edge) is not tuple
                or len(edge) != 2
                or type(edge[0]) is not int
                or type(edge[1]) is not int
            ):
                continue
            # Dedup before any signature work: an already-known edge is
            # skipped outright (l. 14), which also bounds the
            # verification load under announcement spam (see the
            # dedup ablation).  Known edges are keyed canonically, and
            # validation rejects every other orientation, so a reversed
            # or self-loop edge matches nothing here and dies there.
            if edge in known:
                continue
            # The chain's links, only for copies that survive dedup:
            # reading a relayed chain signs its outer link.  Here
            # rather than in validation: the closed form's replay
            # validates only chains that honest nodes built.
            if not well_formed(announcement.chain):
                continue
            if not validate(announcement, round_number, sender):
                continue
            discovered.add(proof)
            pending.append((announcement, sender))

    def conclude(self) -> Verdict:
        if self._decided:
            raise ProtocolError("decide() is one-shot (Sec. III-D)")
        self._decided = True
        self._verdict = decide(
            self._discovered,
            self._node_id,
            self._t,
            connectivity_cutoff=self._connectivity_cutoff,
        )
        return self._verdict

    # ------------------------------------------------------------------
    # Send construction
    # ------------------------------------------------------------------
    def _first_round_sends(self) -> list[Outgoing]:
        """Round 1: send {σ_i(proof_{i,j})} for j in Γ(i) to every neighbor."""
        announcements = [self._announce(proof, ()) for proof in self._initial_proofs()]
        if not announcements:
            return []
        return self._frame(
            [(neighbor, tuple(announcements)) for neighbor in sorted(self._neighbors)]
        )

    def _relay_sends(self, round_number: int) -> list[Outgoing]:
        """Rounds >= 2: relay last round's new edges, extending chains."""
        if not self._pending:
            return []
        announce = self._announce
        extended = [
            (announce(announcement.proof, announcement.chain), source)
            for announcement, source in self._pending
        ]
        self._pending = []
        everything = tuple(announcement for announcement, _ in extended)
        # Deliveries arrive one envelope at a time, so the pending list
        # is grouped by source; excluding a source is then a contiguous
        # slice removal (order-preserving, and O(1) Python work per
        # neighbor instead of a per-announcement filter).  Fall back to
        # filtering if a deviant delivery pattern broke the grouping.
        spans: dict[NodeId, tuple[int, int]] = {}
        contiguous = True
        previous: NodeId | None = None
        for index, (_, source) in enumerate(extended):
            if source != previous:
                if source in spans:
                    contiguous = False
                    break
                spans[source] = (index, index + 1)
                previous = source
            else:
                start, _ = spans[source]
                spans[source] = (start, index + 1)
        per_neighbor = []
        for neighbor in sorted(self._neighbors):
            if contiguous:
                span = spans.get(neighbor)
                if span is None:
                    entries = everything  # nothing to exclude: share
                else:
                    entries = everything[: span[0]] + everything[span[1]:]
            else:
                entries = tuple(
                    announcement
                    for announcement, source in extended
                    if source != neighbor
                )
            if entries:
                per_neighbor.append((neighbor, entries))
        return self._frame(per_neighbor)

    def _frame(
        self,
        per_neighbor: list[tuple[NodeId, tuple[EdgeAnnouncement, ...]]],
    ) -> list[Outgoing]:
        """Wrap per-neighbor announcement sets into envelopes."""
        outgoing = []
        for neighbor, entries in per_neighbor:
            if self._batching:
                outgoing.append(
                    Outgoing(destination=neighbor, payload=NectarBatch(entries))
                )
            else:
                outgoing.extend(
                    Outgoing(destination=neighbor, payload=NectarBatch((entry,)))
                    for entry in entries
                )
        return outgoing

    # ------------------------------------------------------------------
    # Hooks for controlled Byzantine deviation (honest nodes use the
    # defaults; see repro.adversary.behaviors)
    # ------------------------------------------------------------------
    def _initial_proofs(self) -> Iterable[NeighborhoodProof]:
        """The proofs announced in round 1: the full neighborhood."""
        return [
            self._neighbor_proofs[neighbor]
            for neighbor in sorted(self._neighbor_proofs)
        ]

    def _announce(
        self, proof: NeighborhoodProof, chain: tuple[ChainLink, ...]
    ) -> EdgeAnnouncement:
        """The announcement of ``proof`` that we send, ``chain`` plus our
        own layer; ``_relay_chain`` signs it when a receiver first reads
        the chain."""
        return EdgeAnnouncement.relayed(self._relay_chain, proof, chain)

    def _relay_chain(
        self, proof: NeighborhoodProof, chain: tuple[ChainLink, ...]
    ) -> tuple[ChainLink, ...]:
        """Extend (or create) the signature chain with our own layer."""
        cache = self._validator.cache
        if cache is not None:
            # Byte-identical to extend_chain; signs the memo's message
            # for a chain the cache verified instead of re-encoding it.
            return cache.extend_chain(
                self._scheme, self._key_pair, proof_bytes(proof), chain
            )
        return extend_chain(self._scheme, self._key_pair, proof_bytes(proof), chain)

    def _keep_outgoing(self, outgoing: Outgoing, round_number: int) -> bool:
        """Final say on each send; honest nodes send everything."""
        return True
