"""Memoized signature verification (DESIGN.md §6.1).

Verification is a pure function of ``(public key, message, signature)``,
so its result can be cached without changing a single accept/reject
decision — the equivalence suite in ``tests/test_verification_cache.py``
pins that down.  Two maps cover the two kinds of signatures NECTAR
checks:

* **proofs** — a :class:`repro.crypto.proofs.NeighborhoodProof` is keyed
  by ``(edge, signature_lo, signature_hi)``; the same proof object
  travels along every path its announcement takes, so a deployment-wide
  cache verifies each proof's two endpoint signatures once instead of
  once per (node, path).
* **chains** — a signature chain is keyed by ``(payload, links)``.
  Chains *extend*: the chain relayed in round R + 1 carries the round-R
  chain as a prefix.  When the prefix is already known-good, only the
  newly appended link is verified (the prefix short-circuit), which
  turns the O(R²) cost of re-verifying a growing chain into O(R)
  overall.  Message bytes are handed along too: a relayer's signed
  message goes to the first verifier of its extension, and a verified
  chain's next message (this one plus the outer link) to its
  relayers, so no chain is re-encoded link by link.

A cache can be scoped per node (each signature checked at most once per
node, the distributed-model reading) or shared across a whole simulated
deployment (the big win: every relay is verified once *globally*).
Sharing is safe precisely because verification is deterministic — the
cache never changes what a node would have concluded on its own.

Hit/miss counters live in :class:`CacheStats`, mirroring the style of
:class:`repro.net.stats.TrafficStats`, and are surfaced per trial via
``TrialResult.cache_stats``.

A cache is unbounded: it lives one trial (:func:`run_trial` creates
it), whose distinct-signature count the protocol itself bounds, and
unbounded retention keeps cached and uncached runs bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crypto.chain import (
    ChainLink,
    chain_message,
    next_chain_message,
    verify_chain,
)
from repro.crypto.proofs import NeighborhoodProof, proof_bytes, verify_proof
from repro.crypto.signer import KeyPair, PublicDirectory, SignatureScheme


@dataclass
class CacheStats:
    """Mutable hit/miss counters for one :class:`VerificationCache`.

    Attributes:
        announcement_hits: whole announcements recognised by object
            identity (a relay delivers the same announcement object to
            several neighbors).
        proof_hits / proof_misses: neighborhood-proof lookups.
        chain_hits: full-chain lookups answered from the cache.
        chain_prefix_hits: chains whose prefix was known-good, so only
            the outermost link had to be verified.
        chain_misses: chains verified from scratch.
    """

    announcement_hits: int = 0
    proof_hits: int = 0
    proof_misses: int = 0
    chain_hits: int = 0
    chain_prefix_hits: int = 0
    chain_misses: int = 0

    def hits(self) -> int:
        """Lookups that avoided a full re-verification."""
        return (
            self.announcement_hits
            + self.proof_hits
            + self.chain_hits
            + self.chain_prefix_hits
        )

    def misses(self) -> int:
        """Lookups that paid for a full verification."""
        return self.proof_misses + self.chain_misses

    def total(self) -> int:
        """All cache lookups."""
        return self.hits() + self.misses()

    def hit_rate(self) -> float:
        """Fraction of lookups served without full verification (0 if idle)."""
        total = self.total()
        return self.hits() / total if total else 0.0


class VerificationCache:
    """Memo table for proof and chain verification.

    Results (including negative ones — replayed garbage stays garbage)
    are stored forever; a cache is meant to live as long as one node or
    one simulated deployment, whose distinct-signature count is bounded
    by the protocol itself (n · m chain extensions for NECTAR).
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._proofs: dict[tuple, bool] = {}
        self._chains: dict[tuple, bool] = {}
        # Identity fast path: announcement object -> verdict.  Values
        # keep a strong reference to the object so an id() can never be
        # recycled while its entry lives.
        self._announcements: dict[int, tuple[object, bool]] = {}
        # Signed-message handoff (see extend_chain): chain tuple ->
        # (chain, payload, message bytes its outer link signed).
        self._sign_messages: dict[int, tuple[object, bytes, bytes]] = {}
        self._outer_messages: dict[int, tuple[object, bytes, bytes]] = {}

    def __len__(self) -> int:
        return len(self._proofs) + len(self._chains)

    def verify_announcement(self, scheme, directory, announcement) -> bool:
        """Cached rules 4-5 for one relayed announcement.

        A relaying node hands the *same* announcement object to all its
        neighbors, so an object-identity memo answers every delivery
        after the first in O(1) without re-hashing the chain; value
        misses fall through to :meth:`verify_proof` and
        :meth:`verify_chain`, which also catch value-equal copies built
        independently (e.g. replays).
        """
        entry = self._announcements.get(id(announcement))
        if entry is not None and entry[0] is announcement:
            self.stats.announcement_hits += 1
            return entry[1]
        proof = announcement.proof
        result = self.verify_proof(scheme, directory, proof) and self.verify_chain(
            scheme, directory, proof_bytes(proof), announcement.chain
        )
        self._announcements[id(announcement)] = (announcement, result)
        return result

    def verify_proof(
        self,
        scheme: SignatureScheme,
        directory: PublicDirectory,
        proof: NeighborhoodProof,
    ) -> bool:
        """Cached :func:`repro.crypto.proofs.verify_proof`."""
        key = (proof.edge, proof.signature_lo, proof.signature_hi)
        cached = self._proofs.get(key)
        if cached is not None:
            self.stats.proof_hits += 1
            return cached
        self.stats.proof_misses += 1
        result = verify_proof(scheme, directory, proof)
        self._proofs[key] = result
        return result

    def verify_chain(
        self,
        scheme: SignatureScheme,
        directory: PublicDirectory,
        payload: bytes,
        links: tuple[ChainLink, ...],
    ) -> bool:
        """Cached :func:`repro.crypto.chain.verify_chain`.

        A chain whose ``links[:-1]`` prefix is cached as valid only
        needs its outermost link checked; anything else falls back to
        the full scan.
        """
        if not links:
            return False  # malformed; too cheap to be worth caching
        key = (payload, links)
        cached = self._chains.get(key)
        if cached is not None:
            self.stats.chain_hits += 1
            return cached
        prefix = links[:-1]
        if not prefix or self._chains.get((payload, prefix)) is True:
            if prefix:
                self.stats.chain_prefix_hits += 1
            else:
                self.stats.chain_misses += 1
            result = self._verify_outer_link(scheme, directory, payload, links)
        else:
            self.stats.chain_misses += 1
            result = verify_chain(scheme, directory, payload, links)
        self._chains[key] = result
        return result

    def extend_chain(
        self,
        scheme: SignatureScheme,
        key_pair: KeyPair,
        payload: bytes,
        links: tuple[ChainLink, ...],
    ) -> tuple[ChainLink, ...]:
        """Drop-in :func:`repro.crypto.chain.extend_chain` that shares
        message bytes between signers and verifiers.

        The message a relayer signs over ``(payload, links)`` is byte-
        for-byte the message the receiver must check the new outer link
        against.  The verifier of ``links`` hands it over (see
        :meth:`_verify_outer_link`), so no relayer of that chain
        rebuilds it, and this method hands it on to the first verifier
        of the extension.  Entries are validated by object identity on
        both the chain tuple *and* the payload, so a grafted chain over
        a different payload can never borrow the wrong message.
        """
        entry = self._sign_messages.get(id(links))
        if entry is not None and entry[0] is links and entry[1] is payload:
            message = entry[2]
        else:
            message = chain_message(payload, links)
        signature = scheme.sign(key_pair, message)
        extended = links + (ChainLink(signer=key_pair.node_id, signature=signature),)
        self._outer_messages[id(extended)] = (extended, payload, message)
        return extended

    def _verify_outer_link(
        self,
        scheme: SignatureScheme,
        directory: PublicDirectory,
        payload: bytes,
        links: tuple[ChainLink, ...],
    ) -> bool:
        """Check only ``links[-1]`` (its prefix is already trusted), and
        hand the message that relayers of ``links`` sign to them."""
        link = links[-1]
        if link.signer not in directory:
            return False
        entry = self._outer_messages.pop(id(links), None)
        if entry is not None and entry[0] is links and entry[1] is payload:
            message = entry[2]
        else:
            message = chain_message(payload, links[:-1])
        public = directory.public_key_of(link.signer)
        if not scheme.verify(public, message, link.signature):
            return False
        following = next_chain_message(message, link)
        self._sign_messages[id(links)] = (links, payload, following)
        return True
