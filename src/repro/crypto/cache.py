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
* **chains** — a signature chain is keyed by content, ``(payload,
  links)``, and its entry is the message the chain's *next* link signs
  (``chain_message(payload, links)``), or ``False`` for an invalid
  chain.  Chains *extend*: the chain relayed in round R + 1 carries the
  round-R chain as a prefix.  When the prefix's entry is a message,
  only the newly appended link is verified, against that message (the
  prefix short-circuit), which turns the O(R²) cost of re-verifying a
  growing chain into O(R) overall.  Relayers sign the entry of the
  chain they extend, so no verified chain is re-encoded link by link.
  Only chains some node checked are stored: an extension nobody
  verifies dies with its round.

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
    are stored for the cache's life; a cache is meant to live as long as
    one node or one simulated deployment.  It holds one chain entry per
    distinct chain some node verified (``chain_misses +
    chain_prefix_hits``), which honest NECTAR bounds by its n · m
    relayed extensions.  A relay signs when a receiver first reads its
    chain, past the known-edge check, so :meth:`extend_chain` runs once
    per relay that some receiver reads, not once per relay.
    """

    def __init__(self) -> None:
        self.stats = CacheStats()
        self._proofs: dict[tuple, bool] = {}
        # (payload, links) -> the message the next link signs, or False.
        self._chains: dict[tuple, bytes | bool] = {}
        # Identity fast path: announcement object -> verdict.  Values
        # keep a strong reference to the object so an id() can never be
        # recycled while its entry lives.
        self._announcements: dict[int, tuple[object, bool]] = {}

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
        signature_lo, signature_hi = proof.signature_lo, proof.signature_hi
        if type(signature_lo) is not bytes or type(signature_hi) is not bytes:
            return False  # garbage, possibly unhashable: never a key
        key = (proof.edge, signature_lo, signature_hi)
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
        needs its outermost link checked, against the message the
        prefix's entry holds (a one-link chain against the bare
        payload's); anything else falls back to the full scan.
        """
        if not links:
            return False  # malformed; too cheap to be worth caching
        key = (payload, links)
        cached = self._chains.get(key)
        if cached is not None:
            self.stats.chain_hits += 1
            return cached is not False
        prefix = links[:-1]
        if not prefix:
            self.stats.chain_misses += 1
            message = chain_message(payload, prefix)
        else:
            message = self._chains.get((payload, prefix))
            if not message:  # unknown or invalid prefix: the full scan
                self.stats.chain_misses += 1
                valid = verify_chain(scheme, directory, payload, links)
                self._chains[key] = valid and chain_message(payload, links)
                return valid
            self.stats.chain_prefix_hits += 1
        link = links[-1]
        if link.signer in directory and scheme.verify(
            directory.public_key_of(link.signer), message, link.signature
        ):
            self._chains[key] = next_chain_message(message, link)
            return True
        self._chains[key] = False
        return False

    def extend_chain(
        self,
        scheme: SignatureScheme,
        key_pair: KeyPair,
        payload: bytes,
        links: tuple[ChainLink, ...],
    ) -> tuple[ChainLink, ...]:
        """Drop-in :func:`repro.crypto.chain.extend_chain` that signs the
        memo's message for a chain verified here instead of re-encoding
        it.  Stores nothing: an extension enters the memo only when a
        receiver verifies it.  An equal key holds the same message by
        definition, so a chain grafted onto another payload cannot borrow
        one.
        """
        message = self._chains.get((payload, links)) or chain_message(payload, links)
        signature = scheme.sign(key_pair, message)
        return links + (ChainLink(signer=key_pair.node_id, signature=signature),)
