"""Acceptance rules for edge announcements.

"Invalid messages are ignored" (Algorithm 1, l. 13).  This module
centralises what *valid* means for an announcement delivered by
neighbor ``sender`` during round ``R``:

1. the chain carries exactly ``R`` links — a correct execution always
   yields chain length equal to the round number, and the check stops
   Byzantine nodes from replaying announcements late (l. 14);
2. the outermost link was signed by the delivering neighbor — the
   message is ``σ_k(...)`` received *from* k (l. 13);
3. the innermost link was signed by an endpoint of the edge — round 1
   messages are ``σ_i(proof_{i,j})`` sent by ``i`` itself (l. 8) — and
   the edge is canonical (lo < hi), so no edge enters G_i twice;
4. the neighborhood proof verifies (both endpoint signatures);
5. every chain link verifies against the public directory.

Checks 4-5 are the cryptographic ones; in ``ValidationMode.ACCOUNTING``
they are skipped so that adversary-free cost sweeps (Figs. 3-7) run
fast, while the structural checks 1-3 always apply.  The experiment
runner refuses ACCOUNTING mode in runs containing Byzantine nodes.

Checks 4-5 are also pure functions of the announcement, so a
:class:`repro.crypto.cache.VerificationCache` can memoize them without
changing a single accept/reject decision (DESIGN.md §6.1); pass one to
the constructor to enable it.  A cache shared across the nodes of a
simulated deployment verifies every distinct signature once globally.
"""

from __future__ import annotations

import enum

from repro.core.messages import EdgeAnnouncement
from repro.crypto.cache import VerificationCache
from repro.crypto.chain import verify_chain
from repro.crypto.proofs import proof_bytes, verify_proof
from repro.crypto.signer import PublicDirectory, SignatureScheme
from repro.types import NodeId


class ValidationMode(enum.Enum):
    """How much of an announcement to verify."""

    #: Verify everything, including all signatures.
    FULL = "full"
    #: Structural checks only; for adversary-free cost measurements.
    ACCOUNTING = "accounting"


class AnnouncementValidator:
    """Stateless validator for :class:`EdgeAnnouncement` objects."""

    def __init__(
        self,
        scheme: SignatureScheme,
        directory: PublicDirectory,
        mode: ValidationMode = ValidationMode.FULL,
        cache: VerificationCache | None = None,
    ) -> None:
        self._scheme = scheme
        self._directory = directory
        self._mode = mode
        self._cache = cache

    @property
    def mode(self) -> ValidationMode:
        """The configured validation mode."""
        return self._mode

    @property
    def cache(self) -> VerificationCache | None:
        """The verification cache, if one was injected."""
        return self._cache

    def validate(
        self,
        announcement: EdgeAnnouncement,
        round_number: int,
        sender: NodeId,
    ) -> bool:
        """Apply the acceptance rules; True means accept."""
        chain = announcement.chain
        proof = announcement.proof
        # Rule 1: lengthSign(msg) = R.
        if len(chain) != round_number:
            return False
        # Rule 2: the outermost signer is the delivering neighbor.
        if chain[-1].signer != sender:
            return False
        # Rule 3: the originator is an endpoint of the announced edge.
        originator = chain[0].signer
        if originator != proof.edge[0] and originator != proof.edge[1]:
            return False
        # ...written canonically, as make_proof does: a reversed edge
        # with swapped signatures verifies, but would enter G_i twice.
        if proof.lo >= proof.hi:
            return False
        if self._mode is ValidationMode.ACCOUNTING:
            return True
        if self._cache is not None:
            # Rules 4-5, memoized: same signatures, checked once.
            return self._cache.verify_announcement(
                self._scheme, self._directory, announcement
            )
        # Rule 4: the proof itself is co-signed by both endpoints.
        if not verify_proof(self._scheme, self._directory, proof):
            return False
        # Rule 5: every chain layer verifies.
        return verify_chain(
            self._scheme, self._directory, proof_bytes(proof), chain
        )
