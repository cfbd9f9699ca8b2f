"""Tests for the announcement acceptance rules (Algorithm 1, ll. 13-14)."""

import pytest

from repro.core.messages import EdgeAnnouncement
from repro.core.validation import AnnouncementValidator, ValidationMode
from repro.crypto.chain import ChainLink, extend_chain
from repro.crypto.proofs import NeighborhoodProof, make_proof, proof_bytes


@pytest.fixture
def validator(scheme, keystore):
    return AnnouncementValidator(scheme, keystore.directory)


def announce(scheme, keystore, edge, signer_path):
    """Build an announcement for ``edge`` relayed along ``signer_path``."""
    proof = make_proof(
        scheme, keystore.key_pair_of(edge[0]), keystore.key_pair_of(edge[1])
    )
    chain = ()
    for signer in signer_path:
        chain = extend_chain(
            scheme, keystore.key_pair_of(signer), proof_bytes(proof), chain
        )
    return EdgeAnnouncement(proof=proof, chain=chain)


class TestStructuralRules:
    def test_round_one_from_originator(self, validator, scheme, keystore):
        announcement = announce(scheme, keystore, (1, 2), [1])
        assert validator.validate(announcement, round_number=1, sender=1)

    def test_relayed_chain(self, validator, scheme, keystore):
        announcement = announce(scheme, keystore, (1, 2), [1, 3, 4])
        assert validator.validate(announcement, round_number=3, sender=4)

    def test_wrong_round_rejected(self, validator, scheme, keystore):
        """lengthSign(msg) must equal R — both late and early messages die."""
        announcement = announce(scheme, keystore, (1, 2), [1, 3])
        assert not validator.validate(announcement, round_number=1, sender=3)
        assert not validator.validate(announcement, round_number=3, sender=3)

    def test_outer_signer_must_be_sender(self, validator, scheme, keystore):
        announcement = announce(scheme, keystore, (1, 2), [1, 3])
        assert not validator.validate(announcement, round_number=2, sender=5)

    def test_originator_must_be_endpoint(self, validator, scheme, keystore):
        """A third party cannot originate an edge announcement."""
        announcement = announce(scheme, keystore, (1, 2), [7])
        assert not validator.validate(announcement, round_number=1, sender=7)

    @pytest.mark.parametrize("mode", list(ValidationMode))
    def test_reversed_edge_rejected(self, scheme, keystore, mode):
        """Rule 3 admits only the canonical (lo, hi) order: the swapped
        proof carries both real signatures, yet would name a known edge
        a second time in G_i."""
        validator = AnnouncementValidator(scheme, keystore.directory, mode)
        real = make_proof(scheme, keystore.key_pair_of(3), keystore.key_pair_of(5))
        swapped = NeighborhoodProof(
            edge=(5, 3),
            signature_lo=real.signature_hi,
            signature_hi=real.signature_lo,
        )
        for proof, accepted in ((real, True), (swapped, False)):
            chain = extend_chain(scheme, keystore.key_pair_of(5), proof_bytes(proof), ())
            announcement = EdgeAnnouncement(proof=proof, chain=chain)
            assert validator.validate(announcement, round_number=1, sender=5) is accepted


class TestCryptographicRules:
    def test_forged_proof_rejected(self, validator, scheme, keystore):
        """One Byzantine key signing both slots fails (model boundary)."""
        byzantine = keystore.key_pair_of(3)
        fake_proof = make_proof(scheme, byzantine, byzantine.__class__(
            node_id=6,
            private_key=byzantine.private_key,
            public_key=byzantine.public_key,
        ))
        chain = extend_chain(scheme, byzantine, proof_bytes(fake_proof), ())
        announcement = EdgeAnnouncement(proof=fake_proof, chain=chain)
        assert not validator.validate(announcement, round_number=1, sender=3)

    def test_tampered_chain_rejected(self, validator, scheme, keystore):
        announcement = announce(scheme, keystore, (1, 2), [1, 3])
        bad_chain = (
            announcement.chain[0],
            ChainLink(signer=3, signature=bytes(scheme.signature_size)),
        )
        tampered = EdgeAnnouncement(proof=announcement.proof, chain=bad_chain)
        assert not validator.validate(tampered, round_number=2, sender=3)

    def test_swapped_proof_rejected(self, validator, scheme, keystore):
        """A valid chain over a different proof does not transfer."""
        real = announce(scheme, keystore, (1, 2), [1])
        other_proof = make_proof(
            scheme, keystore.key_pair_of(1), keystore.key_pair_of(4)
        )
        frankenstein = EdgeAnnouncement(proof=other_proof, chain=real.chain)
        assert not validator.validate(frankenstein, round_number=1, sender=1)

    def test_degenerate_edge_rejected(self, validator, scheme, keystore):
        key = keystore.key_pair_of(2)
        proof = NeighborhoodProof(
            edge=(2, 2),
            signature_lo=bytes(scheme.signature_size),
            signature_hi=bytes(scheme.signature_size),
        )
        chain = extend_chain(scheme, key, proof_bytes(proof), ())
        announcement = EdgeAnnouncement(proof=proof, chain=chain)
        assert not validator.validate(announcement, round_number=1, sender=2)


class TestAccountingMode:
    def test_skips_crypto_keeps_structure(self, scheme, keystore):
        validator = AnnouncementValidator(
            scheme, keystore.directory, ValidationMode.ACCOUNTING
        )
        proof = make_proof(
            scheme, keystore.key_pair_of(1), keystore.key_pair_of(2)
        )
        garbage_chain = (ChainLink(signer=1, signature=bytes(scheme.signature_size)),)
        announcement = EdgeAnnouncement(proof=proof, chain=garbage_chain)
        # Bad signature, but structurally fine: accepted in ACCOUNTING...
        assert validator.validate(announcement, round_number=1, sender=1)
        # ...while structural violations still fail.
        assert not validator.validate(announcement, round_number=2, sender=1)
        assert not validator.validate(announcement, round_number=1, sender=4)

    def test_mode_exposed(self, scheme, keystore):
        validator = AnnouncementValidator(
            scheme, keystore.directory, ValidationMode.ACCOUNTING
        )
        assert validator.mode is ValidationMode.ACCOUNTING
