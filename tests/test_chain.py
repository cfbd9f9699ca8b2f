"""Tests for signature chains (Sec. II / Algorithm 1)."""

import pytest

from repro.crypto.chain import (
    ChainLink,
    chain_message,
    chain_signers,
    extend_chain,
    next_chain_message,
    verify_chain,
)


@pytest.fixture
def payload():
    return b"the-proof-bytes"


def build_chain(scheme, keystore, payload, signer_ids):
    chain = ()
    for signer in signer_ids:
        chain = extend_chain(scheme, keystore.key_pair_of(signer), payload, chain)
    return chain


class TestExtendAndVerify:
    def test_single_link_roundtrip(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [3])
        assert verify_chain(scheme, keystore.directory, payload, chain)
        assert chain_signers(chain) == (3,)

    def test_multi_link_roundtrip(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [3, 1, 4, 1, 5])
        assert verify_chain(scheme, keystore.directory, payload, chain)
        assert chain_signers(chain) == (3, 1, 4, 1, 5)

    def test_empty_chain_is_invalid(self, scheme, keystore, payload):
        assert not verify_chain(scheme, keystore.directory, payload, ())

    def test_wrong_payload_fails(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [0, 1])
        assert not verify_chain(scheme, keystore.directory, b"other", chain)

    def test_inner_layer_tamper_fails(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [0, 1, 2])
        bad_inner = ChainLink(signer=0, signature=bytes(scheme.signature_size))
        tampered = (bad_inner,) + chain[1:]
        assert not verify_chain(scheme, keystore.directory, payload, tampered)

    def test_reordered_links_fail(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [0, 1, 2])
        reordered = (chain[1], chain[0], chain[2])
        assert not verify_chain(scheme, keystore.directory, payload, reordered)

    def test_truncated_chain_still_verifies_as_prefix(self, scheme, keystore, payload):
        """Prefixes are themselves valid chains — the relay invariant."""
        chain = build_chain(scheme, keystore, payload, [0, 1, 2])
        assert verify_chain(scheme, keystore.directory, payload, chain[:2])

    def test_unknown_signer_fails(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [0])
        forged = chain + (ChainLink(signer=999, signature=bytes(scheme.signature_size)),)
        assert not verify_chain(scheme, keystore.directory, payload, forged)

    def test_attacker_cannot_extend_as_someone_else(self, scheme, keystore, payload):
        """Signing a layer in another node's name fails verification."""
        chain = build_chain(scheme, keystore, payload, [0])
        attacker = keystore.key_pair_of(5)
        message = chain_message(payload, chain)
        fake_layer = ChainLink(signer=7, signature=scheme.sign(attacker, message))
        assert not verify_chain(
            scheme, keystore.directory, payload, chain + (fake_layer,)
        )


class TestChainMessage:
    def test_domain_separated_from_raw_payload(self, payload):
        assert chain_message(payload, ()) != payload

    def test_depends_on_inner_links(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [1])
        assert chain_message(payload, ()) != chain_message(payload, chain)

    def test_length_prefix_prevents_ambiguity(self):
        """Different (payload, links) splits never collide."""
        a = chain_message(b"ab", ())
        b = chain_message(b"a", ())
        assert not b.startswith(a[: len(b)]) or a != b
        assert a != b

    def test_next_message_extends_by_one_link(self, scheme, keystore, payload):
        chain = build_chain(scheme, keystore, payload, [3, 1, 4])
        message = chain_message(payload, ())
        for index, link in enumerate(chain):
            message = next_chain_message(message, link)
            assert message == chain_message(payload, chain[: index + 1])
