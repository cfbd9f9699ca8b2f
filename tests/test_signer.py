"""Tests for the signature schemes and the public directory."""

import hmac
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.signer import (
    HmacScheme,
    KeyPair,
    NullScheme,
    PublicDirectory,
    require_valid,
)
from repro.errors import SignatureError, UnknownKeyError


@pytest.fixture
def pair(scheme, rng):
    return scheme.generate_keypair(3, rng)


class TestHmacScheme:
    def test_sign_verify_roundtrip(self, scheme, pair):
        signature = scheme.sign(pair, b"hello")
        assert scheme.verify(pair.public_key, b"hello", signature)

    def test_signature_has_declared_size(self, scheme, pair):
        assert len(scheme.sign(pair, b"x")) == scheme.signature_size

    def test_rejects_tampered_message(self, scheme, pair):
        signature = scheme.sign(pair, b"hello")
        assert not scheme.verify(pair.public_key, b"hell0", signature)

    def test_rejects_tampered_signature(self, scheme, pair):
        signature = bytearray(scheme.sign(pair, b"hello"))
        signature[0] ^= 0xFF
        assert not scheme.verify(pair.public_key, b"hello", bytes(signature))

    def test_rejects_wrong_size_signature(self, scheme, pair):
        signature = scheme.sign(pair, b"hello")
        assert not scheme.verify(pair.public_key, b"hello", signature[:-1])

    def test_rejects_foreign_key(self, scheme, rng):
        alice = scheme.generate_keypair(1, rng)
        bob = scheme.generate_keypair(2, rng)
        signature = scheme.sign(alice, b"msg")
        assert not scheme.verify(bob.public_key, b"msg", signature)

    def test_cross_scheme_forgery_fails(self, rng):
        """A key generated by another scheme instance cannot validate."""
        scheme_a = HmacScheme()
        scheme_b = HmacScheme()
        pair = scheme_a.generate_keypair(1, rng)
        signature = scheme_a.sign(pair, b"msg")
        assert not scheme_b.verify(pair.public_key, b"msg", signature)

    def test_adversary_without_private_key_cannot_forge(self, scheme, rng):
        """Guessing tags without the secret fails (the model's core)."""
        victim = scheme.generate_keypair(1, rng)
        attacker_rng = random.Random(99)
        for _ in range(32):
            guess = attacker_rng.randbytes(scheme.signature_size)
            assert not scheme.verify(victim.public_key, b"msg", guess)

    def test_deterministic_keygen(self):
        scheme_a, scheme_b = HmacScheme(), HmacScheme()
        pair_a = scheme_a.generate_keypair(1, random.Random(5))
        pair_b = scheme_b.generate_keypair(1, random.Random(5))
        assert pair_a.public_key == pair_b.public_key

    def test_minimum_signature_size_enforced(self):
        with pytest.raises(ValueError):
            HmacScheme(signature_size=16)

    def test_repr_hides_secret(self, scheme, pair):
        assert pair.private_key.hex() not in repr(pair)

    def test_rejects_nonzero_padding(self, scheme, pair):
        """Regression: verification used to compare only the 32 tag
        bytes, so every signature had byte-different copies (padding
        altered) that verified too."""
        signature = scheme.sign(pair, b"hello")
        forged = signature[:32] + b"\x01" * (scheme.signature_size - 32)
        assert forged != signature
        assert not scheme.verify(pair.public_key, b"hello", forged)

    @settings(max_examples=200, deadline=None)
    @given(
        key=st.binary(max_size=100),
        message=st.binary(max_size=5000),
        size=st.sampled_from([32, 64, 96]),
    )
    def test_tags_equal_hmac_digest(self, key, message, size):
        """The per-key inner/outer states give RFC 2104 tags, also for
        an empty secret and one longer than the 64-byte block."""
        scheme = HmacScheme(signature_size=size)
        pair = KeyPair(node_id=0, private_key=key, public_key=b"")
        expected = hmac.digest(key, message, "sha256").ljust(size, b"\x00")
        assert scheme.sign(pair, message) == expected
        assert scheme.sign(pair, message) == expected  # memoised states

    def test_pickles_after_signing(self, scheme, pair):
        """A scheme that has signed still pickles (hashlib states do
        not), and the copy signs and verifies identically."""
        signature = scheme.sign(pair, b"hello")
        copy = pickle.loads(pickle.dumps(scheme))
        assert copy.sign(pair, b"hello") == signature
        assert copy.verify(pair.public_key, b"hello", signature)
        assert copy.sign(pair, b"other") == scheme.sign(pair, b"other")


class TestNullScheme:
    def test_always_verifies_right_size(self, rng):
        scheme = NullScheme(signature_size=64)
        pair = scheme.generate_keypair(4, rng)
        assert scheme.verify(pair.public_key, b"x", scheme.sign(pair, b"y"))

    def test_rejects_wrong_size(self, rng):
        scheme = NullScheme(signature_size=64)
        assert not scheme.verify(b"pub", b"x", b"short")

    def test_signature_size_matches(self, rng):
        scheme = NullScheme(signature_size=32)
        pair = scheme.generate_keypair(4, rng)
        assert len(scheme.sign(pair, b"data")) == 32


class TestPublicDirectory:
    def test_lookup(self, scheme, rng):
        pair = scheme.generate_keypair(7, rng)
        directory = PublicDirectory({7: pair.public_key})
        assert directory.public_key_of(7) == pair.public_key
        assert 7 in directory
        assert 8 not in directory

    def test_unknown_raises(self):
        directory = PublicDirectory({})
        with pytest.raises(UnknownKeyError):
            directory.public_key_of(1)

    def test_node_ids(self):
        directory = PublicDirectory({1: b"a", 5: b"b"})
        assert directory.node_ids() == frozenset({1, 5})


class TestRequireValid:
    def test_passes_on_valid(self, scheme, pair):
        directory = PublicDirectory({3: pair.public_key})
        require_valid(scheme, directory, 3, b"m", scheme.sign(pair, b"m"))

    def test_raises_on_invalid(self, scheme, pair):
        directory = PublicDirectory({3: pair.public_key})
        with pytest.raises(SignatureError):
            require_valid(scheme, directory, 3, b"m", bytes(scheme.signature_size))
