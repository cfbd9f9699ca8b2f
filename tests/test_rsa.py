"""Tests for the pure-Python RSA-FDH scheme."""

import random

import pytest

from repro.crypto.rsa import RsaScheme, generate_prime, is_probable_prime
from repro.crypto.signer import KeyPair
from repro.errors import SignatureError


@pytest.fixture(scope="module")
def rsa_scheme():
    return RsaScheme(bits=256)


@pytest.fixture(scope="module")
def rsa_pair(rsa_scheme):
    return rsa_scheme.generate_keypair(1, random.Random(42))


class TestPrimality:
    def test_small_primes(self):
        rng = random.Random(0)
        for prime in (2, 3, 5, 7, 97, 7919):
            assert is_probable_prime(prime, rng)

    def test_small_composites(self):
        rng = random.Random(0)
        for composite in (1, 4, 6, 100, 7917, 561, 1105):  # incl. Carmichael
            assert not is_probable_prime(composite, rng)

    def test_generate_prime_has_exact_bits(self):
        rng = random.Random(3)
        prime = generate_prime(64, rng)
        assert prime.bit_length() == 64
        assert is_probable_prime(prime, rng)

    def test_generate_prime_rejects_tiny(self):
        with pytest.raises(ValueError):
            generate_prime(4, random.Random(0))


class TestRsaScheme:
    def test_sign_verify_roundtrip(self, rsa_scheme, rsa_pair):
        signature = rsa_scheme.sign(rsa_pair, b"payload")
        assert rsa_scheme.verify(rsa_pair.public_key, b"payload", signature)

    def test_signature_size(self, rsa_scheme, rsa_pair):
        assert len(rsa_scheme.sign(rsa_pair, b"x")) == rsa_scheme.signature_size
        assert rsa_scheme.signature_size == 32  # 256 bits

    def test_rejects_tampered_message(self, rsa_scheme, rsa_pair):
        signature = rsa_scheme.sign(rsa_pair, b"payload")
        assert not rsa_scheme.verify(rsa_pair.public_key, b"payloaD", signature)

    def test_rejects_tampered_signature(self, rsa_scheme, rsa_pair):
        signature = bytearray(rsa_scheme.sign(rsa_pair, b"payload"))
        signature[-1] ^= 1
        assert not rsa_scheme.verify(rsa_pair.public_key, b"payload", bytes(signature))

    def test_rejects_foreign_key(self, rsa_scheme, rsa_pair):
        other = rsa_scheme.generate_keypair(2, random.Random(43))
        signature = rsa_scheme.sign(rsa_pair, b"payload")
        assert not rsa_scheme.verify(other.public_key, b"payload", signature)

    def test_rejects_oversized_signature_value(self, rsa_scheme, rsa_pair):
        # A "signature" >= the modulus must be rejected outright.
        width = rsa_scheme.signature_size
        assert not rsa_scheme.verify(rsa_pair.public_key, b"x", b"\xff" * width)

    def test_rejects_wrong_length_inputs(self, rsa_scheme, rsa_pair):
        signature = rsa_scheme.sign(rsa_pair, b"x")
        assert not rsa_scheme.verify(rsa_pair.public_key, b"x", signature[:-1])
        assert not rsa_scheme.verify(rsa_pair.public_key[:-1], b"x", signature)

    @pytest.mark.parametrize("fields", [1, 2, 3, 5])
    def test_rejects_private_keys_not_four_fields_wide(self, rsa_scheme, rsa_pair, fields):
        """Keys are (modulus, exponent, p, q); the two-field form
        without CRT primes is not accepted."""
        width = rsa_scheme.signature_size
        private = (rsa_pair.private_key * 2)[: fields * width]
        key = KeyPair(node_id=1, private_key=private, public_key=rsa_pair.public_key)
        with pytest.raises(SignatureError, match="not four"):
            rsa_scheme.sign(key, b"payload")

    def test_keygen_is_deterministic(self, rsa_scheme):
        a = rsa_scheme.generate_keypair(1, random.Random(9))
        b = rsa_scheme.generate_keypair(1, random.Random(9))
        assert a.public_key == b.public_key

    def test_rejects_small_modulus_request(self):
        with pytest.raises(ValueError):
            RsaScheme(bits=64)
