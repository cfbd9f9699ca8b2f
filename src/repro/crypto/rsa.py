"""Pure-Python RSA signatures (full-domain hash).

A genuinely asymmetric :class:`repro.crypto.signer.SignatureScheme`
implementation, provided to demonstrate that no part of the protocol
stack relies on the HMAC oracle trick of the default scheme.  Key
generation uses Miller–Rabin primality testing seeded from the
experiment RNG, so runs remain reproducible.

This is *textbook* RSA-FDH: fine for a simulation of an unforgeable
signature primitive, not for production cryptography.
"""

from __future__ import annotations

import hashlib

from repro.crypto.signer import KeyPair, SignatureScheme
from repro.errors import SignatureError
from repro.types import NodeId

# Small primes used to cheaply reject most composite candidates before
# running Miller-Rabin.
_SMALL_PRIMES = (
    3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139,
)

_MILLER_RABIN_ROUNDS = 40


def is_probable_prime(candidate: int, rng) -> bool:
    """Miller–Rabin primality test with random bases drawn from ``rng``."""
    if candidate < 2:
        return False
    if candidate in (2, 3):
        return True
    if candidate % 2 == 0:
        return False
    for small in _SMALL_PRIMES:
        if candidate == small:
            return True
        if candidate % small == 0:
            return False
    # Write candidate - 1 as odd_part * 2**two_exponent.
    odd_part = candidate - 1
    two_exponent = 0
    while odd_part % 2 == 0:
        odd_part //= 2
        two_exponent += 1
    for _ in range(_MILLER_RABIN_ROUNDS):
        base = rng.randrange(2, candidate - 1)
        x = pow(base, odd_part, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(two_exponent - 1):
            x = pow(x, 2, candidate)
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng) -> int:
    """Generate a random probable prime of exactly ``bits`` bits."""
    if bits < 8:
        raise ValueError("prime size below 8 bits is not supported")
    while True:
        candidate = rng.getrandbits(bits)
        candidate |= (1 << (bits - 1)) | 1  # force size and oddness
        if is_probable_prime(candidate, rng):
            return candidate


def _modular_inverse(a: int, modulus: int) -> int:
    """Return a^-1 mod modulus via the extended Euclidean algorithm."""
    old_r, r = a, modulus
    old_s, s = 1, 0
    while r != 0:
        quotient = old_r // r
        old_r, r = r, old_r - quotient * r
        old_s, s = s, old_s - quotient * s
    if old_r != 1:
        raise ValueError("inverse does not exist")
    return old_s % modulus


def _full_domain_hash(data: bytes, modulus: int) -> int:
    """Hash ``data`` to an integer in [0, modulus) using SHA-256 in counter mode."""
    target_bytes = (modulus.bit_length() + 7) // 8 + 8
    digest = b""
    counter = 0
    while len(digest) < target_bytes:
        digest += hashlib.sha256(counter.to_bytes(4, "big") + data).digest()
        counter += 1
    return int.from_bytes(digest[:target_bytes], "big") % modulus


class RsaScheme(SignatureScheme):
    """RSA-FDH signatures with ``bits``-bit moduli.

    Private key wire format: ``modulus || private_exponent || p || q``
    (each as a fixed-width big-endian integer; a key of any other
    width, such as a two-field key without the primes, raises
    :class:`repro.errors.SignatureError` at signing).  Public key:
    ``modulus`` alone (the public exponent is the constant 65537).

    Signing uses the standard CRT shortcut — two half-size
    exponentiations instead of one full-size one, ~3-4× faster — and
    memoises the per-key CRT parameters, so the protocol simulations
    that sign thousands of chain links per trial pay the derivation
    once per key.  The produced signature is bit-identical to the
    textbook ``m^d mod n`` (CRT reconstructs the same residue), so
    cached and uncached runs agree.

    Args:
        bits: modulus size.  512 is the default; 256 is enough for
            tests and much faster to generate.
    """

    PUBLIC_EXPONENT = 65537

    def __init__(self, bits: int = 512) -> None:
        if bits < 128:
            raise ValueError("modulus below 128 bits cannot host SHA-256 FDH safely")
        self.bits = bits
        self.signature_size = (bits + 7) // 8
        # private_key bytes -> (modulus, p, q, d mod p-1, d mod q-1,
        # q^-1 mod p); at most one entry per deployment key.
        self._crt_params: dict[bytes, tuple[int, int, int, int, int, int]] = {}

    def generate_keypair(self, node_id: NodeId, rng) -> KeyPair:
        half = self.bits // 2
        while True:
            p = generate_prime(half, rng)
            q = generate_prime(self.bits - half, rng)
            if p == q:
                continue
            modulus = p * q
            phi = (p - 1) * (q - 1)
            if phi % self.PUBLIC_EXPONENT == 0:
                continue
            private_exponent = _modular_inverse(self.PUBLIC_EXPONENT, phi)
            break
        width = self.signature_size
        private = (
            modulus.to_bytes(width, "big")
            + private_exponent.to_bytes(width, "big")
            + p.to_bytes(width, "big")
            + q.to_bytes(width, "big")
        )
        public = modulus.to_bytes(width, "big")
        return KeyPair(node_id=node_id, private_key=private, public_key=public)

    def sign(self, key_pair: KeyPair, data: bytes) -> bytes:
        width = self.signature_size
        private = key_pair.private_key
        params = self._crt_params.get(private)
        if params is None:
            if len(private) != 4 * width:  # (modulus, exponent, p, q)
                raise SignatureError(
                    f"private key of node {key_pair.node_id} is not four {width}-byte fields"
                )
            modulus = int.from_bytes(private[:width], "big")
            private_exponent = int.from_bytes(private[width : 2 * width], "big")
            p = int.from_bytes(private[2 * width : 3 * width], "big")
            q = int.from_bytes(private[3 * width : 4 * width], "big")
            params = (
                modulus,
                p,
                q,
                private_exponent % (p - 1),
                private_exponent % (q - 1),
                _modular_inverse(q % p, p),
            )
            self._crt_params[private] = params
        modulus, p, q, exp_p, exp_q, q_inverse = params
        digest = _full_domain_hash(data, modulus)
        residue_p = pow(digest % p, exp_p, p)
        residue_q = pow(digest % q, exp_q, q)
        # Garner recombination: the unique residue mod p*q.
        signature = residue_q + q * ((q_inverse * (residue_p - residue_q)) % p)
        return signature.to_bytes(width, "big")

    def verify(self, public_key: bytes, data: bytes, signature: bytes) -> bool:
        if len(signature) != self.signature_size:
            return False
        if len(public_key) != self.signature_size:
            return False
        modulus = int.from_bytes(public_key, "big")
        if modulus == 0:
            return False
        value = int.from_bytes(signature, "big")
        if value >= modulus:
            return False
        recovered = pow(value, self.PUBLIC_EXPONENT, modulus)
        return recovered == _full_domain_hash(data, modulus)
