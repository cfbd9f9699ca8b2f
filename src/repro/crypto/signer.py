"""Signature schemes.

The paper assumes an asymmetric digital signature scheme (Sec. II):
Byzantine nodes cannot forge the signatures of other nodes.  Two
interchangeable implementations are provided:

* :class:`HmacScheme` — the default.  Fast and dependency-free: a
  node's private key is a random secret, its public key is a
  commitment to that secret, and the *scheme instance* keeps the
  secret-by-public directory needed to recompute tags at verification
  time.  This is the standard "signature oracle" modelling trick for
  protocol simulations: adversary code only ever receives its own
  private key (see :class:`repro.crypto.keys.KeyStore`), so a forgery
  would require inverting the oracle, which the API does not allow.
* :class:`repro.crypto.rsa.RsaScheme` — a real public-key scheme
  (textbook RSA with full-domain hashing) proving that no protocol
  logic depends on the oracle trick.

Signatures are padded to a configurable wire size so that network-cost
accounting is independent of the backend (see
:mod:`repro.crypto.sizes`).
"""

from __future__ import annotations

import abc
import hashlib
import hmac
from dataclasses import dataclass

from repro.errors import SignatureError, UnknownKeyError
from repro.types import NodeId


@dataclass(frozen=True)
class KeyPair:
    """A node's signing material.

    Attributes:
        node_id: owner of the key.
        private_key: secret signing key; only ever handed to the owner.
        public_key: public verification key, listed in the directory.
    """

    node_id: NodeId
    private_key: bytes
    public_key: bytes

    def __repr__(self) -> str:  # avoid leaking secrets in logs
        return f"KeyPair(node_id={self.node_id}, public_key={self.public_key.hex()[:16]}…)"


class SignatureScheme(abc.ABC):
    """Abstract signature scheme: keygen, sign, verify.

    Concrete schemes must be deterministic given the RNG passed to
    :meth:`generate_keypair` so that experiments are reproducible.
    """

    #: Wire size of a signature produced by this scheme, in bytes.
    signature_size: int

    @abc.abstractmethod
    def generate_keypair(self, node_id: NodeId, rng) -> KeyPair:
        """Create a key pair for ``node_id`` using ``rng`` for entropy."""

    @abc.abstractmethod
    def sign(self, key_pair: KeyPair, data: bytes) -> bytes:
        """Sign ``data`` with the private key; returns a fixed-size tag."""

    @abc.abstractmethod
    def verify(self, public_key: bytes, data: bytes, signature: bytes) -> bool:
        """Check ``signature`` over ``data`` against ``public_key``."""


#: RFC 2104's inner and outer pads, as ``bytes.translate`` tables.
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class HmacScheme(SignatureScheme):
    """Unforgeable-signature model backed by HMAC-SHA256.

    ``sign`` computes HMAC(secret, data), zero-padded to
    ``signature_size``.  ``verify`` looks the secret up by public key
    in the scheme-internal directory, recomputes the padded tag and
    compares all of it, padding included.  Only
    :meth:`generate_keypair` populates that directory, so the only way
    to produce a tag accepted for node ``i`` is to hold node ``i``'s
    private key — exactly the paper's assumption.

    Tags start from per-secret SHA-256 states that have absorbed the
    inner and outer padded key blocks (RFC 2104 §4), byte-identical to
    ``hmac.digest``.  hashlib states do not pickle, so pickling drops
    them and they are rebuilt on first use.

    Args:
        signature_size: padded wire size of signatures (>= 32).
    """

    _TAG_LEN = 32  # SHA-256 output
    _BLOCK = 64  # SHA-256 block size

    def __init__(self, signature_size: int = 64) -> None:
        if signature_size < self._TAG_LEN:
            raise ValueError(
                f"signature_size must be >= {self._TAG_LEN}, got {signature_size}"
            )
        self.signature_size = signature_size
        self._secret_by_public: dict[bytes, bytes] = {}
        self._pads: dict[bytes, tuple] = {}

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_pads"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, _pads={})

    def generate_keypair(self, node_id: NodeId, rng) -> KeyPair:
        secret = rng.randbytes(32)
        public = hashlib.sha256(b"repro-public|" + secret).digest()
        self._secret_by_public[public] = secret
        return KeyPair(node_id=node_id, private_key=secret, public_key=public)

    def _tag(self, secret: bytes, data: bytes) -> bytes:
        """HMAC-SHA256(secret, data), zero-padded to the wire size."""
        pads = self._pads.get(secret)
        if pads is None:
            block = secret
            if len(block) > self._BLOCK:
                block = hashlib.sha256(block).digest()
            block = block.ljust(self._BLOCK, b"\x00")
            pads = self._pads[secret] = (
                hashlib.sha256(block.translate(_IPAD)),
                hashlib.sha256(block.translate(_OPAD)),
            )
        inner = pads[0].copy()
        inner.update(data)
        outer = pads[1].copy()
        outer.update(inner.digest())
        return outer.digest().ljust(self.signature_size, b"\x00")

    def sign(self, key_pair: KeyPair, data: bytes) -> bytes:
        return self._tag(key_pair.private_key, data)

    def verify(self, public_key: bytes, data: bytes, signature: bytes) -> bool:
        if len(signature) != self.signature_size:
            return False
        secret = self._secret_by_public.get(public_key)
        if secret is None:
            return False
        return hmac.compare_digest(signature, self._tag(secret, data))


class NullScheme(SignatureScheme):
    """Accounting-only scheme for cost experiments without adversaries.

    Signing returns a deterministic placeholder of the right size and
    verification always succeeds.  This keeps byte accounting identical
    to :class:`HmacScheme` while removing per-message HMAC cost, which
    matters for the large n=100 sweeps of Fig. 3.  It must never be
    used in runs that contain Byzantine nodes; the experiment runner
    enforces this.
    """

    def __init__(self, signature_size: int = 64) -> None:
        if signature_size < 0:
            raise ValueError("signature_size cannot be negative")
        self.signature_size = signature_size

    def generate_keypair(self, node_id: NodeId, rng) -> KeyPair:
        ident = node_id.to_bytes(4, "big")
        return KeyPair(node_id=node_id, private_key=ident, public_key=ident)

    def sign(self, key_pair: KeyPair, data: bytes) -> bytes:
        return key_pair.public_key.ljust(self.signature_size, b"\x00")[
            : self.signature_size
        ]

    def verify(self, public_key: bytes, data: bytes, signature: bytes) -> bool:
        return len(signature) == self.signature_size


class PublicDirectory:
    """Read-only map from node id to public key (the system's PKI).

    Every process knows the ids of all ``n`` processes (Sec. II); this
    directory is the matching public-key listing, safe to share with
    all nodes including Byzantine ones.
    """

    def __init__(self, public_keys: dict[NodeId, bytes]) -> None:
        self._public_keys = dict(public_keys)

    def __len__(self) -> int:
        return len(self._public_keys)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self._public_keys

    def public_key_of(self, node_id: NodeId) -> bytes:
        """Return the public key of ``node_id``.

        Raises:
            UnknownKeyError: if the id is not registered.
        """
        try:
            return self._public_keys[node_id]
        except KeyError:
            raise UnknownKeyError(f"no public key registered for node {node_id}") from None

    def node_ids(self) -> frozenset[NodeId]:
        """All registered node ids."""
        return frozenset(self._public_keys)


def require_valid(
    scheme: SignatureScheme,
    directory: PublicDirectory,
    signer: NodeId,
    data: bytes,
    signature: bytes,
) -> None:
    """Verify or raise.

    Convenience used by code paths where an invalid signature is a
    programming error rather than adversarial input.

    Raises:
        SignatureError: when verification fails.
        UnknownKeyError: when ``signer`` has no registered key.
    """
    public = directory.public_key_of(signer)
    if not scheme.verify(public, data, signature):
        raise SignatureError(f"invalid signature attributed to node {signer}")
