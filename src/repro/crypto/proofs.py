"""Proofs of neighborhood (Sec. II).

A proof of neighborhood ``proof_{i,j}`` is a cryptographic object used
by node ``i`` to declare an edge with node ``j``; it cannot be forged
as soon as either ``i`` or ``j`` is correct.  We realise it as the
canonical edge encoding co-signed by *both* endpoints:

* a single Byzantine node cannot fabricate a proof naming a correct
  node, because it lacks that node's private key;
* two colluding Byzantine nodes *can* fabricate a proof for a
  fictitious edge between themselves — explicitly allowed by the model
  and harmless for NECTAR (Sec. IV, "Impact of Byzantine deviations").

A proof from :func:`make_proof` signs on first read: both endpoint
signatures are computed together the first time either is read.  Every
scheme signs deterministically, so they are the bytes an eagerly signed
proof carries, and a trial that never reads one — MtG and MtGv2 nodes,
the crypto-free closed-form populations — never computes or stores it
(DESIGN.md §15.4).
"""

from __future__ import annotations

import threading
from dataclasses import FrozenInstanceError

from repro.crypto.signer import KeyPair, PublicDirectory, SignatureScheme
from repro.types import Edge, NodeId, canonical_edge

_PROOF_DOMAIN = b"repro-neighborhood-proof|"

#: Held while an unsigned proof signs, so that threads racing on one
#: proof (the fleet service steps epochs on worker threads over a
#: shared deployment store) sign it once between them.
_SIGNING = threading.Lock()


def proof_message(u: NodeId, v: NodeId) -> bytes:
    """Canonical byte string both endpoints sign to attest edge (u, v)."""
    lo, hi = canonical_edge(u, v)
    return _PROOF_DOMAIN + lo.to_bytes(2, "big") + hi.to_bytes(2, "big")


class NeighborhoodProof:
    """An edge attested by both of its endpoints.

    An immutable value of its edge and two signatures: equality,
    hashing, ``repr``, ``copy`` and pickling see those three fields and
    nothing else, so a proof pickles without key material.  Built
    directly, a proof holds the signatures it is given; built by
    :func:`make_proof`, it holds its endpoints' keys until first read.

    Attributes:
        edge: the canonical (lo, hi) edge.
        signature_lo: signature of the lower-id endpoint over
            :func:`proof_message`.
        signature_hi: signature of the higher-id endpoint.
    """

    # Until the proof signs, ``_signing`` holds (scheme, key of lo, key
    # of hi) and the two signature slots are unset; ``_payload_cache``
    # is :func:`proof_bytes`' memo.  There is no ``__getattr__`` hook:
    # one would slow every attribute read of every proof.
    __slots__ = (
        "edge",
        "_signature_lo",
        "_signature_hi",
        "_signing",
        "_payload_cache",
    )

    def __init__(self, edge: Edge, signature_lo: bytes, signature_hi: bytes) -> None:
        object.__setattr__(self, "edge", edge)
        object.__setattr__(self, "_signature_lo", signature_lo)
        object.__setattr__(self, "_signature_hi", signature_hi)
        object.__setattr__(self, "_signing", None)

    @property
    def signature_lo(self) -> bytes:
        if self._signing is not None:
            self._sign()
        return self._signature_lo

    @property
    def signature_hi(self) -> bytes:
        if self._signing is not None:
            self._sign()
        return self._signature_hi

    def _sign(self) -> None:
        """Compute both signatures, once.  An error from the scheme
        reaches the reader and leaves the proof unsigned."""
        with _SIGNING:
            signing = self._signing
            if signing is None:  # signed by another thread meanwhile
                return
            scheme, key_lo, key_hi = signing
            message = proof_message(*self.edge)
            signature_lo = scheme.sign(key_lo, message)
            signature_hi = scheme.sign(key_hi, message)
            # Publish before dropping the signing material: a reader
            # that finds ``_signing`` None reads the slots without the
            # lock.
            object.__setattr__(self, "_signature_lo", signature_lo)
            object.__setattr__(self, "_signature_hi", signature_hi)
            object.__setattr__(self, "_signing", None)

    def is_signed(self) -> bool:
        """Whether both signatures are computed; never signs.  A method,
        so that signature reads stay plain slot and property reads."""
        return self._signing is None

    def _fields(self) -> tuple[Edge, bytes, bytes]:
        if self._signing is not None:
            self._sign()
        return self.edge, self._signature_lo, self._signature_hi

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return "{}(edge={!r}, signature_lo={!r}, signature_hi={!r})".format(
            type(self).__qualname__, *self._fields()
        )

    def __reduce__(self):
        return type(self), self._fields()

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    @property
    def lo(self) -> NodeId:
        return self.edge[0]

    @property
    def hi(self) -> NodeId:
        return self.edge[1]

    def endpoints(self) -> frozenset[NodeId]:
        """The two endpoints as a set."""
        return frozenset(self.edge)


def make_proof(
    scheme: SignatureScheme, key_u: KeyPair, key_v: KeyPair
) -> NeighborhoodProof:
    """The neighborhood proof for the edge between two key owners.

    Used by the setup harness for every real edge of G, and by
    colluding Byzantine pairs for fictitious edges (both cases hold the
    two private keys, which is exactly the forgeability boundary of the
    model).  The proof signs on first read, with ``scheme`` and the
    two keys.
    """
    lo, hi = canonical_edge(key_u.node_id, key_v.node_id)
    by_id = {key_u.node_id: key_u, key_v.node_id: key_v}
    proof = object.__new__(NeighborhoodProof)
    object.__setattr__(proof, "edge", (lo, hi))
    object.__setattr__(proof, "_signing", (scheme, by_id[lo], by_id[hi]))
    return proof


def verify_proof(
    scheme: SignatureScheme, directory: PublicDirectory, proof: NeighborhoodProof
) -> bool:
    """Check both endpoint signatures of a proof.

    Returns ``False`` (rather than raising) on any problem: invalid
    proofs are ordinary adversarial input and are simply dropped.
    """
    lo, hi = proof.edge
    if lo == hi:
        return False
    if lo not in directory or hi not in directory:
        return False
    signature_lo, signature_hi = proof.signature_lo, proof.signature_hi
    if type(signature_lo) is not bytes or type(signature_hi) is not bytes:
        return False
    message = proof_message(lo, hi)
    if not scheme.verify(directory.public_key_of(lo), message, signature_lo):
        return False
    return scheme.verify(directory.public_key_of(hi), message, signature_hi)


def proof_bytes(proof: NeighborhoodProof) -> bytes:
    """Deterministic encoding of a proof, used as chain payload.

    Memoized on the proof object: the same (immutable) proof is
    encoded once per relay and once per verification along every path
    its announcement travels, always to the same bytes.
    """
    cached = getattr(proof, "_payload_cache", None)
    if cached is None:
        lo, hi = proof.edge
        cached = (
            lo.to_bytes(2, "big")
            + hi.to_bytes(2, "big")
            + proof.signature_lo
            + proof.signature_hi
        )
        object.__setattr__(proof, "_payload_cache", cached)
    return cached
