"""Chained signatures (Sec. II and Algorithm 1).

NECTAR relays edge announcements inside *signature chains*
``σ_k(σ_x(... σ_u(proof_{u,v})))``: each relaying node appends its own
signature over the payload plus the chain so far.  The chain length
must equal the round number (Algorithm 1, l. 14), which bounds the
damage Byzantine relays can do and underpins the Dolev–Strong style
argument of Lemma 2.

A chain is a tuple of :class:`ChainLink`; link ``i`` signs the domain-
separated concatenation of the payload and links ``0 .. i-1``.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.crypto.signer import KeyPair, PublicDirectory, SignatureScheme
from repro.types import NodeId

_CHAIN_DOMAIN = b"repro-signature-chain|"


class ChainLink(NamedTuple):
    """One layer of a signature chain.

    A named tuple, so the chain memo's ``(payload, links)`` keys hash
    and compare in C.

    Attributes:
        signer: id of the node that produced this layer.
        signature: its signature over the payload and all inner layers.
    """

    signer: NodeId
    signature: bytes


def well_formed(links: object) -> bool:
    """Whether ``links`` is a tuple of :class:`ChainLink` values, each
    with an int signer and a bytes signature (a Byzantine relay may
    send any object)."""
    if type(links) is not tuple:
        return False
    for link in links:  # a loop: twice as fast as all() over a generator
        if (
            type(link) is not ChainLink
            or type(link.signer) is not int
            or type(link.signature) is not bytes
        ):
            return False
    return True


def chain_message(payload: bytes, inner_links: tuple[ChainLink, ...]) -> bytes:
    """The byte string signed by the link that follows ``inner_links``."""
    parts = [_CHAIN_DOMAIN, len(payload).to_bytes(4, "big"), payload]
    for link in inner_links:
        parts.append(link.signer.to_bytes(2, "big"))
        parts.append(link.signature)
    return b"".join(parts)


def next_chain_message(message: bytes, link: ChainLink) -> bytes:
    """The message signed after ``link``, from the one ``link`` signed:
    ``chain_message(payload, links + (link,))`` given
    ``message == chain_message(payload, links)``."""
    return message + link.signer.to_bytes(2, "big") + link.signature


def extend_chain(
    scheme: SignatureScheme,
    key_pair: KeyPair,
    payload: bytes,
    links: tuple[ChainLink, ...],
) -> tuple[ChainLink, ...]:
    """Append the caller's signature layer and return the new chain.

    ``links`` may be empty, in which case this creates the innermost
    layer (what the originator sends in round 1).
    """
    signature = scheme.sign(key_pair, chain_message(payload, links))
    return links + (ChainLink(signer=key_pair.node_id, signature=signature),)


def verify_chain(
    scheme: SignatureScheme,
    directory: PublicDirectory,
    payload: bytes,
    links: tuple[ChainLink, ...],
) -> bool:
    """Check every layer of a signature chain.

    Returns ``False`` on any malformed or invalid layer; adversarial
    chains are dropped silently by callers.
    """
    if not links:
        return False
    for index, link in enumerate(links):
        if link.signer not in directory:
            return False
        message = chain_message(payload, links[:index])
        public = directory.public_key_of(link.signer)
        if not scheme.verify(public, message, link.signature):
            return False
    return True


def chain_signers(links: tuple[ChainLink, ...]) -> tuple[NodeId, ...]:
    """The signer ids of a chain, innermost first."""
    return tuple(link.signer for link in links)
