"""Signature substrate: keys, schemes, neighborhood proofs, chains.

Besides the re-exports, this package hosts the **scheme registry**:
named factories for every signature scheme a declarative spec can ask
for (``env.scheme`` on any sweep — DESIGN.md §9.2).  Factories, not
instances, because :class:`HmacScheme` is stateful per deployment and
must be constructed fresh unless the artifact layer pools it.
"""

from typing import Callable

from repro.crypto.chain import (
    ChainLink,
    chain_message,
    chain_signers,
    extend_chain,
    verify_chain,
)
from repro.crypto.keys import KeyStore, build_keystore
from repro.crypto.proofs import (
    NeighborhoodProof,
    make_proof,
    proof_bytes,
    proof_message,
    verify_proof,
)
from repro.crypto.rsa import RsaScheme
from repro.crypto.signer import (
    HmacScheme,
    KeyPair,
    NullScheme,
    PublicDirectory,
    SignatureScheme,
    require_valid,
)
from repro.crypto.sizes import (
    COMPACT_PROFILE,
    DEFAULT_PROFILE,
    ECDSA_PROFILE,
    PAYLOAD_PROFILE,
    WireProfile,
)

#: scheme name -> factory; what ``env.scheme`` resolves against.  The
#: RSA tiers exist for keygen-cost realism (Miller–Rabin prime search):
#: ``rsa-256`` is fast enough for tests, ``rsa-512``/``rsa-1024`` make
#: key generation the dominant trial cost — the regime the artifact
#: layer's signer key pools exist for.
SCHEME_FACTORIES: dict[str, Callable[[], SignatureScheme]] = {
    "hmac": HmacScheme,
    "rsa-256": lambda: RsaScheme(bits=256),
    "rsa-512": lambda: RsaScheme(bits=512),
    "rsa-1024": lambda: RsaScheme(bits=1024),
}


def resolve_scheme(name: str) -> SignatureScheme:
    """Instantiate a registered scheme by name.

    Raises:
        KeyError: for an unknown name (callers surface their own
            domain-specific error with the known names).
    """
    return SCHEME_FACTORIES[name]()


def scheme_fingerprint(scheme: SignatureScheme) -> tuple | None:
    """A hashable identity for pooling key material across trials.

    Two scheme instances with the same fingerprint generate identical
    key pairs from identical RNG seeds, so a :class:`KeyStore` built
    under one may be reused under the other.  Returns ``None`` for
    scheme types this module does not know — unknown schemes are never
    pooled (correct, just uncached).
    """
    if isinstance(scheme, HmacScheme):
        return ("hmac", scheme.signature_size)
    if isinstance(scheme, NullScheme):
        return ("null", scheme.signature_size)
    if isinstance(scheme, RsaScheme):
        return ("rsa", scheme.bits)
    return None


__all__ = [
    "ChainLink",
    "chain_message",
    "chain_signers",
    "extend_chain",
    "verify_chain",
    "KeyStore",
    "build_keystore",
    "NeighborhoodProof",
    "make_proof",
    "proof_bytes",
    "proof_message",
    "verify_proof",
    "RsaScheme",
    "HmacScheme",
    "KeyPair",
    "NullScheme",
    "PublicDirectory",
    "SCHEME_FACTORIES",
    "SignatureScheme",
    "require_valid",
    "resolve_scheme",
    "scheme_fingerprint",
    "COMPACT_PROFILE",
    "DEFAULT_PROFILE",
    "ECDSA_PROFILE",
    "PAYLOAD_PROFILE",
    "WireProfile",
]
