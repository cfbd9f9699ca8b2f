"""Exception hierarchy of the reproduction.

Every error raised on purpose by the library derives from
:class:`ReproError`, so callers can catch library failures without
masking programming errors such as ``TypeError``.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all library-specific errors."""


class CryptoError(ReproError):
    """Base class of signature-layer errors."""


class UnknownKeyError(CryptoError):
    """A signer or verifier referenced a node id with no registered key."""


class SignatureError(CryptoError):
    """A signature failed verification."""


class GraphError(ReproError):
    """Base class of graph-layer errors."""


class TopologyError(GraphError):
    """A topology generator received inconsistent parameters."""


class NetworkError(ReproError):
    """Base class of network-layer errors."""


class ChannelError(NetworkError):
    """A node tried to use a channel that does not exist in G.

    The model only allows direct communication along edges of G
    (Sec. II); even Byzantine nodes cannot create new channels.
    """


class CodecError(NetworkError):
    """A message could not be encoded, or received bytes failed to parse.

    On the receive path a :class:`CodecError` is the normal fate of
    garbage injected by Byzantine nodes; callers drop the message.
    """


class ProtocolError(ReproError):
    """A protocol was driven outside its legal lifecycle."""


class ExperimentError(ReproError):
    """An experiment configuration is inconsistent."""
