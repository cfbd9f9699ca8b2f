"""Extensions beyond the paper's core: its cited substrate (Dolev
reliable communication) and its conclusion's conjecture (signature-free
partition detection).  Footnote 2's continuous monitoring is the
mission engine (:mod:`repro.experiments.mission`)."""

from repro.extensions.dolev import (
    DIRECT,
    DolevMessage,
    DolevNode,
    disjoint_path_support,
    dolev_round_count,
)
from repro.extensions.unsigned import (
    EdgeClaim,
    LyingClaimantNode,
    UnsignedNectarNode,
    build_unsigned_protocols,
    unsigned_round_count,
)

__all__ = [
    "DIRECT",
    "DolevMessage",
    "DolevNode",
    "disjoint_path_support",
    "dolev_round_count",
    "EdgeClaim",
    "LyingClaimantNode",
    "UnsignedNectarNode",
    "build_unsigned_protocols",
    "unsigned_round_count",
]
