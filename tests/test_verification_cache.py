"""Equivalence suite for the verification cache (DESIGN.md §6.1).

The cache may only ever *remember* what full verification would have
computed.  These tests pin that down at three levels: the raw
:class:`VerificationCache` against the direct ``verify_proof`` /
``verify_chain`` functions, the :class:`AnnouncementValidator` cached
against uncached over an adversarial announcement corpus, and whole
trials — honest and Byzantine mixes over seeded random topologies —
where cached and uncached runs must agree on every verdict and every
traffic counter.
"""

from __future__ import annotations

import pytest

from repro import perf
from repro.adversary.behaviors import (
    SilentNode,
    SpamNectarNode,
    StaleChainNectarNode,
    TwoFacedNectarNode,
)
from repro.core.messages import EdgeAnnouncement
from repro.core.validation import AnnouncementValidator, ValidationMode
from repro.crypto.cache import VerificationCache
from repro.crypto.chain import ChainLink, extend_chain, verify_chain
from repro.crypto.proofs import (
    NeighborhoodProof,
    make_proof,
    proof_bytes,
    verify_proof,
)
from repro.experiments.runner import (
    NodeSetup,
    honest_nectar_factory,
    run_trial,
)
from repro.graphs.generators.regular import harary_graph, random_regular_graph


def _announce(scheme, keystore, edge, signer_path):
    """An announcement for ``edge`` relayed along ``signer_path``."""
    proof = make_proof(
        scheme, keystore.key_pair_of(edge[0]), keystore.key_pair_of(edge[1])
    )
    chain = ()
    for signer in signer_path:
        chain = extend_chain(
            scheme, keystore.key_pair_of(signer), proof_bytes(proof), chain
        )
    return EdgeAnnouncement(proof=proof, chain=chain)


class TestCachePrimitives:
    def test_proof_verification_matches_direct(self, scheme, keystore):
        cache = VerificationCache()
        good = make_proof(scheme, keystore.key_pair_of(0), keystore.key_pair_of(1))
        bad = NeighborhoodProof(  # tampered copy: zeroed endpoint signature
            edge=good.edge,
            signature_lo=bytes(scheme.signature_size),
            signature_hi=good.signature_hi,
        )
        for proof in (good, bad):
            direct = verify_proof(scheme, keystore.directory, proof)
            assert cache.verify_proof(scheme, keystore.directory, proof) == direct
            # Second lookup: served from the cache, same answer.
            assert cache.verify_proof(scheme, keystore.directory, proof) == direct
        assert cache.stats.proof_misses == 2
        assert cache.stats.proof_hits == 2

    def test_chain_verification_matches_direct(self, scheme, keystore):
        cache = VerificationCache()
        proof = make_proof(scheme, keystore.key_pair_of(0), keystore.key_pair_of(1))
        payload = proof_bytes(proof)
        chain = ()
        for signer in (0, 2, 3):
            chain = extend_chain(scheme, keystore.key_pair_of(signer), payload, chain)
        tampered = chain[:-1] + (
            ChainLink(signer=3, signature=bytes(scheme.signature_size)),
        )
        for links in (chain, tampered):
            direct = verify_chain(scheme, keystore.directory, payload, links)
            assert (
                cache.verify_chain(scheme, keystore.directory, payload, links)
                == direct
            )
            assert (
                cache.verify_chain(scheme, keystore.directory, payload, links)
                == direct
            )
        assert cache.stats.chain_hits == 2

    def test_empty_chain_rejected(self, scheme, keystore):
        cache = VerificationCache()
        assert not cache.verify_chain(scheme, keystore.directory, b"payload", ())

    def test_prefix_short_circuit(self, scheme, keystore):
        cache = VerificationCache()
        proof = make_proof(scheme, keystore.key_pair_of(0), keystore.key_pair_of(1))
        payload = proof_bytes(proof)
        chain = extend_chain(scheme, keystore.key_pair_of(0), payload, ())
        assert cache.verify_chain(scheme, keystore.directory, payload, chain)
        extended = extend_chain(scheme, keystore.key_pair_of(2), payload, chain)
        assert cache.verify_chain(scheme, keystore.directory, payload, extended)
        assert cache.stats.chain_prefix_hits == 1

    def test_prefix_of_invalid_chain_not_trusted(self, scheme, keystore):
        cache = VerificationCache()
        proof = make_proof(scheme, keystore.key_pair_of(0), keystore.key_pair_of(1))
        payload = proof_bytes(proof)
        forged = (ChainLink(signer=0, signature=bytes(scheme.signature_size)),)
        assert not cache.verify_chain(scheme, keystore.directory, payload, forged)
        # Extending a cached-invalid prefix must stay invalid.
        extended = extend_chain(scheme, keystore.key_pair_of(2), payload, forged)
        assert not cache.verify_chain(scheme, keystore.directory, payload, extended)

    def test_unknown_signer_rejected(self, scheme, keystore):
        cache = VerificationCache()
        proof = make_proof(scheme, keystore.key_pair_of(0), keystore.key_pair_of(1))
        payload = proof_bytes(proof)
        chain = extend_chain(scheme, keystore.key_pair_of(0), payload, ())
        assert cache.verify_chain(scheme, keystore.directory, payload, chain)
        ghost = chain + (ChainLink(signer=999, signature=bytes(scheme.signature_size)),)
        assert not cache.verify_chain(scheme, keystore.directory, payload, ghost)

    def test_extend_chain_matches_plain(self, scheme, keystore):
        cache = VerificationCache()
        proof = make_proof(scheme, keystore.key_pair_of(0), keystore.key_pair_of(1))
        payload = proof_bytes(proof)
        plain = ()
        cached = ()
        for signer in (0, 2, 3, 4):
            plain = extend_chain(scheme, keystore.key_pair_of(signer), payload, plain)
            cached = cache.extend_chain(
                scheme, keystore.key_pair_of(signer), payload, cached
            )
        assert plain == cached

    def test_grafted_payload_cannot_borrow_message(self, scheme, keystore):
        """A chain built over payload A must not verify against payload B
        via the signed-message handoff."""
        cache = VerificationCache()
        proof_a = make_proof(scheme, keystore.key_pair_of(0), keystore.key_pair_of(1))
        proof_b = make_proof(scheme, keystore.key_pair_of(0), keystore.key_pair_of(2))
        chain = cache.extend_chain(
            scheme, keystore.key_pair_of(0), proof_bytes(proof_a), ()
        )
        assert cache.verify_chain(
            scheme, keystore.directory, proof_bytes(proof_a), chain
        )
        assert not cache.verify_chain(
            scheme, keystore.directory, proof_bytes(proof_b), chain
        )


class TestValidatorParity:
    """Cached and uncached validators must agree on every decision."""

    def _corpus(self, scheme, keystore):
        """(announcement, round, sender) cases, valid and adversarial."""
        cases = []
        valid = _announce(scheme, keystore, (1, 2), [1, 3, 4])
        cases.append((valid, 3, 4))                      # accept
        cases.append((valid, 2, 4))                      # wrong round
        cases.append((valid, 3, 5))                      # wrong sender
        cases.append((_announce(scheme, keystore, (1, 2), [7]), 1, 7))  # non-endpoint
        tampered = EdgeAnnouncement(
            proof=valid.proof,
            chain=valid.chain[:-1]
            + (ChainLink(signer=4, signature=bytes(scheme.signature_size)),),
        )
        cases.append((tampered, 3, 4))                   # bad outer signature
        other = make_proof(scheme, keystore.key_pair_of(1), keystore.key_pair_of(5))
        cases.append((EdgeAnnouncement(proof=other, chain=valid.chain), 3, 4))  # graft
        return cases

    def test_accept_reject_parity(self, scheme, keystore):
        cached = AnnouncementValidator(
            scheme, keystore.directory, cache=VerificationCache()
        )
        uncached = AnnouncementValidator(scheme, keystore.directory)
        corpus = self._corpus(scheme, keystore)
        # Two passes: the second exercises the hit paths.
        for _ in range(2):
            for announcement, round_number, sender in corpus:
                assert cached.validate(
                    announcement, round_number, sender
                ) == uncached.validate(announcement, round_number, sender)

    def test_replay_is_cached_not_reverified(self, scheme, keystore):
        cache = VerificationCache()
        validator = AnnouncementValidator(scheme, keystore.directory, cache=cache)
        announcement = _announce(scheme, keystore, (1, 2), [1, 3])
        assert validator.validate(announcement, 2, 3)
        misses_before = cache.stats.misses()
        for _ in range(5):
            assert validator.validate(announcement, 2, 3)
        assert cache.stats.misses() == misses_before
        assert cache.stats.announcement_hits == 5


def _spam_factory(setup: NodeSetup) -> SpamNectarNode:
    return SpamNectarNode(
        setup.node_id,
        setup.n,
        setup.t,
        setup.key_store.key_pair_of(setup.node_id),
        setup.scheme,
        setup.key_store.directory,
        setup.neighbor_proofs,
    )


def _stale_factory(setup: NodeSetup) -> StaleChainNectarNode:
    return StaleChainNectarNode(
        setup.node_id,
        setup.n,
        setup.t,
        setup.key_store.key_pair_of(setup.node_id),
        setup.scheme,
        setup.key_store.directory,
        setup.neighbor_proofs,
    )


def _two_faced_factory(setup: NodeSetup) -> TwoFacedNectarNode:
    return TwoFacedNectarNode(
        setup.node_id,
        setup.n,
        setup.t,
        setup.key_store.key_pair_of(setup.node_id),
        setup.scheme,
        setup.key_store.directory,
        setup.neighbor_proofs,
        silent_towards=[v for v in setup.neighbors if v % 2 == 0],
    )


def _silent_factory(setup: NodeSetup) -> SilentNode:
    return SilentNode(setup.node_id)


_BYZANTINE_MIXES = {
    "honest": {},
    "two-faced": {3: _two_faced_factory},
    "replaying": {1: _spam_factory},
    "stale-replay": {2: _stale_factory},
    "silent": {0: _silent_factory},
    "mixed": {0: _silent_factory, 5: _two_faced_factory, 7: _spam_factory},
}


class TestTrialEquivalence:
    """Cached trials reproduce uncached trials exactly, adversaries included."""

    @pytest.mark.parametrize("mix", sorted(_BYZANTINE_MIXES))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_cached_equals_uncached(self, mix, seed, monkeypatch):
        # Both legs run on the scheduler: the closed-form fast path
        # never consults the cache, so a fast-path leg compares nothing.
        graph = random_regular_graph(12, 4, seed=seed)
        byzantine = _BYZANTINE_MIXES[mix]
        kwargs = dict(
            t=max(3, len(byzantine)),
            byzantine_factories=byzantine,
            honest_factory=honest_nectar_factory,
            validation_mode=ValidationMode.FULL,
            seed=seed,
        )
        monkeypatch.setenv(perf.SCHEDULER_SWITCH, "1")
        cached = run_trial(graph, verification_cache=True, **kwargs)
        uncached = run_trial(graph, verification_cache=False, **kwargs)
        assert cached.verdicts == uncached.verdicts
        assert cached.stats == uncached.stats
        assert cached.ground_truth == uncached.ground_truth
        assert cached.cache_stats.total() > 0
        assert uncached.cache_stats is None

    def test_shared_cache_instance_observable(self):
        graph = harary_graph(4, 12)
        cache = VerificationCache()
        result = run_trial(graph, t=1, verification_cache=cache)
        assert result.cache_stats is cache.stats
        assert cache.stats.total() > 0

    def test_hit_rate_on_relay_heavy_regular_topology(self):
        """The CI perf-regression guard: most lookups must be hits on a
        d-regular topology where every edge travels many paths."""
        graph = harary_graph(4, 20)
        result = run_trial(
            graph, t=1, validation_mode=ValidationMode.FULL, verification_cache=True
        )
        assert result.cache_stats.hit_rate() > 0.5

