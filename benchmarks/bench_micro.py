"""Micro-benchmarks of the substrates (not a paper artefact).

These time the hot paths that dominate the figure sweeps: signing,
chain verification, vertex connectivity and topology generation —
useful when tuning and to catch performance regressions.
"""

import random

from repro.core.validation import ValidationMode
from repro.crypto.chain import extend_chain, verify_chain
from repro.crypto.keys import build_keystore
from repro.crypto.proofs import make_proof, proof_bytes, verify_proof
from repro.crypto.rsa import RsaScheme
from repro.crypto.signer import HmacScheme
from repro.experiments.runner import run_trial
from repro.graphs.connectivity import (
    is_byzantine_partitionable,
    local_connectivity,
    vertex_connectivity,
)
from repro.graphs.generators.drone import drone_graph
from repro.graphs.generators.regular import harary_graph


def test_hmac_sign(benchmark):
    scheme = HmacScheme()
    pair = scheme.generate_keypair(0, random.Random(0))
    benchmark(scheme.sign, pair, b"x" * 132)


def test_hmac_verify(benchmark):
    scheme = HmacScheme()
    pair = scheme.generate_keypair(0, random.Random(0))
    signature = scheme.sign(pair, b"x" * 132)
    benchmark(scheme.verify, pair.public_key, b"x" * 132, signature)


def test_rsa_sign(benchmark):
    scheme = RsaScheme(bits=256)
    pair = scheme.generate_keypair(0, random.Random(0))
    benchmark(scheme.sign, pair, b"x" * 132)


def test_chain_verify_depth_5(benchmark):
    scheme = HmacScheme()
    store = build_keystore(scheme, 6, seed=0)
    proof = make_proof(scheme, store.key_pair_of(0), store.key_pair_of(1))
    payload = proof_bytes(proof)
    chain = ()
    for signer in range(5):
        chain = extend_chain(scheme, store.key_pair_of(signer), payload, chain)
    benchmark(verify_chain, scheme, store.directory, payload, chain)


def test_proof_verify(benchmark):
    scheme = HmacScheme()
    store = build_keystore(scheme, 2, seed=0)
    proof = make_proof(scheme, store.key_pair_of(0), store.key_pair_of(1))
    benchmark(verify_proof, scheme, store.directory, proof)


def test_rsa_sign_crt_512(benchmark):
    """RSA-CRT signing: two half-size exponentiations (~3-4x the plain
    ``m^d mod n``), the per-message cost behind env.scheme sweeps."""
    scheme = RsaScheme(bits=512)
    pair = scheme.generate_keypair(0, random.Random(0))
    benchmark(scheme.sign, pair, b"x" * 132)


def test_vertex_connectivity_harary_k6_n40(benchmark):
    graph = harary_graph(6, 40)
    benchmark(vertex_connectivity, graph)


def test_vertex_connectivity_with_cutoff(benchmark):
    graph = harary_graph(6, 40)
    benchmark(vertex_connectivity, graph, 3)


def test_local_connectivity_cutoff_2(benchmark):
    """A cutoff-2 κ(s, t) query: two-hop paths through common
    neighbors first, then at most two augmenting-path searches."""
    graph = harary_graph(6, 40)
    benchmark(local_connectivity, graph, 0, 20, 2)


def test_is_byzantine_partitionable_t1(benchmark):
    """κ <= 1 query: the decision-phase shape (cutoff = t + 1 = 2)."""
    graph = harary_graph(6, 40)
    benchmark(is_byzantine_partitionable, graph, 1)


def test_generate_drone_graph(benchmark):
    benchmark(drone_graph, 50, 2.5, 1.2, 0)


def test_generate_harary(benchmark):
    benchmark(harary_graph, 10, 100)


def _full_validation_trial(n: int, k: int):
    """A fully verified, cache-accelerated NECTAR trial (DESIGN.md §6.1)."""
    return run_trial(
        harary_graph(k, n),
        t=0,
        validation_mode=ValidationMode.FULL,
        connectivity_cutoff=1,
        with_ground_truth=False,
    )


def test_full_validation_trial_n60(benchmark):
    """The Fig. 3 acceptance cell: FULL validation at n >= 60."""
    benchmark.pedantic(_full_validation_trial, args=(60, 6), rounds=1, iterations=1)


def test_full_validation_cache_hit_rate(benchmark):
    """Perf-regression guard: on a relay-heavy d-regular topology most
    signature lookups must be served by the verification cache."""
    result = benchmark.pedantic(
        _full_validation_trial, args=(24, 4), rounds=1, iterations=1
    )
    assert result.cache_stats is not None
    assert result.cache_stats.hit_rate() > 0.5
