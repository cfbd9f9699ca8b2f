"""Equivalence suite for the vectorized verification core (DESIGN.md §15).

Every kernel in :mod:`repro.perf` is a drop-in accelerator for a
pure-Python path; these tests pin the contract that makes that safe:

* batched κ certification equals the scalar ``vertex_connectivity``
  over random graphs and cutoffs (property-based);
* the closed-form trial fast path reproduces the scalar scheduler's
  verdicts and traffic byte-for-byte;
* an honest FULL-validation trial with a shared verification cache
  returns the same ``TrialResult`` (cache counters included) with and
  without the kernels;
* the fast path's wire-framing constants match the payloads' real
  ``encoded_size`` arithmetic;
* the sweep warm-up's batched certificates leave figure rows
  bit-identical to the scalar leg.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.baselines.mtg import BloomPayload, mtg_epoch_count
from repro.baselines.mtgv2 import SignedId, SignedIdsPayload
from repro.core.decision import clear_connectivity_cache
from repro.core.messages import EdgeAnnouncement, NectarBatch
from repro.core.validation import ValidationMode
from repro.crypto.chain import extend_chain
from repro.crypto.keys import build_keystore
from repro.crypto.proofs import make_proof, proof_bytes
from repro.crypto.signer import HmacScheme
from repro.crypto.sizes import DEFAULT_PROFILE
from repro.experiments.runner import (
    baseline_cost_trial,
    honest_mtg_factory,
    honest_mtgv2_factory,
    nectar_cost_trial,
    run_trial,
)
from repro.graphs.connectivity import vertex_connectivity
from repro.graphs.generators.regular import harary_graph
from repro.graphs.graph import Graph
from repro.net.message import Envelope
from repro.perf import fastpath
from repro.perf.kernels import certify_graphs, vertex_connectivity_kernel

requires_numpy = pytest.mark.skipif(
    perf.numpy_or_none() is None,
    reason="numpy unavailable (fallback leg): no vectorized path to compare",
)

_SCHEME = HmacScheme()
_STORE = build_keystore(_SCHEME, 8, seed=41)


# ----------------------------------------------------------------------
# Batched κ certification ≡ scalar vertex_connectivity
# ----------------------------------------------------------------------
@st.composite
def graphs(draw):
    n = draw(st.integers(min_value=2, max_value=9))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.sets(st.sampled_from(possible), min_size=0, max_size=len(possible))
    )
    return Graph(n, sorted(edges))


@requires_numpy
@settings(max_examples=80, deadline=None)
@given(graphs(), st.one_of(st.none(), st.integers(min_value=1, max_value=6)))
def test_kappa_kernel_matches_scalar(graph, cutoff):
    with perf.force_kernels(False):
        expected = vertex_connectivity(graph, cutoff=cutoff)
    assert vertex_connectivity_kernel(graph, cutoff=cutoff) == expected
    # The public entry point dispatches to the kernel and agrees too.
    assert vertex_connectivity(graph, cutoff=cutoff) == expected


@requires_numpy
@settings(max_examples=15, deadline=None)
@given(
    st.lists(
        st.tuples(graphs(), st.one_of(st.none(), st.integers(1, 5))),
        min_size=0,
        max_size=6,
    )
)
def test_certify_graphs_matches_scalar_batch(requests):
    with perf.force_kernels(False):
        expected = [vertex_connectivity(g, cutoff=c) for g, c in requests]
    assert list(certify_graphs(requests)) == expected


# ----------------------------------------------------------------------
# Fast-path framing constants ≡ real encoded_size
# ----------------------------------------------------------------------
def test_nectar_framing_matches_encoded_size():
    profile = DEFAULT_PROFILE
    store = build_keystore(_SCHEME, 4, seed=3)
    proof = make_proof(_SCHEME, store.key_pair_of(0), store.key_pair_of(1))
    payload = proof_bytes(proof)
    count, round_number = 3, 2
    chain = ()
    for signer in range(round_number):
        chain = extend_chain(_SCHEME, store.key_pair_of(signer), payload, chain)
    batch = NectarBatch(tuple(EdgeAnnouncement(proof, chain) for _ in range(count)))
    expected = Envelope(0, round_number, batch).wire_size(profile)
    header = profile.envelope_header_bytes + fastpath._NECTAR_BATCH_COUNT_BYTES
    per_entry = profile.proof_bytes + fastpath._NECTAR_CHAIN_COUNT_BYTES
    assert header + count * (
        per_entry + round_number * profile.chain_link_bytes
    ) == expected


def test_mtg_framing_matches_encoded_size():
    profile = DEFAULT_PROFILE
    payload = BloomPayload(bit_count=64, hash_count=3, bits=bytes(8))
    expected = Envelope(0, 1, payload).wire_size(profile)
    assert (
        profile.envelope_header_bytes
        + profile.epoch_header_bytes
        + fastpath._BLOOM_GEOMETRY_BYTES
        + 8
    ) == expected


def test_mtgv2_framing_matches_encoded_size():
    profile = DEFAULT_PROFILE
    pair = _STORE.key_pair_of(0)
    entries = tuple(
        SignedId(i, _SCHEME.sign(pair, i.to_bytes(2, "big"))) for i in range(4)
    )
    payload = SignedIdsPayload(entries)
    expected = Envelope(0, 1, payload).wire_size(profile)
    assert (
        profile.envelope_header_bytes
        + profile.epoch_header_bytes
        + fastpath._MTGV2_COUNT_BYTES
        + 4 * profile.signed_id_bytes()
    ) == expected


# ----------------------------------------------------------------------
# Closed-form fast path ≡ scalar scheduler
# ----------------------------------------------------------------------
def _snapshot(result):
    stats = result.stats
    return (
        result.verdicts,
        dict(stats.bytes_sent),
        dict(stats.bytes_received),
        dict(stats.messages_sent),
        dict(stats.messages_received),
        result.rounds,
        result.rounds_executed,
    )


def _both_legs(trial):
    clear_connectivity_cache()
    with perf.force_kernels(False):
        scalar = _snapshot(trial())
    clear_connectivity_cache()
    vectorized = _snapshot(trial())
    return scalar, vectorized


@requires_numpy
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fastpath_nectar_cost_matches_scalar(seed):
    graph = harary_graph(4, 11 + seed)
    scalar, vectorized = _both_legs(lambda: nectar_cost_trial(graph, seed=seed))
    assert scalar == vectorized


@requires_numpy
@pytest.mark.parametrize("protocol", ["mtg", "mtgv2"])
def test_fastpath_baselines_match_scalar(protocol):
    graph = harary_graph(3, 10)
    scalar, vectorized = _both_legs(
        lambda: baseline_cost_trial(graph, protocol, seed=5)
    )
    assert scalar == vectorized


@requires_numpy
def test_fastpath_two_faced_nectar_matches_scalar():
    from repro.adversary.behaviors import TwoFacedNectarNode

    graph = harary_graph(4, 12)
    silent = frozenset({3, 4})

    def factory(setup):
        return TwoFacedNectarNode(
            setup.node_id,
            setup.n,
            setup.t,
            setup.key_store.key_pair_of(setup.node_id),
            setup.scheme,
            setup.key_store.directory,
            setup.neighbor_proofs,
            silent_towards=silent,
        )

    scalar, vectorized = _both_legs(
        lambda: run_trial(
            graph,
            t=2,
            seed=9,
            byzantine_factories={0: factory},
            validation_mode=ValidationMode.FULL,
            verification_cache=True,
            with_ground_truth=False,
        )
    )
    assert scalar == vectorized


@requires_numpy
@pytest.mark.parametrize(
    "honest_factory", [honest_mtg_factory, honest_mtgv2_factory]
)
def test_fastpath_adversarial_baselines_match_scalar(honest_factory):
    from repro.adversary.behaviors import SaturatingMtgNode, TwoFacedMtgv2Node

    graph = harary_graph(4, 12)
    if honest_factory is honest_mtg_factory:
        byzantine = {
            0: lambda setup: SaturatingMtgNode(setup.node_id, setup.n, setup.neighbors)
        }
    else:
        byzantine = {
            0: lambda setup: TwoFacedMtgv2Node(
                setup.node_id,
                setup.n,
                setup.neighbors,
                setup.key_store.key_pair_of(setup.node_id),
                setup.scheme,
                setup.key_store.directory,
                silent_towards=frozenset({2, 5}),
            )
        }
    scalar, vectorized = _both_legs(
        lambda: run_trial(
            graph,
            t=1,
            seed=13,
            honest_factory=honest_factory,
            rounds=mtg_epoch_count(graph.n),
            byzantine_factories=byzantine,
            with_ground_truth=False,
        )
    )
    assert scalar == vectorized


@requires_numpy
def test_fastpath_lossy_channel_stays_scalar():
    """A channel that can drop messages is ineligible: both legs run
    the scalar scheduler and the loss-RNG stream stays bit-exact."""
    from repro.experiments.envspec import EnvironmentSpec

    graph = harary_graph(3, 9)
    env = EnvironmentSpec(loss_rate=0.3)
    scalar, vectorized = _both_legs(
        lambda: nectar_cost_trial(graph, seed=4, env=env)
    )
    assert scalar == vectorized


# ----------------------------------------------------------------------
# FULL validation with a shared cache: one verification path
# ----------------------------------------------------------------------
@requires_numpy
def test_full_validation_shared_cache_matches_scalar():
    graph = harary_graph(4, 16)

    def trial():
        return run_trial(
            graph,
            t=0,
            seed=2,
            validation_mode=ValidationMode.FULL,
            verification_cache=True,
            connectivity_cutoff=1,
            with_ground_truth=False,
        )

    clear_connectivity_cache()
    with perf.force_kernels(False):
        scalar = trial()
    clear_connectivity_cache()
    vectorized = trial()
    assert scalar.cache_stats is not None
    assert vectorized == scalar


# ----------------------------------------------------------------------
# Sweep warm-up: batched certificates leave rows bit-identical
# ----------------------------------------------------------------------
@requires_numpy
def test_warmed_sweep_rows_match_scalar_leg():
    from repro.experiments.artifacts import clear_artifact_cache
    from repro.experiments.spec import SWEEP_ENGINE

    overrides = {
        "families": ("k-diamond",),
        "n": 10,
        "k": 4,
        "ts": (1,),
        "trials": 2,
    }

    def rows():
        clear_artifact_cache()
        figure = SWEEP_ENGINE.run("connectivity-resilience", overrides=dict(overrides))
        return [
            (series.name, [(p.x, p.mean) for p in series.points])
            for series in figure.series
        ]

    with perf.force_kernels(False):
        scalar = rows()
    assert rows() == scalar
