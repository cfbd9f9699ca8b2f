"""Equivalence suite for the vectorized verification core (DESIGN.md §15).

Every kernel in :mod:`repro.perf` is a drop-in accelerator for a
pure-Python path; these tests pin the contract that makes that safe:

* the closed-form trial fast path reproduces the scalar scheduler's
  verdicts and traffic byte-for-byte, and leaves every NECTAR node
  with its own discovered graph equal to the scalar run's (random,
  possibly disconnected graphs, two-faced, sleeper and silent
  Byzantine nodes, truncated rounds); a silent node ends with no view
  on either engine;
* every trial compared leg against leg really takes the closed form
  on its vectorized leg (or, on a lossy channel, really falls back),
  so an eligibility regression cannot pass as two scheduler runs;
* FULL validation with a shared cache and a two-faced, sleeper or
  silent coalition takes the closed form and matches the scheduler;
* its per-receiver acceptance-source search equals the per-item
  reference loop;
* an honest FULL-validation trial with a shared verification cache
  returns the same ``TrialResult`` (cache counters included) with and
  without the kernels;
* the fast path's wire-framing constants match the payloads' real
  ``encoded_size`` arithmetic;
* a warmed connectivity-resilience sweep yields the same rows with
  and without the kernels.
"""

import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.adversary.behaviors import (
    SilentNode,
    SleeperNectarNode,
    TwoFacedMtgv2Node,
    TwoFacedNectarNode,
)
from repro.baselines.mtg import BloomPayload, mtg_epoch_count
from repro.baselines.mtgv2 import Mtgv2Node, SignedId, SignedIdsPayload
from repro.core.decision import clear_connectivity_cache
from repro.core.messages import EdgeAnnouncement, NectarBatch
from repro.core.nectar import NectarNode
from repro.core.validation import ValidationMode
from repro.crypto.chain import extend_chain
from repro.crypto.keys import build_keystore
from repro.crypto.proofs import make_proof, proof_bytes
from repro.crypto.signer import HmacScheme
from repro.crypto.sizes import DEFAULT_PROFILE
from repro.experiments.runner import (
    baseline_cost_trial,
    build_deployment,
    honest_mtg_factory,
    honest_mtgv2_factory,
    nectar_cost_trial,
    run_trial,
)
from repro.graphs.generators.regular import harary_graph
from repro.graphs.graph import Graph
from repro.net.channel import RELIABLE_CHANNEL
from repro.net.message import Envelope
from repro.net.simulator import SyncNetwork
from repro.perf import fastpath
from repro.perf.kernels import directed_distances

requires_numpy = pytest.mark.skipif(
    perf.numpy_or_none() is None,
    reason="numpy unavailable (fallback leg): no vectorized path to compare",
)

_SCHEME = HmacScheme()
_STORE = build_keystore(_SCHEME, 8, seed=41)


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


def _both_legs(trial, *, fast=True):
    """Snapshot ``trial`` on the scheduler, then with the kernels on.

    The vectorized leg must make exactly one fast-path attempt, and it
    must take the closed form (``fast=True``) or fall back to the
    scheduler (``fast=False``): two scheduler runs compare nothing.
    """
    clear_connectivity_cache()
    with perf.force_kernels(False):
        scalar = _snapshot(trial())
    clear_connectivity_cache()
    took_closed_form = []
    attempt = fastpath.try_run_trial

    def spy(*args, **kwargs):
        outcome = attempt(*args, **kwargs)
        took_closed_form.append(outcome is not None)
        return outcome

    with mock.patch.object(fastpath, "try_run_trial", spy):
        vectorized = _snapshot(trial())
    assert took_closed_form == [fast]
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


def _nectar_family_node(kind, args, silent_towards=frozenset()):
    """A correct, two-faced, sleeper or silent node; ``args`` are the
    :class:`NectarNode` constructor arguments, node id first."""
    if kind == "silent":
        return SilentNode(args[0])
    if kind == "two-faced":
        return TwoFacedNectarNode(*args, silent_towards=silent_towards)
    if kind == "sleeper":
        return SleeperNectarNode(*args)
    return NectarNode(*args)


def _coalition_factory(kind, silent_towards=frozenset()):
    """A run_trial factory for one two-faced, sleeper or silent node."""

    def factory(setup):
        args = (
            setup.node_id,
            setup.n,
            setup.t,
            setup.key_store.key_pair_of(setup.node_id),
            setup.scheme,
            setup.key_store.directory,
            setup.neighbor_proofs,
        )
        return _nectar_family_node(kind, args, silent_towards)

    return factory


_FULL_CACHE_COALITIONS = {
    "two-faced": {0: "two-faced"},
    "sleeper": {0: "sleeper"},
    "silent": {0: "silent"},
    "sleeper+silent": {0: "sleeper", 1: "silent"},  # the deceptive profile
}


@requires_numpy
@pytest.mark.parametrize("coalition", list(_FULL_CACHE_COALITIONS))
def test_fastpath_two_faced_nectar_matches_scalar(coalition):
    """FULL validation with a shared cache: a sleeper (two-faced
    toward nobody), a silent node (toward everybody) or a two-faced
    node takes the closed form, and matches the scheduler."""
    graph = harary_graph(4, 12)
    factories = {
        node: _coalition_factory(kind, silent_towards=frozenset({3, 4}))
        for node, kind in _FULL_CACHE_COALITIONS[coalition].items()
    }
    scalar, vectorized = _both_legs(
        lambda: run_trial(
            graph,
            t=2,
            seed=9,
            byzantine_factories=factories,
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
        lambda: nectar_cost_trial(graph, seed=4, env=env), fast=False
    )
    assert scalar == vectorized


# ----------------------------------------------------------------------
# Fast-path end state ≡ scalar end state, node by node
# ----------------------------------------------------------------------
@st.composite
def silenced_trials(draw):
    """A random graph (sparse draws leave it disconnected or with
    isolated nodes), up to two Byzantine nodes, each two-faced with a
    random silent set, a sleeper or silent, a round budget from 1
    (truncated below the diameter) to n + 2, and the quiescence skip
    on or off."""
    n = draw(st.integers(min_value=2, max_value=14))
    density = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    ]
    byzantine = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    coalition = {}
    for node in byzantine:
        kind = draw(st.sampled_from(["two-faced", "sleeper", "silent"]))
        muted = draw(st.sets(st.integers(0, n - 1))) if kind == "two-faced" else ()
        coalition[node] = (kind, frozenset(muted))
    rounds = draw(st.integers(min_value=1, max_value=n + 2))
    return Graph(n, edges), coalition, rounds, draw(st.booleans())


def _nectar_nodes(graph, deployment, coalition, n=None):
    """Honest NECTAR nodes, except ``coalition``'s (kind, silent set)
    entries."""
    nodes = {}
    for node_id in graph.nodes():
        kind, muted = coalition.get(node_id, ("correct", frozenset()))
        args = (
            node_id,
            graph.n if n is None else n,
            2,
            deployment.key_store.key_pair_of(node_id),
            deployment.scheme,
            deployment.key_store.directory,
            deployment.proofs_of(node_id),
        )
        nodes[node_id] = _nectar_family_node(kind, args, muted)
    return nodes


def _mtgv2_nodes(graph, deployment, silent):
    nodes = {}
    for node_id in graph.nodes():
        args = (
            node_id,
            graph.n,
            graph.neighbors(node_id),
            deployment.key_store.key_pair_of(node_id),
            deployment.scheme,
            deployment.key_store.directory,
        )
        if node_id in silent:
            nodes[node_id] = TwoFacedMtgv2Node(*args, silent_towards=silent[node_id])
        else:
            nodes[node_id] = Mtgv2Node(*args)
    return nodes


def _known(node):
    """A node's end-of-run knowledge; None for a silent node."""
    if isinstance(node, SilentNode):
        return None
    if isinstance(node, NectarNode):
        return node.discovered.edges()
    return frozenset(node._known)


def _end_state(verdicts, stats, rounds_executed, nodes):
    known = {node_id: _known(node) for node_id, node in nodes.items()}
    return (
        verdicts,
        dict(stats.bytes_sent),
        dict(stats.bytes_received),
        dict(stats.messages_sent),
        dict(stats.messages_received),
        rounds_executed,
        known,
    )


def _fast_and_scalar_end_states(graph, build_nodes, rounds, quiescence_skip):
    """Run two fresh node sets, one per engine; return both end states
    and the fast leg's nodes."""
    fast_nodes = build_nodes()
    fast = fastpath.try_run_trial(
        graph,
        fast_nodes,
        profile=DEFAULT_PROFILE,
        channel=RELIABLE_CHANNEL,
        seed=0,
        rounds=rounds,
        quiescence_skip=quiescence_skip,
    )
    assert fast is not None, "the trial must be fast-path eligible"
    scalar_nodes = build_nodes()
    network = SyncNetwork(graph, scalar_nodes, quiescence_skip=quiescence_skip)
    verdicts = network.run(rounds)
    scalar = _end_state(verdicts, network.stats, network.rounds_executed, scalar_nodes)
    return _end_state(*fast, fast_nodes), scalar, fast_nodes


@requires_numpy
@settings(max_examples=60, deadline=None)
@given(silenced_trials())
# The Definition-3 Validity counterexample (DESIGN.md §11.1): a
# sleeper and a silent colluder on a path graph.
@example(
    (
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
        {0: ("sleeper", frozenset()), 1: ("silent", frozenset())},
        3,
        True,
    )
)
def test_fastpath_nectar_end_state_matches_scalar(trial):
    graph, coalition, rounds, quiescence_skip = trial
    deployment = build_deployment(graph, scheme=HmacScheme())
    fast, scalar, fast_nodes = _fast_and_scalar_end_states(
        graph,
        lambda: _nectar_nodes(graph, deployment, coalition),
        rounds,
        quiescence_skip,
    )
    assert fast == scalar
    # Nodes with equal views still own independent discovered graphs.
    nectar = [node for node in fast_nodes.values() if isinstance(node, NectarNode)]
    assert len({id(node.discovered) for node in nectar}) == len(nectar)


@requires_numpy
@pytest.mark.parametrize("family", ["nectar", "mtgv2"])
def test_fastpath_runs_longer_than_n_rounds_match_scalar(family):
    """Unreachable pairs must stay unknown however many rounds run:
    the distance kernel's n + 1 sentinel is a reachable round number
    once the budget exceeds n."""
    graph = Graph(5, [(0, 1), (1, 2)])  # nodes 3 and 4 are isolated
    deployment = build_deployment(graph, scheme=HmacScheme())
    build = _nectar_nodes if family == "nectar" else _mtgv2_nodes
    fast, scalar, _ = _fast_and_scalar_end_states(
        graph,
        lambda: build(graph, deployment, {}),
        graph.n + 3,
        False,
    )
    assert fast == scalar


@requires_numpy
def test_fastpath_rejects_nectar_nodes_with_foreign_n():
    """A node whose n differs from the graph's keeps the scalar path:
    a shared view is sized by the graph, not by the node."""
    graph = Graph(6, [(0, 1), (1, 2), (3, 4)])
    deployment = build_deployment(graph, scheme=HmacScheme())
    nodes = _nectar_nodes(graph, deployment, {}, graph.n + 2)
    assert (
        fastpath.try_run_trial(
            graph,
            nodes,
            profile=DEFAULT_PROFILE,
            channel=RELIABLE_CHANNEL,
            seed=0,
            rounds=graph.n - 1,
            quiescence_skip=True,
        )
        is None
    )
    # The rejected nodes are untouched: the scheduler the caller falls
    # back to decides exactly as on a fresh scalar leg.
    fallback = SyncNetwork(graph, nodes).run(graph.n - 1)
    fresh = _nectar_nodes(graph, deployment, {}, graph.n + 2)
    with perf.force_kernels(False):
        assert fallback == SyncNetwork(graph, fresh).run(graph.n - 1)


# ----------------------------------------------------------------------
# Acceptance sources: per-receiver search ≡ per-item reference loop
# ----------------------------------------------------------------------
def _acceptance_sources_reference(np, delivery, acc_rows):
    """The fast path's original per-item loop: one n×n pass per row."""
    src = np.full(acc_rows.shape, -1, dtype=np.int64)
    for k in range(acc_rows.shape[0]):
        acc = acc_rows[k]
        candidates = delivery & (acc[:, None] + 1 == acc[None, :])
        src[k] = np.where(candidates.any(axis=0), candidates.argmax(axis=0), -1)
    return src


@requires_numpy
@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.sampled_from([0.0, 0.15, 0.4, 0.8]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=30),
)
def test_acceptance_sources_match_per_item_reference(n, density, seed, items):
    np = perf.numpy_or_none()
    rng = np.random.default_rng(seed)
    delivery = rng.random((n, n)) < density
    np.fill_diagonal(delivery, False)
    delivery[:, rng.integers(n)] = False  # a receiver with no in-arcs
    dist = directed_distances(delivery)
    assert (dist == n + 1).any()  # the unreachable sentinel is present
    lo = rng.integers(0, n - 1, size=items)
    hi = lo + 1 + (rng.integers(0, n, size=items) % (n - 1 - lo))
    shapes = (
        dist,  # MtGv2: one row per signed id
        np.minimum(dist[lo], dist[hi]),  # NECTAR: one row per edge
        fastpath._arrival_rounds(delivery, n + 4),  # sentinel lifted
    )
    for acc_rows in shapes:
        assert np.array_equal(
            fastpath._acceptance_sources(np, delivery, acc_rows),
            _acceptance_sources_reference(np, delivery, acc_rows),
        )


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
# Sweep warm-up: rows identical with and without the kernels
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
