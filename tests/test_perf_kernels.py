"""Equivalence suite for the closed-form trial engine (DESIGN.md §15).

The fast path in :mod:`repro.perf.fastpath` replaces the round
scheduler on reliable synchronous channels; these tests pin the
contract that makes that safe:

* the closed-form fast path reproduces the scheduler's verdicts and
  traffic byte-for-byte, and leaves every NECTAR node with its own
  discovered graph equal to the scheduled run's (random, possibly
  disconnected graphs, two-faced, sleeper and silent Byzantine nodes,
  truncated rounds); a silent node ends with no view on either engine;
* the same holds for MtG (every node's Bloom filter bytes, saturating
  and two-faced nodes) and MtGv2 (every node's known-id set, two-faced
  nodes);
* every trial compared leg against leg really takes the closed form
  on its fast leg (or, on a lossy channel, really falls back), so an
  eligibility regression cannot pass as two scheduler runs;
* FULL validation with a shared cache and a two-faced, sleeper or
  silent coalition takes the closed form and matches the scheduler;
* its reverse-BFS layers and AND-and-clear source step equal a
  per-item reference loop over plain BFS distances;
* an honest FULL-validation trial with a verification cache takes the
  closed form and replays its signature work: its whole
  ``TrialResult`` (cache counters included) and the multisets of
  messages it signs and verifies equal the scheduler's (random graphs
  and round budgets, Harary graphs under HMAC and RSA, one cache
  reused across trials), and a copy that fails validation makes the
  replay raise;
* the fast path's wire-framing constants match the payloads' real
  ``encoded_size`` arithmetic;
* a warmed connectivity-resilience sweep yields the same rows with
  and without the scheduler forced;
* a fresh interpreter runs a closed-form trial and a FULL-validation
  scheduler trial (on a lossy channel) without importing numpy.
"""

import contextlib
import dataclasses
import os
import pathlib
import random
import subprocess
import sys
import textwrap
from collections import Counter, deque
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.adversary.behaviors import (
    SaturatingMtgNode,
    SilentNode,
    SleeperNectarNode,
    TwoFacedMtgNode,
    TwoFacedMtgv2Node,
    TwoFacedNectarNode,
)
from repro.baselines.mtg import BloomPayload, MtgNode, mtg_epoch_count
from repro.baselines.mtgv2 import Mtgv2Node, SignedId, SignedIdsPayload
from repro.core.decision import clear_connectivity_cache
from repro.core.messages import EdgeAnnouncement, NectarBatch
from repro.core.nectar import NectarNode
from repro.core.validation import ValidationMode
from repro.crypto.cache import VerificationCache
from repro.crypto.chain import extend_chain
from repro.crypto.keys import build_keystore
from repro.crypto.proofs import NeighborhoodProof, make_proof, proof_bytes
from repro.crypto.signer import HmacScheme
from repro.crypto.sizes import DEFAULT_PROFILE
from repro.errors import ProtocolError
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

_SCHEME = HmacScheme()
_STORE = build_keystore(_SCHEME, 8, seed=41)


@contextlib.contextmanager
def _engine(scheduler):
    """Trials run inside take the round scheduler (``scheduler``) or
    may take the fast path, whatever the environment says."""
    with pytest.MonkeyPatch.context() as patch:
        if scheduler:
            patch.setenv(perf.SCHEDULER_SWITCH, "1")
        else:
            patch.delenv(perf.SCHEDULER_SWITCH, raising=False)
        yield


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
# Closed-form fast path ≡ round scheduler
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
    """Snapshot ``trial`` with the scheduler forced, then without.

    The switch is set after import, so the forced leg pins that it is
    read on every call: that leg makes no fast-path attempt.  The
    second leg must make exactly one, and it must take the closed form
    (``fast=True``) or fall back to the scheduler (``fast=False``):
    two scheduler runs compare nothing.
    """
    took_closed_form = []
    attempt = fastpath.try_run_trial

    def spy(*args, **kwargs):
        outcome = attempt(*args, **kwargs)
        took_closed_form.append(outcome is not None)
        return outcome

    with mock.patch.object(fastpath, "try_run_trial", spy):
        clear_connectivity_cache()
        with _engine(scheduler=True):
            scalar = _snapshot(trial())
        assert took_closed_form == []
        clear_connectivity_cache()
        with _engine(scheduler=False):
            default = _snapshot(trial())
    assert took_closed_form == [fast]
    return scalar, default


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fastpath_nectar_cost_matches_scalar(seed):
    graph = harary_graph(4, 11 + seed)
    scalar, default = _both_legs(lambda: nectar_cost_trial(graph, seed=seed))
    assert scalar == default


@pytest.mark.parametrize("protocol", ["mtg", "mtgv2"])
def test_fastpath_baselines_match_scalar(protocol):
    graph = harary_graph(3, 10)
    scalar, default = _both_legs(
        lambda: baseline_cost_trial(graph, protocol, seed=5)
    )
    assert scalar == default


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
    scalar, default = _both_legs(
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
    assert scalar == default


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
    scalar, default = _both_legs(
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
    assert scalar == default


def test_fastpath_lossy_channel_stays_scalar():
    """A channel that can drop messages is ineligible: both legs run
    the scalar scheduler and the loss-RNG stream stays bit-exact."""
    from repro.experiments.envspec import EnvironmentSpec

    graph = harary_graph(3, 9)
    env = EnvironmentSpec(loss_rate=0.3)
    scalar, default = _both_legs(
        lambda: nectar_cost_trial(graph, seed=4, env=env), fast=False
    )
    assert scalar == default


# ----------------------------------------------------------------------
# Fast-path end state ≡ scheduled end state, node by node
# ----------------------------------------------------------------------
def _random_graph(draw):
    """A graph on 2–14 nodes; sparse draws leave it disconnected or
    with isolated nodes."""
    n = draw(st.integers(min_value=2, max_value=14))
    density = draw(st.sampled_from([0.1, 0.25, 0.5, 1.0]))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    ]
    return Graph(n, edges)


@st.composite
def silenced_trials(draw):
    """A random graph, up to two Byzantine nodes, each two-faced with a
    random silent set, a sleeper or silent, a round budget from 1
    (truncated below the diameter) to n + 2, and the quiescence skip
    on or off."""
    graph = _random_graph(draw)
    n = graph.n
    byzantine = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    coalition = {}
    for node in byzantine:
        kind = draw(st.sampled_from(["two-faced", "sleeper", "silent"]))
        muted = draw(st.sets(st.integers(0, n - 1))) if kind == "two-faced" else ()
        coalition[node] = (kind, frozenset(muted))
    rounds = draw(st.integers(min_value=1, max_value=n + 2))
    return graph, coalition, rounds, draw(st.booleans())


@st.composite
def baseline_trials(draw):
    """An MtG or MtGv2 trial: a random graph, up to two Byzantine nodes
    (saturating or two-faced for MtG, two-faced for MtGv2) with random
    silent sets, a resend period for MtG, a round budget from 1 to
    n + 2, and the quiescence skip on or off."""
    family = draw(st.sampled_from(["mtg", "mtgv2"]))
    graph = _random_graph(draw)
    n = graph.n
    kinds = ["saturating", "two-faced"] if family == "mtg" else ["two-faced"]
    byzantine = draw(st.lists(st.integers(0, n - 1), max_size=2, unique=True))
    coalition = {}
    for node in byzantine:
        kind = draw(st.sampled_from(kinds))
        muted = draw(st.sets(st.integers(0, n - 1))) if kind == "two-faced" else ()
        coalition[node] = (kind, frozenset(muted))
    resend_period = draw(st.sampled_from([0, 2, 3])) if family == "mtg" else 0
    rounds = draw(st.integers(min_value=1, max_value=n + 2))
    return family, graph, coalition, resend_period, rounds, draw(st.booleans())


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


def _mtg_nodes(graph, coalition, resend_period=0):
    """Honest MtG nodes, except ``coalition``'s (kind, silent set)
    entries."""
    nodes = {}
    for node_id in graph.nodes():
        kind, muted = coalition.get(node_id, ("correct", frozenset()))
        args = (node_id, graph.n, graph.neighbors(node_id))
        kwargs = {"resend_period": resend_period}
        if kind == "saturating":
            nodes[node_id] = SaturatingMtgNode(*args, **kwargs)
        elif kind == "two-faced":
            nodes[node_id] = TwoFacedMtgNode(*args, silent_towards=muted, **kwargs)
        else:
            nodes[node_id] = MtgNode(*args, **kwargs)
    return nodes


def _mtgv2_nodes(graph, deployment, coalition):
    """Honest MtGv2 nodes, except ``coalition``'s two-faced entries."""
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
        if node_id in coalition:
            _, muted = coalition[node_id]
            nodes[node_id] = TwoFacedMtgv2Node(*args, silent_towards=muted)
        else:
            nodes[node_id] = Mtgv2Node(*args)
    return nodes


def _known(node):
    """A node's end-of-run knowledge: its discovered edges, Bloom
    filter bytes or known ids; None for a silent node."""
    if isinstance(node, SilentNode):
        return None
    if isinstance(node, NectarNode):
        return node.discovered.edges()
    if isinstance(node, MtgNode):
        return node.reachable_filter.to_bytes()
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


@settings(max_examples=60, deadline=None)
@given(baseline_trials())
# A saturating node gossiping a periodic refresh after quiescence.
@example(
    (
        "mtg",
        Graph(5, [(0, 1), (1, 2), (3, 4)]),
        {1: ("saturating", frozenset()), 3: ("two-faced", frozenset({4}))},
        2,
        7,
        False,
    )
)
def test_fastpath_baseline_end_state_matches_scalar(trial):
    family, graph, coalition, resend_period, rounds, quiescence_skip = trial
    if family == "mtg":
        build = lambda: _mtg_nodes(graph, coalition, resend_period)  # noqa: E731
    else:
        deployment = build_deployment(graph, scheme=HmacScheme())
        build = lambda: _mtgv2_nodes(graph, deployment, coalition)  # noqa: E731
    fast, scalar, _ = _fast_and_scalar_end_states(
        graph, build, rounds, quiescence_skip
    )
    assert fast == scalar


@pytest.mark.parametrize("family", ["nectar", "mtg", "mtgv2"])
def test_fastpath_runs_longer_than_n_rounds_match_scalar(family):
    """Unreachable pairs must stay unknown however many rounds run,
    including budgets above n."""
    graph = Graph(5, [(0, 1), (1, 2)])  # nodes 3 and 4 are isolated
    deployment = build_deployment(graph, scheme=HmacScheme())
    builders = {
        "nectar": lambda: _nectar_nodes(graph, deployment, {}),
        "mtg": lambda: _mtg_nodes(graph, {}),
        "mtgv2": lambda: _mtgv2_nodes(graph, deployment, {}),
    }
    fast, scalar, _ = _fast_and_scalar_end_states(
        graph, builders[family], graph.n + 3, False
    )
    assert fast == scalar


def test_fastpath_rejects_nectar_nodes_with_foreign_n():
    """A node whose n differs from the graph's keeps the scheduler:
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
    # back to decides exactly as on a fresh node set.
    fallback = SyncNetwork(graph, nodes).run(graph.n - 1)
    fresh = _nectar_nodes(graph, deployment, {}, graph.n + 2)
    assert fallback == SyncNetwork(graph, fresh).run(graph.n - 1)


# ----------------------------------------------------------------------
# Layers and acceptance sources: bitset step ≡ per-item reference loop
# ----------------------------------------------------------------------
def _acceptance_reference(n, arcs, items, depth):
    """``{(item, receiver): (round, sender)}`` from plain BFS distances:
    an item spreading from its nodes along ``arcs`` is accepted at the
    smallest hop distance (if at most ``depth``), from the smallest-id
    in-neighbour accepting it one round earlier (None at round 0)."""
    successors = [[j for s, j in arcs if s == v] for v in range(n)]
    dist = []
    for source in range(n):
        row = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            for nxt in successors[node]:
                if nxt not in row:
                    row[nxt] = row[node] + 1
                    queue.append(nxt)
        dist.append(row)

    def accepted(item, receiver):
        hops = [dist[v][receiver] for v in items[item] if receiver in dist[v]]
        return min(hops) if hops and min(hops) <= depth else None

    table = {}
    for item in range(len(items)):
        for receiver in range(n):
            when = accepted(item, receiver)
            if when is None:
                continue
            sender = None
            if when:
                sender = min(
                    s
                    for s, j in arcs
                    if j == receiver and accepted(item, s) == when - 1
                )
            table[item, receiver] = (when, sender)
    return table


def _acceptance_table(layers, ins):
    """The same table from the engine's layers and source step."""
    table = {}
    for receiver, receiver_layers in enumerate(layers):
        for depth, items in enumerate(receiver_layers):
            assert items, "layers never hold an empty round"
            split = {}
            if depth:
                split = fastpath._sources(items, ins[receiver], layers, depth)
                assert sum(split.values()) == items
            senders = {
                item: sender
                for sender, got in split.items()
                for item in range(got.bit_length())
                if got >> item & 1
            }
            for item in range(items.bit_length()):
                if items >> item & 1:
                    table[item, receiver] = (depth, senders.get(item))
    return table


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.sampled_from([0.0, 0.15, 0.4, 0.8]),
    st.integers(min_value=0, max_value=2**16),
    st.integers(min_value=0, max_value=30),
    st.integers(min_value=1, max_value=16),
)
def test_acceptance_sources_match_per_item_reference(n, density, seed, items, depth):
    rng = random.Random(seed)
    deaf = rng.randrange(n)  # a receiver with no in-arcs
    arcs = [
        (s, j)
        for s in range(n)
        for j in range(n)
        if s != j and j != deaf and rng.random() < density
    ]
    outs = [[j for s, j in arcs if s == v] for v in range(n)]
    ins = [[s for s, j in arcs if j == v] for v in range(n)]
    in_masks = [sum(1 << s for s in senders) for senders in ins]
    digraph = fastpath._Digraph(outs, ins, in_masks)
    # The deaf receiver reaches only itself: unreachable pairs exist.
    assert fastpath._node_layers(in_masks, deaf, n + 4) == [1 << deaf]
    # NECTAR items are the graph's edges, and D is a subgraph of it.
    extra = [tuple(rng.sample(range(n), 2)) for _ in range(items)]
    graph = Graph(n, arcs + extra)
    edges, edge_layers, known = fastpath._nectar_layers(graph, digraph, depth)
    assert known == [sum(layers) for layers in edge_layers]
    shapes = (
        # MtGv2: one item per node id, spreading from that node.
        (
            [(v,) for v in range(n)],
            [fastpath._node_layers(in_masks, i, depth) for i in range(n)],
        ),
        # NECTAR: one item per edge, spreading from both endpoints.
        (edges, edge_layers),
    )
    for spread_from, layers in shapes:
        assert _acceptance_table(layers, ins) == _acceptance_reference(
            n, arcs, spread_from, depth
        )


# ----------------------------------------------------------------------
# FULL validation with a shared cache: one verification path
# ----------------------------------------------------------------------
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
    with _engine(scheduler=True):
        scalar = trial()
    clear_connectivity_cache()
    with _engine(scheduler=False):
        default = trial()
    assert scalar.cache_stats is not None
    assert default == scalar


def _recording(scheme):
    """``scheme`` recording the multisets of ``(signer, message)``
    signed and ``(public key, message, signature)`` verified."""

    class Recording(type(scheme)):
        def sign(self, key_pair, data):
            self.signed[key_pair.node_id, data] += 1
            return super().sign(key_pair, data)

        def verify(self, public_key, data, signature):
            self.verified[public_key, data, signature] += 1
            return super().verify(public_key, data, signature)

    scheme.__class__ = Recording
    scheme.signed, scheme.verified = Counter(), Counter()
    return scheme


def _routed_legs(trial, *, fast):
    """``trial()``'s result with the scheduler forced, then without;
    every trial of the second leg must take the closed form (``fast``)
    or fall back to the scheduler."""
    routes = []
    attempt = fastpath.try_run_trial

    def spy(*args, **kwargs):
        outcome = attempt(*args, **kwargs)
        routes.append(outcome is not None)
        return outcome

    with mock.patch.object(fastpath, "try_run_trial", spy):
        clear_connectivity_cache()
        with _engine(scheduler=True):
            scheduled = trial()
        clear_connectivity_cache()
        with _engine(scheduler=False):
            default = trial()
    assert routes and set(routes) == {fast}, routes
    return scheduled, default


def _signed_trial(graph, scheme, rounds=None, quiescence_skip=True):
    """An honest FULL trial with a fresh shared cache, recording the
    signature work; returns ``(result, signed, verified)``."""
    from repro.experiments.envspec import EnvironmentSpec

    scheme = _recording(scheme)
    result = run_trial(
        graph,
        t=0,
        seed=3,
        scheme=scheme,
        rounds=rounds,
        validation_mode=ValidationMode.FULL,
        verification_cache=True,
        with_ground_truth=False,
        env=EnvironmentSpec(quiescence_skip=quiescence_skip),
    )
    return result, scheme.signed, scheme.verified


@st.composite
def signed_trials(draw):
    """A graph on 2–16 nodes of any density (isolated nodes and no
    edges at all included), a round budget (the default n − 1, 1, 2, 3
    or n + 2) and the quiescence skip on or off."""
    n = draw(st.integers(min_value=2, max_value=16))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    rng = random.Random(draw(st.integers(min_value=0, max_value=2**16)))
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density
    ]
    rounds = draw(st.sampled_from([None, 1, 2, 3, n + 2]))
    return Graph(n, edges), rounds, draw(st.booleans())


@settings(max_examples=100, deadline=None)
@given(signed_trials())
def test_replay_matches_scheduler_signature_for_signature(trial):
    """An honest FULL trial with a fresh cache takes the closed form,
    and its whole ``TrialResult`` (verdicts, traffic both ways,
    ``rounds_executed``, every ``CacheStats`` field) and its multisets
    of signed and verified messages equal the scheduler's."""
    graph, rounds, quiescence_skip = trial
    scheduled, default = _routed_legs(
        lambda: _signed_trial(graph, HmacScheme(), rounds, quiescence_skip),
        fast=True,
    )
    assert default == scheduled


@pytest.mark.parametrize("scheme", ["hmac", "rsa-256"])
@pytest.mark.parametrize("k, n", [(4, 12), (10, 40), (2, 30)])
def test_replay_matches_scheduler_on_harary_graphs(k, n, scheme):
    from repro.crypto import resolve_scheme

    graph = harary_graph(k, n)
    scheduled, default = _routed_legs(
        lambda: _signed_trial(graph, resolve_scheme(scheme)), fast=True
    )
    assert default == scheduled
    result, signed, verified = default
    assert result.cache_stats.total() > 0 and signed and verified


def test_reused_cache_counters_match_scheduler():
    """One cache across three trials (the same deployment twice, so
    the second finds every proof and chain already verified) ends with
    the same counters, trial by trial, on both engines."""
    trials = [
        (harary_graph(4, 12), 1),
        (harary_graph(4, 12), 1),
        (harary_graph(3, 9), 2),
    ]

    def run_all():
        cache = VerificationCache()
        counters = []
        for graph, seed in trials:
            run_trial(
                graph,
                t=0,
                seed=seed,
                validation_mode=ValidationMode.FULL,
                verification_cache=cache,
                with_ground_truth=False,
            )
            counters.append(dataclasses.replace(cache.stats))
        return counters

    scheduled, default = _routed_legs(run_all, fast=True)
    assert default == scheduled
    assert default[1].chain_hits > 0


def test_replay_raises_on_a_rejected_copy():
    """A copy that fails validation breaks the closed form's premise:
    the replay raises, naming receiver, edge, sender and round, and
    returns no verdicts."""
    graph = harary_graph(2, 6)  # the ring 0-1-2-3-4-5-0
    deployment = build_deployment(graph, scheme=HmacScheme())
    cache = VerificationCache()
    nodes = {}
    for node_id in graph.nodes():
        proofs = dict(deployment.proofs_of(node_id))
        if node_id == 0:
            good = proofs[1]
            proofs[1] = NeighborhoodProof(
                edge=good.edge,
                signature_lo=bytes(len(good.signature_lo)),
                signature_hi=good.signature_hi,
            )
        nodes[node_id] = NectarNode(
            node_id,
            graph.n,
            1,
            deployment.key_store.key_pair_of(node_id),
            deployment.scheme,
            deployment.key_store.directory,
            proofs,
            verification_cache=cache,
        )
    with pytest.raises(
        ProtocolError,
        match=r"node 5 rejected edge \(0, 1\) from node 0 in round 1$",
    ):
        fastpath.try_run_trial(
            graph,
            nodes,
            profile=DEFAULT_PROFILE,
            channel=RELIABLE_CHANNEL,
            seed=0,
            rounds=graph.n - 1,
            quiescence_skip=True,
        )
    assert not any(node._decided for node in nodes.values())


# ----------------------------------------------------------------------
# Sweep warm-up: rows identical with and without the scheduler forced
# ----------------------------------------------------------------------
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

    with _engine(scheduler=True):
        scalar = rows()
    with _engine(scheduler=False):
        assert rows() == scalar


# ----------------------------------------------------------------------
# Running trials imports no numpy
# ----------------------------------------------------------------------
_NO_NUMPY_PROBE = textwrap.dedent(
    """
    import sys

    from repro.core.validation import ValidationMode
    from repro.experiments.envspec import EnvironmentSpec
    from repro.experiments.runner import nectar_cost_trial, run_trial
    from repro.graphs.generators.regular import harary_graph
    from repro.perf import fastpath

    routes = []
    attempt = fastpath.try_run_trial

    def spy(*args, **kwargs):
        outcome = attempt(*args, **kwargs)
        routes.append(outcome is not None)
        return outcome

    fastpath.try_run_trial = spy
    graph = harary_graph(4, 12)
    nectar_cost_trial(graph, seed=1)
    run_trial(
        graph,
        t=1,
        seed=1,
        validation_mode=ValidationMode.FULL,
        verification_cache=True,
        env=EnvironmentSpec(loss_rate=0.3),
    )
    assert routes == [True, False], routes
    assert "numpy" not in sys.modules, "a trial imported numpy"
    """
)


def test_trials_never_import_numpy():
    """One closed-form trial and one FULL-validation scheduler trial (on
    a lossy channel) in a fresh interpreter leave numpy unimported."""
    src = pathlib.Path(perf.__file__).resolve().parents[2]
    env = dict(os.environ)
    env.pop(perf.SCHEDULER_SWITCH, None)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")])
    )
    completed = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_PROBE],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
