"""Tests for the NECTAR-specific Byzantine behaviours."""

from collections import Counter

import pytest

from repro.adversary.behaviors import (
    EdgeConcealingNectarNode,
    FictitiousEdgeNectarNode,
    ForgingNectarNode,
    JunkInjectorNode,
    OverChainedNectarNode,
    SilentNode,
    SpamNectarNode,
    StaleChainNectarNode,
    TwoFacedNectarNode,
)
from repro.core.messages import EdgeAnnouncement, NectarBatch, NectarBatchCodec
from repro.core.nectar import NectarNode, nectar_round_count
from repro.core.validation import ValidationMode
from repro.crypto.chain import extend_chain
from repro.crypto.proofs import proof_bytes
from repro.crypto.signer import HmacScheme
from repro.crypto.sizes import DEFAULT_PROFILE
from repro.experiments.runner import build_deployment, protocol_factory, run_trial
from repro.graphs.generators.classic import cycle_graph, two_cliques_bridge
from repro.graphs.generators.regular import harary_graph
from repro.net.simulator import SyncNetwork
from repro.types import Decision


def wire(deployment, cls=NectarNode, byzantine=(), t=1, **byz_kwargs):
    """Build protocols: honest NectarNode everywhere, ``cls`` at byzantine."""
    graph = deployment.graph
    protocols = {}
    for v in graph.nodes():
        args = (
            v,
            graph.n,
            t,
            deployment.key_store.key_pair_of(v),
            deployment.scheme,
            deployment.key_store.directory,
            deployment.proofs_of(v),
        )
        if v in byzantine:
            protocols[v] = cls(*args, **byz_kwargs)
        else:
            protocols[v] = NectarNode(*args)
    return protocols


def run(graph, protocols):
    network = SyncNetwork(graph, protocols)
    verdicts = network.run(nectar_round_count(graph.n))
    return network, verdicts


class TestSilentNode:
    def test_sends_nothing_but_edges_still_discovered(self):
        """A crashed Byzantine cannot hide its edges: neighbors prove them."""
        graph = cycle_graph(5)
        deployment = build_deployment(graph)
        protocols = wire(deployment)
        protocols[2] = SilentNode(2)
        _, verdicts = run(graph, protocols)
        for v, verdict in verdicts.items():
            if v == 2:
                continue
            assert verdict.reachable == 5  # node 2 still visible


class TestTwoFaced:
    def test_muted_side_misses_information(self):
        graph = two_cliques_bridge(3, bridges=1)  # bridge edge (0, 3)
        deployment = build_deployment(graph)
        protocols = wire(
            deployment,
            cls=TwoFacedNectarNode,
            byzantine={0},
            silent_towards=frozenset({3}),
        )
        _, verdicts = run(graph, protocols)
        # Node 3 only ever hears from its own clique (0 is mute to it)
        # ... but 4 and 5 still relay what they hear from... nothing:
        # every path from the left clique passes through 0.
        assert verdicts[3].reachable < graph.n
        # The left clique hears everything (0 talks to them).
        assert verdicts[1].reachable == graph.n


class TestEdgeConcealing:
    def test_concealed_edge_still_announced_by_other_endpoint(self):
        graph = cycle_graph(5)
        deployment = build_deployment(graph)
        protocols = wire(
            deployment,
            cls=EdgeConcealingNectarNode,
            byzantine={2},
            concealed=frozenset({1, 3}),
        )
        _, verdicts = run(graph, protocols)
        # Nodes 1 and 3 are correct and announce (1,2) and (2,3).
        assert all(
            verdict.reachable == 5
            for v, verdict in verdicts.items()
            if v != 2
        )


class TestFictitiousEdge:
    def test_fake_byzantine_edge_propagates(self):
        """A colluding pair can inject a fake edge — harmlessly."""
        graph = cycle_graph(6)
        deployment = build_deployment(graph)
        protocols = wire(deployment)
        # 1 and 4 are non-adjacent Byzantine colluders.
        protocols[1] = FictitiousEdgeNectarNode(
            1,
            6,
            2,
            deployment.key_store.key_pair_of(1),
            deployment.scheme,
            deployment.key_store.directory,
            deployment.proofs_of(1),
            partner_key=deployment.key_store.key_pair_of(4),
        )
        _, verdicts = run(graph, protocols)
        honest = protocols[0]
        assert honest.discovered.knows(1, 4)  # fake edge accepted
        # Yet agreement persists and nobody crashed.
        decisions = {v.decision for k, v in verdicts.items() if k not in {1, 4}}
        assert len(decisions) == 1


class TestChainLengthAttacks:
    @pytest.mark.parametrize("cls", [StaleChainNectarNode, OverChainedNectarNode])
    def test_bad_length_relays_are_rejected(self, cls):
        # Path-of-cliques so relaying actually matters: 2 is the cut.
        graph = two_cliques_bridge(3, bridges=1)
        deployment = build_deployment(graph)
        protocols = wire(deployment, cls=cls, byzantine={0})
        _, verdicts = run(graph, protocols)
        # Node 0's own round-1 announcements are valid, but its relays
        # die; nodes behind it miss remote edges.
        right_view = protocols[3].discovered
        assert not right_view.knows(1, 2)  # left-clique edge never crossed

    def test_honest_relays_have_correct_length(self):
        graph = cycle_graph(5)
        deployment = build_deployment(graph)
        protocols = wire(deployment, cls=StaleChainNectarNode, byzantine={0})
        _, verdicts = run(graph, protocols)
        # The cycle routes around node 0: everyone still sees all.
        for v, verdict in verdicts.items():
            if v != 0:
                assert verdict.reachable == 5


class TestForging:
    def test_forged_edge_rejected_everywhere(self):
        graph = cycle_graph(5)
        deployment = build_deployment(graph)
        protocols = wire(
            deployment, cls=ForgingNectarNode, byzantine={2}, victim=0
        )
        _, _ = run(graph, protocols)
        for v in (0, 1, 3, 4):
            assert not protocols[v].discovered.knows(0, 2)

    def test_victim_must_differ(self):
        graph = cycle_graph(5)
        deployment = build_deployment(graph)
        with pytest.raises(ValueError):
            wire(deployment, cls=ForgingNectarNode, byzantine={2}, victim=2)


class _Recording(HmacScheme):
    """HMAC recording the multisets of messages it signs and verifies."""

    def __init__(self):
        super().__init__()
        self.signed, self.verified = Counter(), Counter()

    def sign(self, key_pair, data):
        self.signed[data] += 1
        return super().sign(key_pair, data)

    def verify(self, public_key, data, signature):
        self.verified[data] += 1
        return super().verify(public_key, data, signature)


def _spam_copies(round_number):
    """A spammer at node 0 of ``cycle_graph(5)`` after ``round_number``
    rounds: its last spam batch, the signatures computed until it was
    sent, that batch's announcements built eagerly, and the scheme."""
    scheme = _Recording()
    deployment = build_deployment(cycle_graph(5), scheme=scheme)
    spammer = wire(deployment, cls=SpamNectarNode, byzantine={0})[0]
    for current in range(1, round_number + 1):
        sends = spammer.begin_round(current)
    batch = sends[0].payload
    sent = sum(scheme.signed.values())
    eager = []
    for announcement in batch.announcements:
        chain = ()
        for _ in range(round_number):
            chain = extend_chain(
                scheme,
                deployment.key_store.key_pair_of(0),
                proof_bytes(announcement.proof),
                chain,
            )
        eager.append(EdgeAnnouncement(announcement.proof, chain))
    return batch, sent, tuple(eager), scheme


class TestSpam:
    def test_spam_is_absorbed_by_dedup(self):
        graph = cycle_graph(5)
        deployment = build_deployment(graph)
        protocols = wire(deployment, cls=SpamNectarNode, byzantine={0})
        network, verdicts = run(graph, protocols)
        # Correctness unaffected...
        for v, verdict in verdicts.items():
            assert verdict.reachable == 5
        # ...and the spammer pays more than anyone else.
        spam_bytes = network.stats.bytes_sent_by(0)
        assert spam_bytes > max(
            network.stats.bytes_sent_by(v) for v in (1, 2, 3, 4)
        )

    def test_a_trial_signs_only_what_it_verifies(self):
        """Every receiver knows a spam copy's edge from round 1 and
        drops the copy before reading its chain, so no spam link is
        signed: the trial signs exactly the messages it verifies."""
        scheme = _Recording()
        run_trial(
            harary_graph(4, 10),
            t=1,
            byzantine_factories={0: protocol_factory(SpamNectarNode)},
            scheme=scheme,
            validation_mode=ValidationMode.FULL,
            with_ground_truth=False,
        )
        assert scheme.verified and scheme.signed == scheme.verified

    def test_a_read_copy_is_the_eager_padded_chain(self):
        batch, sent, eager, scheme = _spam_copies(3)
        assert sent == 0  # three rounds sent, nothing signed
        signs = sum(scheme.signed.values())
        assert [a.chain_length for a in batch.announcements] == [3, 3]
        size = NectarBatch(eager).encoded_size(DEFAULT_PROFILE)
        assert batch.encoded_size(DEFAULT_PROFILE) == size
        assert sum(scheme.signed.values()) == signs  # sized, not signed
        first = batch.announcements[0]
        assert first.chain == eager[0].chain and first == eager[0]
        assert [link.signer for link in first.chain] == [0, 0, 0]
        assert sum(scheme.signed.values()) == signs + 3

    def test_a_pending_batch_encodes_as_the_eager_batch(self):
        batch, _sent, eager, _scheme = _spam_copies(4)
        codec = NectarBatchCodec()
        encoded = codec.encode(batch, DEFAULT_PROFILE)
        assert encoded == codec.encode(NectarBatch(eager), DEFAULT_PROFILE)
        assert codec.decode(encoded, DEFAULT_PROFILE) == NectarBatch(eager)


class TestTwoFacedMtg:
    def test_gossips_to_one_side_only(self):
        from repro.adversary.behaviors import TwoFacedMtgNode
        from repro.baselines.mtg import mtg_epoch_count
        from repro.experiments.runner import honest_mtg_factory, run_trial
        from repro.graphs.graph import Graph
        from repro.types import BaselineDecision

        # 0,1 | byz 2 | 3,4 — the bridge gossips left only.
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])

        def byz(setup):
            return TwoFacedMtgNode(
                setup.node_id,
                setup.n,
                setup.neighbors,
                silent_towards=frozenset({3, 4}),
            )

        result = run_trial(
            graph,
            t=1,
            byzantine_factories={2: byz},
            honest_factory=honest_mtg_factory,
            rounds=mtg_epoch_count(graph.n),
            with_ground_truth=False,
        )
        # The favored side hears about everyone via the bridge's
        # filters; the muted side never learns the left ids.
        assert result.verdicts[0] is BaselineDecision.CONNECTED
        assert result.verdicts[4] is BaselineDecision.PARTITIONED


class TestJunkInjector:
    def test_junk_is_dropped(self):
        graph = cycle_graph(5)
        deployment = build_deployment(graph)
        protocols = wire(deployment)
        protocols[3] = JunkInjectorNode(3, graph.neighbors(3), seed=1)
        _, verdicts = run(graph, protocols)
        for v, verdict in verdicts.items():
            if v != 3:
                assert verdict.reachable == 5
                assert verdict.decision is Decision.NOT_PARTITIONABLE
