"""Equivalence suite for quiescence short-circuiting (DESIGN.md §6.2).

Once a round emits zero sends, every remaining round is a no-op for
protocols whose sends derive from earlier deliveries; the scheduler may
therefore stop iterating.  These tests pin the claim: skipped and full
runs must agree byte-for-byte on verdicts and :class:`TrafficStats`,
spontaneous senders must prevent the skip entirely, and the lossy
channel must keep its exact drop set.
"""

from __future__ import annotations

from repro.adversary.behaviors import SpamNectarNode
from repro.core.nectar import nectar_round_count
from repro.experiments.envspec import EnvironmentSpec
from repro.experiments.runner import NodeSetup, run_trial
from repro.graphs.generators.classic import path_graph
from repro.graphs.generators.regular import harary_graph
from repro.net.channel import LossyChannel
from repro.net.message import Outgoing, RawPayload
from repro.net.simulator import RoundProtocol, SyncNetwork


class RelayOnce(RoundProtocol):
    """Floods one token per node: sends only follow deliveries."""

    def __init__(self, node_id, neighbors):
        self._node_id = node_id
        self._neighbors = sorted(neighbors)
        self._pending: list[bytes] = []
        self._seen: set[bytes] = set()

    @property
    def node_id(self):
        return self._node_id

    def begin_round(self, round_number):
        if round_number == 1:
            tokens = [bytes([self._node_id])]
            self._seen.update(tokens)
        else:
            tokens, self._pending = self._pending, []
        return [
            Outgoing(destination=v, payload=RawPayload(token))
            for token in tokens
            for v in self._neighbors
        ]

    def deliver(self, round_number, sender, payload):
        if payload.data not in self._seen:
            self._seen.add(payload.data)
            self._pending.append(payload.data)

    def conclude(self):
        return frozenset(self._seen)


#: the round scheduler without its quiescence short-circuit.
NO_SKIP = EnvironmentSpec(quiescence_skip=False)


def _relay_network(n, rounds, **kwargs):
    graph = path_graph(n)
    protocols = {v: RelayOnce(v, graph.neighbors(v)) for v in graph.nodes()}
    network = SyncNetwork(graph, protocols, **kwargs)
    verdicts = network.run(rounds)
    return network, verdicts


class TestQuiescenceSkip:
    def test_skipped_run_matches_full_run(self):
        skipped, verdicts_skipped = _relay_network(6, 20)
        full, verdicts_full = _relay_network(6, 20, quiescence_skip=False)
        assert verdicts_skipped == verdicts_full
        assert skipped.stats == full.stats
        assert full.rounds_executed == 20
        assert skipped.rounds_executed < 20
        assert skipped.rounds_skipped == 20 - skipped.rounds_executed

    def test_flooding_completes_before_skip(self):
        """The skip must never cut a round that still had sends."""
        network, verdicts = _relay_network(6, 20)
        everything = frozenset(bytes([v]) for v in range(6))
        assert all(result == everything for result in verdicts.values())

    def test_nectar_trial_equivalence(self):
        graph = harary_graph(4, 16)
        rounds = nectar_round_count(16)
        skipped = run_trial(graph, t=1)
        full = run_trial(graph, t=1, env=NO_SKIP)
        assert skipped.verdicts == full.verdicts
        assert skipped.stats == full.stats
        assert skipped.ground_truth == full.ground_truth
        assert full.rounds_executed == rounds
        # A Harary graph's diameter is far below n - 1: rounds are saved.
        assert skipped.rounds_executed < rounds

    def test_spontaneous_sender_prevents_skip(self):
        """A spammer sends every round, so no round is ever quiet and
        the skip can never fire (spontaneous senders are safe)."""

        def spammer(setup: NodeSetup) -> SpamNectarNode:
            return SpamNectarNode(
                setup.node_id,
                setup.n,
                setup.t,
                setup.key_store.key_pair_of(setup.node_id),
                setup.scheme,
                setup.key_store.directory,
                setup.neighbor_proofs,
            )

        graph = harary_graph(4, 10)
        rounds = nectar_round_count(10)
        skipped = run_trial(graph, t=1, byzantine_factories={0: spammer})
        full = run_trial(graph, t=1, byzantine_factories={0: spammer}, env=NO_SKIP)
        assert skipped.rounds_executed == rounds
        assert skipped.verdicts == full.verdicts
        assert skipped.stats == full.stats


class TestLossyDeterminism:
    def test_same_loss_seed_same_drop_set(self):
        """The lossy channel is a pure function of (loss_rate, loss_seed)."""
        lossy = LossyChannel(0.3)
        first, verdicts_first = _relay_network(8, 20, channel=lossy, loss_seed=7)
        second, verdicts_second = _relay_network(8, 20, channel=lossy, loss_seed=7)
        assert verdicts_first == verdicts_second
        assert first.stats == second.stats

    def test_different_loss_seed_different_drop_set(self):
        first, _ = _relay_network(8, 20, channel=LossyChannel(0.3), loss_seed=7)
        second, _ = _relay_network(8, 20, channel=LossyChannel(0.3), loss_seed=8)
        assert first.stats != second.stats

    def test_quiescence_skip_preserves_lossy_run(self):
        """Skipped rounds carry no messages, so they consume no loss-RNG
        draws: the drop set is identical with and without the skip."""
        lossy = LossyChannel(0.25)
        skipped, verdicts_skipped = _relay_network(8, 30, channel=lossy, loss_seed=3)
        full, verdicts_full = _relay_network(
            8, 30, channel=lossy, loss_seed=3, quiescence_skip=False
        )
        assert verdicts_skipped == verdicts_full
        assert skipped.stats == full.stats
        assert skipped.rounds_executed <= full.rounds_executed
