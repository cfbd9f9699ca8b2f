"""Tests for the signature-free NECTAR variant (Sec. VII conjecture)."""

import pytest

from repro.errors import ProtocolError
from repro.extensions.dolev import DIRECT
from repro.extensions.unsigned import (
    EdgeClaim,
    UnsignedNectarNode,
    build_unsigned_protocols,
    unsigned_round_count,
)
from repro.graphs.generators.classic import cycle_graph, star_graph, two_cliques_bridge
from repro.graphs.generators.regular import harary_graph
from repro.graphs.graph import Graph
from repro.net.message import Outgoing, RawPayload
from repro.net.simulator import RoundProtocol, SyncNetwork
from repro.types import Decision, Verdict


def run_unsigned(graph, t, byzantine=None):
    protocols = build_unsigned_protocols(graph, t)
    if byzantine:
        protocols.update(byzantine)
    network = SyncNetwork(graph, protocols)
    verdicts = network.run(unsigned_round_count(graph.n))
    return protocols, verdicts, network


class LyingClaimNode(RoundProtocol):
    """Byzantine node claiming a fictitious edge to a correct victim."""

    def __init__(self, node_id, neighbors, victim):
        self._node_id = node_id
        self._neighbors = sorted(neighbors)
        self._victim = victim

    @property
    def node_id(self):
        return self._node_id

    def begin_round(self, round_number):
        if round_number != 1:
            return []
        fake_edge = tuple(sorted((self._node_id, self._victim)))
        claim = EdgeClaim(claimant=self._node_id, edge=fake_edge, path=DIRECT)
        return [Outgoing(destination=v, payload=claim) for v in self._neighbors]

    def deliver(self, round_number, sender, payload):
        pass

    def conclude(self):
        return None


class GarblingClaimNode(RoundProtocol):
    """Byzantine node sending malformed claims in round 1."""

    def __init__(self, node_id, neighbors):
        self._node_id = node_id
        self._neighbors = sorted(neighbors)

    @property
    def node_id(self):
        return self._node_id

    def begin_round(self, round_number):
        if round_number != 1:
            return []
        me = self._node_id
        garbled = [
            EdgeClaim(claimant=me, edge=(me,), path=DIRECT),
            EdgeClaim(claimant=me, edge=(me, me + 1), path=[me]),
            EdgeClaim(claimant=me, edge=(me + 1, me), path=DIRECT),
        ]
        return [
            Outgoing(destination=v, payload=claim)
            for claim in garbled
            for v in self._neighbors
        ]

    def deliver(self, round_number, sender, payload):
        pass

    def conclude(self):
        return None


class TestHonestRuns:
    def test_matches_nectar_on_well_connected_graph(self):
        graph = harary_graph(4, 10)  # κ = 4 >= 2t + 1 for t = 1
        _, verdicts, _ = run_unsigned(graph, t=1)
        assert all(
            v.decision is Decision.NOT_PARTITIONABLE for v in verdicts.values()
        )
        assert all(v.reachable == 10 for v in verdicts.values())

    def test_detects_actual_partition(self):
        graph = Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        _, verdicts, _ = run_unsigned(graph, t=0)
        assert all(
            v.decision is Decision.PARTITIONABLE and v.confirmed
            for v in verdicts.values()
        )

    def test_star_is_partitionable(self):
        _, verdicts, _ = run_unsigned(star_graph(6), t=1)
        assert all(
            v.decision is Decision.PARTITIONABLE for v in verdicts.values()
        )

    def test_conservative_on_low_connectivity(self):
        """The unsigned variant may reject edges it cannot certify —
        it must then lean PARTITIONABLE, never NOT_PARTITIONABLE."""
        graph = two_cliques_bridge(4, bridges=2)  # κ = 2 = 2t for t=1
        _, verdicts, _ = run_unsigned(graph, t=1)
        assert all(
            v.decision is Decision.PARTITIONABLE for v in verdicts.values()
        )

    def test_accepted_edges_subset_of_real_plus_byzantine(self):
        graph = harary_graph(4, 10)
        protocols, _, _ = run_unsigned(graph, t=1)
        for node in protocols.values():
            assert node.accepted_edges() <= graph.edges()


class TestByzantineResistance:
    def test_fictitious_edge_to_correct_victim_rejected(self):
        """The both-endpoints rule: a lone liar cannot mint an edge."""
        graph = cycle_graph(6).with_edges([(0, 3), (1, 4), (2, 5)])  # κ = 3
        liar = 0
        victim = 2  # not adjacent to 0? (0,2) not an edge in this graph
        assert not graph.has_edge(liar, victim)
        byzantine = {
            liar: LyingClaimNode(liar, graph.neighbors(liar), victim)
        }
        protocols, verdicts, _ = run_unsigned(graph, t=1, byzantine=byzantine)
        fake = tuple(sorted((liar, victim)))
        for v, node in protocols.items():
            if v == liar:
                continue
            assert fake not in node.accepted_edges()

    def test_spoofed_path_rejected(self):
        node = UnsignedNectarNode(5, 8, 1, {1, 2})
        claim = EdgeClaim(claimant=7, edge=(6, 7), path=(3,))
        node.deliver(2, 1, claim)  # channel sender 1 != path tail 3
        assert (6, 7) not in node.accepted_edges()

    def test_non_endpoint_claim_rejected(self):
        node = UnsignedNectarNode(5, 8, 1, {1, 2})
        claim = EdgeClaim(claimant=1, edge=(6, 7), path=DIRECT)
        node.deliver(1, 1, claim)
        assert (6, 7) not in node.accepted_edges()

    def test_junk_ignored(self):
        """Junk and garbled claims are dropped: no crash, no evidence,
        no relay."""
        junk = [
            RawPayload(b"zz"),
            EdgeClaim(claimant=5, edge=(5,), path=DIRECT),
            EdgeClaim(claimant=5, edge=(5, 6), path=[5]),
            EdgeClaim(claimant=6, edge=(5, 6), path=([1], 5)),
            EdgeClaim(claimant=5, edge=(6, 5), path=DIRECT),
        ]
        for payload in junk:
            node = UnsignedNectarNode(0, 8, 0, {1, 5})
            node.deliver(1, 5, payload)
            assert node.accepted_edges() == {(0, 1), (0, 5)}, payload
            assert node.begin_round(2) == [], payload

    def test_reversed_claims_never_accepted(self):
        """Two colluders claiming (2, 1) must not add a second copy of
        edge (1, 2) to a correct node's view."""
        node = UnsignedNectarNode(0, 8, 0, {1, 2})
        for claimant in (1, 2):
            node.deliver(1, claimant, EdgeClaim(claimant, (2, 1), DIRECT))
        assert node.accepted_edges() == {(0, 1), (0, 2)}

    def test_garbling_neighbor_does_not_stop_the_run(self):
        graph = harary_graph(4, 10)
        garbler = 3
        byzantine = {garbler: GarblingClaimNode(garbler, graph.neighbors(garbler))}
        protocols, verdicts, _ = run_unsigned(graph, t=1, byzantine=byzantine)
        for v, node in protocols.items():
            if v == garbler:
                continue
            assert isinstance(verdicts[v], Verdict)
            assert node.accepted_edges() <= graph.edges()


class TestCostGap:
    @pytest.mark.parametrize(
        "graph, messages, decision",
        [
            (harary_graph(4, 8), 1239, Decision.NOT_PARTITIONABLE),
            (harary_graph(4, 10), 2241, Decision.NOT_PARTITIONABLE),
            (harary_graph(4, 12), 3700, Decision.NOT_PARTITIONABLE),
            (harary_graph(4, 14), 5901, Decision.NOT_PARTITIONABLE),
            (two_cliques_bridge(4, bridges=1), 722, Decision.PARTITIONABLE),
            (two_cliques_bridge(4, bridges=2), 1060, Decision.PARTITIONABLE),
        ],
        ids=["harary-8", "harary-10", "harary-12", "harary-14", "bridge-1", "bridge-2"],
    )
    def test_exact_traffic_at_t1(self, graph, messages, decision):
        """Pinned totals: a delivered claim stops being relayed, so any
        change to a delivery answer moves them."""
        _, verdicts, network = run_unsigned(graph, t=1)
        assert sum(network.stats.messages_sent.values()) == messages
        assert {v.decision for v in verdicts.values()} == {decision}

    def test_unsigned_sends_more_messages_than_signed(self):
        """The paper's 'albeit at a significant cost'."""
        from repro.experiments.runner import nectar_cost_trial

        graph = harary_graph(4, 10)
        _, _, network = run_unsigned(graph, t=1)
        unsigned_messages = sum(network.stats.messages_sent.values())
        signed = nectar_cost_trial(graph)
        signed_messages = sum(signed.stats.messages_sent.values())
        assert unsigned_messages > signed_messages


class TestLifecycle:
    def test_one_shot_decide(self):
        node = UnsignedNectarNode(0, 4, 1, {1})
        node.conclude()
        with pytest.raises(ProtocolError):
            node.conclude()

    def test_rejects_bad_parameters(self):
        with pytest.raises(ProtocolError):
            UnsignedNectarNode(0, 4, -1, {1})
        with pytest.raises(ProtocolError):
            UnsignedNectarNode(0, 4, 1, {0})
