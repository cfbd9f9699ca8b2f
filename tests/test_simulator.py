"""Tests for the lock-step synchronous scheduler and traffic stats."""

import pytest

from repro.crypto.sizes import DEFAULT_PROFILE
from repro.errors import ChannelError, ProtocolError
from repro.graphs.generators.classic import path_graph
from repro.graphs.graph import Graph
from repro.net.message import Outgoing, RawPayload
from repro.net.simulator import RoundProtocol, SyncNetwork
from repro.net.stats import TrafficStats


class EchoProtocol(RoundProtocol):
    """Sends a token in round 1, then relays new tokens once."""

    def __init__(self, node_id, neighbors):
        self._node_id = node_id
        self._neighbors = sorted(neighbors)
        self.received: list[tuple[int, int, bytes]] = []
        self._pending: list[bytes] = []
        self._seen: set[bytes] = set()

    @property
    def node_id(self):
        return self._node_id

    def begin_round(self, round_number):
        if round_number == 1:
            token = bytes([self._node_id])
            self._seen.add(token)
            return [
                Outgoing(destination=v, payload=RawPayload(token))
                for v in self._neighbors
            ]
        pending, self._pending = self._pending, []
        return [
            Outgoing(destination=v, payload=RawPayload(token))
            for token in pending
            for v in self._neighbors
        ]

    def deliver(self, round_number, sender, payload):
        self.received.append((round_number, sender, payload.data))
        if payload.data not in self._seen:
            self._seen.add(payload.data)
            self._pending.append(payload.data)

    def conclude(self):
        return frozenset(self._seen)


class MisbehavingProtocol(EchoProtocol):
    """Attempts to reach a non-neighbor directly."""

    def begin_round(self, round_number):
        return [Outgoing(destination=99, payload=RawPayload(b"!"))]


class UnsizablePayloadProtocol(EchoProtocol):
    """A Byzantine sender whose payloads have no wire size."""

    def begin_round(self, round_number):
        return [Outgoing(destination=v, payload=object()) for v in self._neighbors]


def build(graph):
    return {
        v: EchoProtocol(v, graph.neighbors(v)) for v in graph.nodes()
    }


class TestSyncNetwork:
    def test_tokens_flood_the_path(self):
        graph = path_graph(4)
        network = SyncNetwork(graph, build(graph))
        verdicts = network.run(3)  # n - 1 rounds
        expected = frozenset(bytes([v]) for v in range(4))
        assert all(result == expected for result in verdicts.values())

    def test_one_round_reaches_only_neighbors(self):
        graph = path_graph(3)
        network = SyncNetwork(graph, build(graph))
        verdicts = network.run(1)
        assert verdicts[0] == frozenset({b"\x00", b"\x01"})

    def test_delivery_round_matches_send_round(self):
        graph = Graph(2, [(0, 1)])
        protocols = build(graph)
        SyncNetwork(graph, protocols).run(1)
        assert protocols[0].received == [(1, 1, b"\x01")]

    def test_stats_account_sends_and_receives(self):
        graph = path_graph(3)
        network = SyncNetwork(graph, build(graph))
        network.run(2)
        stats = network.stats
        assert stats.conservation_gap() == 0
        # Round 1: node 1 (middle) sends 2 messages of 1 byte payload.
        header = DEFAULT_PROFILE.envelope_header_bytes
        assert stats.bytes_sent[1] >= 2 * (header + 1)

    def test_channel_enforcement(self):
        graph = path_graph(3)
        protocols = build(graph)
        protocols[0] = MisbehavingProtocol(0, graph.neighbors(0))
        network = SyncNetwork(graph, protocols)
        with pytest.raises(ChannelError):
            network.run(1)

    def test_unsizable_payload_dropped_at_sender(self):
        """A send the scheduler cannot size is neither counted nor
        delivered; the run goes on without it."""
        graph = path_graph(3)
        protocols = build(graph)
        protocols[0] = UnsizablePayloadProtocol(0, graph.neighbors(0))
        network = SyncNetwork(graph, protocols)
        verdicts = network.run(2)
        assert 0 not in network.stats.messages_sent
        assert all(sender != 0 for _, sender, _ in protocols[1].received)
        assert network.stats.conservation_gap() == 0
        assert verdicts[2] == frozenset({b"\x01", b"\x02"})

    def test_single_use(self):
        graph = path_graph(3)
        network = SyncNetwork(graph, build(graph))
        network.run(1)
        with pytest.raises(ProtocolError):
            network.run(1)

    def test_zero_rounds_rejected(self):
        graph = path_graph(3)
        network = SyncNetwork(graph, build(graph))
        with pytest.raises(ProtocolError):
            network.run(0)

    def test_protocol_map_must_cover_graph(self):
        graph = path_graph(3)
        protocols = build(graph)
        del protocols[2]
        with pytest.raises(ProtocolError):
            SyncNetwork(graph, protocols)

    def test_protocol_id_mismatch_rejected(self):
        graph = path_graph(3)
        protocols = build(graph)
        protocols[2] = EchoProtocol(1, graph.neighbors(2))
        with pytest.raises(ProtocolError):
            SyncNetwork(graph, protocols)


class TestTrafficStats:
    def test_record_and_aggregate(self):
        stats = TrafficStats()
        stats.record_send(0, 100)
        stats.record_send(0, 50)
        stats.record_send(1, 30)
        assert stats.total_bytes_sent() == 180
        assert stats.bytes_sent_by(0) == 150
        assert stats.bytes_sent_by(9) == 0
        assert stats.messages_sent[0] == 2

    def test_mean_counts_silent_nodes_as_zero(self):
        stats = TrafficStats()
        stats.record_send(0, 1000)
        assert stats.mean_bytes_sent([0, 1]) == 500.0
        assert stats.mean_kb_sent([0, 1]) == 0.5

    def test_mean_over_empty_set_rejected(self):
        with pytest.raises(ValueError):
            TrafficStats().mean_bytes_sent([])

    def test_conservation_gap(self):
        stats = TrafficStats()
        stats.record_send(0, 10)
        stats.record_receive(1, 10)
        assert stats.conservation_gap() == 0
        stats.record_send(0, 5)
        assert stats.conservation_gap() == 5
