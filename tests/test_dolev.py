"""Tests for Dolev's unsigned reliable communication."""

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from networkx.algorithms.connectivity import local_node_connectivity

from repro.errors import ProtocolError
from repro.extensions.dolev import (
    DIRECT,
    DolevMessage,
    DolevNode,
    disjoint_path_support,
    dolev_round_count,
)
from repro.graphs.generators.classic import cycle_graph, two_cliques_bridge
from repro.graphs.generators.regular import harary_graph
from repro.net.message import Outgoing, RawPayload
from repro.net.simulator import RoundProtocol, SyncNetwork


def run_dolev(graph, t, sources, silent=frozenset()):
    """Run Dolev broadcast; ``silent`` nodes are crash-Byzantine."""
    protocols = {}
    for v in graph.nodes():
        content = f"msg-{v}" if v in sources else None
        protocols[v] = DolevNode(v, t, graph.neighbors(v), broadcast=content)
    # Crash-faulty nodes: replace with mute relays (send nothing).
    for v in silent:
        protocols[v] = DolevNode(v, t, graph.neighbors(v), broadcast=None)
        protocols[v].begin_round = lambda r: []  # type: ignore[method-assign]
    network = SyncNetwork(graph, protocols)
    verdicts = network.run(dolev_round_count(graph.n))
    return protocols, verdicts


class TestDisjointPathSupport:
    def test_direct_counts_alone(self):
        assert disjoint_path_support(0, 5, [DIRECT], threshold=1)

    def test_direct_plus_disjoint_relays(self):
        paths = [DIRECT, (1,), (2,)]
        assert disjoint_path_support(0, 5, paths, threshold=3)

    def test_overlapping_paths_do_not_stack(self):
        paths = [(1, 2), (1, 3)]  # both pass through 1
        assert disjoint_path_support(0, 5, paths, threshold=1)
        assert not disjoint_path_support(0, 5, paths, threshold=2)

    def test_disjoint_relay_paths(self):
        paths = [(1, 2), (3, 4)]
        assert disjoint_path_support(0, 5, paths, threshold=2)

    def test_cyclic_path_is_worthless(self):
        assert not disjoint_path_support(0, 5, [(1, 1)], threshold=1)

    def test_threshold_zero_is_trivial(self):
        assert disjoint_path_support(0, 5, [], threshold=0)

    def test_branching_evidence_combines(self):
        # Evidence forms a braid: 0-1-3-T and 0-2-3-T share vertex 3,
        # but 0-1-4-T completes two disjoint routes.
        paths = [(1, 3), (2, 3), (1, 4)]
        assert disjoint_path_support(0, 9, paths, threshold=2)

    def test_union_is_directed(self):
        # Read undirected, these paths would hold three disjoint routes.
        source, target, paths = DIRECTED_COUNTEREXAMPLE
        assert disjoint_path_support(source, target, paths, threshold=2)
        assert not disjoint_path_support(source, target, paths, threshold=3)

    def test_source_is_target(self):
        assert not disjoint_path_support(4, 4, [(1,), (2,)], threshold=1)


#: Source 0, target 1: two disjoint routes in the directed union of
#: these paths, and three in its undirected reading.
DIRECTED_COUNTEREXAMPLE = (0, 1, [(4, 8, 6, 3), (6, 2, 4, 8), (7, 5, 8, 3, 2)])


@st.composite
def received_evidence(draw):
    """Paths received between two drawn terminals over 3–10 nodes.

    Mostly simple relay paths, plus a little junk: ``DIRECT``, a path
    that repeats a relay, or one that passes through a terminal.
    """
    n = draw(st.integers(min_value=3, max_value=10))
    source, target = draw(
        st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    )
    relays = [v for v in range(n) if v not in (source, target)]
    simple = st.lists(
        st.sampled_from(relays), min_size=1, max_size=len(relays), unique=True
    ).map(tuple)
    junk = st.one_of(
        st.just(DIRECT),
        simple.map(lambda path: path + path[:1]),
        st.tuples(simple, st.sampled_from((source, target))).map(
            lambda drawn: drawn[0] + (drawn[1],)
        ),
    )
    paths = draw(st.lists(simple, max_size=9)) + draw(st.lists(junk, max_size=2))
    return source, target, paths


@settings(max_examples=150, deadline=None)
@given(received_evidence(), st.integers(min_value=0, max_value=5))
@example(DIRECTED_COUNTEREXAMPLE, 2)
@example(DIRECTED_COUNTEREXAMPLE, 3)
def test_support_matches_networkx(drawn, threshold):
    """The count equals networkx's on the union as a ``DiGraph``, plus
    one for ``DIRECT``; cyclic paths are left out of the union."""
    source, target, paths = drawn
    union = nx.DiGraph()
    union.add_nodes_from((source, target))
    for path in paths:
        hops = [source, *path, target]
        if path != DIRECT and len(set(hops)) == len(hops):
            nx.add_path(union, hops)
    disjoint = local_node_connectivity(union, source, target) + (DIRECT in paths)
    supported = disjoint_path_support(source, target, paths, threshold)
    assert supported == (disjoint >= threshold)


class GarblingNode(RoundProtocol):
    """A Byzantine neighbour that sends malformed copies in round 1."""

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
            DolevMessage(source=me, content=["x"], path=DIRECT),
            DolevMessage(source=me, content=(["x"],), path=DIRECT),
            DolevMessage(source=0, content="m", path=([0], me)),
            DolevMessage(source=0, content="m", path=[me]),
            DolevMessage(source=[0], content="m", path=(me,)),
        ]
        return [
            Outgoing(destination=v, payload=payload)
            for payload in garbled
            for v in self._neighbors
        ]

    def deliver(self, round_number, sender, payload):
        pass

    def conclude(self):
        return frozenset()


class TestDolevBroadcast:
    def test_t0_floods_a_cycle(self):
        graph = cycle_graph(5)
        _, verdicts = run_dolev(graph, t=0, sources={0})
        # Every node except the source must deliver.
        assert all((0, "msg-0") in verdicts[v] for v in range(1, 5))

    def test_t1_needs_3_connectivity(self):
        # Harary H(3, 8) is 3-connected = 2t+1 for t=1.
        graph = harary_graph(3, 8)
        _, verdicts = run_dolev(graph, t=1, sources={0})
        assert all((0, "msg-0") in verdicts[v] for v in range(1, 8))

    def test_crash_fault_does_not_block_delivery(self):
        graph = harary_graph(3, 8)
        silent = frozenset({4})
        _, verdicts = run_dolev(graph, t=1, sources={0}, silent=silent)
        for v in range(1, 8):
            if v in silent:
                continue
            assert (0, "msg-0") in verdicts[v]

    def test_insufficient_connectivity_blocks_delivery(self):
        # One bridge between cliques: only 1 disjoint path, t=1 needs 2.
        graph = two_cliques_bridge(4, bridges=1)
        _, verdicts = run_dolev(graph, t=1, sources={0})
        # Nodes in the far clique cannot assemble 2 disjoint paths.
        far = [5, 6, 7]
        assert all((0, "msg-0") not in verdicts[v] for v in far)

    def test_two_bridges_unblock_t1(self):
        graph = two_cliques_bridge(4, bridges=2)
        _, verdicts = run_dolev(graph, t=1, sources={0})
        assert all((0, "msg-0") in verdicts[v] for v in range(1, 8))

    def test_garbling_neighbor_does_not_stop_delivery(self):
        graph = harary_graph(3, 8)
        protocols = {
            v: DolevNode(v, 1, graph.neighbors(v), broadcast="m" if v == 0 else None)
            for v in graph.nodes()
        }
        protocols[4] = GarblingNode(4, graph.neighbors(4))
        verdicts = SyncNetwork(graph, protocols).run(dolev_round_count(graph.n))
        assert all((0, "m") in verdicts[v] for v in range(1, 8) if v != 4)

    def test_multiple_sources(self):
        graph = harary_graph(3, 8)
        _, verdicts = run_dolev(graph, t=1, sources={0, 3})
        for v in range(8):
            others = {0, 3} - {v}
            for source in others:
                assert (source, f"msg-{source}") in verdicts[v]


class TestDolevNodeUnit:
    def test_direct_reception_requires_source_channel(self):
        node = DolevNode(5, 1, {1, 2})
        fake = DolevMessage(source=9, content="x", path=DIRECT)
        node.deliver(1, 1, fake)  # sender 1 claims a direct copy from 9
        assert node.delivered == frozenset()

    def test_path_must_end_at_sender(self):
        node = DolevNode(5, 0, {1, 2})
        spoofed = DolevMessage(source=9, content="x", path=(3,))
        node.deliver(1, 1, spoofed)  # path says 3, channel says 1
        assert node.delivered == frozenset()

    def test_junk_ignored(self):
        """Junk and garbled copies are dropped: no crash, no delivery,
        no relay."""
        junk = [
            RawPayload(b"zz"),
            DolevMessage(source=1, content=["x"], path=DIRECT),
            DolevMessage(source=1, content=(["x"],), path=DIRECT),
            DolevMessage(source=9, content="x", path=([3], 1)),
            DolevMessage(source=9, content="x", path=[1]),
            DolevMessage(source=[9], content="x", path=(1,)),
            DolevMessage(source="9", content="x", path=(1,)),
        ]
        for payload in junk:
            node = DolevNode(5, 0, {1})
            node.deliver(1, 1, payload)
            assert node.delivered == frozenset(), payload
            assert node.begin_round(2) == [], payload

    def test_negative_t_rejected(self):
        with pytest.raises(ProtocolError):
            DolevNode(0, -1, {1})

    def test_self_neighbor_rejected(self):
        with pytest.raises(ProtocolError):
            DolevNode(0, 1, {0})

    def test_message_size_grows_with_path(self):
        from repro.crypto.sizes import DEFAULT_PROFILE

        short = DolevMessage(source=0, content="x", path=())
        long = DolevMessage(source=0, content="x", path=(1, 2, 3))
        assert long.encoded_size(DEFAULT_PROFILE) > short.encoded_size(
            DEFAULT_PROFILE
        )
