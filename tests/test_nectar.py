"""Unit tests for the NECTAR protocol node (Algorithm 1)."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from repro.adversary.behaviors import (
    OverChainedNectarNode,
    SilentNode,
    StaleChainNectarNode,
)
from repro.core.messages import EdgeAnnouncement, NectarBatch, NectarBatchCodec
from repro.core.nectar import NectarNode, nectar_round_count
from repro.crypto.chain import ChainLink, extend_chain
from repro.crypto.proofs import NeighborhoodProof, proof_bytes
from repro.crypto.signer import HmacScheme
from repro.crypto.sizes import DEFAULT_PROFILE
from repro.errors import ProtocolError
from repro.experiments.runner import build_deployment, protocol_factory, run_trial
from repro.graphs.generators.classic import (
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    two_cliques_bridge,
)
from repro.graphs.generators.regular import harary_graph
from repro.graphs.graph import Graph
from repro.net.codec import encode_envelope
from repro.net.message import Envelope, Outgoing, RawPayload
from repro.net.simulator import SyncNetwork
from repro.types import Decision


def build_node(deployment, node_id, t=1, **kwargs):
    return NectarNode(
        node_id=node_id,
        n=deployment.graph.n,
        t=t,
        key_pair=deployment.key_store.key_pair_of(node_id),
        scheme=deployment.scheme,
        directory=deployment.key_store.directory,
        neighbor_proofs=deployment.proofs_of(node_id),
        **kwargs,
    )


def _batch(proof, chain):
    return NectarBatch(announcements=(EdgeAnnouncement(proof=proof, chain=chain),))


def _link(sender, signature=bytes(64)):
    return (ChainLink(signer=sender, signature=signature),)


#: Round-1 batches a Byzantine ``sender`` may garble, by name, each
#: built around ``proof``: a genuine proof of an edge at ``sender`` that
#: the receiver does not know yet, so that the copy reaches every
#: check.  A receiver that trusted the fields would raise on each.
MALFORMED_BATCHES = {
    "not-an-announcement": lambda sender, proof: NectarBatch(
        announcements=(object(),)
    ),
    "no-announcements": lambda sender, proof: NectarBatch(announcements=None),
    "list-edge": lambda sender, proof: _batch(
        NeighborhoodProof(list(proof.edge), b"", b""), _link(sender)
    ),
    "no-chain": lambda sender, proof: _batch(proof, None),
    "not-a-link": lambda sender, proof: _batch(proof, (object(),)),
    "int-link-signature": lambda sender, proof: _batch(proof, _link(sender, 5)),
    "int-proof-signatures": lambda sender, proof: _batch(
        NeighborhoodProof(proof.edge, 5, 7), _link(sender)
    ),
}


class _SizedBatch(NectarBatch):
    """A batch with a fixed wire size: the scheduler sizes every send,
    and a malformed batch cannot size itself."""

    def encoded_size(self, profile):
        return 0


def _sized(make):
    """``make``, with its batch wrapped in a :class:`_SizedBatch`."""
    return lambda sender, proof: _SizedBatch(make(sender, proof).announcements)


class ProbingNode(SilentNode):
    """A Byzantine neighbour that sends the batch each of ``probes``
    builds around each of its proofs to every neighbour in round 1."""

    def __init__(self, node_id, proofs, probes):
        super().__init__(node_id)
        self._proofs = proofs
        self._probes = probes

    def begin_round(self, round_number):
        if round_number != 1:
            return []
        return [
            Outgoing(destination=neighbor, payload=make(self.node_id, proof))
            for neighbor in sorted(self._proofs)
            for proof in self._proofs.values()
            for make in self._probes
        ]


def _correct_verdicts(factory, cache=True):
    """Honest verdicts on ``harary_graph(4, 10)`` at t = 1, with node 0
    built by ``factory``."""
    result = run_trial(
        harary_graph(4, 10),
        t=1,
        byzantine_factories={0: factory},
        verification_cache=cache,
        with_ground_truth=False,
    )
    return result.correct_verdicts


class TestConstruction:
    def test_initial_view_is_own_neighborhood(self):
        deployment = build_deployment(cycle_graph(5))
        node = build_node(deployment, 0)
        assert node.discovered.knows(0, 1)
        assert node.discovered.knows(0, 4)
        assert node.discovered.edge_count() == 2
        assert node.neighbors == frozenset({1, 4})

    def test_rejects_foreign_key_pair(self):
        deployment = build_deployment(cycle_graph(5))
        with pytest.raises(ProtocolError):
            NectarNode(
                node_id=0,
                n=5,
                t=1,
                key_pair=deployment.key_store.key_pair_of(1),
                scheme=deployment.scheme,
                directory=deployment.key_store.directory,
                neighbor_proofs=deployment.proofs_of(0),
            )

    def test_rejects_negative_t(self):
        deployment = build_deployment(cycle_graph(5))
        with pytest.raises(ProtocolError):
            build_node(deployment, 0, t=-1)

    def test_rejects_mismatched_proofs(self):
        deployment = build_deployment(cycle_graph(5))
        with pytest.raises(ProtocolError):
            NectarNode(
                node_id=0,
                n=5,
                t=1,
                key_pair=deployment.key_store.key_pair_of(0),
                scheme=deployment.scheme,
                directory=deployment.key_store.directory,
                neighbor_proofs={2: deployment.proofs_of(1)[2]},
            )


    def test_rejects_reversed_neighbor_proof(self):
        """A neighbour proof must name the (min, max) edge: the swapped
        orientation, signatures swapped too, covers the same endpoints
        but would be stored under a second key."""
        deployment = build_deployment(cycle_graph(5))
        real = deployment.proofs_of(0)[1]
        swapped = NeighborhoodProof(
            edge=(1, 0), signature_lo=real.signature_hi, signature_hi=real.signature_lo
        )
        with pytest.raises(ProtocolError, match="does not cover the edge"):
            NectarNode(
                node_id=0,
                n=5,
                t=1,
                key_pair=deployment.key_store.key_pair_of(0),
                scheme=deployment.scheme,
                directory=deployment.key_store.directory,
                neighbor_proofs={1: swapped, 4: deployment.proofs_of(0)[4]},
            )


class TestRoundBehaviour:
    def test_round_one_announces_neighborhood_to_all_neighbors(self):
        deployment = build_deployment(cycle_graph(5))
        node = build_node(deployment, 0)
        sends = node.begin_round(1)
        assert {out.destination for out in sends} == {1, 4}
        for out in sends:
            assert isinstance(out.payload, NectarBatch)
            assert len(out.payload) == 2  # both own edges
            assert all(len(a.chain) == 1 for a in out.payload.announcements)

    def test_relay_excludes_source(self):
        # 3 - 0 - 1 - 2: node 0 knows edge (0, 3), new to node 1.
        graph = Graph(4, [(0, 1), (1, 2), (0, 3)])
        deployment = build_deployment(graph)
        middle = build_node(deployment, 1)
        middle.begin_round(1)
        edge_batch = next(
            out.payload
            for out in build_node(deployment, 0).begin_round(1)
            if out.destination == 1
        )
        middle.deliver(1, 0, edge_batch)
        sends = middle.begin_round(2)
        # The new edge (0, 3) came from 0; it must go to 2 only.
        assert {out.destination for out in sends} == {2}
        relayed = sends[0].payload.announcements
        assert [a.proof.edge for a in relayed] == [(0, 3)]
        assert all(len(a.chain) == 2 for a in relayed)
        assert all(a.chain[-1].signer == 1 for a in relayed)

    def test_duplicate_announcements_not_relayed(self):
        deployment = build_deployment(cycle_graph(4))
        node = build_node(deployment, 1)
        node.begin_round(1)
        batch = build_node(deployment, 0).begin_round(1)[0].payload
        node.deliver(1, 0, batch)
        node.deliver(1, 0, batch)  # duplicate delivery
        sends = node.begin_round(2)
        relayed = sum(len(out.payload) for out in sends)
        # One new edge (0,3) — edge (0,1) was already known.
        assert relayed == len([out.destination for out in sends])

    @pytest.mark.parametrize("probe", ["raw", *MALFORMED_BATCHES])
    def test_junk_payload_ignored(self, probe):
        deployment = build_deployment(cycle_graph(4))
        node = build_node(deployment, 0)
        node.begin_round(1)
        if probe == "raw":
            payload = RawPayload(b"\xde\xad")
        else:
            payload = MALFORMED_BATCHES[probe](1, deployment.proofs[(1, 2)])
        node.deliver(1, 1, payload)
        assert node.discovered.edge_count() == 2  # unchanged
        assert node.begin_round(2) == []

    @pytest.mark.parametrize("cache", [True, False])
    def test_malformed_batches_do_not_stop_a_trial(self, cache):
        """Honest nodes drop a probing neighbour's every batch, so they
        decide as they do when that neighbour is silent.  Each batch is
        a :class:`_SizedBatch`, so that it reaches ``deliver``."""
        probes = [_sized(make) for make in MALFORMED_BATCHES.values()]
        probed = _correct_verdicts(
            lambda setup: ProbingNode(setup.node_id, setup.neighbor_proofs, probes),
            cache,
        )
        assert probed == _correct_verdicts(protocol_factory(SilentNode), cache)

    @pytest.mark.parametrize("probe", list(MALFORMED_BATCHES))
    def test_unsized_malformed_batch_does_not_stop_a_trial(self, probe):
        """Sent as built, a batch that cannot size itself is dropped at
        the sender and the others are dropped in ``deliver``: either way
        honest nodes decide as they do with a silent neighbour."""
        probes = [MALFORMED_BATCHES[probe]]
        probed = _correct_verdicts(
            lambda setup: ProbingNode(setup.node_id, setup.neighbor_proofs, probes)
        )
        assert probed == _correct_verdicts(protocol_factory(SilentNode))

    def test_conclude_is_one_shot(self):
        deployment = build_deployment(cycle_graph(4))
        node = build_node(deployment, 0)
        node.conclude()
        with pytest.raises(ProtocolError):
            node.conclude()


class _Counting(HmacScheme):
    """HMAC that counts the signatures it computes."""

    def __init__(self):
        super().__init__()
        self.signs = 0

    def sign(self, key_pair, data):
        self.signs += 1
        return super().sign(key_pair, data)


def _sized_sends(sends, round_number):
    """Each send's wire size, as ``SyncNetwork`` computes it."""
    return [
        Envelope(0, round_number, out.payload).wire_size(DEFAULT_PROFILE)
        for out in sends
    ]


def _relaying_middle(cls=NectarNode):
    """Node 1 of the path 3 - 0 - 1 - 2 (built as ``cls``), which has
    accepted edge (0, 3) from node 0 in round 1; the scheme; and the
    honest round-2 relay of that edge, built eagerly."""
    scheme = _Counting()
    deployment = build_deployment(Graph(4, [(0, 1), (1, 2), (0, 3)]), scheme=scheme)
    keys = deployment.key_store
    middle = cls(
        1, 4, 1, keys.key_pair_of(1), scheme, keys.directory, deployment.proofs_of(1)
    )
    middle.begin_round(1)
    (edge_batch,) = [
        out.payload
        for out in build_node(deployment, 0).begin_round(1)
        if out.destination == 1
    ]
    middle.deliver(1, 0, edge_batch)
    (received,) = [a for a in edge_batch.announcements if a.proof.edge == (0, 3)]
    chain = extend_chain(
        scheme, keys.key_pair_of(1), proof_bytes(received.proof), received.chain
    )
    return middle, scheme, EdgeAnnouncement(received.proof, chain)


#: Ways to touch a relayed announcement first.
_FIRST_READS = {
    "chain": lambda announcement: announcement.chain,
    "hash": hash,
    "repr": repr,
    "pickle": pickle.dumps,
    "copy": copy.copy,
}


class TestLazyRelays:
    """A relayed announcement signs its link when its chain is first
    read, and is the eager value whatever reads it."""

    def test_sending_and_sizing_sign_nothing(self):
        scheme = _Counting()
        deployment = build_deployment(cycle_graph(5), scheme=scheme)
        node = build_node(deployment, 0)
        sends = node.begin_round(1)
        assert _sized_sends(sends, 1) and scheme.signs == 0  # proofs too
        middle, scheme, _eager = _relaying_middle()
        before = scheme.signs
        sends = middle.begin_round(2)
        assert [out.destination for out in sends] == [2]
        assert _sized_sends(sends, 2) and scheme.signs == before
        assert sends[0].payload.announcements[0].chain_length == 2

    def test_the_first_read_signs_once(self):
        middle, scheme, eager = _relaying_middle()
        (announcement,) = middle.begin_round(2)[0].payload.announcements
        before = scheme.signs
        chain = announcement.chain
        assert scheme.signs == before + 1
        assert announcement.chain is chain and scheme.signs == before + 1
        assert announcement.chain_length == len(chain) == 2
        assert [link.signer for link in chain] == [0, 1]
        assert announcement == eager

    @pytest.mark.parametrize("first", [*_FIRST_READS, "eq"])
    def test_a_pending_relay_is_the_eager_value(self, first):
        middle, _scheme, eager = _relaying_middle()
        (lazy,) = middle.begin_round(2)[0].payload.announcements
        if first == "eq":
            assert lazy == eager
        else:
            assert _FIRST_READS[first](lazy) == _FIRST_READS[first](eager)
        assert lazy == eager and eager == lazy
        assert hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
        assert repr(eager).startswith("EdgeAnnouncement(proof=NeighborhoodProof(")
        assert pickle.dumps(lazy) == pickle.dumps(eager)
        assert pickle.loads(pickle.dumps(lazy)) == eager
        assert copy.copy(lazy) == eager and copy.deepcopy(lazy) == eager
        with pytest.raises(FrozenInstanceError):
            lazy.chain = eager.chain
        with pytest.raises(FrozenInstanceError):
            lazy.chain_length = 3

    def test_a_pending_batch_encodes_as_the_eager_batch(self):
        middle, _scheme, eager_relay = _relaying_middle()
        (send,) = middle.begin_round(2)
        eager = NectarBatch((eager_relay,))
        codec = NectarBatchCodec()
        encoded = codec.encode(send.payload, DEFAULT_PROFILE)
        assert encoded == codec.encode(eager, DEFAULT_PROFILE)
        assert codec.decode(encoded, DEFAULT_PROFILE) == eager == send.payload
        envelope = Envelope(1, 2, send.payload)
        assert len(encode_envelope(envelope, DEFAULT_PROFILE)) == envelope.wire_size(
            DEFAULT_PROFILE
        )

    @pytest.mark.parametrize(
        "cls, links", [(StaleChainNectarNode, 1), (OverChainedNectarNode, 3)]
    )
    def test_chain_shape_attacks_size_the_links_they_carry(self, cls, links):
        middle, _scheme, _eager = _relaying_middle(cls)
        (send,) = middle.begin_round(2)
        (announcement,) = send.payload.announcements
        assert announcement.chain_length == len(announcement.chain) == links
        envelope = Envelope(1, 2, send.payload)
        assert len(encode_envelope(envelope, DEFAULT_PROFILE)) == envelope.wire_size(
            DEFAULT_PROFILE
        )


class TestEndToEnd:
    def test_cycle_all_discover_everything(self):
        graph = cycle_graph(6)
        result = run_trial(graph, t=1, with_ground_truth=False)
        for verdict in result.verdicts.values():
            assert verdict.reachable == 6

    def test_cycle_decision_values(self):
        # κ = 2 > t = 1: NOT_PARTITIONABLE everywhere.
        graph = cycle_graph(6)
        result = run_trial(graph, t=1, with_ground_truth=False)
        decisions = {v.decision for v in result.verdicts.values()}
        assert decisions == {Decision.NOT_PARTITIONABLE}

    def test_star_is_partitionable_for_t1(self):
        graph = star_graph(6)
        result = run_trial(graph, t=1, with_ground_truth=False)
        decisions = {v.decision for v in result.verdicts.values()}
        assert decisions == {Decision.PARTITIONABLE}
        assert all(not v.confirmed for v in result.verdicts.values())

    def test_partitioned_graph_confirmed(self):
        graph = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        result = run_trial(graph, t=1, with_ground_truth=False)
        for verdict in result.verdicts.values():
            assert verdict.decision is Decision.PARTITIONABLE
            assert verdict.confirmed
            assert verdict.reachable == 3

    def test_complete_graph_with_t2(self):
        graph = complete_graph(7)  # κ = 6 >= 2t = 4
        result = run_trial(graph, t=2, with_ground_truth=False)
        decisions = {v.decision for v in result.verdicts.values()}
        assert decisions == {Decision.NOT_PARTITIONABLE}

    def test_bridge_graph_connectivity_detected(self):
        graph = two_cliques_bridge(4, bridges=2)  # κ = 2
        result = run_trial(graph, t=2, with_ground_truth=False)
        for verdict in result.verdicts.values():
            assert verdict.decision is Decision.PARTITIONABLE
            assert verdict.connectivity == 2

    def test_all_views_identical_after_n_minus_1_rounds(self):
        """Eq. 4 of Lemma 2 for an all-correct run."""
        graph = two_cliques_bridge(4, bridges=1)
        deployment = build_deployment(graph)
        protocols = {v: build_node(deployment, v) for v in graph.nodes()}
        network = SyncNetwork(graph, protocols)
        network.run(nectar_round_count(graph.n))
        views = {p.discovered.edges() for p in protocols.values()}
        assert len(views) == 1
        assert views.pop() == graph.edges()


class TestRoundCount:
    def test_n_minus_one(self):
        assert nectar_round_count(10) == 9

    def test_minimum_one_round(self):
        assert nectar_round_count(2) == 1
        assert nectar_round_count(1) == 1

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            nectar_round_count(0)
