"""Tests for the discovered graph G_i."""

import pytest

from repro.core.adjacency import DiscoveredGraph
from repro.crypto.proofs import make_proof


@pytest.fixture
def proof_for(scheme, keystore):
    def build(u, v):
        return make_proof(scheme, keystore.key_pair_of(u), keystore.key_pair_of(v))

    return build


class TestDiscoveredGraph:
    def test_starts_empty(self):
        discovered = DiscoveredGraph(5)
        assert discovered.edge_count() == 0
        assert not discovered.knows(0, 1)

    def test_add_and_lookup(self, proof_for):
        discovered = DiscoveredGraph(10)
        assert discovered.add(proof_for(2, 5))
        assert discovered.knows(2, 5)
        assert discovered.knows(5, 2)  # undirected
        assert discovered.proof_of(5, 2).edge == (2, 5)

    def test_duplicate_add_returns_false(self, proof_for):
        discovered = DiscoveredGraph(10)
        proof = proof_for(1, 2)
        assert discovered.add(proof)
        assert not discovered.add(proof)
        assert discovered.edge_count() == 1

    def test_self_loop_query_is_false(self):
        discovered = DiscoveredGraph(5)
        assert not discovered.knows(3, 3)

    def test_out_of_range_edge_rejected(self, proof_for):
        discovered = DiscoveredGraph(4)
        with pytest.raises(ValueError):
            discovered.add(proof_for(2, 7))

    def test_unknown_proof_lookup_raises(self):
        discovered = DiscoveredGraph(5)
        with pytest.raises(KeyError):
            discovered.proof_of(0, 1)

    def test_reachable_from(self, proof_for):
        discovered = DiscoveredGraph(10)
        discovered.add(proof_for(0, 1))
        discovered.add(proof_for(1, 2))
        discovered.add(proof_for(4, 5))
        assert discovered.reachable_from(0) == {0, 1, 2}
        assert discovered.reachable_from(4) == {4, 5}
        assert discovered.reachable_from(9) == {9}

    def test_to_graph_preserves_n(self, proof_for):
        discovered = DiscoveredGraph(10)
        discovered.add(proof_for(0, 1))
        graph = discovered.to_graph()
        assert graph.n == 10
        assert graph.has_edge(0, 1)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            DiscoveredGraph(0)


class TestCopy:
    @pytest.fixture
    def original(self, proof_for):
        discovered = DiscoveredGraph(10)
        for u, v in [(0, 1), (1, 2), (4, 5), (2, 7)]:
            discovered.add(proof_for(u, v))
        return discovered

    def test_same_n_proofs_and_reachability(self, original):
        clone = original.copy()
        assert clone.n == original.n
        assert clone.edges() == original.edges()
        for u, v in original.edges():
            assert clone.proof_of(u, v) is original.proof_of(u, v)
        for source in range(original.n):
            assert clone.reachable_from(source) == original.reachable_from(source)

    def test_adding_to_the_copy_leaves_the_original(self, original, proof_for):
        edges = original.edges()
        reach = {source: original.reachable_from(source) for source in range(10)}
        clone = original.copy()
        assert clone.add(proof_for(5, 6))
        assert clone.add(proof_for(0, 9))  # extends an existing adjacency set
        assert original.edges() == edges
        assert not original.knows(5, 6) and not original.knows(0, 9)
        assert {s: original.reachable_from(s) for s in range(10)} == reach

    def test_adding_to_the_original_leaves_the_copy(self, original, proof_for):
        clone = original.copy()
        edges = clone.edges()
        reach = {source: clone.reachable_from(source) for source in range(10)}
        assert original.add(proof_for(5, 6))
        assert original.add(proof_for(0, 9))
        assert clone.edges() == edges
        assert not clone.knows(5, 6) and not clone.knows(0, 9)
        assert {s: clone.reachable_from(s) for s in range(10)} == reach

    def test_copy_keeps_the_id_range_check(self, proof_for):
        small = DiscoveredGraph(4)
        small.add(proof_for(0, 1))
        with pytest.raises(ValueError):
            small.copy().add(proof_for(2, 7))
