"""Tests for the discovered graph G_i."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import adjacency
from repro.core.adjacency import DiscoveredGraph
from repro.core.decision import decide
from repro.crypto.keys import build_keystore
from repro.crypto.proofs import make_proof
from repro.crypto.signer import HmacScheme
from repro.types import Decision


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
    # Every copy-independence case runs twice: on a fresh original and
    # on one whose queries ran before the copy (so the copy starts out
    # sharing the original's query memo).
    @staticmethod
    def originals(proof_for):
        for queried in (False, True):
            discovered = DiscoveredGraph(10)
            for u, v in [(0, 1), (1, 2), (4, 5), (2, 7)]:
                discovered.add(proof_for(u, v))
            if queried:
                discovered.edges()
                for source in range(discovered.n):
                    discovered.reachable_from(source)
            yield discovered

    def test_same_n_proofs_and_reachability(self, proof_for):
        for original in self.originals(proof_for):
            clone = original.copy()
            assert clone.n == original.n
            assert clone.edges() == original.edges()
            for u, v in original.edges():
                assert clone.proof_of(u, v) is original.proof_of(u, v)
            for source in range(original.n):
                assert clone.reachable_from(source) == original.reachable_from(source)

    def test_adding_to_the_copy_leaves_the_original(self, proof_for):
        for original in self.originals(proof_for):
            edges = original.edges()
            reach = {source: original.reachable_from(source) for source in range(10)}
            clone = original.copy()
            assert clone.add(proof_for(5, 6))
            assert clone.add(proof_for(0, 9))  # extends an existing component
            assert clone.reachable_from(9) == {0, 1, 2, 7, 9}
            assert clone.edges() == edges | {(5, 6), (0, 9)}
            assert original.edges() == edges
            assert not original.knows(5, 6) and not original.knows(0, 9)
            assert {s: original.reachable_from(s) for s in range(10)} == reach

    def test_adding_to_the_original_leaves_the_copy(self, proof_for):
        for original in self.originals(proof_for):
            clone = original.copy()
            edges = clone.edges()
            reach = {source: clone.reachable_from(source) for source in range(10)}
            assert original.add(proof_for(5, 6))
            assert original.add(proof_for(0, 9))
            assert original.reachable_from(6) == {4, 5, 6}
            assert clone.edges() == edges
            assert not clone.knows(5, 6) and not clone.knows(0, 9)
            assert {s: clone.reachable_from(s) for s in range(10)} == reach

    def test_copy_keeps_the_id_range_check(self, proof_for):
        small = DiscoveredGraph(4)
        small.add(proof_for(0, 1))
        with pytest.raises(ValueError):
            small.copy().add(proof_for(2, 7))


class TestSharedMemo:
    @pytest.fixture
    def view(self, proof_for):
        # Two components with edges ({0, 1, 2}, {4, 5}) plus isolated nodes.
        discovered = DiscoveredGraph(10)
        for u, v in [(0, 1), (1, 2), (4, 5)]:
            discovered.add(proof_for(u, v))
        return discovered

    def test_copies_decide_without_rebuilding(self, view, monkeypatch):
        """Copies of one view share its memo: after one copy decides,
        the others build no component and no edge set."""
        copies = [view.copy() for _ in range(4)]
        built = []

        def counting_frozenset(*args):
            built.append(args)
            return frozenset(*args)

        monkeypatch.setattr(adjacency, "frozenset", counting_frozenset, raising=False)
        first = {node: decide(copies[0], node, 1) for node in range(10)}
        # One BFS per component: {0, 1, 2}, {4, 5} and five singletons.
        assert len(built) == 7
        assert copies[0].edges() is copies[0].edges()
        built.clear()
        for other in copies[1:]:
            assert {node: decide(other, node, 1) for node in range(10)} == first
            assert other.edges() is copies[0].edges()
            assert other.reachable_from(5) == {4, 5}
        assert built == []
        assert all(v.decision is Decision.PARTITIONABLE for v in first.values())

    def test_mutating_a_returned_set_changes_no_later_answer(self, view):
        clone = view.copy()
        reach = view.reachable_from(0)
        reach.add(9)
        reach.discard(1)
        assert view.reachable_from(0) == {0, 1, 2}
        assert view.reachable_from(2) == {0, 1, 2}
        assert clone.reachable_from(1) == {0, 1, 2}

    def test_add_after_a_shared_query_detaches_only_the_adder(self, view, proof_for):
        clone = view.copy()
        assert clone.reachable_from(0) == {0, 1, 2}
        assert view.add(proof_for(2, 4))
        assert view.reachable_from(0) == {0, 1, 2, 4, 5}
        assert view.edges() == frozenset({(0, 1), (1, 2), (4, 5), (2, 4)})
        assert clone.reachable_from(0) == {0, 1, 2}
        assert clone.reachable_from(4) == {4, 5}
        assert clone.edge_count() == 3


_N = 8
_SCHEME = HmacScheme()
_KEYS = build_keystore(_SCHEME, _N, seed=11)
_PROOFS = [
    make_proof(_SCHEME, _KEYS.key_pair_of(u), _KEYS.key_pair_of(v))
    for u, v in itertools.combinations(range(_N), 2)
]
_OPS = st.lists(
    st.tuples(
        st.sampled_from(["add", "copy", "reach", "edges"]),
        st.integers(0, 7),  # which copy (mod the number alive)
        st.integers(0, len(_PROOFS) - 1),  # which edge, for add
        st.integers(0, _N - 1),  # which source, for reach
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(_OPS)
def test_interleaved_adds_copies_and_queries_match_a_plain_bfs(ops):
    """Any interleaving of add, copy and queries over several copies
    answers as a BFS over ``to_graph()``, which reads no memo."""
    graphs = [DiscoveredGraph(_N)]
    for kind, which, edge, source in ops:
        graph = graphs[which % len(graphs)]
        if kind == "add":
            proof = _PROOFS[edge]
            known = graph.knows(*proof.edge)
            assert graph.add(proof) is not known
        elif kind == "copy":
            graphs.append(graph.copy())
        elif kind == "reach":
            reach = graph.reachable_from(source)
            assert reach == graph.to_graph().bfs_reachable(source)
            reach.add(source + 1)  # the caller owns the result
            reach.clear()
        else:
            plain = graph.to_graph().edges()
            assert graph.edges() == plain
            assert graph.edge_count() == len(plain)
    for graph in graphs:
        plain = graph.to_graph()
        assert graph.edges() == plain.edges()
        assert graph.edge_count() == plain.edge_count
        for source in range(_N):
            assert graph.reachable_from(source) == plain.bfs_reachable(source)
