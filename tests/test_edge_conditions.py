"""Edge conditions across the stack: round budgets, tiny systems,
adversaries over the asyncio backend, environment switches."""

import pytest

from repro.adversary.behaviors import TwoFacedNectarNode
from repro.experiments.envspec import EnvironmentSpec
from repro.experiments.runner import (
    NodeSetup,
    honest_nectar_factory,
    run_trial,
)
from repro.experiments.spec import paper_scale
from repro.graphs.generators.classic import path_graph, two_cliques_bridge
from repro.graphs.graph import Graph
from repro.types import Decision


class TestRoundBudget:
    def test_insufficient_rounds_degrade_to_confirmed_partition(self):
        """With fewer rounds than the diameter, far nodes stay unseen —
        the conservative outcome, never a false NOT_PARTITIONABLE."""
        graph = path_graph(8)  # diameter 7
        starved = run_trial(graph, t=0, rounds=2, with_ground_truth=False)
        endpoint = starved.verdicts[0]
        assert endpoint.decision is Decision.PARTITIONABLE
        assert endpoint.confirmed
        assert endpoint.reachable < graph.n

    def test_sufficient_rounds_recover(self):
        graph = path_graph(8)
        full = run_trial(graph, t=0, rounds=7, with_ground_truth=False)
        assert all(v.reachable == 8 for v in full.verdicts.values())


class TestTinySystems:
    def test_two_nodes(self):
        graph = Graph(2, [(0, 1)])
        result = run_trial(graph, t=0, with_ground_truth=False)
        assert all(
            v.decision is Decision.NOT_PARTITIONABLE
            for v in result.verdicts.values()
        )

    def test_two_isolated_nodes(self):
        graph = Graph(2, [])
        result = run_trial(graph, t=0, with_ground_truth=False)
        assert all(
            v.decision is Decision.PARTITIONABLE and v.confirmed
            for v in result.verdicts.values()
        )

    def test_single_node(self):
        graph = Graph(1, [])
        result = run_trial(graph, t=0, with_ground_truth=False)
        verdict = result.verdicts[0]
        # Alone in the world: reachable = n = 1, κ = 0 = t is not > t.
        assert verdict.reachable == 1


class TestAsyncAdversarial:
    def test_two_faced_attack_over_asyncio(self):
        """Attacks run identically on the byte-level backend."""
        graph = two_cliques_bridge(3, bridges=1)  # node 0 is the cut
        muted = frozenset({3, 4, 5})

        def byz(setup: NodeSetup):
            return TwoFacedNectarNode(
                setup.node_id,
                setup.n,
                setup.t,
                setup.key_store.key_pair_of(setup.node_id),
                setup.scheme,
                setup.key_store.directory,
                setup.neighbor_proofs,
                silent_towards=muted,
            )

        results = {}
        for backend in ("sync", "async"):
            results[backend] = run_trial(
                graph,
                t=1,
                byzantine_factories={0: byz},
                honest_factory=honest_nectar_factory,
                with_ground_truth=False,
                env=EnvironmentSpec(backend=backend),
            )
        assert (
            results["sync"].correct_verdicts == results["async"].correct_verdicts
        )
        assert all(
            v.decision is Decision.PARTITIONABLE
            for v in results["sync"].correct_verdicts.values()
        )


class TestEnvironmentSwitch:
    def test_paper_scale_env_variable(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert not paper_scale()
        monkeypatch.setenv("REPRO_FULL", "1")
        assert paper_scale()
        monkeypatch.setenv("REPRO_FULL", "0")
        assert not paper_scale()
