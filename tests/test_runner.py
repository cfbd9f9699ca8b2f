"""Tests for the trial runner and deployments."""

import pickle

import pytest

from repro.adversary.behaviors import (
    JunkInjectorNode,
    SaturatingMtgNode,
    SilentNode,
    TwoFacedMtgv2Node,
    TwoFacedNectarNode,
)
from repro.baselines.mtg import MtgNode
from repro.baselines.mtgv2 import Mtgv2Node
from repro.core.nectar import NectarNode
from repro.core.validation import ValidationMode
from repro.crypto.cache import VerificationCache
from repro.crypto.proofs import verify_proof
from repro.crypto.signer import HmacScheme, NullScheme
from repro.crypto.sizes import DEFAULT_PROFILE
from repro.errors import ExperimentError, ReproError
from repro.experiments.envspec import EnvironmentSpec
from repro.experiments.runner import (
    NodeSetup,
    baseline_cost_trial,
    build_deployment,
    compute_ground_truth,
    honest_mtg_factory,
    nectar_cost_trial,
    protocol_factory,
    run_trial,
)
from repro.graphs.generators.classic import cycle_graph, star_graph
from repro.graphs.generators.regular import harary_graph
from repro.graphs.graph import Graph
from repro.types import Decision


class _CountingHmac(HmacScheme):
    """HMAC that counts its signatures; module-level, so it pickles."""

    def __init__(self):
        super().__init__()
        self.signs = 0

    def sign(self, key_pair, data):
        self.signs += 1
        return super().sign(key_pair, data)


class TestBuildDeployment:
    def test_proofs_cover_every_edge(self):
        graph = cycle_graph(6)
        deployment = build_deployment(graph)
        assert set(deployment.proofs) == graph.edges()
        for proof in deployment.proofs.values():
            assert verify_proof(
                deployment.scheme, deployment.key_store.directory, proof
            )

    def test_proofs_of_node(self):
        graph = cycle_graph(6)
        deployment = build_deployment(graph)
        proofs = deployment.proofs_of(0)
        assert set(proofs) == {1, 5}
        assert proofs[1].endpoints() == frozenset({0, 1})

    def test_pickling_signs_no_proof(self):
        """A pickle round trip (a pool worker's artifact delta) ships a
        signed proof as it is and re-makes an unsigned one on load, so
        it signs nothing; read, every proof equals the original."""
        scheme = _CountingHmac()
        deployment = build_deployment(harary_graph(4, 12), scheme=scheme)
        assert deployment.proofs[(0, 1)].signature_lo and scheme.signs == 2
        loaded = pickle.loads(pickle.dumps(deployment))
        assert scheme.signs == 2 and loaded.scheme.signs == 2
        assert loaded.key_store.scheme is loaded.scheme
        assert list(loaded.proofs) == list(deployment.proofs)
        assert [proof.is_signed() for proof in loaded.proofs.values()] == [
            edge == (0, 1) for edge in deployment.proofs
        ]
        assert loaded.proofs == deployment.proofs
        for proof in loaded.proofs.values():
            assert verify_proof(loaded.scheme, loaded.key_store.directory, proof)

    def test_deterministic_in_seed(self):
        graph = cycle_graph(4)
        a = build_deployment(graph, seed=3)
        b = build_deployment(graph, seed=3)
        assert (
            a.key_store.directory.public_key_of(0)
            == b.key_store.directory.public_key_of(0)
        )


class TestProtocolFactory:
    """One factory for every population: each class family takes its
    slice of the setup."""

    @staticmethod
    def _setup():
        graph = cycle_graph(6)
        deployment = build_deployment(graph)
        # Non-default validation mode and cutoff, so that a node
        # holding them took them from the setup.
        return NodeSetup(
            node_id=2,
            n=6,
            t=1,
            graph=graph,
            key_store=deployment.key_store,
            scheme=deployment.scheme,
            profile=DEFAULT_PROFILE,
            neighbor_proofs=deployment.proofs_of(2),
            validation_mode=ValidationMode.ACCOUNTING,
            connectivity_cutoff=2,
            verification_cache=VerificationCache(),
        )

    @pytest.mark.parametrize(
        "cls",
        [
            NectarNode,
            TwoFacedNectarNode,
            Mtgv2Node,
            TwoFacedMtgv2Node,
            MtgNode,
            SaturatingMtgNode,
            SilentNode,
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_builds_each_class_from_the_setup(self, cls):
        setup = self._setup()
        extra = {}
        if cls in (TwoFacedNectarNode, TwoFacedMtgv2Node):
            extra["silent_towards"] = frozenset({3})
        node = protocol_factory(cls, **extra)(setup)
        assert type(node) is cls
        assert node.node_id == 2
        if cls is not SilentNode:
            assert node._neighbors == frozenset({1, 3})
        if issubclass(cls, NectarNode):
            assert node._validator.mode is ValidationMode.ACCOUNTING
            assert node._connectivity_cutoff == 2
            assert node._validator.cache is setup.verification_cache
        if extra:
            assert node._silent_towards == frozenset({3})

    def test_unsupported_class_raises(self):
        with pytest.raises(ExperimentError, match="JunkInjectorNode"):
            protocol_factory(JunkInjectorNode)


class TestComputeGroundTruth:
    def test_connected_cycle(self):
        truth = compute_ground_truth(cycle_graph(6), t=1, byzantine=frozenset())
        assert truth.connectivity == 2
        assert not truth.graph_partitioned
        assert not truth.byzantine_partitionable  # κ = 2 > t = 1

    def test_star_with_center_byzantine(self):
        truth = compute_ground_truth(star_graph(5), t=1, byzantine=frozenset({0}))
        assert truth.byzantine_partitionable
        assert truth.correct_subgraph_partitioned

    def test_cutoff_truncates_connectivity(self):
        graph = cycle_graph(6).with_edges([(0, 3), (1, 4), (2, 5)])
        truth = compute_ground_truth(
            graph, t=0, byzantine=frozenset(), connectivity_cutoff=1
        )
        assert truth.connectivity == 1
        assert not truth.byzantine_partitionable

    def test_cutoff_below_t_rejected(self):
        with pytest.raises(ExperimentError):
            compute_ground_truth(
                cycle_graph(4), t=2, byzantine=frozenset(), connectivity_cutoff=2
            )


class TestRunTrial:
    def test_default_honest_nectar(self):
        result = run_trial(cycle_graph(5), t=1)
        assert result.ground_truth is not None
        assert result.rounds == 4
        assert len(result.verdicts) == 5

    def test_correct_verdicts_excludes_byzantine(self):
        from repro.adversary.behaviors import SilentNode

        result = run_trial(
            cycle_graph(5),
            t=1,
            byzantine_factories={2: lambda setup: SilentNode(2)},
        )
        assert 2 not in result.correct_verdicts
        assert len(result.correct_verdicts) == 4

    def test_too_many_byzantine_rejected(self):
        from repro.adversary.behaviors import SilentNode

        with pytest.raises(ExperimentError):
            run_trial(
                cycle_graph(5),
                t=1,
                byzantine_factories={
                    2: lambda setup: SilentNode(2),
                    3: lambda setup: SilentNode(3),
                },
            )

    def test_byzantine_rejected_when_t_is_zero(self):
        """t = 0 declares no Byzantine node, so one is already too many."""
        from repro.adversary.behaviors import SilentNode

        with pytest.raises(ExperimentError, match=r"exceed the declared bound t=0"):
            run_trial(
                cycle_graph(5),
                t=0,
                byzantine_factories={2: lambda setup: SilentNode(2)},
            )

    def test_negative_t_keeps_the_protocol_error(self):
        with pytest.raises(ReproError, match="t must be non-negative"):
            run_trial(cycle_graph(5), t=-1)

    def test_accounting_mode_rejected_with_byzantine(self):
        from repro.adversary.behaviors import SilentNode

        with pytest.raises(ExperimentError):
            run_trial(
                cycle_graph(5),
                t=1,
                byzantine_factories={2: lambda setup: SilentNode(2)},
                validation_mode=ValidationMode.ACCOUNTING,
            )

    def test_null_scheme_rejected_with_byzantine(self):
        from repro.adversary.behaviors import SilentNode

        with pytest.raises(ExperimentError):
            run_trial(
                cycle_graph(5),
                t=1,
                byzantine_factories={2: lambda setup: SilentNode(2)},
                scheme=NullScheme(),
            )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError):
            run_trial(cycle_graph(4), env=EnvironmentSpec(backend="quantum"))

    def test_mean_kb(self):
        result = run_trial(cycle_graph(5), t=1)
        assert result.mean_kb_sent() > 0
        assert result.mean_kb_sent() == pytest.approx(
            result.stats.total_bytes_sent() / 5 / 1000.0
        )


class TestCostTrials:
    def test_nectar_cost_matches_full_run_bytes(self):
        """ACCOUNTING + NullScheme changes no byte count."""
        graph = cycle_graph(6)
        fast = nectar_cost_trial(graph)
        slow = run_trial(graph, t=0, connectivity_cutoff=1, with_ground_truth=False)
        assert fast.stats.bytes_sent == slow.stats.bytes_sent

    def test_nectar_cost_decisions_still_meaningful(self):
        graph = Graph(4, [(0, 1), (2, 3)])
        result = nectar_cost_trial(graph)
        assert all(
            v.decision is Decision.PARTITIONABLE for v in result.verdicts.values()
        )

    def test_baseline_cost_trial_mtg(self):
        result = baseline_cost_trial(cycle_graph(6), "mtg")
        assert result.mean_kb_sent() > 0

    def test_baseline_cost_trial_mtgv2(self):
        result = baseline_cost_trial(cycle_graph(6), "mtgv2")
        assert result.mean_kb_sent() > 0

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ExperimentError):
            baseline_cost_trial(cycle_graph(6), "mtgv3")

    def test_mtg_much_cheaper_than_nectar(self):
        """The headline cost gap of Figs. 4-7."""
        graph = cycle_graph(10)
        nectar = nectar_cost_trial(graph).mean_kb_sent()
        mtg = baseline_cost_trial(graph, "mtg").mean_kb_sent()
        assert nectar > 5 * mtg
