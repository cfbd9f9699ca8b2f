"""Tests for the lossy-channel mode of the lock-step simulator."""

import pytest

from repro.baselines.mtg import MtgNode, mtg_epoch_count
from repro.errors import ChannelError, ExperimentError, ProtocolError
from repro.experiments.envspec import EnvironmentSpec
from repro.experiments.runner import NodeSetup, honest_mtg_factory, run_trial
from repro.graphs.generators.classic import cycle_graph, path_graph
from repro.net.channel import LossyChannel
from repro.net.simulator import SyncNetwork
from repro.types import BaselineDecision


class TestLossMechanics:
    def test_zero_loss_is_default_reliable(self):
        result = run_trial(cycle_graph(6), t=1, with_ground_truth=False)
        assert result.stats.conservation_gap() == 0

    def test_loss_drops_bytes_on_receive_side_only(self):
        result = run_trial(
            cycle_graph(6),
            t=0,
            honest_factory=honest_mtg_factory,
            rounds=5,
            with_ground_truth=False,
            env=EnvironmentSpec(loss_rate=0.5),
        )
        # Sends are counted in full; receives miss the dropped ones.
        assert result.stats.conservation_gap() > 0

    def test_loss_is_deterministic_in_seed(self):
        def run(seed):
            return run_trial(
                cycle_graph(8),
                t=0,
                honest_factory=honest_mtg_factory,
                rounds=6,
                seed=seed,
                with_ground_truth=False,
                env=EnvironmentSpec(loss_rate=0.4),
            )

        assert run(3).stats.bytes_received == run(3).stats.bytes_received
        assert (
            run(3).stats.bytes_received != run(4).stats.bytes_received
        )

    def test_invalid_rate_rejected(self):
        with pytest.raises(ChannelError):
            SyncNetwork(
                cycle_graph(4),
                {
                    v: MtgNode(v, 4, cycle_graph(4).neighbors(v))
                    for v in range(4)
                },
                channel=LossyChannel(1.0),
            )

    def test_async_backend_refuses_loss(self):
        with pytest.raises(ExperimentError):
            run_trial(
                cycle_graph(4),
                t=0,
                env=EnvironmentSpec(backend="async", loss_rate=0.1),
            )


class TestMtgUnderLoss:
    def test_periodic_resend_converges_despite_loss(self):
        graph = path_graph(8)  # worst case: one fragile chain

        def factory(setup: NodeSetup) -> MtgNode:
            return MtgNode(setup.node_id, setup.n, setup.neighbors, resend_period=1)

        result = run_trial(
            graph,
            t=0,
            honest_factory=factory,
            rounds=4 * mtg_epoch_count(graph.n),
            seed=1,
            with_ground_truth=False,
            env=EnvironmentSpec(loss_rate=0.4),
        )
        assert set(result.verdicts.values()) == {BaselineDecision.CONNECTED}

    def test_resend_costs_more(self):
        graph = cycle_graph(8)

        def periodic(setup: NodeSetup) -> MtgNode:
            return MtgNode(setup.node_id, setup.n, setup.neighbors, resend_period=1)

        lazy = run_trial(
            graph,
            t=0,
            honest_factory=honest_mtg_factory,
            rounds=12,
            with_ground_truth=False,
        )
        eager = run_trial(
            graph,
            t=0,
            honest_factory=periodic,
            rounds=12,
            with_ground_truth=False,
        )
        assert eager.stats.total_bytes_sent() > lazy.stats.total_bytes_sent()

    def test_negative_resend_period_rejected(self):
        with pytest.raises(ProtocolError):
            MtgNode(0, 4, {1}, resend_period=-1)
