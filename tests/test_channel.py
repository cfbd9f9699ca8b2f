"""Tests for channel models and the execution-backend registry."""

import pytest

from repro.baselines.mtg import MtgNode
from repro.errors import ChannelError, ExperimentError, ProtocolError
from repro.experiments.runner import honest_mtg_factory, run_trial
from repro.graphs.generators.classic import cycle_graph, grid_graph
from repro.net.asyncio_net import AsyncCluster
from repro.net.channel import (
    BACKENDS,
    CHANNEL_MODELS,
    RELIABLE_CHANNEL,
    BudgetedChannel,
    JitteredChannel,
    LossyChannel,
    MobilityChannel,
    ReliableChannel,
    channel_model,
    register_backend,
    register_channel_model,
    resolve_backend,
)
from repro.net.simulator import SyncNetwork


def _mtg_protocols(graph):
    return {v: MtgNode(v, graph.n, graph.neighbors(v)) for v in graph.nodes()}


class TestRegistry:
    def test_built_in_profiles_registered(self):
        assert {"reliable", "lossy", "jittered", "mobility"} <= set(CHANNEL_MODELS)

    def test_both_backends_registered(self):
        assert {"sync", "async"} <= set(BACKENDS)

    def test_channel_model_constructor(self):
        assert channel_model("reliable") is RELIABLE_CHANNEL
        assert channel_model("lossy", loss_rate=0.3) == LossyChannel(0.3)

    def test_unknown_channel_rejected(self):
        with pytest.raises(ChannelError, match="unknown channel model"):
            channel_model("quantum-foam")

    def test_bad_channel_parameters_rejected(self):
        with pytest.raises(ChannelError, match="lossy"):
            channel_model("lossy", bogus=1)

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError, match="unknown backend"):
            resolve_backend("quantum")

    def test_conflicting_reregistration_rejected(self):
        with pytest.raises(ExperimentError, match="already registered"):
            register_backend("sync", lambda *a, **k: None)
        with pytest.raises(ChannelError, match="already registered"):
            register_channel_model("lossy", ReliableChannel)

    def test_idempotent_reregistration_allowed(self):
        register_backend("sync", BACKENDS["sync"])
        register_channel_model("lossy", LossyChannel)


class TestModelValidation:
    def test_loss_rate_bounds(self):
        with pytest.raises(ChannelError):
            LossyChannel(1.0)
        with pytest.raises(ChannelError):
            LossyChannel(-0.1)

    def test_negative_jitter_rejected(self):
        with pytest.raises(ChannelError):
            JitteredChannel(-1.0)

    def test_mobility_parameters_positive(self):
        with pytest.raises(ChannelError):
            MobilityChannel(speed=0.0)
        with pytest.raises(ChannelError):
            MobilityChannel(reach=-1.0)

    def test_models_are_picklable_and_comparable(self):
        import pickle

        for model in (
            RELIABLE_CHANNEL,
            LossyChannel(0.2),
            JitteredChannel(3.0),
            MobilityChannel(speed=0.4),
        ):
            assert pickle.loads(pickle.dumps(model)) == model


class TestSyncChannelEquivalence:
    def test_zero_loss_channel_is_reliable(self):
        graph = cycle_graph(6)
        network = SyncNetwork(graph, _mtg_protocols(graph), channel=LossyChannel(0.0))
        network.run(4)
        assert network.stats.conservation_gap() == 0

    def test_channel_and_loss_rate_both_rejected(self):
        """Loss is a channel model; the scheduler takes no loss_rate."""
        graph = cycle_graph(4)
        with pytest.raises(TypeError):
            SyncNetwork(
                graph,
                _mtg_protocols(graph),
                channel=LossyChannel(0.2),
                loss_rate=0.2,
            )

    def test_mobility_drops_out_of_reach_messages(self):
        """A tiny reach drops essentially everything; a huge one nothing."""
        graph = cycle_graph(8)
        opaque = SyncNetwork(
            graph,
            _mtg_protocols(graph),
            channel=MobilityChannel(reach=1e-6, arena=50.0, speed=0.5),
        )
        opaque.run(4)
        assert opaque.stats.bytes_received == {}
        transparent = SyncNetwork(
            graph,
            _mtg_protocols(graph),
            channel=MobilityChannel(reach=100.0, arena=5.0, speed=0.5),
        )
        transparent.run(4)
        assert transparent.stats.conservation_gap() == 0

    def test_mobility_is_deterministic_in_seed(self):
        def run(seed):
            graph = cycle_graph(8)
            network = SyncNetwork(
                graph,
                _mtg_protocols(graph),
                channel=MobilityChannel(reach=2.0, arena=4.0, speed=0.8),
                loss_seed=seed,
            )
            network.run(6)
            return network.stats.bytes_received

        assert run(3) == run(3)
        assert run(3) != run(4)


class TestAsyncChannels:
    def test_lossy_rejected_on_async_backend(self):
        graph = cycle_graph(4)
        with pytest.raises(ProtocolError, match="not usable"):
            AsyncCluster(graph, _mtg_protocols(graph), channel=LossyChannel(0.2))

    def test_mobility_matches_sync_backend(self):
        """Deterministic channels produce identical drops on both backends."""
        channel = MobilityChannel(reach=2.0, arena=4.0, speed=0.8)
        for graph in (cycle_graph(6), grid_graph(3, 3)):
            sync = run_trial(
                graph,
                t=0,
                honest_factory=honest_mtg_factory,
                rounds=5,
                with_ground_truth=False,
                env=_mobility_env(channel),
            )
            asynchronous = run_trial(
                graph,
                t=0,
                honest_factory=honest_mtg_factory,
                rounds=5,
                with_ground_truth=False,
                env=_mobility_env(channel, backend="async"),
            )
            assert asynchronous.verdicts == sync.verdicts
            assert asynchronous.stats.bytes_sent == sync.stats.bytes_sent
            assert asynchronous.stats.bytes_received == sync.stats.bytes_received

    def test_jittered_channel_sets_async_jitter(self):
        graph = cycle_graph(5)
        cluster = AsyncCluster(
            graph, _mtg_protocols(graph), channel=JitteredChannel(2.0)
        )
        assert cluster._jitter_ms == 2.0


def _mobility_env(channel: MobilityChannel, backend: str = "sync"):
    from repro.experiments.envspec import EnvironmentSpec

    return EnvironmentSpec(
        backend=backend,
        channel="mobility",
        reach=channel.reach,
        arena=channel.arena,
        speed=channel.speed,
    )


class TestBudgetedChannel:
    """The per-round bandwidth/latency budget model (DESIGN.md §10)."""

    def test_registered(self):
        assert "budgeted" in CHANNEL_MODELS
        assert channel_model("budgeted", bandwidth=2) == BudgetedChannel(bandwidth=2)

    def test_negative_parameters_rejected(self):
        with pytest.raises(ChannelError):
            BudgetedChannel(bandwidth=-1)
        with pytest.raises(ChannelError):
            BudgetedChannel(latency_ms=-0.5)

    def test_picklable_and_comparable(self):
        import pickle

        model = BudgetedChannel(bandwidth=3, latency_ms=2.0)
        assert pickle.loads(pickle.dumps(model)) == model

    def test_zero_bandwidth_is_unlimited(self):
        graph = cycle_graph(6)
        budgeted = SyncNetwork(
            graph, _mtg_protocols(graph), channel=BudgetedChannel(bandwidth=0)
        )
        budgeted.run(4)
        reliable = SyncNetwork(graph, _mtg_protocols(graph))
        reliable.run(4)
        assert budgeted.stats.bytes_received == reliable.stats.bytes_received
        assert budgeted.stats.conservation_gap() == 0

    def test_budget_caps_per_sender_deliveries(self):
        """On a cycle (degree 2), bandwidth=1 halves what gets through."""
        graph = cycle_graph(8)
        capped = SyncNetwork(
            graph, _mtg_protocols(graph), channel=BudgetedChannel(bandwidth=1)
        )
        capped.run(4)
        uncapped = SyncNetwork(graph, _mtg_protocols(graph))
        uncapped.run(4)
        received = sum(capped.stats.bytes_received.values())
        baseline = sum(uncapped.stats.bytes_received.values())
        assert 0 < received < baseline

    def test_budget_at_degree_drops_nothing(self):
        graph = cycle_graph(8)
        network = SyncNetwork(
            graph, _mtg_protocols(graph), channel=BudgetedChannel(bandwidth=2)
        )
        network.run(4)
        assert network.stats.conservation_gap() == 0

    def test_deterministic_under_any_loss_seed(self):
        """No RNG: identical runs for equal and for different seeds."""

        def run(seed):
            graph = cycle_graph(8)
            network = SyncNetwork(
                graph,
                _mtg_protocols(graph),
                channel=BudgetedChannel(bandwidth=1),
                loss_seed=seed,
            )
            verdicts = network.run(6)
            return verdicts, network.stats.bytes_received

        assert run(3) == run(3)
        assert run(3) == run(4)  # seed-independent by construction

    def test_finite_budget_rejected_on_async_backend(self):
        graph = cycle_graph(4)
        with pytest.raises(ProtocolError, match="not usable"):
            AsyncCluster(
                graph, _mtg_protocols(graph), channel=BudgetedChannel(bandwidth=1)
            )

    def test_latency_only_budget_runs_on_async(self):
        graph = cycle_graph(5)
        cluster = AsyncCluster(
            graph, _mtg_protocols(graph), channel=BudgetedChannel(latency_ms=2.5)
        )
        assert cluster._jitter_ms == 2.5

    def test_env_axes_resolve_budgeted(self):
        from repro.experiments.envspec import EnvironmentSpec

        env = EnvironmentSpec(bandwidth=2)
        assert env.resolved_channel() == "budgeted"
        env.validate()
        assert env.channel_model() == BudgetedChannel(bandwidth=2)

    def test_env_bandwidth_rejected_on_other_channels(self):
        from repro.errors import ExperimentError
        from repro.experiments.envspec import EnvironmentSpec

        env = EnvironmentSpec(channel="lossy", loss_rate=0.2, bandwidth=2)
        with pytest.raises(ExperimentError, match="env.bandwidth only applies"):
            env.validate()

    def test_env_trial_determinism(self):
        from repro.experiments.envspec import EnvironmentSpec

        env = EnvironmentSpec(channel="budgeted", bandwidth=1)
        graph = grid_graph(3, 3)

        def run(seed):
            result = run_trial(graph, t=1, seed=seed, env=env)
            return result.verdicts, result.stats.bytes_received

        assert run(2) == run(2)
