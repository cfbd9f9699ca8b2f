"""Tests for channel models and the environment's name tables."""

import dataclasses

import pytest

from repro.baselines.mtg import MtgNode
from repro.errors import ChannelError, ExperimentError, ProtocolError
from repro.experiments.envspec import BACKENDS, _CHANNEL_PARAMS, EnvironmentSpec
from repro.experiments.runner import honest_mtg_factory, run_trial
from repro.graphs.generators.classic import cycle_graph, grid_graph
from repro.net.asyncio_net import AsyncCluster
from repro.net.channel import (
    CHANNEL_MODELS,
    RELIABLE_CHANNEL,
    BudgetedChannel,
    JitteredChannel,
    LossyChannel,
    MobilityChannel,
    ReliableChannel,
)
from repro.net.simulator import SyncNetwork


def _mtg_protocols(graph):
    return {v: MtgNode(v, graph.n, graph.neighbors(v)) for v in graph.nodes()}


#: one environment per channel, every parameter of it off its default.
_NON_DEFAULT_ENVS = {
    "reliable": EnvironmentSpec(channel="reliable"),
    "lossy": EnvironmentSpec(channel="lossy", loss_rate=0.3),
    "jittered": EnvironmentSpec(channel="jittered", jitter_ms=2.0),
    "mobility": EnvironmentSpec(channel="mobility", reach=1.5, arena=4.0, speed=0.25),
    "budgeted": EnvironmentSpec(channel="budgeted", bandwidth=3, latency_ms=1.5),
}


class TestRegistry:
    """The environment's closed sets are plain tables: channel name ->
    model class, and the two backend names."""

    def test_built_in_profiles_registered(self):
        assert CHANNEL_MODELS == {
            "reliable": ReliableChannel,
            "lossy": LossyChannel,
            "jittered": JitteredChannel,
            "mobility": MobilityChannel,
            "budgeted": BudgetedChannel,
        }

    def test_both_backends_registered(self):
        assert BACKENDS == ("sync", "async")

    def test_channel_model_constructor(self):
        """``EnvironmentSpec.channel_model`` builds the table's class
        with exactly the env's values for that class's fields."""
        assert set(_NON_DEFAULT_ENVS) == set(CHANNEL_MODELS)
        for name, env in _NON_DEFAULT_ENVS.items():
            env.validate()
            model_class = CHANNEL_MODELS[name]
            fields = {field.name for field in dataclasses.fields(model_class)}
            model = env.channel_model()
            assert type(model) is model_class
            assert model == model_class(**{f: getattr(env, f) for f in fields})
        assert EnvironmentSpec().channel_model() == RELIABLE_CHANNEL
        assert EnvironmentSpec(loss_rate=0.3).channel_model() == LossyChannel(0.3)

    def test_channel_params_are_the_model_fields(self):
        """Which channel takes which env field is read off the model
        classes; a field added to one must show up here on purpose."""
        assert _CHANNEL_PARAMS == {
            "loss_rate": "lossy",
            "jitter_ms": "jittered",
            "reach": "mobility",
            "arena": "mobility",
            "speed": "mobility",
            "bandwidth": "budgeted",
            "latency_ms": "budgeted",
        }

    def test_unknown_channel_rejected(self):
        env = EnvironmentSpec(channel="quantum-foam")
        message = (
            "unknown channel model 'quantum-foam'; known: "
            "['budgeted', 'jittered', 'lossy', 'mobility', 'reliable']"
        )
        for check in (env.validate, env.channel_model):
            with pytest.raises(ExperimentError) as excinfo:
                check()
            assert str(excinfo.value) == message

    def test_bad_channel_parameters_rejected(self):
        with pytest.raises(ExperimentError, match="loss_rate 1.0 outside"):
            EnvironmentSpec(loss_rate=1.0).validate()
        with pytest.raises(ExperimentError, match="env.reach only applies"):
            EnvironmentSpec(channel="lossy", reach=1.0).validate()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ExperimentError) as excinfo:
            EnvironmentSpec(backend="quantum").validate()
        assert str(excinfo.value) == (
            "unknown backend 'quantum'; known: ['async', 'sync']"
        )


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

    def test_async_safety_is_not_a_parameter(self):
        """An i.i.d.-loss model's drop set depends on delivery order,
        so no constructor argument can make it asyncio-safe."""
        with pytest.raises(TypeError):
            LossyChannel(0.3, True)
        with pytest.raises(TypeError):
            LossyChannel(0.3, async_safe=True)
        assert "async_safe" not in repr(LossyChannel(0.3))
        graph = cycle_graph(4)
        with pytest.raises(ProtocolError, match="not usable"):
            AsyncCluster(graph, _mtg_protocols(graph), channel=LossyChannel(0.3))

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
        assert CHANNEL_MODELS["budgeted"] is BudgetedChannel

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
