"""Tests for the asyncio backend: framing and sync-equivalence."""

import pytest

from repro.core.validation import ValidationMode
from repro.crypto.sizes import DEFAULT_PROFILE
from repro.errors import CodecError, ProtocolError
from repro.experiments.envspec import EnvironmentSpec
from repro.experiments.runner import (
    NodeSetup,
    build_deployment,
    honest_nectar_factory,
    run_trial,
)
from repro.graphs.generators.classic import cycle_graph, grid_graph
from repro.graphs.generators.regular import harary_graph
from repro.net.asyncio_net import AsyncCluster, frame, unframe


class TestFraming:
    def test_roundtrip(self):
        assert unframe(frame(b"hello")) == b"hello"

    def test_empty_chunk(self):
        assert unframe(frame(b"")) == b""

    def test_truncated_prefix(self):
        with pytest.raises(CodecError):
            unframe(b"\x00")

    def test_length_mismatch(self):
        with pytest.raises(CodecError):
            unframe(frame(b"abc") + b"x")


class TestBackendEquivalence:
    """The asyncio backend must agree with the lock-step simulator on
    verdicts and on every byte counter (the codec pins the sizes)."""

    @pytest.mark.parametrize(
        "graph", [cycle_graph(6), grid_graph(3, 3), harary_graph(4, 10)]
    )
    def test_nectar_verdicts_and_bytes(self, graph):
        sync_result = run_trial(graph, t=1, with_ground_truth=False)
        async_result = run_trial(
            graph, t=1, with_ground_truth=False, env=EnvironmentSpec(backend="async")
        )
        assert async_result.verdicts == sync_result.verdicts
        assert (
            async_result.stats.bytes_sent == sync_result.stats.bytes_sent
        )
        assert (
            async_result.stats.messages_sent == sync_result.stats.messages_sent
        )

    def test_jitter_does_not_change_outcome(self):
        graph = cycle_graph(5)

        def protocols():
            deployment = build_deployment(graph, seed=3)
            return {
                v: honest_nectar_factory(
                    NodeSetup(
                        node_id=v,
                        n=graph.n,
                        t=1,
                        graph=graph,
                        key_store=deployment.key_store,
                        scheme=deployment.scheme,
                        profile=DEFAULT_PROFILE,
                        neighbor_proofs=deployment.proofs_of(v),
                        validation_mode=ValidationMode.FULL,
                        connectivity_cutoff=None,
                    )
                )
                for v in graph.nodes()
            }

        calm = AsyncCluster(graph, protocols())
        calm_verdicts = calm.run(graph.n - 1)
        jittery = AsyncCluster(graph, protocols(), jitter_ms=2.0, seed=5)
        jitter_verdicts = jittery.run(graph.n - 1)
        assert calm_verdicts == jitter_verdicts

    def test_zero_rounds_rejected(self):
        graph = cycle_graph(4)
        with pytest.raises(ProtocolError):
            run_trial(graph, t=0, rounds=0, env=EnvironmentSpec(backend="async"))


def _nectar_protocols(graph, t=1, seed=0):
    """Honest NECTAR instances for every node, as run_trial builds them."""
    from repro.core.validation import ValidationMode as _VM

    deployment = build_deployment(graph, seed=seed)
    protocols = {}
    for node_id in graph.nodes():
        setup = NodeSetup(
            node_id=node_id,
            n=graph.n,
            t=t,
            graph=graph,
            key_store=deployment.key_store,
            scheme=deployment.scheme,
            profile=DEFAULT_PROFILE,
            neighbor_proofs=deployment.proofs_of(node_id),
            validation_mode=_VM.FULL,
            connectivity_cutoff=None,
        )
        protocols[node_id] = honest_nectar_factory(setup)
    return protocols


class TestRunInsideEventLoop:
    def test_blocking_run_raises_in_a_running_loop(self):
        import asyncio

        graph = cycle_graph(6)
        cluster = AsyncCluster(graph, _nectar_protocols(graph))

        async def main():
            with pytest.raises(ProtocolError):
                cluster.run(1)

        asyncio.run(main())
