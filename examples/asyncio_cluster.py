#!/usr/bin/env python3
"""Run NECTAR as a real asyncio cluster with bytes on the wire.

One asyncio task per node, length-framed binary messages through the
codec, per-message network jitter — the closest thing to the paper's
salticidae deployment that fits in a single process.  The run is then
repeated on the deterministic lock-step simulator to show both
backends agree byte-for-byte.

Run:  python examples/asyncio_cluster.py
"""

from repro import harary_graph, run_trial
from repro.core.nectar import nectar_round_count
from repro.crypto.sizes import DEFAULT_PROFILE
from repro.core.validation import ValidationMode
from repro.experiments.runner import NodeSetup, build_deployment, honest_nectar_factory
from repro.net.asyncio_net import AsyncCluster

N, K, T = 14, 4, 1


def build_protocols(graph):
    deployment = build_deployment(graph, seed=1)
    protocols = {}
    for v in graph.nodes():
        protocols[v] = honest_nectar_factory(
            NodeSetup(
                node_id=v,
                n=graph.n,
                t=T,
                graph=graph,
                key_store=deployment.key_store,
                scheme=deployment.scheme,
                profile=DEFAULT_PROFILE,
                neighbor_proofs=deployment.proofs_of(v),
                validation_mode=ValidationMode.FULL,
                connectivity_cutoff=None,
            )
        )
    return protocols


def main() -> None:
    graph = harary_graph(K, N)
    print(f"asyncio cluster: {N} node tasks, κ={K}, t={T}, jitter up to 5 ms\n")

    cluster = AsyncCluster(graph, build_protocols(graph), jitter_ms=5.0, seed=42)
    verdicts = cluster.run(nectar_round_count(N))
    total_kb = cluster.stats.total_bytes_sent() / 1000
    messages = sum(cluster.stats.messages_sent.values())
    print(f"async backend : {messages} messages, {total_kb:.1f} KB total")
    decision = verdicts[0].decision
    print(f"decision      : {decision} (agreement over all {N} tasks: "
          f"{len({v.decision for v in verdicts.values()}) == 1})\n")

    sync_result = run_trial(graph, t=T, with_ground_truth=False)
    sync_kb = sync_result.stats.total_bytes_sent() / 1000
    print(f"sync backend  : {sync_kb:.1f} KB total")
    print(
        "backends agree byte-for-byte:",
        cluster.stats.bytes_sent == sync_result.stats.bytes_sent,
    )


if __name__ == "__main__":
    main()


def test_asyncio_cluster_example():
    graph = harary_graph(K, N)
    cluster = AsyncCluster(graph, build_protocols(graph), jitter_ms=1.0, seed=42)
    verdicts = cluster.run(nectar_round_count(N))
    assert len({v.decision for v in verdicts.values()}) == 1
