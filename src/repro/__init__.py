"""repro — a full reproduction of "Partition Detection in Byzantine
Networks" (Bromberg, Decouchant, Sourisseau, Taïani, ICDCS 2024).

The package implements NECTAR, the first t-Byzantine-resilient,
2t-sensitive network partition detection algorithm for arbitrary
graphs, together with every substrate it needs — chained signatures
and neighborhood proofs, a synchronous network (lock-step simulator
and an asyncio byte-level transport that loads asyncio on first use),
a graph library with exact vertex connectivity, the MtG and MtGv2
baselines, the Byzantine attack library of the paper's evaluation,
and the experiment harness that regenerates every figure.

Quickstart::

    from repro import harary_graph, run_trial, Decision

    graph = harary_graph(4, 12)          # 4-connected, 12 nodes
    result = run_trial(graph, t=1)       # honest run, t = 1
    verdict = result.verdicts[0]
    assert verdict.decision is Decision.NOT_PARTITIONABLE

See ``examples/`` for complete scenarios and ``benchmarks/`` for the
figure reproductions.
"""

from repro.adversary import (
    EdgeConcealingNectarNode,
    FictitiousEdgeNectarNode,
    ForgingNectarNode,
    JunkInjectorNode,
    SaturatingMtgNode,
    SilentNode,
    SpamNectarNode,
    TwoFacedMtgNode,
    TwoFacedMtgv2Node,
    TwoFacedNectarNode,
    balanced_placement,
    random_placement,
    vertex_cut_placement,
)
from repro.baselines import BloomFilter, MtgNode, Mtgv2Node
from repro.core import (
    DiscoveredGraph,
    NectarNode,
    ValidationMode,
    nectar_round_count,
)
from repro.crypto import (
    HmacScheme,
    KeyStore,
    NullScheme,
    RsaScheme,
    build_keystore,
    make_proof,
)
from repro.experiments import (
    bridged_partition_scenario,
    build_deployment,
    build_topology,
    compute_ground_truth,
    honest_mtg_factory,
    honest_mtgv2_factory,
    honest_nectar_factory,
    run_trial,
    success_rate,
)
from repro.graphs import (
    Graph,
    is_byzantine_partitionable,
    is_vertex_cut,
    summarize,
    vertex_connectivity,
)
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    drone_deployment,
    drone_graph,
    erdos_renyi,
    generalized_wheel,
    grid_graph,
    harary_graph,
    k_diamond,
    k_pasted_tree,
    multipartite_wheel,
    path_graph,
    random_regular_graph,
    star_graph,
    two_cliques_bridge,
)
from repro.net import AsyncCluster, SyncNetwork
from repro.types import BaselineDecision, Decision, GroundTruth, Verdict

__version__ = "1.0.0"

__all__ = [
    "EdgeConcealingNectarNode",
    "FictitiousEdgeNectarNode",
    "ForgingNectarNode",
    "JunkInjectorNode",
    "SaturatingMtgNode",
    "SilentNode",
    "SpamNectarNode",
    "TwoFacedMtgNode",
    "TwoFacedMtgv2Node",
    "TwoFacedNectarNode",
    "balanced_placement",
    "random_placement",
    "vertex_cut_placement",
    "BloomFilter",
    "MtgNode",
    "Mtgv2Node",
    "DiscoveredGraph",
    "NectarNode",
    "ValidationMode",
    "nectar_round_count",
    "HmacScheme",
    "KeyStore",
    "NullScheme",
    "RsaScheme",
    "build_keystore",
    "make_proof",
    "bridged_partition_scenario",
    "build_deployment",
    "build_topology",
    "compute_ground_truth",
    "honest_mtg_factory",
    "honest_mtgv2_factory",
    "honest_nectar_factory",
    "run_trial",
    "success_rate",
    "Graph",
    "is_byzantine_partitionable",
    "is_vertex_cut",
    "summarize",
    "vertex_connectivity",
    "complete_graph",
    "cycle_graph",
    "drone_deployment",
    "drone_graph",
    "erdos_renyi",
    "generalized_wheel",
    "grid_graph",
    "harary_graph",
    "k_diamond",
    "k_pasted_tree",
    "multipartite_wheel",
    "path_graph",
    "random_regular_graph",
    "star_graph",
    "two_cliques_bridge",
    "AsyncCluster",
    "SyncNetwork",
    "BaselineDecision",
    "Decision",
    "GroundTruth",
    "Verdict",
]
