"""Pinned reproductions of known bugs, kept as regression guards.

Each test here started life as an ``xfail(strict=True)`` witness of a
still-open bug; once the bug is fixed the marker comes off and the
test stays forever, pinning both the property that was violated and
the exact observable output of the fixed code.  This replaces hoping
that hypothesis happens to redraw the falsifying example.
"""

from __future__ import annotations

import pytest

from repro.adversary.behaviors import SilentNode
from repro.core.decision import clear_connectivity_cache
from repro.core.messages import EdgeAnnouncement, NectarBatch
from repro.core.nectar import NectarNode
from repro.crypto.cache import VerificationCache
from repro.crypto.chain import extend_chain
from repro.crypto.proofs import NeighborhoodProof, proof_bytes
from repro.experiments.accuracy import validity_holds
from repro.experiments.runner import (
    build_deployment,
    compute_ground_truth,
    honest_nectar_factory,
    run_trial,
)
from repro.graphs.connectivity import is_vertex_cut
from repro.graphs.graph import Graph
from repro.types import Decision


def _path_graph_counterexample_trial():
    """The falsifying example hypothesis found during the PR-3 review:
    path graph 0-1-2-3, t=2, Byzantine {0, 1} with node 0 acting fully
    correctly and node 1 silent.  Nodes 2 and 3 cannot reach {0, 1},
    but the missing set is exactly the Byzantine budget — it may be
    all-Byzantine, so a confirmed partition claim would be unsound."""
    graph = Graph(4, [(0, 1), (1, 2), (2, 3)])
    clear_connectivity_cache()
    result = run_trial(
        graph,
        t=2,
        byzantine_factories={
            0: honest_nectar_factory,  # correct-acting Byzantine node
            1: lambda setup: SilentNode(setup.node_id),
        },
        with_ground_truth=False,
        seed=0,
    )
    return graph, result


def test_definition_3_validity_on_the_path_graph_counterexample():
    """Fixed (formerly a strict xfail): Definition-3 Validity on the
    path-graph counterexample.

    The decision phase used to report ``confirmed=True`` whenever
    ``r != n``; on this graph the correct nodes 2 and 3 then claimed
    confirmed evidence of a partition although {0, 1} is not a vertex
    cut of G (removing it leaves the single edge 2-3, still
    connected).  The fix confirms only when ``n - r > t`` — when the
    missing set cannot consist entirely of Byzantine processes.
    """
    graph, result = _path_graph_counterexample_trial()
    t = 2
    byzantine = frozenset({0, 1})
    truth = compute_ground_truth(graph, t, byzantine)
    correct_verdicts = result.correct_verdicts

    # The run itself is well-formed: both correct nodes decide, and
    # the declared Byzantine set genuinely is not a cut.
    assert set(correct_verdicts) == {2, 3}
    assert not is_vertex_cut(graph, byzantine)
    assert not truth.correct_subgraph_partitioned

    # The Validity property (Sec. III-D / Theorem 2) — what the fixed
    # bug used to break: neither correct node may report confirmed=True.
    assert validity_holds(correct_verdicts, truth), (
        f"confirmed verdicts without a Byzantine cut: "
        f"{[(v, vd.decision, vd.confirmed) for v, vd in correct_verdicts.items()]}"
    )


def test_path_graph_counterexample_decisions_are_stable():
    """A companion pinning the fixed observable output exactly: both
    correct nodes decide PARTITIONABLE but with confirmed=False.  They
    see r = 3 (node 1's edges are announced by its correct neighbor 2,
    so only the correct-acting node 0 stays invisible), and the
    missing set {0} fits inside t=2 — no correct node can rule out an
    all-Byzantine silence."""
    _, result = _path_graph_counterexample_trial()
    for node in (2, 3):
        verdict = result.verdicts[node]
        assert verdict.decision is Decision.PARTITIONABLE
        assert verdict.confirmed is False
        assert verdict.reachable == 3


def test_confirmed_partition_still_reported_beyond_the_budget():
    """The fix must not over-correct: when more processes are missing
    than t could explain, at least one of them is correct and the
    confirmed claim is sound (and required — this is the paper's
    ll. 22-24 case)."""
    # Path 0-1-2-3-4-5, t=1, node 2 silent: each side misses at least
    # the two far nodes beyond the silent bridge (announcements cannot
    # cross it), so n - r >= 2 > t = 1 everywhere and {2} really does
    # cut the correct subgraph.
    graph = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    clear_connectivity_cache()
    result = run_trial(
        graph,
        t=1,
        byzantine_factories={2: lambda setup: SilentNode(setup.node_id)},
        with_ground_truth=False,
        seed=0,
    )
    truth = compute_ground_truth(graph, 1, frozenset({2}))
    assert truth.correct_subgraph_partitioned
    for node in (0, 1, 3, 4, 5):
        verdict = result.verdicts[node]
        assert verdict.decision is Decision.PARTITIONABLE
        assert verdict.confirmed is True
    assert validity_holds(result.correct_verdicts, truth)


@pytest.mark.parametrize("cached", [False, True], ids=["uncached", "cached"])
def test_a_reversed_proof_does_not_enter_a_view_twice(cached):
    """Fixed: a Byzantine endpoint made an honest node accept one edge
    twice.

    On the path 3-5-4, Byzantine node 5 sends honest node 4, in round
    1, the proof of (3, 5) written as (5, 3) with its two signatures
    swapped (both still verify over the canonical message), then the
    real proof.  Node 4 used to store both, ending with ``edge_count()``
    3 for 2 edges and queueing both for relay.  Validation rule 3 now
    admits only the canonical (lo, hi) orientation.
    """
    graph = Graph(6, [(3, 5), (4, 5)])
    deployment = build_deployment(graph)
    keys = deployment.key_store
    real = deployment.proofs_of(5)[3]
    swapped = NeighborhoodProof(
        edge=(5, 3), signature_lo=real.signature_hi, signature_hi=real.signature_lo
    )
    node = NectarNode(
        node_id=4,
        n=6,
        t=1,
        key_pair=keys.key_pair_of(4),
        scheme=deployment.scheme,
        directory=keys.directory,
        neighbor_proofs=deployment.proofs_of(4),
        verification_cache=VerificationCache() if cached else None,
    )
    node.begin_round(1)
    byzantine = keys.key_pair_of(5)
    node.deliver(
        1,
        5,
        NectarBatch(
            tuple(
                EdgeAnnouncement(
                    proof=proof,
                    chain=extend_chain(
                        deployment.scheme, byzantine, proof_bytes(proof), ()
                    ),
                )
                for proof in (swapped, real)
            )
        ),
    )
    assert node.discovered.edge_count() == 2
    assert node.discovered.edges() == {(3, 5), (4, 5)}
    assert [announcement.proof for announcement, _ in node._pending] == [real]
    assert node.conclude().reachable == 3
