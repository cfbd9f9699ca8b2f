"""NECTAR's decision phase (Algorithm 1, ll. 16-23).

After the n - 1 propagation rounds a node computes, over its
discovered graph G_i:

* ``r`` — the number of reachable nodes (``DetectReachableNode``);
* ``k`` — the vertex connectivity (``VertexConnectivity``);

and decides NOT_PARTITIONABLE iff ``k > t and r = n``, otherwise
PARTITIONABLE with ``confirmed = (n - r > t)``.

The confirmation predicate is where Validity (Def. 3 / Theorem 2)
lives: ``confirmed = True`` at a correct node promises that the
Byzantine set really is a vertex cut.  When only ``n - r <= t``
processes are missing, *all* of them may be Byzantine processes that
simply never announced anything (silent, or correct-acting but cut
off by a silent colluder) — indistinguishable from a genuine
partition, so the node must not claim confirmed evidence.  Once
``n - r > t`` at least one missing process is correct, and since
correct processes relay faithfully for all n - 1 rounds, every path
to it must cross a Byzantine process: the Byzantine set genuinely
cuts the graph.

Because Lemma 2 guarantees all correct nodes end with the *same*
discovered graph whenever their subgraph is connected, the (costly)
connectivity computation is shared across nodes of a run through a
small memoisation keyed by the edge set.  ``r`` and that key come from
the discovered graph's own memo, which copies of one view share (see
:mod:`repro.core.adjacency`): nodes holding copies of one G_i run one
BFS per connected component and hash one edge frozenset between them.
"""

from __future__ import annotations

import functools

from repro.core.adjacency import DiscoveredGraph
from repro.graphs.connectivity import vertex_connectivity
from repro.graphs.graph import Graph
from repro.types import Decision, Edge, Verdict


@functools.lru_cache(maxsize=128)
def _cached_connectivity(
    n: int, edges: frozenset[Edge], cutoff: int | None
) -> int:
    """Vertex connectivity of the graph (n, edges), memoised.

    All correct nodes of a run typically share one discovered edge set
    (Lemma 2), so a run costs one connectivity computation instead of
    one per node.
    """
    return vertex_connectivity(Graph(n, edges), cutoff=cutoff)


def clear_connectivity_cache() -> None:
    """Drop memoised connectivity results (tests and long sweeps)."""
    _cached_connectivity.cache_clear()


def decide(
    discovered: DiscoveredGraph,
    node_id: int,
    t: int,
    connectivity_cutoff: int | None = None,
) -> Verdict:
    """Run the decision phase for one node.

    Args:
        discovered: the node's G_i after the propagation phase.
        node_id: the deciding node.
        t: the declared maximum number of Byzantine nodes.
        connectivity_cutoff: optional early-exit bound for the
            connectivity computation.  Any value above ``t`` preserves
            the decision exactly (the algorithm only compares k with
            t); the reported ``Verdict.connectivity`` is then the
            truncated value.  ``None`` computes κ exactly.

    Raises:
        ValueError: if a cutoff at or below ``t`` is requested, since
            that could corrupt the k > t comparison.
    """
    if connectivity_cutoff is not None and connectivity_cutoff <= t:
        raise ValueError(
            f"connectivity cutoff {connectivity_cutoff} would not resolve k > t"
        )
    reachable = discovered.reachable_from(node_id)
    r = len(reachable)
    n = discovered.n
    if r != n:
        # Some process is unreachable in G_i (ll. 22-24).  Confirmed
        # evidence of a partition exists only when the missing set
        # cannot consist entirely of Byzantine processes: with
        # n - r <= t every unreachable process may simply have stayed
        # silent, so claiming a confirmed cut would violate Validity
        # (Theorem 2; see the module docstring and the path-graph
        # counterexample pinned in tests/test_known_regressions.py).
        return Verdict(
            decision=Decision.PARTITIONABLE,
            confirmed=n - r > t,
            reachable=r,
            connectivity=None,
        )
    k = _cached_connectivity(n, discovered.edges(), connectivity_cutoff)
    if k > t:
        return Verdict(
            decision=Decision.NOT_PARTITIONABLE,
            confirmed=False,
            reachable=r,
            connectivity=k,
        )
    return Verdict(
        decision=Decision.PARTITIONABLE,
        confirmed=False,
        reachable=r,
        connectivity=k,
    )
