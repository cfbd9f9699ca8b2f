"""Analytical cost model for NECTAR (Sec. IV-E).

The paper derives NECTAR's message complexity informally: every node
forwards every edge once to (almost) all of its neighbors, so the
worst case is O(n^4), the cost grows with the edge count, and it
falls with the diameter because edges discovered early travel with
short signature chains.

``predict_nectar_traffic`` makes that argument *exact* for honest
runs.  In a fault-free execution the dynamics are fully determined by
the topology:

* the round in which node x discovers edge (u, v) equals the BFS
  distance from the endpoint set {u, v} to x (endpoints know it at
  round 0 and announce in round 1; each hop adds one round);
* on discovery at round r, x relays the announcement — now carrying a
  chain of r + 1 links — to every neighbor except the *first
  deliverer*, provided round r + 1 still fits in the budget;
* the first deliverer is the smallest-id neighbor one hop closer to
  the edge (the lock-step scheduler collects sends in ascending node
  order);
* endpoints announce their own edges to all neighbors in round 1 with
  one-link chains;
* one envelope (header + batch-count field) is paid per
  (node, neighbor, round) triple whose batch is non-empty.

Those are the closed forms the trial fast path evaluates
(:mod:`repro.perf.fastpath`, DESIGN.md §15.4), so the prediction is a
view of that engine on the honest delivery graph.  The test suite pins
it, node by node, to an independent per-edge BFS reference and to the
round scheduler's measured bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.nectar import nectar_round_count
from repro.crypto.sizes import DEFAULT_PROFILE, WireProfile
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.types import NodeId


@dataclass(frozen=True)
class TrafficPrediction:
    """Predicted honest-run traffic.

    Attributes:
        bytes_sent: exact per-node bytes, matching the simulator.
        messages_sent: exact per-node envelope counts.
    """

    bytes_sent: dict[NodeId, int]
    messages_sent: dict[NodeId, int]

    @property
    def total_bytes(self) -> int:
        """Sum of bytes over all nodes."""
        return sum(self.bytes_sent.values())

    def mean_kb_per_node(self) -> float:
        """The paper's metric: average KB sent per node."""
        if not self.bytes_sent:
            raise ValueError("prediction over an empty deployment")
        return self.total_bytes / len(self.bytes_sent) / 1000.0


def predict_nectar_traffic(
    graph: Graph,
    profile: WireProfile = DEFAULT_PROFILE,
    rounds: int | None = None,
) -> TrafficPrediction:
    """Exact traffic of an honest, batched NECTAR run on ``graph``.

    Args:
        graph: the topology.
        profile: wire profile (must match the run being predicted).
        rounds: round budget; defaults to n - 1 as in Algorithm 1.

    Returns:
        Per-node bytes and envelope counts identical to what
        :class:`repro.net.simulator.SyncNetwork` measures for a run
        with honest :class:`repro.core.nectar.NectarNode` instances.

    Raises:
        ProtocolError: on a budget below one round, as the scheduler.
    """
    if rounds is None:
        rounds = nectar_round_count(graph.n)
    if rounds < 1:
        raise ProtocolError("at least one round is required")
    # Deferred: the engine imports the protocol classes, and they
    # import this package.
    from repro.perf.fastpath import nectar_sends

    bytes_sent, messages_sent = nectar_sends(graph, profile, rounds)
    return TrafficPrediction(
        bytes_sent=dict(enumerate(bytes_sent)),
        messages_sent=dict(enumerate(messages_sent)),
    )
