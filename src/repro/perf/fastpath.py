"""Closed-form vectorized trial execution (DESIGN.md §15).

On the paper's own system model — reliable synchronous channels that
deliver everything — the lock-step execution of the three protocol
families is a *deterministic function of the topology and the
adversary's silence pattern*.  Every acceptance time is a BFS distance
along the directed delivery graph, every per-round send count follows
from those times, and every envelope size is profile arithmetic.  The
engine here evaluates those closed forms as numpy array passes, then
materialises the per-node protocol end-state (discovered graphs,
Bloom filters, known-id sets) and calls the real ``conclude()`` on
every node — so verdicts are produced by the exact same decision code
as the scalar path, and traffic is accounted byte-for-byte.  A NECTAR
node's discovered graph is the set of edges it knows when the last
round ends, and few distinct sets occur per trial (Lemma 2: correct
nodes of one connected group end with the same G_i), so each distinct
set is built once through ``DiscoveredGraph.add`` and every NECTAR
node receives its own copy.

Closed forms, with D the delivery digraph (graph adjacency minus a
two-faced node's ``silent_towards`` arcs and every out-arc of a silent
node) and ``d_D`` directed hop distances:

* **NECTAR** — announcement of edge (u, v) is accepted by node i at
  round ``acc(i) = min(d_D(u→i), d_D(v→i))`` (0 for endpoints); the
  accepted copy's sender is the smallest-id qualifying in-neighbor
  (deliveries happen in sorted sender order); at round r a node
  relays its round-(r−1) acceptances to every D-neighbor except each
  announcement's source, inside one batch envelope per neighbor whose
  size is exact profile arithmetic (chains carry r links in round r).
  Source exclusion can never delay an acceptance: the excluded
  neighbor is two rounds behind by construction.
* **MtG** — a node's filter after epoch e is the bitwise OR of the
  initial filters of every v with ``d_D(v→i) ≤ e`` (an all-ones page
  for saturating nodes); a node gossips when its filter changed since
  its last gossip (or on its periodic refresh), tracked on the actual
  bit arrays so Bloom collisions behave exactly as in the scalar run.
* **MtGv2** — the signed id of v reaches i at epoch ``d_D(v→i)``;
  counts and source exclusion as in NECTAR, without chains.

Quiescence mirrors the scheduler exactly: the first round that emits
zero envelopes is executed and then iteration stops (when the
quiescence skip is on).

Eligibility is strict — ``sync`` backend, an always-delivering channel
state, and a protocol population drawn entirely from one family's
closed-form-safe types:

* NECTAR: ``NectarNode``, ``SleeperNectarNode`` (overrides nothing, so
  it is honest), ``TwoFacedNectarNode`` and ``SilentNode``.  A silent
  node is a two-faced node mute toward every neighbour: a sink of D
  that is still sent to, holds no view, and concludes None;
* MtG: ``MtgNode``, ``SaturatingMtgNode`` and ``TwoFacedMtgNode``;
* MtGv2: ``Mtgv2Node`` and ``TwoFacedMtgv2Node``.

Anything else (equivocating, bad-aggregator, spam and every forging
behaviour) returns None and the caller runs the scalar scheduler.  One
documented observability divergence: trials that reach this engine
never touch the verification cache, so ``cache_stats`` counters stay
zero where the scalar path would count hits (verdicts, traffic and
rows are unaffected; the affected configurations are FULL-mode runs
with a cache and any sleeper, silent or two-faced node).  Honest FULL
runs with a cache stay on the scheduler, so their counters are exact.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.adversary.behaviors import (
    SaturatingMtgNode,
    SilentNode,
    SleeperNectarNode,
    TwoFacedMtgNode,
    TwoFacedMtgv2Node,
    TwoFacedNectarNode,
)
from repro.baselines.bloom import BloomFilter
from repro.baselines.mtg import MtgNode
from repro.baselines.mtgv2 import Mtgv2Node
from repro.core.adjacency import DiscoveredGraph
from repro.core.nectar import NectarNode
from repro.crypto.sizes import WireProfile
from repro.graphs.graph import Graph
from repro.net.channel import ChannelModel
from repro.net.stats import TrafficStats
from repro.perf import numpy_or_none
from repro.perf.kernels import adjacency_matrix, directed_distances
from repro.types import NodeId

__all__ = ["try_run_trial"]

#: payload framing constants, mirrored from the payload classes (a
#: unit test pins them against the real ``encoded_size``).
_NECTAR_BATCH_COUNT_BYTES = 2
_NECTAR_CHAIN_COUNT_BYTES = 2
_MTGV2_COUNT_BYTES = 2
_BLOOM_GEOMETRY_BYTES = 5


def try_run_trial(
    graph: Graph,
    protocols: Mapping[NodeId, Any],
    *,
    profile: WireProfile,
    channel: ChannelModel,
    seed: int,
    rounds: int,
    quiescence_skip: bool,
) -> tuple[dict[NodeId, Any], TrafficStats, int] | None:
    """Run one trial through the closed-form engine, if eligible.

    Returns ``(verdicts, stats, rounds_executed)`` — exactly what the
    scalar ``SyncNetwork.run`` would have produced — or None when any
    eligibility condition fails.
    """
    np = numpy_or_none()
    if np is None or rounds < 1:
        return None
    state = channel.state(graph, seed)
    if not state.always_delivers:
        return None
    family = _classify(graph, protocols)
    if family == "nectar":
        return _run_nectar(np, graph, protocols, profile, rounds, quiescence_skip)
    if family == "mtg":
        return _run_mtg(np, graph, protocols, profile, rounds, quiescence_skip)
    if family == "mtgv2":
        return _run_mtgv2(np, graph, protocols, profile, rounds, quiescence_skip)
    return None


# ----------------------------------------------------------------------
# Eligibility
# ----------------------------------------------------------------------
def _classify(graph: Graph, protocols: Mapping[NodeId, Any]) -> str | None:
    kinds = {type(p) for p in protocols.values()}
    if kinds <= {NectarNode, SleeperNectarNode, TwoFacedNectarNode, SilentNode}:
        uses_cache = False
        for node_id, p in protocols.items():
            if type(p) is SilentNode:
                continue
            if (
                not p._batching
                or p._n != graph.n
                or p._neighbors != graph.neighbors(node_id)
            ):
                return None
            validator = p._validator
            if validator.mode.value == "full" and validator.cache is not None:
                uses_cache = True
        if uses_cache and kinds == {NectarNode}:
            # FULL honest runs with a shared cache keep the scalar
            # path: their cache-hit observability is pinned by tests.
            return None
        return "nectar"
    if kinds <= {MtgNode, SaturatingMtgNode, TwoFacedMtgNode}:
        geometries = {
            (p._filter.bit_count, p._filter.hash_count) for p in protocols.values()
        }
        if len(geometries) != 1:
            return None
        bit_count = next(iter(geometries))[0]
        if bit_count % 8 != 0:
            return None
        for node_id, p in protocols.items():
            if p._n != graph.n or p._neighbors != graph.neighbors(node_id):
                return None
        return "mtg"
    if kinds <= {Mtgv2Node, TwoFacedMtgv2Node}:
        for node_id, p in protocols.items():
            if p._n != graph.n or p._neighbors != graph.neighbors(node_id):
                return None
        return "mtgv2"
    return None


def _delivery_matrix(np, graph: Graph, protocols: Mapping[NodeId, Any]):
    """Graph adjacency minus each two-faced node's silent arcs and
    every out-arc of a silent node."""
    matrix = np.array(adjacency_matrix(graph), dtype=bool)
    for node_id, p in protocols.items():
        if type(p) is SilentNode:
            matrix[node_id] = False
            continue
        silent = getattr(p, "_silent_towards", None)
        if silent:
            for target in silent:
                if 0 <= target < graph.n:
                    matrix[node_id, target] = False
    return matrix


def _fill_stats(
    np, stats: TrafficStats, sent_bytes, sent_msgs, recv_bytes, recv_msgs
) -> None:
    for node in np.flatnonzero(sent_msgs):
        node = int(node)
        stats.record_send_bulk(node, int(sent_bytes[node]), int(sent_msgs[node]))
    for node in np.flatnonzero(recv_msgs):
        node = int(node)
        stats.record_receive_bulk(node, int(recv_bytes[node]), int(recv_msgs[node]))


def _conclude_all(protocols: Mapping[NodeId, Any]) -> dict[NodeId, Any]:
    return {node_id: protocols[node_id].conclude() for node_id in sorted(protocols)}


def _arrival_rounds(delivery, rounds: int):
    """``directed_distances`` with the unreachable sentinel moved past
    the last round, so a run of more than n rounds never reaches it."""
    dist = directed_distances(delivery)
    n = dist.shape[0]
    dist[dist > n] = max(n, rounds) + 1
    return dist


def _acceptance_sources(np, delivery, acc_rows):
    """Per item-row, the smallest-id sender of each first acceptance.

    ``acc_rows[k, i]`` is the acceptance round of item k at node i;
    the source is the smallest s with an arc s→i and
    ``acc[s] == acc[i] - 1`` (deliveries arrive in sorted sender
    order), or -1 for originators.  One pass per receiver over its
    in-neighbors' columns, for all items at once.
    """
    src = np.full(acc_rows.shape, -1, dtype=np.int64)
    for receiver in range(delivery.shape[0]):
        senders = np.flatnonzero(delivery[:, receiver])  # ascending ids
        if not senders.size:
            continue
        candidates = acc_rows[:, senders] + 1 == acc_rows[:, receiver, None]
        first = candidates.argmax(axis=1)
        src[:, receiver] = np.where(candidates.any(axis=1), senders[first], -1)
    return src


# ----------------------------------------------------------------------
# NECTAR
# ----------------------------------------------------------------------
def _run_nectar(
    np,
    graph: Graph,
    protocols: Mapping[NodeId, Any],
    profile: WireProfile,
    rounds: int,
    quiescence_skip: bool,
):
    n = graph.n
    delivery = _delivery_matrix(np, graph, protocols)
    edges = sorted(graph.edges())
    m = len(edges)
    dist = _arrival_rounds(delivery, rounds)
    lo = np.fromiter((edge[0] for edge in edges), dtype=np.int64, count=m)
    hi = np.fromiter((edge[1] for edge in edges), dtype=np.int64, count=m)
    acc = np.minimum(dist[lo], dist[hi]) if m else np.zeros((0, n), dtype=np.int32)
    src = _acceptance_sources(np, delivery, acc)

    header = profile.envelope_header_bytes + _NECTAR_BATCH_COUNT_BYTES
    per_entry = profile.proof_bytes + _NECTAR_CHAIN_COUNT_BYTES
    link_bytes = profile.chain_link_bytes

    sent_bytes = np.zeros(n, dtype=np.int64)
    sent_msgs = np.zeros(n, dtype=np.int64)
    recv_bytes = np.zeros(n, dtype=np.int64)
    recv_msgs = np.zeros(n, dtype=np.int64)

    rounds_executed = rounds
    for round_number in range(1, rounds + 1):
        relayed = acc == (round_number - 1)
        pending = relayed.sum(axis=0)
        exclusions = np.zeros((n, n), dtype=np.int64)
        sourced = relayed & (src >= 0)
        if sourced.any():
            item_idx, sender_idx = np.nonzero(sourced)
            np.add.at(exclusions, (sender_idx, src[item_idx, sender_idx]), 1)
        counts = np.where(delivery, pending[:, None] - exclusions, 0)
        envelopes = counts > 0
        if not envelopes.any():
            if quiescence_skip:
                rounds_executed = round_number
                break
            continue
        sizes = np.where(
            envelopes,
            header + counts * (per_entry + round_number * link_bytes),
            0,
        )
        sent_bytes += sizes.sum(axis=1)
        sent_msgs += envelopes.sum(axis=1)
        recv_bytes += sizes.sum(axis=0)
        recv_msgs += envelopes.sum(axis=0)

    stats = TrafficStats()
    _fill_stats(np, stats, sent_bytes, sent_msgs, recv_bytes, recv_msgs)

    # Materialise each NECTAR node's discovered graph from the shared
    # proof objects (the same objects the scalar run would have
    # delivered), then decide with the real decision code.  A node's
    # G_i is the set of edges it knows when the last round ends (its
    # column of acc, own edges included at acc 0), and Lemma 2 leaves
    # few distinct sets per trial: each is built once through add(),
    # and every NECTAR node gets its own copy.  A silent node holds no
    # proofs and no view; its conclude() returns None.
    nectar = {
        node_id: p for node_id, p in protocols.items() if isinstance(p, NectarNode)
    }
    proof_by_edge = {}
    for p in nectar.values():
        for proof in p._neighbor_proofs.values():
            proof_by_edge[proof.edge] = proof
    known = acc <= rounds_executed
    views: dict[bytes, DiscoveredGraph] = {}
    for node_id, p in nectar.items():
        column = known[:, node_id]
        key = column.tobytes()
        view = views.get(key)
        if view is None:
            view = views[key] = DiscoveredGraph(n)
            for item in np.flatnonzero(column):
                view.add(proof_by_edge[edges[int(item)]])
        p._discovered = view.copy()
    return _conclude_all(protocols), stats, rounds_executed


# ----------------------------------------------------------------------
# MtG
# ----------------------------------------------------------------------
def _run_mtg(
    np,
    graph: Graph,
    protocols: Mapping[NodeId, Any],
    profile: WireProfile,
    rounds: int,
    quiescence_skip: bool,
):
    n = graph.n
    delivery = _delivery_matrix(np, graph, protocols)
    sample = protocols[0]._filter
    bit_count, hash_count = sample.bit_count, sample.hash_count
    page = bit_count // 8

    filters = np.zeros((n, page), dtype=np.uint8)
    saturating = np.zeros(n, dtype=bool)
    periods = np.zeros(n, dtype=np.int64)
    for node_id in range(n):
        p = protocols[node_id]
        filters[node_id] = np.frombuffer(p._filter.to_bytes(), dtype=np.uint8)
        saturating[node_id] = type(p) is SaturatingMtgNode
        periods[node_id] = p._resend_period

    last_sent = np.zeros((n, page), dtype=np.uint8)
    last_valid = np.zeros(n, dtype=bool)
    out_degree = delivery.sum(axis=1)
    envelope_size = (
        profile.envelope_header_bytes
        + profile.epoch_header_bytes
        + _BLOOM_GEOMETRY_BYTES
        + page
    )

    sent_bytes = np.zeros(n, dtype=np.int64)
    sent_msgs = np.zeros(n, dtype=np.int64)
    recv_bytes = np.zeros(n, dtype=np.int64)
    recv_msgs = np.zeros(n, dtype=np.int64)

    rounds_executed = rounds
    for round_number in range(1, rounds + 1):
        current = filters.copy()
        current[saturating] = 0xFF
        periodic = (periods > 0) & (
            np.mod(round_number, np.where(periods > 0, periods, 1)) == 0
        )
        changed = ~last_valid | (current != last_sent).any(axis=1)
        gossiping = changed | periodic
        # The scalar node snapshots last_sent before its sends are
        # filtered, so even a fully-silenced gossiper updates it.
        last_sent[gossiping] = current[gossiping]
        last_valid |= gossiping
        effective = gossiping & (out_degree > 0)
        if not effective.any():
            if quiescence_skip:
                rounds_executed = round_number
                break
            continue
        sent_bytes += np.where(effective, out_degree * envelope_size, 0)
        sent_msgs += np.where(effective, out_degree, 0)
        arriving = delivery & gossiping[:, None]
        arrivals_per_node = arriving.sum(axis=0)
        recv_bytes += arrivals_per_node * envelope_size
        recv_msgs += arrivals_per_node
        for node_id in np.flatnonzero(arrivals_per_node):
            node_id = int(node_id)
            senders = np.flatnonzero(arriving[:, node_id])
            filters[node_id] |= np.bitwise_or.reduce(current[senders], axis=0)

    stats = TrafficStats()
    _fill_stats(np, stats, sent_bytes, sent_msgs, recv_bytes, recv_msgs)

    for node_id in range(n):
        protocols[node_id]._filter = BloomFilter.from_bytes(
            bit_count, hash_count, bytes(filters[node_id])
        )
    return _conclude_all(protocols), stats, rounds_executed


# ----------------------------------------------------------------------
# MtGv2
# ----------------------------------------------------------------------
def _run_mtgv2(
    np,
    graph: Graph,
    protocols: Mapping[NodeId, Any],
    profile: WireProfile,
    rounds: int,
    quiescence_skip: bool,
):
    n = graph.n
    delivery = _delivery_matrix(np, graph, protocols)
    # acc[v, i]: the epoch id v reaches node i (0 at its owner).
    acc = _arrival_rounds(delivery, rounds)
    src = _acceptance_sources(np, delivery, acc)

    header = (
        profile.envelope_header_bytes
        + profile.epoch_header_bytes
        + _MTGV2_COUNT_BYTES
    )
    entry_bytes = profile.signed_id_bytes()

    sent_bytes = np.zeros(n, dtype=np.int64)
    sent_msgs = np.zeros(n, dtype=np.int64)
    recv_bytes = np.zeros(n, dtype=np.int64)
    recv_msgs = np.zeros(n, dtype=np.int64)

    rounds_executed = rounds
    for round_number in range(1, rounds + 1):
        relayed = acc == (round_number - 1)
        pending = relayed.sum(axis=0)
        exclusions = np.zeros((n, n), dtype=np.int64)
        sourced = relayed & (src >= 0)
        if sourced.any():
            item_idx, sender_idx = np.nonzero(sourced)
            np.add.at(exclusions, (sender_idx, src[item_idx, sender_idx]), 1)
        counts = np.where(delivery, pending[:, None] - exclusions, 0)
        envelopes = counts > 0
        if not envelopes.any():
            if quiescence_skip:
                rounds_executed = round_number
                break
            continue
        sizes = np.where(envelopes, header + counts * entry_bytes, 0)
        sent_bytes += sizes.sum(axis=1)
        sent_msgs += envelopes.sum(axis=1)
        recv_bytes += sizes.sum(axis=0)
        recv_msgs += envelopes.sum(axis=0)

    stats = TrafficStats()
    _fill_stats(np, stats, sent_bytes, sent_msgs, recv_bytes, recv_msgs)

    own_ids = {node_id: protocols[node_id]._known[node_id] for node_id in range(n)}
    accepted = (acc >= 1) & (acc <= rounds_executed)
    for node_id in range(n):
        known = protocols[node_id]._known
        for item in np.flatnonzero(accepted[:, node_id]):
            item = int(item)
            known[item] = own_ids[item]
    return _conclude_all(protocols), stats, rounds_executed
