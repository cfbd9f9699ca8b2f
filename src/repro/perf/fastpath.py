"""Closed-form trial execution on Python-int bitsets (DESIGN.md §15).

On the paper's own system model — reliable synchronous channels that
deliver everything — the lock-step execution of the three protocol
families is a *deterministic function of the topology and the
adversary's silence pattern*.  Every acceptance time is a BFS distance
along the directed delivery graph, every per-round send count follows
from those times, and every envelope size is profile arithmetic.  The
engine here evaluates those closed forms on Python ints used as
bitsets (one bit per node, edge or Bloom bit), then materialises the
per-node protocol end-state (discovered graphs, Bloom filters, known-id
sets) and calls the real ``conclude()`` on every node — so verdicts are
produced by the exact same decision code as the scheduler, and traffic
is accounted byte-for-byte.  A NECTAR node's discovered graph is the
set of edges it knows when the last round ends, and few distinct sets
occur per trial (Lemma 2: correct nodes of one connected group end with
the same G_i), so each distinct known-edge mask is built once through
``DiscoveredGraph.add`` and every NECTAR node receives its own copy.
Copies share the view's query memo, so the nodes' ``decide()`` calls
run one BFS per (view, component) and hash one edge set per view.

Closed forms, with D the delivery digraph (graph adjacency minus a
two-faced node's ``silent_towards`` arcs and every out-arc of a silent
node, held as ascending out- and in-neighbour lists plus one
in-neighbour mask per node) and ``d_D`` directed hop distances:

* **Layers** — a reverse BFS from each receiver i along D: node layer
  r is the set of v with ``d_D(v→i) = r``, the OR of the in-neighbour
  masks of layer r − 1 minus every earlier layer.  Unreachable nodes
  are in no layer, however many rounds run.
* **NECTAR** — announcement of edge (u, v) is accepted by node i at
  round ``min(d_D(u→i), d_D(v→i))`` (0 for endpoints), so i's round-r
  edge layer is the OR of the incident-edge masks of its node layer r,
  minus the edges it knew before.  The accepted copy's sender is the
  smallest-id in-neighbour whose round r − 1 layer holds the item
  (deliveries happen in sorted sender order): one AND-and-clear pass
  over the in-neighbours' previous layers in ascending id order.  At
  round r a node relays its round-(r−1) layer to every D-neighbour
  except each announcement's source, inside one batch envelope per
  neighbour whose size is exact profile arithmetic (chains carry r
  links in round r); counts are ``int.bit_count()``.  Source exclusion
  can never delay an acceptance: the excluded neighbour is two rounds
  behind by construction.
* **MtG** — a filter is a ``bit_count``-bit int, as in ``BloomFilter``
  (bit p is wire bit p % 8 of byte p // 8).  A node's filter after
  epoch e is the OR of the filters gossiped to it (an all-ones filter
  from a saturating node); a node gossips when its filter changed since
  its last gossip (or on its periodic refresh), tracked on the actual
  filter bits so Bloom collisions behave exactly as in the scheduled
  run.
* **MtGv2** — the signed id of v reaches i at epoch ``d_D(v→i)``, so
  the node layers are the item layers; counts and source exclusion as
  in NECTAR, without chains.

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
behaviour) returns None and the caller runs the round scheduler.  An
all-``NectarNode`` population whose FULL validation uses a cache also
replays its signature work round by round (``_replay_signatures``):
the same messages are signed and verified, through each node's own
chain extension and validator, so ``cache_stats`` equals the
scheduler's.  As there, a relay is signed only when a receiver reads
it, so such a trial verifies every signature it computes.  One
documented observability divergence remains: Byzantine populations
never touch the cache here, so their ``cache_stats`` counters stay
zero where the scheduler would count hits (verdicts, traffic and rows
are unaffected).
"""

from __future__ import annotations

from typing import Any, Mapping, NamedTuple

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
from repro.core.messages import EdgeAnnouncement
from repro.core.nectar import NectarNode
from repro.core.validation import ValidationMode
from repro.crypto.sizes import WireProfile
from repro.errors import ProtocolError
from repro.graphs.graph import Graph
from repro.net.channel import ChannelModel
from repro.net.stats import TrafficStats
from repro.types import NodeId

__all__ = ["nectar_sends", "try_run_trial"]

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
    scheduler's ``SyncNetwork.run`` would have produced — or None when
    any eligibility condition fails.
    """
    if rounds < 1:
        return None
    state = channel.state(graph, seed)
    if not state.always_delivers:
        return None
    family = _classify(graph, protocols)
    if family is None:
        return None
    digraph = _delivery(graph, protocols)
    if family == "mtg":
        return _run_mtg(graph, protocols, digraph, profile, rounds, quiescence_skip)
    if family == "mtgv2":
        return _run_mtgv2(graph, protocols, digraph, profile, rounds, quiescence_skip)
    signed = family == "signed-nectar"
    return _run_nectar(
        graph, protocols, digraph, profile, rounds, quiescence_skip, signed
    )


def nectar_sends(
    graph: Graph, profile: WireProfile, rounds: int
) -> tuple[list[int], list[int]]:
    """Per-node bytes and envelopes sent by an honest, batched NECTAR
    run of ``rounds`` (≥ 1) rounds: the engine's closed form with D the
    graph itself."""
    digraph = _delivery(graph, {})
    _, layers, _ = _nectar_layers(graph, digraph, rounds)
    traffic = _relay_traffic(layers, digraph, *_nectar_framing(profile), rounds, True)
    return traffic.sent_bytes, traffic.sent_msgs


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
            if (
                p._validator.mode is ValidationMode.FULL
                and p._validator.cache is not None
            ):
                uses_cache = True
        if uses_cache and kinds == {NectarNode}:
            return "signed-nectar"
        return "nectar"
    if kinds <= {MtgNode, SaturatingMtgNode, TwoFacedMtgNode}:
        geometries = {
            (p._filter.bit_count, p._filter.hash_count) for p in protocols.values()
        }
        if len(geometries) != 1:
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


# ----------------------------------------------------------------------
# The delivery digraph and its reverse-BFS layers
# ----------------------------------------------------------------------
class _Digraph(NamedTuple):
    outs: list[list[int]]  # ascending out-neighbours per node
    ins: list[list[int]]  # ascending in-neighbours per node
    in_masks: list[int]  # in-neighbours per node, as a node bitset


def _delivery(graph: Graph, protocols: Mapping[NodeId, Any]) -> _Digraph:
    """Graph adjacency minus each two-faced node's silent arcs and
    every out-arc of a silent node."""
    n = graph.n
    outs: list[list[int]] = []
    ins: list[list[int]] = [[] for _ in range(n)]
    in_masks = [0] * n
    for sender in range(n):
        p = protocols.get(sender)
        targets: list[int] = []
        if type(p) is not SilentNode:
            muted = getattr(p, "_silent_towards", ())
            targets = sorted(graph.neighbors(sender).difference(muted))
        bit = 1 << sender
        for target in targets:
            ins[target].append(sender)
            in_masks[target] |= bit
        outs.append(targets)
    return _Digraph(outs, ins, in_masks)


def _node_layers(in_masks: list[int], receiver: int, depth: int) -> list[int]:
    """Reverse BFS from ``receiver``: layer r (r ≤ ``depth``) is the
    node bitset of every v with ``d_D(v→receiver) = r``."""
    seen = frontier = 1 << receiver
    layers = [frontier]
    while len(layers) <= depth:
        reached = 0
        while frontier:
            low = frontier & -frontier
            reached |= in_masks[low.bit_length() - 1]
            frontier ^= low
        frontier = reached & ~seen
        if not frontier:
            break
        seen |= frontier
        layers.append(frontier)
    return layers


def _sources(
    items: int, senders: list[int], layers: list[list[int]], depth: int
) -> dict[int, int]:
    """Split one receiver's round-``depth`` acceptances by sender.

    Each accepted copy came from the smallest-id in-neighbour holding
    the item in its round ``depth − 1`` layer (deliveries arrive in
    ascending sender order), so one AND-and-clear pass over
    ``senders`` (ascending) finds them all.  Returns ``{sender: items
    accepted from it}``.
    """
    split: dict[int, int] = {}
    previous = depth - 1
    for sender in senders:
        sender_layers = layers[sender]
        if previous < len(sender_layers):
            got = items & sender_layers[previous]
            if got:
                split[sender] = got
                items ^= got
                if not items:
                    break
    return split


class _Traffic(NamedTuple):
    sent_bytes: list[int]
    sent_msgs: list[int]
    recv_bytes: list[int]
    recv_msgs: list[int]
    rounds_executed: int


def _relay_traffic(
    layers: list[list[int]],
    digraph: _Digraph,
    header: int,
    entry_bytes: int,
    link_bytes: int,
    rounds: int,
    quiescence_skip: bool,
) -> _Traffic:
    """Traffic of a relay protocol whose node i accepts the items of
    ``layers[i][r]`` in round r (its own at r = 0) and relays them in
    round r + 1 to every D-neighbour but each item's source, in one
    envelope of ``header`` plus ``entry_bytes + round * link_bytes``
    per item."""
    n = len(layers)
    sent_bytes, sent_msgs = [0] * n, [0] * n
    recv_bytes, recv_msgs = [0] * n, [0] * n
    outs, ins = digraph.outs, digraph.ins
    rounds_executed = rounds
    for round_number in range(1, rounds + 1):
        depth = round_number - 1
        entry = entry_bytes + round_number * link_bytes
        quiet = True
        for sender, sender_layers in enumerate(layers):
            targets = outs[sender]
            if depth >= len(sender_layers) or not targets:
                continue
            items = sender_layers[depth]
            pending = items.bit_count()
            excluded = _sources(items, ins[sender], layers, depth) if depth else {}
            size = header + pending * entry
            total = messages = 0
            for target in targets:
                got = excluded.get(target)
                if got is None:
                    envelope = size
                else:
                    count = pending - got.bit_count()
                    if not count:
                        continue
                    envelope = header + count * entry
                total += envelope
                messages += 1
                recv_bytes[target] += envelope
                recv_msgs[target] += 1
            if messages:
                sent_bytes[sender] += total
                sent_msgs[sender] += messages
                quiet = False
        if quiet:
            # No envelope means no acceptance, so every later round is
            # empty too: executed up to here, or idled to the budget.
            if quiescence_skip:
                rounds_executed = round_number
            break
    return _Traffic(sent_bytes, sent_msgs, recv_bytes, recv_msgs, rounds_executed)


def _bits(mask: int):
    """The indices of ``mask``'s set bits, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _stats(traffic: _Traffic) -> TrafficStats:
    stats = TrafficStats()
    for node, count in enumerate(traffic.sent_msgs):
        stats.record_send_bulk(node, traffic.sent_bytes[node], count)
    for node, count in enumerate(traffic.recv_msgs):
        stats.record_receive_bulk(node, traffic.recv_bytes[node], count)
    return stats


def _conclude_all(protocols: Mapping[NodeId, Any]) -> dict[NodeId, Any]:
    return {node_id: protocols[node_id].conclude() for node_id in sorted(protocols)}


# ----------------------------------------------------------------------
# NECTAR
# ----------------------------------------------------------------------
def _nectar_framing(profile: WireProfile) -> tuple[int, int, int]:
    """``(header, entry_bytes, link_bytes)`` of a batch envelope."""
    return (
        profile.envelope_header_bytes + _NECTAR_BATCH_COUNT_BYTES,
        profile.proof_bytes + _NECTAR_CHAIN_COUNT_BYTES,
        profile.chain_link_bytes,
    )


def _nectar_layers(
    graph: Graph, digraph: _Digraph, rounds: int
) -> tuple[list, list[list[int]], list[int]]:
    """``(edges, layers, known)``: the sorted edge list, each node's
    edge layers (bit k is ``edges[k]``) and the OR of its layers, the
    edges it knows when a run of ``rounds`` rounds ends."""
    edges = sorted(graph.edges())
    incident = [0] * graph.n
    for index, (u, v) in enumerate(edges):
        bit = 1 << index
        incident[u] |= bit
        incident[v] |= bit
    layers: list[list[int]] = []
    known_masks: list[int] = []
    for receiver in range(graph.n):
        edge_layers: list[int] = []
        known = 0
        for nodes in _node_layers(digraph.in_masks, receiver, rounds):
            grown = 0
            while nodes:
                low = nodes & -nodes
                grown |= incident[low.bit_length() - 1]
                nodes ^= low
            fresh = grown & ~known
            if not fresh:
                # An edge first known at round r + 1 has an endpoint
                # one hop from a round-r edge: layers never resume.
                break
            edge_layers.append(fresh)
            known |= fresh
        layers.append(edge_layers)
        known_masks.append(known)
    return edges, layers, known_masks


def _run_nectar(
    graph: Graph,
    protocols: Mapping[NodeId, Any],
    digraph: _Digraph,
    profile: WireProfile,
    rounds: int,
    quiescence_skip: bool,
    signed: bool,
):
    edges, layers, known_masks = _nectar_layers(graph, digraph, rounds)
    traffic = _relay_traffic(
        layers, digraph, *_nectar_framing(profile), rounds, quiescence_skip
    )
    if signed:
        _replay_signatures(protocols, digraph, edges, layers, traffic.rounds_executed)

    # Materialise each NECTAR node's discovered graph from the shared
    # proof objects (the same objects the scheduled run would have
    # delivered), then decide with the real decision code.  A node's
    # G_i is its known-edge mask (own edges included), and Lemma 2
    # leaves few distinct masks per trial: each is built once through
    # add(), and every NECTAR node gets its own copy (sharing the view's
    # query memo).  A silent node holds no view; it concludes None.
    nectar = {
        node_id: p for node_id, p in protocols.items() if isinstance(p, NectarNode)
    }
    proof_by_edge = {}
    for p in nectar.values():
        for proof in p._neighbor_proofs.values():
            proof_by_edge[proof.edge] = proof
    views: dict[int, DiscoveredGraph] = {}
    for node_id, p in nectar.items():
        known = known_masks[node_id]
        view = views.get(known)
        if view is None:
            view = views[known] = DiscoveredGraph(graph.n)
            for item in _bits(known):
                view.add(proof_by_edge[edges[item]])
        p._discovered = view.copy()
    return _conclude_all(protocols), _stats(traffic), traffic.rounds_executed


def _replay_signatures(
    protocols: Mapping[NodeId, Any],
    digraph: _Digraph,
    edges: list,
    layers: list[list[int]],
    rounds_executed: int,
) -> None:
    """Sign and validate exactly what the scheduled honest run would.

    Round r, one pass: each receiver, in ascending order, validates the
    copy of each item that ``_sources`` says it accepts, and keeps it.
    The sender builds that announcement, through its ``_relay_chain``,
    when a receiver first reads it (from its own proof at r = 1, from
    its round r − 1 acceptance after), and later receivers of the same
    sender and item share it.  On the scheduler every other copy dies
    on the known-edge check before its chain is read, so a relay that
    no receiver reads is never signed there either.  Round r relays
    only round r − 1's acceptances, so only those live.
    """
    accepted: list[dict] = [{} for _ in layers]
    for round_number in range(1, rounds_executed + 1):
        previous, accepted = accepted, [{} for _ in layers]
        relayed: list[dict] = [{} for _ in layers]  # sender -> item -> copy
        for receiver, node_layers in enumerate(layers):
            if round_number >= len(node_layers):
                continue
            validate = protocols[receiver]._validator.validate
            kept = accepted[receiver]
            ins = digraph.ins[receiver]
            split = _sources(node_layers[round_number], ins, layers, round_number)
            for sender, items in split.items():
                outgoing = relayed[sender]
                for item in _bits(items):
                    announcement = outgoing.get(item)
                    if announcement is None:
                        p = protocols[sender]
                        if round_number > 1:
                            proof, chain = previous[sender][item]
                        else:
                            other = sum(edges[item]) - sender  # the far end
                            proof, chain = p._neighbor_proofs[other], ()
                        announcement = outgoing[item] = EdgeAnnouncement(
                            proof, p._relay_chain(proof, chain)
                        )
                    if not validate(announcement, round_number, sender):
                        raise ProtocolError(
                            f"closed-form replay: node {receiver} rejected edge "
                            f"{edges[item]} from node {sender} in round "
                            f"{round_number}"
                        )
                    kept[item] = announcement.proof, announcement.chain


# ----------------------------------------------------------------------
# MtG
# ----------------------------------------------------------------------
def _run_mtg(
    graph: Graph,
    protocols: Mapping[NodeId, Any],
    digraph: _Digraph,
    profile: WireProfile,
    rounds: int,
    quiescence_skip: bool,
):
    n = graph.n
    sample = protocols[0]._filter
    bit_count, hash_count = sample.bit_count, sample.hash_count
    page = bit_count // 8
    saturated = (1 << bit_count) - 1
    nodes = [protocols[node_id] for node_id in range(n)]
    filters = [int.from_bytes(p._filter.to_bytes(), "little") for p in nodes]
    saturating = [type(p) is SaturatingMtgNode for p in nodes]
    periods = [p._resend_period for p in nodes]
    envelope_size = (
        profile.envelope_header_bytes
        + profile.epoch_header_bytes
        + _BLOOM_GEOMETRY_BYTES
        + page
    )

    sent_bytes, sent_msgs = [0] * n, [0] * n
    recv_bytes, recv_msgs = [0] * n, [0] * n
    last_sent: list[int | None] = [None] * n
    rounds_executed = rounds
    for round_number in range(1, rounds + 1):
        current = [saturated if saturating[i] else filters[i] for i in range(n)]
        gossiping = [
            i
            for i in range(n)
            if current[i] != last_sent[i]
            or (periods[i] > 0 and round_number % periods[i] == 0)
        ]
        quiet = True
        for sender in gossiping:
            # The scheduled node snapshots last_sent before its sends
            # are filtered, so even a fully-silenced gossiper updates it.
            last_sent[sender] = gossip = current[sender]
            targets = digraph.outs[sender]
            if not targets:
                continue
            quiet = False
            sent_bytes[sender] += len(targets) * envelope_size
            sent_msgs[sender] += len(targets)
            for target in targets:
                recv_bytes[target] += envelope_size
                recv_msgs[target] += 1
                filters[target] |= gossip
        if quiet and quiescence_skip:
            rounds_executed = round_number
            break

    for p, bits in zip(nodes, filters):
        p._filter = BloomFilter.from_bytes(
            bit_count, hash_count, bits.to_bytes(page, "little")
        )
    traffic = _Traffic(sent_bytes, sent_msgs, recv_bytes, recv_msgs, rounds_executed)
    return _conclude_all(protocols), _stats(traffic), rounds_executed


# ----------------------------------------------------------------------
# MtGv2
# ----------------------------------------------------------------------
def _run_mtgv2(
    graph: Graph,
    protocols: Mapping[NodeId, Any],
    digraph: _Digraph,
    profile: WireProfile,
    rounds: int,
    quiescence_skip: bool,
):
    n = graph.n
    # layers[i][r]: the ids that reach node i at epoch r (its own at 0).
    layers = [_node_layers(digraph.in_masks, receiver, rounds) for receiver in range(n)]
    header = (
        profile.envelope_header_bytes
        + profile.epoch_header_bytes
        + _MTGV2_COUNT_BYTES
    )
    traffic = _relay_traffic(
        layers, digraph, header, profile.signed_id_bytes(), 0, rounds, quiescence_skip
    )

    own_ids = {node_id: protocols[node_id]._known[node_id] for node_id in range(n)}
    for node_id in range(n):
        known = protocols[node_id]._known
        accepted = 0
        for layer in layers[node_id][1:]:
            accepted |= layer
        while accepted:
            low = accepted & -accepted
            item = low.bit_length() - 1
            known[item] = own_ids[item]
            accepted ^= low
    return _conclude_all(protocols), _stats(traffic), traffic.rounds_executed
