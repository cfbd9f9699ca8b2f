"""Tests for the analytical cost model (Sec. IV-E).

``predict_nectar_traffic`` is a view of the closed-form trial engine.
Every test holds three accounts of the same honest run against each
other, node by node: the independent per-edge BFS reference below, the
engine's view, and the round scheduler's measured traffic
(``nectar_cost_trial`` with the fast path switched off).  Together they
validate the model, the engine and the scheduler.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.core.complexity import TrafficPrediction, predict_nectar_traffic
from repro.core.nectar import nectar_round_count
from repro.crypto.sizes import COMPACT_PROFILE, DEFAULT_PROFILE, PAYLOAD_PROFILE
from repro.errors import ProtocolError
from repro.experiments.runner import nectar_cost_trial
from repro.graphs.generators.classic import (
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    star_graph,
    two_cliques_bridge,
)
from repro.graphs.generators.drone import drone_graph
from repro.graphs.generators.regular import harary_graph
from repro.graphs.generators.wheels import generalized_wheel
from repro.graphs.graph import Graph


TOPOLOGIES = [
    path_graph(6),
    cycle_graph(7),
    star_graph(8),
    complete_graph(6),
    grid_graph(3, 4),
    harary_graph(4, 12),
    two_cliques_bridge(4, bridges=2),
    generalized_wheel(14, 4),
    drone_graph(12, 2.0, 1.5, seed=3),
    Graph(5, [(0, 1), (2, 3)]),  # disconnected
    Graph(4, []),                # empty
]


# ----------------------------------------------------------------------
# The independent reference: one BFS per edge
# ----------------------------------------------------------------------
def _edge_discovery_rounds(graph, edge):
    """BFS distance from the endpoint set of ``edge`` to every node."""
    u, v = edge
    distances = {u: 0, v: 0}
    frontier = deque((u, v))
    while frontier:
        node = frontier.popleft()
        for neighbor in graph.neighbors(node):
            if neighbor not in distances:
                distances[neighbor] = distances[node] + 1
                frontier.append(neighbor)
    return distances


def _announcement_bytes(profile, chain_length):
    return profile.proof_bytes + 2 + chain_length * profile.chain_link_bytes


def _reference_traffic(graph, profile=DEFAULT_PROFILE, rounds=None):
    """Per-edge reference: endpoints announce in round 1; a node that
    discovers an edge at round r relays it in round r + 1 (chain of
    r + 1 links) to every neighbour but its smallest-id first
    deliverer; one envelope per non-empty (node, neighbour, round)."""
    if rounds is None:
        rounds = nectar_round_count(graph.n)
    bytes_sent = {v: 0 for v in graph.nodes()}
    messages_sent = {v: 0 for v in graph.nodes()}
    envelope_overhead = 2 + profile.envelope_header_bytes

    # Round 1: every node with neighbors batches its own edges to each
    # neighbor (no exclusions).
    for node in graph.nodes():
        degree = graph.degree(node)
        if degree == 0:
            continue
        batch_bytes = degree * _announcement_bytes(profile, 1) + envelope_overhead
        bytes_sent[node] += degree * batch_bytes
        messages_sent[node] += degree

    # Relays: per (node, relay round), collect the relayed entry bytes
    # and the per-neighbor exclusions.
    relayed_bytes = {}
    exclusion_hits = {}
    for edge in graph.edges():
        discovery = _edge_discovery_rounds(graph, edge)
        for node, round_discovered in discovery.items():
            if round_discovered == 0:
                continue  # endpoint: announced in round 1 already
            relay_round = round_discovered + 1
            if round_discovered > rounds or relay_round > rounds:
                continue  # learned too late to relay within the budget
            if graph.degree(node) <= 1:
                continue  # leaf: nobody left to relay to
            first_deliverer = min(
                neighbor
                for neighbor in graph.neighbors(node)
                if discovery.get(neighbor) == round_discovered - 1
            )
            key = (node, relay_round)
            relayed_bytes[key] = relayed_bytes.get(key, 0) + _announcement_bytes(
                profile, relay_round
            )
            hits = exclusion_hits.setdefault(key, {})
            hits[first_deliverer] = hits.get(first_deliverer, 0) + 1

    for (node, _round), entry_bytes_sum in relayed_bytes.items():
        degree = graph.degree(node)
        hits = exclusion_hits[(node, _round)]
        entry_count = sum(hits.values())
        # Each entry reaches degree - 1 neighbors; a neighbor receives
        # an envelope iff at least one entry is not excluded toward it,
        # i.e. unless every entry of the round came from that neighbor.
        recipients = degree
        for neighbor in graph.neighbors(node):
            if hits.get(neighbor, 0) == entry_count:
                recipients -= 1
        bytes_sent[node] += (
            (degree - 1) * entry_bytes_sum + recipients * envelope_overhead
        )
        messages_sent[node] += recipients
    return TrafficPrediction(bytes_sent=bytes_sent, messages_sent=messages_sent)


def _scheduled(graph, **kwargs):
    """``nectar_cost_trial`` on the round scheduler."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(perf.SCHEDULER_SWITCH, "1")
        return nectar_cost_trial(graph, **kwargs)


def _assert_three_accounts_agree(graph, profile=DEFAULT_PROFILE, rounds=None):
    """Reference ≡ engine view ≡ scheduler, node by node; returns the
    engine's view."""
    prediction = predict_nectar_traffic(graph, profile=profile, rounds=rounds)
    measured = _scheduled(graph, profile=profile, rounds=rounds).stats
    assert prediction == _reference_traffic(graph, profile, rounds)
    assert prediction == TrafficPrediction(
        bytes_sent={v: measured.bytes_sent.get(v, 0) for v in graph.nodes()},
        messages_sent={v: measured.messages_sent.get(v, 0) for v in graph.nodes()},
    )
    return prediction


@pytest.mark.parametrize("graph", TOPOLOGIES, ids=range(len(TOPOLOGIES)))
def test_prediction_matches_simulator_exactly(graph):
    _assert_three_accounts_agree(graph)


@pytest.mark.parametrize(
    "profile", [DEFAULT_PROFILE, COMPACT_PROFILE, PAYLOAD_PROFILE]
)
def test_prediction_matches_under_every_profile(profile):
    _assert_three_accounts_agree(harary_graph(4, 10), profile=profile)


def test_prediction_with_reduced_round_budget():
    graph = path_graph(8)  # diameter 7: the budget actually bites
    for rounds in (1, 2, 4, 7, 9):
        _assert_three_accounts_agree(graph, rounds=rounds)


@pytest.mark.parametrize("rounds", [0, -1])
def test_prediction_rejects_budgets_below_one_round(rounds):
    """A budget the scheduler refuses has no prediction either."""
    for graph in (path_graph(5), cycle_graph(6)):
        with pytest.raises(ProtocolError, match="at least one round is required"):
            predict_nectar_traffic(graph, rounds=rounds)
        with pytest.raises(ProtocolError, match="at least one round is required"):
            _scheduled(graph, rounds=rounds)


def test_mean_kb_helper():
    graph = cycle_graph(6)
    prediction = _assert_three_accounts_agree(graph)
    measured = _scheduled(graph)
    assert prediction.mean_kb_per_node() == pytest.approx(measured.mean_kb_sent())


def test_paper_scaling_claims():
    """Sec. IV-E qualitative claims, on the analytical model directly."""
    # More edges, more cost (same n).
    sparse = _assert_three_accounts_agree(harary_graph(2, 20)).total_bytes
    dense = _assert_three_accounts_agree(harary_graph(6, 20)).total_bytes
    assert dense > sparse
    # Lower diameter, lower cost at equal n and edge count: compare the
    # circulant Harary graph with the binary-chord pasted tree.
    from repro.graphs.generators.logharary import k_pasted_tree

    circulant = _assert_three_accounts_agree(harary_graph(6, 40))
    logarithmic = _assert_three_accounts_agree(k_pasted_tree(6, 40))
    assert logarithmic.total_bytes < circulant.total_bytes


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=2, max_value=10), st.data())
def test_prediction_matches_on_random_graphs(n, data):
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
    )
    rounds = data.draw(st.integers(min_value=1, max_value=n + 2))
    _assert_three_accounts_agree(Graph(n, edges), rounds=rounds)
