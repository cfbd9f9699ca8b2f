"""Property-based tests of Def. 3 — the paper's correctness theorem.

For random graphs, random Byzantine placements and random Byzantine
*behaviours* drawn from the attack library, every run must satisfy:

* Termination — every correct node decides (the run completes);
* Agreement — all correct nodes decide the same value (Lemmas 2-3);
* Safety — if V_b is a vertex cut of G, no correct node decides
  NOT_PARTITIONABLE (Lemma 3);
* 2t-Sensitivity — if κ(G) >= 2t, all correct nodes decide
  NOT_PARTITIONABLE (Lemma 1);
* Validity — confirmed = True at any correct node implies V_b is a
  vertex cut (Theorem 2).

These are checked against ground truth computed on the *real* graph,
which no protocol instance ever sees, on both trial engines: every
draw runs once on the default engine (the closed-form fast path when
the coalition is eligible) and once on the scalar scheduler, and the
two must reach identical verdicts.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import perf
from repro.adversary.behaviors import (
    BadAggregatorNectarNode,
    CollusionTracker,
    EdgeConcealingNectarNode,
    EquivocatingNectarNode,
    FictitiousEdgeNectarNode,
    ForgingNectarNode,
    JunkInjectorNode,
    OverChainedNectarNode,
    SilentNode,
    SleeperNectarNode,
    StaleChainNectarNode,
    TwoFacedNectarNode,
)
from repro.core.decision import clear_connectivity_cache
from repro.experiments.accuracy import agreement_holds, validity_holds
from repro.experiments.runner import (
    NodeSetup,
    compute_ground_truth,
    honest_nectar_factory,
    run_trial,
)
from repro.graphs.graph import Graph
from repro.types import Decision

BEHAVIOUR_NAMES = (
    "correct",
    "silent",
    "two-faced",
    "conceal",
    "stale-chain",
    "over-chain",
    "junk",
    "fictitious",
    "forge",
    # campaign behaviours (repro.adversary.campaign profiles): the
    # correct-acting shape that found the Validity bug, plus the
    # coordinated-deception pair.
    "sleeper",
    "equivocate",
    "bad-aggregator",
)


def _nectar_args(setup: NodeSetup) -> tuple:
    return (
        setup.node_id,
        setup.n,
        setup.t,
        setup.key_store.key_pair_of(setup.node_id),
        setup.scheme,
        setup.key_store.directory,
        setup.neighbor_proofs,
    )


def make_factory(name: str, byzantine: frozenset[int], salt: int):
    """Build a protocol factory for one Byzantine behaviour."""

    def factory(setup: NodeSetup):
        correct = sorted(set(range(setup.n)) - byzantine)
        if name == "correct":
            return honest_nectar_factory(setup)
        if name == "silent":
            return SilentNode(setup.node_id)
        if name == "two-faced":
            muted = frozenset(correct[: (salt % (len(correct) + 1))])
            return TwoFacedNectarNode(*_nectar_args(setup), silent_towards=muted)
        if name == "conceal":
            neighbors = sorted(setup.neighbors)
            concealed = frozenset(neighbors[: (salt % (len(neighbors) + 1))])
            return EdgeConcealingNectarNode(
                *_nectar_args(setup), concealed=concealed
            )
        if name == "stale-chain":
            return StaleChainNectarNode(*_nectar_args(setup))
        if name == "over-chain":
            return OverChainedNectarNode(*_nectar_args(setup))
        if name == "junk":
            return JunkInjectorNode(setup.node_id, setup.neighbors, seed=salt)
        if name == "fictitious":
            partners = sorted(byzantine - {setup.node_id})
            if not partners:
                return honest_nectar_factory(setup)
            partner = partners[salt % len(partners)]
            return FictitiousEdgeNectarNode(
                *_nectar_args(setup),
                partner_key=setup.key_store.key_pair_of(partner),
            )
        if name == "forge":
            victims = [v for v in correct if v != setup.node_id]
            if not victims:
                return honest_nectar_factory(setup)
            return ForgingNectarNode(
                *_nectar_args(setup), victim=victims[salt % len(victims)]
            )
        if name == "sleeper":
            return SleeperNectarNode(*_nectar_args(setup))
        if name == "equivocate":
            # The tracker is a pure function of the correct set, so
            # every coalition member rebuilds the *same* half split —
            # coordinated equivocation without object sharing across
            # the per-node factories.
            tracker = CollusionTracker(correct, seed=0)
            return EquivocatingNectarNode(*_nectar_args(setup), tracker=tracker)
        if name == "bad-aggregator":
            victims = frozenset(correct[: (salt % (len(correct) + 1))])
            return BadAggregatorNectarNode(*_nectar_args(setup), victims=victims)
        raise AssertionError(f"unknown behaviour {name}")

    return factory


@st.composite
def adversarial_runs(draw):
    """A random (graph, t, byzantine behaviours, salt) tuple."""
    n = draw(st.integers(min_value=3, max_value=8))
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(
        st.lists(st.sampled_from(possible), max_size=len(possible), unique=True)
    )
    graph = Graph(n, edges)
    t = draw(st.integers(min_value=0, max_value=min(2, n - 2)))
    byzantine = frozenset(
        draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                max_size=t,
                unique=True,
            )
        )
    )
    behaviours = {
        b: draw(st.sampled_from(BEHAVIOUR_NAMES)) for b in sorted(byzantine)
    }
    salt = draw(st.integers(min_value=0, max_value=1000))
    return graph, t, byzantine, behaviours, salt


def _assert_definition_3(graph, t, correct_verdicts, truth):
    """The five properties of Def. 3 on one run's correct verdicts."""
    # Termination: every correct node produced a verdict.
    assert set(correct_verdicts) == set(truth.correct_nodes)

    # Agreement: all correct nodes decide the same value.
    assert agreement_holds(correct_verdicts), (
        f"agreement violated: "
        f"{[(v, verdict.decision) for v, verdict in correct_verdicts.items()]}"
    )

    # Safety: a vertex cut of Byzantine nodes forbids NOT_PARTITIONABLE.
    if truth.correct_subgraph_partitioned:
        assert all(
            verdict.decision is Decision.PARTITIONABLE
            for verdict in correct_verdicts.values()
        ), "safety violated: NOT_PARTITIONABLE despite a Byzantine vertex cut"

    # 2t-Sensitivity: high connectivity forces NOT_PARTITIONABLE.
    if graph.is_connected() and truth.connectivity >= 2 * t:
        assert all(
            verdict.decision is Decision.NOT_PARTITIONABLE
            for verdict in correct_verdicts.values()
        ), (
            f"sensitivity violated: κ={truth.connectivity} >= 2t={2 * t} "
            f"but some node decided PARTITIONABLE"
        )

    # Validity: confirmed=True implies an actual cut.
    assert validity_holds(correct_verdicts, truth)


@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(adversarial_runs())
# Committed falsifying/sentinel examples, so CI deterministically
# replays the shapes that matter instead of hoping the random draw
# rediscovers them.  First: the path-graph counterexample that broke
# Validity (correct-acting sleeper + silent colluder, missing set
# within budget).
@example(
    (
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
        2,
        frozenset({0, 1}),
        {0: "sleeper", 1: "silent"},
        0,
    )
)
# A sleeper pair on a cycle: full budget spent on nodes that never
# misbehave — nothing may be reported.
@example(
    (
        Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
        2,
        frozenset({1, 3}),
        {1: "sleeper", 3: "sleeper"},
        3,
    )
)
# A coordinated equivocating coalition bridging two halves.
@example(
    (
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (0, 3)]),
        2,
        frozenset({0, 3}),
        {0: "equivocate", 3: "equivocate"},
        7,
    )
)
# A bad aggregator sitting on the only bridge of a path graph.
@example(
    (
        Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        1,
        frozenset({2}),
        {2: "bad-aggregator"},
        11,
    )
)
def test_definition_3_properties(run):
    graph, t, byzantine, behaviours, salt = run
    factories = {
        b: make_factory(name, byzantine, salt + b)
        for b, name in behaviours.items()
    }

    def trial():
        clear_connectivity_cache()
        return run_trial(
            graph,
            t=t,
            byzantine_factories=factories,
            with_ground_truth=False,
            seed=salt,
        )

    truth = compute_ground_truth(graph, t, byzantine)
    default = trial()
    with perf.force_kernels(False):
        scheduler = trial()
    for result in (default, scheduler):
        _assert_definition_3(graph, t, result.correct_verdicts, truth)
    assert default.verdicts == scheduler.verdicts


@settings(max_examples=25, deadline=None)
@given(adversarial_runs())
def test_forged_edges_never_enter_correct_views(run):
    """No announcement involving a non-consenting correct node's fake
    edge survives validation, whatever the adversary does."""
    graph, t, byzantine, behaviours, salt = run
    clear_connectivity_cache()
    factories = {
        b: make_factory("forge", byzantine, salt + b) for b in behaviours
    }
    # Track views by running with honest protocol objects we can inspect.
    from repro.experiments.runner import build_deployment
    from repro.net.simulator import SyncNetwork
    from repro.core.nectar import NectarNode, nectar_round_count
    from repro.core.validation import ValidationMode
    from repro.crypto.sizes import DEFAULT_PROFILE

    deployment = build_deployment(graph, seed=salt)
    protocols = {}
    for v in graph.nodes():
        setup = NodeSetup(
            node_id=v,
            n=graph.n,
            t=t,
            graph=graph,
            key_store=deployment.key_store,
            scheme=deployment.scheme,
            profile=DEFAULT_PROFILE,
            neighbor_proofs=deployment.proofs_of(v),
            validation_mode=ValidationMode.FULL,
            connectivity_cutoff=None,
        )
        if v in factories:
            protocols[v] = factories[v](setup)
        else:
            protocols[v] = honest_nectar_factory(setup)
    SyncNetwork(graph, protocols).run(nectar_round_count(graph.n))
    real_edges = graph.edges()
    for v in graph.nodes():
        if v in byzantine:
            continue
        node = protocols[v]
        assert isinstance(node, NectarNode)
        for edge in node.discovered.edges():
            # Every discovered edge involving a correct endpoint must
            # be real; only Byzantine-Byzantine edges may be invented.
            if edge not in real_edges:
                assert edge[0] in byzantine and edge[1] in byzantine
