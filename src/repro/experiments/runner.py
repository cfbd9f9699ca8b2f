"""Trial execution: deployments, protocol wiring, ground truth.

A *trial* is one end-to-end run: build a deployment (keys, and
per-edge proofs that sign on first read) for a topology, instantiate
one protocol per node — honest or Byzantine — drive them on an
execution backend, and collect verdicts, traffic and ground truth.
Every node, honest or Byzantine, in a sweep cell or a mission epoch,
is built from its :class:`NodeSetup` by a :func:`protocol_factory`.
The registered figure sweeps of :mod:`repro.experiments.spec` are
built from these pieces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.adversary.behaviors import SilentNode
from repro.baselines.mtg import MtgNode, mtg_epoch_count
from repro.baselines.mtgv2 import Mtgv2Node, mtgv2_epoch_count
from repro.core.nectar import NectarNode, nectar_round_count
from repro.core.validation import ValidationMode
from repro.crypto import resolve_scheme
from repro.crypto.cache import CacheStats, VerificationCache
from repro.crypto.keys import KeyStore
from repro.crypto.proofs import NeighborhoodProof, make_proof
from repro.crypto.signer import HmacScheme, NullScheme, SignatureScheme
from repro.crypto.sizes import DEFAULT_PROFILE, WireProfile
from repro.errors import ExperimentError
from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.envspec import DEFAULT_ENVIRONMENT, EnvironmentSpec
from repro.graphs.analysis import correct_subgraph_partitioned
from repro.graphs.connectivity import vertex_connectivity
from repro.graphs.graph import Graph
from repro.net.asyncio_net import AsyncCluster
from repro.net.simulator import RoundProtocol, SyncNetwork
from repro.net.stats import TrafficStats
from repro import perf
from repro.types import Edge, GroundTruth, NodeId


@dataclass(frozen=True)
class NodeSetup:
    """Everything a protocol factory needs to build one node.

    Attributes:
        node_id: the node being built.
        n: system size.
        t: Byzantine bound declared to the protocol.
        graph: the real topology (factories must only use Γ(node_id)
            from it — correct protocols do not know G, Sec. II — but
            Byzantine factories may peek, modelling full-knowledge
            adversaries).
        key_store: all keys; honest factories take only their own pair.
        scheme: the deployment's signature scheme.
        profile: wire profile.
        neighbor_proofs: proofs for the node's real edges.
        validation_mode: validation mode for NECTAR nodes.
        connectivity_cutoff: decision-phase cutoff for NECTAR nodes.
        verification_cache: trial-wide memo for signature verification
            (None disables caching).  Sharing across nodes is safe —
            verification is deterministic — and lets each distinct
            signature be checked once per trial (DESIGN.md §6.1).
    """

    node_id: NodeId
    n: int
    t: int
    graph: Graph
    key_store: KeyStore
    scheme: SignatureScheme
    profile: WireProfile
    neighbor_proofs: Mapping[NodeId, NeighborhoodProof]
    validation_mode: ValidationMode
    connectivity_cutoff: int | None
    verification_cache: VerificationCache | None = None

    @property
    def neighbors(self) -> frozenset[NodeId]:
        """Γ(node_id)."""
        return frozenset(self.neighbor_proofs)


#: A factory turning a :class:`NodeSetup` into a protocol instance.
ProtocolFactory = Callable[[NodeSetup], RoundProtocol]


def protocol_factory(cls: type = NectarNode, **extra: Any) -> ProtocolFactory:
    """A factory building one ``cls`` node per setup.  Honest nodes,
    sweep attack coalitions and mission campaign coalitions all come
    from here.  Each class family takes its slice of the setup, then
    ``extra`` (a behaviour's knobs, such as ``silent_towards``):

    * :class:`NectarNode` and subclasses: the seven positional setup
      fields, plus the setup's validation mode, cutoff and cache;
    * :class:`Mtgv2Node` and subclasses: id, n, Γ, own key pair,
      scheme and directory;
    * :class:`MtgNode` and subclasses: id, n and Γ;
    * :class:`SilentNode`: the id.

    Raises:
        ExperimentError: for any other class.
    """
    if issubclass(cls, NectarNode):
        def build(setup: NodeSetup) -> RoundProtocol:
            return cls(
                setup.node_id,
                setup.n,
                setup.t,
                setup.key_store.key_pair_of(setup.node_id),
                setup.scheme,
                setup.key_store.directory,
                setup.neighbor_proofs,
                validation_mode=setup.validation_mode,
                connectivity_cutoff=setup.connectivity_cutoff,
                verification_cache=setup.verification_cache,
                **extra,
            )

    elif issubclass(cls, Mtgv2Node):
        def build(setup: NodeSetup) -> RoundProtocol:
            return cls(
                setup.node_id,
                setup.n,
                setup.neighbors,
                setup.key_store.key_pair_of(setup.node_id),
                setup.scheme,
                setup.key_store.directory,
                **extra,
            )

    elif issubclass(cls, MtgNode):
        def build(setup: NodeSetup) -> RoundProtocol:
            return cls(setup.node_id, setup.n, setup.neighbors, **extra)

    elif issubclass(cls, SilentNode):
        def build(setup: NodeSetup) -> RoundProtocol:
            return cls(setup.node_id, **extra)

    else:
        raise ExperimentError(f"protocol_factory cannot build {cls.__name__}")
    return build


#: The honest factories: correct nodes take only their own key pair
#: and Γ(i) from the setup.
honest_nectar_factory = protocol_factory(NectarNode)
honest_mtg_factory = protocol_factory(MtgNode)
honest_mtgv2_factory = protocol_factory(Mtgv2Node)


#: protocol name -> honest factory, the registry the declarative spec
#: layer (:mod:`repro.experiments.spec`) resolves ``TrialSpec.protocol``
#: against.  Factories are referenced by name so trial specs stay plain
#: picklable data.
HONEST_FACTORIES: dict[str, ProtocolFactory] = {
    "nectar": honest_nectar_factory,
    "mtg": honest_mtg_factory,
    "mtgv2": honest_mtgv2_factory,
}


@dataclass(frozen=True)
class Deployment:
    """Keys and proofs for one topology (the out-of-band setup phase).

    The proofs come from :func:`~repro.crypto.proofs.make_proof`, with
    ``scheme`` and the key store's key pairs, so each signs the first
    time a trial reads it: trials that never read a signature never
    compute one.  Pickling keeps it that way (:meth:`__reduce__`).
    """

    graph: Graph
    key_store: KeyStore
    scheme: SignatureScheme
    proofs: Mapping[Edge, NeighborhoodProof]

    def proofs_of(self, node_id: NodeId) -> dict[NodeId, NeighborhoodProof]:
        """Neighbor-keyed proofs for one node."""
        result = {}
        for neighbor in self.graph.neighbors(node_id):
            edge = (node_id, neighbor) if node_id < neighbor else (neighbor, node_id)
            result[neighbor] = self.proofs[edge]
        return result

    def __reduce__(self):
        # Pickling a proof signs it, and a pool worker's artifact delta
        # pickles every deployment it built (DESIGN.md §9.2).  So a
        # signed proof travels as it is and an unsigned one as its edge
        # alone, re-made on load from the key store, which already
        # carries the key pairs.
        proofs = tuple(
            (edge, proof if proof.is_signed() else None)
            for edge, proof in self.proofs.items()
        )
        return _load_deployment, (self.graph, self.key_store, self.scheme, proofs)


def _load_deployment(graph, key_store, scheme, proofs) -> Deployment:
    """Unpickle a :class:`Deployment`, re-making each proof that was
    shipped unsigned (as None)."""
    return Deployment(
        graph,
        key_store,
        scheme,
        {
            edge: proof or make_proof(scheme, *map(key_store.key_pair_of, edge))
            for edge, proof in proofs
        },
    )


def _fresh_deployment(
    graph: Graph, scheme: SignatureScheme, seed: int, artifacts: bool
) -> Deployment:
    """Build a deployment from scratch (the deployment store's builder)."""
    if artifacts:
        key_store = ARTIFACTS.key_store(
            scheme,
            graph.nodes(),
            seed,
            lambda: KeyStore(scheme, graph.nodes(), seed=seed),
        )
        scheme = key_store.scheme
    else:
        key_store = KeyStore(scheme, graph.nodes(), seed=seed)
    proofs = {
        edge: make_proof(
            scheme, key_store.key_pair_of(edge[0]), key_store.key_pair_of(edge[1])
        )
        for edge in sorted(graph.edges())
    }
    return Deployment(graph=graph, key_store=key_store, scheme=scheme, proofs=proofs)


def build_deployment(
    graph: Graph,
    scheme: SignatureScheme | None = None,
    seed: int = 0,
    artifacts: bool = False,
) -> Deployment:
    """Generate keys and per-edge neighborhood proofs for a topology.

    Each proof signs on first read (:func:`~repro.crypto.proofs.make_proof`).

    Args:
        artifacts: consult the sweep-scoped deployment store
            (DESIGN.md §9.1): the full deployment — key material for
            ``(scheme, node ids, seed)`` *and* the per-edge
            neighborhood proofs — is generated once per process per
            ``(graph, scheme, seed)`` and reused, so each proof signs
            at most once per process; safe because both keygen and
            proof signing are pure functions of that key.
            The deployment then carries the *pool's* scheme instance
            (stateful schemes keep their verification directory on the
            instance that generated the keys).  Schemes without a
            fingerprint skip the store (fresh deployment, as before).
    """
    if scheme is None:
        scheme = HmacScheme()
    if artifacts:
        return ARTIFACTS.deployment(
            graph,
            scheme,
            seed,
            lambda: _fresh_deployment(graph, scheme, seed, artifacts=True),
        )
    return _fresh_deployment(graph, scheme, seed, artifacts=False)


@dataclass(frozen=True)
class TrialResult:
    """Outcome of one trial."""

    verdicts: Mapping[NodeId, Any]
    byzantine: frozenset[NodeId]
    stats: TrafficStats
    ground_truth: GroundTruth | None
    rounds: int
    #: Verification-cache counters (None when caching was disabled).
    cache_stats: CacheStats | None = None
    #: Rounds actually iterated; < ``rounds`` when the network went
    #: quiescent early (sync backend only; None on the async backend).
    rounds_executed: int | None = None

    @property
    def correct_verdicts(self) -> dict[NodeId, Any]:
        """Verdicts of correct nodes only (what the spec talks about)."""
        return {
            node: verdict
            for node, verdict in self.verdicts.items()
            if node not in self.byzantine
        }

    def mean_kb_sent(self) -> float:
        """Average KB sent per node over the whole deployment."""
        return self.stats.mean_kb_sent(self.verdicts.keys())


def compute_ground_truth(
    graph: Graph,
    t: int,
    byzantine: frozenset[NodeId],
    connectivity_cutoff: int | None = None,
    artifacts: bool = False,
) -> GroundTruth:
    """Reference facts for accuracy evaluation.

    Args:
        connectivity_cutoff: optional truncation for the κ computation;
            any value above ``t`` keeps ``byzantine_partitionable``
            exact (and values >= 2t + 1 keep the sensitivity analysis
            exact).  ``GroundTruth.connectivity`` is then min(κ, cutoff).
        artifacts: serve κ from the sweep-scoped connectivity
            certificate store (DESIGN.md §9.1), keyed by the graph's
            content digest — the sweeps that score three protocols on
            the same scenario graph pay for the max-flow work once.
    """
    if connectivity_cutoff is not None and connectivity_cutoff <= t:
        raise ExperimentError("ground-truth cutoff must exceed t")
    if artifacts:
        kappa = ARTIFACTS.connectivity(
            graph,
            connectivity_cutoff,
            lambda: vertex_connectivity(graph, cutoff=connectivity_cutoff),
        )
    else:
        kappa = vertex_connectivity(graph, cutoff=connectivity_cutoff)
    return GroundTruth(
        n=graph.n,
        t=t,
        byzantine=byzantine,
        connectivity=kappa,
        graph_partitioned=not graph.is_connected(),
        correct_subgraph_partitioned=correct_subgraph_partitioned(graph, byzantine),
        byzantine_partitionable=kappa <= t,
    )


def closed_form_admits(env: EnvironmentSpec) -> bool:
    """Whether trials in ``env`` may take the closed form (DESIGN.md
    §15): the sync backend, with the scheduler switch unset.  The
    switch is read on every call, so it may be set after import."""
    return env.backend == "sync" and not perf.scheduler_forced()


def run_trial(
    graph: Graph,
    t: int = 0,
    byzantine_factories: Mapping[NodeId, ProtocolFactory] | None = None,
    honest_factory: ProtocolFactory = honest_nectar_factory,
    rounds: int | None = None,
    scheme: SignatureScheme | None = None,
    profile: WireProfile = DEFAULT_PROFILE,
    validation_mode: ValidationMode = ValidationMode.FULL,
    connectivity_cutoff: int | None = None,
    seed: int = 0,
    with_ground_truth: bool = True,
    ground_truth_cutoff: int | None = None,
    verification_cache: bool | VerificationCache = True,
    env: EnvironmentSpec = DEFAULT_ENVIRONMENT,
) -> TrialResult:
    """Run one complete trial.

    The trial runs on the closed form when it admits it (DESIGN.md
    §15), else on the backend ``env.backend`` names: a
    :class:`~repro.net.simulator.SyncNetwork` or an
    :class:`~repro.net.asyncio_net.AsyncCluster`, built here with the
    environment's channel model attached (DESIGN.md §8).

    Args:
        graph: the topology G.
        t: declared Byzantine bound.
        byzantine_factories: protocol factory per Byzantine node.
        honest_factory: factory for correct nodes (one of the
            ``honest_*_factory`` helpers or a custom one).
        rounds: round/epoch count; defaults to n - 1.
        scheme: signature scheme; defaults to :class:`HmacScheme`.
        profile: wire profile for byte accounting.
        validation_mode: NECTAR validation mode.  ACCOUNTING is
            rejected when Byzantine nodes are present.
            ``env.validation`` overrides this when set.
        connectivity_cutoff: NECTAR decision cutoff (must exceed t).
        seed: deployment seed (keys); also seeds the channel state.
        with_ground_truth: compute the :class:`GroundTruth` record.
        ground_truth_cutoff: κ truncation for the ground truth.
        verification_cache: ``True`` (default) shares one
            :class:`VerificationCache` across all NECTAR nodes of the
            trial that :func:`protocol_factory` builds, honest and
            Byzantine; ``False`` disables caching (the historical
            uncached behaviour), or pass an instance to reuse/observe
            one.  Equivalence-tested: verdicts and traffic are
            identical either way (DESIGN.md §6.1).  ``env.cache=False``
            forces it off.
        env: the execution environment: backend (``sync`` lock-step
            or ``async`` asyncio with real bytes through the codec),
            channel model (message loss, sync backend only: the paper's
            model assumes reliable channels), validation, scheme,
            cache and quiescence knobs.

    Raises:
        ExperimentError: on inconsistent parameters.
    """
    env.validate()
    if env.validation:
        validation_mode = ValidationMode(env.validation)
    if env.scheme:
        scheme = resolve_scheme(env.scheme)
    if not env.cache:
        verification_cache = False
    byzantine_factories = dict(byzantine_factories or {})
    byzantine = frozenset(byzantine_factories)
    if byzantine and len(byzantine) > t:
        raise ExperimentError(
            f"{len(byzantine)} Byzantine nodes exceed the declared bound t={t}"
        )
    if byzantine and validation_mode is ValidationMode.ACCOUNTING:
        raise ExperimentError(
            "ACCOUNTING validation must not be used in adversarial runs"
        )
    if byzantine and isinstance(scheme, NullScheme):
        raise ExperimentError("NullScheme must not be used in adversarial runs")
    deployment = build_deployment(
        graph, scheme=scheme, seed=seed, artifacts=env.artifacts
    )
    if verification_cache is True:
        cache: VerificationCache | None = VerificationCache()
    elif verification_cache is False:
        cache = None
    else:
        cache = verification_cache
    protocols: dict[NodeId, RoundProtocol] = {}
    for node_id in graph.nodes():
        setup = NodeSetup(
            node_id=node_id,
            n=graph.n,
            t=t,
            graph=graph,
            key_store=deployment.key_store,
            scheme=deployment.scheme,
            profile=profile,
            neighbor_proofs=deployment.proofs_of(node_id),
            validation_mode=validation_mode,
            connectivity_cutoff=connectivity_cutoff,
            verification_cache=cache,
        )
        factory = byzantine_factories.get(node_id, honest_factory)
        protocols[node_id] = factory(setup)
    if rounds is None:
        rounds = nectar_round_count(graph.n)
    channel = env.channel_model()
    fast = None
    if rounds >= 1 and closed_form_admits(env):
        from repro.perf import fastpath

        fast = fastpath.try_run_trial(
            graph,
            protocols,
            profile=profile,
            channel=channel,
            seed=seed,
            rounds=rounds,
            quiescence_skip=env.quiescence_skip,
        )
    if fast is not None:
        verdicts, stats, rounds_executed = fast
    elif env.backend == "sync":
        network = SyncNetwork(
            graph,
            protocols,
            profile=profile,
            channel=channel,
            loss_seed=seed,
            quiescence_skip=env.quiescence_skip,
        )
        verdicts = network.run(rounds)
        stats = network.stats
        rounds_executed = network.rounds_executed
    else:
        cluster = AsyncCluster(
            graph, protocols, profile=profile, channel=channel, seed=seed
        )
        verdicts = cluster.run(rounds)
        stats = cluster.stats
        rounds_executed = None
    truth = None
    if with_ground_truth:
        truth = compute_ground_truth(
            graph,
            t,
            byzantine,
            connectivity_cutoff=ground_truth_cutoff,
            artifacts=env.artifacts,
        )
    return TrialResult(
        verdicts=verdicts,
        byzantine=byzantine,
        stats=stats,
        ground_truth=truth,
        rounds=rounds,
        cache_stats=cache.stats if cache is not None else None,
        rounds_executed=rounds_executed,
    )


def nectar_cost_trial(
    graph: Graph,
    profile: WireProfile = DEFAULT_PROFILE,
    rounds: int | None = None,
    seed: int = 0,
    validation_mode: ValidationMode = ValidationMode.ACCOUNTING,
    env: EnvironmentSpec = DEFAULT_ENVIRONMENT,
    batching: bool = True,
) -> TrialResult:
    """Adversary-free NECTAR run tuned for cost sweeps (Figs. 3-7).

    By default uses the accounting scheme and validation mode: byte
    counts are identical to a fully verified run, but no signature
    computation happens, which keeps the n = 100 sweeps tractable.
    Pass ``validation_mode=ValidationMode.FULL`` (or run with
    ``env.validation="full"``) to pay for real HMAC signatures end to
    end (byte accounting still comes from ``profile`` and is
    unchanged); the shared verification cache keeps that tractable too
    (DESIGN.md §6.1).  ``batching=False`` sends one envelope per
    announcement (DESIGN.md §5.3).
    """
    if env.validation:
        validation_mode = ValidationMode(env.validation)
    if validation_mode is ValidationMode.ACCOUNTING:
        scheme: SignatureScheme = NullScheme(signature_size=profile.signature_bytes)
    else:
        scheme = HmacScheme()
    return run_trial(
        graph,
        t=0,
        honest_factory=protocol_factory(NectarNode, batching=batching),
        rounds=rounds,
        scheme=scheme,
        profile=profile,
        validation_mode=validation_mode,
        connectivity_cutoff=1,
        seed=seed,
        with_ground_truth=False,
        env=env,
    )


def baseline_cost_trial(
    graph: Graph,
    protocol: str,
    profile: WireProfile = DEFAULT_PROFILE,
    rounds: int | None = None,
    seed: int = 0,
    env: EnvironmentSpec = DEFAULT_ENVIRONMENT,
) -> TrialResult:
    """Adversary-free MtG/MtGv2 run for the cost sweeps.

    Args:
        protocol: ``"mtg"`` or ``"mtgv2"``.
    """
    if protocol == "mtg":
        factory = honest_mtg_factory
        default_rounds = mtg_epoch_count(graph.n)
    elif protocol == "mtgv2":
        factory = honest_mtgv2_factory
        default_rounds = mtgv2_epoch_count(graph.n)
    else:
        raise ExperimentError(f"unknown baseline {protocol!r}")
    return run_trial(
        graph,
        t=0,
        honest_factory=factory,
        rounds=rounds if rounds is not None else default_rounds,
        scheme=NullScheme(signature_size=profile.signature_bytes),
        profile=profile,
        seed=seed,
        with_ground_truth=False,
        env=env,
    )
