"""Declarative experiment specs: one composable layer behind every
trial, sweep and figure (DESIGN.md §7).

The experiment definition layer used to be thirteen hand-written
functions that each re-plumbed seeds, scale presets and worker counts
by hand.  This module replaces that with *data*:

* :class:`TopologySpec` — where a trial runs: a named topology family,
  a drone deployment, or one of the Sec. V-D attack scenarios.
* :class:`TrialSpec` — one fully-described trial: topology × protocol
  × adversary × environment × knobs (wire profile, rounds, batching,
  spammers).  Protocols, adversaries, profiles, channel models and
  backends are referenced *by name* through plain tables, so a spec is
  plain picklable data and can cross process boundaries, be hashed,
  or be written to JSON.  The environment
  (:class:`~repro.experiments.envspec.EnvironmentSpec`, DESIGN.md §8)
  is addressable on every sweep as ``env.*`` axes
  (``--set env.loss_rate=0.4``, ``--set env.backend=async``).
* :func:`execute_trial` — the single module-level cell executor every
  sweep shards through :func:`repro.experiments.parallel.parallel_map`.
* :class:`SweepSpec` — a registered figure: named axes with reduced-
  and paper-scale presets (replacing ad-hoc ``REPRO_FULL`` checks), a
  plan builder that expands resolved axes into ordered cell groups,
  and a capability set, read off the axes, that the CLI surfaces
  instead of sniffing function signatures.
* :class:`SweepEngine` — resolves a spec against a scale and axis
  overrides, executes all cells through the shared executor (``workers``
  shards *every* sweep, including ``connectivity-resilience`` and
  ``topology-comparison``, which used to be serial), and assembles the
  :class:`~repro.experiments.report.FigureData`.

Every paper artefact is one :data:`FIGURE_SPECS` id, run by
:func:`run_figure` (or ``repro figure <id>``) with axis overrides; the
golden-row suite in ``tests/test_spec.py`` pins its rows bit-identical
to the pre-spec implementations for any worker count.

Seeds: registered figures use ``seed_mode="index"`` (trial index is
the seed — the historical, equivalence-pinned behaviour).  New sweeps
can opt into ``seed_mode="hashed"``, which derives statistically
independent per-trial seeds via
:func:`repro.experiments.parallel.trial_seeds`.
"""

from __future__ import annotations

import contextlib
import os
import pathlib
import socket
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from repro.adversary.behaviors import (
    MIXED_ADVERSARY_CYCLE,
    SaturatingMtgNode,
    SilentNode,
    SpamNectarNode,
    TwoFacedMtgv2Node,
    TwoFacedNectarNode,
)
from repro.core.complexity import predict_nectar_traffic
from repro.core.decision import clear_connectivity_cache
from repro.core.validation import ValidationMode
from repro.crypto.sizes import (
    COMPACT_PROFILE,
    DEFAULT_PROFILE,
    ECDSA_PROFILE,
    PAYLOAD_PROFILE,
    WireProfile,
)
from repro.errors import ExperimentError
from repro.experiments.accuracy import success_rate
from repro.experiments.artifacts import (
    ARTIFACTS,
    artifact_key,
    install_artifacts,
)
from repro.experiments.envspec import (
    DEFAULT_ENVIRONMENT,
    EnvironmentSpec,
    environment_axis_names,
    environment_from_overrides,
)
from repro.experiments.parallel import colocation_chunks, parallel_map, trial_seeds
from repro.experiments.persistence import spec_digest
from repro.experiments.report import FigureData
from repro.experiments.runner import (
    HONEST_FACTORIES,
    baseline_cost_trial,
    closed_form_admits,
    nectar_cost_trial,
    protocol_factory,
    run_trial,
)
from repro.experiments.scenarios import (
    BridgedPartitionScenario,
    bridged_partition_scenario,
    build_topology,
    saturation_partition_scenario,
    split_topology_scenario,
)
from repro.graphs.analysis import diameter
from repro.graphs.generators.drone import drone_graph
from repro.graphs.graph import Graph


def paper_scale() -> bool:
    """Whether paper-scale sweeps were requested (REPRO_FULL=1)."""
    return os.environ.get("REPRO_FULL", "") == "1"


# ----------------------------------------------------------------------
# Name tables: profiles, protocols, adversaries
# ----------------------------------------------------------------------
#: wire-profile name -> profile; ``TrialSpec.profile`` resolves here.
PROFILES: dict[str, WireProfile] = {
    "ecdsa": ECDSA_PROFILE,
    "compact": COMPACT_PROFILE,
    "payload": PAYLOAD_PROFILE,
}


def profile_name(profile: WireProfile | str) -> str:
    """The :data:`PROFILES` name of a profile (accepts a name or an
    instance).

    Raises:
        ExperimentError: for an unknown name, or an instance that is
            not in :data:`PROFILES`.
    """
    if isinstance(profile, str):
        if profile not in PROFILES:
            raise ExperimentError(
                f"unknown wire profile {profile!r}; known: {sorted(PROFILES)}"
            )
        return profile
    registered = PROFILES.get(profile.name)
    if registered is None or registered != profile:
        raise ExperimentError(
            f"wire profile {profile.name!r} is not registered; "
            f"known: {sorted(PROFILES)}"
        )
    return profile.name


def _resolve_profile(name: str) -> WireProfile:
    """Look up a profile name at execution time, with a real error
    rather than a bare ``KeyError`` from inside the pool."""
    profile = PROFILES.get(name)
    if profile is None:
        raise ExperimentError(
            f"unknown wire profile {name!r}; known: {sorted(PROFILES)}"
        )
    return profile


#: protocol names accepted by ``TrialSpec.protocol``.
PROTOCOLS: tuple[str, ...] = tuple(sorted(HONEST_FACTORIES))

#: adversary names accepted by ``TrialSpec.adversary``; "" means an
#: adversary-free cost trial.  ``"mixed"`` is the heterogeneous
#: coalition: bridge nodes cycle through
#: :data:`repro.adversary.behaviors.MIXED_ADVERSARY_CYCLE` behaviours.
ADVERSARIES: tuple[str, ...] = ("", "two-faced", "saturating", "spam", "mixed")


# ----------------------------------------------------------------------
# TopologySpec / TrialSpec
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class TopologySpec:
    """Where a trial runs.

    Attributes:
        kind: one of

            * ``"family"`` — a registered topology family
              (:data:`repro.experiments.scenarios.TOPOLOGY_FAMILIES`),
              built as ``build_topology(family, n, k, seed)``;
            * ``"drone"`` — the Figs. 4-7 drone deployment,
              ``drone_graph(n, distance, radius, seed)``;
            * ``"bridged-drone"`` — the Fig. 8 bridged-partition attack
              scenario (two drone scatters, ``t`` Byzantine bridges);
            * ``"split"`` — the Sec. V-D split-topology attack scenario
              on family ``family``;
            * ``"partitioned-drone"`` — the MtG saturation deployment
              (partitioned drone graph, balanced Byzantine placement).
        n: node count (total, Byzantine included where applicable).
        k: connectivity parameter for family-based kinds.
        family: family name for ``"family"`` / ``"split"``.
        t: Byzantine count for the scenario kinds.
        distance: barycenter distance for ``"drone"``.
        radius: radio range for the drone-based kinds.
        seed: construction seed.
    """

    kind: str
    n: int
    k: int = 0
    family: str = ""
    t: int = 0
    distance: float = 0.0
    radius: float = 1.2
    seed: int = 0

    def build(self) -> Graph:
        """The topology graph (non-scenario kinds)."""
        if self.kind == "family":
            return build_topology(self.family, self.n, self.k, seed=self.seed)
        if self.kind == "drone":
            return drone_graph(self.n, self.distance, self.radius, seed=self.seed)
        raise ExperimentError(
            f"topology kind {self.kind!r} needs build_scenario(), not build()"
        )

    def build_scenario(self) -> BridgedPartitionScenario:
        """The attack scenario (``bridged-drone`` / ``split`` kinds)."""
        if self.kind == "bridged-drone":
            return bridged_partition_scenario(
                self.n, self.t, radius=self.radius, seed=self.seed
            )
        if self.kind == "split":
            return split_topology_scenario(
                self.family, self.n, self.t, self.k, seed=self.seed
            )
        raise ExperimentError(f"topology kind {self.kind!r} is not a scenario")

    def build_artifact(self):
        """The constructed artifact for *any* kind: graph or scenario.

        What the artifact layer interns (DESIGN.md §9.1): plain
        topologies for the ``build()`` kinds, the full deployment for
        the scenario kinds — scenario construction is the expensive
        part (bridging RNG, split surgery), so interning the finished
        object saves the per-cell rebuild.
        """
        if self.kind in ("family", "drone"):
            return self.build()
        if self.kind == "partitioned-drone":
            return saturation_partition_scenario(
                self.n, self.t, self.radius, seed=self.seed
            )
        return self.build_scenario()

    def artifact_key(self) -> str:
        """The content address interned artifacts live under.

        Covers *every* field (via ``dataclasses.asdict``), so mutating
        any parameter of the spec — including ones a particular kind
        happens to ignore — changes the key; stale reuse is impossible
        by construction (``tests/test_artifacts.py`` pins this as a
        property test).
        """
        return artifact_key({"topology": asdict(self)})


@dataclass(frozen=True)
class TrialSpec:
    """One fully-declarative trial.

    Every field is a plain picklable value; protocols, adversaries and
    wire profiles are referenced by name.  The single cell
    executor :func:`execute_trial` interprets a spec; sweeps shard
    lists of specs over worker processes, so a spec must carry *all*
    the randomness of its trial in explicit seeds.

    Attributes:
        topology: where the trial runs.
        protocol: honest protocol under measurement
            (:data:`PROTOCOLS`).
        adversary: Byzantine behaviour (:data:`ADVERSARIES`); ""
            runs an adversary-free cost trial.
        seed: deployment/run seed.
        profile: wire-profile name (:data:`PROFILES`).
        rounds: round budget; 0 uses the protocol default.
        batching: NECTAR per-round envelope batching (cost trials).
        spammers: Byzantine announcement spammers (``adversary="spam"``).
        measure: the scalar extracted from the trial —
            ``"mean-kb-sent"``, ``"correct-kb-sent"`` or
            ``"success-rate"``.
        env: the execution environment — channel model × backend ×
            validation/cache/quiescence knobs (DESIGN.md §8).  The
            default is the paper's model (reliable synchronous
            channels) and executes bit-identically to the
            pre-environment code path; sweeps address its fields as
            ``env.*`` axes.
    """

    topology: TopologySpec
    protocol: str = "nectar"
    adversary: str = ""
    seed: int = 0
    profile: str = "ecdsa"
    rounds: int = 0
    batching: bool = True
    spammers: int = 0
    measure: str = "mean-kb-sent"
    env: EnvironmentSpec = DEFAULT_ENVIRONMENT

    @property
    def colocation_key(self) -> str | None:
        """Shard-planning hint: with ``env.artifacts`` on, the cells on
        one topology share a shard, so one process builds its topology,
        κ certificate and deployment; None (a one-cell shard) when off."""
        return self.topology.artifact_key() if self.env.artifacts else None

    def with_env(
        self, env: EnvironmentSpec, fields: Sequence[str]
    ) -> "TrialSpec":
        """This cell with ``env``'s values for the named fields.

        Part of the *sweep-cell protocol* (every cell type the engine
        executes — :class:`TrialSpec` here, mission cells in
        :mod:`repro.experiments.mission` — exposes ``env``,
        ``with_env`` and an executor path), which is how sweep-wide
        ``env.*`` overrides apply uniformly to heterogeneous cells.
        """
        if not fields:
            return self
        return replace(self, env=self.env.with_fields(env, fields))


# ----------------------------------------------------------------------
# The one cell executor
# ----------------------------------------------------------------------
#: kinds whose artifact is a plain graph (``TopologySpec.build``).
_GRAPH_KINDS = ("family", "drone")
#: kinds whose artifact is a bridged scenario (``build_scenario``).
_SCENARIO_KINDS = ("bridged-drone", "split")

#: The Sec. V-D attacks: adversary -> (the protocols it attacks, the
#: topology kinds it runs on).  ``spam`` is not among them: it measures
#: correct-node traffic (:func:`_spam_kb_sent`), not verdicts.
_ATTACKS: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = {
    "two-faced": (("nectar", "mtgv2"), _SCENARIO_KINDS),
    "mixed": (("nectar",), _SCENARIO_KINDS),
    "saturating": (("mtg",), _SCENARIO_KINDS + ("partitioned-drone",)),
}


def _success_rate(spec: TrialSpec) -> float:
    """Success rate of the cell's protocol under its Sec. V-D attack.

    The scenario's Byzantine nodes form the coalition: ``two-faced``
    bridges stay silent towards the muted side, ``saturating`` MtG
    nodes send all-ones filters, and the ``mixed`` coalition cycles in
    id order through
    :data:`~repro.adversary.behaviors.MIXED_ADVERSARY_CYCLE`
    (two-faced, silent, spamming), as a real attacker with
    heterogeneous footholds would.
    """
    attack = _ATTACKS.get(spec.adversary)
    if attack is None:
        raise ExperimentError(f"unknown adversary {spec.adversary!r}")
    protocols, kinds = attack
    if spec.protocol not in protocols:
        raise ExperimentError(
            f"{spec.adversary} adversary targets {'/'.join(protocols)}, "
            f"got {spec.protocol!r}"
        )
    # Only the decision phase consults the (pure, bounded) connectivity
    # memo, never scenario construction.  Clearing it per cell, as the
    # historical serial loops did, keeps a cell's work the same whatever
    # ran before it in this process.
    clear_connectivity_cache()
    scenario = _trial_artifact(spec, kinds)
    # The partitioned-drone deployment carries no t of its own.
    t = getattr(scenario, "t", spec.topology.t)
    classes = {
        "two-faced": (
            TwoFacedNectarNode if spec.protocol == "nectar" else TwoFacedMtgv2Node
        ),
        "saturating": SaturatingMtgNode,
        "silent": SilentNode,
        "spam": SpamNectarNode,
    }
    coalition = {}
    for index, b in enumerate(sorted(scenario.byzantine)):
        behaviour = spec.adversary
        if behaviour == "mixed":
            behaviour = MIXED_ADVERSARY_CYCLE[index % len(MIXED_ADVERSARY_CYCLE)]
        extra = {}
        if behaviour == "two-faced":
            extra["silent_towards"] = scenario.silent_towards_of(b)
        coalition[b] = protocol_factory(classes[behaviour], **extra)
    result = run_trial(
        scenario.graph,
        t=t,
        byzantine_factories=coalition,
        honest_factory=HONEST_FACTORIES[spec.protocol],
        connectivity_cutoff=t + 1,
        seed=spec.seed,
        ground_truth_cutoff=2 * t + 1,
        env=spec.env,
    )
    return success_rate(result.correct_verdicts, result.ground_truth)


def _spam_kb_sent(spec: TrialSpec) -> float:
    """Correct-node traffic under announcement-spamming Byzantine nodes."""
    if spec.measure != "correct-kb-sent":
        raise ExperimentError(
            f"spam trials measure correct-kb-sent, got {spec.measure!r}"
        )
    graph = _trial_artifact(spec, _GRAPH_KINDS)
    spammer = protocol_factory(SpamNectarNode)
    t = max(1, spec.spammers)
    result = run_trial(
        graph,
        t=t,
        byzantine_factories={b: spammer for b in range(spec.spammers)},
        rounds=spec.rounds or None,
        profile=_resolve_profile(spec.profile),
        connectivity_cutoff=t + 1,
        seed=spec.seed,
        with_ground_truth=False,
        env=spec.env,
    )
    correct = [v for v in graph.nodes() if v not in result.byzantine]
    return result.stats.mean_kb_sent(correct)


def _traffic_question(spec: TrialSpec, graph: Graph) -> bool:
    """Whether an honest NECTAR cost cell's trial would run crypto-free
    on the closed form and leave nothing observable but its traffic:
    batching on, ACCOUNTING validation, no scheme override, the artifact
    stores off, and an environment the closed form admits on a channel
    state that always delivers (as ``try_run_trial`` requires)."""
    env = spec.env
    return (
        spec.batching
        and env.validation in ("", ValidationMode.ACCOUNTING.value)
        and not env.scheme
        and not env.artifacts
        and closed_form_admits(env)
        and env.channel_model().state(graph, spec.seed).always_delivers
    )


def _trial_artifact(spec: TrialSpec, kinds: tuple[str, ...]):
    """The trial's topology or scenario, interned when artifacts are on.

    ``kinds`` are the topology kinds the cell accepts, and the kind
    check runs *before* the cache lookup — a misconfigured spec fails
    with the same targeted :class:`ExperimentError` whether the cache
    is cold, warm, or disabled.  The artifact-enabled path and the
    direct build are bit-identical — construction is a pure function of
    the topology spec — so this only changes *when* the work happens
    (once per process instead of once per cell), never the result.
    """
    top = spec.topology
    if top.kind not in kinds:
        if kinds == _GRAPH_KINDS:
            raise ExperimentError(
                f"topology kind {top.kind!r} needs build_scenario(), not build()"
            )
        raise ExperimentError(f"topology kind {top.kind!r} is not a scenario")
    if not spec.env.artifacts:
        return top.build_artifact()
    return ARTIFACTS.topology(top.artifact_key(), top.build_artifact)


def _cell_colocation_key(cell: object) -> object | None:
    """The shard-planning key of one sweep cell: its ``colocation_key``.

    Cells with equal keys are planned into one shard.  Every measure
    series of one mission shares its
    :class:`~repro.experiments.mission.MissionSpec`, so one process's
    mission memo serves all series from a single flight; with
    ``env.artifacts`` on, the :class:`TrialSpec` cells on one topology
    share its artifact key, so one process builds that topology's
    artifacts once.  Trial cells without artifacts return ``None`` and
    form one-cell shards.
    """
    return getattr(cell, "colocation_key", None)


def execute_trial(spec: TrialSpec) -> float:
    """Execute one :class:`TrialSpec` and return its scalar measure.

    This is *the* sweep cell executor: module-level (so worker
    processes can import it), self-contained (all randomness flows
    from the spec's explicit seeds) and shared by every registered
    figure — which is what lets :class:`SweepEngine` shard any sweep
    through :func:`~repro.experiments.parallel.parallel_map`.  When a
    cell's environment enables the artifact layer, trial-invariant
    work (topology/scenario construction, key pools, connectivity
    certificates) is served from :data:`ARTIFACTS` (DESIGN.md §9).
    An honest, batched NECTAR cost cell whose trial would leave nothing
    observable but its traffic (:func:`_traffic_question`) is answered
    by the closed form's traffic view, without deployment, nodes or
    verdicts; the scheduler switch sends it through the full trial
    (DESIGN.md §15.4).

    Cells that are not plain :class:`TrialSpec` instances (the mission
    cells of :mod:`repro.experiments.mission`) execute themselves: any
    picklable object with an ``execute() -> float`` method is a valid
    sweep cell, which is what lets the mission layer register temporal
    scenarios in :data:`FIGURE_SPECS` without the engine knowing their
    shape (DESIGN.md §10).
    """
    if not isinstance(spec, TrialSpec):
        return spec.execute()
    if spec.adversary == "":
        if spec.measure != "mean-kb-sent":
            raise ExperimentError(
                f"cost trials measure mean-kb-sent, got {spec.measure!r}"
            )
        if spec.protocol == "nectar":
            graph = _trial_artifact(spec, _GRAPH_KINDS)
            profile = _resolve_profile(spec.profile)
            rounds = spec.rounds or None
            spec.env.validate()
            if _traffic_question(spec, graph):
                traffic = predict_nectar_traffic(graph, profile, rounds)
                return traffic.mean_kb_per_node()
            result = nectar_cost_trial(
                graph,
                profile=profile,
                rounds=rounds,
                seed=spec.seed,
                env=spec.env,
                batching=spec.batching,
            )
            return result.mean_kb_sent()
        if spec.protocol in ("mtg", "mtgv2"):
            result = baseline_cost_trial(
                _trial_artifact(spec, _GRAPH_KINDS),
                spec.protocol,
                profile=_resolve_profile(spec.profile),
                rounds=spec.rounds or None,
                seed=spec.seed,
                env=spec.env,
            )
            return result.mean_kb_sent()
        raise ExperimentError(f"unknown protocol {spec.protocol!r}")
    if spec.adversary == "spam":
        return _spam_kb_sent(spec)
    if spec.measure != "success-rate":
        raise ExperimentError(
            f"adversarial trials measure success-rate, got {spec.measure!r}"
        )
    return _success_rate(spec)


def _process_origin() -> str:
    """The host-pid identity of the process executing a shard."""
    return f"{socket.gethostname()}-{os.getpid()}"


def execute_cells(cells: Iterable) -> dict:
    """The one shard executor: run ``cells`` in order, in this process.

    Returns ``{"values": [...]}``; when a cell enables ``env.artifacts``
    the result also carries this process's artifact ``delta``
    (:meth:`~repro.experiments.artifacts.ArtifactCache.drain_delta`)
    and its ``origin`` (DESIGN.md §9.2).  ``cells`` may be a generator.
    """
    values: list = []
    artifacts = False
    for cell in cells:
        artifacts = artifacts or cell.env.artifacts
        values.append(execute_trial(cell))
    result: dict = {"values": values}
    if artifacts:
        result["delta"] = ARTIFACTS.drain_delta()
        result["origin"] = _process_origin()
    return result


def absorb_shard(values: list, indices: Sequence[int], result: dict) -> None:
    """The one collector: scatter a shard's values into ``values``.

    Its delta is merged only when it ran in another process; a shard
    that ran here is already in this process's cache and counters.
    """
    for index, value in zip(indices, result["values"]):
        values[index] = value
    if result.get("origin") not in (None, _process_origin()):
        ARTIFACTS.merge_delta(result["delta"])


#: The Sec. V-D attack matrix behind Fig. 8, in group order: (series
#: label, protocol, attack, drone deployment).  NECTAR and MtGv2 face
#: two-faced bridges on the bridged drone partition; MtG faces filter
#: saturation on the partitioned drone deployment.
_ATTACK_MATRIX: tuple[tuple[str, str, str, str], ...] = (
    ("Nectar", "nectar", "two-faced", "bridged-drone"),
    ("MtGv2", "mtgv2", "two-faced", "bridged-drone"),
    ("MtG", "mtg", "saturating", "partitioned-drone"),
)
#: The matrix's attacks and drone deployments in words (``repro attack``).
_ATTACK_WORDS = {
    "two-faced": "two-faced bridges",
    "saturating": "filter saturation",
}
_DEPLOYMENT_WORDS = {
    "bridged-drone": "the bridged drone partition",
    "partitioned-drone": "the partitioned drone deployment",
}


def _attack_cell(
    protocol: str,
    adversary: str,
    seed: int,
    env: EnvironmentSpec = DEFAULT_ENVIRONMENT,
    **topology,
) -> TrialSpec:
    """One success-rate cell: ``protocol`` under ``adversary`` on the
    deployment ``TopologySpec(seed=seed, **topology)``."""
    return TrialSpec(
        topology=TopologySpec(seed=seed, **topology),
        protocol=protocol,
        adversary=adversary,
        seed=seed,
        measure="success-rate",
        env=env,
    )


def attack_rates(
    n: int, t: int, radius: float = 1.2, seed: int = 0
) -> dict[str, float]:
    """Success rates of all three protocols under the Fig. 8 attacks
    (:data:`_ATTACK_MATRIX`).

    Returns:
        ``{"nectar": rate, "mtgv2": rate, "mtg": rate}``.
    """
    return {
        protocol: execute_trial(
            _attack_cell(protocol, adversary, seed, kind=kind, n=n, t=t, radius=radius)
        )
        for _, protocol, adversary, kind in _ATTACK_MATRIX
    }


def attack_conditions() -> dict[str, str]:
    """What each protocol of :func:`attack_rates` faces, in words, e.g.
    ``"filter saturation on the partitioned drone deployment"`` for
    ``"mtg"``."""
    return {
        protocol: f"{_ATTACK_WORDS[adversary]} on {_DEPLOYMENT_WORDS[kind]}"
        for _, protocol, adversary, kind in _ATTACK_MATRIX
    }


# ----------------------------------------------------------------------
# SweepSpec: axes, presets, plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AxisSpec:
    """One named sweep axis with per-scale presets.

    Attributes:
        name: the axis name (also the ``--set`` key on the CLI).
        reduced: value at reduced scale (the default).
        paper: value at paper scale; ``None`` means same as reduced.
    """

    name: str
    reduced: object
    paper: object = None

    def value(self, scale: str) -> object:
        return self.paper if scale == "paper" and self.paper is not None else self.reduced


@dataclass(frozen=True)
class CellGroup:
    """One figure row: a series name, an x value and its trial cells.

    ``drop_value`` marks a sentinel scalar the aggregation excludes:
    cells whose measure is *undefined* for their draw (a mission whose
    ground-truth cut never emerged has no detection latency) return
    the sentinel instead of a sample, and the row's mean/CI covers
    only the defined draws — ``Point.trials`` shows how many survived,
    and a row whose every cell returned the sentinel is omitted
    entirely (rendered as ``-``).  ``None`` (the default) keeps every
    value, the historical behaviour of all non-mission figures.
    """

    series: str
    x: float
    cells: tuple[TrialSpec, ...]
    drop_value: float | None = None


@dataclass
class FigurePlan:
    """A fully-expanded sweep: the figure shell plus ordered cells.

    Attributes:
        figure: pre-filled id/title/labels/notes (scale and skip notes
            included); series may be pre-created to pin display order.
        groups: ordered cell groups; the engine executes all cells of
            all groups in one sharded pass and then aggregates group by
            group.
        finalize: optional post-assembly hook (e.g. ratio notes).
    """

    figure: FigureData
    groups: list[CellGroup] = field(default_factory=list)
    finalize: Callable[[FigureData], None] | None = None


def register_sweep(spec: "SweepSpec") -> str:
    """Register one :class:`SweepSpec` in :data:`FIGURE_SPECS`.

    Registration must happen at import time so worker processes under
    the ``spawn`` start method see the same registry.  Idempotent for
    equal specs.
    """
    existing = FIGURE_SPECS.get(spec.figure_id)
    if existing is not None and existing != spec:
        raise ExperimentError(
            f"figure {spec.figure_id!r} already registered differently"
        )
    FIGURE_SPECS[spec.figure_id] = spec
    return spec.figure_id


@dataclass(frozen=True)
class SweepSpec:
    """One registered, declaratively-described figure.

    Attributes:
        figure_id: registry key (also the default ``FigureData`` id).
        title: human-readable description for listings.
        axes: the named axes with reduced/paper presets.
        plan: the plan builder, ``params -> FigurePlan``; params are the
            resolved axis values plus the engine's ``_``-prefixed keys
            (:meth:`SweepEngine.plan`).
        seed_mode: ``"index"`` (trial index is the seed; the
            equivalence-pinned historical behaviour) or ``"hashed"``
            (independent seeds via ``trial_seeds``).
    """

    figure_id: str
    title: str
    axes: tuple[AxisSpec, ...]
    plan: Callable[[dict], FigurePlan]
    seed_mode: str = "index"

    @property
    def has_paper_preset(self) -> bool:
        """Whether some axis has a paper-scale preset."""
        return any(axis.paper is not None for axis in self.axes)

    @property
    def capabilities(self) -> frozenset[str]:
        """What the CLI may offer for this spec, read off the axes:
        ``workers`` always (every spec shards through the shared
        executor), ``paper-scale`` with a paper preset, ``profiles``
        with a ``profile`` axis."""
        capabilities = {"workers"}
        if self.has_paper_preset:
            capabilities.add("paper-scale")
        if any(axis.name == "profile" for axis in self.axes):
            capabilities.add("profiles")
        return frozenset(capabilities)

    @property
    def scale_noted(self) -> bool:
        """Whether the figure records a scale note: exactly when it has
        a paper preset, so that its two scales differ."""
        return self.has_paper_preset

    def axis(self, name: str) -> AxisSpec:
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise ExperimentError(
            f"{self.figure_id}: unknown axis {name!r}; "
            f"known: {[a.name for a in self.axes]}"
        )


@dataclass(frozen=True)
class ResolvedSweep:
    """A spec bound to a concrete scale, axis values and seed policy.

    ``env`` carries the sweep-wide environment from ``env.*`` axis
    overrides and ``env_fields`` records which fields were explicitly
    set (an explicit default — ``env.loss_rate=0.0`` on a lossy
    scenario — is a real override, not a no-op).  Untouched
    environments are omitted from :meth:`payload`, so pre-environment
    spec digests (and the artefacts keyed by them) are unchanged.
    """

    spec: SweepSpec
    scale: str
    params: Mapping[str, object]
    seed_mode: str = "index"
    base_seed: int = 0
    env: EnvironmentSpec = DEFAULT_ENVIRONMENT
    env_fields: tuple[str, ...] = ()

    def payload(self) -> dict:
        """A canonical JSON-safe description (the spec-hash input)."""
        payload = {
            "figure": self.spec.figure_id,
            "scale": self.scale,
            "axes": {name: _jsonify(value) for name, value in self.params.items()},
            "seed_mode": self.seed_mode,
            "base_seed": self.base_seed,
        }
        env_payload = self.env.payload()  # non-default fields
        for name in self.env_fields:  # plus explicitly-set defaults
            env_payload.setdefault(name, getattr(self.env, name))
        if env_payload:
            payload["env"] = {name: env_payload[name] for name in sorted(env_payload)}
        return payload


def _jsonify(value):
    if isinstance(value, (tuple, list)):
        return [_jsonify(item) for item in value]
    if isinstance(value, WireProfile):  # pragma: no cover - normalised earlier
        return value.name
    return value


def _seeds(params: dict, trials: int) -> list[int]:
    """Per-trial seeds under the resolved seed policy."""
    if params.get("_seed_mode") == "hashed":
        return trial_seeds(params.get("_base_seed", 0), trials)
    return list(range(trials))


def _new_figure(
    figure_id: str, title: str, x_label: str, y_label: str, params: dict
) -> FigureData:
    figure = FigureData(
        figure_id=figure_id, title=title, x_label=x_label, y_label=y_label
    )
    if params.get("_scale_noted", True):
        if params.get("_scale") == "paper":
            figure.notes.append("paper-scale run (REPRO_FULL=1)")
        else:
            figure.notes.append("reduced scale; set REPRO_FULL=1 for paper scale")
    return figure


# ----------------------------------------------------------------------
# Plan builders, one per figure shape
# ----------------------------------------------------------------------
def _harary_cell(n: int, k: int, **fields) -> TrialSpec:
    """A NECTAR trial on the Harary graph H(n, k); ``fields`` set the
    other :class:`TrialSpec` fields."""
    return TrialSpec(
        topology=TopologySpec(kind="family", family="harary", n=n, k=k), **fields
    )


def _plan_fig3(params: dict) -> FigurePlan:
    ns, ks, profile = params["ns"], params["ks"], params["profile"]
    name = _resolve_profile(profile).name
    figure = _new_figure(
        f"fig3-{name}" if name != DEFAULT_PROFILE.name else "fig3",
        (
            "NECTAR data sent per node, k-regular k-connected graphs "
            f"({name} profile)"
        ),
        "n",
        "KB sent per node",
        params,
    )
    plan = FigurePlan(figure)
    for k in ks:
        for n in ns:
            if k >= n:
                continue
            plan.groups.append(
                CellGroup(f"Nectar: k = {k}", n, (_harary_cell(n, k, profile=profile),))
            )
    return plan


def _plan_fig3_random(params: dict) -> FigurePlan:
    ns, ks, trials, profile = (
        params["ns"],
        params["ks"],
        params["trials"],
        params["profile"],
    )
    name = _resolve_profile(profile).name
    figure = _new_figure(
        "fig3-random",
        (
            "NECTAR data sent per node, random k-regular graphs "
            f"({name} profile, {trials} trials)"
        ),
        "n",
        "KB sent per node",
        params,
    )
    plan = FigurePlan(figure)
    for k in ks:
        for n in ns:
            if k >= n or (n * k) % 2 != 0:
                continue
            cells = tuple(
                TrialSpec(
                    topology=TopologySpec(
                        kind="family", family="k-regular", n=n, k=k, seed=seed
                    ),
                    protocol="nectar",
                    profile=profile,
                )
                for seed in _seeds(params, trials)
            )
            plan.groups.append(CellGroup(f"Nectar: k = {k}", n, cells))
    return plan


def _drone_cost_cell(
    protocol: str, n: int, d: float, radius: float, seed: int
) -> TrialSpec:
    return TrialSpec(
        topology=TopologySpec(
            kind="drone", n=n, distance=d, radius=radius, seed=seed
        ),
        protocol=protocol,
    )


def _plan_drone_distance(params: dict, protocol: str, label: str) -> FigurePlan:
    """Figs. 4/5: cost vs barycenter distance, plus the flat-MtG curve."""
    distances, radii, n, trials = (
        params["distances"],
        params["radii"],
        params["n"],
        params["trials"],
    )
    figure = _new_figure(
        "fig4" if protocol == "nectar" else "fig5",
        (
            f"Drone scenario, data sent per node (n={n})"
            if protocol == "nectar"
            else f"Drone scenario, MtGv2 data sent per node (n={n})"
        ),
        "d",
        "KB sent per node",
        params,
    )
    plan = FigurePlan(figure)
    seeds = _seeds(params, trials)
    for radius in radii:
        for d in distances:
            cells = tuple(
                _drone_cost_cell(protocol, n, d, radius, seed) for seed in seeds
            )
            plan.groups.append(CellGroup(f"{label}: radius = {radius}", d, cells))
    for d in distances:
        cells = tuple(_drone_cost_cell("mtg", n, d, 1.8, seed) for seed in seeds)
        plan.groups.append(CellGroup("MtG", d, cells))
    return plan


def _plan_fig4(params: dict) -> FigurePlan:
    return _plan_drone_distance(params, "nectar", "Nectar")


def _plan_fig5(params: dict) -> FigurePlan:
    return _plan_drone_distance(params, "mtgv2", "MtGv2")


def _plan_drone_scaling(params: dict, protocol: str, label: str) -> FigurePlan:
    """Figs. 6/7: cost vs n in the drone scenario."""
    ns, distances, radius, trials = (
        params["ns"],
        params["distances"],
        params["radius"],
        params["trials"],
    )
    figure = _new_figure(
        "fig6" if protocol == "nectar" else "fig7",
        (
            f"Drone scenario, NECTAR data sent per node (radius={radius})"
            if protocol == "nectar"
            else f"Drone scenario, MtGv2 data sent per node (radius={radius})"
        ),
        "n",
        "KB sent per node",
        params,
    )
    plan = FigurePlan(figure)
    seeds = _seeds(params, trials)
    for d in distances:
        for n in ns:
            cells = tuple(
                _drone_cost_cell(protocol, n, d, radius, seed) for seed in seeds
            )
            plan.groups.append(CellGroup(f"{label}: d = {d}", n, cells))
    for n in ns:
        cells = tuple(
            _drone_cost_cell("mtg", n, 2.5, radius, seed) for seed in seeds
        )
        plan.groups.append(CellGroup("MtG", n, cells))
    return plan


def _plan_fig6(params: dict) -> FigurePlan:
    return _plan_drone_scaling(params, "nectar", "Nectar")


def _plan_fig7(params: dict) -> FigurePlan:
    return _plan_drone_scaling(params, "mtgv2", "MtGv2")


def _plan_fig8(params: dict) -> FigurePlan:
    n, radius = params["n"], params["radius"]
    figure = _new_figure(
        "fig8",
        f"Decision success rate under attack (drone scenario, n={n})",
        "t",
        "success rate of correct decision",
        params,
    )
    # Pin the paper's series order up front (points arrive per t).
    for series in ("Nectar (ours)", "MtG", "MtGv2"):
        figure.series_named(series)
    plan = FigurePlan(figure)
    seeds = _seeds(params, params["trials"])
    for t in params["ts"]:
        for label, protocol, adversary, kind in _ATTACK_MATRIX:
            cells = tuple(
                _attack_cell(protocol, adversary, s, kind=kind, n=n, t=t, radius=radius)
                for s in seeds
            )
            series = "Nectar (ours)" if protocol == "nectar" else label
            plan.groups.append(CellGroup(series, t, cells))
    return plan


def _plan_topology_comparison(params: dict) -> FigurePlan:
    families, n, k, trials = (
        params["families"],
        params["n"],
        params["k"],
        params["trials"],
    )
    figure = _new_figure(
        "topology-comparison",
        f"NECTAR cost by topology family (n={n}, k={k})",
        "family#",
        "KB sent per node (and ratio vs k-regular)",
        params,
    )
    plan = FigurePlan(figure)
    for index, family in enumerate(families):
        figure.series_named(family)  # families keep a series even when skipped
        feasible = _feasible_seed_prefix(
            _seeds(params, trials),
            lambda seed: build_topology(family, n, k, seed=seed),
            lambda exc: figure.notes.append(f"{family}: skipped ({exc})"),
        )
        if not feasible:
            continue
        cells = tuple(
            TrialSpec(
                topology=TopologySpec(
                    kind="family", family=family, n=n, k=k, seed=seed
                ),
                protocol="nectar",
            )
            for seed in feasible
        )
        plan.groups.append(CellGroup(family, index, cells))

    def finalize(figure: FigureData) -> None:
        means = {s.name: s.points[0].mean for s in figure.series if s.points}
        base = means.get("k-regular")
        if base is None:
            return
        for family, mean in means.items():
            if family != "k-regular" and mean > 0:
                figure.notes.append(
                    f"{family}: {base / mean:.2f}x cheaper than k-regular"
                )

    plan.finalize = finalize
    return plan


def _plan_connectivity_resilience(params: dict) -> FigurePlan:
    families, n, k, ts, trials = (
        params["families"],
        params["n"],
        params["k"],
        params["ts"],
        params["trials"],
    )
    figure = _new_figure(
        "connectivity-resilience",
        f"Success rate by topology family (n={n}, k={k})",
        "t",
        "success rate of correct decision",
        params,
    )
    plan = FigurePlan(figure)
    for family in families:
        for t in ts:
            feasible = _feasible_seed_prefix(
                _seeds(params, trials),
                lambda seed: split_topology_scenario(family, n, t, k, seed=seed),
                lambda exc: figure.notes.append(f"{family} t={t}: skipped ({exc})"),
            )
            if not feasible:
                continue
            # The Fig. 8 attack matrix, every row on the split deployment.
            split = {"kind": "split", "family": family, "n": n, "t": t, "k": k}
            for label, protocol, adversary, _ in _ATTACK_MATRIX:
                cells = tuple(
                    _attack_cell(protocol, adversary, s, **split) for s in feasible
                )
                plan.groups.append(CellGroup(f"{label} [{family}]", t, cells))
    return plan


def _feasible_seed_prefix(seeds, build, on_skip) -> list[int]:
    """The seed prefix whose deployments construct successfully.

    Replicates the historical serial skip semantics: probe seeds in
    order, stop at the first :class:`ExperimentError` (reporting it via
    ``on_skip``), and sweep only the successful prefix.  Construction
    is cheap relative to trial execution, so probing in the parent and
    rebuilding in the worker costs little and keeps skip notes exactly
    where the serial implementation put them.
    """
    feasible = []
    for seed in seeds:
        try:
            build(seed)
        except ExperimentError as exc:
            on_skip(exc)
            break
        feasible.append(seed)
    return feasible


def _plan_ablation(
    params: dict,
    figure_id: str,
    title: str,
    labels: tuple[str, str],
    series: str,
    points: Iterable[tuple[float, dict]],
    note: str = "",
) -> FigurePlan:
    """One Harary ablation (DESIGN.md §5): per ``(x, fields)`` point, a
    one-cell group of ``series`` running NECTAR on H(n, k) with those
    :class:`TrialSpec` fields; ``note`` states the figure's finding."""
    figure = _new_figure(figure_id, title, *labels, params)
    if note:
        figure.notes.append(note)
    plan = FigurePlan(figure)
    for x, fields in points:
        cell = _harary_cell(params["n"], params["k"], **fields)
        plan.groups.append(CellGroup(series, x, (cell,)))
    return plan


def _plan_ablation_rounds(params: dict) -> FigurePlan:
    n, k = params["n"], params["k"]
    diam = diameter(build_topology("harary", n, k))
    if diam is None:  # pragma: no cover - Harary graphs are connected
        raise ExperimentError("disconnected topology in the rounds ablation")
    return _plan_ablation(
        params,
        "ablation-rounds",
        f"NECTAR cost vs round budget (Harary k={k}, n={n}, diam={diam})",
        ("rounds", "KB sent per node"),
        "Nectar",
        [
            (rounds, {"rounds": rounds})
            for rounds in sorted({diam, diam + 1, (n - 1 + diam) // 2, n - 1})
        ],
        "cost is flat beyond the diameter: correct nodes go silent",
    )


def _plan_ablation_spam(params: dict) -> FigurePlan:
    n, k = params["n"], params["k"]
    return _plan_ablation(
        params,
        "ablation-spam",
        f"Announcement spam vs dedup (Harary k={k}, n={n})",
        ("spammers", "KB sent per node (correct nodes only)"),
        "Nectar under spam",
        [
            (s, {"adversary": "spam", "spammers": s, "measure": "correct-kb-sent"})
            for s in params["spammers"]
        ],
        "dedup caps the damage: correct-node traffic stays flat because "
        "duplicates are dropped before relay",
    )


def _plan_ablation_batching(params: dict) -> FigurePlan:
    n, k = params["n"], params["k"]
    return _plan_ablation(
        params,
        "ablation-batching",
        f"Envelope batching (Harary k={k}, n={n})",
        ("batched", "KB sent per node"),
        "Nectar",
        [(0, {"batching": True}), (1, {"batching": False})],
        "x=0: batched (default); x=1: one envelope per edge",
    )


def _plan_ablation_sigsize(params: dict) -> FigurePlan:
    n, k = params["n"], params["k"]
    return _plan_ablation(
        params,
        "ablation-sigsize",
        f"Signature size profiles (Harary k={k}, n={n})",
        ("signature bytes", "KB sent per node"),
        "Nectar",
        [
            (_resolve_profile(profile).signature_bytes, {"profile": profile})
            for profile in params["profiles"]
        ],
    )


# ----------------------------------------------------------------------
# Off-model scenarios (DESIGN.md §8): environment-layer workloads
# ----------------------------------------------------------------------
def _plan_bridge_attack(
    params: dict,
    figure_id: str,
    setting: str,
    x_label: str,
    note: str,
    envs: Iterable[tuple[float, EnvironmentSpec]],
) -> FigurePlan:
    """NECTAR against the Fig. 8 bridges (the ``adversary`` axis:
    ``two-faced`` or the ``mixed`` coalition) off-model: one group per
    ``(x, env)``, every cell on the bridged drone partition in ``env``."""
    n, t, adversary = params["n"], params["t"], params["adversary"]
    figure = _new_figure(
        figure_id,
        f"NECTAR vs {adversary} bridges {setting} (n={n}, t={t})",
        x_label,
        "success rate of correct decision",
        params,
    )
    figure.notes.append(note)
    plan = FigurePlan(figure)
    bridged = {"kind": "bridged-drone", "n": n, "t": t, "radius": params["radius"]}
    seeds = _seeds(params, params["trials"])
    for x, env in envs:
        cells = tuple(
            _attack_cell("nectar", adversary, seed, env, **bridged) for seed in seeds
        )
        plan.groups.append(CellGroup("Nectar", x, cells))
    return plan


def _plan_nectar_under_loss(params: dict) -> FigurePlan:
    """NECTAR's bridge-attack resilience when channels drop messages.

    The paper's model requires reliable channels; MtG's evaluation
    tolerates 40% loss (Sec. VI-A).  This sweep deliberately runs
    NECTAR off-model: the Fig. 8 two-faced bridge attack (or the
    ``mixed`` coalition) under i.i.d. per-message loss.
    """
    return _plan_bridge_attack(
        params,
        "nectar-under-loss",
        "under message loss",
        "loss rate",
        "off-model: the paper's model assumes reliable channels (Sec. II)",
        [
            (
                loss_rate,
                EnvironmentSpec(channel="lossy", loss_rate=loss_rate)
                if loss_rate > 0.0
                else DEFAULT_ENVIRONMENT,
            )
            for loss_rate in params["loss_rates"]
        ],
    )


def _plan_backend_comparison(params: dict) -> FigurePlan:
    """Cost parity of the two execution backends at growing n.

    One series per registered backend; the asyncio backend ships real
    bytes through the codec (the paper's "real code" leg, Sec. V-B),
    so equal means here pin the codec's byte accounting to the
    lock-step simulator's.
    """
    ns, k = params["ns"], params["k"]
    figure = _new_figure(
        "backend-comparison",
        f"NECTAR cost across execution backends (Harary k={k})",
        "n",
        "KB sent per node",
        params,
    )
    for backend in ("sync", "async"):
        figure.series_named(backend)  # pin series order
    plan = FigurePlan(figure)
    for backend in ("sync", "async"):
        env = (
            DEFAULT_ENVIRONMENT
            if backend == "sync"
            else EnvironmentSpec(backend=backend)
        )
        for n in ns:
            plan.groups.append(CellGroup(backend, n, (_harary_cell(n, k, env=env),)))

    def finalize(figure: FigureData) -> None:
        by_name = {series.name: series for series in figure.series}
        sync_rows = [(p.x, p.mean) for p in by_name["sync"].points]
        async_rows = [(p.x, p.mean) for p in by_name["async"].points]
        if sync_rows == async_rows:
            figure.notes.append("sync ≡ async: identical bytes per node at every n")
        else:  # pragma: no cover - guarded by the equivalence suite
            figure.notes.append("BACKEND DIVERGENCE: sync and async rows differ")

    plan.finalize = finalize
    return plan


def _plan_mobility_resilience(params: dict) -> FigurePlan:
    """Bridge-attack resilience over an evolving MANET substrate.

    The mobility channel violates the paper's footnote-2 stability
    assumption: per round, a channel of G only works while its
    endpoints are within radio reach on a random-waypoint trajectory.
    Faster missions mean more churn in which links function.
    """
    return _plan_bridge_attack(
        params,
        "mobility-resilience",
        "on a mobile substrate",
        "node speed per round",
        "off-model: per-round link availability from a random-waypoint "
        "mission (footnote 2 assumes topology stability)",
        [
            (
                speed,
                EnvironmentSpec(
                    channel="mobility",
                    speed=speed,
                    reach=params["reach"],
                    arena=params["arena"],
                ),
            )
            for speed in params["speeds"]
        ],
    )


# ----------------------------------------------------------------------
# The registry: 13 paper figures + 3 off-model scenarios, declaratively
# ----------------------------------------------------------------------
_ALL_FAMILIES = (
    "k-regular",
    "harary",
    "k-pasted-tree",
    "k-diamond",
    "generalized-wheel",
    "multipartite-wheel",
)

_SPLIT_FAMILIES = (
    "k-regular",
    "k-pasted-tree",
    "k-diamond",
    "generalized-wheel",
    "multipartite-wheel",
)

#: the axes of the twin drone figures: Figs. 4/5 (cost vs barycenter
#: distance) and Figs. 6/7 (cost vs n).
_DRONE_DISTANCE_AXES = (
    AxisSpec("distances", (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)),
    AxisSpec("radii", (1.2, 1.8, 2.4)),
    AxisSpec("n", 20),
    AxisSpec("trials", 3, 50),
)
_DRONE_SCALING_AXES = (
    AxisSpec("ns", (10, 20, 30), (10, 20, 30, 40, 50)),
    AxisSpec("distances", (0.0, 2.5, 5.0)),
    AxisSpec("radius", 1.2),
    AxisSpec("trials", 2, 50),
)

#: figure id -> spec; the single source of truth for the CLI,
#: :func:`run_figure`, the benches and EXPERIMENTS.md.
FIGURE_SPECS: dict[str, SweepSpec] = {
    spec.figure_id: spec
    for spec in (
        SweepSpec(
            figure_id="fig3",
            title="NECTAR cost on k-regular k-connected graphs (Fig. 3, Harary)",
            axes=(
                AxisSpec("ns", (10, 20, 30), (20, 40, 60, 80, 100)),
                AxisSpec("ks", (2, 6, 10), (2, 10, 18, 26, 34)),
                AxisSpec("profile", "ecdsa"),
            ),
            plan=_plan_fig3,
        ),
        SweepSpec(
            figure_id="fig3-random",
            title="NECTAR cost on random k-regular graphs (Fig. 3, sampled)",
            axes=(
                AxisSpec("ns", (10, 20, 30), (20, 40, 60, 80, 100)),
                AxisSpec("ks", (2, 6, 10), (2, 10, 18, 26, 34)),
                AxisSpec("trials", 3, 50),
                AxisSpec("profile", "ecdsa"),
            ),
            plan=_plan_fig3_random,
        ),
        SweepSpec(
            figure_id="fig4",
            title="Drone scenario, NECTAR cost vs barycenter distance (Fig. 4)",
            axes=_DRONE_DISTANCE_AXES,
            plan=_plan_fig4,
        ),
        SweepSpec(
            figure_id="fig5",
            title="Drone scenario, MtGv2 cost vs barycenter distance (Fig. 5)",
            axes=_DRONE_DISTANCE_AXES,
            plan=_plan_fig5,
        ),
        SweepSpec(
            figure_id="fig6",
            title="Drone scenario, NECTAR cost vs n (Fig. 6)",
            axes=_DRONE_SCALING_AXES,
            plan=_plan_fig6,
        ),
        SweepSpec(
            figure_id="fig7",
            title="Drone scenario, MtGv2 cost vs n (Fig. 7)",
            axes=_DRONE_SCALING_AXES,
            plan=_plan_fig7,
        ),
        SweepSpec(
            figure_id="fig8",
            title="Decision success rate under attack (Fig. 8)",
            axes=(
                AxisSpec("n", 35),
                AxisSpec("ts", (0, 1, 2, 3, 4, 5, 6)),
                AxisSpec("radius", 1.2),
                AxisSpec("trials", 5, 50),
            ),
            plan=_plan_fig8,
        ),
        SweepSpec(
            figure_id="topology-comparison",
            title="NECTAR cost by topology family (Sec. V-C text)",
            axes=(
                AxisSpec("families", _ALL_FAMILIES),
                AxisSpec("n", 30, 60),
                AxisSpec("k", 6, 10),
                AxisSpec("trials", 2, 5),
            ),
            plan=_plan_topology_comparison,
        ),
        SweepSpec(
            figure_id="connectivity-resilience",
            title="Success rate by topology family (Sec. V-D text)",
            axes=(
                AxisSpec("families", _SPLIT_FAMILIES),
                AxisSpec("n", 24, 40),
                AxisSpec("k", 6),
                AxisSpec("ts", (1, 2, 3, 4)),
                AxisSpec("trials", 3, 20),
            ),
            plan=_plan_connectivity_resilience,
        ),
        SweepSpec(
            figure_id="ablation-rounds",
            title="NECTAR cost vs round budget (DESIGN.md §5.1)",
            axes=(AxisSpec("n", 24), AxisSpec("k", 4)),
            plan=_plan_ablation_rounds,
        ),
        SweepSpec(
            figure_id="ablation-spam",
            title="Announcement spam vs dedup (DESIGN.md §5.2)",
            axes=(
                AxisSpec("n", 20),
                AxisSpec("k", 4),
                AxisSpec("spammers", (0, 1, 2)),
            ),
            plan=_plan_ablation_spam,
        ),
        SweepSpec(
            figure_id="ablation-batching",
            title="Envelope batching on vs off (DESIGN.md §5.3)",
            axes=(AxisSpec("n", 20), AxisSpec("k", 4)),
            plan=_plan_ablation_batching,
        ),
        SweepSpec(
            figure_id="ablation-sigsize",
            title="Signature size profiles (DESIGN.md §5.4)",
            axes=(
                AxisSpec("n", 20),
                AxisSpec("k", 4),
                AxisSpec("profiles", ("compact", "ecdsa")),
            ),
            plan=_plan_ablation_sigsize,
        ),
        SweepSpec(
            figure_id="nectar-under-loss",
            title="NECTAR bridge-attack resilience under message loss (off-model)",
            axes=(
                AxisSpec("n", 21, 35),
                AxisSpec("t", 2),
                AxisSpec("radius", 1.2),
                AxisSpec("loss_rates", (0.0, 0.2, 0.4), (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)),
                AxisSpec("trials", 3, 20),
                AxisSpec("adversary", "two-faced"),
            ),
            plan=_plan_nectar_under_loss,
            seed_mode="hashed",
        ),
        SweepSpec(
            figure_id="backend-comparison",
            title="NECTAR cost parity, lock-step vs asyncio backend (off-model)",
            axes=(
                AxisSpec("ns", (8, 10, 12), (10, 20, 30)),
                AxisSpec("k", 4),
            ),
            plan=_plan_backend_comparison,
        ),
        SweepSpec(
            figure_id="mobility-resilience",
            title="NECTAR bridge-attack resilience on a mobile substrate (off-model)",
            axes=(
                AxisSpec("n", 21, 35),
                AxisSpec("t", 2),
                AxisSpec("radius", 1.2),
                AxisSpec("speeds", (0.25, 0.5, 1.0), (0.1, 0.25, 0.5, 1.0, 2.0)),
                AxisSpec("reach", 2.5),
                AxisSpec("arena", 5.0),
                AxisSpec("trials", 3, 20),
                AxisSpec("adversary", "two-faced"),
            ),
            plan=_plan_mobility_resilience,
            seed_mode="hashed",
        ),
    )
}


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------
@contextlib.contextmanager
def artifact_scope(
    resolved: "ResolvedSweep",
    cells: Sequence[object],
    artifact_store: str | pathlib.Path | None = None,
) -> Iterator[dict | None]:
    """One sweep's artifact lifetime: load the store, yield its
    snapshot (``None`` without artifact cells), save after the body.

    Nothing is built here: each artifact is built by the first cell
    that asks for it, in the process that runs that cell, and reaches
    this process through the shard deltas :func:`absorb_shard` merges
    before the save.  Every substrate (the local engine, the fabric
    client) runs inside it, so a snapshot one writes under
    ``artifact_store`` — one file per resolved spec digest — is the one
    the other loads.
    """
    if not any(cell.env.artifacts for cell in cells):
        yield None
        return
    store_path = None
    if artifact_store is not None:
        store_path = pathlib.Path(artifact_store) / (
            f"artifacts-{resolved.spec.figure_id}-"
            f"{spec_digest(resolved.payload())[:12]}.pkl"
        )
        ARTIFACTS.load(store_path)
    yield ARTIFACTS.snapshot()
    if store_path is not None:
        ARTIFACTS.save(store_path)


class SweepEngine:
    """Resolve, execute and assemble declarative sweeps.

    One engine instance (:data:`SWEEP_ENGINE`) serves the whole
    process; it is stateless, so sharing is free.
    """

    def resolve(
        self,
        spec: SweepSpec | str,
        scale: str = "auto",
        overrides: Mapping[str, object] | None = None,
        seed_mode: str | None = None,
        base_seed: int = 0,
    ) -> ResolvedSweep:
        """Bind a spec to concrete axis values.

        Args:
            spec: a :class:`SweepSpec` or a :data:`FIGURE_SPECS` id.
            scale: ``"reduced"``, ``"paper"`` or ``"auto"`` (paper when
                ``REPRO_FULL=1``, else reduced).
            overrides: axis name -> value replacements; sequence values
                are normalised to tuples and wire profiles to
                :data:`PROFILES` names.  Names prefixed ``env.`` address the
                environment layer (``env.loss_rate``, ``env.backend``,
                ``env.validation``, …) and are valid on *every* sweep.
                Unknown names raise :class:`ExperimentError`.
            seed_mode: override the spec's seed policy.
            base_seed: base for ``"hashed"`` seed derivation.
        """
        spec = self._spec_of(spec)
        if scale == "auto":
            scale = "paper" if paper_scale() else "reduced"
        if scale not in ("reduced", "paper"):
            raise ExperimentError(f"unknown scale {scale!r}")
        params = {axis.name: axis.value(scale) for axis in spec.axes}
        env_overrides = {}
        for name, value in (overrides or {}).items():
            if name.startswith("env."):
                env_overrides[name[len("env."):]] = value
                continue
            axis = spec.axis(name)  # raises on unknown axes
            params[name] = self._normalise(axis, value)
        env = environment_from_overrides(env_overrides)
        env.validate()
        mode = seed_mode if seed_mode is not None else spec.seed_mode
        if mode not in ("index", "hashed"):
            raise ExperimentError(f"unknown seed mode {mode!r}")
        return ResolvedSweep(
            spec=spec,
            scale=scale,
            params=params,
            seed_mode=mode,
            base_seed=base_seed,
            env=env,
            env_fields=tuple(sorted(env_overrides)),
        )

    def plan(self, resolved: ResolvedSweep) -> FigurePlan:
        """Expand a resolved sweep into its figure shell and cells."""
        params = dict(resolved.params)
        params["_scale"] = resolved.scale
        params["_scale_noted"] = resolved.spec.scale_noted
        params["_seed_mode"] = resolved.seed_mode
        params["_base_seed"] = resolved.base_seed
        return resolved.spec.plan(params)

    def prepare(self, resolved: ResolvedSweep) -> tuple[FigurePlan, list]:
        """The plan plus its flat, env-applied cell list.

        Everything an execution substrate needs: the ordered cells are
        exactly what :meth:`run` would execute (sweep-wide ``env.*``
        overrides already applied), and :meth:`assemble` folds the
        resulting values — one per cell, in the same order — back into
        the plan's figure.  ``run()`` is ``prepare`` → execute →
        ``assemble``; the distributed fabric client (:mod:`repro.fabric`,
        DESIGN.md §13) substitutes its queue for the execute step and is
        row-identical by construction because both ends are shared.

        Raises:
            ExperimentError: naming the figure (and quoting its skip
                notes) when the axis values leave no cells to run.
        """
        plan = self.plan(resolved)
        cells = [cell for group in plan.groups for cell in group.cells]
        if not cells:
            skips = [note for note in plan.figure.notes if "skipped" in note]
            raise ExperimentError(
                f"figure {resolved.spec.figure_id!r}: the axis values leave "
                "no cells to run"
                + "".join(f"; {note}" for note in skips)
            )
        if resolved.env_fields:
            # Sweep-wide env.* overrides: apply exactly the fields the
            # user named, so cells that already carry a non-default
            # environment (the off-model scenarios) keep their channel
            # parameters — and an explicit default (env.loss_rate=0.0)
            # really does reset them.
            cells = [
                cell.with_env(resolved.env, resolved.env_fields)
                for cell in cells
            ]
        return plan, cells

    def assemble(self, plan: FigurePlan, values: Sequence[float]) -> FigureData:
        """Fold per-cell values (in :meth:`prepare` cell order) into the figure."""
        cursor = 0
        for group in plan.groups:
            samples = list(values[cursor : cursor + len(group.cells)])
            cursor += len(group.cells)
            if group.drop_value is not None:
                samples = [s for s in samples if s != group.drop_value]
                if not samples:  # measure undefined for every draw
                    plan.figure.series_named(group.series)
                    continue
            plan.figure.series_named(group.series).add(group.x, samples)
        if plan.finalize is not None:
            plan.finalize(plan.figure)
        return plan.figure

    def run(
        self,
        spec: SweepSpec | str | ResolvedSweep,
        scale: str = "auto",
        overrides: Mapping[str, object] | None = None,
        workers: int | None = None,
        seed_mode: str | None = None,
        base_seed: int = 0,
        artifact_store: str | pathlib.Path | None = None,
    ) -> FigureData:
        """Execute one sweep and return its figure.

        The cells of all groups are planned into shards by
        :func:`~repro.experiments.parallel.colocation_chunks` (the
        fabric's planner too) and executed by :func:`execute_cells`
        through a single :func:`parallel_map` call, so ``workers``
        shards every registered figure; rows are bit-identical for any
        worker count because each cell's randomness is explicit in its
        spec.

        When any cell enables ``env.artifacts``, the sweep runs inside
        :func:`artifact_scope`: every worker installs the parent's
        snapshot of :data:`ARTIFACTS` (a loaded ``artifact_store``, if
        any) through ``parallel_map``'s initializer, builds what its
        cells ask for, and :func:`absorb_shard` merges the workers'
        deltas back (DESIGN.md §9.2).

        Args:
            artifact_store: opt-in on-disk artifact layer: a directory
                (conventionally ``benchmarks/out/``) holding one cache
                snapshot per resolved sweep, keyed by spec digest,
                loaded before the run and saved after the merge — so
                it persists everything the process tree computed
                (DESIGN.md §10.3; pinned by ``tests/test_artifacts.py``).
        """
        if isinstance(spec, ResolvedSweep):
            if (
                scale != "auto"
                or overrides
                or seed_mode is not None
                or base_seed != 0
            ):
                raise ExperimentError(
                    "run() received an already-resolved sweep together with "
                    "resolution arguments; pass them to resolve() instead"
                )
            resolved = spec
        else:
            resolved = self.resolve(
                spec,
                scale=scale,
                overrides=overrides,
                seed_mode=seed_mode,
                base_seed=base_seed,
            )
        plan, cells = self.prepare(resolved)
        shards = colocation_chunks(cells, _cell_colocation_key)
        values: list = [None] * len(cells)
        with artifact_scope(resolved, cells, artifact_store) as snapshot:
            results = parallel_map(
                execute_cells,
                [[cells[index] for index in shard] for shard in shards],
                workers=workers,
                initializer=install_artifacts,
                initargs=(snapshot,),
            )
            for shard, result in zip(shards, results):
                absorb_shard(values, shard, result)
        return self.assemble(plan, values)

    @staticmethod
    def _spec_of(spec: SweepSpec | str) -> SweepSpec:
        if isinstance(spec, SweepSpec):
            return spec
        registered = FIGURE_SPECS.get(spec)
        if registered is None:
            raise ExperimentError(
                f"unknown figure {spec!r}; known: {sorted(FIGURE_SPECS)}"
            )
        return registered

    @staticmethod
    def _normalise(axis: AxisSpec, value):
        """Canonicalise one override against its axis default.

        Profiles become their names, sequences become tuples, and
        numeric types follow the default's shape — a bare scalar on a
        sequence axis is wrapped, ints on a float axis become floats —
        so equivalent inputs from any source (library overrides,
        ``--set`` text, JSON spec files) resolve to the same params and
        the same spec digest.

        Raises:
            ExperimentError: naming the axis, for an empty sequence, a
                non-numeric value on a numeric axis, a float on an int
                axis, a sequence on a single-value axis, or ``trials``
                < 1.
        """
        if isinstance(value, WireProfile):
            return profile_name(value)
        if isinstance(value, str):
            if axis.name == "profile":
                return profile_name(value)
        elif isinstance(value, Sequence):
            value = tuple(
                profile_name(v) if isinstance(v, WireProfile) else v for v in value
            )
            if not value:
                raise ExperimentError(f"axis {axis.name!r} needs at least one value")
        default = axis.reduced
        element = default[0] if isinstance(default, tuple) and default else default
        if _is_number(element):
            kind = float if isinstance(element, float) else int
            if isinstance(value, tuple):
                value = tuple(_axis_number(axis, v, kind) for v in value)
            else:
                value = _axis_number(axis, value, kind)
        if isinstance(default, tuple) and not isinstance(value, tuple):
            value = (value,)
        elif not isinstance(default, tuple) and isinstance(value, tuple):
            raise ExperimentError(
                f"axis {axis.name!r} takes a single value, got {value!r}"
            )
        if axis.name == "trials" and value < 1:
            raise ExperimentError(f"axis 'trials' needs at least 1, got {value}")
        return value


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _axis_number(axis: AxisSpec, value, kind: type):
    """One value of a numeric axis, cast to the default's type."""
    if not _is_number(value):
        raise ExperimentError(f"axis {axis.name!r} takes numbers, got {value!r}")
    if kind is int and isinstance(value, float):
        raise ExperimentError(f"axis {axis.name!r} takes integers, got {value!r}")
    return kind(value)


#: the process-wide engine.
SWEEP_ENGINE = SweepEngine()


def run_figure(
    figure_id: str,
    scale: str = "auto",
    overrides: Mapping[str, object] | None = None,
    workers: int | None = None,
) -> FigureData:
    """Run one registered figure by id (:meth:`SweepEngine.run`)."""
    return SWEEP_ENGINE.run(
        figure_id, scale=scale, overrides=overrides, workers=workers
    )


__all__ = [
    "ADVERSARIES",
    "AxisSpec",
    "CellGroup",
    "DEFAULT_ENVIRONMENT",
    "EnvironmentSpec",
    "FIGURE_SPECS",
    "FigurePlan",
    "PROFILES",
    "PROTOCOLS",
    "ResolvedSweep",
    "SWEEP_ENGINE",
    "SweepEngine",
    "SweepSpec",
    "TopologySpec",
    "TrialSpec",
    "absorb_shard",
    "artifact_scope",
    "attack_conditions",
    "attack_rates",
    "environment_axis_names",
    "execute_cells",
    "execute_trial",
    "paper_scale",
    "profile_name",
    "register_sweep",
    "run_figure",
]
