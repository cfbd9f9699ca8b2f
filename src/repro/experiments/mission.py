"""Mission layer: detection-over-time as a first-class, sweepable
quantity (DESIGN.md §10).

The paper's specification is one-shot, and footnote 2 concedes the
operational gap: "In practical cases, the connectivity graph might,
however, evolve over time.  In such cases, we assume that the graph
remains static long enough for the algorithm to execute."  The drone
fleet of Fig. 2 actually lives on an *evolving* topology, and the MtG
baseline is explicitly a continuous detector.  This module closes that
gap on the modern spec architecture:

* :class:`TrajectorySpec` — a frozen, picklable description of an
  evolving topology: the Fig. 2 drifting-scatters storyline, a
  random-waypoint mission (:mod:`repro.graphs.generators.mobility`),
  or an explicit graph list.
* :class:`MissionSpec` — trajectory × Byzantine budget × environment:
  one NECTAR (or baseline) epoch per trajectory step, every epoch
  running through :func:`repro.experiments.runner.run_trial` and its
  :class:`~repro.experiments.envspec.EnvironmentSpec` — channel
  models (``budgeted`` link degradation included), backends, schemes
  and the :class:`~repro.experiments.artifacts.ArtifactCache` all
  apply per epoch.  With ``env.artifacts`` on, the trajectory is
  interned once and the deployment's key pool is reused by every
  epoch (keys do not rotate mid-mission), which is what makes long
  missions dramatically cheaper than *epochs* independent trials.
* :class:`MissionSession` — the engine: replays the trajectory one
  :meth:`~MissionSession.step` (one epoch) at a time and emits the
  per-epoch verdict stream (:class:`EpochReport`).  It is the one
  epoch loop: :func:`run_mission` steps a session to the end, and the
  footnote-2 operational mode (continuous monitoring of a live
  topology, ``epoch_seeds="stride"`` re-keying every epoch), the CLI
  timeline and the fleet service step it as epochs land.
  :class:`MissionResult` derives the temporal metrics — **detection
  latency** (epochs from ground-truth cut emergence to the first
  elevated verdict), **false-alarm rate** and per-epoch cost.
* :class:`MissionCellSpec` — the sweep-cell adapter: any measure of a
  mission as one scalar cell, which registers the temporal scenarios
  ``partition-detection``, ``mtg-vs-nectar-detection`` and
  ``detection-under-deception`` in
  :data:`~repro.experiments.spec.FIGURE_SPECS` — sweepable over
  mission/mobility axes and ``env.*``, sharded across missions by
  :class:`~repro.experiments.spec.SweepEngine`, and surfaced as
  ``repro mission`` on the CLI.

Determinism: a mission's randomness flows exclusively from its
explicit seeds (trajectory seed, mission seed), so mission rows are
bit-identical for any worker count, with the artifact cache on or off.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence

from repro.adversary.campaign import (
    AdversarySpec,
    campaign_factories,
    plan_placements,
)
from repro.errors import ExperimentError
from repro.experiments.artifacts import ARTIFACTS, artifact_key
from repro.experiments.envspec import DEFAULT_ENVIRONMENT, EnvironmentSpec
from repro.experiments.persistence import dump_figure_json
from repro.experiments.report import FigureData
from repro.experiments.runner import (
    baseline_cost_trial,
    compute_ground_truth,
    run_trial,
)
from repro.experiments.spec import (
    AxisSpec,
    CellGroup,
    FigurePlan,
    SweepSpec,
    _new_figure,
    _seeds,
    register_plan,
    register_sweep,
)
from repro.graphs.generators.mobility import (
    drifting_scatters_mission,
    random_waypoint_mission,
)
from repro.graphs.graph import Graph
from repro.types import BaselineDecision, Decision, Verdict

#: trajectory kinds a spec can name.
TRAJECTORY_KINDS = ("drifting-scatters", "waypoint", "explicit")

#: protocols a mission can fly (one run per epoch each).
MISSION_PROTOCOLS = ("nectar", "mtg", "mtgv2")

#: per-epoch deployment-seed policies: ``fixed`` keeps one deployment
#: seed for the whole mission (keys do not rotate mid-mission — the
#: realistic regime, and the one key pools amortise), ``stride`` uses
#: ``seed + epoch`` (a fresh deployment per epoch, as a monitor that
#: re-keys every run would).
EPOCH_SEED_MODES = ("fixed", "stride")

#: the temporal measures a mission cell can report.
MISSION_MEASURES = (
    "detection-latency",
    "cut-emergence",
    "false-alarm-rate",
    "kb-per-epoch",
    "adversary-cut-rate",
)

#: the scalar :attr:`MissionResult.detection_latency` returns when no
#: ground-truth cut ever emerged — the latency is *undefined*, not
#: zero, so sweep plans mark it as a ``CellGroup.drop_value`` and the
#: aggregation excludes those draws from the latency mean (the
#: ``cut-emergence`` series reports how many missions had a cut).
NO_CUT_SENTINEL = -1.0


@dataclass(frozen=True)
class TrajectorySpec:
    """How a mission's topology sequence is produced.

    Attributes:
        kind: one of :data:`TRAJECTORY_KINDS`:

            * ``"drifting-scatters"`` — the Fig. 2 storyline: two drone
              scatters whose barycenter distance follows
              ``start + drift * epoch`` (via
              :func:`~repro.graphs.generators.mobility.drifting_scatters_mission`);
            * ``"waypoint"`` — proximity graphs of a random-waypoint
              mission (``reach``/``arena``/``speed``);
            * ``"explicit"`` — a caller-supplied graph list
              (:meth:`explicit`); not sweepable by name, but
              :func:`run_mission` and :class:`MissionSession` accept
              it.
        n: number of mobile nodes (data kinds).
        epochs: trajectory length.
        start: initial barycenter distance (``drifting-scatters``).
        drift: per-epoch barycenter drift (``drifting-scatters``).
        radius: radio range of the scatter deployment.
        reach: communication scope of the waypoint mission.
        arena: arena side length of the waypoint mission.
        speed: per-epoch node speed of the waypoint mission.
        seed: trajectory construction seed.
        sequence: the explicit graph list (``"explicit"`` only).
    """

    kind: str = "drifting-scatters"
    n: int = 0
    epochs: int = 0
    start: float = 0.0
    drift: float = 1.0
    radius: float = 1.2
    reach: float = 2.5
    arena: float = 5.0
    speed: float = 0.5
    seed: int = 0
    sequence: tuple[Graph, ...] = ()

    @classmethod
    def explicit(cls, graphs: Sequence[Graph]) -> "TrajectorySpec":
        """Wrap a concrete graph list as a trajectory."""
        graphs = tuple(graphs)
        if not graphs:
            raise ExperimentError("an explicit trajectory needs at least one graph")
        return cls(
            kind="explicit", n=graphs[0].n, epochs=len(graphs), sequence=graphs
        )

    def validate(self) -> None:
        """Check the spec before the engine replays it.

        Raises:
            ExperimentError: on unknown kinds or unusable parameters.
        """
        if self.kind not in TRAJECTORY_KINDS:
            raise ExperimentError(
                f"unknown trajectory kind {self.kind!r}; "
                f"known: {list(TRAJECTORY_KINDS)}"
            )
        if self.kind == "explicit":
            if not self.sequence:
                raise ExperimentError(
                    "an explicit trajectory needs at least one graph"
                )
            if any(graph.n != self.sequence[0].n for graph in self.sequence):
                raise ExperimentError(
                    "every epoch of a mission must cover the same node set"
                )
            return
        if self.sequence:
            raise ExperimentError(
                f"trajectory kind {self.kind!r} does not take an explicit "
                "graph sequence"
            )
        if self.n < 2:
            raise ExperimentError("a mission needs at least 2 nodes")
        if self.epochs < 1:
            raise ExperimentError("a mission needs at least one epoch")

    @property
    def length(self) -> int:
        """Number of epochs this trajectory spans."""
        return len(self.sequence) if self.kind == "explicit" else self.epochs

    def payload(self) -> dict:
        """The JSON-safe identity of a data-kind trajectory.

        Raises:
            ExperimentError: for ``"explicit"`` trajectories, whose
                graphs have no declarative description to hash.
        """
        if self.kind == "explicit":
            raise ExperimentError(
                "explicit trajectories have no spec payload (and are never "
                "interned)"
            )
        return {
            "kind": self.kind,
            "n": self.n,
            "epochs": self.epochs,
            "start": self.start,
            "drift": self.drift,
            "radius": self.radius,
            "reach": self.reach,
            "arena": self.arena,
            "speed": self.speed,
            "seed": self.seed,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "TrajectorySpec":
        """Rebuild a declarative trajectory from :meth:`payload` output.

        The wire half of the fleet-service submit protocol: a JSON
        object round-trips to an identical spec (and therefore an
        identical artifact key).  Explicit trajectories have no payload
        and cannot cross this boundary.

        Raises:
            ExperimentError: on unknown fields or an invalid spec.
        """
        if not isinstance(payload, Mapping):
            raise ExperimentError(
                f"a trajectory payload must be an object, got {payload!r}"
            )
        known = set(_TRAJECTORY_PAYLOAD_FIELDS)
        unknown = set(payload) - known
        if unknown:
            raise ExperimentError(
                f"unknown trajectory payload fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        spec = cls(**dict(payload))
        spec.validate()
        return spec

    def artifact_key(self) -> str:
        """The content address interned trajectories live under."""
        return artifact_key({"trajectory": self.payload()})

    def build(self) -> tuple[Graph, ...]:
        """Construct the full topology sequence, one graph per epoch."""
        self.validate()
        if self.kind == "drifting-scatters":
            distances = [self.start + self.drift * e for e in range(self.epochs)]
            return tuple(
                drifting_scatters_mission(
                    self.n, distances, self.radius, seed=self.seed
                )
            )
        if self.kind == "waypoint":
            return tuple(
                snapshot.graph
                for snapshot in random_waypoint_mission(
                    self.n,
                    steps=self.epochs,
                    radius=self.reach,
                    arena=self.arena,
                    speed=self.speed,
                    seed=self.seed,
                )
            )
        return self.sequence


#: the JSON fields of a declarative trajectory payload.
_TRAJECTORY_PAYLOAD_FIELDS = (
    "kind",
    "n",
    "epochs",
    "start",
    "drift",
    "radius",
    "reach",
    "arena",
    "speed",
    "seed",
)


@dataclass(frozen=True)
class MissionSpec:
    """One fully-declarative mission: trajectory × budget × environment.

    Attributes:
        trajectory: the evolving topology.
        t: Byzantine budget declared to every epoch's run (and to the
            ground-truth partitionability question).
        connectivity_cutoff: optional decision-phase cutoff forwarded
            to NECTAR (must exceed ``t``; speeds up long missions).
        seed: mission seed — the deployment (keys) and channel seed.
        epoch_seeds: per-epoch seed policy (:data:`EPOCH_SEED_MODES`).
        protocol: :data:`MISSION_PROTOCOLS`; baselines answer the
            classic is-it-partitioned question, NECTAR the Byzantine
            one — which is exactly the ``mtg-vs-nectar-detection``
            comparison.
        env: the execution environment of every epoch (DESIGN.md §8-9).
        adversary: optional adversarial campaign
            (:class:`~repro.adversary.campaign.AdversarySpec`): live
            Byzantine coalitions inside the mission loop, with
            per-epoch placement.  NECTAR only — the baselines have no
            Byzantine model to host one.
    """

    trajectory: TrajectorySpec
    t: int = 0
    connectivity_cutoff: int | None = None
    seed: int = 0
    epoch_seeds: str = "fixed"
    protocol: str = "nectar"
    env: EnvironmentSpec = DEFAULT_ENVIRONMENT
    adversary: AdversarySpec | None = None

    def validate(self) -> None:
        """Check the mission against registries and model constraints."""
        self.trajectory.validate()
        if self.t < 0:
            raise ExperimentError("t must be non-negative")
        if self.epoch_seeds not in EPOCH_SEED_MODES:
            raise ExperimentError(
                f"unknown epoch-seed mode {self.epoch_seeds!r}; "
                f"known: {list(EPOCH_SEED_MODES)}"
            )
        if self.protocol not in MISSION_PROTOCOLS:
            raise ExperimentError(
                f"unknown mission protocol {self.protocol!r}; "
                f"known: {list(MISSION_PROTOCOLS)}"
            )
        if self.adversary is not None:
            if self.protocol != "nectar":
                raise ExperimentError(
                    "adversarial campaigns target nectar missions; "
                    f"got protocol {self.protocol!r}"
                )
            self.adversary.validate(self.t)
        self.env.validate()

    def epoch_seed(self, epoch: int) -> int:
        """The deployment/channel seed of one epoch."""
        return self.seed + epoch if self.epoch_seeds == "stride" else self.seed

    def payload(self) -> dict:
        """The JSON-safe identity of a declarative mission.

        The wire form of the fleet-service submit protocol and the
        artefact spec block: optional parts (cutoff, non-default
        environment, adversary) appear only when set, so payloads stay
        minimal and digests stable as fields grow.

        Raises:
            ExperimentError: for explicit trajectories (no declarative
                description to serialise).
        """
        payload: dict = {
            "trajectory": self.trajectory.payload(),
            "t": self.t,
            "seed": self.seed,
            "epoch_seeds": self.epoch_seeds,
            "protocol": self.protocol,
        }
        if self.connectivity_cutoff is not None:
            payload["connectivity_cutoff"] = self.connectivity_cutoff
        env = self.env.payload()
        if env:
            payload["env"] = env
        if self.adversary is not None:
            payload["adversary"] = self.adversary.payload()
        return payload

    @classmethod
    def from_payload(cls, payload: Mapping[str, Any]) -> "MissionSpec":
        """Rebuild (and validate) a mission from :meth:`payload` output.

        Raises:
            ExperimentError: on malformed payloads or an invalid spec.
        """
        if not isinstance(payload, Mapping):
            raise ExperimentError(
                f"a mission payload must be an object, got {payload!r}"
            )
        known = {
            "trajectory",
            "t",
            "seed",
            "epoch_seeds",
            "protocol",
            "connectivity_cutoff",
            "env",
            "adversary",
        }
        unknown = set(payload) - known
        if unknown:
            raise ExperimentError(
                f"unknown mission payload fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        if "trajectory" not in payload:
            raise ExperimentError('a mission payload needs a "trajectory" object')
        cutoff = payload.get("connectivity_cutoff")
        adversary = payload.get("adversary")
        spec = cls(
            trajectory=TrajectorySpec.from_payload(payload["trajectory"]),
            t=int(payload.get("t", 0)),
            connectivity_cutoff=None if cutoff is None else int(cutoff),
            seed=int(payload.get("seed", 0)),
            epoch_seeds=str(payload.get("epoch_seeds", "fixed")),
            protocol=str(payload.get("protocol", "nectar")),
            env=EnvironmentSpec.from_payload(payload.get("env") or {}),
            adversary=(
                None
                if adversary is None
                else AdversarySpec.from_payload(adversary)
            ),
        )
        spec.validate()
        return spec


def _danger_level(verdict: Any) -> int:
    """0 = safe, 1 = partition suspected, 2 = partition detected.

    NECTAR verdicts escalate ``NOT_PARTITIONABLE`` → ``PARTITIONABLE``
    → confirmed; baseline verdicts only know connected vs partitioned.
    """
    if isinstance(verdict, Verdict):
        if verdict.decision is Decision.NOT_PARTITIONABLE:
            return 0
        return 2 if verdict.confirmed else 1
    return 2 if verdict is BaselineDecision.PARTITIONED else 0


def _verdict_signature(verdict: Any) -> tuple:
    """The fields a change report compares."""
    if isinstance(verdict, Verdict):
        return (verdict.decision, verdict.confirmed)
    return (verdict,)


@dataclass(frozen=True)
class EpochReport:
    """One epoch of the mission's verdict stream.

    ``changed`` / ``escalated`` compare against the previous epoch: a
    change is a decision or confirmation flip, an escalation is a move
    toward danger.  :func:`run_epoch` reports a lone epoch with both
    False; :meth:`MissionSession.step` sets them.
    """

    epoch: int
    verdict: Any
    danger: int
    changed: bool
    escalated: bool
    mean_kb_sent: float
    rounds_executed: int | None
    #: ground truth: was the epoch's topology t-partitionable?  None
    #: when the epoch ran without ground truth.
    partitionable: bool | None
    #: ground truth: did the epoch's *actual* Byzantine placement cut
    #: the correct subgraph?  None without ground truth; False in
    #: adversary-free epochs unless the topology itself is split.
    correct_cut: bool | None = None


def run_epoch(
    graph: Graph,
    t: int,
    connectivity_cutoff: int | None = None,
    seed: int = 0,
    protocol: str = "nectar",
    env: EnvironmentSpec = DEFAULT_ENVIRONMENT,
    epoch: int = 0,
    with_truth: bool = False,
    byzantine_factories: Mapping[int, Any] | None = None,
) -> EpochReport:
    """Run one mission epoch on ``graph`` and report it.

    The single-epoch primitive behind :class:`MissionSession`: one
    trial through the :func:`~repro.experiments.runner.run_trial`
    pipeline (the baselines through
    :func:`~repro.experiments.runner.baseline_cost_trial`), read
    through the smallest *correct* node (Agreement, Def. 3, lets NECTAR
    read any single correct node; the baselines have no agreement
    property, so node 0's view *is* the continuous-detector vantage
    point being compared).  ``byzantine_factories`` hosts an epoch's
    adversarial coalition (NECTAR only): the verdict then comes from
    the smallest node *outside* the coalition, and the ground truth
    accounts for the actual placement.
    """
    byzantine = frozenset(byzantine_factories or {})
    if byzantine and protocol != "nectar":
        raise ExperimentError(
            f"Byzantine epochs target nectar, got protocol {protocol!r}"
        )
    if protocol == "nectar":
        result = run_trial(
            graph,
            t=t,
            byzantine_factories=byzantine_factories,
            connectivity_cutoff=connectivity_cutoff,
            seed=seed,
            with_ground_truth=False,
            env=env,
        )
    elif protocol in ("mtg", "mtgv2"):
        result = baseline_cost_trial(graph, protocol, seed=seed, env=env)
    else:
        raise ExperimentError(
            f"unknown mission protocol {protocol!r}; "
            f"known: {list(MISSION_PROTOCOLS)}"
        )
    correct_nodes = [v for v in graph.nodes() if v not in byzantine]
    if not correct_nodes:
        raise ExperimentError("an epoch needs at least one correct node")
    verdict = result.verdicts[min(correct_nodes)]
    partitionable: bool | None = None
    correct_cut: bool | None = None
    if with_truth:
        truth = compute_ground_truth(
            graph,
            t,
            byzantine,
            connectivity_cutoff=t + 1,
            artifacts=env.artifacts,
        )
        partitionable = truth.byzantine_partitionable
        correct_cut = truth.correct_subgraph_partitioned
    return EpochReport(
        epoch=epoch,
        verdict=verdict,
        danger=_danger_level(verdict),
        changed=False,
        escalated=False,
        mean_kb_sent=result.mean_kb_sent(),
        rounds_executed=result.rounds_executed,
        partitionable=partitionable,
        correct_cut=correct_cut,
    )


def mission_graphs(mission: MissionSpec) -> tuple[Graph, ...]:
    """The mission's topology sequence, interned when artifacts are on.

    Interning keys the *whole* trajectory by its spec payload, so every
    cell of a sweep that replays the same trajectory (the measure
    series of ``partition-detection``, repeated sweeps, warm
    ``--artifact-store`` snapshots) constructs it exactly once per
    process.  Explicit trajectories are never interned — their graphs
    are already in hand.
    """
    trajectory = mission.trajectory
    if mission.env.artifacts and trajectory.kind != "explicit":
        return ARTIFACTS.topology(trajectory.artifact_key(), trajectory.build)
    return trajectory.build()


@dataclass(frozen=True)
class MissionResult:
    """The verdict stream and temporal metrics of one mission."""

    mission: MissionSpec
    reports: tuple[EpochReport, ...]

    @property
    def epochs(self) -> int:
        return len(self.reports)

    @property
    def emergence_epoch(self) -> int | None:
        """First epoch whose topology was truly t-partitionable."""
        for report in self.reports:
            if report.partitionable is None:
                raise ExperimentError(
                    "this mission ran without ground truth; re-run with "
                    "with_truth=True for temporal metrics"
                )
            if report.partitionable:
                return report.epoch
        return None

    @property
    def detection_epoch(self) -> int | None:
        """First at-or-after-emergence epoch with an elevated verdict."""
        emergence = self.emergence_epoch
        if emergence is None:
            return None
        for report in self.reports[emergence:]:
            if report.danger >= 1:
                return report.epoch
        return None

    @property
    def detection_latency(self) -> float:
        """Epochs from ground-truth cut emergence to detection.

        :data:`NO_CUT_SENTINEL` (-1.0) when no cut ever emerged — the
        latency is undefined, and sweep aggregation *excludes* such
        draws rather than averaging the sentinel (``CellGroup.drop_value``);
        censored at ``epochs - emergence`` — one past the largest
        observable latency — when the cut emerged but the mission ended
        undetected.  Deterministic and finite either way, so the metric
        stays a well-behaved sweep scalar.
        """
        emergence = self.emergence_epoch
        if emergence is None:
            return NO_CUT_SENTINEL
        detection = self.detection_epoch
        if detection is None:
            return float(self.epochs - emergence)
        return float(detection - emergence)

    @property
    def false_alarm_rate(self) -> float:
        """Fraction of truly-safe epochs with an elevated verdict."""
        safe = [r for r in self.reports if r.partitionable is False]
        if not self.reports or self.reports[0].partitionable is None:
            raise ExperimentError(
                "this mission ran without ground truth; re-run with "
                "with_truth=True for temporal metrics"
            )
        if not safe:
            return 0.0
        return sum(1 for r in safe if r.danger >= 1) / len(safe)

    @property
    def mean_kb_per_epoch(self) -> float:
        """Mean per-node traffic of one epoch, averaged over epochs."""
        if not self.reports:
            return 0.0
        return sum(r.mean_kb_sent for r in self.reports) / len(self.reports)

    @property
    def adversary_cut_rate(self) -> float:
        """Fraction of epochs where the live coalition cut the correct
        subgraph — how often the campaign's placement actually landed
        on a kill position (0.0 for adversary-free missions on
        connected topologies)."""
        known = [r for r in self.reports if r.correct_cut is not None]
        if not known:
            raise ExperimentError(
                "this mission ran without ground truth; re-run with "
                "with_truth=True for temporal metrics"
            )
        return sum(1 for r in known if r.correct_cut) / len(known)

    def metric(self, measure: str) -> float:
        """One registered temporal measure as a sweep scalar."""
        if measure == "detection-latency":
            return self.detection_latency
        if measure == "cut-emergence":
            return 1.0 if self.emergence_epoch is not None else 0.0
        if measure == "false-alarm-rate":
            return self.false_alarm_rate
        if measure == "kb-per-epoch":
            return self.mean_kb_per_epoch
        if measure == "adversary-cut-rate":
            return self.adversary_cut_rate
        raise ExperimentError(
            f"unknown mission measure {measure!r}; "
            f"known: {list(MISSION_MEASURES)}"
        )

    def first_escalation(self) -> EpochReport | None:
        """The first epoch whose verdict moved toward danger, if any."""
        for report in self.reports:
            if report.escalated:
                return report
        return None


def topology_delta(graphs: Sequence[Graph], epoch: int) -> tuple[int, int]:
    """``(added, removed)`` undirected edges of ``epoch`` vs its
    predecessor.

    Epoch 0 reports the initial topology as all-added — the delta a
    live cluster applies when it first comes up.  Shared by the
    streaming session and the batch event derivation so both report
    identical deltas.
    """
    if not 0 <= epoch < len(graphs):
        raise ExperimentError(
            f"epoch {epoch} outside the trajectory (0..{len(graphs) - 1})"
        )
    current = graphs[epoch].edges()
    if epoch == 0:
        return (len(current), 0)
    previous = graphs[epoch - 1].edges()
    return (len(current - previous), len(previous - current))


class MissionSession:
    """The one epoch loop: a mission flown one :meth:`step` at a time.

    The session builds the trajectory and fixes the adversary's
    placements up front; each :meth:`step` flies one epoch through
    :func:`run_epoch` and annotates it against the previous one.
    :func:`run_mission` steps a session to the end, and a long-lived
    service interleaves many sessions on one loop, emitting each
    epoch's report as it lands (DESIGN.md §12) — so streamed and batch
    verdict streams are identical because they are the same loop.

    With ``env.artifacts`` on, the trajectory is interned and every
    epoch reuses the cached per-``(graph, scheme, seed)`` deployment —
    topology evolution never re-signs an unchanged deployment, which
    is what makes stepping cheap enough to multiplex.
    """

    def __init__(self, mission: MissionSpec, with_truth: bool = True) -> None:
        mission.validate()
        self.mission = mission
        self.with_truth = with_truth
        self.graphs = mission_graphs(mission)
        if mission.adversary is not None:
            # The adaptive policy reads epoch e-1's topology, so every
            # placement is fixed before any epoch flies.
            self.placements = plan_placements(self.graphs, mission.adversary)
        else:
            self.placements = [frozenset()] * len(self.graphs)
        self._reports: list[EpochReport] = []

    @property
    def epoch(self) -> int:
        """The next epoch to fly (== number of completed epochs)."""
        return len(self._reports)

    @property
    def total_epochs(self) -> int:
        return len(self.graphs)

    @property
    def done(self) -> bool:
        return self.epoch >= self.total_epochs

    @property
    def reports(self) -> tuple[EpochReport, ...]:
        """The verdict stream completed so far."""
        return tuple(self._reports)

    def topology_delta(self, epoch: int) -> tuple[int, int]:
        """``(added, removed)`` edges this epoch applies in place."""
        return topology_delta(self.graphs, epoch)

    def step(self) -> EpochReport:
        """Fly the next epoch and return its annotated report."""
        if self.done:
            raise ExperimentError(
                f"mission is complete ({self.total_epochs} epochs flown)"
            )
        mission, epoch = self.mission, self.epoch
        graph, byzantine = self.graphs[epoch], self.placements[epoch]
        factories = None
        if byzantine:
            adversary = mission.adversary
            factories = campaign_factories(
                adversary.profile, byzantine, graph.n, seed=adversary.seed
            )
        report = run_epoch(
            graph,
            t=mission.t,
            connectivity_cutoff=mission.connectivity_cutoff,
            seed=mission.epoch_seed(epoch),
            protocol=mission.protocol,
            env=mission.env,
            epoch=epoch,
            with_truth=self.with_truth,
            byzantine_factories=factories,
        )
        if self._reports:
            previous = self._reports[-1]
            report = replace(
                report,
                changed=_verdict_signature(previous.verdict)
                != _verdict_signature(report.verdict),
                escalated=report.danger > previous.danger,
            )
        self._reports.append(report)
        return report

    def result(self) -> MissionResult:
        """The finished mission's result (requires :attr:`done`)."""
        if not self.done:
            raise ExperimentError(
                f"mission still has {self.total_epochs - self.epoch} "
                "epochs to fly"
            )
        return MissionResult(mission=self.mission, reports=tuple(self._reports))


def run_mission(mission: MissionSpec, *, with_truth: bool = True) -> MissionResult:
    """Fly one mission to the end: a :class:`MissionSession` stepped
    through every epoch.

    Args:
        with_truth: also compute the per-epoch ground-truth
            partitionability (required for the temporal metrics; a
            plain verdict stream can skip it).
    """
    session = MissionSession(mission, with_truth=with_truth)
    while not session.done:
        session.step()
    return session.result()


# ----------------------------------------------------------------------
# Sweep integration: mission cells + registered temporal scenarios
# ----------------------------------------------------------------------
#: per-process memo of flown missions: the measure series of one
#: scenario ask several questions of the same mission, and the sweep
#: engine plans them into one shard (:attr:`MissionCellSpec.colocation_key`),
#: so each mission flies once.  Results are a pure function of the
#: spec, so memoisation cannot change rows.  It holds outputs, so it
#: stays out of the artifact cache and its ``--artifact-store``
#: snapshots; bounded by clearing it wholesale at the cap.
_MISSION_MEMO: dict[MissionSpec, MissionResult] = {}
_MISSION_MEMO_CAP = 128


def clear_mission_memo() -> None:
    """Reset the worker-local mission memo (cold starts in tests)."""
    _MISSION_MEMO.clear()


def cached_mission_result(mission: MissionSpec) -> MissionResult | None:
    """The memoised result if this process already flew the mission."""
    return _MISSION_MEMO.get(mission)


def store_mission_result(mission: MissionSpec, result: MissionResult) -> None:
    """Seed the memo with an externally-computed result.

    The streaming paths (the CLI's flushing timeline, the fleet
    service) step missions through :class:`MissionSession` rather than
    :func:`mission_result`; storing their results keeps later memoised
    asks (measure cells, a second timeline) free.  Results are a pure
    function of the spec, so seeding can never change what the memo
    would have computed.
    """
    if len(_MISSION_MEMO) >= _MISSION_MEMO_CAP:
        _MISSION_MEMO.clear()
    _MISSION_MEMO[mission] = result


def mission_result(mission: MissionSpec) -> MissionResult:
    """The mission's result, served from the per-process memo.

    The public memoised accessor behind every sweep cell and the CLI
    timeline: one flight per distinct spec per process, then free.
    Use :func:`run_mission` directly to skip ground truth.
    """
    cached = _MISSION_MEMO.get(mission)
    if cached is not None:
        return cached
    result = run_mission(mission)
    store_mission_result(mission, result)
    return result


def mission_digest(mission: MissionSpec) -> str:
    """A stable content digest identifying one mission.

    Declarative missions hash their :meth:`MissionSpec.payload`;
    explicit trajectories (which have no payload) substitute the graph
    digests, so every mission — submitted over the wire or built in
    code — gets a stable identity for event streams and artefact ids.
    """
    trajectory = mission.trajectory
    if trajectory.kind == "explicit":
        # Borrow payload()'s field layout via a placeholder trajectory,
        # then swap in the graph digests — keeps the two forms in sync
        # as mission fields grow.
        placeholder = replace(
            mission,
            trajectory=TrajectorySpec(
                n=trajectory.n, epochs=trajectory.length
            ),
        )
        payload = placeholder.payload()
        payload["trajectory"] = {
            "kind": "explicit",
            "graphs": [graph.digest() for graph in trajectory.sequence],
        }
    else:
        payload = mission.payload()
    return artifact_key({"mission": payload})


#: the series names of the per-mission verdict-stream artefact.
MISSION_FIGURE_SERIES = (
    "danger level",
    "KB sent per node",
    "ground-truth cut",
)


def mission_figure(result: MissionResult) -> FigureData:
    """One mission's verdict stream as a diffable artefact.

    One row per epoch per series — danger level, per-node traffic and
    (when the mission ran with ground truth) the true cut indicator —
    rendered identically by batch ``repro mission --mission-out`` and
    the fleet service's submit ``artifact`` option, so ``repro diff``
    can pin streamed ≡ batch end to end (the CI serve smoke does).
    """
    mission = result.mission
    digest = mission_digest(mission)[:12]
    figure = FigureData(
        figure_id=f"mission-{digest}",
        title=(
            f"Mission verdict stream ({mission.protocol}, "
            f"{result.epochs} epochs, trajectory={mission.trajectory.kind})"
        ),
        x_label="epoch",
        y_label="danger level / KB per node",
    )
    danger = figure.series_named("danger level")
    kb = figure.series_named("KB sent per node")
    with_truth = bool(result.reports) and result.reports[0].partitionable is not None
    truth = figure.series_named("ground-truth cut") if with_truth else None
    for report in result.reports:
        danger.add(report.epoch, [float(report.danger)])
        kb.add(report.epoch, [report.mean_kb_sent])
        if truth is not None:
            truth.add(report.epoch, [1.0 if report.partitionable else 0.0])
    figure.notes.append(
        "one row per epoch; produced identically by batch "
        "`repro mission --mission-out` and `repro serve` (DESIGN.md §12)"
    )
    return figure


def write_mission_artifact(
    result: MissionResult, path: str | pathlib.Path
) -> pathlib.Path:
    """Persist :func:`mission_figure` as a ``repro diff``-able JSON file."""
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    mission = result.mission
    spec = None
    if mission.trajectory.kind != "explicit":
        spec = {"mission": mission.payload()}
    target.write_text(dump_figure_json(mission_figure(result), spec=spec))
    return target


@dataclass(frozen=True)
class MissionCellSpec:
    """One sweep cell: a temporal measure of one mission.

    Implements the sweep-cell protocol of
    :func:`repro.experiments.spec.execute_trial` (``env`` /
    ``with_env`` / ``execute``), so
    :class:`~repro.experiments.spec.SweepEngine` shards mission cells
    exactly like trial cells — ``env.*`` overrides and worker artifact
    deltas included.
    """

    mission: MissionSpec
    measure: str = "detection-latency"

    @property
    def env(self) -> EnvironmentSpec:
        return self.mission.env

    @property
    def colocation_key(self) -> MissionSpec:
        """Shard-planning hint: the measure series of one mission are
        colocated on one worker (``parallel_map``'s ``colocate``), so
        the per-process memo serves every series from a single flight
        instead of re-flying the mission once per measure."""
        return self.mission

    def with_env(
        self, env: EnvironmentSpec, fields: Sequence[str]
    ) -> "MissionCellSpec":
        if not fields:
            return self
        return replace(
            self,
            mission=replace(
                self.mission, env=self.mission.env.with_fields(env, fields)
            ),
        )

    def execute(self) -> float:
        """The cell executor: fly (or recall) the mission, read one metric."""
        return mission_result(self.mission).metric(self.measure)


#: figure ids registered by this module (what ``repro mission`` lists).
MISSION_FIGURES = (
    "partition-detection",
    "mtg-vs-nectar-detection",
    "detection-under-deception",
)

#: trajectory kinds the mission sweeps accept through the
#: ``trajectory`` axis ("explicit" has no declarative description).
_SWEEPABLE_TRAJECTORIES = ("drifting-scatters", "waypoint")


def _mission_xs(params: dict) -> tuple[tuple, str]:
    """The x values (and axis label) of a mission sweep.

    The drifting-scatters storyline sweeps barycenter drift; the
    waypoint missions sweep node speed (their ``reach``/``arena`` are
    fixed per figure) — both answer "how fast does the fleet evolve".
    """
    kind = params.get("trajectory", "drifting-scatters")
    if kind not in _SWEEPABLE_TRAJECTORIES:
        raise ExperimentError(
            f"unknown sweep trajectory {kind!r}; "
            f"known: {list(_SWEEPABLE_TRAJECTORIES)}"
        )
    if kind == "waypoint":
        return tuple(params["speeds"]), "node speed per epoch"
    return tuple(params["drifts"]), "drift per epoch"


def _mission_trajectory(params: dict, x: float, seed: int) -> TrajectorySpec:
    """One sweep point's trajectory (``x`` is the figure's x value)."""
    kind = params.get("trajectory", "drifting-scatters")
    if kind == "waypoint":
        return TrajectorySpec(
            kind="waypoint",
            n=params["n"],
            epochs=params["epochs"],
            reach=params["reach"],
            arena=params["arena"],
            speed=x,
            seed=seed,
        )
    return TrajectorySpec(
        kind="drifting-scatters",
        n=params["n"],
        epochs=params["epochs"],
        start=params["start"],
        drift=x,
        radius=params["radius"],
        seed=seed,
    )


#: each mission figure's rows as ``(series, protocol, measure)``, in
#: display order.  ``adversary-cut rate`` reports how often the
#: campaign's placement actually severed the correct subgraph (the
#: ceiling an adaptive adversary chases).
_DETECTION_TABLE = (
    ("detection latency (epochs)", "nectar", "detection-latency"),
    ("cut-emergence rate", "nectar", "cut-emergence"),
    ("false-alarm rate", "nectar", "false-alarm-rate"),
    ("KB sent per epoch", "nectar", "kb-per-epoch"),
)
_MTG_VS_NECTAR_TABLE = (
    ("Nectar (ours)", "nectar", "detection-latency"),
    ("MtG", "mtg", "detection-latency"),
)
_DECEPTION_TABLE = _DETECTION_TABLE[:3] + (
    ("adversary-cut rate", "nectar", "adversary-cut-rate"),
)


def _plan_mission(
    params: dict,
    figure_id: str,
    title: str,
    y_label: str,
    notes: Sequence[str],
    table: Sequence[tuple[str, str, str]],
    adversarial: bool = False,
) -> FigurePlan:
    """One mission figure: x → table row → seed, one cell each.

    The rows ask their questions of the same missions (memoised, so
    each flies once).  Undefined latencies (no cut emerged) are
    dropped from aggregation via the group's ``NO_CUT_SENTINEL``.
    ``adversarial`` hosts the ``adversary.*`` axes' campaign in every
    mission, its seed derived per trial so each trial fights a
    different (reproducible) adversary.
    """
    xs, x_label = _mission_xs(params)
    figure = _new_figure(figure_id, title, x_label, y_label, params)
    figure.notes.extend(notes)
    for series, _, _ in table:
        figure.series_named(series)  # pin display order
    plan = FigurePlan(figure)
    seeds = _seeds(params, params["trials"])
    t = params["t"]
    for x in xs:
        for series, protocol, measure in table:
            cells = tuple(
                MissionCellSpec(
                    mission=MissionSpec(
                        trajectory=_mission_trajectory(params, x, seed),
                        t=t,
                        connectivity_cutoff=t + 1,
                        seed=seed,
                        protocol=protocol,
                        adversary=(
                            AdversarySpec(
                                profile=params["adversary.profile"],
                                placement=params["adversary.placement"],
                                count=params["adversary.count"],
                                seed=seed,
                            )
                            if adversarial
                            else None
                        ),
                    ),
                    measure=measure,
                )
                for seed in seeds
            )
            drop = NO_CUT_SENTINEL if measure == "detection-latency" else None
            plan.groups.append(CellGroup(series, x, cells, drop_value=drop))
    return plan


def _plan_partition_detection(params: dict) -> FigurePlan:
    """Detection-over-time on the Fig. 2 separation mission; x is how
    fast the fleet comes apart."""
    return _plan_mission(
        params,
        "partition-detection",
        (
            f"NECTAR detection-over-time on a separating fleet "
            f"(n={params['n']}, t={params['t']}, {params['epochs']} epochs)"
        ),
        "detection latency (epochs) / rate / KB",
        (
            "off-model: footnote 2 assumes the topology holds still; the "
            "mission layer replays one NECTAR epoch per trajectory step",
            "detection latency: epochs from ground-truth cut emergence "
            "(κ <= t) to the first PARTITIONABLE verdict, censored at "
            "mission end if undetected; missions whose cut never emerges "
            "are excluded from the latency mean (the cut-emergence rate "
            "and the point's trials count record how many remained)",
        ),
        _DETECTION_TABLE,
    )


def _plan_mtg_vs_nectar(params: dict) -> FigurePlan:
    """Detection latency, NECTAR epochs vs the MtG continuous detector.

    Same trajectories, same seeds: NECTAR answers the Byzantine
    partitionability question per epoch, MtG the classic is-it-
    partitioned one — the continuous-detection comparison the paper's
    one-shot spec leaves open.
    """
    return _plan_mission(
        params,
        "mtg-vs-nectar-detection",
        (
            f"Detection latency on a separating fleet, NECTAR vs MtG "
            f"(n={params['n']}, t={params['t']}, {params['epochs']} epochs)"
        ),
        "detection latency (epochs)",
        (
            "MtG detects actual partitions only; NECTAR escalates on "
            "t-partitionability, so it warns earlier by design; missions "
            "whose cut never emerges are excluded from the latency means",
        ),
        _MTG_VS_NECTAR_TABLE,
    )


def _plan_detection_under_deception(params: dict) -> FigurePlan:
    """Detection-over-time with a live Byzantine campaign in the loop.

    Same separating-fleet missions as ``partition-detection``, but
    every epoch hosts an adversarial coalition — behaviour profile,
    placement policy and size set by the ``adversary.*`` axes.  The
    headline metric is detection latency under active deception: how
    much longer a sleeper cell, an equivocating coalition or an
    adaptive cut-chaser keeps the fleet blind compared to the
    adversary-free baseline.
    """
    profile = params["adversary.profile"]
    placement = params["adversary.placement"]
    count = params["adversary.count"]
    return _plan_mission(
        params,
        "detection-under-deception",
        (
            f"NECTAR detection under deception "
            f"({count}x {profile}, {placement} placement, "
            f"n={params['n']}, t={params['t']}, {params['epochs']} epochs)"
        ),
        "detection latency (epochs) / rate",
        (
            "every epoch hosts a live Byzantine coalition "
            f"(profile={profile}, placement={placement}, count={count}); "
            "the verdict stream is read from the smallest correct node and "
            "ground truth accounts for the actual placement",
            "the deceptive profile is the Definition-3 Validity shape — a "
            "correct-acting sleeper shielded by silent colluders — fixed "
            "in the decision phase and kept under fire here",
        ),
        _DECEPTION_TABLE,
        adversarial=True,
    )


register_plan("partition-detection", _plan_partition_detection)
register_plan("mtg-vs-nectar-detection", _plan_mtg_vs_nectar)
register_plan("detection-under-deception", _plan_detection_under_deception)

_SCALED_SWEEP = frozenset({"workers", "paper-scale"})

_MISSION_AXES = (
    AxisSpec("n", 12, 20),
    AxisSpec("t", 2),
    AxisSpec("radius", 1.8),
    AxisSpec("epochs", 7, 12),
    AxisSpec("start", 0.0),
    AxisSpec("drifts", (0.5, 1.0), (0.25, 0.5, 1.0, 2.0)),
    AxisSpec("trials", 3, 20),
    # Trajectory family (PR-5 carry-over): ``--set trajectory=waypoint``
    # switches the x axis from barycenter drift to node speed, with
    # ``reach``/``arena`` fixing the proximity model and ``speeds``
    # supplying the x values.
    AxisSpec("trajectory", "drifting-scatters"),
    AxisSpec("reach", 2.5),
    AxisSpec("arena", 5.0),
    AxisSpec("speeds", (0.5, 1.0), (0.25, 0.5, 1.0, 2.0)),
)

#: the adversarial campaign axes of ``detection-under-deception``.
_ADVERSARY_AXES = (
    AxisSpec("adversary.profile", "deceptive"),
    AxisSpec("adversary.placement", "static", "adaptive"),
    AxisSpec("adversary.count", 2),
)

register_sweep(
    SweepSpec(
        figure_id="partition-detection",
        title="NECTAR detection-over-time on a separating fleet (mission layer)",
        axes=_MISSION_AXES,
        plan="partition-detection",
        capabilities=_SCALED_SWEEP,
        seed_mode="hashed",
    )
)

register_sweep(
    SweepSpec(
        figure_id="mtg-vs-nectar-detection",
        title="Detection latency, NECTAR epochs vs the MtG continuous detector",
        axes=_MISSION_AXES,
        plan="mtg-vs-nectar-detection",
        capabilities=_SCALED_SWEEP,
        seed_mode="hashed",
    )
)

register_sweep(
    SweepSpec(
        figure_id="detection-under-deception",
        title="NECTAR detection latency under an active Byzantine campaign",
        axes=_MISSION_AXES + _ADVERSARY_AXES,
        plan="detection-under-deception",
        capabilities=_SCALED_SWEEP,
        seed_mode="hashed",
    )
)


__all__ = [
    "AdversarySpec",
    "EPOCH_SEED_MODES",
    "EpochReport",
    "MISSION_FIGURES",
    "MISSION_FIGURE_SERIES",
    "MISSION_MEASURES",
    "MISSION_PROTOCOLS",
    "MissionCellSpec",
    "MissionResult",
    "MissionSession",
    "MissionSpec",
    "NO_CUT_SENTINEL",
    "TRAJECTORY_KINDS",
    "TrajectorySpec",
    "cached_mission_result",
    "clear_mission_memo",
    "mission_digest",
    "mission_figure",
    "mission_graphs",
    "mission_result",
    "run_epoch",
    "run_mission",
    "store_mission_result",
    "topology_delta",
    "write_mission_artifact",
]
