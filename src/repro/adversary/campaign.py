"""Adversarial mission campaigns: who misbehaves, how, and where.

PR-5's mission layer runs a protocol instance per epoch over an
evolving topology; this module makes the adversary a first-class,
sweepable part of that loop.  A campaign is described by an
:class:`AdversarySpec` — a behaviour *profile* (which deviation the
coalition runs), a *placement* policy (where the Byzantine nodes sit,
possibly repositioning between epochs) and a *count* — and compiled
into per-epoch Byzantine sets by :func:`plan_placements` plus
per-node protocol factories by :func:`campaign_factories`.

Two design constraints shape the API:

* **Determinism.**  Placements for *all* epochs are computed up front
  in a sequential pre-pass (the trajectory builds every graph before
  execution, so the ``adaptive`` policy can consult epoch e-1's
  topology), and each epoch's factories are rebuilt from plain spec
  data — nothing closure-shaped lives in a mission spec.
* **The Validity shape stays reachable.**  The ``deceptive`` profile
  reproduces the exact coalition behind the Definition-3 bug (a
  correct-acting sleeper shielded by silent colluders), so the class
  of bug this PR fixes is exercised by every campaign sweep instead of
  living only in a pinned regression test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Sequence

from repro.adversary.behaviors import (
    BadAggregatorNectarNode,
    CollusionTracker,
    EquivocatingNectarNode,
    SilentNode,
    SleeperNectarNode,
    TwoFacedNectarNode,
)
from repro.errors import ExperimentError
from repro.graphs.connectivity import minimum_vertex_cut
from repro.graphs.graph import Graph
from repro.types import NodeId, decode_spec, spec_payload

#: Campaign behaviour profiles.  ``deceptive`` is the heterogeneous
#: Validity-bug coalition: the lowest-id Byzantine node runs the
#: honest protocol (a sleeper) while the rest stay silent.
ADVERSARY_PROFILES: tuple[str, ...] = (
    "sleeper",
    "silent",
    "two-faced",
    "equivocate",
    "bad-aggregator",
    "deceptive",
)

#: Placement policies: ``static`` draws once (epoch 0's graph) and
#: never moves; ``random`` redraws every epoch; ``adaptive`` moves the
#: coalition onto the previous epoch's minimum vertex cut — the
#: full-knowledge adversary that chases the emerging bottleneck.
PLACEMENT_POLICIES: tuple[str, ...] = ("static", "random", "adaptive")


@dataclass(frozen=True)
class AdversarySpec:
    """One adversarial campaign, as plain sweepable data.

    Attributes:
        profile: coalition behaviour (:data:`ADVERSARY_PROFILES`).
        placement: repositioning policy (:data:`PLACEMENT_POLICIES`).
        count: coalition size (must satisfy ``0 < count <= t``).
        seed: campaign RNG seed (placement draws, half splits,
            victim choices).  Mission sweeps derive it from the trial
            seed so every trial fights a different — but reproducible —
            adversary.
    """

    profile: str = "deceptive"
    placement: str = "static"
    count: int = 1
    seed: int = 0

    def validate(self, t: int) -> None:
        if self.profile not in ADVERSARY_PROFILES:
            raise ExperimentError(
                f"unknown adversary profile {self.profile!r}; "
                f"expected one of {ADVERSARY_PROFILES}"
            )
        if self.placement not in PLACEMENT_POLICIES:
            raise ExperimentError(
                f"unknown placement policy {self.placement!r}; "
                f"expected one of {PLACEMENT_POLICIES}"
            )
        if self.count < 1:
            raise ExperimentError("an adversarial campaign needs count >= 1")
        if self.count > t:
            raise ExperimentError(
                f"campaign of {self.count} Byzantine nodes exceeds "
                f"the declared bound t={t}"
            )

    def payload(self) -> dict[str, Any]:
        """Stable dict form for digests and artefact metadata."""
        return spec_payload(self)

    @classmethod
    def from_payload(cls, payload: Any) -> "AdversarySpec":
        """Rebuild a campaign from :meth:`payload` output (wire form).

        Validation against ``t`` happens at the owning mission's
        :meth:`~repro.experiments.mission.MissionSpec.validate`, which
        every deserialisation path calls.

        Raises:
            ExperimentError: on non-object payloads or unknown or
                wrong-typed fields.
        """
        return decode_spec(cls, payload, "adversary")


def _draw(rng: random.Random, graph: Graph, count: int) -> frozenset[NodeId]:
    nodes = sorted(graph.nodes())
    if count > len(nodes):
        raise ExperimentError(
            f"cannot place {count} Byzantine nodes on {len(nodes)} nodes"
        )
    return frozenset(rng.sample(nodes, count))


def plan_placements(
    graphs: Sequence[Graph], spec: AdversarySpec
) -> list[frozenset[NodeId]]:
    """Byzantine sets for every epoch, computed as a sequential pre-pass.

    The adaptive policy reads epoch e-1's topology to position epoch
    e's coalition; :class:`~repro.experiments.mission.MissionSession`
    runs this once, before its first epoch flies.
    """
    placements: list[frozenset[NodeId]] = []
    for epoch, graph in enumerate(graphs):
        if spec.placement == "static":
            rng = random.Random(("campaign-static", spec.seed).__repr__())
            placements.append(_draw(rng, graphs[0], spec.count))
            continue
        if spec.placement == "random" or epoch == 0:
            rng = random.Random(("campaign-random", spec.seed, epoch).__repr__())
            placements.append(_draw(rng, graph, spec.count))
            continue
        # adaptive, epoch >= 1: chase the previous epoch's bottleneck.
        rng = random.Random(("campaign-adaptive", spec.seed, epoch).__repr__())
        try:
            cut = sorted(minimum_vertex_cut(graphs[epoch - 1]))
        except ValueError:
            # Disconnected or complete: no cut to chase — fall back to
            # a random draw for this epoch.
            placements.append(_draw(rng, graph, spec.count))
            continue
        chosen = list(cut[: spec.count])
        if len(chosen) < spec.count:
            pool = [v for v in sorted(graph.nodes()) if v not in set(chosen)]
            chosen.extend(rng.sample(pool, spec.count - len(chosen)))
        placements.append(frozenset(chosen))
    return placements


def campaign_factories(
    profile: str,
    byzantine: frozenset[NodeId],
    n: int,
    seed: int = 0,
    tracker: CollusionTracker | None = None,
) -> Mapping[NodeId, Callable[[Any], Any]]:
    """Per-node protocol factories for one epoch's coalition.

    Built from plain data (profile name, node ids, seed) so callers in
    worker processes can reconstruct identical coalitions without
    shipping closures.  Every member is built by
    :func:`~repro.experiments.runner.protocol_factory`, which builds
    the honest nodes and the sweep attack coalitions too.
    Coordinated profiles (``equivocate``, ``two-faced``) share one
    :class:`CollusionTracker` across the coalition — pass ``tracker``
    to observe it, otherwise one is created internally.
    """
    # repro.experiments imports the mission layer, which imports this
    # module: a top-level import of the runner would be a cycle.
    from repro.experiments.runner import protocol_factory

    if not byzantine:
        return {}
    if profile == "deceptive":
        # The lowest id is the sleeper; its colluders stay silent.
        sleeper = min(byzantine)
        return {
            b: protocol_factory(SleeperNectarNode if b == sleeper else SilentNode)
            for b in sorted(byzantine)
        }
    correct = sorted(set(range(n)) - byzantine)
    if profile == "sleeper":
        factory = protocol_factory(SleeperNectarNode)
    elif profile == "silent":
        factory = protocol_factory(SilentNode)
    elif profile == "two-faced":
        shared = tracker or CollusionTracker(correct, seed=seed)
        factory = protocol_factory(TwoFacedNectarNode, silent_towards=shared.halves[1])
    elif profile == "equivocate":
        shared = tracker or CollusionTracker(correct, seed=seed)
        factory = protocol_factory(EquivocatingNectarNode, tracker=shared)
    elif profile == "bad-aggregator":
        rng = random.Random(("campaign-victims", seed).__repr__())
        victims = frozenset(
            rng.sample(correct, min(2, len(correct))) if correct else ()
        )
        factory = protocol_factory(BadAggregatorNectarNode, victims=victims)
    else:
        raise ExperimentError(f"unknown adversary profile {profile!r}")
    return {b: factory for b in byzantine}


__all__ = [
    "ADVERSARY_PROFILES",
    "PLACEMENT_POLICIES",
    "AdversarySpec",
    "campaign_factories",
    "plan_placements",
]
