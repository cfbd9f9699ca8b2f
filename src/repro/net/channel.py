"""Channel models and the execution-backend registry (DESIGN.md §8).

The paper's system model fixes *reliable synchronous channels*
(Sec. II), but its evaluation deliberately steps off-model: MindTheGap
tolerates a 40% message loss rate on MANET channels (Sec. VI-A), and
the prototype leg runs real code over a real network stack (Sec. V-B).
This module makes that environment axis first-class:

* :class:`ChannelModel` — a frozen, picklable description of what the
  physical channel does to messages.  Registered profiles:

  - ``reliable`` — the paper's model: every sent message arrives;
  - ``lossy`` — i.i.d. per-message drops with probability
    ``loss_rate`` (the MtG Sec. VI-A regime);
  - ``jittered`` — delivery delayed inside the round without ever
    violating the synchrony bound ΔT (observable on the asyncio
    backend; the lock-step backend absorbs it by construction);
  - ``mobility`` — per-round link availability from a
    random-waypoint mission (:mod:`repro.graphs.generators.mobility`):
    a message traverses an edge only while its endpoints are within
    radio reach at that round, modelling an evolving MANET substrate
    under the paper's footnote-2 stability assumption being violated;
  - ``budgeted`` — a per-round bandwidth/latency budget on every
    directed link: links degrade (capped deliveries per round, bounded
    extra latency) instead of disappearing, the congestion regime of a
    long-running mission (DESIGN.md §10).

* :class:`ChannelState` — the per-run instantiation of a model (RNG
  stream, mobility trajectory).  Models are specs; states do the work.

* :class:`NetworkBackend` + :data:`BACKENDS` — the execution-backend
  registry shared by :class:`repro.net.simulator.SyncNetwork` and
  :class:`repro.net.asyncio_net.AsyncCluster`.  Both register a
  factory here, which is what lets the experiment runner dispatch on
  an :class:`~repro.experiments.envspec.EnvironmentSpec` instead of
  sniffing backend strings.

Determinism: every state draws randomness exclusively from the seed it
was constructed with.  ``lossy`` consumes one RNG draw per delivery in
delivery order, which only the lock-step scheduler makes reproducible
— hence ``async_safe`` is False for it.  ``mobility`` decisions are a
pure function of ``(round, edge)``, so they are safe on any backend.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass
from typing import Any, Callable, Protocol, runtime_checkable

from repro.errors import ChannelError, ExperimentError
from repro.graphs.graph import Graph
from repro.net.stats import TrafficStats
from repro.types import NodeId


class ChannelState(abc.ABC):
    """Per-run channel behaviour; produced by :meth:`ChannelModel.state`."""

    #: True only for the degenerate state that delivers every message
    #: and never consumes randomness — the eligibility predicate for
    #: the closed-form trial fast path (:mod:`repro.perf.fastpath`),
    #: which replays delivery as closed forms over BFS layers and is
    #: only exact when the channel is a no-op.
    always_delivers: bool = False

    @abc.abstractmethod
    def delivers(
        self, round_number: int, sender: NodeId, destination: NodeId
    ) -> bool:
        """Whether this message survives the channel.

        Called once per in-flight message, in delivery order; stateful
        models (RNG streams, mobility trajectories) rely on rounds
        being visited in nondecreasing order, which both backends
        guarantee.
        """


class ChannelModel(abc.ABC):
    """A picklable description of the physical channel.

    Subclasses are frozen dataclasses so they can ride inside
    :class:`~repro.experiments.spec.TrialSpec` cells across process
    boundaries; all per-run mutability lives in the
    :class:`ChannelState` built by :meth:`state`.
    """

    #: channel-induced per-message delay bound (milliseconds of
    #: simulated time); only the asyncio backend can observe it.
    jitter_ms: float = 0.0

    #: whether delivery decisions are a pure function of
    #: ``(round, edge)`` — required on the asyncio backend, where the
    #: global delivery order is not reproducible.
    async_safe: bool = True

    @abc.abstractmethod
    def state(self, graph: Graph, seed: int) -> ChannelState:
        """Instantiate the per-run state for one deployment."""


class _AlwaysDelivers(ChannelState):
    always_delivers: bool = True

    def delivers(
        self, round_number: int, sender: NodeId, destination: NodeId
    ) -> bool:
        return True


@dataclass(frozen=True)
class ReliableChannel(ChannelModel):
    """The paper's model: every sent message arrives within its round."""

    def state(self, graph: Graph, seed: int) -> ChannelState:
        return _AlwaysDelivers()


#: the shared default instance (stateless, so sharing is free).
RELIABLE_CHANNEL = ReliableChannel()


class _LossyState(ChannelState):
    """One RNG draw per delivery, in delivery order.

    The drop set of a run is a pure function of its seed and the
    delivery order, so lossy experiments replay bit-identically.
    """

    def __init__(self, loss_rate: float, seed: int) -> None:
        self._loss_rate = loss_rate
        self._rng = random.Random(("channel-loss", seed).__repr__())

    def delivers(
        self, round_number: int, sender: NodeId, destination: NodeId
    ) -> bool:
        return not self._rng.random() < self._loss_rate


@dataclass(frozen=True)
class LossyChannel(ChannelModel):
    """I.i.d. per-message loss (MtG's Sec. VI-A regime).

    ``loss_rate`` = 0 degenerates to the reliable channel *without*
    consuming any RNG draws, preserving the historical guarantee that
    a loss-free run never touches the loss RNG.
    """

    loss_rate: float = 0.0
    async_safe: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ChannelError(f"loss_rate {self.loss_rate} outside [0, 1)")

    def state(self, graph: Graph, seed: int) -> ChannelState:
        if self.loss_rate == 0.0:
            return _AlwaysDelivers()
        return _LossyState(self.loss_rate, seed)


@dataclass(frozen=True)
class JitteredChannel(ChannelModel):
    """In-round delivery jitter bounded by ``jitter_ms``.

    Synchrony holds — every message still arrives before the round
    ends — so the lock-step backend is unaffected by construction; the
    asyncio backend delays each send by a seeded uniform draw.
    """

    jitter_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.jitter_ms < 0:
            raise ChannelError(f"jitter_ms {self.jitter_ms} cannot be negative")

    def state(self, graph: Graph, seed: int) -> ChannelState:
        return _AlwaysDelivers()


class _MobilityState(ChannelState):
    """Edge availability from a lazily-advanced waypoint mission."""

    #: generator horizon; consumed lazily, one step per round.
    _HORIZON = 1 << 20

    def __init__(self, model: MobilityChannel, graph: Graph, seed: int) -> None:
        # Imported here: generators sit above the net substrate in the
        # layering, and only the mobility model needs them.
        from repro.graphs.generators.mobility import random_waypoint_mission

        self._snapshot_graph: Graph | None = None
        self._round = 0
        if graph.n < 2:
            self._mission = None  # a 1-node deployment has no channels
            return
        self._mission = random_waypoint_mission(
            graph.n,
            steps=self._HORIZON,
            radius=model.reach,
            arena=model.arena,
            speed=model.speed,
            seed=seed,
        )

    def delivers(
        self, round_number: int, sender: NodeId, destination: NodeId
    ) -> bool:
        if self._mission is None:
            return True
        while self._round < round_number:
            self._snapshot_graph = next(self._mission).graph
            self._round += 1
        assert self._snapshot_graph is not None
        return self._snapshot_graph.has_edge(sender, destination)


class _BudgetedState(ChannelState):
    """Per-round, per-sender delivery counters.

    Counters reset when the round advances (both backends visit rounds
    in nondecreasing order), so the state is a pure function of the
    per-sender delivery history — no RNG is ever consumed, which is
    what makes the model trivially deterministic under any
    ``loss_seed``.
    """

    def __init__(self, bandwidth: int) -> None:
        self._bandwidth = bandwidth
        self._round = -1
        self._used: dict[NodeId, int] = {}

    def delivers(
        self, round_number: int, sender: NodeId, destination: NodeId
    ) -> bool:
        if round_number != self._round:
            self._round = round_number
            self._used.clear()
        used = self._used.get(sender, 0)
        if used >= self._bandwidth:
            return False
        self._used[sender] = used + 1
        return True


@dataclass(frozen=True)
class BudgetedChannel(ChannelModel):
    """Per-round bandwidth/latency budget on every node's radio.

    The other off-model regime a mission flies through: links do not
    vanish (that is the ``mobility`` model's job) but *degrade* — the
    radio is a shared medium, so a congested or duty-cycled node gets
    only ``bandwidth`` deliveries per round *across all its links*
    (excess deliveries are dropped in delivery order; the sends still
    pay their bytes), and every delivery eats up to ``latency_ms`` of
    the synchrony bound ΔT (observable on the asyncio backend only,
    like ``jittered``).  A budget below a node's degree forces its
    relays through fewer neighbors per round — detection slows down
    instead of switching off.

    ``bandwidth`` = 0 means unlimited (latency-only budgets stay a pure
    function of ``(round, edge)`` and run on both backends); with a
    finite budget, *which* messages exceed it depends on the global
    delivery order, so the model is restricted to the lock-step backend.
    """

    bandwidth: int = 0
    latency_ms: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth < 0:
            raise ChannelError(f"bandwidth {self.bandwidth} cannot be negative")
        if self.latency_ms < 0:
            raise ChannelError(f"latency_ms {self.latency_ms} cannot be negative")

    @property
    def jitter_ms(self) -> float:  # type: ignore[override]
        return self.latency_ms

    @property
    def async_safe(self) -> bool:  # type: ignore[override]
        return self.bandwidth == 0

    def state(self, graph: Graph, seed: int) -> ChannelState:
        if self.bandwidth == 0:
            return _AlwaysDelivers()
        return _BudgetedState(self.bandwidth)


@dataclass(frozen=True)
class MobilityChannel(ChannelModel):
    """Per-round link availability from a random-waypoint mission.

    Nodes move through a square ``arena`` at ``speed`` per round; a
    message sent over a channel of G is delivered only while its
    endpoints are within ``reach`` of each other at that round.  The
    logical topology (keys, proofs, neighbor sets) stays fixed — what
    evolves is which channels *work*, the off-model regime the paper's
    footnote 2 assumes away.  Decisions are a pure deterministic
    function of ``(round, edge)``, so the model runs on both backends.
    """

    reach: float = 2.5
    arena: float = 5.0
    speed: float = 0.5

    def __post_init__(self) -> None:
        if self.reach <= 0 or self.arena <= 0 or self.speed <= 0:
            raise ChannelError("mobility reach, arena and speed must be positive")

    def state(self, graph: Graph, seed: int) -> ChannelState:
        return _MobilityState(self, graph, seed)


# ----------------------------------------------------------------------
# Channel-model registry
# ----------------------------------------------------------------------
#: profile name -> constructor; :func:`channel_model` resolves here.
CHANNEL_MODELS: dict[str, Callable[..., ChannelModel]] = {
    "reliable": lambda: RELIABLE_CHANNEL,
    "lossy": LossyChannel,
    "jittered": JitteredChannel,
    "mobility": MobilityChannel,
    "budgeted": BudgetedChannel,
}


def register_channel_model(name: str, factory: Callable[..., ChannelModel]) -> str:
    """Make a custom channel profile addressable by name.

    Returns the name.  Like wire profiles, registration must happen at
    import time when sweeps run under the ``spawn`` start method.
    """
    existing = CHANNEL_MODELS.get(name)
    if existing is not None and existing is not factory:
        raise ChannelError(f"channel model {name!r} already registered differently")
    CHANNEL_MODELS[name] = factory
    return name


def channel_model(name: str, **params: Any) -> ChannelModel:
    """Instantiate one registered channel profile.

    Raises:
        ChannelError: for an unknown profile or parameters the profile
            does not accept.
    """
    factory = CHANNEL_MODELS.get(name)
    if factory is None:
        raise ChannelError(
            f"unknown channel model {name!r}; known: {sorted(CHANNEL_MODELS)}"
        )
    try:
        return factory(**params)
    except TypeError as exc:
        raise ChannelError(f"channel model {name!r}: {exc}") from exc


# ----------------------------------------------------------------------
# Execution-backend registry
# ----------------------------------------------------------------------
@runtime_checkable
class NetworkBackend(Protocol):
    """What every execution backend exposes to the experiment runner.

    Both :class:`repro.net.simulator.SyncNetwork` and
    :class:`repro.net.asyncio_net.AsyncCluster` satisfy this protocol;
    backends with a quiescence short-circuit additionally expose
    ``rounds_executed`` (the runner reads it with ``getattr``).
    """

    stats: TrafficStats

    def run(self, rounds: int) -> dict[NodeId, Any]: ...


#: A factory building a backend for one trial.  Keyword-only contract:
#: ``factory(graph, protocols, profile=…, channel=…, seed=…,
#: quiescence_skip=…)``; factories ignore knobs that do not apply to
#: their backend (the asyncio backend has no quiescence skip).
BackendFactory = Callable[..., NetworkBackend]

#: backend name -> factory; populated by the backend modules at import
#: time (importing anything under ``repro.net`` runs both).
BACKENDS: dict[str, BackendFactory] = {}


def register_backend(name: str, factory: BackendFactory) -> str:
    """Register one execution backend under ``name`` and return it."""
    existing = BACKENDS.get(name)
    if existing is not None and existing is not factory:
        raise ExperimentError(f"backend {name!r} already registered differently")
    BACKENDS[name] = factory
    return name


def resolve_backend(name: str) -> BackendFactory:
    """Look up one registered backend factory.

    Raises:
        ExperimentError: for an unknown backend name.
    """
    factory = BACKENDS.get(name)
    if factory is None:
        raise ExperimentError(
            f"unknown backend {name!r}; known: {sorted(BACKENDS)}"
        )
    return factory
