"""The long-lived fleet service (DESIGN.md §12).

:class:`FleetService` multiplexes many concurrent missions on one
asyncio event loop: :meth:`~FleetService.submit` registers a persistent
:class:`~repro.experiments.mission.MissionSession` per mission, each
:meth:`~FleetService.tick` steps a scheduler-selected window of them one
epoch forward, and every epoch publishes typed events
(:mod:`repro.service.events`) to bounded subscription streams.

Design decisions, and why:

* **Epochs step on worker threads, sequentially per tick.**  One epoch
  is CPU-bound synchronous work (it runs the full ``run_trial``
  pipeline, possibly an ``asyncio.run`` of its own on the async
  backend), so the loop hands it to ``asyncio.to_thread`` — the loop
  stays responsive for protocol I/O while the epoch flies — but awaits
  each step before starting the next.  Sequential stepping keeps the
  firehose event order a pure function of (submissions, scheduler seed,
  ticks) and serialises access to the shared caches; concurrency across
  missions comes from interleaving epochs, which is what a tick window
  bounds.  Verdicts are therefore bit-identical to batch
  :func:`~repro.experiments.mission.run_mission` by construction — it
  steps the same :class:`MissionSession` loop to the end.
* **Backpressure sheds, never stalls.**  Subscription queues are
  bounded (``queue_limit``); when a slow consumer's queue is full the
  event is dropped *for that subscriber* and counted
  (:attr:`Subscription.shed`, surfaced per mission and service-wide in
  :meth:`~FleetService.status`).  The engine never waits on consumers:
  a stalled reader costs itself events, not the fleet its cadence.  An
  attached :class:`~repro.service.events.EventLog` is synchronous and
  unbounded — the durable log is complete even when live subscribers
  shed.
* **Shared artifacts.**  All sessions share the process-wide
  :data:`~repro.experiments.artifacts.ARTIFACTS` cache (thread-safe as
  of this PR), so concurrent missions over the same trajectory family
  reuse interned topologies, key pools and deployments; cancellation
  just stops stepping a session — the cache holds only pure,
  key-addressed values, so there is nothing to roll back.
"""

from __future__ import annotations

import asyncio
from typing import AsyncIterator

from repro.errors import ExperimentError
from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.mission import (
    MissionResult,
    MissionSession,
    MissionSpec,
    mission_digest,
    store_mission_result,
    write_mission_artifact,
)
from repro.service.events import (
    EventLog,
    MissionCancelled,
    MissionEvent,
    MissionFailed,
    accepted_event,
    completion_event,
    epoch_completed_events,
    epoch_started_event,
)
from repro.service.scheduler import (
    ACTIVE,
    CANCELLED,
    COMPLETED,
    FAILED,
    MissionRecord,
    Scheduler,
)

#: sentinel closing a subscription stream.
_CLOSE = object()


class Subscription:
    """One bounded event stream (per-mission, or the firehose).

    Async-iterable: ``async for event in subscription`` yields events
    until the stream closes (mission terminal event published, or
    service shutdown for the firehose).  When the queue is full the
    publisher drops the event for this subscriber and increments
    :attr:`shed` — see the backpressure policy in the module docstring.
    """

    def __init__(self, mission_id: str | None, limit: int) -> None:
        #: the mission this stream follows; ``None`` = firehose.
        self.mission_id = mission_id
        #: events dropped because this subscriber was slow.
        self.shed = 0
        self._queue: asyncio.Queue = asyncio.Queue(maxsize=max(0, limit))
        self._closed = False

    def _offer(self, event: MissionEvent) -> bool:
        """Publisher side: enqueue or shed.  True when delivered."""
        if self._closed:
            return True  # a closed stream consumes nothing
        try:
            self._queue.put_nowait(event)
            return True
        except asyncio.QueueFull:
            self.shed += 1
            return False

    def _close(self) -> None:
        """Publisher side: end the stream after queued events drain."""
        if self._closed:
            return
        self._closed = True
        try:
            self._queue.put_nowait(_CLOSE)
        except asyncio.QueueFull:
            # Full queue: shed the oldest queued event to guarantee the
            # close sentinel lands (consumers must always terminate).
            try:
                self._queue.get_nowait()
                self.shed += 1
            except asyncio.QueueEmpty:  # pragma: no cover - race-free loop
                pass
            self._queue.put_nowait(_CLOSE)

    def __aiter__(self) -> AsyncIterator[MissionEvent]:
        return self

    async def __anext__(self) -> MissionEvent:
        item = await self._queue.get()
        if item is _CLOSE:
            raise StopAsyncIteration
        return item

    def drain_nowait(self) -> list[MissionEvent]:
        """Every currently-queued event, without awaiting (tests/CLI)."""
        events = []
        while True:
            try:
                item = self._queue.get_nowait()
            except asyncio.QueueEmpty:
                return events
            if item is _CLOSE:
                return events
            events.append(item)


class FleetService:
    """A registry of live missions multiplexed on one event loop.

    Args:
        tick_interval: seconds slept after each tick (0 = free-running;
            the CLI maps ``--tick-ms``).
        max_concurrency: tick-window bound — at most this many missions
            step one epoch per tick.
        queue_limit: per-subscription event-queue bound (0 = unbounded;
            see the backpressure policy).
        seed: scheduler shuffle seed (``None`` = pure round-robin).
        with_truth: compute per-epoch ground truth (required for the
            temporal metrics in ``MissionCompleted``; matches batch
            ``run_mission``'s default).
        event_log: optional synchronous JSONL sink receiving every
            published event (``repro serve --events``).
    """

    def __init__(
        self,
        tick_interval: float = 0.0,
        max_concurrency: int = 8,
        queue_limit: int = 256,
        seed: int | None = 0,
        with_truth: bool = True,
        event_log: EventLog | None = None,
    ) -> None:
        if max_concurrency < 1:
            raise ExperimentError(
                f"max_concurrency must be >= 1, got {max_concurrency}"
            )
        if queue_limit < 0:
            raise ExperimentError(
                f"queue_limit cannot be negative, got {queue_limit}"
            )
        self.tick_interval = tick_interval
        self.max_concurrency = max_concurrency
        self.queue_limit = queue_limit
        self.with_truth = with_truth
        self._scheduler = Scheduler(seed=seed)
        self._subscriptions: list[Subscription] = []
        self._event_log = event_log
        self._id_counter = 1
        self._stopped = False
        #: events dropped across all subscriptions (status surfaces it).
        self.events_shed = 0

    # ------------------------------------------------------------------
    # Registry operations
    # ------------------------------------------------------------------
    def submit(
        self,
        mission: MissionSpec,
        label: str = "",
        artifact: str | None = None,
    ) -> str:
        """Register one mission; returns its service-assigned id.

        The session is built eagerly (trajectory construction, the
        adversary placement pre-pass), so an invalid spec fails the
        submit rather than the first tick.
        """
        if self._stopped:
            raise ExperimentError("the service has shut down")
        session = MissionSession(mission, with_truth=self.with_truth)
        mission_id = f"m{self._id_counter:04d}"
        self._id_counter += 1
        record = MissionRecord(
            mission_id=mission_id,
            session=session,
            label=label,
            artifact=artifact,
        )
        self._scheduler.add(record)
        self._publish(accepted_event(mission_id, mission, label=label))
        return mission_id

    def cancel(self, mission_id: str) -> bool:
        """Stop stepping a live mission.  True when it was active.

        The shared artifact cache needs no cleanup: it holds pure,
        content-addressed values only, so a half-flown mission leaves
        it exactly as consistent as a finished one (pinned by
        ``tests/test_service.py``).
        """
        record = self._scheduler.get(mission_id)
        if record is None or record.state != ACTIVE:
            return False
        record.state = CANCELLED
        self._publish(
            MissionCancelled(mission_id=mission_id, epoch=record.session.epoch)
        )
        self._close_mission_subscriptions(mission_id)
        return True

    def subscribe(self, mission_id: str | None = None) -> Subscription:
        """A new event stream: one mission's, or the firehose (None).

        Subscribing to an already-finished mission yields an
        immediately-closed stream.
        """
        if mission_id is not None and mission_id not in self._scheduler:
            raise ExperimentError(f"unknown mission {mission_id!r}")
        subscription = Subscription(mission_id, self.queue_limit)
        self._subscriptions.append(subscription)
        record = (
            None if mission_id is None else self._scheduler.get(mission_id)
        )
        if self._stopped or (record is not None and record.done):
            subscription._close()
        return subscription

    def result(self, mission_id: str) -> MissionResult | None:
        """A completed mission's result (None while live/cancelled)."""
        record = self._scheduler.get(mission_id)
        return None if record is None else record.result

    def status(self, mission_id: str | None = None) -> dict:
        """JSON-ready service (or single-mission) status.

        Includes the shed counters — the visible face of the
        backpressure policy — and the shared artifact-cache hit rate.
        """
        if mission_id is not None:
            record = self._scheduler.get(mission_id)
            if record is None:
                raise ExperimentError(f"unknown mission {mission_id!r}")
            return self._record_status(record)
        states = {ACTIVE: 0, COMPLETED: 0, CANCELLED: 0, FAILED: 0}
        missions = {}
        for record in self._scheduler.records():
            states[record.state] += 1
            missions[record.mission_id] = self._record_status(record)
        return {
            "ticks": self._scheduler.ticks,
            "missions": missions,
            "events_shed": self.events_shed,
            "artifact_hit_rate": ARTIFACTS.stats.hit_rate(),
            **states,
        }

    @staticmethod
    def _record_status(record: MissionRecord) -> dict:
        status = {
            "state": record.state,
            "epoch": record.session.epoch,
            "epochs": record.session.total_epochs,
            "label": record.label,
            "digest": mission_digest(record.session.mission),
            "events_shed": record.events_shed,
        }
        if record.error:
            status["error"] = record.error
        return status

    def has_active(self) -> bool:
        return self._scheduler.has_active()

    # ------------------------------------------------------------------
    # The engine
    # ------------------------------------------------------------------
    async def tick(self) -> int:
        """Run one scheduler tick; returns epochs stepped.

        Selects up to ``max_concurrency`` missions (fair, seeded —
        :class:`~repro.service.scheduler.Scheduler`) and steps each one
        epoch on a worker thread, publishing the epoch's events as it
        lands.  Cancellation observed mid-step suppresses the stale
        epoch's events (the session state is still advanced — epochs
        are pure, so the extra work is waste, not corruption).
        """
        window = self._scheduler.select(self.max_concurrency)
        stepped = 0
        for record in window:
            if record.state != ACTIVE:
                continue  # cancelled earlier in this very tick
            session = record.session
            epoch = session.epoch
            self._publish(
                epoch_started_event(
                    record.mission_id, epoch, session.topology_delta(epoch)
                )
            )
            try:
                report = await asyncio.to_thread(session.step)
            except Exception as exc:  # noqa: BLE001 - any epoch failure
                record.state = FAILED
                record.error = f"{type(exc).__name__}: {exc}"
                self._publish(
                    MissionFailed(
                        mission_id=record.mission_id,
                        epoch=epoch,
                        error=record.error,
                    )
                )
                self._close_mission_subscriptions(record.mission_id)
                continue
            stepped += 1
            if record.state != ACTIVE:
                continue  # cancelled while the epoch was in flight
            for event in epoch_completed_events(
                record.mission_id, report, record.cut_emerged
            ):
                self._publish(event)
            record.cut_emerged = record.cut_emerged or bool(report.partitionable)
            if session.done:
                self._complete(record)
        if self.tick_interval > 0:
            await asyncio.sleep(self.tick_interval)
        else:
            await asyncio.sleep(0)  # always yield to protocol I/O
        return stepped

    def _complete(self, record: MissionRecord) -> None:
        record.state = COMPLETED
        result = record.session.result()
        record.result = result
        # Seed the per-process memo: a later batch ask (timeline,
        # measure cell) for the same spec is now free.
        store_mission_result(result.mission, result)
        if record.artifact:
            # Written before MissionCompleted is published, so a
            # consumer reacting to the event can read the artefact.
            write_mission_artifact(result, record.artifact)
        self._publish(completion_event(record.mission_id, result))
        self._close_mission_subscriptions(record.mission_id)

    async def drain(self) -> None:
        """Tick until no active mission remains."""
        while self._scheduler.has_active():
            await self.tick()

    def shutdown(self) -> None:
        """Cancel live missions and close every stream (incl. firehose)."""
        for record in list(self._scheduler.records()):
            if record.state == ACTIVE:
                self.cancel(record.mission_id)
        for subscription in self._subscriptions:
            subscription._close()
        self._stopped = True

    # ------------------------------------------------------------------
    # Event publication
    # ------------------------------------------------------------------
    def _publish(self, event: MissionEvent) -> None:
        if self._event_log is not None:
            self._event_log.emit(event)
        record = self._scheduler.get(event.mission_id)
        for subscription in self._subscriptions:
            if (
                subscription.mission_id is not None
                and subscription.mission_id != event.mission_id
            ):
                continue
            if not subscription._offer(event):
                self.events_shed += 1
                if record is not None:
                    record.events_shed += 1

    def _close_mission_subscriptions(self, mission_id: str) -> None:
        for subscription in self._subscriptions:
            if subscription.mission_id == mission_id:
                subscription._close()


__all__ = ["FleetService", "Subscription"]
