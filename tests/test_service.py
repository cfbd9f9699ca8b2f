"""Tests for the fleet service (DESIGN.md §12).

The contracts under test, in rough order of importance:

* **serve ≡ batch**: a mission streamed epoch-by-epoch through a
  :class:`FleetService` produces a bit-identical
  :class:`~repro.experiments.mission.MissionResult` — and an identical
  event sequence — to batch ``run_mission`` of the same spec.
* **deterministic interleaving**: the firehose event order of many
  concurrent missions is a pure function of (submission order,
  scheduler seed); two fresh services replay it exactly.
* **backpressure sheds, never stalls**: slow subscribers lose events
  (counted, surfaced in ``status``); the engine and the event log are
  unaffected.
* **cancellation is clean**: a half-flown mission leaves the shared
  artifact cache exactly as consistent as a finished one.
"""

import asyncio

import pytest

from repro.errors import ExperimentError
from repro.experiments.artifacts import clear_artifact_cache
from repro.experiments.envspec import DEFAULT_ENVIRONMENT, EnvironmentSpec
from repro.experiments.mission import (
    MissionSession,
    MissionSpec,
    TrajectorySpec,
    clear_mission_memo,
    run_mission,
)
from repro.service import (
    ACTIVE,
    CANCELLED,
    COMPLETED,
    FAILED,
    EventLog,
    FleetService,
    MissionCancelled,
    MissionCompleted,
    MissionFailed,
    MissionRecord,
    Scheduler,
    event_payload,
    mission_events,
    read_event_log,
)


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Missions memoise per process; isolate every test."""
    clear_mission_memo()
    clear_artifact_cache()
    yield
    clear_mission_memo()
    clear_artifact_cache()


def tiny_mission(seed=0, epochs=3, n=8, env=DEFAULT_ENVIRONMENT):
    """A small, fast mission spec (distinct per seed)."""
    return MissionSpec(
        trajectory=TrajectorySpec(n=n, epochs=epochs, seed=seed),
        t=1,
        seed=seed,
        env=env,
    )


def _stub_record(mission_id, state=ACTIVE):
    """Scheduler tests need records, not sessions."""
    record = MissionRecord(mission_id=mission_id, session=None)
    record.state = state
    return record


class TestScheduler:
    def test_round_robin_rotation(self):
        scheduler = Scheduler(seed=None)
        for name in ("a", "b", "c"):
            scheduler.add(_stub_record(name))
        windows = [
            [record.mission_id for record in scheduler.select(2)]
            for _ in range(3)
        ]
        assert windows == [["a", "b"], ["c", "a"], ["b", "c"]]

    def test_finished_missions_leave_the_rotation(self):
        scheduler = Scheduler(seed=None)
        for name in ("a", "b", "c"):
            scheduler.add(_stub_record(name))
        scheduler.get("b").state = COMPLETED
        window = [record.mission_id for record in scheduler.select(3)]
        assert window == ["a", "c"]
        assert scheduler.active_count() == 2
        assert scheduler.has_active()

    def test_seeded_selection_is_reproducible(self):
        def trace(seed):
            scheduler = Scheduler(seed=seed)
            for name in ("a", "b", "c", "d", "e"):
                scheduler.add(_stub_record(name))
            return [
                tuple(record.mission_id for record in scheduler.select(3))
                for _ in range(6)
            ]

        assert trace(7) == trace(7)

    def test_window_limit_must_be_positive(self):
        with pytest.raises(ValueError):
            Scheduler().select(0)

    def test_records_in_submission_order(self):
        scheduler = Scheduler()
        for name in ("x", "y"):
            scheduler.add(_stub_record(name))
        assert [record.mission_id for record in scheduler.records()] == ["x", "y"]
        assert "x" in scheduler and "nope" not in scheduler
        assert len(scheduler) == 2


class TestSessionEquivalence:
    def test_step_loop_equals_batch(self):
        spec = tiny_mission(seed=3, epochs=4)
        session = MissionSession(spec)
        reports = []
        while not session.done:
            reports.append(session.step())
        assert session.result() == run_mission(spec)
        assert reports == list(run_mission(spec).reports)

    def test_result_before_done_raises(self):
        session = MissionSession(tiny_mission())
        with pytest.raises(ExperimentError):
            session.result()

    def test_step_past_end_raises(self):
        session = MissionSession(tiny_mission(epochs=1))
        session.step()
        with pytest.raises(ExperimentError):
            session.step()


class TestFleetService:
    # On the async backend every epoch's AsyncCluster.run starts its own
    # event loop on a worker thread while the service loop runs.
    @pytest.mark.parametrize("backend", ["sync", "async"])
    def test_single_mission_streams_batch_events(self, backend):
        spec = tiny_mission(seed=1, epochs=4, env=EnvironmentSpec(backend=backend))

        async def fly():
            service = FleetService()
            subscription = service.subscribe()
            mission_id = service.submit(spec)
            await service.drain()
            return mission_id, subscription.drain_nowait(), service

        mission_id, streamed, service = asyncio.run(fly())
        batch = run_mission(spec)
        assert service.result(mission_id) == batch
        assert streamed == mission_events(mission_id, batch)

    def test_interleaving_is_deterministic_per_seed(self):
        specs = [tiny_mission(seed=seed, epochs=3, n=6) for seed in range(3)]

        async def fly(seed):
            service = FleetService(max_concurrency=2, seed=seed)
            firehose = service.subscribe()
            for spec in specs:
                service.submit(spec)
            await service.drain()
            return [event_payload(event) for event in firehose.drain_nowait()]

        first = asyncio.run(fly(5))
        second = asyncio.run(fly(5))
        assert first == second
        # The stream interleaves missions (not strictly one after the
        # other): some mission's first event appears before another's
        # last.
        ids = [payload["mission_id"] for payload in first]
        assert ids != sorted(ids)

    def test_64_concurrent_missions_bit_identical_to_batch(self):
        """The acceptance bar: >= 64 missions multiplexed on one loop."""
        specs = [tiny_mission(seed=seed, epochs=2, n=6) for seed in range(64)]

        async def fly():
            service = FleetService(max_concurrency=16, seed=1)
            ids = [service.submit(spec) for spec in specs]
            await service.drain()
            return service, ids

        service, ids = asyncio.run(fly())
        status = service.status()
        assert status["completed"] == 64 and status["active"] == 0
        for spec, mission_id in zip(specs, ids):
            clear_mission_memo()  # force a genuinely fresh batch flight
            assert service.result(mission_id) == run_mission(spec)

    def test_backpressure_sheds_and_is_surfaced(self):
        spec = tiny_mission(seed=2, epochs=4)

        async def fly():
            service = FleetService(queue_limit=2)
            slow = service.subscribe()  # never consumed
            mission_id = service.submit(spec)
            await service.drain()
            return service, slow, mission_id

        service, slow, mission_id = asyncio.run(fly())
        assert slow.shed > 0
        assert service.events_shed == slow.shed
        status = service.status()
        assert status["events_shed"] == slow.shed
        assert status["missions"][mission_id]["events_shed"] == slow.shed
        # The bounded queue holds at most queue_limit entries.
        assert len(slow.drain_nowait()) <= 2

    def test_event_log_never_sheds(self, tmp_path):
        spec = tiny_mission(seed=4, epochs=3)
        log_path = tmp_path / "events.jsonl"

        async def fly():
            with EventLog(log_path) as log:
                service = FleetService(queue_limit=1, event_log=log)
                service.subscribe()  # a shedding subscriber
                mission_id = service.submit(spec)
                await service.drain()
            return mission_id, service

        mission_id, service = asyncio.run(fly())
        assert service.events_shed > 0
        assert read_event_log(log_path) == mission_events(
            mission_id, run_mission(spec)
        )

    def test_cancellation(self):
        long = tiny_mission(seed=5, epochs=5)
        short = tiny_mission(seed=6, epochs=2)

        async def fly():
            service = FleetService(max_concurrency=2)
            watcher_events = []
            long_id = service.submit(long)
            short_id = service.submit(short)
            watcher = service.subscribe(long_id)
            await service.tick()
            assert service.cancel(long_id)
            assert not service.cancel(long_id)  # already cancelled
            assert not service.cancel("m9999")  # unknown
            await service.drain()
            watcher_events.extend(watcher.drain_nowait())
            return service, long_id, short_id, watcher_events

        service, long_id, short_id, events = asyncio.run(fly())
        assert service.status(long_id)["state"] == CANCELLED
        assert service.status(short_id)["state"] == COMPLETED
        assert service.result(long_id) is None
        assert service.result(short_id) == run_mission(short)
        assert isinstance(events[-1], MissionCancelled)
        assert events[-1].epoch == 1  # one tick flew exactly one epoch

    def test_cancellation_leaves_artifact_cache_consistent(self):
        """A half-flown artifact-backed mission must not poison later runs."""
        env = EnvironmentSpec(artifacts=True)
        cancelled = MissionSpec(
            trajectory=TrajectorySpec(n=8, epochs=4, seed=9), t=1, seed=9, env=env
        )
        follower = MissionSpec(
            trajectory=TrajectorySpec(n=8, epochs=4, seed=9), t=1, seed=10, env=env
        )

        async def fly():
            service = FleetService()
            cancelled_id = service.submit(cancelled)
            await service.tick()  # populate the cache with one epoch
            service.cancel(cancelled_id)
            await service.drain()

        asyncio.run(fly())
        # Both the cancelled spec and a cache-sharing sibling still
        # produce reference results against the warmed cache.
        plain = MissionSpec(
            trajectory=cancelled.trajectory, t=1, seed=cancelled.seed
        )
        assert run_mission(cancelled).reports == run_mission(plain).reports
        clear_mission_memo()
        plain_follower = MissionSpec(
            trajectory=follower.trajectory, t=1, seed=follower.seed
        )
        assert run_mission(follower).reports == run_mission(plain_follower).reports

    def test_failure_is_contained(self, monkeypatch):
        good = tiny_mission(seed=7, epochs=2)
        bad = tiny_mission(seed=8, epochs=2)

        async def fly():
            service = FleetService(max_concurrency=2)
            firehose = service.subscribe()
            good_id = service.submit(good)
            bad_id = service.submit(bad)
            record = service._scheduler.get(bad_id)

            def explode():
                raise RuntimeError("epoch went sideways")

            monkeypatch.setattr(record.session, "step", explode)
            await service.drain()
            return service, firehose.drain_nowait(), good_id, bad_id

        service, events, good_id, bad_id = asyncio.run(fly())
        assert service.status(bad_id)["state"] == FAILED
        assert "epoch went sideways" in service.status(bad_id)["error"]
        # The failure is the bad mission's terminal event; the good
        # mission still completes with a batch-identical result.
        failures = [event for event in events if isinstance(event, MissionFailed)]
        assert [event.mission_id for event in failures] == [bad_id]
        assert service.status(good_id)["state"] == COMPLETED
        assert service.result(good_id) == run_mission(good)

    def test_submit_validates_eagerly(self):
        async def fly():
            service = FleetService()
            with pytest.raises(ExperimentError):
                service.submit(
                    MissionSpec(
                        trajectory=TrajectorySpec(n=8, epochs=2), t=-1
                    )
                )
            assert len(service.status()["missions"]) == 0

        asyncio.run(fly())

    def test_subscribe_unknown_mission_raises(self):
        async def fly():
            service = FleetService()
            with pytest.raises(ExperimentError):
                service.subscribe("m0042")

        asyncio.run(fly())

    def test_subscription_to_finished_mission_closes_immediately(self):
        spec = tiny_mission(seed=11, epochs=2)

        async def fly():
            service = FleetService()
            mission_id = service.submit(spec)
            await service.drain()
            late = service.subscribe(mission_id)
            collected = [event async for event in late]
            return collected

        assert asyncio.run(fly()) == []

    def test_async_iteration_sees_terminal_event(self):
        spec = tiny_mission(seed=12, epochs=2)

        async def fly():
            service = FleetService()
            mission_id = service.submit(spec)
            subscription = service.subscribe(mission_id)

            async def consume():
                return [event async for event in subscription]

            consumer = asyncio.create_task(consume())
            await service.drain()
            return await consumer

        events = asyncio.run(fly())
        assert isinstance(events[-1], MissionCompleted)

    def test_shutdown_cancels_and_closes(self):
        spec = tiny_mission(seed=13, epochs=5)

        async def fly():
            service = FleetService()
            firehose = service.subscribe()
            mission_id = service.submit(spec)
            await service.tick()
            service.shutdown()
            events = firehose.drain_nowait()
            assert service.status(mission_id)["state"] == CANCELLED
            with pytest.raises(ExperimentError):
                service.submit(spec)
            # A post-shutdown subscription is born closed.
            assert [event async for event in service.subscribe()] == []
            return events

        events = asyncio.run(fly())
        assert isinstance(events[-1], MissionCancelled)

    def test_completed_mission_writes_artifact(self, tmp_path):
        spec = tiny_mission(seed=14, epochs=3)
        target = tmp_path / "mission.json"

        async def fly():
            service = FleetService()
            service.submit(spec, artifact=str(target))
            await service.drain()

        asyncio.run(fly())
        from repro.experiments.mission import write_mission_artifact

        reference = tmp_path / "reference.json"
        write_mission_artifact(run_mission(spec), reference)
        assert target.read_text() == reference.read_text()
