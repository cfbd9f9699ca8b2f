"""Tests for the chaos fabric (DESIGN.md §14).

The headline invariant, stated once and gated many ways below: under
any committed :class:`FaultPlan`, queue-backed sweep rows stay
byte-identical to the serial path, journals account for every cell
(no silent double execution), and every degradation — retry,
quarantine, local fallback — is *reported*, never swallowed.

Layout mirrors the layer being attacked:

* ``TestRetryPolicy`` / ``TestFaultPlan`` — the deterministic
  machinery itself (seeded backoff, plan round-trips, env gating);
* ``TestUnreachableMatrix`` — every queue op × every injected errno
  converts to retry-then-``QueueUnreachable``, never a raw traceback;
* ``TestQuarantine`` — the poison-shard dead-letter protocol;
* ``TestChaosEquivalence`` — the committed plans in
  ``tests/chaos_plans/`` replayed against the client in-process;
* ``TestSupervisor`` — worker-fleet lifecycle: restart with backoff,
  crash-loop detection, drain;
* ``TestCiSmokePlan`` — the full CI scenario: a supervised fleet under
  one SIGKILL + one EIO burst + one poisoned shard, rows still
  byte-identical to serial;
* ``TestServeDrain`` — SIGTERM on ``repro serve`` exits 130 after a
  graceful drain.
"""

from __future__ import annotations

import json
import os
import pathlib
import signal
import subprocess
import sys
import threading

import pytest

from repro import cli
from repro.errors import ExperimentError
from repro.experiments.artifacts import ARTIFACTS, clear_artifact_cache
from repro.experiments.parallel import colocation_chunks
from repro.experiments.persistence import dump_figure_json
from repro.experiments.spec import SWEEP_ENGINE, _cell_colocation_key
from repro.fabric import chaos
from repro.fabric.chaos import Fault, FaultPlan, JitteredBackoff, RetryPolicy
from repro.fabric.client import job_id_of, run_sweep_via_queue
from repro.fabric.queue import (
    DEFAULT_POISON_BREAKS,
    FabricQueue,
    QueueUnreachable,
)
from repro.fabric.supervisor import Supervisor
from repro.fabric.worker import run_worker

pytestmark = pytest.mark.filterwarnings(
    "ignore::pytest.PytestUnraisableExceptionWarning"
)

PLANS_DIR = pathlib.Path(__file__).parent / "chaos_plans"
SMALL = {"ns": (8, 10), "ks": (2,)}
TINY = {"ns": (8,), "ks": (2,)}

#: a fast policy for tests: same shape, millisecond sleeps.
FAST_RETRY = RetryPolicy(attempts=3, base_delay=0.001, max_delay=0.004)


@pytest.fixture(autouse=True)
def _clean_slate():
    clear_artifact_cache()
    chaos.deactivate()
    yield
    chaos.deactivate()
    clear_artifact_cache()


def _resolve(overrides=SMALL, figure="fig3"):
    return SWEEP_ENGINE.resolve(figure, overrides=overrides)


def _serial_json(overrides=SMALL, figure="fig3") -> str:
    figure_data = SWEEP_ENGINE.run(_resolve(overrides, figure))
    return dump_figure_json(figure_data)


def _submit_only(queue: FabricQueue, resolved):
    plan, cells = SWEEP_ENGINE.prepare(resolved)
    shards = colocation_chunks(cells, _cell_colocation_key)
    job_id = job_id_of(resolved)
    queue.connect()
    queue.submit(
        job_id,
        resolved.spec.figure_id,
        resolved.payload(),
        cells,
        [list(shard) for shard in shards],
    )
    return job_id, plan, cells, shards


def _journal_events(queue: FabricQueue, job_id: str, event: str) -> list[dict]:
    return [
        entry
        for entry in queue.read_journal(job_id)
        if entry.get("event") == event
    ]


def _assert_accounted_exactly_once(queue: FabricQueue, job_id: str, cells) -> None:
    """Strict journal accounting for kill/quarantine plans: every shard
    is covered exactly once, by either an ``executed`` or a
    ``quarantined-local`` event, and the cell totals add up."""
    record = queue.load_job(job_id)
    executed = _journal_events(queue, job_id, "executed")
    local = _journal_events(queue, job_id, "quarantined-local")
    covered = [entry["shard"] for entry in executed + local]
    assert sorted(covered) == sorted(set(covered)), "a shard was accounted twice"
    assert set(covered) == set(range(record.total_shards))
    local_cells = sum(
        len(record.shards[entry["shard"]]) for entry in local
    )
    assert sum(entry["cells"] for entry in executed) + local_cells == len(cells)


class TestRetryPolicy:
    def test_delays_are_deterministic_and_bounded(self):
        policy = RetryPolicy(attempts=5, base_delay=0.05, max_delay=0.2, seed=9)
        first, second = policy.delays(), policy.delays()
        assert first == second  # seeded: the schedule is data
        assert len(first) == 4
        assert all(0 < delay <= 0.2 for delay in first)

    def test_call_retries_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        assert FAST_RETRY.call(flaky) == "ok"
        assert len(calls) == 3

    def test_call_exhausts_and_reraises(self):
        def doomed():
            raise OSError("persistent")

        with pytest.raises(OSError, match="persistent"):
            FAST_RETRY.call(doomed)

    def test_backoff_grows_caps_and_resets(self):
        backoff = JitteredBackoff(base=0.1, cap=0.4, multiplier=2.0, jitter=0.0)
        assert [backoff.next() for _ in range(4)] == [0.1, 0.2, 0.4, 0.4]
        backoff.reset()
        assert backoff.next() == 0.1

    def test_jitter_only_shrinks_within_fraction(self):
        backoff = JitteredBackoff(base=1.0, cap=1.0, jitter=0.5, seed=1)
        for _ in range(20):
            value = backoff.next()
            assert 0.5 <= value <= 1.0


class TestFaultPlan:
    def test_round_trips_through_disk(self, tmp_path):
        plan = FaultPlan(
            faults=(
                Fault(kind="kill", role="worker", at_cell=3, once=True),
                Fault(kind="queue-error", op="claim", at_op=2, errno="ENOSPC"),
            ),
            seed=17,
        )
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_unknown_fault_field_is_loud(self):
        with pytest.raises(ExperimentError, match="unknown fault field"):
            Fault.from_payload({"kind": "kill", "when": "now"})

    def test_unknown_kind_role_errno_are_loud(self):
        with pytest.raises(ExperimentError, match="unknown fault kind"):
            Fault(kind="gremlin")
        with pytest.raises(ExperimentError, match="unknown fault role"):
            Fault(kind="kill", role="bystander")
        with pytest.raises(ExperimentError, match="unsupported errno"):
            Fault(kind="queue-error", errno="EPERM")

    def test_version_gate_refuses_future_plans(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"version": 99, "faults": []}))
        with pytest.raises(ExperimentError, match="version"):
            FaultPlan.load(path)

    def test_env_plan_absent_means_no_injection(self, monkeypatch):
        monkeypatch.delenv(chaos.PLAN_ENV, raising=False)
        assert chaos.env_plan() is None
        assert chaos.activate("client") is None
        assert chaos.active() is None

    def test_committed_plans_all_load(self):
        plans = sorted(PLANS_DIR.glob("*.json"))
        # eio-burst, storage-rot, skew, ci-smoke, sigkill-stall
        assert len(plans) >= 5
        for path in plans:
            assert isinstance(FaultPlan.load(path), FaultPlan)


def _errno_fault(op: str, errno_name: str, burst: int) -> FaultPlan:
    return FaultPlan(
        faults=(
            Fault(
                kind="queue-error", op=op, at_op=1, burst=burst, errno=errno_name
            ),
        )
    )


class TestUnreachableMatrix:
    """Satellite: every queue op converts every injected ``OSError``
    into retry-then-degrade — never a traceback."""

    OPS = {
        "submit": lambda queue, job_id: _submit_only(queue, _resolve(TINY)),
        "claim": lambda queue, job_id: queue.claim(job_id, 0, "w-matrix"),
        "publish": lambda queue, job_id: queue.write_result(
            job_id, 0, {"shard": 0, "indices": [0], "values": [1]}
        ),
        "status": lambda queue, job_id: queue.completed_shards(job_id),
    }

    @staticmethod
    def _fixture(tmp_path, op):
        queue = FabricQueue(tmp_path / "q", retry=FAST_RETRY)
        job_id = None
        if op != "submit":
            job_id, _, _, _ = _submit_only(FabricQueue(tmp_path / "q"), _resolve(TINY))
        return queue, job_id

    @pytest.mark.parametrize("errno_name", chaos.ERRNOS)
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_persistent_fault_degrades_never_raw(self, tmp_path, op, errno_name):
        queue, job_id = self._fixture(tmp_path, op)
        with chaos.use(_errno_fault(op, errno_name, burst=99)):
            with pytest.raises(QueueUnreachable) as excinfo:
                self.OPS[op](queue, job_id)
        assert errno_name in str(excinfo.value)  # reported, not silent
        assert queue.retries_used == FAST_RETRY.attempts - 1

    @pytest.mark.parametrize("errno_name", chaos.ERRNOS)
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_transient_fault_is_absorbed_by_retry(self, tmp_path, op, errno_name):
        queue, job_id = self._fixture(tmp_path, op)
        with chaos.use(_errno_fault(op, errno_name, burst=1)):
            self.OPS[op](queue, job_id)  # must not raise
        assert queue.retries_used == 1  # counted, never silent

    @pytest.mark.parametrize("errno_name", chaos.ERRNOS)
    def test_journal_is_best_effort_under_faults(self, tmp_path, errno_name):
        queue = FabricQueue(tmp_path / "q", retry=FAST_RETRY)
        job_id, _, _, _ = _submit_only(FabricQueue(tmp_path / "q"), _resolve(TINY))
        with chaos.use(_errno_fault("journal", errno_name, burst=99)):
            queue.journal(job_id, "w-matrix", {"event": "executed", "shard": 0})
        assert queue.read_journal(job_id) == []  # dropped, not raised

    def test_unretried_queue_still_translates_oserror(self, tmp_path):
        # retry=None (the protocol-test configuration): the very first
        # injected fault surfaces as QueueUnreachable, not OSError.
        queue = FabricQueue(tmp_path / "q")
        with chaos.use(_errno_fault("connect", "EIO", burst=1)):
            with pytest.raises(QueueUnreachable):
                queue.connect()

    def test_client_degrades_loudly_under_persistent_claim_faults(self, tmp_path):
        serial = _serial_json(TINY)
        clear_artifact_cache()
        with chaos.use(_errno_fault("claim", "ENOSPC", burst=999)):
            run = run_sweep_via_queue(_resolve(TINY), tmp_path / "q")
        assert run.degraded
        assert "ENOSPC" in run.degraded_reason
        assert dump_figure_json(run.figure) == serial
        payload = run.stats_payload()
        assert payload["degraded"] is True
        assert payload["retries"] == run.retries > 0


class TestQuarantine:
    def _poison(self, queue: FabricQueue, job_id: str, shard: int = 0) -> None:
        """Break the shard's lease until one break short of quarantine,
        by repeatedly rewriting the live lease as a dead-pid one."""
        lease = queue.job_dir(job_id) / "leases" / f"{shard}.json"
        assert queue.claim(job_id, shard, "w-victim-0")
        for round_index in range(queue.poison_breaks - 1):
            record = json.loads(lease.read_text())
            record["pid"] = 2**22 + 1  # beyond pid_max: provably dead
            lease.write_text(json.dumps(record))
            assert queue.claim(job_id, shard, f"w-victim-{round_index + 1}")
        record = json.loads(lease.read_text())
        record["pid"] = 2**22 + 1
        lease.write_text(json.dumps(record))

    def test_nth_break_quarantines_instead_of_reclaiming(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        job_id, _, _, _ = _submit_only(queue, _resolve(TINY))
        self._poison(queue, job_id)
        # The poison_breaks-th break dead-letters the shard: the would-be
        # claimer walks away instead of becoming the next casualty.
        assert queue.claim(job_id, 0, "w-would-be-victim") is False
        assert queue.is_quarantined(job_id, 0)
        assert queue.quarantined_shards(job_id) == {0}
        assert queue.lease_breaks(job_id, 0) == queue.poison_breaks
        events = _journal_events(queue, job_id, "quarantined")
        assert events and events[0]["shard"] == 0
        status = queue.status(job_id)
        assert status.quarantined == 1
        assert status.lease_breaks == queue.poison_breaks
        assert "quarantined" in status.describe()

    def test_quarantined_shard_never_claimed_again(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        job_id, _, _, _ = _submit_only(queue, _resolve(TINY))
        queue.quarantine(job_id, 0, breaks=3, worker_id="w-breaker")
        assert queue.claim(job_id, 0, "w-any") is False
        stats = run_worker(queue, worker_id="w-drainer", once=True)
        assert 0 not in {  # the drainer skipped the dead letter
            entry["shard"] for entry in _journal_events(queue, job_id, "executed")
        }

    def test_client_completes_quarantined_job_locally(self, tmp_path):
        serial = _serial_json(TINY)
        clear_artifact_cache()
        queue = FabricQueue(tmp_path / "q")
        job_id, _, cells, _ = _submit_only(queue, _resolve(TINY))
        queue.quarantine(job_id, 0, breaks=3, worker_id="w-breaker")
        run = run_sweep_via_queue(_resolve(TINY), tmp_path / "q")
        assert dump_figure_json(run.figure) == serial
        assert run.quarantined == 1
        assert "quarantined" in run.describe()
        assert run.stats_payload()["quarantined"] == 1
        local = _journal_events(queue, job_id, "quarantined-local")
        assert [entry["shard"] for entry in local] == [0]
        # Durable: the locally-executed result was published, so a
        # resume collects it without executing anything.
        clear_artifact_cache()
        again = run_sweep_via_queue(_resolve(TINY), tmp_path / "q")
        assert again.resumed_shards == again.total_shards
        assert dump_figure_json(again.figure) == serial

    def test_quarantined_artifact_shards_counted_once(self, tmp_path):
        """The client executes quarantined shards in its own process:
        their deltas must not be merged back on collection."""
        overrides = {**SMALL, "env.artifacts": True}
        SWEEP_ENGINE.run(_resolve(overrides))
        serial = ARTIFACTS.stats.counters()
        clear_artifact_cache()
        queue = FabricQueue(tmp_path / "q")
        job_id, _, _, shards = _submit_only(queue, _resolve(overrides))
        for shard in range(len(shards)):
            queue.quarantine(job_id, shard, breaks=3, worker_id="w-breaker")
        run = run_sweep_via_queue(_resolve(overrides), tmp_path / "q")
        assert run.quarantined == len(shards)
        assert run.client_shards == 0
        assert ARTIFACTS.stats.counters() == serial

    def test_reentrant_claim_recognises_own_lease(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        job_id, _, _, _ = _submit_only(queue, _resolve(TINY))
        assert queue.claim(job_id, 0, "w-self") is True
        # A retried claim after a transient fault must not fight its own
        # lease (or count a break against the shard).
        assert queue.claim(job_id, 0, "w-self") is True
        assert queue.lease_breaks(job_id, 0) == 0
        assert queue.claim(job_id, 0, "w-other") is False

    def test_clock_skew_breaks_fresh_crosshost_lease(self, tmp_path):
        queue = FabricQueue(tmp_path / "q", lease_ttl=600)
        job_id, _, _, _ = _submit_only(queue, _resolve(TINY))
        assert queue.claim(job_id, 0, "w-remote")
        lease = queue.job_dir(job_id) / "leases" / "0.json"
        record = json.loads(lease.read_text())
        record["host"] = "some-other-host"  # pid probe impossible
        lease.write_text(json.dumps(record))
        assert queue.claim(job_id, 0, "w-thief") is False  # fresh: protected
        skew = FaultPlan(faults=(Fault(kind="clock-skew", seconds=3600),))
        with chaos.use(skew):
            # Positive skew: the fresh lease now *looks* older than the
            # TTL, so it breaks — the idempotent double-claim window the
            # result-presence protocol exists for.
            assert queue.claim(job_id, 0, "w-thief") is True
        assert queue.lease_breaks(job_id, 0) == 1


class TestChaosEquivalence:
    """The chaos equivalence gate over the committed client-side plans:
    rows byte-identical to serial, degradations journalled."""

    @pytest.mark.parametrize("plan_name", ["eio-burst", "storage-rot", "skew"])
    def test_committed_plan_rows_byte_identical(self, tmp_path, plan_name):
        serial = _serial_json(SMALL)
        clear_artifact_cache()
        plan = FaultPlan.load(PLANS_DIR / f"{plan_name}.json")
        with chaos.use(plan, role="client", queue_root=tmp_path / "q"):
            run = run_sweep_via_queue(_resolve(SMALL), tmp_path / "q")
        assert not run.degraded
        assert dump_figure_json(run.figure) == serial

    def test_eio_burst_retries_are_counted(self, tmp_path):
        plan = FaultPlan.load(PLANS_DIR / "eio-burst.json")
        with chaos.use(plan, role="client", queue_root=tmp_path / "q"):
            run = run_sweep_via_queue(_resolve(SMALL), tmp_path / "q")
        assert run.retries >= 2  # the burst cost two retries, reported

    def test_storage_rot_is_discarded_and_reexecuted(self, tmp_path):
        plan = FaultPlan.load(PLANS_DIR / "storage-rot.json")
        with chaos.use(plan, role="client", queue_root=tmp_path / "q"):
            run = run_sweep_via_queue(_resolve(SMALL), tmp_path / "q")
        queue = FabricQueue(tmp_path / "q")
        job_id = job_id_of(_resolve(SMALL))
        discarded = _journal_events(queue, job_id, "discarded")
        assert [entry["shard"] for entry in discarded] == [0]
        executed = _journal_events(queue, job_id, "executed")
        # Relaxed accounting under rot: shard 0's re-execution is
        # explained by its discard — every extra execution has a
        # journalled discard, nothing is double-trusted silently.
        per_shard: dict[int, int] = {}
        for entry in executed:
            per_shard[entry["shard"]] = per_shard.get(entry["shard"], 0) + 1
        assert per_shard[0] == 1 + len(discarded)
        assert all(count == 1 for shard, count in per_shard.items() if shard != 0)


class TestSupervisor:
    def test_supervised_fleet_drains_a_job(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        job_id, _, cells, shards = _submit_only(queue, _resolve(TINY))
        report = Supervisor(
            tmp_path / "q",
            workers=1,
            drain=True,
            worker_idle_timeout=10,
            poll=0.1,
        ).run()
        assert report.drained
        assert report.restarts == 0
        assert report.crash_loops == 0
        assert len(queue.completed_shards(job_id)) == len(shards)
        # Liveness surfaced: the worker's heartbeats and the
        # supervisor's state both persist in the queue.
        beats = queue.read_heartbeats()
        assert any(key.endswith("-w0") for key in beats)
        states = queue.read_supervisor_state()
        assert report.supervisor_id in states
        assert states[report.supervisor_id]["restarts"] == 0

    def test_crash_loop_is_detected_not_retried_forever(self, tmp_path, monkeypatch):
        plan = FaultPlan(
            faults=(Fault(kind="kill", role="worker", shard=0),)
        )
        plan_path = plan.save(tmp_path / "poison.json")
        monkeypatch.setenv(chaos.PLAN_ENV, str(plan_path))
        queue = FabricQueue(tmp_path / "q")
        _submit_only(queue, _resolve(TINY))
        report = Supervisor(
            tmp_path / "q",
            workers=1,
            max_restarts=1,
            poll=0.1,
        ).run()
        assert report.crash_loops == 1
        assert report.restarts == 1  # budget spent, then left down
        states = queue.read_supervisor_state()
        assert states[report.supervisor_id]["crash_loops"] == 1


class TestCiSmokePlan:
    def test_fleet_survives_kill_burst_and_poison(self, tmp_path, monkeypatch):
        """The CI chaos-smoke scenario, in-tree: a supervised fleet of 2
        under the committed ci-smoke plan (one fleet-wide SIGKILL, one
        EIO burst, one poisoned shard).  The pure-coordinator client
        still assembles rows byte-identical to serial, the poisoned
        shard lands in the dead letter, and the journals account for
        every cell exactly once."""
        serial = _serial_json(SMALL)
        clear_artifact_cache()
        resolved = _resolve(SMALL)
        monkeypatch.setenv(chaos.PLAN_ENV, str(PLANS_DIR / "ci-smoke.json"))
        supervisor = Supervisor(
            tmp_path / "q",
            workers=2,
            drain=True,
            max_restarts=8,
            worker_idle_timeout=20,
            poll=0.1,
        )
        crew = threading.Thread(target=supervisor.run, daemon=True)
        crew.start()
        try:
            run = run_sweep_via_queue(resolved, tmp_path / "q", work=False)
        finally:
            supervisor.request_stop()
            crew.join(timeout=60)
        assert not crew.is_alive(), "supervisor failed to drain"
        assert not run.degraded
        assert dump_figure_json(run.figure) == serial  # the headline gate
        assert run.client_shards == 0  # --no-work honoured
        assert run.quarantined == 1  # the poisoned shard, reported
        # The poisoned shard alone costs poison_breaks lease breaks.
        assert run.lease_breaks >= DEFAULT_POISON_BREAKS
        queue = FabricQueue(tmp_path / "q")
        job_id = job_id_of(resolved)
        assert queue.quarantined_shards(job_id) == {1}
        _assert_accounted_exactly_once(queue, job_id, queue.cells(job_id))
        status = queue.status(job_id)
        assert status.done
        assert status.quarantined == 1


class TestServeDrain:
    def test_sigterm_drains_and_exits_130(self, tmp_path):
        # Run the serve daemon of the checkout under test, not whatever
        # a fixed path or the working directory would put first.
        src_root = pathlib.Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src_root), env.get("PYTHONPATH")])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve"],
            cwd=tmp_path,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stderr.readline()
            assert "serve:" in banner
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate(timeout=30)
        assert proc.returncode == 130
        assert "drained gracefully" in err
        assert "resume" in err


class TestChaosCli:
    def test_fabric_status_json_has_chaos_counters(self, tmp_path, capsys):
        queue = FabricQueue(tmp_path / "q")
        job_id, _, _, _ = _submit_only(queue, _resolve(TINY))
        queue.quarantine(job_id, 0, breaks=3, worker_id="w-breaker")
        code = cli.main(["fabric", "status", "--queue", str(queue.root), "--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        job = payload["jobs"][job_id]
        assert job["quarantined"] == 1
        assert job["stale_leases"] == 0
        assert "lease_breaks" in job

    def test_fabric_status_json_unknown_job(self, tmp_path, capsys):
        queue = FabricQueue(tmp_path / "q")
        queue.connect()
        code = cli.main(
            ["fabric", "status", "fig3-feedfacef00d", "--queue", str(queue.root), "--json"]
        )
        assert code == 2
        assert "no job" in capsys.readouterr().out

    def test_sweep_no_work_resumes_worker_executed_job(self, tmp_path, capsys):
        queue = FabricQueue(tmp_path / "q")
        _submit_only(queue, _resolve(TINY))
        run_worker(queue, worker_id="w-fleet", once=True)
        clear_artifact_cache()
        code = cli.main(
            [
                "sweep",
                "fig3",
                "--set",
                "ns=8",
                "--set",
                "ks=2",
                "--backend",
                "queue",
                "--queue",
                str(queue.root),
                "--no-work",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0 by this client" in out

    def test_fabric_stats_land_in_artifact_metadata(self, tmp_path, capsys):
        queue = FabricQueue(tmp_path / "q")
        job_id, _, _, _ = _submit_only(queue, _resolve(TINY))
        queue.quarantine(job_id, 0, breaks=3, worker_id="w-breaker")
        out_path = tmp_path / "figure.json"
        code = cli.main(
            [
                "sweep",
                "fig3",
                "--set",
                "ns=8",
                "--set",
                "ks=2",
                "--backend",
                "queue",
                "--queue",
                str(queue.root),
                "--out",
                str(out_path),
            ]
        )
        assert code == 0
        payload = json.loads(out_path.read_text())
        fabric = payload["metadata"]["fabric"]
        assert fabric["quarantined"] == 1
        assert fabric["degraded"] is False
        assert fabric["lease_breaks"] == 0  # quarantined directly, no breaks
