"""Tests for the distributed sweep fabric (DESIGN.md §13).

The load-bearing claims, in roughly the order the design doc states
them:

* the queue's lease protocol is exclusive, crash-safe and never
  claims completed work;
* a queue-backed sweep — including one interrupted and resumed, and
  one whose worker was SIGKILLed mid-shard — produces rows
  *byte-identical* to the serial path, with no cell executed twice
  (journal accounting);
* an unreachable queue degrades to local execution instead of
  failing, both before submission (the CLI path, exit 0) and mid-run
  (inside the client).
"""

from __future__ import annotations

import json
import os
import pathlib
import pickle
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro import cli
from repro.errors import ExperimentError
from repro.experiments.artifacts import ARTIFACTS, clear_artifact_cache
from repro.experiments.parallel import colocation_chunks
from repro.experiments.persistence import atomic_write_bytes, dump_figure_json
from repro.experiments.spec import SWEEP_ENGINE, _cell_colocation_key
from repro.fabric import (
    PLAN_ENV,
    FabricQueue,
    Fault,
    FaultPlan,
    QUEUE_ENV,
    QueueUnreachable,
    job_id_of,
    run_sweep_via_queue,
    run_worker,
)

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")

SMALL = {"ns": (8, 10), "ks": (2,)}
TINY = {"ns": (8,), "ks": (2,)}

#: the ``src`` directory of the checkout under test: subprocesses put
#: it on PYTHONPATH so they run this code, wherever the suite runs.
SRC_ROOT = pathlib.Path(repro.__file__).resolve().parents[1]


@pytest.fixture(autouse=True)
def _cold_artifacts():
    clear_artifact_cache()
    yield
    clear_artifact_cache()


def _resolve(overrides=SMALL, figure="fig3"):
    return SWEEP_ENGINE.resolve(figure, overrides=overrides)


def _serial_json(overrides=SMALL, figure="fig3") -> str:
    figure_data = SWEEP_ENGINE.run(_resolve(overrides, figure))
    return dump_figure_json(figure_data)


def _submit_only(queue: FabricQueue, resolved):
    """Publish a job without executing anything (what a client does
    before its wait/work loop)."""
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


def _executed_events(queue: FabricQueue, job_id: str) -> list[dict]:
    return [
        entry
        for entry in queue.read_journal(job_id)
        if entry.get("event") == "executed"
    ]


def _assert_no_double_execution(queue: FabricQueue, job_id: str, cells) -> None:
    """Lease accounting: the union of worker journals covers every
    shard exactly once and every cell exactly once."""
    record = queue.load_job(job_id)
    executed = _executed_events(queue, job_id)
    shards_run = [entry["shard"] for entry in executed]
    assert sorted(shards_run) == sorted(set(shards_run)), "a shard ran twice"
    assert set(shards_run) == set(range(record.total_shards))
    assert sum(entry["cells"] for entry in executed) == len(cells)


class TestQueueProtocol:
    def test_submit_and_load_roundtrip(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        resolved = _resolve(TINY)
        job_id, _, cells, shards = _submit_only(queue, resolved)
        record = queue.load_job(job_id)
        assert record is not None
        assert record.figure_id == "fig3"
        assert record.cell_count == len(cells)
        assert record.shards == tuple(tuple(s) for s in shards)
        assert queue.list_jobs() == [job_id]
        # Content addressing: resubmitting the same resolved spec is a
        # no-op resume, not a new job.
        assert (
            queue.submit(job_id, "fig3", resolved.payload(), cells, shards)
            is False
        )

    def test_manifest_written_last_half_jobs_invisible(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        queue.connect()
        debris = queue.job_dir("fig3-deadbeef0000")
        (debris / "results").mkdir(parents=True)
        (debris / "cells.pkl").write_bytes(pickle.dumps([]))
        assert queue.list_jobs() == []  # no job.json, never claimable

    def test_claim_is_exclusive(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        job_id, _, _, _ = _submit_only(queue, _resolve(TINY))
        assert queue.claim(job_id, 0, "alice") is True
        assert queue.claim(job_id, 0, "bob") is False  # live same-host owner
        queue.release(job_id, 0)
        assert queue.claim(job_id, 0, "bob") is True

    def test_completed_shard_never_claimed(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        job_id, _, _, _ = _submit_only(queue, _resolve(TINY))
        queue.write_result(job_id, 0, {"shard": 0, "indices": [0], "values": [1]})
        assert queue.completed_shards(job_id) == {0}
        assert queue.claim(job_id, 0, "alice") is False

    def test_dead_owner_lease_is_broken(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        job_id, _, _, _ = _submit_only(queue, _resolve(TINY))
        assert queue.claim(job_id, 0, "ghost")
        # Rewrite the lease as if its owner were a dead same-host pid.
        lease = queue.job_dir(job_id) / "leases" / "0.json"
        record = json.loads(lease.read_text())
        record["pid"] = 2**22 + 1  # beyond default pid_max: provably dead
        lease.write_text(json.dumps(record))
        assert queue.claim(job_id, 0, "heir") is True

    def test_fresh_crosshost_lease_survives(self, tmp_path):
        queue = FabricQueue(tmp_path / "q", lease_ttl=600)
        job_id, _, _, _ = _submit_only(queue, _resolve(TINY))
        assert queue.claim(job_id, 0, "remote")
        lease = queue.job_dir(job_id) / "leases" / "0.json"
        record = json.loads(lease.read_text())
        record["host"] = "some-other-host"  # pid probe impossible
        lease.write_text(json.dumps(record))
        assert queue.claim(job_id, 0, "thief") is False  # younger than TTL

    def test_write_result_clears_lease(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        job_id, _, _, _ = _submit_only(queue, _resolve(TINY))
        assert queue.claim(job_id, 0, "alice")
        queue.write_result(job_id, 0, {"shard": 0, "indices": [0], "values": [1]})
        assert not (queue.job_dir(job_id) / "leases" / "0.json").exists()

    def test_corrupt_result_discarded_and_reclaimable(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        job_id, _, _, _ = _submit_only(queue, _resolve(TINY))
        result = queue.job_dir(job_id) / "results" / "0.pkl"
        result.write_bytes(b"not a pickle")
        assert queue.read_result(job_id, 0) is None
        assert not result.exists()
        assert queue.claim(job_id, 0, "alice") is True

    @pytest.mark.parametrize(
        ("scan", "subdir", "suffix", "foreign"),
        [
            ("completed_shards", "results", ".pkl", ".json"),
            ("quarantined_shards", "deadletter", ".json", ".pkl"),
        ],
    )
    def test_shard_scans_accept_only_digit_names(
        self, tmp_path, scan, subdir, suffix, foreign
    ):
        """Only ``<digits><suffix>`` counts: an atomic-write temp file,
        a foreign name, a non-ASCII digit or the other suffix does not."""
        queue = FabricQueue(tmp_path / "q")
        queue.connect()
        job_id = "fig3-deadbeef0000"
        assert getattr(queue, scan)(job_id) == set()  # no directory yet
        directory = queue.job_dir(job_id) / subdir
        directory.mkdir(parents=True)
        for name in (
            f"3{suffix}",
            f"12{suffix}",
            f".3{suffix}.tmp-99",
            f"x{suffix}",
            f"²{suffix}",
            f"4{foreign}",
        ):
            (directory / name).write_bytes(b"")
        assert getattr(queue, scan)(job_id) == {3, 12}

    def test_connect_without_create_requires_queue(self, tmp_path):
        with pytest.raises(QueueUnreachable):
            FabricQueue(tmp_path / "nope").connect(create=False)

    def test_unusable_root_is_unreachable(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where a directory must go")
        with pytest.raises(QueueUnreachable):
            FabricQueue(blocker / "q").connect()


class TestAtomicWrites:
    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        target = tmp_path / "result.pkl"
        target.write_bytes(b"old")
        atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["result.pkl"]

    def test_failed_replace_cleans_temp(self, tmp_path, monkeypatch):
        def boom(src, dst):
            raise OSError("no rename for you")

        monkeypatch.setattr(os, "replace", boom)
        with pytest.raises(OSError):
            atomic_write_bytes(tmp_path / "x", b"data")
        assert list(tmp_path.iterdir()) == []


class TestQueueEqualsSerial:
    def test_queue_backed_rows_byte_identical(self, tmp_path):
        serial = _serial_json()
        clear_artifact_cache()
        run = run_sweep_via_queue(_resolve(), tmp_path / "q")
        assert not run.degraded
        assert dump_figure_json(run.figure) == serial
        assert run.total_shards > 0
        assert run.client_shards == run.total_shards  # no workers around

    def test_resumed_job_skips_completed_shards(self, tmp_path):
        first = run_sweep_via_queue(_resolve(), tmp_path / "q")
        clear_artifact_cache()
        second = run_sweep_via_queue(_resolve(), tmp_path / "q")
        assert second.resumed_shards == second.total_shards
        assert second.client_shards == 0
        assert dump_figure_json(second.figure) == dump_figure_json(first.figure)

    def test_mission_sweep_rows_byte_identical(self, tmp_path):
        overrides = {"drifts": (0.5,), "trials": 2}
        serial = _serial_json(overrides, figure="partition-detection")
        clear_artifact_cache()
        run = run_sweep_via_queue(
            SWEEP_ENGINE.resolve("partition-detection", overrides=overrides),
            tmp_path / "q",
        )
        assert dump_figure_json(run.figure) == serial

    def test_artifact_store_round_trips_through_queue(self, tmp_path):
        overrides = {**TINY, "env.artifacts": True}
        serial = _serial_json(overrides)
        clear_artifact_cache()
        run = run_sweep_via_queue(
            _resolve(overrides), tmp_path / "q", artifact_store=tmp_path / "store"
        )
        assert dump_figure_json(run.figure) == serial
        assert list((tmp_path / "store").glob("artifacts-fig3-*.pkl"))

    def test_client_executed_artifact_counters_equal_serial(self, tmp_path):
        """With no workers the client executes every shard itself; its
        own deltas are already in its cache, so the surfaced counters
        must equal the serial run's rather than double them."""
        overrides = {"ns": (8, 10), "ks": (2, 4), "env.artifacts": True}
        SWEEP_ENGINE.run(_resolve(overrides))
        serial = ARTIFACTS.stats.counters()
        clear_artifact_cache()
        run = run_sweep_via_queue(_resolve(overrides), tmp_path / "q")
        assert run.client_shards == run.total_shards
        assert ARTIFACTS.stats.counters() == serial
        assert serial["topology_misses"] > 0

    @pytest.mark.parametrize(
        "artifacts, extra", [(False, set()), (True, {"delta", "origin"})]
    )
    def test_result_files_carry_delta_and_origin_only_for_artifacts(
        self, tmp_path, artifacts, extra
    ):
        queue = FabricQueue(tmp_path / "q")
        run = run_sweep_via_queue(
            _resolve({**TINY, "env.artifacts": artifacts}), queue
        )
        keys = {
            frozenset(queue.read_result(run.job_id, shard))
            for shard in range(run.total_shards)
        }
        assert keys == {frozenset({"shard", "indices", "values", "version"} | extra)}

    def test_worker_executes_submitted_job(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        resolved = _resolve()
        job_id, _, cells, shards = _submit_only(queue, resolved)
        stats = run_worker(queue, worker_id="w-test", once=True)
        assert stats.shards == len(shards)
        assert stats.cells == len(cells)
        assert stats.jobs == (job_id,)
        # The client resumes a fully-worker-executed job without
        # running anything itself — and the rows match serial exactly.
        clear_artifact_cache()
        run = run_sweep_via_queue(_resolve(), queue)
        assert run.resumed_shards == run.total_shards
        assert run.client_shards == 0
        assert dump_figure_json(run.figure) == _serial_json()
        _assert_no_double_execution(queue, job_id, cells)

    @pytest.mark.parametrize(
        "damage, error",
        [
            (lambda path: path.write_bytes(b"garbage"), "corrupt cell list"),
            (lambda path: path.unlink(), "no cell list"),
        ],
        ids=["corrupt", "missing"],
    )
    def test_worker_skips_a_job_it_cannot_load(self, tmp_path, damage, error):
        queue = FabricQueue(tmp_path / "q")
        bad, *_ = _submit_only(queue, _resolve(TINY))
        good, _, _, shards = _submit_only(queue, _resolve())
        damage(queue.job_dir(bad) / "cells.pkl")
        stats = run_worker(queue, worker_id="w-test", once=True)
        assert not stats.unreachable
        assert stats.jobs == (good,)
        assert queue.completed_shards(good) == set(range(len(shards)))
        assert queue.completed_shards(bad) == set()
        (skipped,) = [
            entry for entry in queue.read_journal(bad) if entry["event"] == "skipped"
        ]
        assert error in skipped["error"]


class TestCrashResume:
    def test_worker_death_after_n_cells_then_restart(self, tmp_path):
        """Satellite: a worker dies after N cells; a restart finishes
        the job; rows are byte-equal to an uninterrupted serial run and
        the journals prove no cell executed twice."""
        queue = FabricQueue(tmp_path / "q")
        resolved = _resolve()
        job_id, _, cells, shards = _submit_only(queue, resolved)
        assert len(shards) >= 2, "need at least two shards to interrupt between"
        # A max_shards-bounded worker IS a worker that dies after N
        # cells: it claims, executes, publishes, then never returns.
        casualty = run_worker(queue, worker_id="w-casualty", max_shards=1)
        assert casualty.shards == 1
        assert len(queue.completed_shards(job_id)) == 1
        # Restart: a fresh worker (new identity, new journal) drains
        # the remainder; completed shards are never re-claimed.
        revived = run_worker(queue, worker_id="w-revived", once=True)
        assert revived.shards == len(shards) - 1
        clear_artifact_cache()
        run = run_sweep_via_queue(_resolve(), queue)
        assert run.resumed_shards == run.total_shards
        assert dump_figure_json(run.figure) == _serial_json()
        _assert_no_double_execution(queue, job_id, cells)

    def test_sigkilled_worker_leaves_recoverable_lease(self, tmp_path):
        """A worker SIGKILLed mid-shard (held there by a chaos-plan
        stall) leaves a lease whose owner is provably dead; the next
        worker breaks it, re-executes, and the final rows still match
        serial."""
        queue = FabricQueue(tmp_path / "q")
        resolved = _resolve()
        job_id, _, cells, _ = _submit_only(queue, resolved)
        plan = FaultPlan(
            faults=(
                Fault(kind="stall", role="worker", target="w-doomed", seconds=120),
            )
        ).save(tmp_path / "stall.json")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC_ROOT), env.get("PYTHONPATH")])
        )
        env[PLAN_ENV] = str(plan)
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "fabric",
                "worker",
                "--queue",
                str(queue.root),
                "--worker-id",
                "w-doomed",
            ],
            cwd=tmp_path,
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            leases = queue.job_dir(job_id) / "leases"
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if leases.is_dir() and any(leases.glob("*.json")):
                    break
                time.sleep(0.05)
            else:
                pytest.fail("stalled worker never claimed a lease")
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)
        # The victim died before executing (stall precedes execution),
        # so nothing completed — but its lease lingers.
        assert queue.completed_shards(job_id) == set()
        assert any(leases.glob("*.json"))
        survivor = run_worker(queue, worker_id="w-survivor", once=True)
        assert survivor.cells == len(cells)
        clear_artifact_cache()
        run = run_sweep_via_queue(_resolve(), queue)
        assert dump_figure_json(run.figure) == _serial_json()
        _assert_no_double_execution(queue, job_id, cells)


class TestDegradedMode:
    def test_pre_submit_unreachable_raises_for_caller(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the queue root must go")
        with pytest.raises(QueueUnreachable):
            run_sweep_via_queue(_resolve(TINY), blocker / "q")

    def test_midrun_loss_degrades_to_local(self, tmp_path, monkeypatch):
        serial = _serial_json(TINY)
        clear_artifact_cache()

        def vanished(self, job_id, shard, worker_id):
            raise QueueUnreachable("queue evaporated mid-run")

        monkeypatch.setattr(FabricQueue, "claim", vanished)
        run = run_sweep_via_queue(_resolve(TINY), tmp_path / "q")
        assert run.degraded
        assert "evaporated" in run.degraded_reason
        assert dump_figure_json(run.figure) == serial

    def test_shard_plan_mismatch_is_loud(self, tmp_path):
        queue = FabricQueue(tmp_path / "q")
        resolved = _resolve(TINY)
        job_id, _, cells, shards = _submit_only(queue, resolved)
        manifest_path = queue.job_dir(job_id) / "job.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["shards"] = [[i] for i in range(len(cells))] + [[len(cells)]]
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(ExperimentError, match="different shard plan"):
            run_sweep_via_queue(resolved, queue)


class TestFabricCli:
    def test_sweep_backend_queue(self, tmp_path, capsys):
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
                str(tmp_path / "q"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "fabric: job fig3-" in out
        assert "Nectar" in out

    def test_sweep_backend_queue_needs_a_root(self, capsys, monkeypatch):
        monkeypatch.delenv(QUEUE_ENV, raising=False)
        code = cli.main(
            ["sweep", "fig3", "--set", "ns=8", "--set", "ks=2", "--backend", "queue"]
        )
        assert code == 2
        assert QUEUE_ENV in capsys.readouterr().err

    def test_queue_env_var_names_the_root(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv(QUEUE_ENV, str(tmp_path / "q"))
        code = cli.main(
            ["sweep", "fig3", "--set", "ns=8", "--set", "ks=2", "--backend", "queue"]
        )
        assert code == 0
        assert (tmp_path / "q" / "jobs").is_dir()

    def test_unreachable_queue_degrades_with_exit_zero(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
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
                str(blocker / "q"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0  # the headline degraded-mode acceptance
        assert "queue unreachable" in out
        assert "degrading to local serial execution" in out
        assert "Nectar" in out  # the sweep still rendered

    def test_keyboard_interrupt_prints_resume_hint(
        self, tmp_path, capsys, monkeypatch
    ):
        queue_root = tmp_path / "q"

        def interrupted(resolved, root, artifact_store=None, **kwargs):
            # Simulate ^C after one shard of two completed.
            queue = FabricQueue(root)
            _submit_only(queue, resolved)
            queue.write_result(
                job_id_of(resolved), 0, {"shard": 0, "indices": [0], "values": [1]}
            )
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_sweep_via_queue", interrupted)
        code = cli.main(
            [
                "sweep",
                "fig3",
                "--set",
                "ns=8,10",
                "--set",
                "ks=2",
                "--backend",
                "queue",
                "--queue",
                str(queue_root),
            ]
        )
        out = capsys.readouterr().out
        assert code == 130
        assert "interrupted: fabric job fig3-" in out
        assert "1/2 shard(s) complete" in out
        assert "rerun the same command to resume" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "fig3", "--set", "ns=8", "--set", "ks=2"],
            ["figure", "fig3", "--set", "ns=8", "--set", "ks=2"],
            ["mission", "partition-detection", "--set", "trials=1"],
        ],
        ids=["sweep", "figure", "mission"],
    )
    def test_local_interrupt_mentions_queue_backend(self, argv, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli.SWEEP_ENGINE, "run", interrupted)
        code = cli.main(argv)
        out = capsys.readouterr().out
        assert code == 130
        assert f"repro sweep {argv[1]} --backend queue --queue DIR" in out

    def test_fabric_worker_and_status(self, tmp_path, capsys):
        queue = FabricQueue(tmp_path / "q")
        job_id, _, cells, shards = _submit_only(queue, _resolve(TINY))
        code = cli.main(
            ["fabric", "worker", "--queue", str(queue.root), "--once"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"{len(shards)} shard(s)" in out
        assert job_id in out
        code = cli.main(["fabric", "status", "--queue", str(queue.root)])
        assert code == 0
        out = capsys.readouterr().out
        assert job_id in out
        assert "done" in out
        code = cli.main(["fabric", "status", job_id, "--queue", str(queue.root)])
        assert code == 0
        assert job_id in capsys.readouterr().out

    def test_fabric_status_unknown_job(self, tmp_path, capsys):
        queue = FabricQueue(tmp_path / "q")
        queue.connect()
        code = cli.main(
            ["fabric", "status", "fig3-feedfacef00d", "--queue", str(queue.root)]
        )
        assert code == 2
        assert "no job" in capsys.readouterr().err

    def test_fabric_status_missing_queue(self, tmp_path, capsys):
        code = cli.main(["fabric", "status", "--queue", str(tmp_path / "nope")])
        assert code == 2
        assert "no queue" in capsys.readouterr().err
