"""Fabric worker: claim shards, execute cells, publish results (§13.3).

A worker is a plain process loop over the queue — no registration, no
coordinator, no connection state.  Scale-out is starting more workers;
scale-in is killing them (leases recover, results are durable).  The
execution core is *exactly* the serial path's: every shard goes through
:func:`repro.experiments.spec.execute_cells`, the one shard executor
the local pool uses too, so a queue-backed sweep is row-identical to a
serial run by construction — the fabric moves work between processes,
never changes what the work computes.

Warm state: a job submitted with the artifact layer enabled carries the
client's warmed :class:`~repro.experiments.artifacts.ArtifactCache`
snapshot (the same ``--artifact-store`` format, DESIGN.md §9).  A worker
adopts it once per job; each shard result carries the worker's cache
delta and ``origin``, which the client merges because the origin is
another process (DESIGN.md §9.2) — so the client's cache, and its
on-disk snapshot, covers the whole fleet's work.

Failure semantics: a cell that raises publishes an *error result* (the
serial path would have raised the same error; retrying a deterministic
failure is useless churn), while a worker that dies mid-shard leaves a
stale lease that any peer breaks and re-runs.  Transient queue I/O
errors are retried with jittered backoff (DESIGN.md §14.2) before the
worker degrades; a persistent ``QueueUnreachable`` ends the loop with a
reported reason, never a traceback.  Fault injection (stalls,
SIGKILLs, errno bursts, result rot — see :mod:`repro.fabric.chaos`)
activates from the environment at loop start, so a committed plan
steers spawned workers deterministically.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.spec import execute_cells
from repro.fabric import chaos
from repro.fabric.queue import (
    DEFAULT_RETRY_POLICY,
    FabricQueue,
    JobRecord,
    QueueUnreachable,
    worker_identity,
)


@dataclass
class WorkerStats:
    """What one worker loop accomplished (returned by :func:`run_worker`)."""

    worker_id: str
    shards: int = 0
    cells: int = 0
    jobs: tuple[str, ...] = ()
    retries: int = 0
    unreachable: str = ""

    def describe(self) -> str:
        jobs = ", ".join(self.jobs) if self.jobs else "-"
        line = (
            f"worker {self.worker_id}: {self.shards} shard(s), "
            f"{self.cells} cell(s) across jobs: {jobs}"
        )
        if self.retries:
            line += f" ({self.retries} queue retr{'y' if self.retries == 1 else 'ies'})"
        if self.unreachable:
            line += f"\n  degraded: queue unreachable ({self.unreachable})"
        return line


def execute_shard(
    queue: FabricQueue,
    record: JobRecord,
    cells: list,
    shard_index: int,
    worker_id: str,
) -> None:
    """Execute one claimed shard and publish its result.

    The caller must hold the lease.  Cells run in shard order in this
    process — the colocation contract — through the shard executor,
    with the chaos per-cell hook threaded in as a generator.
    """
    indices = record.shards[shard_index]
    injector = chaos.active()
    if injector is not None:
        injector.on_shard_start(record.job_id, shard_index)

    def shard_cells():
        for index in indices:
            if injector is not None:
                injector.on_cell(record.job_id, shard_index)
            yield cells[index]

    try:
        result = execute_cells(shard_cells())
    except ExperimentError as exc:
        queue.write_result(
            record.job_id,
            shard_index,
            {"shard": shard_index, "indices": list(indices), "error": str(exc)},
        )
        queue.journal(
            record.job_id,
            worker_id,
            {"event": "failed", "shard": shard_index, "error": str(exc)},
        )
        return
    queue.write_result(
        record.job_id,
        shard_index,
        {"shard": shard_index, "indices": list(indices), **result},
    )
    if injector is not None:
        injector.on_result_published(
            queue.result_path(record.job_id, shard_index),
            record.job_id,
            shard_index,
        )
    queue.journal(
        record.job_id,
        worker_id,
        {"event": "executed", "shard": shard_index, "cells": len(indices)},
    )


class _JobContext:
    """Per-job worker state: unpickled cells, adopted artifact snapshot."""

    def __init__(self, queue: FabricQueue, record: JobRecord) -> None:
        self.record = record
        self.cells = queue.cells(record.job_id)
        if record.artifacts:
            # Adopt the client's warm snapshot (load() resets the delta
            # window, so the first drain reports only *our* additions).
            # A missing/corrupt snapshot degrades to a cold cache,
            # which is slower but bit-identical.
            ARTIFACTS.load(queue.artifact_snapshot_path(record.job_id))


def run_worker(
    queue_root,
    worker_id: str | None = None,
    once: bool = False,
    poll: float = 0.2,
    idle_timeout: float | None = None,
    max_shards: int | None = None,
    stop=None,
) -> WorkerStats:
    """The worker main loop; returns when out of work or over budget.

    Args:
        queue_root: queue directory (created if absent).
        worker_id: identity for leases/journals; defaults to
            :func:`~repro.fabric.queue.worker_identity`.
        once: exit as soon as a full pass over the queue finds nothing
            claimable (drain-and-exit, the CI mode).
        poll: seconds between passes while idle.
        idle_timeout: exit after this many seconds without progress
            (None: only ``once``/``max_shards`` end the loop).
        max_shards: stop after executing this many shards — bounded
            workers let tests model a worker that dies after N cells.
        stop: optional zero-arg callable; when it returns True the loop
            drains gracefully — the in-flight shard finishes and
            publishes, no new shard is claimed.  The CLI wires SIGTERM
            to this, so a supervisor drain never strands a lease.
    """
    me = worker_id or worker_identity()
    if isinstance(queue_root, FabricQueue):
        queue = queue_root
    else:
        queue = FabricQueue(queue_root, retry=DEFAULT_RETRY_POLICY, identity=me)
    if chaos.active() is None:
        # Env-gated: a committed plan in REPRO_CHAOS_PLAN steers this
        # process; nothing set means zero injection overhead.  Never
        # clobber an injector a test installed directly.
        chaos.activate("worker", identity=me, queue_root=queue.root)
    stats = WorkerStats(worker_id=me)
    contexts: dict[str, _JobContext] = {}
    jobs_seen: list[str] = []
    last_progress = time.monotonic()
    try:
        queue.connect(create=True)
        while True:
            if stop is not None and stop():
                break
            progressed = False
            queue.heartbeat(
                stats.worker_id, {"shards": stats.shards, "cells": stats.cells}
            )
            for job_id in queue.list_jobs():
                context = contexts.get(job_id)
                if context is None:
                    record = queue.load_job(job_id)
                    if record is None:
                        continue
                    context = _JobContext(queue, record)
                    contexts[job_id] = context
                record = context.record
                completed = queue.completed_shards(job_id)
                for shard_index in range(record.total_shards):
                    if shard_index in completed:
                        continue
                    if not queue.claim(job_id, shard_index, stats.worker_id):
                        continue
                    try:
                        execute_shard(
                            queue, record, context.cells, shard_index, stats.worker_id
                        )
                    except BaseException:
                        # Publish failed or the worker is dying: free
                        # the shard for peers rather than strand the
                        # lease until pid-death detection.  The release
                        # itself is best-effort — peers break stale
                        # leases anyway.
                        with contextlib.suppress(ExperimentError, OSError):
                            queue.release(job_id, shard_index)
                        raise
                    stats.shards += 1
                    stats.cells += len(record.shards[shard_index])
                    if job_id not in jobs_seen:
                        jobs_seen.append(job_id)
                    progressed = True
                    last_progress = time.monotonic()
                    if max_shards is not None and stats.shards >= max_shards:
                        stats.jobs = tuple(jobs_seen)
                        stats.retries = queue.retries_used
                        return stats
                    if stop is not None and stop():
                        stats.jobs = tuple(jobs_seen)
                        stats.retries = queue.retries_used
                        return stats
            if not progressed:
                if once:
                    break
                if (
                    idle_timeout is not None
                    and time.monotonic() - last_progress >= idle_timeout
                ):
                    break
                time.sleep(poll)
    except QueueUnreachable as exc:
        # Retries are spent (the queue wraps every op in the retry
        # policy): report the degradation and exit cleanly instead of
        # unwinding with a traceback.  Results already published are
        # durable; unfinished shards recover through stale leases.
        stats.unreachable = str(exc)
    stats.jobs = tuple(jobs_seen)
    stats.retries = queue.retries_used
    return stats


__all__ = ["WorkerStats", "execute_shard", "run_worker"]
