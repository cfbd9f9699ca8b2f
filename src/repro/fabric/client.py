"""Fabric client: durable, resumable queue-backed sweeps (§13.4).

``repro sweep --backend queue`` lands here.  The client owns both ends
of the sweep — :meth:`SweepEngine.prepare` before the queue and
:meth:`SweepEngine.assemble` after it — so the only thing the fabric
replaces is *where cells execute*; everything that defines the rows is
the same code the serial path runs, which is what makes queue ≡ serial
an invariant rather than a test wish.

Durability: the job id embeds the resolved spec digest, so rerunning
the same command after any interruption — ^C in the client, a dead
worker, a rebooted machine — resumes the same job directory and only
the missing shards execute.  The client also *works* while it waits
(claiming shards like any worker) so a queue with zero workers still
completes, just serially.

Degraded mode: an unreachable queue must never fail a sweep that the
local path could run.  Unreachability before submission raises
:class:`~repro.fabric.queue.QueueUnreachable` for the caller to catch
(the CLI falls back to the classic local path and exits 0); once a job
is in flight, any queue loss degrades *inside* the client — remaining
cells execute locally and the run reports ``degraded=True`` — because
at that point falling back is strictly cheaper than giving up.
"""

from __future__ import annotations

import pickle
import socket
import os
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.experiments.parallel import colocation_chunks
from repro.experiments.persistence import spec_digest
from repro.experiments.report import FigureData
from repro.experiments.spec import (
    SWEEP_ENGINE,
    ResolvedSweep,
    _cell_colocation_key,
    absorb_shard,
    artifact_scope,
    execute_cells,
)
from repro.fabric import chaos
from repro.fabric.chaos import JitteredBackoff
from repro.fabric.queue import (
    DEFAULT_RETRY_POLICY,
    FabricQueue,
    JobRecord,
    QueueUnreachable,
)
from repro.fabric.worker import execute_shard


def job_id_of(resolved: ResolvedSweep) -> str:
    """The content-addressed job id of one resolved sweep.

    The digest covers figure, scale, axes, seed policy and explicit
    environment overrides (``ResolvedSweep.payload()``), so equal
    commands collide onto one resumable job and different
    parameterisations never share shards.
    """
    return f"{resolved.spec.figure_id}-{spec_digest(resolved.payload())[:12]}"


def client_identity() -> str:
    """The claims/journal identity of this client process."""
    return f"client-{socket.gethostname()}-{os.getpid()}"


@dataclass(frozen=True)
class FabricRun:
    """Outcome of one queue-backed sweep."""

    figure: FigureData
    job_id: str
    total_shards: int
    resumed_shards: int
    client_shards: int
    degraded: bool = False
    degraded_reason: str = ""
    quarantined: int = 0
    lease_breaks: int = 0
    retries: int = 0

    def describe(self) -> str:
        if self.degraded:
            return (
                f"fabric: job {self.job_id} degraded to local execution "
                f"({self.degraded_reason})"
            )
        outsourced = (
            self.total_shards
            - self.client_shards
            - self.resumed_shards
            - self.quarantined
        )
        line = (
            f"fabric: job {self.job_id} — {self.total_shards} shard(s): "
            f"{self.resumed_shards} resumed, {self.client_shards} by this "
            f"client, {outsourced} by workers"
        )
        if self.quarantined:
            line += f", {self.quarantined} quarantined (executed locally)"
        if self.retries:
            line += f"; {self.retries} queue retr{'y' if self.retries == 1 else 'ies'}"
        return line

    def stats_payload(self) -> dict:
        """Degradation accounting for artefact metadata — every retry,
        quarantine and lease break a run absorbed is recorded, never
        silent (DESIGN.md §14)."""
        return {
            "job_id": self.job_id,
            "total_shards": self.total_shards,
            "resumed_shards": self.resumed_shards,
            "client_shards": self.client_shards,
            "quarantined": self.quarantined,
            "lease_breaks": self.lease_breaks,
            "retries": self.retries,
            "degraded": self.degraded,
            "degraded_reason": self.degraded_reason,
        }


def run_sweep_via_queue(
    resolved: ResolvedSweep,
    queue_root,
    artifact_store=None,
    work: bool = True,
    poll: float = 0.05,
) -> FabricRun:
    """Run one resolved sweep through the fabric queue.

    Raises:
        QueueUnreachable: when the queue cannot be reached *before* the
            job is submitted — the caller should degrade to the local
            path (the CLI does, with a warning and exit code 0).
        ExperimentError: when a cell genuinely fails (same error the
            serial path would raise) or a resumed job's manifest does
            not match this code's plan for the same digest.
    """
    plan, cells = SWEEP_ENGINE.prepare(resolved)
    job_id = job_id_of(resolved)
    if not cells:
        return FabricRun(
            figure=SWEEP_ENGINE.assemble(plan, []),
            job_id=job_id,
            total_shards=0,
            resumed_shards=0,
            client_shards=0,
        )
    with artifact_scope(resolved, cells, artifact_store) as snapshot:
        record = JobRecord(
            job_id=job_id,
            figure_id=resolved.spec.figure_id,
            payload=resolved.payload(),
            shards=tuple(
                tuple(shard) for shard in colocation_chunks(cells, _cell_colocation_key)
            ),
            cell_count=len(cells),
            artifacts=snapshot is not None,
        )
        return _drive_job(plan, cells, record, snapshot, queue_root, work, poll)


def _drive_job(plan, cells, record, snapshot, queue_root, work, poll) -> FabricRun:
    """Submit one job, then collect, quarantine-execute and work its
    shards until every result is in (or degrade to local execution)."""
    job_id = record.job_id
    # Everything up to (and including) submission may raise
    # QueueUnreachable: nothing has executed yet, so the caller can
    # degrade wholesale.
    client_id = client_identity()
    if isinstance(queue_root, FabricQueue):
        queue = queue_root
    else:
        queue = FabricQueue(queue_root, retry=DEFAULT_RETRY_POLICY, identity=client_id)
    if chaos.active() is None:
        chaos.activate("client", identity=client_id, queue_root=queue.root)
    queue.connect(create=True)
    queue.submit(
        job_id,
        record.figure_id,
        record.payload,
        cells,
        [list(shard) for shard in record.shards],
        artifact_snapshot=None if snapshot is None else pickle.dumps(snapshot),
    )
    existing = queue.load_job(job_id)
    if existing is not None and existing.shards != record.shards:
        raise ExperimentError(
            f"job {job_id} exists with a different shard plan "
            f"({existing.total_shards} vs {record.total_shards} shards); the "
            "queue was populated by a different code version — clear the job "
            "directory or use a fresh queue root"
        )

    total = record.total_shards
    # Anti-spin (DESIGN.md §14.2): when every remaining shard is leased
    # by someone else there is nothing to do but wait — with jittered
    # exponential backoff, reset on any progress, instead of a tight
    # fixed-interval poll.
    backoff = JitteredBackoff(base=max(poll, 0.01), cap=max(poll * 10, 0.5))
    quarantine_handled: set[int] = set()
    client_shards = 0
    try:
        resumed = len(queue.completed_shards(job_id))
        values: list = [None] * len(cells)
        collected: set[int] = set()
        while True:
            completed = queue.completed_shards(job_id)
            # Collect eagerly: read_result discards corrupt files, so a
            # shard can leave the completed set again — the loop only
            # ends once every shard has yielded a *readable* result.
            progressed = False
            for shard_index in sorted(completed - collected):
                result = queue.read_result(job_id, shard_index)
                if result is None:
                    continue
                if "error" in result:
                    raise ExperimentError(
                        f"job {job_id} shard {shard_index} failed: "
                        f"{result['error']}"
                    )
                absorb_shard(values, record.shards[shard_index], result)
                collected.add(shard_index)
                progressed = True
            if len(collected) >= total:
                break
            # Poison-shard quarantine (DESIGN.md §14.3): a dead-lettered
            # shard will never be claimed by a worker again, so the
            # client runs its cells locally — once, through the shard
            # executor, immune to the worker-side fault plan — and
            # publishes the result so the job still completes durably.
            for shard_index in sorted(
                queue.quarantined_shards(job_id) - collected - quarantine_handled
            ):
                quarantine_handled.add(shard_index)
                indices = record.shards[shard_index]
                result = execute_cells([cells[index] for index in indices])
                queue.write_result(
                    job_id,
                    shard_index,
                    {
                        "shard": shard_index,
                        "indices": list(indices),
                        **result,
                        "quarantined": True,
                    },
                )
                queue.journal(
                    job_id,
                    client_id,
                    {"event": "quarantined-local", "shard": shard_index},
                )
                progressed = True
            if work:
                for shard_index in range(total):
                    if (
                        shard_index in collected
                        or shard_index in completed
                        or shard_index in quarantine_handled
                    ):
                        continue
                    if queue.claim(job_id, shard_index, client_id):
                        execute_shard(queue, record, cells, shard_index, client_id)
                        client_shards += 1
                        progressed = True
                        break  # re-scan: workers may have finished the rest
            if progressed:
                backoff.reset()
            else:
                backoff.sleep()
    except (QueueUnreachable, OSError) as exc:
        # The queue was pulled out from under a job in flight: finish
        # locally rather than fail.  Cells are pure, so re-executing
        # shards whose results just became unreachable is safe.
        return FabricRun(
            figure=SWEEP_ENGINE.assemble(plan, execute_cells(cells)["values"]),
            job_id=job_id,
            total_shards=total,
            resumed_shards=0,
            client_shards=client_shards,
            degraded=True,
            degraded_reason=str(exc),
            retries=queue.retries_used,
        )

    try:
        quarantined = len(queue.quarantined_shards(job_id))
        lease_breaks = queue.total_lease_breaks(job_id)
    except (QueueUnreachable, OSError):
        quarantined = len(quarantine_handled)
        lease_breaks = 0
    return FabricRun(
        figure=SWEEP_ENGINE.assemble(plan, values),
        job_id=job_id,
        total_shards=total,
        resumed_shards=resumed,
        client_shards=client_shards,
        quarantined=quarantined,
        lease_breaks=lease_breaks,
        retries=queue.retries_used,
    )


__all__ = ["FabricRun", "client_identity", "job_id_of", "run_sweep_via_queue"]
