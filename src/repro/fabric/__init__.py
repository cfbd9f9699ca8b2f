"""Distributed sweep fabric (DESIGN.md §13–14).

A brokerless, filesystem-backed work queue that turns any registered
sweep or mission campaign into a durable, resumable job:

* :mod:`repro.fabric.queue` — the queue itself: content-addressed job
  directories, an O_EXCL/rename lease protocol, atomic shard results,
  retry-wrapped operations and the poison-shard dead-letter protocol.
* :mod:`repro.fabric.worker` — the worker loop behind
  ``repro fabric worker``: claim, execute through the one shared cell
  executor, publish, repeat.
* :mod:`repro.fabric.client` — the submit/wait/assemble side behind
  ``repro sweep --backend queue``, including the degraded-mode
  fallback to local serial execution when the queue is unreachable.
* :mod:`repro.fabric.chaos` — deterministic fault injection
  (:class:`FaultPlan` / :class:`FaultInjector`) and the calibrated
  recovery policy (:class:`RetryPolicy`, :class:`JitteredBackoff`).
* :mod:`repro.fabric.supervisor` — the worker-fleet supervisor behind
  ``repro fabric supervise``: spawn, heartbeat-watch, restart with
  backoff, crash-loop detection, graceful drain.
"""

from repro.fabric.chaos import (
    Fault,
    FaultInjector,
    FaultPlan,
    JitteredBackoff,
    PLAN_ENV,
    RetryPolicy,
)
from repro.fabric.client import (
    FabricRun,
    client_identity,
    job_id_of,
    run_sweep_via_queue,
)
from repro.fabric.queue import (
    DEFAULT_LEASE_TTL,
    DEFAULT_POISON_BREAKS,
    DEFAULT_RETRY_POLICY,
    FabricQueue,
    JobRecord,
    JobStatus,
    QUEUE_ENV,
    QueueUnreachable,
    worker_identity,
)
from repro.fabric.supervisor import Supervisor, SupervisorReport, run_supervisor
from repro.fabric.worker import WorkerStats, execute_shard, run_worker

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_POISON_BREAKS",
    "DEFAULT_RETRY_POLICY",
    "FabricQueue",
    "FabricRun",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "JitteredBackoff",
    "JobRecord",
    "JobStatus",
    "PLAN_ENV",
    "QUEUE_ENV",
    "QueueUnreachable",
    "RetryPolicy",
    "Supervisor",
    "SupervisorReport",
    "WorkerStats",
    "client_identity",
    "execute_shard",
    "job_id_of",
    "run_supervisor",
    "run_sweep_via_queue",
    "run_worker",
    "worker_identity",
]
