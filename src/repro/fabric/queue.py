"""Content-addressed filesystem work queue (DESIGN.md §13.1-13.2).

One queue is one directory tree that any number of worker processes —
on one machine or on several sharing a filesystem — poll for work.  The
layout is the protocol; there is no broker process to crash::

    <root>/jobs/<job_id>/
        job.json            manifest: resolved-spec payload, shard plan
        cells.pkl           the pickled cell list (prepare() order)
        artifacts.pkl       optional ArtifactCache snapshot (the loaded store)
        leases/<shard>.json claims: worker id, pid, host, timestamp
        results/<shard>.pkl content-addressed shard results
        journal/<worker>.jsonl  append-only execution accounting

Content addressing: ``job_id`` embeds the resolved sweep's spec digest
(:func:`repro.experiments.persistence.spec_digest`), so re-submitting
the same sweep — after a client crash, a ^C, or from another machine —
lands on the *same* job directory and adopts whatever shards already
completed instead of re-executing them.  Shards are the colocation
chunks of :func:`repro.experiments.parallel.colocation_chunks`, so a
mission's measure cells stay on one worker exactly as they do under the
in-process pool.

Lease protocol (crash-safe, brokerless):

1. *Claim* — atomically create ``leases/<shard>.json`` with
   ``O_CREAT | O_EXCL``; exactly one contender wins.  A shard whose
   result already exists is never claimed.
2. *Execute* — the winner runs the shard's cells in order.
3. *Publish* — the result is written via write-temp + ``os.replace``
   (never a partially-written file, even under SIGKILL), then the lease
   is removed.  Result presence, not lease absence, is the source of
   truth for completion.
4. *Recover* — a lease is stale when its owning pid is dead (same-host
   check, immediate) or its file is older than the TTL (cross-host
   fallback).  Breaking a stale lease races through a unique rename, so
   exactly one contender gets to re-claim; because cells are pure
   functions of their specs, the rare double-execution after a break is
   idempotent — both writers produce identical bytes.

Unreachability is a first-class outcome: every entry point that touches
the filesystem translates ``OSError`` into :class:`QueueUnreachable`,
which callers (the fabric client, the CLI) treat as "degrade to the
local execution path", never as a crash (DESIGN.md §13.4).
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import pickle
import socket
import time
import uuid
from dataclasses import dataclass

from repro.errors import ExperimentError
from repro.experiments.persistence import atomic_write_bytes, atomic_write_text
from repro.fabric import chaos
from repro.fabric.chaos import RetryPolicy

#: manifest/shard format version; unknown versions are ignored on read.
_JOB_VERSION = 1

#: default cross-host lease TTL (seconds).  Same-host recovery is
#: pid-based and immediate; the TTL only matters when the claiming host
#: cannot probe the owner's pid.
DEFAULT_LEASE_TTL = 600.0

#: environment variable naming the default queue root for every fabric
#: entry point (``repro sweep --backend queue``, ``repro fabric ...``).
QUEUE_ENV = "REPRO_QUEUE"

#: lease breaks after which a shard is quarantined to ``deadletter/``
#: (DESIGN.md §14.3): N workers provably died or wedged holding it, so
#: handing it to an N+1th is a crash loop, not fault tolerance.
DEFAULT_POISON_BREAKS = 3

#: the retry policy fabric entry points install on their queues
#: (DESIGN.md §14.2).  Direct/legacy construction keeps ``retry=None``
#: — one OSError, one QueueUnreachable — so the protocol-level tests
#: see undamped behaviour.
DEFAULT_RETRY_POLICY = RetryPolicy(attempts=4, base_delay=0.05, max_delay=1.0)


class QueueUnreachable(ExperimentError):
    """The queue directory cannot be used (missing, unwritable, gone).

    Deliberately a subclass of :class:`ExperimentError` so an uncaught
    escape still renders as a clean CLI error — but callers are
    expected to catch it and fall back to local execution.
    """


def worker_identity() -> str:
    """A queue-unique identity for this process's claims and journal."""
    return f"w-{socket.gethostname()}-{os.getpid()}"


def _chaos_op(op: str) -> None:
    """Fault-injection hook: every queue operation announces itself.

    Called *inside* each operation's ``try`` block, so an injected
    ``OSError`` follows the exact path a real storage fault would —
    translated to :class:`QueueUnreachable`, then retried or surfaced.
    """
    injector = chaos.active()
    if injector is not None:
        injector.on_queue_op(op)


def _retryable(method):
    """Wrap a queue operation in the queue's retry policy, if any.

    Retries re-enter the whole operation (including its chaos hook and
    its ``OSError`` → :class:`QueueUnreachable` translation), so a
    transient fault costs a few jittered sleeps and a persistent one
    still surfaces as ``QueueUnreachable`` — never a raw traceback.
    """

    @functools.wraps(method)
    def wrapper(self, *args, **kwargs):
        policy = self.retry
        if policy is None:
            return method(self, *args, **kwargs)

        def count_retry(attempt, exc):
            self.retries_used += 1

        return policy.call(
            method,
            self,
            *args,
            exceptions=(QueueUnreachable,),
            on_retry=count_retry,
            **kwargs,
        )

    return wrapper


def _pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a same-host pid."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - someone else's process
        return True
    except OSError:  # pragma: no cover - exotic platforms
        return True
    return True


def _shard_files(directory: pathlib.Path, suffix: str) -> set[int]:
    """Indices of the ``<digits><suffix>`` files in ``directory``, by
    name alone (the client scans on every poll); atomic-write temp
    files (``.<n><suffix>.tmp-<pid>``) and foreign names do not match."""
    cut = -len(suffix)
    return {
        int(name[:cut])
        for name in os.listdir(directory)
        if name.endswith(suffix) and name[:cut].isascii() and name[:cut].isdigit()
    }


@dataclass(frozen=True)
class JobRecord:
    """One submitted job, as described by its manifest."""

    job_id: str
    figure_id: str
    payload: dict
    shards: tuple[tuple[int, ...], ...]
    cell_count: int
    artifacts: bool

    @property
    def total_shards(self) -> int:
        return len(self.shards)


@dataclass(frozen=True)
class JobStatus:
    """A point-in-time progress summary for ``repro fabric status``."""

    job_id: str
    figure_id: str
    total: int
    completed: int
    leased: int
    workers: tuple[str, ...] = ()
    stale: int = 0
    quarantined: int = 0
    lease_breaks: int = 0

    @property
    def done(self) -> bool:
        return self.completed >= self.total

    def describe(self) -> str:
        state = "done" if self.done else f"{self.leased} leased"
        if self.stale:
            state += f", {self.stale} stale"
        if self.quarantined:
            state += f", {self.quarantined} quarantined"
        crew = f", workers: {', '.join(self.workers)}" if self.workers else ""
        return (
            f"{self.job_id:<28} {self.completed}/{self.total} shards "
            f"({state}{crew})"
        )

    def payload(self) -> dict:
        """JSON-ready form for ``repro fabric status --json``."""
        return {
            "job_id": self.job_id,
            "figure": self.figure_id,
            "total": self.total,
            "completed": self.completed,
            "leased": self.leased,
            "stale_leases": self.stale,
            "quarantined": self.quarantined,
            "lease_breaks": self.lease_breaks,
            "workers": list(self.workers),
            "done": self.done,
        }


@dataclass
class FabricQueue:
    """Filesystem work queue rooted at ``root``.

    Every method that touches the tree may raise
    :class:`QueueUnreachable`; no partial state is ever half-trusted —
    corrupt manifests are skipped, corrupt results are discarded and
    re-executed.
    """

    root: pathlib.Path
    lease_ttl: float = DEFAULT_LEASE_TTL
    retry: RetryPolicy | None = None
    poison_breaks: int = DEFAULT_POISON_BREAKS
    identity: str = ""

    def __init__(
        self,
        root: str | pathlib.Path,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        retry: RetryPolicy | None = None,
        poison_breaks: int = DEFAULT_POISON_BREAKS,
        identity: str = "",
    ) -> None:
        self.root = pathlib.Path(root)
        self.lease_ttl = lease_ttl
        self.retry = retry
        self.poison_breaks = poison_breaks
        self.identity = identity
        #: transient-fault retries spent by this queue handle (surfaced
        #: in FabricRun stats and artefact metadata — never silent).
        self.retries_used = 0

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    @property
    def jobs_dir(self) -> pathlib.Path:
        return self.root / "jobs"

    def job_dir(self, job_id: str) -> pathlib.Path:
        return self.jobs_dir / job_id

    def _manifest_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "job.json"

    def _cells_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "cells.pkl"

    def artifact_snapshot_path(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "artifacts.pkl"

    def _lease_path(self, job_id: str, shard: int) -> pathlib.Path:
        return self.job_dir(job_id) / "leases" / f"{shard}.json"

    def _breaks_path(self, job_id: str, shard: int) -> pathlib.Path:
        return self.job_dir(job_id) / "leases" / f"{shard}.breaks"

    def _deadletter_path(self, job_id: str, shard: int) -> pathlib.Path:
        return self.job_dir(job_id) / "deadletter" / f"{shard}.json"

    def _result_path(self, job_id: str, shard: int) -> pathlib.Path:
        return self.job_dir(job_id) / "results" / f"{shard}.pkl"

    def result_path(self, job_id: str, shard: int) -> pathlib.Path:
        """Public result location (chaos hooks corrupt through this)."""
        return self._result_path(job_id, shard)

    def _journal_dir(self, job_id: str) -> pathlib.Path:
        return self.job_dir(job_id) / "journal"

    @property
    def heartbeats_dir(self) -> pathlib.Path:
        return self.root / "heartbeats"

    @property
    def supervisors_dir(self) -> pathlib.Path:
        return self.root / "supervisors"

    @_retryable
    def connect(self, create: bool = True) -> None:
        """Ensure the queue tree is usable, or raise :class:`QueueUnreachable`.

        ``create=True`` (clients, workers) builds the layout; with
        ``create=False`` a missing tree is already unreachable.
        """
        try:
            _chaos_op("connect")
            if create:
                self.jobs_dir.mkdir(parents=True, exist_ok=True)
            elif not self.jobs_dir.is_dir():
                raise QueueUnreachable(f"no queue at {self.root}")
        except OSError as exc:
            raise QueueUnreachable(f"queue root {self.root} unusable: {exc}") from exc

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @_retryable
    def submit(
        self,
        job_id: str,
        figure_id: str,
        payload: dict,
        cells: list,
        shards: list[list[int]],
        artifact_snapshot: bytes | None = None,
    ) -> bool:
        """Publish one job; returns False when it already exists (resume).

        The manifest is written *last* and atomically: workers ignore
        job directories without ``job.json``, so a submitter killed
        mid-publish leaves debris, never a claimable half-job.  Equal
        job ids mean equal resolved specs (content addressing), so
        adopting an existing directory is always safe.
        """
        try:
            _chaos_op("submit")
            job_dir = self.job_dir(job_id)
            if self._manifest_path(job_id).exists():
                return False
            for sub in ("leases", "results", "journal", "deadletter"):
                (job_dir / sub).mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(self._cells_path(job_id), pickle.dumps(cells))
            if artifact_snapshot is not None:
                atomic_write_bytes(
                    self.artifact_snapshot_path(job_id), artifact_snapshot
                )
            manifest = {
                "version": _JOB_VERSION,
                "job_id": job_id,
                "figure_id": figure_id,
                "payload": payload,
                "shards": [list(shard) for shard in shards],
                "cell_count": len(cells),
                "artifacts": artifact_snapshot is not None,
                "submitted_by": worker_identity(),
            }
            atomic_write_text(
                self._manifest_path(job_id),
                json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            )
            return True
        except OSError as exc:
            raise QueueUnreachable(f"cannot submit to {self.root}: {exc}") from exc

    @_retryable
    def load_job(self, job_id: str) -> JobRecord | None:
        """The manifest of one job, or None when absent/corrupt."""
        try:
            _chaos_op("status")
            raw = self._manifest_path(job_id).read_text()
            manifest = json.loads(raw)
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise QueueUnreachable(f"cannot read {self.root}: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError):
            return None
        if not isinstance(manifest, dict) or manifest.get("version") != _JOB_VERSION:
            return None
        try:
            return JobRecord(
                job_id=manifest["job_id"],
                figure_id=manifest["figure_id"],
                payload=manifest["payload"],
                shards=tuple(
                    tuple(int(i) for i in shard) for shard in manifest["shards"]
                ),
                cell_count=int(manifest["cell_count"]),
                artifacts=bool(manifest.get("artifacts", False)),
            )
        except (KeyError, TypeError, ValueError):
            return None

    @_retryable
    def cells(self, job_id: str) -> list:
        """The job's pickled cell list (prepare() order)."""
        try:
            _chaos_op("cells")
            return pickle.loads(self._cells_path(job_id).read_bytes())
        except FileNotFoundError as exc:
            # One job's missing file, not an unreachable queue.
            raise ExperimentError(f"no cell list for job {job_id}") from exc
        except OSError as exc:
            raise QueueUnreachable(f"cannot read cells of {job_id}: {exc}") from exc
        except Exception as exc:  # noqa: BLE001 - corrupt pickle
            raise ExperimentError(f"corrupt cell list for job {job_id}: {exc}") from exc

    @_retryable
    def list_jobs(self) -> list[str]:
        """Submitted job ids, oldest manifest first (FIFO-ish fairness)."""
        try:
            _chaos_op("list-jobs")
            entries = [
                entry
                for entry in self.jobs_dir.iterdir()
                if (entry / "job.json").is_file()
            ]
            entries.sort(key=lambda entry: ((entry / "job.json").stat().st_mtime, entry.name))
            return [entry.name for entry in entries]
        except FileNotFoundError:
            return []
        except OSError as exc:
            raise QueueUnreachable(f"cannot list {self.root}: {exc}") from exc

    # ------------------------------------------------------------------
    # Leases
    # ------------------------------------------------------------------
    @_retryable
    def claim(self, job_id: str, shard: int, worker_id: str) -> bool:
        """Try to win the lease on one shard; True when this worker owns it.

        Never claims a completed or quarantined shard.  A stale lease
        (dead owner) is broken first; the break itself is race-free
        because only one contender's rename of the lease file can
        succeed — and each break is counted, because the
        ``poison_breaks``-th break quarantines the shard instead of
        feeding another worker to it (DESIGN.md §14.3).
        """
        try:
            _chaos_op("claim")
            if self._result_path(job_id, shard).exists():
                return False
            if self._deadletter_path(job_id, shard).exists():
                return False
            lease = self._lease_path(job_id, shard)
            payload = json.dumps(
                {
                    "worker": worker_id,
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                    "claimed_at": time.time(),
                }
            )
            for attempt in range(2):
                try:
                    fd = os.open(lease, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                except FileExistsError:
                    if self._owns_lease(lease, worker_id):
                        # Re-entrant claim: a transient fault made an
                        # earlier attempt fail *after* the O_EXCL win.
                        # The lease is ours; don't fight our own pid.
                        if self._result_path(job_id, shard).exists():
                            self.release(job_id, shard)
                            return False
                        return True
                    if attempt or not self._break_stale_lease(lease):
                        return False
                    broken = self._record_break(job_id, shard, worker_id)
                    if broken >= self.poison_breaks:
                        self.quarantine(job_id, shard, broken, worker_id)
                        return False
                    continue
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                # Close the publish race: the previous owner may have
                # published between our completion check and this win
                # (write_result precedes lease release, so a result
                # observed here is always complete).  Without this
                # re-check a finished shard could be executed twice.
                if self._result_path(job_id, shard).exists():
                    self.release(job_id, shard)
                    return False
                return True
            return False
        except OSError as exc:
            raise QueueUnreachable(f"cannot claim in {self.root}: {exc}") from exc

    def _owns_lease(self, lease: pathlib.Path, worker_id: str) -> bool:
        """Whether the existing lease is this very process's own claim."""
        try:
            record = json.loads(lease.read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return False
        return (
            isinstance(record, dict)
            and record.get("worker") == worker_id
            and record.get("pid") == os.getpid()
            and record.get("host") == socket.gethostname()
        )

    def _lease_stale(self, lease: pathlib.Path) -> bool:
        """Whether a lease's owner is provably gone (or timed out)."""
        try:
            record = json.loads(lease.read_text())
            age = time.time() - lease.stat().st_mtime
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            # Vanished (owner finished/released) or corrupt (a corrupt
            # claim cannot prove liveness): treat as breakable.
            return True
        if not isinstance(record, dict):
            return True
        injector = chaos.active()
        if injector is not None:
            # Lease-clock skew fault: ages shift, liveness proofs don't
            # — exactly the failure a drifting fleet clock produces.
            age += injector.clock_skew()
        if record.get("host") == socket.gethostname():
            pid = record.get("pid")
            if isinstance(pid, int) and not _pid_alive(pid):
                return True
            # A live same-host owner is never stale: execution time may
            # legitimately exceed any TTL.
            return False
        return age > self.lease_ttl

    def _break_stale_lease(self, lease: pathlib.Path) -> bool:
        """Remove a stale lease; True when *this* contender broke it."""
        if not self._lease_stale(lease):
            return False
        tombstone = lease.with_name(f"{lease.name}.broken-{uuid.uuid4().hex}")
        try:
            os.replace(lease, tombstone)
        except FileNotFoundError:
            return False  # another contender won the break
        tombstone.unlink(missing_ok=True)
        return True

    def release(self, job_id: str, shard: int) -> None:
        """Drop this worker's lease without a result (failed/aborted)."""
        try:
            self._lease_path(job_id, shard).unlink(missing_ok=True)
        except OSError as exc:
            raise QueueUnreachable(f"cannot release shard {shard}: {exc}") from exc

    # ------------------------------------------------------------------
    # Poison-shard quarantine (DESIGN.md §14.3)
    # ------------------------------------------------------------------
    def _record_break(self, job_id: str, shard: int, worker_id: str) -> int:
        """Account one lease break; returns the shard's break total.

        One append-only line per break: racing breakers may interleave
        lines but never lose them, so the count is monotone and the
        quarantine threshold cannot be dodged by a crash loop that
        rotates workers.
        """
        line = json.dumps(
            {"by": worker_id, "at": time.time()}, sort_keys=True
        )
        path = self._breaks_path(job_id, shard)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a") as handle:
                handle.write(line + "\n")
        except OSError:
            return self.lease_breaks(job_id, shard)  # best effort
        return self.lease_breaks(job_id, shard)

    def lease_breaks(self, job_id: str, shard: int) -> int:
        """How many times this shard's lease has been broken."""
        try:
            return len(self._breaks_path(job_id, shard).read_text().splitlines())
        except OSError:
            return 0

    def total_lease_breaks(self, job_id: str) -> int:
        try:
            paths = list((self.job_dir(job_id) / "leases").glob("*.breaks"))
        except OSError:
            return 0
        return sum(
            self.lease_breaks(job_id, int(path.name.split(".")[0]))
            for path in paths
            if path.name.split(".")[0].isdigit()
        )

    def quarantine(
        self, job_id: str, shard: int, breaks: int, worker_id: str = ""
    ) -> None:
        """Move a poison shard to the dead letter: workers skip it.

        The marker is written atomically and journalled; the *client*
        later executes the quarantined cells locally once and publishes
        the result, so the job still completes — loudly, with the
        quarantine surfaced in ``fabric status`` and artefact metadata
        rather than a fleet crash-looping forever.
        """
        marker = {
            "shard": shard,
            "breaks": breaks,
            "quarantined_by": worker_id or self.identity,
            "at": time.time(),
        }
        try:
            path = self._deadletter_path(job_id, shard)
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, json.dumps(marker, sort_keys=True) + "\n")
        except OSError as exc:
            raise QueueUnreachable(f"cannot quarantine shard {shard}: {exc}") from exc
        self.journal(
            job_id,
            worker_id or self.identity or worker_identity(),
            {"event": "quarantined", "shard": shard, "breaks": breaks},
        )

    def is_quarantined(self, job_id: str, shard: int) -> bool:
        try:
            return self._deadletter_path(job_id, shard).exists()
        except OSError:
            return False

    def quarantined_shards(self, job_id: str) -> set[int]:
        """Indices of shards moved to the dead letter."""
        try:
            return _shard_files(self.job_dir(job_id) / "deadletter", ".json")
        except OSError:
            return set()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    @_retryable
    def write_result(self, job_id: str, shard: int, payload: dict) -> None:
        """Publish one shard result atomically, then clear the lease.

        Publication is idempotent by the result-presence protocol: a
        retried publish (after a transient fault anywhere in write or
        release) rewrites identical bytes and re-clears the lease, so
        the retry policy may replay it freely.
        """
        record = dict(payload)
        record["version"] = _JOB_VERSION
        try:
            _chaos_op("publish")
            atomic_write_bytes(
                self._result_path(job_id, shard), pickle.dumps(record)
            )
        except OSError as exc:
            raise QueueUnreachable(f"cannot publish shard {shard}: {exc}") from exc
        self.release(job_id, shard)

    @_retryable
    def read_result(self, job_id: str, shard: int) -> dict | None:
        """One shard's result, or None when absent.

        A corrupt result file (possible only through storage faults —
        publication is atomic) is deleted so the shard re-enters the
        claimable pool instead of poisoning every resume.
        """
        path = self._result_path(job_id, shard)
        try:
            _chaos_op("read-result")
            record = pickle.loads(path.read_bytes())
        except FileNotFoundError:
            return None
        except OSError as exc:
            raise QueueUnreachable(f"cannot read shard {shard}: {exc}") from exc
        except Exception:  # noqa: BLE001 - corrupt pickle must not be trusted
            self._discard_result(job_id, shard, path)
            return None
        if not isinstance(record, dict) or record.get("version") != _JOB_VERSION:
            self._discard_result(job_id, shard, path)
            return None
        return record

    def _discard_result(self, job_id: str, shard: int, path: pathlib.Path) -> None:
        """Drop an untrustworthy result and journal the discard.

        The journal line is what lets the chaos accounting distinguish
        a legitimate re-execution (this shard's bytes rotted) from a
        double execution the lease protocol should have prevented.
        """
        path.unlink(missing_ok=True)
        self.journal(
            job_id,
            self.identity or worker_identity(),
            {"event": "discarded", "shard": shard},
        )

    @_retryable
    def completed_shards(self, job_id: str) -> set[int]:
        """Indices of shards with a published result."""
        try:
            _chaos_op("status")
            return _shard_files(self.job_dir(job_id) / "results", ".pkl")
        except FileNotFoundError:
            return set()
        except OSError as exc:
            raise QueueUnreachable(f"cannot scan results: {exc}") from exc

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def journal(self, job_id: str, worker_id: str, entry: dict) -> None:
        """Append one accounting line to this worker's journal.

        One file per worker, append-only: the lease-accounting tests
        (and post-mortems) read the union of journals to prove no cell
        executed twice across crashes and resumes.
        """
        record = dict(entry)
        record["worker"] = worker_id
        record["at"] = time.time()
        path = self._journal_dir(job_id) / f"{worker_id}.jsonl"
        try:
            _chaos_op("journal")
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass  # accounting is best-effort, never load-bearing

    def read_journal(self, job_id: str) -> list[dict]:
        """Every journal entry of a job, across all workers."""
        entries: list[dict] = []
        journal_dir = self._journal_dir(job_id)
        try:
            paths = sorted(journal_dir.glob("*.jsonl"))
        except OSError:
            return entries
        for path in paths:
            try:
                lines = path.read_text().splitlines()
            except OSError:
                continue
            for line in lines:
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict):
                    entries.append(record)
        return entries

    # ------------------------------------------------------------------
    # Status
    # ------------------------------------------------------------------
    def status(self, job_id: str) -> JobStatus | None:
        """Progress summary for one job (None for unknown jobs)."""
        record = self.load_job(job_id)
        if record is None:
            return None
        completed = self.completed_shards(job_id)
        try:
            leases = list((self.job_dir(job_id) / "leases").glob("*.json"))
        except OSError:
            leases = []
        stale = sum(1 for lease in leases if self._lease_stale(lease))
        workers = sorted(
            {
                str(entry.get("worker"))
                for entry in self.read_journal(job_id)
                if entry.get("worker")
            }
        )
        return JobStatus(
            job_id=job_id,
            figure_id=record.figure_id,
            total=record.total_shards,
            completed=len(completed & {i for i in range(record.total_shards)}),
            leased=len(leases),
            workers=tuple(workers),
            stale=stale,
            quarantined=len(self.quarantined_shards(job_id)),
            lease_breaks=self.total_lease_breaks(job_id),
        )

    def describe(self) -> str:
        """Multi-line human summary for ``repro fabric status``."""
        lines = [f"queue : {self.root}"]
        jobs = self.list_jobs()
        if not jobs:
            lines.append("  (no jobs)")
            return "\n".join(lines)
        for job_id in jobs:
            status = self.status(job_id)
            if status is not None:
                lines.append(f"  {status.describe()}")
        return "\n".join(lines)

    def status_payload(self) -> dict:
        """The whole queue as JSON (``repro fabric status --json``).

        Includes, beyond per-job shard progress: stale-lease,
        dead-letter and lease-break counters, worker heartbeats, and
        any supervisors' restart/crash-loop state — everything CI and
        the supervisor assert on without parsing human output.
        """
        payload: dict = {
            "queue": str(self.root),
            "jobs": {job_id: {} for job_id in self.list_jobs()},
        }
        for job_id in list(payload["jobs"]):
            status = self.status(job_id)
            if status is None:
                del payload["jobs"][job_id]
            else:
                payload["jobs"][job_id] = status.payload()
        heartbeats = self.read_heartbeats()
        if heartbeats:
            payload["heartbeats"] = heartbeats
        supervisors = self.read_supervisor_state()
        if supervisors:
            payload["supervisors"] = supervisors
        return payload

    # ------------------------------------------------------------------
    # Fleet liveness (heartbeats, supervisor state) — DESIGN.md §14.4
    # ------------------------------------------------------------------
    def heartbeat(self, worker_id: str, payload: dict) -> None:
        """Record one worker liveness beat.  Best-effort, never fatal."""
        record = {**payload, "pid": os.getpid()}
        self._write_record(self.heartbeats_dir, "worker", worker_id, record)

    def read_heartbeats(self) -> dict[str, dict]:
        """Every worker's latest heartbeat, keyed by worker id."""
        return self._read_records(self.heartbeats_dir, "worker")

    def write_supervisor_state(self, supervisor_id: str, payload: dict) -> None:
        """Persist one supervisor's restart/crash-loop counters."""
        self._write_record(self.supervisors_dir, "supervisor", supervisor_id, payload)

    def read_supervisor_state(self) -> dict[str, dict]:
        """Every supervisor's latest state, keyed by supervisor id."""
        return self._read_records(self.supervisors_dir, "supervisor")

    @staticmethod
    def _write_record(
        directory: pathlib.Path, key: str, name: str, payload: dict
    ) -> None:
        """Atomically replace ``directory/<name>.json`` with ``payload``
        plus ``key: name`` and a timestamp.  Best-effort: liveness and
        supervisor reporting must never kill the process reporting."""
        record = {**payload, key: name, "at": time.time()}
        try:
            directory.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                directory / f"{name}.json", json.dumps(record, sort_keys=True) + "\n"
            )
        except OSError:
            pass

    @staticmethod
    def _read_records(directory: pathlib.Path, key: str) -> dict[str, dict]:
        """Every readable record under ``directory``, keyed by its ``key``."""
        records: dict[str, dict] = {}
        try:
            paths = sorted(directory.glob("*.json"))
        except OSError:
            return records
        for path in paths:
            try:
                record = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                continue
            if isinstance(record, dict) and record.get(key):
                records[str(record[key])] = record
        return records


__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_POISON_BREAKS",
    "DEFAULT_RETRY_POLICY",
    "FabricQueue",
    "JobRecord",
    "JobStatus",
    "QUEUE_ENV",
    "QueueUnreachable",
    "worker_identity",
]
