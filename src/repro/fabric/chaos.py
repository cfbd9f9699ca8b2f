"""Deterministic fault injection for the fabric (DESIGN.md §14).

The paper's subject is surviving failure; this module is how the
execution fabric *proves* it does.  A :class:`FaultPlan` is a seeded,
committed-to-disk description of a failure sequence — which worker
dies at which cell, which queue op returns which ``errno``, which
shard's result bytes rot — and a :class:`FaultInjector` replays it
deterministically inside the fabric's own hooks.  Because the plan is
data (JSON, no wall-clock, no ambient randomness beyond its seed), any
failure sequence replays bit-identically: the chaos suite and CI's
``chaos-smoke`` job run *committed* plans and gate the headline
invariant — queue-backed rows stay byte-identical to serial, no cell's
result is trusted twice, and every degradation is reported, never
silent.

Fault kinds:

``kill``
    SIGKILL this process — before executing the ``at_cell``-th cell it
    runs (1-based, per process), or on starting ``shard``.  With
    ``once=True`` the fault fires at most once across the whole fleet
    (arbitrated through an ``O_EXCL`` marker under the queue root);
    without it, *every* matching process dies, which is how a plan
    poisons a shard until quarantine kicks in.
``queue-error``
    Raise ``OSError(errno)`` from a queue operation — the ``at_op``-th
    matching op this process performs (1-based), for ``burst``
    consecutive matching ops.  ``op`` restricts the hook (``submit``,
    ``claim``, ``publish``, ``journal``, ``status``, ``read-result``,
    ``list-jobs``, ``cells``, ``connect``); omitted, any op matches.
    Supported errnos: ``EIO``, ``ENOSPC``, ``EACCES``.
``stall``
    Sleep ``seconds`` before executing a shard — how a plan holds a
    worker mid-shard long enough to SIGKILL it holding a lease.
``corrupt-result``
    Garble the just-published result bytes of a matching shard
    (``max_fires`` times, default once) — the storage-rot scenario the
    queue's discard-never-trust read path exists for.
``clock-skew``
    Add ``seconds`` to the perceived age of every lease this process
    inspects, so fresh cross-host leases look expired (positive skew —
    exercises the idempotent double-claim window) or stale ones look
    fresh (negative — exercises slow recovery).

Scoping: every fault carries a ``role`` (``worker`` / ``client`` /
``any``) and an optional ``target`` substring matched against the
process's claims identity, so one committed plan file can direct a
whole fleet — the supervisor's children activate as ``worker``, the
sweep client as ``client``.

The module also owns the fabric's *recovery* policy, because the two
are calibrated against each other: :class:`RetryPolicy` (bounded
exponential backoff, seeded jitter) is what the queue wraps its
operations in before declaring ``QueueUnreachable``, and
:class:`JitteredBackoff` is the client wait-loop's anti-spin sleep.
Both derive their jitter from explicit seeds — retries are part of the
deterministic replay, not a new source of nondeterminism.
"""

from __future__ import annotations

import errno as errno_module
import json
import os
import pathlib
import random
import signal
import time
from dataclasses import dataclass

from repro.errors import ExperimentError

#: env var naming a JSON fault-plan file; presence activates injection.
PLAN_ENV = "REPRO_CHAOS_PLAN"

#: plan format version; unknown versions refuse to load (a chaos run
#: with a half-understood plan would *look* like a pass).
_PLAN_VERSION = 1

FAULT_KINDS = ("kill", "queue-error", "stall", "corrupt-result", "clock-skew")
ROLES = ("any", "worker", "client")
#: the transient-storage errnos the matrix tests cover.
ERRNOS = ("EIO", "ENOSPC", "EACCES")


@dataclass(frozen=True)
class Fault:
    """One planned failure.  Unused fields are ignored per kind."""

    kind: str
    role: str = "any"
    target: str = ""  # substring of the process's claims identity
    op: str = ""  # queue-error: restrict to one queue op ("" = any)
    at_op: int = 1  # queue-error: fire on the Nth matching op (1-based)
    burst: int = 1  # queue-error: consecutive matching ops to fail
    errno: str = "EIO"
    shard: int | None = None  # kill/stall/corrupt-result: one shard only
    at_cell: int | None = None  # kill: before the Nth cell run (1-based)
    seconds: float = 0.0  # stall: sleep; clock-skew: perceived age delta
    once: bool = False  # fire at most once fleet-wide (queue marker)
    max_fires: int | None = None  # per-process cap (None = per-kind default)
    fault_id: str = ""  # marker key for once; defaults to the plan index

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}"
            )
        if self.role not in ROLES:
            raise ExperimentError(
                f"unknown fault role {self.role!r}; expected one of {ROLES}"
            )
        if self.kind == "queue-error":
            if self.errno not in ERRNOS:
                raise ExperimentError(
                    f"unsupported errno {self.errno!r}; expected one of {ERRNOS}"
                )
            if self.at_op < 1 or self.burst < 1:
                raise ExperimentError("at_op and burst must be >= 1")

    @property
    def errno_value(self) -> int:
        return getattr(errno_module, self.errno)

    @property
    def fire_cap(self) -> int | None:
        """Per-process fire cap; corrupt-result defaults to once."""
        if self.max_fires is not None:
            return self.max_fires
        return 1 if self.kind == "corrupt-result" else None

    def to_payload(self) -> dict:
        payload: dict = {"kind": self.kind}
        defaults = Fault(kind=self.kind)
        for name in (
            "role",
            "target",
            "op",
            "at_op",
            "burst",
            "errno",
            "shard",
            "at_cell",
            "seconds",
            "once",
            "max_fires",
            "fault_id",
        ):
            value = getattr(self, name)
            if value != getattr(defaults, name):
                payload[name] = value
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "Fault":
        if not isinstance(payload, dict) or "kind" not in payload:
            raise ExperimentError(
                f'a fault must be an object with a "kind" key, got {payload!r}'
            )
        known = {
            "kind",
            "role",
            "target",
            "op",
            "at_op",
            "burst",
            "errno",
            "shard",
            "at_cell",
            "seconds",
            "once",
            "max_fires",
            "fault_id",
        }
        unknown = set(payload) - known
        if unknown:
            raise ExperimentError(
                f"unknown fault field(s) {sorted(unknown)} in {payload!r}"
            )
        return cls(**payload)


@dataclass(frozen=True)
class FaultPlan:
    """A committed, seeded failure sequence."""

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def to_payload(self) -> dict:
        return {
            "version": _PLAN_VERSION,
            "seed": self.seed,
            "faults": [fault.to_payload() for fault in self.faults],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FaultPlan":
        if not isinstance(payload, dict):
            raise ExperimentError(f"a fault plan must be an object, got {payload!r}")
        if payload.get("version", _PLAN_VERSION) != _PLAN_VERSION:
            raise ExperimentError(
                f"unsupported fault-plan version {payload.get('version')!r}"
            )
        faults = payload.get("faults", [])
        if not isinstance(faults, list):
            raise ExperimentError('"faults" must be a list')
        return cls(
            faults=tuple(Fault.from_payload(item) for item in faults),
            seed=int(payload.get("seed", 0)),
        )

    def save(self, path: str | pathlib.Path) -> pathlib.Path:
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_payload(), indent=2, sort_keys=True) + "\n")
        return target

    @classmethod
    def load(cls, path: str | pathlib.Path) -> "FaultPlan":
        try:
            payload = json.loads(pathlib.Path(path).read_text())
        except OSError as exc:
            raise ExperimentError(f"cannot read fault plan {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ExperimentError(f"fault plan {path} is not JSON: {exc}") from exc
        return cls.from_payload(payload)


class JitteredBackoff:
    """Deterministic exponential backoff with seeded jitter.

    ``next()`` yields the sleep for the current attempt and doubles the
    base (bounded by ``cap``); ``reset()`` re-arms after progress.
    Jitter subtracts up to ``jitter`` fraction of each delay so a fleet
    sharing a seed-free default still decorrelates, while an explicit
    seed replays the exact sleep sequence.
    """

    def __init__(
        self,
        base: float = 0.05,
        cap: float = 2.0,
        multiplier: float = 2.0,
        jitter: float = 0.5,
        seed: int = 0,
    ) -> None:
        if base <= 0 or cap < base or multiplier < 1 or not 0 <= jitter <= 1:
            raise ExperimentError(
                f"invalid backoff (base={base}, cap={cap}, "
                f"multiplier={multiplier}, jitter={jitter})"
            )
        self.base = base
        self.cap = cap
        self.multiplier = multiplier
        self.jitter = jitter
        self._rng = random.Random(seed)
        self._delay = base

    def next(self) -> float:
        value = self._delay * (1 - self.jitter * self._rng.random())
        self._delay = min(self._delay * self.multiplier, self.cap)
        return value

    def reset(self) -> None:
        self._delay = self.base

    def sleep(self) -> float:
        """Sleep the next delay; returns the seconds slept."""
        value = self.next()
        time.sleep(value)
        return value


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    ``attempts`` is the *total* number of tries; the policy sleeps
    between them per :class:`JitteredBackoff` and re-raises the last
    error once the budget is spent.  The queue wraps every operation in
    one of these (DESIGN.md §14.2), so a transient ``EIO`` costs a few
    jittered sleeps instead of a degraded sweep.
    """

    attempts: int = 4
    base_delay: float = 0.05
    max_delay: float = 2.0
    multiplier: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ExperimentError(f"attempts must be >= 1, got {self.attempts}")

    def backoff(self) -> JitteredBackoff:
        return JitteredBackoff(
            base=self.base_delay,
            cap=self.max_delay,
            multiplier=self.multiplier,
            jitter=self.jitter,
            seed=self.seed,
        )

    def delays(self) -> list[float]:
        """The deterministic sleep schedule (attempts - 1 entries)."""
        backoff = self.backoff()
        return [backoff.next() for _ in range(self.attempts - 1)]

    def call(self, fn, *args, exceptions=(OSError,), on_retry=None, **kwargs):
        """Run ``fn`` with retries; re-raise the final failure."""
        backoff = self.backoff()
        for attempt in range(1, self.attempts + 1):
            try:
                return fn(*args, **kwargs)
            except exceptions as exc:
                if attempt >= self.attempts:
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                time.sleep(backoff.next())
        raise AssertionError("unreachable")  # pragma: no cover


class FaultInjector:
    """Replays one :class:`FaultPlan` inside a fabric process.

    Installed process-globally (:func:`activate` / :func:`use`); the
    queue, worker and client call its hooks at well-defined points.
    All counters are per process; ``once`` faults additionally
    arbitrate through an ``O_EXCL`` marker under ``<queue>/chaos/`` so
    exactly one fleet member fires them.
    """

    def __init__(
        self,
        plan: FaultPlan,
        role: str,
        identity: str = "",
        queue_root: str | pathlib.Path | None = None,
    ) -> None:
        if role not in ("worker", "client"):
            raise ExperimentError(f"role must be worker or client, got {role!r}")
        self.plan = plan
        self.role = role
        self.identity = identity
        self.queue_root = pathlib.Path(queue_root) if queue_root is not None else None
        self._op_seen: dict[int, int] = {}
        self._fired: dict[int, int] = {}
        self._cells = 0
        #: injected-fault log, for tests and the degradation report.
        self.injected: list[str] = []

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------
    def _mine(self, fault: Fault) -> bool:
        if fault.role not in ("any", self.role):
            return False
        if fault.target and fault.target not in self.identity:
            return False
        return True

    def _faults(self, kind: str):
        for index, fault in enumerate(self.plan.faults):
            if fault.kind == kind and self._mine(fault):
                yield index, fault

    def _spent(self, index: int, fault: Fault) -> bool:
        cap = fault.fire_cap
        return cap is not None and self._fired.get(index, 0) >= cap

    def _record(self, index: int, fault: Fault, note: str) -> None:
        self._fired[index] = self._fired.get(index, 0) + 1
        self.injected.append(note)

    def _claim_once_marker(self, index: int, fault: Fault) -> bool:
        """True when this process wins the fleet-wide right to fire."""
        if self.queue_root is None:
            return True  # no arbitration possible; fire locally
        marker_dir = self.queue_root / "chaos"
        name = fault.fault_id or f"fault-{index}"
        try:
            marker_dir.mkdir(parents=True, exist_ok=True)
            fd = os.open(
                marker_dir / f"{name}.fired", os.O_CREAT | os.O_EXCL | os.O_WRONLY
            )
        except FileExistsError:
            return False
        except OSError:
            return False  # cannot arbitrate: be conservative, don't fire
        with os.fdopen(fd, "w") as handle:
            handle.write(
                json.dumps({"identity": self.identity, "role": self.role}) + "\n"
            )
        return True

    def _fire_kill(self, index: int, fault: Fault, note: str) -> None:
        if self._spent(index, fault):
            return
        if fault.once and not self._claim_once_marker(index, fault):
            return
        self._record(index, fault, note)
        os.kill(os.getpid(), signal.SIGKILL)

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def on_queue_op(self, op: str) -> None:
        """Called inside every queue operation; may raise ``OSError``."""
        for index, fault in self._faults("queue-error"):
            if fault.op and fault.op != op:
                continue
            seen = self._op_seen.get(index, 0) + 1
            self._op_seen[index] = seen
            if fault.at_op <= seen < fault.at_op + fault.burst:
                self._record(index, fault, f"{fault.errno} on {op} (op #{seen})")
                raise OSError(
                    fault.errno_value,
                    f"chaos: injected {fault.errno} on {op} (op #{seen})",
                )

    def on_shard_start(self, job_id: str, shard: int) -> None:
        """Called before a claimed shard executes (stalls, shard kills)."""
        for index, fault in self._faults("stall"):
            if fault.shard is not None and fault.shard != shard:
                continue
            if self._spent(index, fault):
                continue
            if fault.seconds > 0:
                self._record(index, fault, f"stall {fault.seconds}s on shard {shard}")
                time.sleep(fault.seconds)
        for index, fault in self._faults("kill"):
            if fault.at_cell is not None or fault.shard is None:
                continue
            if fault.shard == shard:
                self._fire_kill(index, fault, f"SIGKILL on shard {shard}")

    def on_cell(self, job_id: str, shard: int) -> None:
        """Called before each cell executes (cell-indexed kills)."""
        self._cells += 1
        for index, fault in self._faults("kill"):
            if fault.at_cell is None:
                continue
            if fault.shard is not None and fault.shard != shard:
                continue
            if self._cells >= fault.at_cell:
                self._fire_kill(
                    index, fault, f"SIGKILL at cell #{self._cells} (shard {shard})"
                )

    def on_result_published(self, path: pathlib.Path, job_id: str, shard: int) -> None:
        """Called after a shard result lands; may rot its bytes."""
        for index, fault in self._faults("corrupt-result"):
            if fault.shard is not None and fault.shard != shard:
                continue
            if self._spent(index, fault):
                continue
            try:
                data = path.read_bytes()
            except OSError:
                continue
            # Garble the pickle header: deterministic, unambiguous rot
            # that read_result provably cannot load.
            path.write_bytes(b"\x00CHAOS\x00" + data[7:])
            self._record(index, fault, f"corrupted result of shard {shard}")

    def clock_skew(self) -> float:
        """Seconds to add to every perceived lease age."""
        return sum(fault.seconds for _, fault in self._faults("clock-skew"))


#: the process-global injector (None = chaos off, the common path).
_ACTIVE: FaultInjector | None = None


def active() -> FaultInjector | None:
    return _ACTIVE


def deactivate() -> None:
    global _ACTIVE
    _ACTIVE = None


def install(
    plan: FaultPlan,
    role: str,
    identity: str = "",
    queue_root: str | pathlib.Path | None = None,
) -> FaultInjector:
    """Install an injector process-globally and return it."""
    global _ACTIVE
    _ACTIVE = FaultInjector(plan, role, identity=identity, queue_root=queue_root)
    return _ACTIVE


def env_plan(environ=None) -> FaultPlan | None:
    """The fault plan ``REPRO_CHAOS_PLAN`` names, or None."""
    environ = os.environ if environ is None else environ
    path = environ.get(PLAN_ENV)
    return FaultPlan.load(path) if path else None


def activate(
    role: str,
    identity: str = "",
    queue_root: str | pathlib.Path | None = None,
) -> FaultInjector | None:
    """Install the env-gated injector for this process, if any.

    The one entry point the fabric calls (worker main loop, sweep
    client): no plan in the environment means no injector and zero
    overhead on every hook site.
    """
    plan = env_plan()
    if plan is None:
        deactivate()
        return None
    return install(plan, role, identity=identity, queue_root=queue_root)


class use:
    """Context manager installing a plan for a test block."""

    def __init__(
        self,
        plan: FaultPlan,
        role: str = "client",
        identity: str = "",
        queue_root: str | pathlib.Path | None = None,
    ) -> None:
        self._args = (plan, role, identity, queue_root)

    def __enter__(self) -> FaultInjector:
        plan, role, identity, queue_root = self._args
        self._previous = active()
        return install(plan, role, identity=identity, queue_root=queue_root)

    def __exit__(self, *exc_info) -> None:
        global _ACTIVE
        _ACTIVE = self._previous


__all__ = [
    "ERRNOS",
    "FAULT_KINDS",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "JitteredBackoff",
    "PLAN_ENV",
    "RetryPolicy",
    "activate",
    "active",
    "deactivate",
    "env_plan",
    "install",
    "use",
]
