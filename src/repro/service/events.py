"""Typed mission events and their JSONL wire form (DESIGN.md §12.2).

One event vocabulary shared by the streaming fleet service and the
batch CLI: the service emits events incrementally as epochs land
(:mod:`repro.service.fleet`), while :func:`mission_events` derives the
exact same sequence from a finished batch
:class:`~repro.experiments.mission.MissionResult` — which is what lets
``tests/test_service.py`` pin streamed ≡ batch event-for-event, and
lets ``repro mission --events`` and ``repro serve --events`` write
interchangeable JSONL logs.

Every event is a frozen dataclass of JSON-scalar fields (verdicts are
flattened to ``decision``/``confirmed`` strings at construction), so
:func:`event_payload` / :func:`event_from_payload` round-trip without
any custom serialisation.

The per-mission stream is, in order::

    MissionAccepted
    (EpochStarted  EpochCompleted  [VerdictChanged]  [CutEmerged]) * epochs
    MissionCompleted | MissionCancelled | MissionFailed

``VerdictChanged`` fires on the transition the mission engine calls a
change (decision or confirmation flip, ``EpochReport.changed``); ``CutEmerged`` fires once, at
the first epoch whose topology is truly t-partitionable (ground truth,
so only on missions run with it).
"""

from __future__ import annotations

import dataclasses
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Iterator, TextIO

from repro.errors import ExperimentError
from repro.experiments.mission import (
    EpochReport,
    MissionResult,
    MissionSpec,
    mission_digest,
    mission_graphs,
    topology_delta,
)
from repro.types import decode_spec


@dataclass(frozen=True)
class MissionEvent:
    """Base class: every event names the mission it belongs to."""

    mission_id: str


@dataclass(frozen=True)
class MissionAccepted(MissionEvent):
    """The mission entered the registry (or the batch replay started)."""

    digest: str
    epochs: int
    protocol: str
    label: str = ""


@dataclass(frozen=True)
class EpochStarted(MissionEvent):
    """The epoch's topology delta is being applied and flown."""

    epoch: int
    edges_added: int
    edges_removed: int


@dataclass(frozen=True)
class EpochCompleted(MissionEvent):
    """One epoch's full annotated report (the verdict-stream row)."""

    epoch: int
    danger: int
    decision: str
    confirmed: bool
    changed: bool
    escalated: bool
    mean_kb_sent: float
    rounds_executed: int | None
    partitionable: bool | None
    correct_cut: bool | None


@dataclass(frozen=True)
class VerdictChanged(MissionEvent):
    """The verdict flipped vs the previous epoch (``EpochReport.changed``)."""

    epoch: int
    danger: int
    decision: str
    confirmed: bool


@dataclass(frozen=True)
class CutEmerged(MissionEvent):
    """First epoch whose topology is truly t-partitionable."""

    epoch: int


@dataclass(frozen=True)
class MissionCompleted(MissionEvent):
    """Terminal: every epoch flown; temporal metrics attached.

    Metric fields are ``None`` when the mission ran without ground
    truth (the metrics are undefined, not zero).
    """

    epochs: int
    emergence_epoch: int | None
    detection_epoch: int | None
    detection_latency: float | None
    false_alarm_rate: float | None
    mean_kb_per_epoch: float


@dataclass(frozen=True)
class MissionCancelled(MissionEvent):
    """Terminal: cancelled at ``epoch`` (service only)."""

    epoch: int


@dataclass(frozen=True)
class MissionFailed(MissionEvent):
    """Terminal: an epoch raised (service only)."""

    epoch: int
    error: str


#: every concrete event type, by wire name.
EVENT_TYPES: dict[str, type[MissionEvent]] = {
    cls.__name__: cls
    for cls in (
        MissionAccepted,
        EpochStarted,
        EpochCompleted,
        VerdictChanged,
        CutEmerged,
        MissionCompleted,
        MissionCancelled,
        MissionFailed,
    )
}

#: terminal event types: after one of these, a mission stream is over.
TERMINAL_EVENTS = (MissionCompleted, MissionCancelled, MissionFailed)


def verdict_fields(verdict: Any) -> tuple[str, bool]:
    """Flatten any verdict shape to ``(decision, confirmed)`` strings.

    NECTAR verdicts carry ``decision``/``confirmed``; baseline verdicts
    *are* the decision (and are never confirmed).
    """
    decision = getattr(verdict, "decision", verdict)
    return (str(decision), bool(getattr(verdict, "confirmed", False)))


def event_payload(event: MissionEvent) -> dict:
    """One event as a JSON-ready object (``event`` names the type)."""
    payload: dict = {"event": type(event).__name__}
    payload.update(dataclasses.asdict(event))
    return payload


def event_from_payload(payload: Any) -> MissionEvent:
    """Rebuild an event from :func:`event_payload` output.

    Raises:
        ExperimentError: on unknown event types or unknown, missing or
            wrong-typed fields.
    """
    if not isinstance(payload, dict) or "event" not in payload:
        raise ExperimentError(
            f'an event payload must be an object with an "event" key, '
            f"got {payload!r}"
        )
    kind = payload["event"]
    cls = EVENT_TYPES.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ExperimentError(
            f"unknown event type {kind!r}; known: {sorted(EVENT_TYPES)}"
        )
    fields = {key: value for key, value in payload.items() if key != "event"}
    return decode_spec(cls, fields, kind)


# ----------------------------------------------------------------------
# Event derivation: one definition for streaming and batch
# ----------------------------------------------------------------------
def accepted_event(
    mission_id: str, mission: MissionSpec, label: str = ""
) -> MissionAccepted:
    """The stream's opening event for one mission."""
    return MissionAccepted(
        mission_id=mission_id,
        digest=mission_digest(mission),
        epochs=mission.trajectory.length,
        protocol=mission.protocol,
        label=label,
    )


def epoch_started_event(
    mission_id: str, epoch: int, delta: tuple[int, int]
) -> EpochStarted:
    """The pre-flight event of one epoch (``delta`` = added/removed)."""
    added, removed = delta
    return EpochStarted(
        mission_id=mission_id,
        epoch=epoch,
        edges_added=added,
        edges_removed=removed,
    )


def epoch_completed_events(
    mission_id: str, report: EpochReport, cut_already_emerged: bool
) -> Iterator[MissionEvent]:
    """The post-flight events of one epoch, in stream order.

    Always an :class:`EpochCompleted`; a :class:`VerdictChanged` when
    the report flags a flip; a :class:`CutEmerged` the first time
    ground truth says the topology is partitionable.
    """
    decision, confirmed = verdict_fields(report.verdict)
    yield EpochCompleted(
        mission_id=mission_id,
        epoch=report.epoch,
        danger=report.danger,
        decision=decision,
        confirmed=confirmed,
        changed=report.changed,
        escalated=report.escalated,
        mean_kb_sent=report.mean_kb_sent,
        rounds_executed=report.rounds_executed,
        partitionable=report.partitionable,
        correct_cut=report.correct_cut,
    )
    if report.changed:
        yield VerdictChanged(
            mission_id=mission_id,
            epoch=report.epoch,
            danger=report.danger,
            decision=decision,
            confirmed=confirmed,
        )
    if report.partitionable and not cut_already_emerged:
        yield CutEmerged(mission_id=mission_id, epoch=report.epoch)


def completion_event(mission_id: str, result: MissionResult) -> MissionCompleted:
    """The terminal event of a successfully-finished mission."""
    with_truth = (
        bool(result.reports) and result.reports[0].partitionable is not None
    )
    return MissionCompleted(
        mission_id=mission_id,
        epochs=result.epochs,
        emergence_epoch=result.emergence_epoch if with_truth else None,
        detection_epoch=result.detection_epoch if with_truth else None,
        detection_latency=result.detection_latency if with_truth else None,
        false_alarm_rate=result.false_alarm_rate if with_truth else None,
        mean_kb_per_epoch=result.mean_kb_per_epoch,
    )


def mission_events(
    mission_id: str, result: MissionResult, label: str = ""
) -> list[MissionEvent]:
    """Derive a finished mission's full event stream post hoc.

    The batch half of the equivalence contract: this sequence is
    event-for-event identical to what a :class:`~repro.service.fleet.
    FleetService` subscription streams for the same spec (the service
    emits the same helpers incrementally).  Used by ``repro mission
    --events`` so batch logs share the service's schema.
    """
    graphs = mission_graphs(result.mission)
    events: list[MissionEvent] = [
        accepted_event(mission_id, result.mission, label=label)
    ]
    cut_emerged = False
    for report in result.reports:
        events.append(
            epoch_started_event(
                mission_id, report.epoch, topology_delta(graphs, report.epoch)
            )
        )
        events.extend(
            epoch_completed_events(mission_id, report, cut_emerged)
        )
        cut_emerged = cut_emerged or bool(report.partitionable)
    events.append(completion_event(mission_id, result))
    return events


class EventLog:
    """Append-only JSONL event sink (``--events out.jsonl``).

    One event object per line, flushed immediately — the log is
    tail-able while a mission (or the service) is live.  Usable as a
    context manager.
    """

    def __init__(self, path: str | pathlib.Path) -> None:
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        self.path = target
        self._stream: TextIO | None = target.open("w", encoding="utf-8")

    def emit(self, event: MissionEvent) -> None:
        """Write one event line (no-op after :meth:`close`)."""
        if self._stream is None:
            return
        self._stream.write(json.dumps(event_payload(event), sort_keys=True))
        self._stream.write("\n")
        self._stream.flush()

    def close(self) -> None:
        if self._stream is not None:
            self._stream.close()
            self._stream = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def read_event_log(path: str | pathlib.Path) -> list[MissionEvent]:
    """Parse a JSONL event log back into typed events.

    Raises:
        ExperimentError: on unreadable files or malformed lines.
    """
    try:
        text = pathlib.Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ExperimentError(f"cannot read event log {path}: {exc}") from None
    events = []
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ExperimentError(
                f"event log {path} line {number}: {exc}"
            ) from None
        events.append(event_from_payload(payload))
    return events


__all__ = [
    "CutEmerged",
    "EVENT_TYPES",
    "EpochCompleted",
    "EpochStarted",
    "EventLog",
    "MissionAccepted",
    "MissionCancelled",
    "MissionCompleted",
    "MissionEvent",
    "MissionFailed",
    "TERMINAL_EVENTS",
    "VerdictChanged",
    "accepted_event",
    "completion_event",
    "epoch_completed_events",
    "epoch_started_event",
    "event_from_payload",
    "event_payload",
    "mission_events",
    "read_event_log",
    "verdict_fields",
]
