#!/usr/bin/env python3
"""Continuous partition monitoring of a mobile ad hoc network.

MANETs are the paper's motivating deployment (Sec. I): nodes move,
links appear and vanish, and the operator wants to know — ahead of
time — when up to t compromised nodes could cut the network.  This
example flies a random-waypoint patrol as a mission: a
:class:`~repro.experiments.mission.MissionSession` runs NECTAR once
per topology epoch (deployment seed advancing by epoch) and the
verdict timeline is printed with escalation markers.

Run:  python examples/manet_patrol.py
"""

from repro.experiments.mission import MissionSession, MissionSpec, TrajectorySpec
from repro.graphs.analysis import summarize
from repro.types import Decision

NODES = 14
STEPS = 18
RADIUS = 2.6
ARENA = 5.0
SPEED = 0.7
BYZANTINE_BUDGET = 1


def patrol(steps: int = STEPS) -> MissionSession:
    """The patrol as a stepwise mission, one NECTAR run per step."""
    trajectory = TrajectorySpec(
        kind="waypoint",
        n=NODES,
        epochs=steps,
        reach=RADIUS,
        arena=ARENA,
        speed=SPEED,
        seed=2026,
    )
    mission = MissionSpec(
        trajectory=trajectory, t=BYZANTINE_BUDGET, epoch_seeds="stride"
    )
    return MissionSession(mission, with_truth=False)


def main() -> None:
    print(
        f"MANET patrol: {NODES} nodes, arena {ARENA}x{ARENA}, "
        f"radio {RADIUS}, t={BYZANTINE_BUDGET}\n"
    )
    print(f"{'step':>4}  {'κ':>3}  {'m':>4}  {'verdict':<18} {'conf':<5} event")
    session = patrol()
    alarms = 0
    while not session.done:
        report = session.step()
        summary = summarize(session.graphs[report.epoch])
        if report.escalated:
            event = "<<< ESCALATION: regroup before links break"
            alarms += 1
        elif report.changed:
            event = "recovered"
        else:
            event = ""
        print(
            f"{report.epoch:>4}  {summary.connectivity:>3}  {summary.edges:>4}  "
            f"{str(report.verdict.decision):<18} "
            f"{str(report.verdict.confirmed):<5} {event}"
        )
    print(f"\n{session.epoch} epochs monitored, {alarms} escalations.")
    print("Each epoch is one full NECTAR run (footnote 2 of the paper:")
    print("the topology is assumed stable for the n-1 rounds of a run).")


if __name__ == "__main__":
    main()


def test_manet_patrol_monitors_every_step():
    session = patrol(steps=6)
    reports = [session.step() for _ in range(session.total_epochs)]
    assert len(reports) == 6
    assert all(
        r.verdict.decision in (Decision.NOT_PARTITIONABLE, Decision.PARTITIONABLE)
        for r in reports
    )
