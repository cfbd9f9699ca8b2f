"""Continuous partition monitoring (the paper's footnote 2) on the
mission engine: one NECTAR run per topology epoch, read as a verdict
stream with change and escalation flags."""

from repro.experiments.mission import (
    MissionSession,
    MissionSpec,
    TrajectorySpec,
    run_mission,
)
from repro.graphs.generators.classic import cycle_graph
from repro.graphs.generators.drone import drone_graph
from repro.types import Decision


def drifting_fleet(n=12, radius=1.8, steps=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)):
    """The Fig. 2 mission: scatters drifting apart step by step."""
    return [drone_graph(n, d, radius, seed=11) for d in steps]


def stride_mission(graphs, t):
    """One epoch per graph, the deployment seed advancing by epoch."""
    return MissionSpec(
        trajectory=TrajectorySpec.explicit(graphs), t=t, epoch_seeds="stride"
    )


class TestContinuousMonitoring:
    def test_mission_escalates_before_the_split(self):
        """The decision flips to PARTITIONABLE before confirmed=True."""
        reports = run_mission(
            stride_mission(drifting_fleet(), t=2), with_truth=False
        ).reports
        assert reports[0].verdict.decision is Decision.NOT_PARTITIONABLE
        final = reports[-1]
        assert final.verdict.decision is Decision.PARTITIONABLE
        assert final.verdict.confirmed
        warn_epoch = next(
            r.epoch
            for r in reports
            if r.verdict.decision is Decision.PARTITIONABLE
        )
        confirm_epoch = next(r.epoch for r in reports if r.verdict.confirmed)
        assert warn_epoch < confirm_epoch  # early warning, then the split

    def test_escalation_flags_transitions_only(self):
        result = run_mission(stride_mission(drifting_fleet(), t=2), with_truth=False)
        first = result.reports[0]
        assert not (first.changed or first.escalated)  # nothing to differ from
        escalations = [r for r in result.reports if r.escalated]
        # Two level changes: safe -> partitionable -> confirmed.
        assert len(escalations) == 2
        assert all(r.changed for r in escalations)
        assert result.first_escalation() == escalations[0]

    def test_no_escalation_returns_none(self):
        result = run_mission(
            stride_mission([cycle_graph(6)] * 3, t=1), with_truth=False
        )
        assert result.first_escalation() is None

    def test_cost_reported(self):
        session = MissionSession(
            stride_mission([cycle_graph(6)], t=1), with_truth=False
        )
        assert session.step().mean_kb_sent > 0
