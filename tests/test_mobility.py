"""Tests for the MANET mobility substrate."""

import math

import pytest

from repro.errors import TopologyError
from repro.experiments.mission import MissionSpec, TrajectorySpec, run_mission
from repro.graphs.generators.mobility import (
    MobilitySnapshot,
    drifting_scatters_mission,
    random_waypoint_mission,
)
from repro.types import Decision


class TestRandomWaypoint:
    def test_yields_requested_steps(self):
        snapshots = list(random_waypoint_mission(8, 5, radius=2.0, seed=1))
        assert len(snapshots) == 5
        assert all(isinstance(s, MobilitySnapshot) for s in snapshots)
        assert [s.step for s in snapshots] == list(range(5))

    def test_positions_stay_in_arena(self):
        for snapshot in random_waypoint_mission(6, 20, radius=1.0, arena=4.0, seed=2):
            for x, y in snapshot.positions:
                assert -1e-9 <= x <= 4.0 + 1e-9
                assert -1e-9 <= y <= 4.0 + 1e-9

    def test_movement_bounded_by_speed(self):
        previous = None
        for snapshot in random_waypoint_mission(5, 10, radius=1.0, speed=0.3, seed=3):
            if previous is not None:
                for (x0, y0), (x1, y1) in zip(previous, snapshot.positions):
                    assert math.hypot(x1 - x0, y1 - y0) <= 0.3 + 1e-9
            previous = snapshot.positions

    def test_edges_match_radius(self):
        for snapshot in random_waypoint_mission(6, 3, radius=1.5, seed=4):
            for u, v in snapshot.graph.edges():
                ux, uy = snapshot.positions[u]
                vx, vy = snapshot.positions[v]
                assert math.hypot(ux - vx, uy - vy) < 1.5

    def test_topology_actually_changes(self):
        graphs = [
            s.graph
            for s in random_waypoint_mission(8, 30, radius=1.5, speed=0.8, seed=5)
        ]
        assert len({g.edges() for g in graphs}) > 1

    def test_deterministic(self):
        a = [s.graph for s in random_waypoint_mission(6, 5, radius=1.2, seed=7)]
        b = [s.graph for s in random_waypoint_mission(6, 5, radius=1.2, seed=7)]
        assert a == b

    def test_rejects_bad_parameters(self):
        with pytest.raises(TopologyError):
            list(random_waypoint_mission(1, 5, radius=1.0))
        with pytest.raises(TopologyError):
            list(random_waypoint_mission(5, 0, radius=1.0))
        with pytest.raises(TopologyError):
            list(random_waypoint_mission(5, 5, radius=0.0))


class TestDriftingScatters:
    def test_one_graph_per_distance(self):
        graphs = drifting_scatters_mission(10, [0.0, 3.0, 6.0], radius=1.5)
        assert len(graphs) == 3

    def test_monitor_integration(self):
        """The generated graphs drive a stride-seeded mission end to end."""
        graphs = drifting_scatters_mission(
            12, [0.0, 2.0, 4.0, 6.0], radius=1.8, seed=11
        )
        mission = MissionSpec(
            trajectory=TrajectorySpec.explicit(graphs), t=1, epoch_seeds="stride"
        )
        reports = run_mission(mission, with_truth=False).reports
        assert reports[0].verdict.decision is Decision.NOT_PARTITIONABLE
        assert reports[-1].verdict.confirmed

    def test_empty_mission_rejected(self):
        with pytest.raises(TopologyError):
            drifting_scatters_mission(10, [], radius=1.0)
