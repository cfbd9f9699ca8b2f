"""Tests for the mission layer (DESIGN.md §10).

Covers the temporal engine (verdict streams, detection metrics), the
registered detection scenarios (golden rows pinned serial ≡ sharded,
artifact cache on ≡ off), the budgeted-channel mission path and the
``repro mission`` CLI.
"""

import json

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments.artifacts import ARTIFACTS, clear_artifact_cache
from repro.experiments.envspec import EnvironmentSpec
from repro.experiments.mission import (
    MISSION_FIGURES,
    MISSION_MEASURES,
    MissionCellSpec,
    MissionSpec,
    TrajectorySpec,
    clear_mission_memo,
    mission_graphs,
    run_epoch,
    run_mission,
)
from repro.experiments.spec import FIGURE_SPECS, SWEEP_ENGINE
from repro.graphs.generators.classic import cycle_graph, path_graph
from repro.graphs.generators.drone import drone_graph
from repro.graphs.graph import Graph
from repro.types import Decision


@pytest.fixture(autouse=True)
def _fresh_caches():
    """Missions memoise per process; isolate every test."""
    clear_mission_memo()
    clear_artifact_cache()
    yield
    clear_mission_memo()
    clear_artifact_cache()


def drifting_fleet(n=12, radius=1.8, steps=(0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)):
    """The Fig. 2 mission: scatters drifting apart step by step."""
    return [drone_graph(n, d, radius, seed=11) for d in steps]


SCATTERS = TrajectorySpec(
    kind="drifting-scatters", n=12, epochs=7, start=0.0, drift=1.0, radius=1.8, seed=11
)


class TestTrajectorySpec:
    def test_drifting_scatters_matches_manual_sequence(self):
        assert list(SCATTERS.build()) == drifting_fleet()

    def test_waypoint_builds_one_graph_per_epoch(self):
        trajectory = TrajectorySpec(kind="waypoint", n=6, epochs=5, seed=3)
        graphs = trajectory.build()
        assert len(graphs) == 5
        assert all(graph.n == 6 for graph in graphs)

    def test_waypoint_deterministic(self):
        trajectory = TrajectorySpec(kind="waypoint", n=6, epochs=4, seed=3)
        assert trajectory.build() == trajectory.build()

    def test_explicit_wraps_graphs(self):
        graphs = [cycle_graph(5), path_graph(5)]
        trajectory = TrajectorySpec.explicit(graphs)
        assert trajectory.length == 2
        assert trajectory.build() == tuple(graphs)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="unknown trajectory kind"):
            TrajectorySpec(kind="teleport", n=4, epochs=2).validate()

    def test_empty_explicit_rejected(self):
        with pytest.raises(ExperimentError, match="at least one graph"):
            TrajectorySpec.explicit([])

    def test_mixed_node_counts_rejected(self):
        trajectory = TrajectorySpec(
            kind="explicit", sequence=(cycle_graph(4), cycle_graph(5))
        )
        with pytest.raises(ExperimentError, match="same node set"):
            trajectory.validate()

    def test_degenerate_parameters_rejected(self):
        with pytest.raises(ExperimentError, match="at least 2 nodes"):
            TrajectorySpec(n=1, epochs=3).validate()
        with pytest.raises(ExperimentError, match="at least one epoch"):
            TrajectorySpec(n=5, epochs=0).validate()

    def test_explicit_has_no_payload(self):
        with pytest.raises(ExperimentError, match="no spec payload"):
            TrajectorySpec.explicit([cycle_graph(4)]).payload()

    def test_artifact_key_covers_every_parameter(self):
        base = SCATTERS
        assert base.artifact_key() == SCATTERS.artifact_key()
        for change in (
            {"n": 13},
            {"epochs": 8},
            {"drift": 0.5},
            {"radius": 2.0},
            {"seed": 12},
        ):
            import dataclasses

            mutated = dataclasses.replace(base, **change)
            assert mutated.artifact_key() != base.artifact_key()


class TestMissionValidation:
    def test_negative_t_rejected(self):
        with pytest.raises(ExperimentError, match="non-negative"):
            run_mission(MissionSpec(trajectory=SCATTERS, t=-1))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ExperimentError, match="unknown mission protocol"):
            run_mission(MissionSpec(trajectory=SCATTERS, protocol="carrier-pigeon"))

    def test_unknown_epoch_seed_mode_rejected(self):
        with pytest.raises(ExperimentError, match="epoch-seed mode"):
            run_mission(MissionSpec(trajectory=SCATTERS, epoch_seeds="random"))

    def test_epoch_seed_policies(self):
        fixed = MissionSpec(trajectory=SCATTERS, seed=7)
        stride = MissionSpec(trajectory=SCATTERS, seed=7, epoch_seeds="stride")
        assert [fixed.epoch_seed(e) for e in range(3)] == [7, 7, 7]
        assert [stride.epoch_seed(e) for e in range(3)] == [7, 8, 9]


class TestMissionEngine:
    def test_separation_mission_detects_the_split(self):
        result = run_mission(MissionSpec(trajectory=SCATTERS, t=2))
        assert result.epochs == 7
        first, last = result.reports[0], result.reports[-1]
        assert first.verdict.decision is Decision.NOT_PARTITIONABLE
        assert last.verdict.decision is Decision.PARTITIONABLE
        assert last.verdict.confirmed
        assert result.emergence_epoch is not None
        assert result.detection_epoch is not None
        assert result.detection_latency >= 0.0

    def test_epoch_stream_matches_single_epoch_primitive(self):
        mission = MissionSpec(trajectory=SCATTERS, t=2)
        result = run_mission(mission)
        for epoch, graph in enumerate(mission_graphs(mission)):
            outcome = run_epoch(graph, t=2, seed=mission.seed, with_truth=True)
            report = result.reports[epoch]
            assert report.verdict == outcome.verdict
            assert report.mean_kb_sent == outcome.mean_kb_sent
            assert report.partitionable == outcome.partitionable

    def test_run_to_run_determinism(self):
        mission = MissionSpec(trajectory=SCATTERS, t=2)
        assert run_mission(mission) == run_mission(mission)

    def test_stable_topology_never_escalates(self):
        trajectory = TrajectorySpec.explicit([cycle_graph(6)] * 4)
        result = run_mission(MissionSpec(trajectory=trajectory, t=1))
        assert result.first_escalation() is None
        assert all(not report.changed for report in result.reports)

    def test_mtg_mission_detects_actual_partition_only(self):
        # A cycle is 2-connected (t=2-partitionable truth) but MtG only
        # reports once the graph actually splits.
        split = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        trajectory = TrajectorySpec.explicit([cycle_graph(6), split])
        result = run_mission(
            MissionSpec(trajectory=trajectory, t=2, protocol="mtg")
        )
        assert result.emergence_epoch == 0  # κ=2 <= t from the start
        assert result.detection_epoch == 1  # detected only at the split
        assert result.detection_latency == 1.0

    def test_detection_latency_sentinels(self):
        # Never partitionable at t=1: a 2-connected cycle throughout.
        safe = run_mission(
            MissionSpec(trajectory=TrajectorySpec.explicit([cycle_graph(6)] * 3), t=1)
        )
        assert safe.emergence_epoch is None
        assert safe.detection_latency == -1.0
        # Cut emerges but MtG never sees an actual split: censored.
        cut_unseen = run_mission(
            MissionSpec(
                trajectory=TrajectorySpec.explicit([cycle_graph(6)] * 3),
                t=2,
                protocol="mtg",
            )
        )
        assert cut_unseen.emergence_epoch == 0
        assert cut_unseen.detection_epoch is None
        assert cut_unseen.detection_latency == 3.0  # epochs - emergence

    def test_false_alarm_rate_counts_safe_epochs_only(self):
        # Path graphs are 1-partitionable: with t=1 NECTAR flags every
        # epoch, and every epoch is truly cut — zero false alarms.
        result = run_mission(
            MissionSpec(trajectory=TrajectorySpec.explicit([path_graph(5)] * 2), t=1)
        )
        assert result.false_alarm_rate == 0.0
        assert all(report.partitionable for report in result.reports)

    def test_metrics_require_ground_truth(self):
        result = run_mission(MissionSpec(trajectory=SCATTERS, t=2), with_truth=False)
        with pytest.raises(ExperimentError, match="without ground truth"):
            _ = result.detection_latency
        with pytest.raises(ExperimentError, match="without ground truth"):
            _ = result.false_alarm_rate
        assert result.mean_kb_per_epoch > 0  # cost needs no truth

    def test_unknown_measure_rejected(self):
        result = run_mission(MissionSpec(trajectory=SCATTERS, t=2))
        with pytest.raises(ExperimentError, match="unknown mission measure"):
            result.metric("clairvoyance")
        for measure in MISSION_MEASURES:
            assert isinstance(result.metric(measure), float)


FAST = {"trials": 2, "epochs": 5, "drifts": (1.0,)}


class TestMissionScenarios:
    def test_scenarios_registered(self):
        for figure_id in MISSION_FIGURES:
            assert figure_id in FIGURE_SPECS
            assert FIGURE_SPECS[figure_id].seed_mode == "hashed"

    def test_partition_detection_reports_detection_latency_series(self):
        figure = SWEEP_ENGINE.run("partition-detection", overrides=FAST)
        names = [series.name for series in figure.series]
        assert names[0] == "detection latency (epochs)"
        assert "false-alarm rate" in names
        assert "KB sent per epoch" in names
        assert all(series.points for series in figure.series)

    def test_partition_detection_serial_equals_sharded(self):
        serial = SWEEP_ENGINE.run("partition-detection", overrides=FAST)
        clear_mission_memo()
        sharded = SWEEP_ENGINE.run(
            "partition-detection", overrides=FAST, workers=4
        )
        assert sharded.rows() == serial.rows()

    def test_partition_detection_artifacts_on_off_serial_sharded(self):
        """The acceptance grid: rows bit-identical across all 4 modes."""
        baseline = SWEEP_ENGINE.run("partition-detection", overrides=FAST).rows()
        for workers in (1, 4):
            clear_mission_memo()
            clear_artifact_cache()
            figure = SWEEP_ENGINE.run(
                "partition-detection",
                overrides={**FAST, "env.artifacts": True},
                workers=workers,
            )
            assert figure.rows() == baseline
            assert ARTIFACTS.stats.hits() > 0  # the cache really worked

    def test_mission_rows_sweepable_over_env_axes(self):
        default = SWEEP_ENGINE.run("partition-detection", overrides=FAST)
        clear_mission_memo()
        degraded = SWEEP_ENGINE.run(
            "partition-detection",
            overrides={**FAST, "env.channel": "budgeted", "env.bandwidth": 2},
        )
        kb = {s.name: s.points[0].mean for s in default.series}
        kb_degraded = {s.name: s.points[0].mean for s in degraded.series}
        assert kb_degraded["KB sent per epoch"] < kb["KB sent per epoch"]

    def test_mtg_vs_nectar_scenario_shape(self):
        figure = SWEEP_ENGINE.run("mtg-vs-nectar-detection", overrides=FAST)
        names = [series.name for series in figure.series]
        assert names == ["Nectar (ours)", "MtG"]
        by_name = {s.name: s.points[0].mean for s in figure.series}
        # NECTAR escalates on partitionability, MtG only on the split.
        assert by_name["Nectar (ours)"] <= by_name["MtG"]

    def test_no_cut_sentinel_never_pollutes_latency_rows(self):
        """At threshold drifts, cut emergence is seed-dependent; the
        undefined latencies (NO_CUT_SENTINEL) must be excluded from the
        mean, not averaged in as -1, and the cut-emergence series must
        record how many missions had a cut."""
        figure = SWEEP_ENGINE.run(
            "partition-detection",
            overrides={"trials": 8, "epochs": 7, "drifts": (0.35,)},
        )
        by_name = {series.name: series for series in figure.series}
        latency = by_name["detection latency (epochs)"].points[0]
        emergence = by_name["cut-emergence rate"].points[0]
        assert 0.0 < emergence.mean < 1.0  # the threshold regime
        assert emergence.trials == 8
        assert latency.trials == round(emergence.mean * 8)  # defined draws only
        assert latency.mean >= 0.0  # the sentinel never reaches the mean

    def test_all_sentinel_group_omits_the_point(self):
        """No cut at any seed (drift 0): the latency series stays
        empty instead of publishing a -1 row."""
        figure = SWEEP_ENGINE.run(
            "partition-detection",
            overrides={"trials": 2, "epochs": 3, "drifts": (0.0,), "start": 0.0},
        )
        by_name = {series.name: series for series in figure.series}
        assert by_name["cut-emergence rate"].points[0].mean == 0.0
        assert by_name["detection latency (epochs)"].points == []

    def test_mtg_vs_nectar_serial_equals_sharded(self):
        serial = SWEEP_ENGINE.run("mtg-vs-nectar-detection", overrides=FAST)
        clear_mission_memo()
        sharded = SWEEP_ENGINE.run(
            "mtg-vs-nectar-detection", overrides=FAST, workers=3
        )
        assert sharded.rows() == serial.rows()


class TestMissionCells:
    def test_with_env_applies_named_fields_only(self):
        cell = MissionCellSpec(mission=MissionSpec(trajectory=SCATTERS, t=2))
        override = EnvironmentSpec(backend="async", loss_rate=0.4)
        updated = cell.with_env(override, ("backend",))
        assert updated.mission.env.backend == "async"
        assert updated.mission.env.loss_rate == 0.0
        assert cell.with_env(override, ()) is cell

    def test_measure_cells_intern_trajectory_and_key_pool_once(self):
        """Two measure cells of one mission, executed in turn as one
        shard executes them: the first flight interns the trajectory
        and the (fixed-seed) key pool, the second reads the memo."""
        mission = MissionSpec(
            trajectory=SCATTERS,
            t=2,
            env=EnvironmentSpec(artifacts=True, scheme="hmac"),
        )
        for measure in ("detection-latency", "kb-per-epoch"):
            MissionCellSpec(mission=mission, measure=measure).execute()
        assert ARTIFACTS.stats.topology_misses == 1
        assert ARTIFACTS.stats.key_pool_misses == 1

    def test_cell_execute_returns_the_metric(self):
        mission = MissionSpec(trajectory=SCATTERS, t=2)
        cell = MissionCellSpec(mission=mission, measure="kb-per-epoch")
        assert cell.execute() == run_mission(mission).mean_kb_per_epoch


class TestMissionCli:
    def test_mission_list(self, capsys):
        assert main(["mission", "--list"]) == 0
        out = capsys.readouterr().out
        for figure_id in MISSION_FIGURES:
            assert figure_id in out

    def test_mission_requires_a_name(self, capsys):
        assert main(["mission"]) == 2
        assert "pass a mission scenario id" in capsys.readouterr().out

    def test_mission_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "mission.json"
        csv = tmp_path / "mission.csv"
        code = main(
            [
                "mission",
                "partition-detection",
                "--set",
                "trials=2",
                "--set",
                "epochs=4",
                "--set",
                "drifts=1.0",
                "--timeline",
                "--out",
                str(out),
                "--csv",
                str(csv),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "detection latency (epochs)" in stdout
        assert "timeline:" in stdout
        assert "emergence=" in stdout
        payload = json.loads(out.read_text())
        assert payload["figure_id"] == "partition-detection"
        assert "detection latency (epochs)" in csv.read_text()

    def test_mission_artifacts_metadata_embedded(self, tmp_path, capsys):
        out = tmp_path / "mission.json"
        code = main(
            [
                "mission",
                "partition-detection",
                "--set",
                "trials=2",
                "--set",
                "epochs=4",
                "--set",
                "drifts=1.0",
                "--set",
                "env.artifacts=true",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "cache :" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        stats = payload["metadata"]["artifact_stats"]
        assert stats["topology"]["hits"] + stats["topology"]["misses"] > 0

    def test_sweep_subcommand_also_runs_missions(self, capsys):
        """Acceptance: repro sweep partition-detection works as-is."""
        code = main(
            [
                "sweep",
                "partition-detection",
                "--set",
                "trials=2",
                "--set",
                "epochs=4",
                "--set",
                "drifts=1.0",
            ]
        )
        assert code == 0
        assert "detection latency" in capsys.readouterr().out


class TestMissionCodec:
    """payload()/from_payload(): the serve protocol's wire form."""

    def test_minimal_round_trip(self):
        spec = MissionSpec(trajectory=SCATTERS, t=2)
        from repro.experiments.mission import MissionSpec as MS

        assert MS.from_payload(spec.payload()) == spec

    def test_full_round_trip(self):
        from repro.adversary.campaign import AdversarySpec
        from repro.experiments.mission import MissionSpec as MS

        spec = MissionSpec(
            trajectory=SCATTERS,
            t=2,
            connectivity_cutoff=3,
            seed=9,
            epoch_seeds="stride",
            protocol="nectar",
            env=EnvironmentSpec(loss_rate=0.1),
            adversary=AdversarySpec(profile="deceptive", count=2, seed=4),
        )
        assert MS.from_payload(spec.payload()) == spec

    def test_round_trip_survives_json(self):
        from repro.experiments.mission import MissionSpec as MS

        spec = MissionSpec(trajectory=SCATTERS, t=1, seed=5)
        assert MS.from_payload(json.loads(json.dumps(spec.payload()))) == spec

    def test_unknown_mission_field_rejected(self):
        from repro.experiments.mission import MissionSpec as MS

        payload = MissionSpec(trajectory=SCATTERS, t=1).payload()
        payload["warp"] = 9
        with pytest.raises(ExperimentError):
            MS.from_payload(payload)

    def test_unknown_trajectory_field_rejected(self):
        payload = SCATTERS.payload()
        payload["hyperdrive"] = True
        with pytest.raises(ExperimentError):
            TrajectorySpec.from_payload(payload)

    def test_invalid_payloads_rejected(self):
        from repro.experiments.mission import MissionSpec as MS

        with pytest.raises(ExperimentError):
            MS.from_payload("not an object")
        with pytest.raises(ExperimentError):
            MS.from_payload({"t": 1})  # no trajectory
        with pytest.raises(ExperimentError):
            MS.from_payload(
                {"trajectory": SCATTERS.payload(), "t": -1}
            )  # fails validate()

    def test_explicit_trajectories_have_no_wire_form(self):
        explicit = TrajectorySpec.explicit(drifting_fleet())
        spec = MissionSpec(trajectory=explicit, t=1)
        with pytest.raises(ExperimentError):
            spec.payload()


class TestMissionDigest:
    def test_digest_is_stable_and_spec_sensitive(self):
        from repro.experiments.mission import mission_digest

        a = MissionSpec(trajectory=SCATTERS, t=2)
        assert mission_digest(a) == mission_digest(a)
        assert mission_digest(a) != mission_digest(
            MissionSpec(trajectory=SCATTERS, t=2, seed=1)
        )

    def test_explicit_trajectories_digest_by_graph_content(self):
        from repro.experiments.mission import mission_digest

        fleet = drifting_fleet()
        a = MissionSpec(trajectory=TrajectorySpec.explicit(fleet), t=1)
        b = MissionSpec(trajectory=TrajectorySpec.explicit(list(fleet)), t=1)
        assert mission_digest(a) == mission_digest(b)
        shorter = MissionSpec(
            trajectory=TrajectorySpec.explicit(fleet[:-1]), t=1
        )
        assert mission_digest(a) != mission_digest(shorter)


class TestMissionSession:
    def test_progression(self):
        spec = MissionSpec(trajectory=SCATTERS, t=2)
        from repro.experiments.mission import MissionSession

        session = MissionSession(spec)
        assert (session.epoch, session.total_epochs) == (0, 7)
        assert not session.done
        first = session.step()
        assert first.epoch == 0 and session.epoch == 1
        assert len(session.reports) == 1

    def test_topology_delta_epoch_zero_is_the_full_edge_set(self):
        from repro.experiments.mission import MissionSession, topology_delta

        spec = MissionSpec(trajectory=SCATTERS, t=2)
        session = MissionSession(spec)
        added, removed = session.topology_delta(0)
        assert removed == 0
        assert added == len(session.graphs[0].edges())
        assert session.topology_delta(1) == topology_delta(session.graphs, 1)


class TestMissionFigure:
    def test_figure_series_and_id(self):
        from repro.experiments.mission import (
            MISSION_FIGURE_SERIES,
            mission_digest,
            mission_figure,
        )

        spec = MissionSpec(trajectory=SCATTERS, t=2)
        result = run_mission(spec)
        figure = mission_figure(result)
        assert figure.figure_id == f"mission-{mission_digest(spec)[:12]}"
        assert tuple(s.name for s in figure.series) == MISSION_FIGURE_SERIES
        danger = figure.series_named("danger level")
        assert [point.x for point in danger.points] == list(range(7))

    def test_truth_series_absent_without_ground_truth(self):
        from repro.experiments.mission import mission_figure

        spec = MissionSpec(trajectory=SCATTERS, t=2)
        result = run_mission(spec, with_truth=False)
        names = [s.name for s in mission_figure(result).series]
        assert "ground-truth cut" not in names

    def test_artifact_round_trips_through_diff(self, tmp_path):
        from repro.experiments.diff import diff_artefacts
        from repro.experiments.mission import write_mission_artifact

        spec = MissionSpec(trajectory=SCATTERS, t=2)
        result = run_mission(spec)
        a = write_mission_artifact(result, tmp_path / "a.json")
        b = write_mission_artifact(result, tmp_path / "b.json")
        assert not diff_artefacts(a, b).diverged


class TestMissionMemoAccessors:
    def test_cached_and_store(self):
        from repro.experiments.mission import (
            cached_mission_result,
            store_mission_result,
        )

        spec = MissionSpec(trajectory=SCATTERS, t=2)
        assert cached_mission_result(spec) is None
        result = run_mission(spec)
        store_mission_result(spec, result)
        assert cached_mission_result(spec) == result
        clear_mission_memo()
        assert cached_mission_result(spec) is None
