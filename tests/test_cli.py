"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.experiments.persistence import load_figure_record, spec_digest
from repro.experiments.spec import FIGURE_SPECS


class TestCheck:
    def test_safe_topology_exits_zero(self, capsys):
        code = main(["check", "--family", "harary", "--n", "12", "--k", "4", "--t", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NOT_PARTITIONABLE" in out
        assert "KB sent per node" in out

    def test_unsafe_topology_exits_one(self, capsys):
        code = main(["check", "--family", "harary", "--n", "12", "--k", "2", "--t", "3"])
        out = capsys.readouterr().out
        assert code == 1
        assert "PARTITIONABLE" in out

    def test_drone_check(self, capsys):
        code = main(
            ["check", "--drone", "--n", "12", "--distance", "6", "--radius", "1.2", "--t", "1"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "confirmed=True" in out

    def test_missing_topology_choice(self, capsys):
        code = main(["check", "--n", "10"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_ground_truth_printed(self, capsys):
        main(["check", "--family", "k-diamond", "--n", "16", "--k", "4", "--t", "1"])
        out = capsys.readouterr().out
        assert "Byzantine-partitionable" in out


class TestFigure:
    def test_fast_figure_renders(self, capsys):
        code = main(["figure", "ablation-rounds"])
        out = capsys.readouterr().out
        assert code == 0
        assert "rounds" in out
        assert "KB sent per node" in out

    def test_all_figures_registered(self):
        for name in (
            "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
            "topology-comparison", "connectivity-resilience",
        ):
            assert name in FIGURE_SPECS

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    def test_set_overrides_axis(self, capsys):
        code = main(["figure", "fig3", "--set", "ns=8,10", "--set", "ks=2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Nectar: k = 2" in out
        assert "k = 6" not in out

    def test_full_flag_selects_paper_scale(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        code = main(
            ["figure", "fig3", "--full", "--set", "ns=8,10", "--set", "ks=2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "paper-scale run" in out

    def test_full_noted_without_paper_preset(self, capsys):
        code = main(["figure", "ablation-sigsize", "--full", "--set", "n=10"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no paper-scale preset" in out

    def test_out_writes_figure_json(self, capsys, tmp_path):
        target = tmp_path / "sigsize.json"
        code = main(
            ["figure", "ablation-sigsize", "--set", "n=10", "--out", str(target)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert str(target) in out
        figure, spec = load_figure_record(target.read_text())
        assert figure.figure_id == "ablation-sigsize"
        assert spec["axes"]["n"] == 10

    def test_bad_set_syntax_reports_error(self, capsys):
        code = main(["figure", "fig3", "--set", "nonsense"])
        assert code == 2
        assert "AXIS=VALUE" in capsys.readouterr().err

    def test_unknown_axis_reports_error(self, capsys):
        code = main(["figure", "fig3", "--set", "bogus=1"])
        assert code == 2
        assert "unknown axis" in capsys.readouterr().err


class TestSweep:
    FAST = ["--set", "ns=8,10", "--set", "ks=2"]

    def test_sweep_runs_and_prints_digest(self, capsys):
        code = main(["sweep", "fig3", *self.FAST])
        out = capsys.readouterr().out
        assert code == 0
        assert "sweep : fig3 (reduced scale" in out
        assert "spec  : " in out
        assert "Nectar: k = 2" in out

    def test_out_directory_keys_by_spec_hash(self, capsys, tmp_path):
        code = main(["sweep", "fig3", *self.FAST, "--out", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        files = list(tmp_path.glob("fig3-*.json"))
        assert len(files) == 1
        figure, spec = load_figure_record(files[0].read_text())
        assert figure.figure_id == "fig3"
        # The file name embeds the digest of the embedded spec.
        assert files[0].name == f"fig3-{spec_digest(spec)[:12]}.json"

    def test_spec_file_round_trips_through_same_key(self, capsys, tmp_path):
        code = main(["sweep", "fig3", *self.FAST, "--out", str(tmp_path)])
        assert code == 0
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps({"figure": "fig3", "set": {"ns": [8, 10], "ks": [2]}})
        )
        code = main(["sweep", "--spec", str(spec_file), "--out", str(tmp_path)])
        assert code == 0
        capsys.readouterr()
        # Identical resolved spec -> identical hash -> one artefact.
        assert len(list(tmp_path.glob("fig3-*.json"))) == 1

    def test_different_axes_land_in_different_files(self, capsys, tmp_path):
        main(["sweep", "fig3", *self.FAST, "--out", str(tmp_path)])
        main(
            ["sweep", "fig3", "--set", "ns=8,12", "--set", "ks=2",
             "--out", str(tmp_path)]
        )
        capsys.readouterr()
        assert len(list(tmp_path.glob("fig3-*.json"))) == 2

    def test_workers_produce_identical_artefact(self, capsys, tmp_path):
        serial = tmp_path / "serial.json"
        sharded = tmp_path / "sharded.json"
        main(["sweep", "fig3", *self.FAST, "--out", str(serial)])
        main(
            ["sweep", "fig3", *self.FAST, "--workers", "2",
             "--out", str(sharded)]
        )
        capsys.readouterr()
        assert serial.read_text() == sharded.read_text()

    def test_hashed_seed_mode_changes_digest(self, capsys, tmp_path):
        main(["sweep", "fig3", *self.FAST, "--out", str(tmp_path)])
        main(
            ["sweep", "fig3", *self.FAST, "--seed-mode", "hashed",
             "--out", str(tmp_path)]
        )
        capsys.readouterr()
        assert len(list(tmp_path.glob("fig3-*.json"))) == 2

    def test_list_describes_registry(self, capsys):
        code = main(["sweep", "--list"])
        out = capsys.readouterr().out
        assert code == 0
        for figure_id in FIGURE_SPECS:
            assert figure_id in out
        assert "capabilities" in out

    def test_missing_name_and_spec_rejected(self, capsys):
        code = main(["sweep"])
        assert code == 2
        assert "figure id" in capsys.readouterr().err

    def test_conflicting_name_and_spec_rejected(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"figure": "fig4"}))
        code = main(["sweep", "fig3", "--spec", str(spec_file)])
        assert code == 2
        assert "conflicts" in capsys.readouterr().err

    def test_malformed_spec_file_rejected(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text("[1, 2, 3]")
        code = main(["sweep", "--spec", str(spec_file)])
        assert code == 2
        assert "figure" in capsys.readouterr().err

    def test_spec_file_with_non_string_figure_rejected(self, capsys, tmp_path):
        # A list here once raised TypeError (unhashable) in the lookup.
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"figure": ["fig3"]}))
        code = main(["sweep", "--spec", str(spec_file)])
        assert code == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_spec_file_with_unknown_keys_rejected(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"figure": "fig3", "sets": {"ns": [8]}}))
        code = main(["sweep", "--spec", str(spec_file)])
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_spec_file_with_non_object_set_rejected(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"figure": "fig3", "set": [1, 2]}))
        code = main(["sweep", "--spec", str(spec_file)])
        assert code == 2
        assert "axis overrides" in capsys.readouterr().err

    def test_spec_file_with_bad_base_seed_rejected(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({"figure": "fig3", "base_seed": "x"}))
        code = main(["sweep", "--spec", str(spec_file)])
        assert code == 2
        assert "base_seed" in capsys.readouterr().err

    def test_sequence_on_scalar_axis_reports_error(self, capsys):
        code = main(["sweep", "fig8", "--set", "n=11,13"])
        assert code == 2
        assert "single value" in capsys.readouterr().err

    def test_csv_export_writes_rows(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code = main(["sweep", "fig3", *self.FAST, "--csv", str(target)])
        out = capsys.readouterr().out
        assert code == 0
        assert str(target) in out
        lines = target.read_text().strip().splitlines()
        assert lines[0] == "figure_id,series,x,mean,ci_half_width,trials"
        assert len(lines) == 3  # header + ns=8,10 at k=2
        assert all(line.startswith("fig3,") for line in lines[1:])

    def test_env_axis_override_changes_artefact_key(self, capsys, tmp_path):
        main(["sweep", "fig3", *self.FAST, "--out", str(tmp_path)])
        code = main(
            ["sweep", "fig3", *self.FAST, "--set", "env.loss_rate=0.4",
             "--out", str(tmp_path)]
        )
        capsys.readouterr()
        assert code == 0
        files = list(tmp_path.glob("fig3-*.json"))
        assert len(files) == 2
        specs = [load_figure_record(f.read_text())[1] for f in files]
        assert any(s.get("env") == {"loss_rate": 0.4} for s in specs)
        assert any("env" not in s for s in specs)

    def test_env_axis_via_spec_file(self, capsys, tmp_path):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(
            json.dumps(
                {"figure": "fig3", "set": {"ns": [8], "ks": [2],
                                           "env.backend": "async"}}
            )
        )
        code = main(["sweep", "--spec", str(spec_file)])
        out = capsys.readouterr().out
        assert code == 0
        assert "Nectar: k = 2" in out

    def test_invalid_env_combination_reports_error(self, capsys):
        code = main(
            ["sweep", "fig3", *self.FAST, "--set", "env.backend=async",
             "--set", "env.loss_rate=0.4"]
        )
        assert code == 2
        assert "only modelled on the sync backend" in capsys.readouterr().err

    def test_unknown_env_axis_reports_error(self, capsys):
        code = main(["sweep", "fig3", *self.FAST, "--set", "env.latency=1"])
        assert code == 2
        assert "unknown environment axis" in capsys.readouterr().err

    def test_list_mentions_environment_axes(self, capsys):
        main(["sweep", "--list"])
        out = capsys.readouterr().out
        assert "env.loss_rate" in out
        assert "env.backend" in out


class TestDiff:
    FAST = ["--set", "ns=8,10", "--set", "ks=2"]

    def _artefacts(self, tmp_path, capsys):
        main(["sweep", "fig3", *self.FAST, "--out", str(tmp_path)])
        main(
            ["sweep", "fig3", *self.FAST, "--set", "env.loss_rate=0.4",
             "--out", str(tmp_path)]
        )
        capsys.readouterr()
        base, lossy = sorted(
            tmp_path.glob("fig3-*.json"),
            key=lambda p: "env" in json.loads(p.read_text())["spec"]["resolved"],
        )
        return base, lossy

    def test_identical_artefacts_exit_zero(self, capsys, tmp_path):
        base, _ = self._artefacts(tmp_path, capsys)
        code = main(["diff", str(base), str(base)])
        out = capsys.readouterr().out
        assert code == 0
        assert "identical: 2 rows match" in out

    def test_divergent_artefacts_exit_one_with_deltas(self, capsys, tmp_path):
        base, lossy = self._artefacts(tmp_path, capsys)
        code = main(["diff", str(base), str(lossy)])
        out = capsys.readouterr().out
        assert code == 1
        assert "DIVERGED: 2 of 2 rows differ" in out
        assert "spec digests differ" in out
        assert "mean" in out

    def test_tolerance_absorbs_small_deltas(self, capsys, tmp_path):
        base, lossy = self._artefacts(tmp_path, capsys)
        code = main(["diff", str(base), str(lossy), "--tolerance", "1000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "identical" in out

    def test_missing_artefact_reports_error(self, capsys, tmp_path):
        code = main(["diff", str(tmp_path / "nope.json"), str(tmp_path / "x.json")])
        assert code == 2
        assert "cannot read artefact" in capsys.readouterr().err


class TestFigureSpark:
    def test_sparklines_printed(self, capsys):
        code = main(["figure", "ablation-sigsize", "--spark"])
        out = capsys.readouterr().out
        assert code == 0
        assert any(glyph in out for glyph in "▁▂▃▄▅▆▇█")


class TestMap:
    def test_map_renders_with_verdict(self, capsys):
        code = main(["map", "--n", "14", "--distance", "6", "--radius", "1.2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "left scatter" in out
        assert "NECTAR (t=1):" in out
        assert "PARTITIONABLE" in out


class TestTopologies:
    def test_lists_every_family(self, capsys):
        code = main(["topologies", "--n", "24", "--k", "4"])
        out = capsys.readouterr().out
        assert code == 0
        for family in ("k-regular", "harary", "k-diamond", "generalized-wheel"):
            assert family in out

    def test_reports_unavailable_combinations(self, capsys):
        main(["topologies", "--n", "6", "--k", "6"])
        out = capsys.readouterr().out
        assert "unavailable" in out


class TestAttack:
    def test_attack_summary(self, capsys):
        code = main(["attack", "--n", "15", "--t", "2"])
        out = capsys.readouterr().out
        assert code == 0
        assert "NECTAR success rate: 100%" in out
        assert "MtG success rate   : 0%" in out

    def test_each_rate_names_its_own_attack(self, capsys):
        assert main(["attack", "--n", "13", "--t", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rates = [line for line in lines if "success rate" in line]
        assert [line.split()[0] for line in rates] == ["NECTAR", "MtGv2", "MtG"]
        assert "filter saturation" in rates[2]
        # Two-faced bridges attack NECTAR and MtGv2 only: no header or
        # MtG line may attribute them to MtG.
        two_faced = [line for line in lines if "two-faced" in line]
        assert two_faced == rates[:2]


class TestMalformedInput:
    """Bad input exits 2 with an ``error:`` line, never a traceback
    (``repro check`` keeps exit 1 for PARTITIONABLE alone)."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--drone", "--n", "1"], "at least 2 drones"),
            (["map", "--n", "1"], "at least 2 drones"),
            (["sweep", "fig4", "--set", "n=1"], "at least 2 drones"),
            (["sweep", "fig6", "--set", "trials=0"], "axis 'trials'"),
            (["figure", "fig8", "--set", "trials=0"], "axis 'trials'"),
            (["mission", "partition-detection", "--set", "trials=0"], "axis 'trials'"),
            (["sweep", "fig3", "--set", "ns="], "axis 'ns' takes numbers"),
            (["sweep", "fig3", "--set", "ns=8,x"], "axis 'ns' takes numbers"),
            (["sweep", "fig3", "--set", "ks=2.5"], "axis 'ks' takes integers"),
            (["sweep", "fig3", "--set", "ns=,"], "axis 'ns' needs at least one"),
            (["sweep", "fig3", "--set", "ns=-5"], "figure 'fig3'"),
            (["figure", "fig3", "--set", "ks=40"], "figure 'fig3'"),
        ],
        ids=[
            "check-one-drone",
            "map-one-drone",
            "sweep-one-drone",
            "sweep-zero-trials",
            "figure-zero-trials",
            "mission-zero-trials",
            "empty-numeric-axis",
            "non-numeric-axis-value",
            "non-integral-axis-value",
            "empty-axis-sequence",
            "sweep-without-cells",
            "figure-without-cells",
        ],
    )
    def test_exits_two_with_error_line(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert message in err


class TestParser:
    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestMissionStreamingFlags:
    """--events / --mission-out / --mission-spec on repro mission."""

    ARGS = [
        "mission",
        "partition-detection",
        "--set",
        "trials=2",
        "--set",
        "epochs=4",
        "--set",
        "drifts=1.0",
    ]

    def test_events_mission_out_and_spec(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        artefact = tmp_path / "mission.json"
        spec_path = tmp_path / "spec.json"
        code = main(
            self.ARGS
            + [
                "--events",
                str(events_path),
                "--mission-out",
                str(artefact),
                "--mission-spec",
                str(spec_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "events:" in out and "mission artefact:" in out

        from repro.experiments.mission import MissionSpec, mission_digest
        from repro.service.events import (
            MissionAccepted,
            MissionCompleted,
            read_event_log,
        )

        events = read_event_log(events_path)
        assert isinstance(events[0], MissionAccepted)
        assert isinstance(events[-1], MissionCompleted)
        assert events[0].label == "partition-detection"

        spec_payload = json.loads(spec_path.read_text())
        mission = MissionSpec.from_payload(spec_payload["mission"])
        # The spec file, the event stream and the artefact all name the
        # same mission.
        assert events[0].digest == mission_digest(mission)
        artefact_payload = json.loads(artefact.read_text())
        assert artefact_payload["figure_id"] == f"mission-{mission_digest(mission)[:12]}"

    def test_timeline_streams_epoch_lines(self, capsys):
        code = main(self.ARGS + ["--timeline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline:" in out
        assert out.count("epoch ") >= 4
        assert "emergence=" in out


class TestServeParser:
    def test_serve_is_registered(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--help"])
        out = capsys.readouterr().out
        assert "--socket" in out and "--queue-limit" in out and "--on-eof" in out
