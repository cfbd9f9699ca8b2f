"""Tests for comparing whole artefact directories (``repro diff A/ B/``)."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.errors import ExperimentError
from repro.experiments.diff import diff_artefact_directories
from repro.experiments.persistence import dump_figure_json
from repro.experiments.report import FigureData


class TestDirectoryDiff:
    def _write_figure(self, directory, name, mean):
        figure = FigureData(
            figure_id="fig3", title="t", x_label="n", y_label="kb"
        )
        figure.series_named("s").add(1.0, [mean])
        directory.mkdir(parents=True, exist_ok=True)
        (directory / name).write_text(dump_figure_json(figure))

    def test_identical_directories(self, tmp_path):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        self._write_figure(tmp_path / "b", "fig3.json", 1.0)
        diff = diff_artefact_directories(tmp_path / "a", tmp_path / "b")
        assert not diff.diverged
        assert diff.files_compared == 1

    def test_row_divergence_detected(self, tmp_path):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        self._write_figure(tmp_path / "b", "fig3.json", 2.0)
        diff = diff_artefact_directories(tmp_path / "a", tmp_path / "b")
        assert diff.diverged
        assert "DIVERGED" in diff.describe()

    def test_missing_files_diverge(self, tmp_path):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        self._write_figure(tmp_path / "a", "only-a.json", 1.0)
        self._write_figure(tmp_path / "b", "fig3.json", 1.0)
        diff = diff_artefact_directories(tmp_path / "a", tmp_path / "b")
        assert diff.diverged
        assert diff.missing_right == ["only-a.json"]

    def test_truncated_artefact_counts_as_divergence(self, tmp_path):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        (tmp_path / "b").mkdir()
        (tmp_path / "b" / "fig3.json").write_text('{"schema": 1, "figure_id"')
        diff = diff_artefact_directories(tmp_path / "a", tmp_path / "b")
        assert diff.diverged
        assert "unreadable artefact" in diff.describe()
        assert diff.skipped == []

    def test_foreign_json_skipped_not_failed(self, tmp_path):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        self._write_figure(tmp_path / "b", "fig3.json", 1.0)
        (tmp_path / "a" / "notes.json").write_text('{"foo": 1}')
        (tmp_path / "b" / "notes.json").write_text('{"foo": 2}')
        diff = diff_artefact_directories(tmp_path / "a", tmp_path / "b")
        assert not diff.diverged
        assert diff.skipped == ["notes.json"]

    @pytest.mark.parametrize(
        "foreign", ["[]", '{"schema": 99, "figure_id": "fig3"}']
    )
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_figure_on_one_side_only_diverges(self, tmp_path, foreign, side):
        """Well-formed JSON that is not a figure, facing a figure, is a
        divergence naming the file that did not load, not a skip."""
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        self._write_figure(tmp_path / "b", "fig3.json", 1.0)
        (tmp_path / side / "fig3.json").write_text(foreign)
        diff = diff_artefact_directories(tmp_path / "a", tmp_path / "b")
        assert diff.diverged
        assert diff.skipped == []
        assert str(tmp_path / side / "fig3.json") in diff.describe()
        assert main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 1

    def test_file_path_rejected(self, tmp_path):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        with pytest.raises(ExperimentError):
            diff_artefact_directories(tmp_path / "a" / "fig3.json", tmp_path / "a")

    def test_diff_cli_on_directories(self, tmp_path, capsys):
        self._write_figure(tmp_path / "a", "fig3.json", 1.0)
        self._write_figure(tmp_path / "b", "fig3.json", 1.0)
        assert main(["diff", str(tmp_path / "a"), str(tmp_path / "b")]) == 0
        assert "identical: 1 artefacts match" in capsys.readouterr().out
        # a file against a directory is a usage error
        figure_file = tmp_path / "a" / "fig3.json"
        assert main(["diff", str(tmp_path / "a"), str(figure_file)]) == 2
