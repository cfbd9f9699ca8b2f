"""Figure-diff: compare two archived figure artefacts row by row.

Spec-hash-keyed persistence (:mod:`repro.experiments.persistence`)
makes artefacts addressable; this module makes them *comparable* — the
``repro diff`` command answers "did this sweep change?" with per-row
deltas and a CI-friendly exit code (0 identical, 1 divergent).

The comparison walks the flat row view — ``(series, x)`` keyed points
— so re-ordered but value-identical artefacts do not diverge, and each
divergence names exactly the row and field that moved.  Embedded spec
digests are reported (they explain *why* rows differ) but do not by
themselves count as divergence: two different specs may legitimately
produce identical rows.

``repro diff`` also compares **whole artefact directories**
(:func:`diff_artefact_directories`): every ``*.json`` present on either
side is matched by file name and diffed as a figure record.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field

from repro.errors import ExperimentError
from repro.experiments.persistence import load_figure_record, spec_digest
from repro.experiments.report import FigureData, Point


@dataclass(frozen=True)
class RowDelta:
    """One divergent figure row.

    ``left`` / ``right`` is None when the row exists on one side only.
    """

    series: str
    x: float
    left: Point | None
    right: Point | None

    def describe(self) -> str:
        key = f"{self.series} @ x={self.x:g}"
        if self.left is None:
            assert self.right is not None
            return f"{key}: only in B (mean={self.right.mean:g})"
        if self.right is None:
            return f"{key}: only in A (mean={self.left.mean:g})"
        parts = []
        for attribute in ("mean", "ci_half_width", "trials"):
            a, b = getattr(self.left, attribute), getattr(self.right, attribute)
            if a != b:
                delta = b - a
                parts.append(f"{attribute} {a:g} -> {b:g} ({delta:+g})")
        return f"{key}: " + ", ".join(parts)


@dataclass
class FigureDiff:
    """The outcome of comparing two artefacts.

    ``deltas`` carries row-level figure divergences; ``problems``
    carries divergences that have no row, such as a directory entry
    that does not load as a figure record.  Either makes the diff
    count as diverged.
    """

    deltas: list[RowDelta] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    rows_compared: int = 0

    @property
    def diverged(self) -> bool:
        return bool(self.deltas or self.problems)

    def describe(self) -> str:
        lines = list(self.notes)
        for delta in self.deltas:
            lines.append(f"  {delta.describe()}")
        for problem in self.problems:
            lines.append(f"  {problem}")
        if self.deltas:
            lines.append(
                f"DIVERGED: {len(self.deltas)} of "
                f"{self.rows_compared} rows differ"
            )
        elif self.problems:
            lines.append(f"DIVERGED: {len(self.problems)} problem(s)")
        else:
            lines.append(f"identical: {self.rows_compared} rows match")
        return "\n".join(lines)


def _points_by_key(figure: FigureData) -> dict[tuple[str, float], Point]:
    rows: dict[tuple[str, float], Point] = {}
    for series in figure.series:
        for point in series.points:
            rows[(series.name, point.x)] = point
    return rows


def _points_equal(a: Point, b: Point, tolerance: float) -> bool:
    if a.trials != b.trials:
        return False
    return (
        abs(a.mean - b.mean) <= tolerance
        and abs(a.ci_half_width - b.ci_half_width) <= tolerance
    )


def diff_figures(
    left: FigureData,
    right: FigureData,
    left_spec: dict | None = None,
    right_spec: dict | None = None,
    tolerance: float = 0.0,
) -> FigureDiff:
    """Compare two figures row by row.

    Args:
        left, right: the figures (A and B of the CLI).
        left_spec, right_spec: their embedded resolved-sweep payloads,
            if any; digests are reported as context.
        tolerance: absolute slack on mean / CI comparisons (trials
            always compare exactly).  0.0 demands bit-identical rows —
            the right default for spec-hash-keyed artefacts, whose
            rows are pinned reproducible.
    """
    if tolerance < 0:
        raise ExperimentError(f"tolerance cannot be negative, got {tolerance}")
    diff = FigureDiff()
    if left.figure_id != right.figure_id:
        diff.notes.append(
            f"note: comparing different figure ids "
            f"({left.figure_id!r} vs {right.figure_id!r})"
        )
    if left_spec is not None and right_spec is not None:
        a, b = spec_digest(left_spec), spec_digest(right_spec)
        if a != b:
            diff.notes.append(f"note: spec digests differ ({a[:12]} vs {b[:12]})")
    rows_a = _points_by_key(left)
    rows_b = _points_by_key(right)
    diff.rows_compared = len(rows_a.keys() | rows_b.keys())
    for key in sorted(rows_a.keys() | rows_b.keys()):
        point_a, point_b = rows_a.get(key), rows_b.get(key)
        if point_a is None or point_b is None:
            diff.deltas.append(RowDelta(key[0], key[1], point_a, point_b))
        elif not _points_equal(point_a, point_b, tolerance):
            diff.deltas.append(RowDelta(key[0], key[1], point_a, point_b))
    return diff


def diff_artefacts(
    path_a: str | pathlib.Path,
    path_b: str | pathlib.Path,
    tolerance: float = 0.0,
) -> FigureDiff:
    """Compare two figure JSON files (the ``repro diff`` entry point).

    Raises:
        ExperimentError: on unreadable or malformed artefacts.
    """
    (left, left_spec), (right, right_spec) = map(_read_record, (path_a, path_b))
    return diff_figures(
        left, right, left_spec=left_spec, right_spec=right_spec, tolerance=tolerance
    )


def _read_record(path: str | pathlib.Path) -> tuple[FigureData, dict | None]:
    try:
        text = pathlib.Path(path).read_text()
    except OSError as exc:
        raise ExperimentError(f"cannot read artefact {path}: {exc}") from exc
    return load_figure_record(text)


# ----------------------------------------------------------------------
# Directory comparison
# ----------------------------------------------------------------------
@dataclass
class DirectoryDiff:
    """The outcome of comparing two artefact directories file by file.

    A file present on one side only is a divergence (a sweep that
    silently stopped producing an artefact is a regression, not a
    no-op).  A file that is foreign JSON on *both* sides is skipped
    with a note, so foreign files cannot fail a comparison they were
    never part of; one that loads as a figure on one side only, or is
    not JSON at all, is a divergence.
    """

    entries: list[tuple[str, FigureDiff]] = field(default_factory=list)
    missing_left: list[str] = field(default_factory=list)
    missing_right: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def files_compared(self) -> int:
        return len(self.entries)

    @property
    def diverged(self) -> bool:
        return (
            bool(self.missing_left)
            or bool(self.missing_right)
            or any(diff.diverged for _, diff in self.entries)
        )

    def describe(self) -> str:
        lines = []
        for name in self.missing_left:
            lines.append(f"{name}: only in B")
        for name in self.missing_right:
            lines.append(f"{name}: only in A")
        for name in self.skipped:
            lines.append(f"{name}: skipped (not a comparable artefact)")
        divergent = 0
        for name, diff in self.entries:
            if diff.diverged:
                divergent += 1
                lines.append(f"{name}:")
                lines.extend(f"  {line}" for line in diff.describe().splitlines())
        if self.diverged:
            missing = len(self.missing_left) + len(self.missing_right)
            lines.append(
                f"DIVERGED: {divergent} of {self.files_compared} artefacts "
                f"differ, {missing} missing"
            )
        else:
            lines.append(f"identical: {self.files_compared} artefacts match")
        return "\n".join(lines)


def diff_artefact_directories(
    dir_a: str | pathlib.Path,
    dir_b: str | pathlib.Path,
    tolerance: float = 0.0,
) -> DirectoryDiff:
    """Compare every ``*.json`` artefact of two directories by name.

    Args:
        dir_a, dir_b: the baseline and candidate directories.
        tolerance: forwarded to :func:`diff_figures`.

    A file is skipped with a note only when neither side loads as a
    figure record and both are at least well-formed JSON (a foreign
    artefact type).  Otherwise a side that does not load counts as a
    divergence naming that file: a truncated artefact, or one replaced
    by some other JSON, must fail the gate, not slip past it.

    Raises:
        ExperimentError: when either path is not a directory.
    """
    dir_a, dir_b = pathlib.Path(dir_a), pathlib.Path(dir_b)
    for directory in (dir_a, dir_b):
        if not directory.is_dir():
            raise ExperimentError(f"{directory} is not a directory")
    names_a = {path.name for path in dir_a.glob("*.json")}
    names_b = {path.name for path in dir_b.glob("*.json")}
    result = DirectoryDiff()
    result.missing_left = sorted(names_b - names_a)
    result.missing_right = sorted(names_a - names_b)
    for name in sorted(names_a & names_b):
        paths = (dir_a / name, dir_b / name)
        records, entry = [], FigureDiff()
        for path in paths:
            try:
                records.append(_read_record(path))
            except ExperimentError as exc:
                entry.problems.append(f"unreadable artefact {path}: {exc}")
        if not records and all(map(_is_well_formed_json, paths)):
            result.skipped.append(name)
            continue
        if not entry.problems:
            (left, left_spec), (right, right_spec) = records
            entry = diff_figures(
                left, right, left_spec, right_spec, tolerance=tolerance
            )
        result.entries.append((name, entry))
    return result


def _is_well_formed_json(path: pathlib.Path) -> bool:
    """Whether a file at least parses as JSON (foreign vs broken)."""
    try:
        json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return False
    return True


__all__ = [
    "DirectoryDiff",
    "FigureDiff",
    "RowDelta",
    "diff_artefact_directories",
    "diff_artefacts",
    "diff_figures",
]
