"""``repro bench``: headless perf scenarios and ``BENCH_*`` ledgers
(DESIGN.md §9.3).

The PR-1 speedups (verification cache, quiescence skip) and the PR-4
artifact layer all made claims like ">3× faster" — but only ever in
commit messages.  This module turns them into *data*: each registered
:class:`BenchScenario` runs one sweep twice under identical resolved
specs — artifact cache off, then on, both from a cold cache — and
records a JSON **perf ledger** (``BENCH_<scenario>.json``) with wall
times, the speedup, artifact-cache hit rates, a representative trial's
rounds/bytes, and the flat result rows plus their digest.

The ledger doubles as an equivalence witness and a regression tripwire:

* ``rows_equal`` proves the cached and uncached runs produced
  bit-identical figure rows (the ArtifactCache contract);
* ``rows_sha256`` is machine-independent (rows are deterministic), so
  :func:`compare_ledgers` can check a CI run against a committed
  baseline ledger byte-for-byte;
* ``speedup`` is a wall-clock *ratio*, which transfers across machines
  far better than absolute seconds — the comparison fails when it
  regresses by more than the tolerance (20% in CI) on scenarios that
  gate it.

Scenarios are ordinary registered sweeps (``FIGURE_SPECS``) resolved
with scenario-specific axis and ``env.*`` overrides; ``--smoke`` swaps
in smaller presets so CI can afford the run.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import pathlib
import time
from dataclasses import dataclass, field
from typing import Mapping

from repro import perf
from repro.errors import ExperimentError
from repro.experiments.artifacts import ARTIFACTS, clear_artifact_cache
from repro.experiments.diff import FigureDiff, diff_artefacts
from repro.experiments.mission import clear_mission_memo
from repro.experiments.report import FigureData
from repro.experiments.runner import baseline_cost_trial, nectar_cost_trial
from repro.experiments.spec import SWEEP_ENGINE, TrialSpec, _resolve_profile

#: schema marker embedded in every ledger.
BENCH_SCHEMA = "repro-bench/1"


@dataclass(frozen=True)
class BenchScenario:
    """One registered perf scenario: a sweep plus its two cache modes.

    Attributes:
        name: registry key; the ledger file is ``BENCH_<name>.json``.
        title: one-line description for listings.
        figure_id: the registered sweep the scenario runs.
        overrides: axis overrides at default bench scale.
        smoke_overrides: smaller presets for ``--smoke`` (CI).
        env: ``env.*`` field overrides (without the ``env.`` prefix and
            without ``artifacts``, which the harness toggles itself).
        gate_speedup: whether :func:`compare_ledgers` enforces the
            speedup ratio for this scenario.  Off for parity scenarios
            whose cache benefit is real but small enough to drown in
            scheduler noise — their ledgers still record the numbers.
    """

    name: str
    title: str
    figure_id: str
    overrides: Mapping[str, object] = field(default_factory=dict)
    smoke_overrides: Mapping[str, object] = field(default_factory=dict)
    env: Mapping[str, object] = field(default_factory=dict)
    gate_speedup: bool = True


#: scenario name -> scenario; the ``repro bench`` registry.
BENCH_SCENARIOS: dict[str, BenchScenario] = {
    scenario.name: scenario
    for scenario in (
        BenchScenario(
            name="rsa-keygen",
            title=(
                "keygen-heavy RSA sweep: fig3 cost grid under "
                "env.scheme=rsa-1024; signer key pools amortise "
                "Miller-Rabin keygen across every cell sharing (n, seed)"
            ),
            figure_id="fig3",
            overrides={"ns": (8, 10), "ks": (2, 3, 4, 5, 6)},
            smoke_overrides={"ns": (8,), "ks": (2, 3, 4, 5, 6)},
            env={"scheme": "rsa-1024"},
        ),
        BenchScenario(
            name="connectivity-resilience",
            title=(
                "Sec. V-D resilience sweep: interned split scenarios + "
                "connectivity certificates shared by the three protocol "
                "series of every cell group"
            ),
            figure_id="connectivity-resilience",
            overrides={},
            smoke_overrides={
                "families": ("k-regular", "k-diamond"),
                "n": 14,
                "k": 4,
                "ts": (2,),
                "trials": 2,
            },
        ),
        BenchScenario(
            name="topology-interning",
            title=(
                "Sec. V-C family comparison: interned topology "
                "construction (Steger-Wormald sampling et al.) behind "
                "the per-family cost trials"
            ),
            figure_id="topology-comparison",
            overrides={},
            smoke_overrides={
                "families": ("k-regular", "k-diamond"),
                "n": 14,
                "k": 4,
                "trials": 2,
            },
            gate_speedup=False,
        ),
        BenchScenario(
            name="partition-detection",
            title=(
                "mission-layer detection sweep under env.scheme=rsa-512: "
                "interned trajectories + per-mission key pools amortise "
                "keygen across every epoch (keys do not rotate mid-mission)"
            ),
            figure_id="partition-detection",
            overrides={},
            smoke_overrides={"trials": 2, "epochs": 5, "drifts": (1.0,)},
            env={"scheme": "rsa-512"},
        ),
    )
}


def _flat_rows(figure: FigureData) -> list[list]:
    """The figure's rows as plain JSON rows (series, x, mean, ci, trials)."""
    return [
        [series.name, point.x, point.mean, point.ci_half_width, point.trials]
        for series in figure.series
        for point in series.points
    ]


def _rows_digest(rows: list[list]) -> str:
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _probe_trial(cell: TrialSpec) -> dict | None:
    """Round/byte counters from one representative cost trial.

    The sweep executor collapses each cell to a scalar, so the ledger
    re-runs the first *cost* cell once through the trial runner to
    record rounds executed, traffic bytes and the verification-cache
    hit rate.  Adversarial scenarios return None — their cells expose
    no comparable cost counters.
    """
    if not isinstance(cell, TrialSpec):
        return None  # mission cells expose no single-trial counters
    if cell.adversary != "" or cell.protocol not in ("nectar", "mtg", "mtgv2"):
        return None
    graph = cell.topology.build()
    profile = _resolve_profile(cell.profile)
    if cell.protocol == "nectar":
        result = nectar_cost_trial(
            graph,
            profile=profile,
            rounds=cell.rounds or None,
            seed=cell.seed,
            env=cell.env,
        )
    else:
        result = baseline_cost_trial(
            graph,
            cell.protocol,
            profile=profile,
            rounds=cell.rounds or None,
            seed=cell.seed,
            env=cell.env,
        )
    return {
        "rounds": result.rounds,
        "rounds_executed": result.rounds_executed,
        "total_bytes_sent": result.stats.total_bytes_sent(),
        "mean_kb_sent": result.mean_kb_sent(),
        "verification_hit_rate": (
            result.cache_stats.hit_rate() if result.cache_stats else None
        ),
    }


@contextlib.contextmanager
def _scheduler_baseline():
    """Pin the baseline leg to the round scheduler.

    Sets :data:`repro.perf.SCHEDULER_SWITCH` for this process and the
    sharded sweep workers it starts, so the ledger's ``speedup``
    measures everything DESIGN.md §§9 and 15 add (the closed-form
    fast path + artifact reuse) against the seed behaviour.
    """
    previous = os.environ.get(perf.SCHEDULER_SWITCH)
    os.environ[perf.SCHEDULER_SWITCH] = "1"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[perf.SCHEDULER_SWITCH]
        else:
            os.environ[perf.SCHEDULER_SWITCH] = previous


def run_scenario(
    scenario: BenchScenario,
    smoke: bool = False,
    workers: int | None = None,
) -> dict:
    """Run one scenario (baseline, then accelerated) and return its ledger.

    Both runs resolve the same sweep at the same scale.  The
    ``artifacts_off`` leg runs with the artifact cache off *and* every
    trial on the round scheduler (the seed behaviour); the
    ``artifacts_on`` leg enables the artifact cache and lets eligible
    trials take the closed-form fast path.  Both start from a cold
    artifact cache, so the measured speedup is within-sweep
    amortisation plus the fast path — rows must still match exactly.
    """
    axis_overrides = dict(scenario.smoke_overrides if smoke else scenario.overrides)
    env_overrides = {f"env.{name}": value for name, value in scenario.env.items()}
    walls: dict[str, float] = {}
    rows: dict[str, list] = {}
    artifact_stats: dict | None = None
    cells = 0
    probe: dict | None = None
    for mode, artifacts in (("artifacts_off", False), ("artifacts_on", True)):
        overrides = {**axis_overrides, **env_overrides}
        if artifacts:
            overrides["env.artifacts"] = True
        resolved = SWEEP_ENGINE.resolve(
            scenario.figure_id, scale="reduced", overrides=overrides
        )
        clear_artifact_cache()
        # Mission scenarios memoise executed missions per process; a
        # fair cache-off-vs-on comparison flies them from cold twice.
        clear_mission_memo()
        runner = contextlib.nullcontext() if artifacts else _scheduler_baseline()
        with runner:
            started = time.perf_counter()
            figure = SWEEP_ENGINE.run(resolved, workers=workers)
            walls[mode] = time.perf_counter() - started
        rows[mode] = _flat_rows(figure)
        if artifacts:
            artifact_stats = ARTIFACTS.stats.as_dict()
            plan = SWEEP_ENGINE.plan(resolved)
            plan_cells = [cell for group in plan.groups for cell in group.cells]
            cells = len(plan_cells)
            if plan_cells:
                # Probe under the scenario's resolved environment (the
                # artifact cache is still warm, so this is cheap even
                # for keygen-heavy schemes).
                cell = plan_cells[0].with_env(resolved.env, resolved.env_fields)
                probe = _probe_trial(cell)
    clear_artifact_cache()
    rows_equal = rows["artifacts_off"] == rows["artifacts_on"]
    off, on = walls["artifacts_off"], walls["artifacts_on"]
    return {
        "schema": BENCH_SCHEMA,
        "scenario": scenario.name,
        "title": scenario.title,
        "figure": scenario.figure_id,
        "scale": "smoke" if smoke else "full",
        "workers": workers,
        "cells": cells,
        "wall_s": {"artifacts_off": off, "artifacts_on": on},
        "speedup": (off / on) if on > 0 else 0.0,
        "gate_speedup": scenario.gate_speedup,
        "rows_equal": rows_equal,
        "rows_sha256": _rows_digest(rows["artifacts_on"]),
        "rows": rows["artifacts_on"],
        "artifact_stats": artifact_stats,
        # Sharded cells report their worker's cache delta back to the
        # parent (DESIGN.md §10.3), so the counters cover the whole
        # process tree for any worker count.
        "artifact_stats_scope": "process-tree",
        # Whether the accelerated leg ran the closed-form fast path.
        "kernel": {"closed_form": not perf.scheduler_forced()},
        "probe": probe,
    }


def ledger_path(out_dir: str | pathlib.Path, scenario_name: str) -> pathlib.Path:
    """Where a scenario's ledger lives under ``out_dir``."""
    return pathlib.Path(out_dir) / f"BENCH_{scenario_name}.json"


def write_ledger(ledger: dict, out_dir: str | pathlib.Path) -> pathlib.Path:
    """Persist one ledger as pretty, key-sorted JSON."""
    path = ledger_path(out_dir, ledger["scenario"])
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(ledger, indent=2, sort_keys=True) + "\n")
    return path


def load_ledger(path: str | pathlib.Path) -> dict:
    """Read one ledger back, validating the schema marker.

    Raises:
        ExperimentError: on unreadable files or foreign schemas.
    """
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentError(f"cannot read bench ledger {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema") != BENCH_SCHEMA:
        raise ExperimentError(f"{path} is not a {BENCH_SCHEMA} ledger")
    return payload


#: below this baseline speedup the ratio is too noise-dominated to
#: gate — the comparison notes it instead of failing.
_GATE_FLOOR = 1.25


def compare_ledgers(
    baseline: dict, current: dict, tolerance: float = 0.2
) -> list[str]:
    """Regression check of a fresh ledger against a committed baseline.

    Returns a list of problems (empty = pass):

    * the result rows must match the baseline digest exactly — sweep
      rows are deterministic, so any drift is a real behaviour change;
    * the cached run must remain row-identical to the uncached run
      (the ArtifactCache equivalence contract);
    * on gated scenarios whose baseline speedup clears the noise floor,
      the speedup may not regress by more than ``tolerance``
      (relative).  Wall-clock seconds are never compared across
      ledgers — they do not transfer between machines.
    """
    if tolerance < 0:
        raise ExperimentError(f"tolerance cannot be negative, got {tolerance}")
    problems = []
    if baseline.get("scenario") != current.get("scenario"):
        problems.append(
            f"scenario mismatch: baseline {baseline.get('scenario')!r} "
            f"vs current {current.get('scenario')!r}"
        )
        return problems
    if baseline.get("scale") != current.get("scale"):
        problems.append(
            f"scale mismatch: baseline {baseline.get('scale')!r} vs "
            f"current {current.get('scale')!r} (compare like with like)"
        )
        return problems
    if not current.get("rows_equal", False):
        problems.append(
            "equivalence broken: cached and uncached rows differ in the "
            "current run"
        )
    if baseline.get("rows_sha256") != current.get("rows_sha256"):
        problems.append(
            f"rows diverged from baseline "
            f"({str(baseline.get('rows_sha256'))[:12]} vs "
            f"{str(current.get('rows_sha256'))[:12]})"
        )
    base_speedup = float(baseline.get("speedup", 0.0))
    cur_speedup = float(current.get("speedup", 0.0))
    if baseline.get("gate_speedup", True) and base_speedup >= _GATE_FLOOR:
        floor = base_speedup * (1.0 - tolerance)
        if cur_speedup < floor:
            problems.append(
                f"speedup regressed: {cur_speedup:.2f}x vs baseline "
                f"{base_speedup:.2f}x (floor {floor:.2f}x at "
                f"{tolerance:.0%} tolerance)"
            )
    return problems


#: speedup tolerance used for ledgers met inside directory diffs when
#: the caller's row tolerance is 0.0 (the figure-diff default): a
#: bit-identical-rows demand must not turn into a zero-noise demand on
#: wall-clock *ratios*, which would fail on scheduler jitter alone.
_DIRECTORY_SPEEDUP_TOLERANCE = 0.2


def ledger_file_diff(
    path_a: pathlib.Path, path_b: pathlib.Path, tolerance: float
) -> FigureDiff:
    """Per-file comparator for artefact directories holding ledgers.

    Dispatches on file content: bench ledgers go through
    :func:`compare_ledgers` (A as baseline), anything else through the
    figure-record comparison — which is what lets
    :func:`repro.experiments.diff.diff_artefact_directories` sweep a
    mixed ``benchmarks/out/`` directory in one pass.  Row digests are
    always compared exactly; the *speedup* gate uses ``tolerance``
    when positive and :data:`_DIRECTORY_SPEEDUP_TOLERANCE` otherwise.
    """
    sides = []
    for path in (path_a, path_b):
        try:
            sides.append(load_ledger(path))
        except ExperimentError:
            sides.append(None)
    baseline, current = sides
    if baseline is None and current is None:
        return diff_artefacts(path_a, path_b, tolerance=tolerance)
    diff = FigureDiff()
    if baseline is None or current is None:
        missing = path_a if baseline is None else path_b
        diff.problems.append(f"not a bench ledger on one side: {missing}")
        return diff
    speedup_tolerance = tolerance if tolerance > 0 else _DIRECTORY_SPEEDUP_TOLERANCE
    diff.problems.extend(
        compare_ledgers(baseline, current, tolerance=speedup_tolerance)
    )
    diff.rows_compared = len(current.get("rows", []))
    return diff


def describe_ledger(ledger: dict) -> str:
    """One human-readable summary line per ledger (CLI output)."""
    walls = ledger["wall_s"]
    stats = ledger.get("artifact_stats") or {}
    hit_rate = stats.get("hit_rate", 0.0)
    equal = "rows ok" if ledger.get("rows_equal") else "ROWS DIFFER"
    kernel = ledger.get("kernel") or {}
    mode = "closed-form" if kernel.get("closed_form") else "scheduler"
    return (
        f"{ledger['scenario']:<24} {walls['artifacts_off']:7.2f}s -> "
        f"{walls['artifacts_on']:7.2f}s  {ledger['speedup']:5.2f}x  "
        f"hit-rate {hit_rate:5.1%}  cells {ledger['cells']:<4d} {equal}  "
        f"{mode}"
    )


__all__ = [
    "BENCH_SCENARIOS",
    "BENCH_SCHEMA",
    "BenchScenario",
    "compare_ledgers",
    "describe_ledger",
    "ledger_file_diff",
    "ledger_path",
    "load_ledger",
    "run_scenario",
    "write_ledger",
]
