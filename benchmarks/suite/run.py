"""Run the benchmark: repeated untraced runs, or one traced layer run.

Usage (from the repository root)::

    python3 benchmarks/suite/run.py --workload cost-sharded --seed 1 --seconds 20 --trace 0
    python3 benchmarks/suite/run.py --workload cost-verified mission-stream --trace 1
    python3 benchmarks/suite/run.py --smoke                      # all workloads, tiny
    python3 benchmarks/suite/run.py --compare base.jsonl new.jsonl

Every repetition runs in a fresh child process (:mod:`rep`), one at a
time, so no workload has more than two busy processes: the child and
its one pool or fabric worker.  With several workloads, repetitions go
round-robin so machine drift hits each alike.

``--trace 0`` repeats each workload while its next repetition still
fits in ``--seconds`` (at least once), takes set-up samples until it
has five, and reports the medians of the end-to-end metrics named in
``BENCHMARK.json``.  ``--trace 1`` runs each workload as users run it,
in the serial shape (when that differs), and traced; it reports the
per-layer metrics.  Either way one seed-chosen row is recomputed by a
reference path and compared, every repetition's rows must be
identical, and with ``--seed 0`` they must equal the digest pinned in
``pinned.json``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when the run was not correct.

``--out FILE`` appends one JSON line per workload with every sample,
which ``--compare BASE NEW`` reads back.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

SUITE = pathlib.Path(__file__).resolve().parent
ROOT = SUITE.parent.parent
SRC = ROOT / "src"
WORK = SUITE / ".work"

#: set-up samples per workload and run (the median is reported).
SETUP_SAMPLES = 5
#: longest a single child may take before it is killed and counted failed.
CHILD_TIMEOUT_S = 170.0
#: the series whose every point the paper claims is 1.0 (Fig. 8).
NECTAR_SERIES = "Nectar (ours)"


class Failed(Exception):
    """A repetition that raised, timed out or printed no report."""


def load_definition() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict[str, str]:
    """The parent's environment minus every ``REPRO_*`` switch, so the
    program sees only the specs the benchmark generates."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(request: dict) -> dict:
    """Run one repetition in a fresh process group and return its report."""
    process = subprocess.Popen(
        [sys.executable, str(SUITE / "rep.py"), json.dumps(request)],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # The group holds the child's pool and fabric workers too.
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        raise Failed(f"{request['mode']} repetition timed out") from None
    lines = stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        report = {}
    if process.returncode != 0 or "error" in report or not report:
        raise Failed(report.get("error") or f"exit code {process.returncode}")
    return report


def summary(values: list[float]) -> dict:
    """Median, quartiles, extremes and count of one metric's samples."""
    ordered = sorted(values)
    if len(ordered) > 1:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    return {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "min": ordered[0],
        "max": ordered[-1],
        "n": len(ordered),
    }


class WorkloadRun:
    """Everything one workload's run collects, and its correctness."""

    def __init__(self, name: str, seed: int, smoke: bool, workdir: pathlib.Path):
        self.name = name
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.reports: dict[str, list[dict]] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.durations: list[float] = []

    def request(self, mode: str) -> dict | None:
        """One child in ``mode``; None (and a recorded failure) if it failed."""
        count = sum(len(reports) for reports in self.reports.values())
        started = time.monotonic()
        try:
            report = run_child(
                {
                    "workload": self.name,
                    "seed": self.seed,
                    "smoke": self.smoke,
                    "mode": mode,
                    "workdir": str(self.workdir / f"rep{count}"),
                }
            )
        except Failed as exc:
            self.problems.append(f"{mode}: {exc}")
            if mode not in ("setup", "reference"):
                items = [r["items"] for rs in self.reports.values() for r in rs if "items" in r]
                self.attempted += items[0] if items else 1
                self.failed += items[0] if items else 1
            return None
        if mode == "timed":
            self.durations.append(time.monotonic() - started)
        self.reports.setdefault(mode, []).append(report)
        if "items" in report:
            self.attempted += report["items"]
            self.failed += report.get("failed", 0)
        return report

    def samples(self, mode: str, key: str) -> list[float]:
        return [r[key] for r in self.reports.get(mode, []) if key in r]

    def check(self, pinned: dict) -> bool:
        """Rows identical across repetitions, equal to the reference row,
        pinned at seed 0, and NECTAR 100% accurate where it is scored."""
        measured = [r for mode in ("timed", "serial", "traced") for r in self.reports.get(mode, [])]
        digests = {r["digest"] for r in measured}
        if len(digests) > 1:
            self.problems.append(f"repetitions disagree on rows: {sorted(digests)}")
        if self.seed == 0 and measured:
            expected = pinned["smoke" if self.smoke else "full"].get(self.name)
            if measured[0]["digest"] != expected:
                self.problems.append(
                    f"rows digest {measured[0]['digest'][:12]} != pinned {str(expected)[:12]}"
                )
        for reference in self.reports.get("reference", []):
            for report in measured:
                row = [
                    r for r in report["rows"]
                    if r[0] == reference["series"] and r[1] == reference["x"]
                ]
                if row != reference["rows"]:
                    self.problems.append(
                        f"row ({reference['series']}, {reference['x']}) differs "
                        f"from its reference: {row} != {reference['rows']}"
                    )
                    break
        for report in measured:
            nectar = [r[2] for r in report["rows"] if r[0] == NECTAR_SERIES]
            if nectar and min(nectar) != 1.0:
                self.problems.append(f"NECTAR accuracy {min(nectar)} < 1.0")
                break
        if not measured or self.failed:
            self.problems.append(f"{self.failed} of {self.attempted} items failed")
        return not self.problems


def run_untraced(runs: list[WorkloadRun], seconds: float) -> None:
    """Round-robin repetitions while each workload's next one still fits."""
    active = list(runs)
    while active:
        for run in list(active):
            if run.durations and sum(run.durations) + statistics.mean(run.durations) > seconds:
                active.remove(run)
            elif run.request("timed") is None:
                active.remove(run)
    for run in runs:
        while len(run.samples("timed", "setup_s")) + len(run.samples("setup", "setup_s")) < SETUP_SAMPLES:
            if run.request("setup") is None:
                break
        run.request("reference")


def untraced_metrics(run: WorkloadRun) -> dict[str, dict]:
    samples = {
        "setup_s": run.samples("timed", "setup_s") + run.samples("setup", "setup_s"),
        "wall_s": run.samples("timed", "wall_s"),
        "peak_rss_mb": run.samples("timed", "peak_rss_mb"),
    }
    return {name: summary(values) for name, values in samples.items() if values}


def run_traced(runs: list[WorkloadRun]) -> None:
    for mode in ("timed", "serial", "traced", "reference"):
        for run in runs:
            if mode == "serial" and WORKLOADS[run.name].serial:
                continue
            run.request(mode)


def traced_metrics(run: WorkloadRun) -> dict[str, dict]:
    traced = run.reports.get("traced")
    timed = run.reports.get("timed")
    if not traced or not timed:
        return {}
    serial = (run.reports.get("serial") or timed)[0]
    layers = dict(traced[0]["layers"])
    layers["trace.overhead_ratio"] = traced[0]["wall_s"] / serial["wall_s"]
    layers["experiments.mission.epoch_ms_p50"] = serial.get("epoch_ms_p50", 0.0)
    layers["experiments.mission.epoch_ms_p90"] = serial.get("epoch_ms_p90", 0.0)
    pool_s = layers.setdefault("experiments.parallel.pool_s", 0.0)
    layers.setdefault("experiments.parallel.pickle_bytes", 0)
    layers["experiments.parallel.pool_share"] = pool_s / timed[0]["wall_s"]
    if traced[0]["missing_targets"]:
        print(f"# {run.name}: untraced targets {traced[0]['missing_targets']}")
    return {name: summary([value]) for name, value in layers.items()}


def measure(args, definition: dict) -> int:
    pinned = json.loads((SUITE / "pinned.json").read_text())
    declared = definition["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workdir = WORK / str(os.getpid())
    runs = [
        WorkloadRun(name, args.seed, args.smoke, workdir / name)
        for name in args.workload
    ]
    try:
        if args.trace:
            run_traced(runs)
        else:
            run_untraced(runs, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    several = len(runs) > 1
    metrics: dict[str, dict] = {}
    correct = True
    records = []
    for run in runs:
        summaries = traced_metrics(run) if args.trace else untraced_metrics(run)
        run_ok = run.check(pinned)
        for name in units:
            if name not in summaries:
                run_ok = False
                run.problems.append(f"metric {name} was not measured")
                continue
            s = summaries[name]
            key = f"{run.name}/{name}" if several else name
            metrics[key] = {"value": s["median"], "unit": units[name]}
            print(
                f"{run.name:<15} {name:<40} {s['median']:>14.6g} {units[name]:<6}"
                f" q1 {s['q1']:.6g} q3 {s['q3']:.6g} min {s['min']:.6g}"
                f" max {s['max']:.6g} n {s['n']}"
            )
        for problem in run.problems:
            print(f"# {run.name}: {problem}")
        correct = correct and run_ok
        records.append(
            {
                "workload": run.name,
                "seed": run.seed,
                "smoke": run.smoke,
                "trace": int(args.trace),
                "seconds": args.seconds,
                "correct": run_ok,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {name: summaries[name]["median"] for name in units if name in summaries},
                "samples": {
                    mode: [{k: v for k, v in r.items() if k != "rows"} for r in reports]
                    for mode, reports in run.reports.items()
                },
            }
        )
    if args.out:
        with open(args.out, "a") as out:
            for record in records:
                out.write(json.dumps(record, sort_keys=True) + "\n")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(1, sum(run.attempted for run in runs)),
                "failed": sum(run.failed for run in runs),
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


# ----------------------------------------------------------------------
# --compare
# ----------------------------------------------------------------------
def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """One comparison verdict for one workload x metric.

    ``unresolved`` when the base's own spread exceeds the bound, unless
    every new run beats every base run.  ``better`` needs the new side
    to win nine tenths of the pairs and its median to beat the base's
    by more than the base's interquartile range.
    """
    def beats(a: float, b: float) -> bool:
        return a < b if better == "lower" else a > b

    b, n = summary(base), summary(new)
    spread = b["q3"] - b["q1"]
    if all(beats(x, y) for x in new for y in base):
        return "better"
    if spread > bound * b["median"]:
        return "unresolved"
    worsening = (n["median"] - b["median"]) * (1 if better == "lower" else -1)
    if worsening > bound * b["median"]:
        return "worse beyond bound"
    pairs = list(zip(base, new))
    wins = sum(beats(y, x) for x, y in pairs)
    if pairs and wins >= 0.9 * len(pairs) and -worsening > spread:
        return "better"
    return "within bound"


def load_records(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in pathlib.Path(path).read_text().splitlines():
        record = json.loads(line)
        if not record["trace"]:
            by_workload.setdefault(record["workload"], []).append(record)
    return by_workload


def compare(base_path: str, new_path: str, definition: dict) -> int:
    base, new = load_records(base_path), load_records(new_path)
    worse = False
    for workload in sorted(set(base) & set(new)):
        for metric in definition["end_to_end"]:
            name = metric["name"]
            b = [r["metrics"][name] for r in base[workload] if name in r["metrics"]]
            n = [r["metrics"][name] for r in new[workload] if name in r["metrics"]]
            if not b or not n:
                continue
            sb, sn = summary(b), summary(n)
            result = verdict(b, n, metric["better"], metric["bound"])
            worse = worse or result == "worse beyond bound"
            print(
                f"{workload:<15} {name:<12} base {sb['median']:.6g} "
                f"[{sb['q1']:.6g}, {sb['q3']:.6g}] n={sb['n']}  new {sn['median']:.6g} "
                f"[{sn['q1']:.6g}, {sn['q3']:.6g}] n={sn['n']}  "
                f"bound {metric['bound']:.0%}: {result}"
            )
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", nargs="+", choices=sorted(WORKLOADS), default=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny presets, never for claims")
    parser.add_argument("--out", help="append per-workload JSON records (with samples)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)
    if not (ROOT / "BENCHMARK.json").is_file() or not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    definition = load_definition()
    if args.compare:
        return compare(*args.compare, definition)
    if args.seconds is None:
        args.seconds = definition["run_seconds"]
    return measure(args, definition)


if __name__ == "__main__":
    sys.exit(main())
