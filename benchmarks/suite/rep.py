"""One benchmark repetition, in the fresh process :mod:`run` starts.

Usage: ``python rep.py REQUEST_JSON`` with ``PYTHONPATH`` naming the
repository's ``src``.  The request names the workload, seed, preset,
mode and a working directory; the last line of standard output is the
JSON report, or ``{"error": ...}`` with exit code 1.

Modes:

* ``timed``: the workload as users run it.  Reports ``setup_s``
  (``import repro`` + ``SWEEP_ENGINE.resolve`` + ``prepare``, from a
  clock read before the import), ``wall_s`` (the user-facing call,
  including any artifact warm-up inside it), peak RSS and the rows.
* ``setup``: set-up only.
* ``serial``: the workload in the traced run's serial shape, untraced.
* ``traced``: the serial shape with :mod:`tracer` installed around the
  user-facing call; adds the per-layer metrics.
* ``reference``: one seed-chosen row recomputed cell by cell in this
  process on the scalar paths (``REPRO_NO_NUMPY=1``), sharing no
  kernel, pool, queue, stream or memo with the measured run.

The program receives only the specs resolved here from the seed: seed 0
keeps each figure's registered seed policy (so its rows can be pinned),
any other seed re-derives every trial seed from it.
"""

import time

STARTED = time.perf_counter()  # read before ``repro`` is imported

import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import pickle  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from repro.experiments.artifacts import ARTIFACTS  # noqa: E402
from repro.experiments.mission import MissionSession, store_mission_result  # noqa: E402
from repro.experiments.parallel import parallel_map  # noqa: E402
from repro.experiments.spec import SWEEP_ENGINE, execute_trial  # noqa: E402
from repro.fabric.client import run_sweep_via_queue  # noqa: E402
from repro.fabric.queue import FabricQueue  # noqa: E402

import tracer as tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def resolve(workload: Workload, seed: int, smoke: bool):
    """The resolved sweep a repetition runs, derived from ``seed`` alone."""
    seeding = {"seed_mode": "hashed", "base_seed": seed} if seed else {}
    return SWEEP_ENGINE.resolve(
        workload.figure,
        scale="reduced" if smoke else "paper",
        overrides=dict(workload.smoke_overrides if smoke else workload.overrides),
        **seeding,
    )


def flat_rows(figure) -> list[list]:
    """The figure's rows: series, x, mean, CI half-width, trials."""
    return [
        [series.name, point.x, point.mean, point.ci_half_width, point.trials]
        for series in figure.series
        for point in series.points
    ]


def rows_digest(rows: list[list]) -> str:
    """The same digest as the ``rows_sha256`` of ``repro bench`` ledgers,
    computed here so the benchmark needs no private ``repro`` helper."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Window:
    """Times the user-facing call; traces it when given a tracer."""

    def __init__(self, tracer: "tracing.Tracer | None" = None) -> None:
        self.tracer = tracer
        self.wall_s = 0.0

    def __enter__(self) -> "Window":
        if self.tracer is not None:
            self.tracer.install(tracing.all_targets())
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._start
        if self.tracer is not None:
            self.tracer.uninstall()


def _run_sweep(workload, resolved, cells, serial, workdir, window) -> dict:
    with window:
        figure = SWEEP_ENGINE.run(resolved, workers=1 if serial else workload.workers)
    return {"figure": figure, "items": len(cells)}


def _run_stream(workload, resolved, cells, serial, workdir, window) -> dict:
    """Step every mission as ``--timeline`` and ``repro serve`` do, then
    let the sweep engine assemble the rows from the memo."""
    latencies: list[float] = []
    with window:
        flown = set()
        for cell in cells:
            mission = cell.mission
            if mission in flown:
                continue
            flown.add(mission)
            session = MissionSession(mission)
            while not session.done:
                start = time.perf_counter()
                session.step()
                latencies.append(time.perf_counter() - start)
            store_mission_result(mission, session.result())
        figure = SWEEP_ENGINE.run(resolved, workers=1)
    ordered = sorted(latencies)
    return {
        "figure": figure,
        "items": len(latencies),
        "epoch_ms_p50": 1000.0 * statistics.median(ordered),
        "epoch_ms_p90": 1000.0 * ordered[int(0.9 * len(ordered))],
    }


def _start_worker(queue_root: pathlib.Path) -> subprocess.Popen:
    """One ``repro fabric worker`` on the queue, returned once it polls."""
    worker = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "fabric", "worker",
            "--queue", str(queue_root), "--poll-ms", "20", "--idle-timeout", "120",
        ],
        stdout=subprocess.DEVNULL,
    )
    queue = FabricQueue(queue_root)
    deadline = time.monotonic() + 60
    while not queue.read_heartbeats():
        if worker.poll() is not None or time.monotonic() > deadline:
            worker.kill()
            worker.wait()
            raise RuntimeError("the fabric worker did not start")
        time.sleep(0.01)
    return worker


def _stop_worker(worker: subprocess.Popen) -> None:
    """SIGTERM is the worker's graceful drain; wait until it has exited."""
    worker.send_signal(signal.SIGTERM)
    try:
        worker.wait(timeout=30)
    except subprocess.TimeoutExpired:
        worker.kill()
        worker.wait()


def _run_queue(workload, resolved, cells, serial, workdir, window) -> dict:
    queue_root = workdir / "queue"
    worker = None if serial else _start_worker(queue_root)
    try:
        with window:
            run = run_sweep_via_queue(resolved, queue_root)
    finally:
        if worker is not None:
            _stop_worker(worker)
    queue_bytes = sum(p.stat().st_size for p in queue_root.rglob("*") if p.is_file())
    shutil.rmtree(queue_root, ignore_errors=True)
    return {
        "figure": run.figure,
        "items": len(cells),
        # a degraded or quarantining run did not do its job through the
        # queue: every cell of it counts as failed.
        "failed": len(cells) if run.degraded or run.quarantined else 0,
        "queue_bytes": queue_bytes,
        "queue_retries": run.retries,
    }


_ENTRIES = {"sweep": _run_sweep, "stream": _run_stream, "queue": _run_queue}


def _peak_rss_mb() -> float:
    """Peak RSS of this process or its largest waited-for child."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def _artifact_rates() -> dict[str, float]:
    stats = ARTIFACTS.stats.as_dict()
    rates = {}
    for store in ("topology", "deployment", "connectivity"):
        hits, misses = stats[store]["hits"], stats[store]["misses"]
        total = hits + misses
        rates[f"experiments.artifacts.{store}_hit_rate"] = hits / total if total else 0.0
    return rates


def _probe_cell(cell) -> float:
    """What the pool probe ships instead of a trial: no work at all."""
    return 0.0


def _colocation_key(cell):
    return getattr(cell, "colocation_key", None)


def _pool_probe(workload: Workload, cells: list) -> dict[str, float]:
    """The bare cost of ``parallel_map`` over this workload's cells."""
    start = time.perf_counter()
    parallel_map(_probe_cell, cells, workers=workload.workers, colocate=_colocation_key)
    pool_s = time.perf_counter() - start
    pickled = sum(len(pickle.dumps(cell)) + len(pickle.dumps(0.0)) for cell in cells)
    return {
        "experiments.parallel.pool_s": pool_s,
        "experiments.parallel.pickle_bytes": pickled,
    }


def _reference(workload: Workload, seed: int, smoke: bool) -> dict:
    # The scalar paths are what the vectorized kernels and the fast path
    # must reproduce byte for byte, so the reference runs on them.
    os.environ["REPRO_NO_NUMPY"] = "1"
    resolved = resolve(workload, seed, smoke)
    plan, cells = SWEEP_ENGINE.prepare(resolved)
    index = random.Random(f"reference|{seed}").randrange(len(plan.groups))
    offset = sum(len(group.cells) for group in plan.groups[:index])
    group = plan.groups[index]
    values = [execute_trial(cell) for cell in cells[offset : offset + len(group.cells)]]
    plan.groups[:] = [group]
    figure = SWEEP_ENGINE.assemble(plan, values)
    return {"series": group.series, "x": group.x, "rows": flat_rows(figure)}


def run_request(request: dict) -> dict:
    """Execute one repetition request and return its report."""
    workload = WORKLOADS[request["workload"]]
    seed, smoke, mode = request["seed"], request["smoke"], request["mode"]
    if mode == "reference":
        return _reference(workload, seed, smoke)
    resolved = resolve(workload, seed, smoke)
    _plan, cells = SWEEP_ENGINE.prepare(resolved)
    report: dict = {"setup_s": time.perf_counter() - STARTED}
    if mode == "setup":
        return report
    tracer = tracing.Tracer() if mode == "traced" else None
    window = Window(tracer)
    outcome = _ENTRIES[workload.entry](
        workload, resolved, cells, mode != "timed", pathlib.Path(request["workdir"]), window
    )
    rows = flat_rows(outcome.pop("figure"))
    report.update(outcome)
    report.update(
        wall_s=window.wall_s,
        peak_rss_mb=_peak_rss_mb(),
        rows=rows,
        digest=rows_digest(rows),
    )
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, window.wall_s)
        layers.update(_artifact_rates())
        layers["fabric.queue.bytes"] = outcome.get("queue_bytes", 0)
        layers["fabric.queue.retries"] = outcome.get("queue_retries", 0)
        if workload.workers > 1:
            layers.update(_pool_probe(workload, cells))
        report["layers"] = layers
        report["missing_targets"] = tracer.missing
    return report


def main() -> int:
    request = json.loads(sys.argv[1])
    try:
        report = run_request(request)
    except Exception:
        print(json.dumps({"error": traceback.format_exc()}))
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
