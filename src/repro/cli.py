"""Command-line interface.

The subcommands cover the everyday uses of the library::

    python -m repro check --family harary --n 20 --k 4 --t 1
    python -m repro check --drone --n 20 --distance 3.0 --radius 1.8 --t 2
    python -m repro figure fig8 --full --out out/
    python -m repro sweep fig3 --set n=40 --set ks=2,4,6 --workers 4
    python -m repro sweep fig3 --set env.loss_rate=0.4 --csv rows.csv
    python -m repro sweep fig3 --set env.artifacts=true --artifact-store benchmarks/out/
    python -m repro mission partition-detection --set drifts=0.5,1.0 --timeline
    python -m repro mission mtg-vs-nectar-detection --set env.bandwidth=2 --set env.channel=budgeted
    python -m repro mission detection-under-deception --events out/events.jsonl --mission-out out/mission.json
    python -m repro serve --events out/serve.jsonl < submit-lines.ndjson
    python -m repro sweep fig3 --backend queue --queue /shared/q
    python -m repro fabric worker --queue /shared/q --once
    python -m repro fabric status --queue /shared/q
    python -m repro diff out/fig3-abc.json out/fig3-def.json
    python -m repro diff out-baseline/ out-candidate/
    python -m repro topologies --n 24 --k 4
    python -m repro attack --n 21 --t 2

``check`` answers the operational question — is this deployment safe
against t Byzantine nodes? — with NECTAR's verdict and the run's
cost.  ``figure`` regenerates one paper artefact.  ``sweep`` runs any
registered figure with declarative axis overrides (``--set``) or a
JSON spec file, persisting results keyed by a stable spec hash;
``--set env.<field>=value`` addresses the environment layer (channel
model, backend, validation, signature scheme, artifact cache —
DESIGN.md §8-9) on every sweep.  ``mission`` runs the
detection-over-time scenarios of the mission layer (DESIGN.md §10) —
the same declarative sweep machinery, plus an optional per-epoch
verdict timeline (``--timeline`` streams, ``--events`` logs the typed
event schema shared with the daemon).  ``serve`` boots the long-lived
fleet daemon (DESIGN.md §12): missions submitted as NDJSON lines are
multiplexed on one event loop and streamed back as typed epoch
events, bit-identical to their batch runs.  ``sweep --backend queue``
runs the same sweep through the distributed fabric (DESIGN.md §13): a
durable filesystem work queue shared with ``fabric worker``
processes, resumable after any interruption and row-identical to the
local path; ``fabric status`` inspects it.  ``diff`` compares two
archived artefacts row by row — or two whole artefact directories —
with exit 1 on divergence.  ``topologies`` describes every built-in
family.  ``attack`` replays the Fig. 8 scenario once and prints who
got fooled.

Both ``figure`` and ``sweep`` are thin shells over the declarative
spec registry (:data:`repro.experiments.spec.FIGURE_SPECS`): every
figure id resolves to a :class:`~repro.experiments.spec.SweepSpec`
whose capabilities — worker sharding, paper-scale presets, wire
profiles — are data, not function-signature sniffing.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
from typing import Sequence

from repro.errors import ExperimentError, ReproError
from repro.experiments.diff import diff_artefact_directories, diff_artefacts
from repro.experiments.persistence import (
    dump_figure_csv,
    dump_figure_json,
    save_figure,
    spec_digest,
)
from repro.experiments.artifacts import ARTIFACTS
from repro.experiments.mission import (
    MISSION_FIGURES,
    EpochReport,
    MissionSession,
    MissionSpec,
    cached_mission_result,
    mission_digest,
    mission_result,
    store_mission_result,
    write_mission_artifact,
)
from repro.experiments.report import FigureData
from repro.experiments.runner import run_trial
from repro.experiments.scenarios import TOPOLOGY_FAMILIES, build_topology
from repro.experiments.spec import (
    FIGURE_SPECS,
    SWEEP_ENGINE,
    ResolvedSweep,
    attack_rates,
    environment_axis_names,
)
from repro.fabric import (
    FabricQueue,
    QUEUE_ENV,
    QueueUnreachable,
    job_id_of,
    run_sweep_via_queue,
    run_worker,
)
from repro.graphs.analysis import summarize
from repro.graphs.generators.drone import drone_graph
from repro.types import Decision


def _worker_count(value: str) -> int:
    count = int(value)
    if count < 0:
        raise argparse.ArgumentTypeError(
            f"worker count cannot be negative, got {count}"
        )
    return count


def _add_sweep_options(parser: argparse.ArgumentParser) -> None:
    """Options shared by the ``figure`` and ``sweep`` commands."""
    parser.add_argument(
        "--full",
        action="store_true",
        help="run at the paper's scale (same as REPRO_FULL=1)",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="AXIS=VALUE",
        help=(
            "override one sweep axis, e.g. --set n=40 --set ks=2,4,6; "
            "repeatable (comma-separated values become sequences). "
            "env.<field> axes address the environment layer on every "
            "sweep, e.g. --set env.loss_rate=0.4 --set env.backend=async"
        ),
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        help=(
            "persist the FigureData JSON; a directory (or trailing /) "
            "stores a spec-hash-keyed file, anything else is the exact "
            "output path"
        ),
    )
    parser.add_argument(
        "--csv",
        metavar="PATH",
        help="also export the rows as flat CSV (one row per series point)",
    )
    parser.add_argument(
        "--workers",
        type=_worker_count,
        default=None,
        metavar="N",
        help=(
            "shard sweep trials over N worker processes; 0 means one per "
            "CPU (default: the REPRO_WORKERS env var, else serial). "
            "Results are identical for any worker count."
        ),
    )
    parser.add_argument(
        "--artifact-store",
        metavar="DIR",
        help=(
            "opt-in on-disk artifact cache (DESIGN.md §9): load/save one "
            "snapshot per resolved spec under DIR (conventionally "
            "benchmarks/out/). Only consulted when cells enable "
            "env.artifacts, e.g. --set env.artifacts=true."
        ),
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NECTAR: Byzantine-resilient partition detection (ICDCS 2024)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    check = commands.add_parser(
        "check", help="run NECTAR on a topology and print the verdict"
    )
    check.add_argument(
        "--family",
        choices=sorted(TOPOLOGY_FAMILIES),
        help="built-in topology family (see `topologies`)",
    )
    check.add_argument("--drone", action="store_true", help="drone scenario instead")
    check.add_argument("--n", type=int, required=True, help="number of nodes")
    check.add_argument("--k", type=int, default=4, help="connectivity parameter")
    check.add_argument("--t", type=int, default=1, help="Byzantine budget")
    check.add_argument("--distance", type=float, default=0.0, help="drone barycenter distance")
    check.add_argument("--radius", type=float, default=1.8, help="drone radio range")
    check.add_argument("--seed", type=int, default=0)

    figure = commands.add_parser("figure", help="regenerate one paper artefact")
    figure.add_argument("name", choices=sorted(FIGURE_SPECS))
    figure.add_argument(
        "--spark", action="store_true", help="also print unicode sparklines"
    )
    _add_sweep_options(figure)

    sweep = commands.add_parser(
        "sweep",
        help="run a registered sweep with axis overrides or a JSON spec file",
    )
    sweep.add_argument(
        "name",
        nargs="?",
        choices=sorted(FIGURE_SPECS),
        help="figure id (omit when using --spec or --list)",
    )
    sweep.add_argument(
        "--spec",
        metavar="FILE",
        help=(
            'JSON spec file: {"figure": id, "scale": "reduced"|"paper", '
            '"set": {axis: value, ...}, "seed_mode": "index"|"hashed", '
            '"base_seed": int}'
        ),
    )
    sweep.add_argument(
        "--list", action="store_true", help="list registered sweeps and exit"
    )
    sweep.add_argument(
        "--seed-mode",
        choices=("index", "hashed"),
        default=None,
        help=(
            "per-trial seed policy: index (trial number, the pinned "
            "default) or hashed (independent seeds via trial_seeds)"
        ),
    )
    sweep.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="base seed for --seed-mode hashed (default 0)",
    )
    sweep.add_argument(
        "--backend",
        choices=("local", "queue"),
        default="local",
        help=(
            "execution backend: local (in-process, default) or queue "
            "(the durable fabric queue, DESIGN.md §13 — resumable, "
            "shared with repro fabric worker processes)"
        ),
    )
    sweep.add_argument(
        "--queue",
        metavar="DIR",
        default=None,
        help=(
            "fabric queue directory for --backend queue (default: the "
            f"{QUEUE_ENV} env var)"
        ),
    )
    sweep.add_argument(
        "--no-work",
        action="store_true",
        help=(
            "queue backend only: submit, wait and collect without "
            "claiming shards locally — leave every shard to the worker "
            "fleet (pure-coordinator mode, used by the chaos CI job)"
        ),
    )
    _add_sweep_options(sweep)

    mission = commands.add_parser(
        "mission",
        help=(
            "run a detection-over-time mission scenario (DESIGN.md §10): "
            "a sweep over evolving-topology missions, with an optional "
            "per-epoch verdict timeline"
        ),
    )
    mission.add_argument(
        "name",
        nargs="?",
        choices=sorted(MISSION_FIGURES),
        help="mission scenario id (omit with --list)",
    )
    mission.add_argument(
        "--list", action="store_true", help="list mission scenarios and exit"
    )
    mission.add_argument(
        "--timeline",
        action="store_true",
        help=(
            "also replay the first cell's mission serially and print its "
            "per-epoch verdict stream"
        ),
    )
    mission.add_argument(
        "--seed-mode",
        choices=("index", "hashed"),
        default=None,
        help="per-trial seed policy (mission scenarios default to hashed)",
    )
    mission.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="base seed for --seed-mode hashed (default 0)",
    )
    mission.add_argument(
        "--events",
        metavar="PATH",
        help=(
            "write the first cell's mission as a JSONL event log "
            "(the same schema repro serve streams)"
        ),
    )
    mission.add_argument(
        "--mission-out",
        metavar="PATH",
        help=(
            "write the first cell's mission verdict-stream artefact "
            "(repro diff-able against a serve-produced one)"
        ),
    )
    mission.add_argument(
        "--mission-spec",
        metavar="PATH",
        help=(
            "write the first cell's mission spec as JSON (the payload a "
            "repro serve submit line takes)"
        ),
    )
    _add_sweep_options(mission)

    serve = commands.add_parser(
        "serve",
        help=(
            "long-lived fleet daemon (DESIGN.md §12): submit missions and "
            "stream their epochs as NDJSON events over stdio or a unix "
            "socket"
        ),
    )
    serve.add_argument(
        "--socket",
        metavar="PATH",
        help="listen on a unix socket instead of speaking NDJSON on stdio",
    )
    serve.add_argument(
        "--tick-ms",
        type=float,
        default=0.0,
        metavar="MS",
        help="epoch cadence: sleep MS milliseconds after each tick (default 0)",
    )
    serve.add_argument(
        "--max-concurrency",
        type=int,
        default=8,
        metavar="N",
        help="missions stepped per tick (default 8)",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        metavar="N",
        help=(
            "per-subscription event-queue bound; slow consumers shed "
            "events past it (default 256, 0 = unbounded)"
        ),
    )
    serve.add_argument(
        "--scheduler-seed",
        type=int,
        default=0,
        metavar="SEED",
        help="tick-window shuffle seed (interleaving is reproducible per seed)",
    )
    serve.add_argument(
        "--events",
        metavar="PATH",
        help="also append every event to a JSONL log (never sheds)",
    )
    serve.add_argument(
        "--on-eof",
        choices=("drain", "stop"),
        default="drain",
        help=(
            "stdio mode: on stdin EOF, finish in-flight missions (drain, "
            "the default) or shut down immediately (stop)"
        ),
    )

    fabric = commands.add_parser(
        "fabric",
        help=(
            "distributed sweep fabric (DESIGN.md §13): run a worker "
            "against a queue directory, or inspect its jobs"
        ),
    )
    fabric_commands = fabric.add_subparsers(dest="fabric_command", required=True)
    fabric_worker = fabric_commands.add_parser(
        "worker",
        help=(
            "claim and execute shards from the queue until drained "
            "(scale-out = start more of these; killing one is safe)"
        ),
    )
    fabric_worker.add_argument(
        "--queue",
        metavar="DIR",
        default=None,
        help=f"queue directory (default: the {QUEUE_ENV} env var)",
    )
    fabric_worker.add_argument(
        "--worker-id",
        metavar="ID",
        default=None,
        help="lease/journal identity (default: host+pid derived)",
    )
    fabric_worker.add_argument(
        "--once",
        action="store_true",
        help="exit after one pass finds nothing claimable (CI drain mode)",
    )
    fabric_worker.add_argument(
        "--poll-ms",
        type=float,
        default=200.0,
        metavar="MS",
        help="idle poll interval in milliseconds (default 200)",
    )
    fabric_worker.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after this many seconds without claiming anything",
    )
    fabric_worker.add_argument(
        "--max-shards",
        type=int,
        default=None,
        metavar="N",
        help="stop after executing N shards (bounded-worker test mode)",
    )
    fabric_supervise = fabric_commands.add_parser(
        "supervise",
        help=(
            "spawn and supervise a fleet of worker subprocesses: "
            "heartbeat watching, restart with backoff, crash-loop "
            "detection, graceful drain on SIGTERM/^C (DESIGN.md §14.4)"
        ),
    )
    fabric_supervise.add_argument(
        "--queue",
        metavar="DIR",
        default=None,
        help=f"queue directory (default: the {QUEUE_ENV} env var)",
    )
    fabric_supervise.add_argument(
        "--workers",
        type=int,
        default=2,
        metavar="N",
        help="worker subprocesses to keep alive (default 2)",
    )
    fabric_supervise.add_argument(
        "--max-restarts",
        type=int,
        default=None,
        metavar="N",
        help=(
            "restarts per worker slot before declaring a crash-loop "
            "and leaving it down (default 5)"
        ),
    )
    fabric_supervise.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill a live worker whose heartbeat is older (default 60)",
    )
    fabric_supervise.add_argument(
        "--drain",
        action="store_true",
        help=(
            "exit once every job in the queue is complete (CI mode); "
            "without it the supervisor runs until signalled"
        ),
    )
    fabric_supervise.add_argument(
        "--worker-idle-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="pass --idle-timeout through to each spawned worker",
    )
    fabric_status = fabric_commands.add_parser(
        "status",
        help="print per-job shard progress for a queue directory",
    )
    fabric_status.add_argument(
        "job",
        nargs="?",
        default=None,
        help="job id to inspect (default: every job in the queue)",
    )
    fabric_status.add_argument(
        "--queue",
        metavar="DIR",
        default=None,
        help=f"queue directory (default: the {QUEUE_ENV} env var)",
    )
    fabric_status.add_argument(
        "--json",
        action="store_true",
        help=(
            "machine-readable output: per-job shard/stale/quarantine "
            "counters plus worker heartbeats and supervisor state"
        ),
    )

    diff = commands.add_parser(
        "diff",
        help=(
            "compare two archived artefacts, or two whole artefact "
            "directories, row by row (exit 1 on divergence)"
        ),
    )
    diff.add_argument(
        "artefact_a", metavar="A", help="baseline figure JSON (or directory)"
    )
    diff.add_argument(
        "artefact_b", metavar="B", help="candidate figure JSON (or directory)"
    )
    diff.add_argument(
        "--tolerance",
        type=float,
        default=0.0,
        metavar="EPS",
        help=(
            "absolute slack on mean/CI comparisons (default 0.0: "
            "bit-identical rows)"
        ),
    )

    drone_map = commands.add_parser(
        "map", help="render a drone deployment as an ASCII map"
    )
    drone_map.add_argument("--n", type=int, default=20)
    drone_map.add_argument("--distance", type=float, default=3.0)
    drone_map.add_argument("--radius", type=float, default=1.2)
    drone_map.add_argument("--seed", type=int, default=0)

    topologies = commands.add_parser(
        "topologies", help="describe every built-in topology family"
    )
    topologies.add_argument("--n", type=int, default=24)
    topologies.add_argument("--k", type=int, default=4)

    attack = commands.add_parser(
        "attack", help="replay the Fig. 8 bridge attack once"
    )
    attack.add_argument("--n", type=int, default=21)
    attack.add_argument("--t", type=int, default=2)
    attack.add_argument("--seed", type=int, default=0)
    return parser


def _run_check(args: argparse.Namespace) -> int:
    if args.drone:
        graph = drone_graph(args.n, args.distance, args.radius, seed=args.seed)
        label = f"drone(n={args.n}, d={args.distance}, radius={args.radius})"
    elif args.family:
        graph = build_topology(args.family, args.n, args.k, seed=args.seed)
        label = f"{args.family}(n={args.n}, k={args.k})"
    else:
        print("error: pass --family or --drone")
        return 2
    result = run_trial(graph, t=args.t, seed=args.seed)
    verdict = result.verdicts[0]
    truth = result.ground_truth
    print(f"topology : {label}  [{summarize(graph).describe()}]")
    print(f"verdict  : {verdict.decision} (confirmed={verdict.confirmed})")
    print(f"evidence : reachable={verdict.reachable}/{graph.n}, κ(view)={verdict.connectivity}")
    print(f"truth    : κ={truth.connectivity}, {args.t}-Byzantine-partitionable={truth.byzantine_partitionable}")
    print(f"cost     : {result.mean_kb_sent():.1f} KB sent per node")
    return 0 if verdict.decision is Decision.NOT_PARTITIONABLE else 1


# ----------------------------------------------------------------------
# figure / sweep: the declarative path
# ----------------------------------------------------------------------
def _parse_scalar(text: str):
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_axis_value(text: str):
    """Parse one ``--set`` value into scalars (comma means sequence).

    Type shaping and checking — wrapping bare scalars for sequence
    axes, floating ints on float axes, rejecting non-numbers on numeric
    axes — happens in ``SweepEngine.resolve``, so text input, library
    overrides and JSON spec files all canonicalise to the same resolved
    params (and the same spec digest).
    """
    if "," in text:
        return tuple(
            _parse_scalar(item) for item in text.split(",") if item != ""
        )
    return _parse_scalar(text)


def _parse_overrides(entries: Sequence[str]) -> dict:
    overrides = {}
    for entry in entries:
        name, separator, text = entry.partition("=")
        if not separator:
            raise ExperimentError(
                f"--set expects AXIS=VALUE, got {entry!r}"
            )
        overrides[name] = _parse_axis_value(text)
    return overrides


def _persist(
    figure: FigureData,
    resolved: ResolvedSweep,
    out: str,
    metadata: dict | None = None,
) -> pathlib.Path:
    """Write the figure JSON per the --out convention."""
    target = pathlib.Path(out)
    if out.endswith(("/", "\\")) or target.is_dir():
        return save_figure(figure, target, spec=resolved.payload(), metadata=metadata)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        dump_figure_json(figure, spec=resolved.payload(), metadata=metadata)
    )
    return target


def _artifact_metadata() -> dict | None:
    """Artifact-cache stats of the finished run, if the cache saw use.

    Printed on the human output and embedded as artefact JSON metadata
    (DESIGN.md §9-10).  Under sharding the counters cover the whole
    process tree — workers report their deltas back per cell.
    """
    stats = ARTIFACTS.stats
    if stats.total() == 0 and stats.key_pool_bypasses == 0:
        return None
    return {"artifact_stats": stats.as_dict()}


def _report_artifacts() -> dict | None:
    """Print the one-line artifact summary; return the JSON metadata."""
    metadata = _artifact_metadata()
    if metadata is not None:
        print(f"cache : {ARTIFACTS.stats.describe()}")
    return metadata


def _persist_csv(figure: FigureData, out: str) -> pathlib.Path:
    """Write the flat CSV rows per the --csv option."""
    target = pathlib.Path(out)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(dump_figure_csv(figure))
    return target


def _render_figure(figure: FigureData, spark: bool = False) -> None:
    print(figure.render())
    if spark:
        from repro.viz import figure_sparklines

        print()
        print(figure_sparklines(figure))


def _run_figure(args: argparse.Namespace) -> int:
    spec = FIGURE_SPECS[args.name]
    if args.full and "paper-scale" not in spec.capabilities:
        print(f"note: {args.name} has no paper-scale preset; standard parameters")
    resolved = SWEEP_ENGINE.resolve(
        spec,
        scale="paper" if args.full else "auto",
        overrides=_parse_overrides(args.overrides),
    )
    figure = SWEEP_ENGINE.run(
        resolved, workers=args.workers, artifact_store=args.artifact_store
    )
    _render_figure(figure, spark=args.spark)
    metadata = _report_artifacts()
    if args.out:
        print(f"saved: {_persist(figure, resolved, args.out, metadata=metadata)}")
    if args.csv:
        print(f"csv  : {_persist_csv(figure, args.csv)}")
    return 0


_SPEC_FILE_KEYS = frozenset({"figure", "scale", "set", "seed_mode", "base_seed"})


def _load_spec_file(path: str) -> dict:
    try:
        payload = json.loads(pathlib.Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ExperimentError(f"cannot read spec file {path}: {exc}")
    if not isinstance(payload, dict) or "figure" not in payload:
        raise ExperimentError(
            f'spec file {path} must be a JSON object with a "figure" key'
        )
    if payload["figure"] not in FIGURE_SPECS:
        raise ExperimentError(
            f"spec file {path}: unknown figure {payload['figure']!r}; "
            f"known: {sorted(FIGURE_SPECS)}"
        )
    unknown = set(payload) - _SPEC_FILE_KEYS
    if unknown:
        raise ExperimentError(
            f"spec file {path}: unknown keys {sorted(unknown)}; "
            f"allowed: {sorted(_SPEC_FILE_KEYS)}"
        )
    if "set" in payload and not isinstance(payload["set"], dict):
        raise ExperimentError(
            f'spec file {path}: "set" must be an object of axis overrides'
        )
    if "base_seed" in payload and not isinstance(payload["base_seed"], int):
        raise ExperimentError(f'spec file {path}: "base_seed" must be an integer')
    return payload


def _list_sweeps() -> int:
    print("registered sweeps (repro sweep <id> --set axis=value ...):")
    for figure_id in sorted(FIGURE_SPECS):
        spec = FIGURE_SPECS[figure_id]
        axes = " ".join(axis.name for axis in spec.axes)
        capabilities = ",".join(sorted(spec.capabilities))
        print(f"  {figure_id:<24} {spec.title}")
        print(f"  {'':<24} axes: {axes}  capabilities: {capabilities}")
    print(
        "environment axes (valid on every sweep): "
        + " ".join(environment_axis_names())
    )
    return 0


def _print_fabric_interrupt(queue_root, resolved: ResolvedSweep) -> None:
    """The resumability hint behind ^C on a queue-backed sweep."""
    job_id = job_id_of(resolved)
    line = f"interrupted: fabric job {job_id}"
    try:
        status = FabricQueue(queue_root).status(job_id)
    except ExperimentError:
        status = None
    if status is not None:
        line += f" — {status.completed}/{status.total} shard(s) complete"
    print()
    print(line)
    print("rerun the same command to resume; completed shards are kept")


def _run_sweep(args: argparse.Namespace) -> int:
    if args.list:
        return _list_sweeps()
    file_payload: dict = {}
    if args.spec:
        file_payload = _load_spec_file(args.spec)
    name = args.name or file_payload.get("figure")
    if name is None:
        print("error: pass a figure id, --spec FILE, or --list")
        return 2
    if args.spec and args.name and args.name != file_payload["figure"]:
        print(
            f"error: figure id {args.name!r} conflicts with spec file "
            f"({file_payload['figure']!r})"
        )
        return 2
    overrides = dict(file_payload.get("set") or {})
    overrides.update(_parse_overrides(args.overrides))
    if args.full:
        scale = "paper"
    else:
        scale = file_payload.get("scale", "auto")
    seed_mode = args.seed_mode or file_payload.get("seed_mode")
    base_seed = (
        args.base_seed
        if args.base_seed is not None
        else int(file_payload.get("base_seed", 0))
    )
    resolved = SWEEP_ENGINE.resolve(
        name,
        scale=scale,
        overrides=overrides,
        seed_mode=seed_mode,
        base_seed=base_seed,
    )
    print(f"sweep : {name} ({resolved.scale} scale, seeds={resolved.seed_mode})")
    print(f"spec  : {spec_digest(resolved.payload())[:12]}")
    fabric_stats: dict | None = None
    if args.backend == "queue":
        queue_root = args.queue or os.environ.get(QUEUE_ENV)
        if not queue_root:
            raise ExperimentError(
                "--backend queue needs a queue directory: pass --queue DIR "
                f"or set {QUEUE_ENV}"
            )
        if args.workers:
            print(
                "note  : --workers is a local-backend option; queue "
                "parallelism comes from repro fabric worker processes"
            )
        try:
            run = run_sweep_via_queue(
                resolved,
                queue_root,
                artifact_store=args.artifact_store,
                work=not args.no_work,
            )
        except QueueUnreachable as exc:
            # The headline degraded-mode contract: an unreachable queue
            # must never fail a sweep the local path could run (§13.4).
            print(f"warning: queue unreachable ({exc})")
            print("warning: degrading to local serial execution")
            figure = SWEEP_ENGINE.run(
                resolved, workers=args.workers, artifact_store=args.artifact_store
            )
        except KeyboardInterrupt:
            _print_fabric_interrupt(queue_root, resolved)
            return 130
        else:
            print(run.describe())
            figure = run.figure
            fabric_stats = run.stats_payload()
    else:
        try:
            figure = SWEEP_ENGINE.run(
                resolved, workers=args.workers, artifact_store=args.artifact_store
            )
        except KeyboardInterrupt:
            print()
            print(
                "interrupted: local-backend progress is lost; rerun with "
                "--backend queue --queue DIR for a resumable sweep"
            )
            return 130
    _render_figure(figure)
    metadata = _report_artifacts()
    if fabric_stats is not None:
        # Degradation accounting rides in the artefact: retries,
        # quarantines and lease breaks a run absorbed are part of its
        # provenance (DESIGN.md §14), never silent.
        metadata = {**(metadata or {}), "fabric": fabric_stats}
    if args.out:
        print(f"saved: {_persist(figure, resolved, args.out, metadata=metadata)}")
    if args.csv:
        print(f"csv  : {_persist_csv(figure, args.csv)}")
    return 0


def _list_missions() -> int:
    print("mission scenarios (repro mission <id> --set axis=value ...):")
    for figure_id in sorted(MISSION_FIGURES):
        spec = FIGURE_SPECS[figure_id]
        axes = " ".join(axis.name for axis in spec.axes)
        print(f"  {figure_id:<26} {spec.title}")
        print(f"  {'':<26} axes: {axes}")
    print(
        "environment axes (valid on every mission): "
        + " ".join(environment_axis_names())
    )
    return 0


def _first_mission(resolved: ResolvedSweep) -> MissionSpec:
    """The first cell's mission of a resolved mission sweep."""
    _plan, cells = SWEEP_ENGINE.prepare(resolved)
    return cells[0].mission


def _print_epoch_line(report: EpochReport) -> None:
    verdict = report.verdict
    decision = getattr(verdict, "decision", verdict)
    confirmed = getattr(verdict, "confirmed", False)
    label = f"{decision}" + (" (confirmed)" if confirmed else "")
    truth = "cut " if report.partitionable else "safe"
    marker = " !" if report.escalated else "  "
    # flush per line: a long mission shows progress live, the way a
    # service subscription would, instead of buffering to the end.
    print(
        f"  epoch {report.epoch:>3}{marker} {label:<32} truth={truth} "
        f"{report.mean_kb_sent:8.1f} KB/node",
        flush=True,
    )


def _print_timeline(mission: MissionSpec) -> None:
    """Stream the first cell's mission, one epoch line per epoch."""
    print(
        f"timeline: {mission.protocol} mission, seed={mission.seed}, "
        f"{mission.trajectory.length} epochs "
        f"(trajectory: {mission.trajectory.kind}, n={mission.trajectory.n})"
    )
    adversary = getattr(mission, "adversary", None)
    if adversary is not None:
        print(
            f"  adversary: {adversary.count}x {adversary.profile} "
            f"({adversary.placement} placement, seed={adversary.seed})"
        )
    result = cached_mission_result(mission)
    if result is not None:
        # A serial sweep already memoised this mission: replay is free.
        for report in result.reports:
            _print_epoch_line(report)
    else:
        # Sharded sweeps memoised it in a worker that is gone: fly it
        # once more, serially, flushing each epoch as it lands.
        session = MissionSession(mission)
        while not session.done:
            _print_epoch_line(session.step())
        result = session.result()
        store_mission_result(mission, result)
    print(
        f"  -> emergence={result.emergence_epoch} "
        f"detection={result.detection_epoch} "
        f"latency={result.detection_latency:g} "
        f"false-alarms={result.false_alarm_rate:.0%}"
    )


def _run_mission_cmd(args: argparse.Namespace) -> int:
    if args.list:
        return _list_missions()
    if args.name is None:
        print("error: pass a mission scenario id or --list")
        return 2
    resolved = SWEEP_ENGINE.resolve(
        args.name,
        scale="paper" if args.full else "auto",
        overrides=_parse_overrides(args.overrides),
        seed_mode=args.seed_mode,
        base_seed=args.base_seed if args.base_seed is not None else 0,
    )
    print(f"mission : {args.name} ({resolved.scale} scale, seeds={resolved.seed_mode})")
    print(f"spec    : {spec_digest(resolved.payload())[:12]}")
    figure = SWEEP_ENGINE.run(
        resolved, workers=args.workers, artifact_store=args.artifact_store
    )
    _render_figure(figure)
    metadata = _report_artifacts()
    if args.timeline or args.events or args.mission_out or args.mission_spec:
        mission = _first_mission(resolved)
        if args.timeline:
            _print_timeline(mission)
        if args.mission_spec:
            spec_path = pathlib.Path(args.mission_spec)
            spec_path.parent.mkdir(parents=True, exist_ok=True)
            spec_path.write_text(
                json.dumps({"mission": mission.payload()}, indent=2, sort_keys=True)
                + "\n"
            )
            print(f"mission spec: {spec_path}")
        if args.events or args.mission_out:
            result = mission_result(mission)  # memoised if the timeline ran
            if args.events:
                from repro.service.events import EventLog, mission_events

                mission_id = f"mission-{mission_digest(mission)[:12]}"
                events = mission_events(mission_id, result, label=args.name)
                with EventLog(args.events) as log:
                    for event in events:
                        log.emit(event)
                print(f"events: {args.events} ({len(events)} events)")
            if args.mission_out:
                print(
                    f"mission artefact: "
                    f"{write_mission_artifact(result, args.mission_out)}"
                )
    if args.out:
        print(f"saved: {_persist(figure, resolved, args.out, metadata=metadata)}")
    if args.csv:
        print(f"csv  : {_persist_csv(figure, args.csv)}")
    return 0


def _run_diff(args: argparse.Namespace) -> int:
    path_a, path_b = pathlib.Path(args.artefact_a), pathlib.Path(args.artefact_b)
    print(f"diff : {args.artefact_a} vs {args.artefact_b}")
    if path_a.is_dir() and path_b.is_dir():
        diff = diff_artefact_directories(path_a, path_b, tolerance=args.tolerance)
    elif path_a.is_dir() or path_b.is_dir():
        print("error: compare two files or two directories, not a mix")
        return 2
    else:
        diff = diff_artefacts(path_a, path_b, tolerance=args.tolerance)
    print(diff.describe())
    return 1 if diff.diverged else 0


def _run_map(args: argparse.Namespace) -> int:
    from repro.graphs.generators.drone import drone_deployment
    from repro.viz import drone_map

    deployment = drone_deployment(
        args.n, args.distance, args.radius, seed=args.seed
    )
    print(drone_map(deployment))
    result = run_trial(deployment.graph, t=1, seed=args.seed)
    verdict = result.verdicts[0]
    print(
        f"NECTAR (t=1): {verdict.decision} "
        f"(confirmed={verdict.confirmed}, κ={result.ground_truth.connectivity})"
    )
    return 0


def _run_topologies(args: argparse.Namespace) -> int:
    print(f"built-in families at n={args.n}, k={args.k}:")
    for name in sorted(TOPOLOGY_FAMILIES):
        try:
            graph = build_topology(name, args.n, args.k)
        except Exception as exc:  # noqa: BLE001 - report, keep listing
            print(f"  {name:<20} unavailable: {exc}")
            continue
        print(f"  {name:<20} {summarize(graph).describe()}")
    return 0


def _run_attack(args: argparse.Namespace) -> int:
    rates = attack_rates(args.n, args.t, radius=1.2, seed=args.seed)
    print(
        f"bridge attack: n={args.n}, t={args.t} two-faced bridges "
        f"between two islands"
    )
    print(f"NECTAR success rate: {rates['nectar']:.0%}")
    print(f"MtGv2 success rate : {rates['mtgv2']:.0%}")
    print(f"MtG success rate   : {rates['mtg']:.0%}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal as signal_module

    from repro.service import EventLog, FleetService
    from repro.service.protocol import serve_socket, serve_stdio

    event_log = EventLog(args.events) if args.events else None
    service = FleetService(
        tick_interval=args.tick_ms / 1000.0,
        max_concurrency=args.max_concurrency,
        queue_limit=args.queue_limit,
        seed=args.scheduler_seed,
        event_log=event_log,
    )

    # A signal landing between the banner and the event loop wiring its
    # own handlers must still mean drain, not the default hard kill:
    # record it here, honour it the moment the loop is up.
    early_stop = {"requested": False}

    def _early_signal(_signum, _frame):
        early_stop["requested"] = True

    previous_handlers = {}
    for signum in (signal_module.SIGINT, signal_module.SIGTERM):
        try:
            previous_handlers[signum] = signal_module.signal(
                signum, _early_signal
            )
        except (ValueError, OSError):
            pass  # non-main thread / unsupported signal

    async def _main() -> bool:
        # Graceful drain (DESIGN.md §14.5): SIGINT/^C and SIGTERM stop
        # the request loop, let the in-flight epoch finish, and cancel
        # queued missions with MissionCancelled events — no default
        # KeyboardInterrupt unwinding through half-written output.
        loop = asyncio.get_running_loop()
        stop_event = asyncio.Event()
        wired = []
        for signum in (signal_module.SIGINT, signal_module.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop_event.set)
                wired.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # no-signal platform/thread: ^C stays abrupt
        if early_stop["requested"]:
            stop_event.set()
        try:
            if args.socket:
                await serve_socket(service, args.socket, stop_event=stop_event)
            else:
                await serve_stdio(
                    service, on_eof=args.on_eof, stop_event=stop_event
                )
        finally:
            for signum in wired:
                loop.remove_signal_handler(signum)
        return stop_event.is_set()

    try:
        if args.socket:
            # stdout stays free in socket mode; the banner helps humans
            # find the endpoint either way, so it goes to stderr.
            print(f"serve: listening on {args.socket}", file=sys.stderr)
        else:
            print(
                "serve: NDJSON on stdio "
                f"(on EOF: {args.on_eof}; events: {args.events or 'off'})",
                file=sys.stderr,
            )
        interrupted = asyncio.run(_main()) or early_stop["requested"]
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal_module.signal(signum, handler)
            except (ValueError, OSError):
                pass
        if event_log is not None:
            event_log.close()
    if interrupted:
        print(
            "interrupted: drained gracefully — in-flight epochs finished, "
            "queued missions cancelled (MissionCancelled events emitted)",
            file=sys.stderr,
        )
        print(
            "resume by resubmitting unfinished missions"
            + (f"; the event log {args.events} records how far each got"
               if args.events else ""),
            file=sys.stderr,
        )
        return 130
    return 0


def _run_fabric(args: argparse.Namespace) -> int:
    import signal as signal_module

    queue_root = args.queue or os.environ.get(QUEUE_ENV)
    if not queue_root:
        raise ExperimentError(
            f"pass --queue DIR or set {QUEUE_ENV} to name the queue directory"
        )
    if args.fabric_command == "worker":
        # SIGTERM = graceful drain: finish the in-flight shard, publish,
        # exit — so a supervisor (or orchestrator) stopping the fleet
        # never strands a lease on a half-done shard.
        drain_requested = {"stop": False}

        def _request_drain(*_args) -> None:
            drain_requested["stop"] = True

        previous = signal_module.signal(signal_module.SIGTERM, _request_drain)
        try:
            stats = run_worker(
                queue_root,
                worker_id=args.worker_id,
                once=args.once,
                poll=args.poll_ms / 1000.0,
                idle_timeout=args.idle_timeout,
                max_shards=args.max_shards,
                stop=lambda: drain_requested["stop"],
            )
        finally:
            signal_module.signal(signal_module.SIGTERM, previous)
        print(stats.describe())
        return 0
    if args.fabric_command == "supervise":
        from repro.fabric.supervisor import (
            DEFAULT_HEARTBEAT_TIMEOUT,
            DEFAULT_MAX_RESTARTS,
            run_supervisor,
        )

        report = run_supervisor(
            queue_root,
            workers=args.workers,
            max_restarts=(
                args.max_restarts
                if args.max_restarts is not None
                else DEFAULT_MAX_RESTARTS
            ),
            heartbeat_timeout=(
                args.heartbeat_timeout
                if args.heartbeat_timeout is not None
                else DEFAULT_HEARTBEAT_TIMEOUT
            ),
            drain=args.drain,
            worker_idle_timeout=args.worker_idle_timeout,
        )
        print(report.describe())
        if report.interrupted:
            print("rerun the same command to resume; the queue is durable")
            return 130
        return 1 if report.crash_loops else 0
    queue = FabricQueue(queue_root)
    queue.connect(create=False)
    if getattr(args, "json", False):
        payload = queue.status_payload()
        if args.job is not None:
            job = payload["jobs"].get(args.job)
            if job is None:
                print(f"error: no job {args.job!r} in {queue_root}")
                return 2
            payload["jobs"] = {args.job: job}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.job is not None:
        status = queue.status(args.job)
        if status is None:
            print(f"error: no job {args.job!r} in {queue_root}")
            return 2
        print(f"queue : {queue.root}")
        print(f"  {status.describe()}")
        return 0
    print(queue.describe())
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "check": _run_check,
        "figure": _run_figure,
        "sweep": _run_sweep,
        "mission": _run_mission_cmd,
        "serve": _run_serve,
        "fabric": _run_fabric,
        "diff": _run_diff,
        "map": _run_map,
        "topologies": _run_topologies,
        "attack": _run_attack,
    }
    try:
        return handlers[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}")
        return 2
