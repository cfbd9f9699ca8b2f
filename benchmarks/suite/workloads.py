"""The benchmark's workloads: one command users run each.

Topologies are paper scale (the ``--full`` values of n, t and k); only
the trials axis is cut, so one repetition takes 1.5-4 s and a run holds
enough repetitions for their median to ride out the bursts of slowness
of a shared machine.

This table imports nothing from ``repro``, so the orchestrator
(:mod:`run`) can read it without loading the program it measures; the
repetitions that execute it live in :mod:`rep`.  ``--smoke`` swaps in
a tiny preset of the same shape, never used for claims.  Why each
workload was chosen is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        command: the user command it reproduces.
        entry: ``sweep`` (``SWEEP_ENGINE.run``), ``queue``
            (``run_sweep_via_queue`` plus one ``repro fabric worker``)
            or ``stream`` (missions stepped epoch by epoch, then rows
            assembled from the memo).
        workers: local worker processes of the untraced run.  The
            traced run is serial (one worker, no fabric worker), so
            every span lands in one process.
    """

    name: str
    command: str
    figure: str
    entry: str
    overrides: dict = field(default_factory=dict)
    smoke_overrides: dict = field(default_factory=dict)
    workers: int = 1

    @property
    def serial(self) -> bool:
        """Whether the untraced run already is the traced run's shape."""
        return self.workers == 1 and self.entry != "queue"


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="cost-sharded",
            command="repro sweep fig6 --full --set trials=20 --workers 2",
            figure="fig6",
            entry="sweep",
            overrides={"trials": 20},
            smoke_overrides={"ns": (10, 20), "trials": 2},
            workers=2,
        ),
        Workload(
            name="cost-verified",
            command=(
                "repro figure fig3 --full --set env.validation=full "
                "--set ns=20,40,60 --set ks=2,10,18"
            ),
            figure="fig3",
            entry="sweep",
            overrides={"env.validation": "full", "ns": (20, 40, 60), "ks": (2, 10, 18)},
            smoke_overrides={"env.validation": "full", "ns": (10, 20), "ks": (2, 6)},
        ),
        Workload(
            name="attack-queue",
            command=(
                "repro sweep fig8 --full --set trials=20 --backend queue, "
                "plus one repro fabric worker"
            ),
            figure="fig8",
            entry="queue",
            overrides={"trials": 20},
            smoke_overrides={"ts": (0, 2), "trials": 2},
        ),
        Workload(
            name="mission-stream",
            command=(
                "repro mission detection-under-deception --full "
                "--set env.artifacts=true --set trials=3, stepped per epoch"
            ),
            figure="detection-under-deception",
            entry="stream",
            overrides={"env.artifacts": True, "trials": 3},
            smoke_overrides={
                "env.artifacts": True,
                "trials": 2,
                "drifts": (1.0,),
                "epochs": 5,
            },
        ),
    )
}
