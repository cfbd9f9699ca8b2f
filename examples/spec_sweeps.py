"""Declarative sweeps: the ExperimentSpec API in three moves.

Every figure of the reproduction is a registered
:class:`~repro.experiments.spec.SweepSpec` — named axes with reduced-
and paper-scale presets, expanded into picklable
:class:`~repro.experiments.spec.TrialSpec` cells that one shared
executor shards over worker processes.  This example shows the three
ways to drive that machinery:

1. run a registered figure with axis overrides (what `repro sweep`
   does under the hood),
2. execute a hand-built :class:`TrialSpec` directly — one trial, no
   figure scaffolding,
3. fingerprint a resolved sweep with the spec hash that keys the
   persistence layer.

Run with::

    PYTHONPATH=src python examples/spec_sweeps.py
"""

from repro.experiments.parallel import parallel_map
from repro.experiments.persistence import spec_digest
from repro.experiments.spec import (
    FIGURE_SPECS,
    SWEEP_ENGINE,
    TopologySpec,
    TrialSpec,
    execute_trial,
    run_figure,
)

#: tiny axes so the example runs in seconds.
OVERRIDES = {"ns": (8, 10, 12), "ks": (2, 4)}


def run_registered_sweep():
    """Move 1: a registered figure, resolved and sharded by the engine."""
    figure = SWEEP_ENGINE.run("fig3", overrides=OVERRIDES, workers=2)
    return figure


def run_custom_trials():
    """Move 2: raw TrialSpecs through the shared cell executor.

    A custom experiment does not need a registered figure: build the
    specs, map them (serially here; pass ``workers=`` to shard), and
    keep the floats.
    """
    cells = [
        TrialSpec(
            topology=TopologySpec(kind="family", family="harary", n=n, k=4),
            protocol=protocol,
        )
        for n in (10, 14)
        for protocol in ("nectar", "mtgv2")
    ]
    costs = parallel_map(execute_trial, cells)
    return {
        (cell.topology.n, cell.protocol): cost
        for cell, cost in zip(cells, costs)
    }


def fingerprint_sweep():
    """Move 3: the stable spec hash behind hash-keyed persistence."""
    resolved = SWEEP_ENGINE.resolve("fig3", overrides=OVERRIDES)
    return resolved, spec_digest(resolved.payload())


def main() -> None:
    figure = run_registered_sweep()
    print(figure.render())
    print()
    costs = run_custom_trials()
    print("custom trial grid (KB sent per node):")
    for (n, protocol), cost in sorted(costs.items()):
        print(f"  n={n:<3} {protocol:<7} {cost:8.2f}")
    resolved, digest = fingerprint_sweep()
    print()
    print(f"registered sweeps : {len(FIGURE_SPECS)}")
    print(f"resolved fig3 axes: {dict(resolved.params)}")
    print(f"spec digest       : {digest[:16]}…")


# ----------------------------------------------------------------------
# Embedded checks (run by tests/test_examples.py)
# ----------------------------------------------------------------------
def test_sharded_sweep_matches_serial_run():
    sharded = run_registered_sweep()
    assert sharded == run_figure("fig3", overrides=OVERRIDES)


def test_custom_trials_ordered_and_positive():
    costs = run_custom_trials()
    assert len(costs) == 4
    assert all(cost > 0 for cost in costs.values())
    # NECTAR relays full topology evidence; MtGv2 gossips ids only.
    assert costs[(14, "nectar")] > costs[(14, "mtgv2")]


def test_digest_stability():
    _, first = fingerprint_sweep()
    _, second = fingerprint_sweep()
    assert first == second


if __name__ == "__main__":
    main()
