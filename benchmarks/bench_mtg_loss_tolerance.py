"""Sec. VI-A related-work claim — MtG under unreliable channels.

"Simulations revealed that MtG detects 90% of partitions despite a
40% message loss rate" (summarising Bouget et al. [6]).  Loss never
masks a real partition in MtG (missing parts stay missing from the
filters); what loss threatens is the *converse* decision — on a
connected network, dropped filters can leave ids unlearned and raise
false partition alarms.  We therefore measure decision accuracy on
both scenario types and report the combined rate, comparing MtG's
loss-tolerant periodic-resend schedule with the change-driven
schedule responsible for its flat cost curve (our Figs. 4-7 default):
retransmission is exactly what buys the 90%-at-40%-loss behaviour.
"""

from repro.baselines.mtg import MtgNode
from repro.experiments.envspec import EnvironmentSpec
from repro.experiments.report import FigureData
from repro.experiments.runner import NodeSetup, run_trial
from repro.experiments.scenarios import PARTITIONED_DRONE_DISTANCE
from repro.graphs.generators.drone import drone_graph
from repro.types import BaselineDecision


def _accuracy(n, loss_rate, resend_period, trials) -> list[float]:
    """Fraction of nodes deciding correctly, over both scenario types."""
    samples = []
    scenarios = [
        (PARTITIONED_DRONE_DISTANCE, BaselineDecision.PARTITIONED),
        (0.0, BaselineDecision.CONNECTED),
    ]
    for trial in range(trials):
        for distance, expected in scenarios:
            graph = drone_graph(n, distance, 1.2, seed=trial)

            def factory(setup: NodeSetup) -> MtgNode:
                return MtgNode(
                    setup.node_id,
                    setup.n,
                    setup.neighbors,
                    resend_period=resend_period,
                )

            result = run_trial(
                graph,
                t=0,
                honest_factory=factory,
                rounds=2 * n,  # loss needs headroom for retransmissions
                seed=trial,
                with_ground_truth=False,
                env=EnvironmentSpec(loss_rate=loss_rate),
            )
            hits = sum(
                1 for verdict in result.verdicts.values() if verdict is expected
            )
            samples.append(hits / graph.n)
    return samples


def mtg_loss_tolerance(n=20, trials=4) -> FigureData:
    figure = FigureData(
        figure_id="mtg-loss-tolerance",
        title=f"MtG decision accuracy under message loss (n={n})",
        x_label="loss rate",
        y_label="fraction of nodes deciding correctly",
    )
    periodic = figure.series_named("MtG, periodic resend")
    change_driven = figure.series_named("MtG, change-driven only")
    for loss in (0.0, 0.2, 0.4, 0.6, 0.8):
        periodic.add(loss, _accuracy(n, loss, resend_period=1, trials=trials))
        change_driven.add(loss, _accuracy(n, loss, resend_period=0, trials=trials))
    figure.notes.append(
        "paper (via Bouget et al. [6]): ~90% correct detection at 40% loss"
    )
    figure.notes.append(
        "loss only threatens the connected case: dropped filters leave "
        "ids unlearned and raise false partition alarms"
    )
    return figure


def test_mtg_loss_tolerance(benchmark, archive):
    figure = benchmark.pedantic(mtg_loss_tolerance, rounds=1, iterations=1)
    archive(
        figure,
        "Sec. VI-A — MtG detects ~90% of partitions despite 40% message loss",
    )
    data = {s.name: {p.x: p.mean for p in s.points} for s in figure.series}
    periodic = data["MtG, periodic resend"]
    assert periodic[0.0] == 1.0
    assert periodic[0.4] >= 0.9  # the reproduced headline number
    # The change-driven schedule trades loss tolerance for cost.
    assert data["MtG, change-driven only"][0.4] <= periodic[0.4]
