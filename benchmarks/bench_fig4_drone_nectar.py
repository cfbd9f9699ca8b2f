"""Fig. 4 — drone scenario: NECTAR cost vs barycenter distance.

Paper: at d=0, radius=2.4 (complete graph of 20 drones) NECTAR sends
~50 KB per node; cost falls as the scatters drift apart; MtG stays
flat around 1.9 KB regardless of d and radius.
"""

from repro.experiments.spec import run_figure


def test_fig4_drone_nectar(benchmark, archive):
    figure = benchmark.pedantic(run_figure, args=("fig4",), rounds=1, iterations=1)
    archive(
        figure,
        "Fig. 4 — NECTAR ~50 KB at (d=0, radius=2.4), decreasing in d; "
        "MtG flat ~1.9 KB",
    )
    data = {s.name: {p.x: p.mean for p in s.points} for s in figure.series}
    widest = data["Nectar: radius = 2.4"]
    # Cost decreases as the scatters separate.
    assert widest[0.0] > widest[6.0]
    # MtG is at least an order of magnitude cheaper than dense NECTAR.
    assert max(data["MtG"].values()) * 5 < widest[0.0]
