"""Fig. 7 — drone scenario: MtGv2 cost vs number of drones.

Paper: max ~7.5 KB per node at (n=50, d=0) — three orders of magnitude
below NECTAR's Fig. 6 numbers at the same point.
"""

from repro.experiments.spec import run_figure


def test_fig7_mtgv2_scaling(benchmark, archive):
    figure = benchmark.pedantic(run_figure, args=("fig7",), rounds=1, iterations=1)
    archive(
        figure,
        "Fig. 7 — MtGv2 growing in n, max ~7.5 KB at (n=50, d=0)",
    )
    data = {s.name: {p.x: p.mean for p in s.points} for s in figure.series}
    dense = data["MtGv2: d = 0.0"]
    ns = sorted(dense)
    assert [dense[n] for n in ns] == sorted(dense[n] for n in ns)


def test_fig6_vs_fig7_cost_gap(archive, benchmark):
    """The cross-figure claim: NECTAR costs orders of magnitude more."""

    def both():
        overrides = {"ns": (20,), "distances": (0.0,), "trials": 2}
        nectar = run_figure("fig6", overrides=overrides)
        mtgv2 = run_figure("fig7", overrides=overrides)
        return nectar, mtgv2

    nectar, mtgv2 = benchmark.pedantic(both, rounds=1, iterations=1)
    nectar_cost = nectar.series[0].points[0].mean
    mtgv2_cost = mtgv2.series[0].points[0].mean
    print(
        f"\nn=20, d=0: NECTAR {nectar_cost:.1f} KB vs MtGv2 "
        f"{mtgv2_cost:.2f} KB ({nectar_cost / mtgv2_cost:.0f}x)"
    )
    assert nectar_cost > 10 * mtgv2_cost
