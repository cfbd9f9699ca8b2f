"""Fig. 6 — drone scenario: NECTAR cost vs number of drones.

Paper: radius fixed at 1.2; cost grows with n (about quadratically in
the dense d=0 case, max ~200 KB at n=50) and shrinks with d.
"""

from repro.experiments.spec import run_figure


def test_fig6_drone_scaling(benchmark, archive):
    figure = benchmark.pedantic(run_figure, args=("fig6",), rounds=1, iterations=1)
    archive(
        figure,
        "Fig. 6 — NECTAR growing in n, max ~200 KB at (n=50, d=0); "
        "ordering d=0 > d=2.5 > d=5",
    )
    data = {s.name: {p.x: p.mean for p in s.points} for s in figure.series}
    dense = data["Nectar: d = 0.0"]
    ns = sorted(dense)
    assert [dense[n] for n in ns] == sorted(dense[n] for n in ns)
    # Denser deployments cost more at every n.
    sparse = data["Nectar: d = 5.0"]
    assert all(dense[n] >= sparse[n] for n in ns)
