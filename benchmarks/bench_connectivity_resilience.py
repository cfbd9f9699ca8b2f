"""Sec. V-D text — resilience on the connectivity-dependent topologies.

Paper: with the same attacks on the Bonomi et al. topologies, MtG
drops to 0 success from t=2, NECTAR keeps 1.0; MtGv2 stays near 1 on
k-diamond and averages ~0.3 (CI [0, 1]) on the other families.
"""

from repro.experiments.spec import run_figure


def test_connectivity_resilience(benchmark, archive, sweep_workers):
    figure = benchmark.pedantic(
        run_figure,
        args=("connectivity-resilience",),
        kwargs={"workers": sweep_workers},
        rounds=1,
        iterations=1,
    )
    archive(
        figure,
        "Sec. V-D — NECTAR 1.0 on all families; MtG 0.0 from t=2; "
        "MtGv2 topology-dependent (paper: ~1 on k-diamond, ~0.3 elsewhere)",
    )
    data = {s.name: {p.x: p.mean for p in s.points} for s in figure.series}
    for name, series in data.items():
        if name.startswith("Nectar"):
            assert all(rate == 1.0 for rate in series.values()), name
        if name.startswith("MtG ["):
            assert all(rate == 0.0 for t, rate in series.items() if t >= 2), name
