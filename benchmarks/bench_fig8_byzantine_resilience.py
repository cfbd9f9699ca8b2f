"""Fig. 8 — decision success rate under Byzantine attack.

Paper (drone scenario, 35 nodes): NECTAR keeps a success rate of 1.0
for every t; MtG falls to ~0.5 at t=1 (agreement broken) and 0 from
t=2 on (all correct nodes fooled by saturated Bloom filters); MtGv2
hovers around 0.5 under the two-faced bridge attack.
"""

from repro.experiments.spec import paper_scale, run_figure


def test_fig8_byzantine_resilience(benchmark, archive):
    overrides = None if paper_scale() else {"n": 21, "ts": (0, 1, 2, 3, 4)}
    figure = benchmark.pedantic(
        run_figure,
        args=("fig8",),
        kwargs={"overrides": overrides},
        rounds=1,
        iterations=1,
    )
    archive(
        figure,
        "Fig. 8 — NECTAR 1.0 everywhere; MtG ~0.5 at t=1, 0.0 for t>=2; "
        "MtGv2 ~0.5 for t>=1",
    )
    data = {s.name: {p.x: p.mean for p in s.points} for s in figure.series}
    nectar = data["Nectar (ours)"]
    assert all(rate == 1.0 for rate in nectar.values())
    mtg = data["MtG"]
    assert mtg[0] == 1.0
    assert all(mtg[t] == 0.0 for t in mtg if t >= 2)
    mtgv2 = data["MtGv2"]
    assert all(0.2 <= mtgv2[t] <= 0.8 for t in mtgv2 if t >= 1)
