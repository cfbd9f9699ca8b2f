"""Fig. 5 — drone scenario: MtGv2 cost vs barycenter distance.

Paper: MtGv2 stays within ~3 KB per node in the worst case, a bit
above MtG's ~1.9 KB flat line.

The table below uses the realistic 64-byte-signature profile and so
sits ~8x above the paper's numbers; under the signature-free payload
profile the same runs land at 1.4 KB (paper: ~3 KB) — the paper's
metric counts application payload without cryptographic material
(EXPERIMENTS.md, calibration).  The reproduced shape — decreasing in
d, increasing in radius, far below NECTAR, above MtG — holds either
way.
"""

from repro.experiments.spec import run_figure


def test_fig5_drone_mtgv2(benchmark, archive):
    figure = benchmark.pedantic(run_figure, args=("fig5",), rounds=1, iterations=1)
    archive(figure, "Fig. 5 — MtGv2 <= ~3 KB per node; MtG ~1.9 KB flat")
    data = {s.name: {p.x: p.mean for p in s.points} for s in figure.series}
    for name, series in data.items():
        if name.startswith("MtGv2"):
            # Tens of KB at most (vs hundreds for NECTAR): the ordering
            # MtG < MtGv2 << NECTAR is the reproduced claim.
            assert max(series.values()) < 40.0
            # Cost falls once the scatters separate (fewer channels).
            assert series[6.0] < series[0.0]
    assert max(data["MtG"].values()) < max(
        max(s.values()) for n, s in data.items() if n.startswith("MtGv2")
    )
