"""Smoke and shape tests for the registered paper figures.

These run the real experiment code at a tiny scale through
:func:`repro.experiments.spec.run_figure` and assert the *qualitative*
shapes the paper reports; the benchmark harness runs the same figure
ids at larger scale and prints the quantitative tables.
"""

import pytest

from repro.experiments.spec import run_figure


def series_map(figure):
    return {s.name: {p.x: p.mean for p in s.points} for s in figure.series}


class TestFig3:
    def test_cost_grows_with_n_and_k(self):
        figure = run_figure("fig3", overrides={"ns": (10, 16, 22), "ks": (2, 4)})
        data = series_map(figure)
        k2 = data["Nectar: k = 2"]
        k4 = data["Nectar: k = 4"]
        assert k2[10] < k2[16] < k2[22]
        assert all(k4[n] > k2[n] for n in (10, 16, 22))


class TestFig3Random:
    def test_random_regular_matches_harary_means(self):
        """Sampling noise aside, both Fig. 3 variants tell one story."""
        deterministic = series_map(run_figure("fig3", overrides={"ns": (16,), "ks": (4,)}))
        sampled = series_map(
            run_figure(
                "fig3-random", overrides={"ns": (16,), "ks": (4,), "trials": 3}
            )
        )
        harary_mean = deterministic["Nectar: k = 4"][16]
        random_mean = sampled["Nectar: k = 4"][16]
        assert random_mean == pytest.approx(harary_mean, rel=0.25)


class TestFig4:
    def test_nectar_cost_decreases_with_distance(self):
        """Denser graphs (small d) cost more; MtG stays tiny and flat."""
        figure = run_figure(
            "fig4",
            overrides={"distances": (0.0, 6.0), "radii": (2.4,), "n": 12, "trials": 2},
        )
        data = series_map(figure)
        nectar = data["Nectar: radius = 2.4"]
        assert nectar[0.0] > nectar[6.0]
        mtg = data["MtG"]
        assert max(mtg.values()) < min(nectar.values())
        assert max(mtg.values()) < 5.0  # a few KB at most


class TestFig5:
    def test_mtgv2_cheaper_when_separated(self):
        figure = run_figure(
            "fig5",
            overrides={"distances": (0.0, 6.0), "radii": (1.8,), "n": 12, "trials": 2},
        )
        data = series_map(figure)
        mtgv2 = data["MtGv2: radius = 1.8"]
        assert mtgv2[6.0] < mtgv2[0.0]
        # MtGv2 sits above MtG but within a couple orders of magnitude.
        assert max(data["MtG"].values()) < max(mtgv2.values())


class TestFig6And7:
    def test_nectar_grows_much_faster_than_mtgv2(self):
        ns = (8, 14, 20)
        nectar = series_map(
            run_figure("fig6", overrides={"ns": ns, "distances": (0.0,), "trials": 2})
        )["Nectar: d = 0.0"]
        mtgv2 = series_map(
            run_figure("fig7", overrides={"ns": ns, "distances": (0.0,), "trials": 2})
        )["MtGv2: d = 0.0"]
        assert nectar[8] < nectar[14] < nectar[20]
        assert mtgv2[8] < mtgv2[20]
        # The growth gap widens with n (quadratic-ish vs near-linear).
        assert nectar[20] / mtgv2[20] > nectar[8] / mtgv2[8]

    def test_distance_ordering(self):
        figure = run_figure(
            "fig6", overrides={"ns": (16,), "distances": (0.0, 5.0), "trials": 2}
        )
        data = series_map(figure)
        assert data["Nectar: d = 0.0"][16] > data["Nectar: d = 5.0"][16]


class TestConnectivityResilience:
    def test_nectar_and_mtg_claims_on_one_family(self):
        figure = run_figure(
            "connectivity-resilience",
            overrides={
                "families": ("k-diamond",),
                "n": 16,
                "k": 4,
                "ts": (2,),
                "trials": 2,
            },
        )
        data = series_map(figure)
        assert data["Nectar [k-diamond]"][2] == pytest.approx(1.0)
        assert data["MtG [k-diamond]"][2] == pytest.approx(0.0)


class TestFig8:
    def test_headline_resilience_shape(self):
        figure = run_figure("fig8", overrides={"n": 15, "ts": (0, 2), "trials": 2})
        data = series_map(figure)
        # t = 0: everyone detects the plain partition.
        assert data["Nectar (ours)"][0] == pytest.approx(1.0)
        assert data["MtG"][0] == pytest.approx(1.0)
        assert data["MtGv2"][0] == pytest.approx(1.0)
        # t = 2: NECTAR stays perfect, MtG collapses, MtGv2 splits.
        assert data["Nectar (ours)"][2] == pytest.approx(1.0)
        assert data["MtG"][2] == pytest.approx(0.0)
        assert 0.2 <= data["MtGv2"][2] <= 0.8


class TestTopologyComparison:
    def test_all_families_measured(self):
        figure = run_figure(
            "topology-comparison", overrides={"n": 18, "k": 4, "trials": 1}
        )
        names = {s.name for s in figure.series}
        assert "k-regular" in names
        assert "generalized-wheel" in names
        assert any("cheaper" in note for note in figure.notes)


class TestAblations:
    def test_rounds_flat_beyond_diameter(self):
        figure = run_figure("ablation-rounds", overrides={"n": 16, "k": 4})
        points = figure.series[0].points
        beyond = [p.mean for p in points if p.x > points[0].x]
        assert max(beyond) == pytest.approx(min(beyond))

    def test_spam_does_not_inflate_correct_nodes(self):
        figure = run_figure("ablation-spam", overrides={"n": 12, "k": 4})
        points = {p.x: p.mean for p in figure.series[0].points}
        assert points[1] < points[0] * 1.5  # dedup keeps it bounded

    def test_batching_saves_bytes(self):
        figure = run_figure("ablation-batching", overrides={"n": 12, "k": 4})
        points = {p.x: p.mean for p in figure.series[0].points}
        assert points[0] < points[1]

    def test_smaller_signatures_cost_less(self):
        figure = run_figure("ablation-sigsize", overrides={"n": 12, "k": 4})
        points = {p.x: p.mean for p in figure.series[0].points}
        assert points[32] < points[64]
