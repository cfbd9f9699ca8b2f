"""Ablation benches for the design choices listed in DESIGN.md §5."""

from repro.experiments.spec import run_figure


def test_ablation_round_count(benchmark, archive):
    """§5.1 — R = n-1 vs diameter-bounded R: cost is flat past diam+1."""
    figure = benchmark.pedantic(
        run_figure, args=("ablation-rounds",), rounds=1, iterations=1
    )
    archive(figure, "Sec. IV-B — extra rounds are free (nodes go silent)")
    points = figure.series[0].points
    tail = [p.mean for p in points[1:]]
    assert max(tail) == min(tail)


def test_ablation_spam_dedup(benchmark, archive):
    """§5.2 — dedup-before-verify bounds the damage of spam."""
    figure = benchmark.pedantic(
        run_figure, args=("ablation-spam",), rounds=1, iterations=1
    )
    archive(figure, "Alg. 1 l.14 — dedup caps correct-node traffic under spam")
    points = {p.x: p.mean for p in figure.series[0].points}
    assert points[2] < points[0] * 2  # spammers cannot blow up honest cost


def test_ablation_batching(benchmark, archive):
    """§5.3 — batched envelopes vs one message per edge."""
    figure = benchmark.pedantic(
        run_figure, args=("ablation-batching",), rounds=1, iterations=1
    )
    archive(figure, "batched per-round envelopes save per-message headers")
    points = {p.x: p.mean for p in figure.series[0].points}
    saving = (points[1] - points[0]) / points[1]
    print(f"\nbatching saves {saving:.1%} of bytes")
    assert points[0] < points[1]


def test_ablation_signature_size(benchmark, archive):
    """§5.4 — 64 B (ECDSA) vs 32 B (compact) signature profiles."""
    figure = benchmark.pedantic(
        run_figure, args=("ablation-sigsize",), rounds=1, iterations=1
    )
    archive(figure, "signature size dominates NECTAR's wire cost")
    points = {p.x: p.mean for p in figure.series[0].points}
    assert points[32] < points[64] < 2.2 * points[32]
