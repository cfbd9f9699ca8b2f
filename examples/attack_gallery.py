#!/usr/bin/env python3
"""Byzantine attack gallery: every attack of Sec. V-D, side by side.

Replays the paper's attacks against NECTAR, MtG and MtGv2 on a
partitioned network bridged by Byzantine nodes, and prints who gets
fooled.  This is the story of Fig. 8 in one screen.

Run:  python examples/attack_gallery.py
"""

from repro import (
    SaturatingMtgNode,
    TwoFacedMtgv2Node,
    TwoFacedNectarNode,
    balanced_placement,
    bridged_partition_scenario,
    drone_graph,
    honest_mtg_factory,
    honest_mtgv2_factory,
    honest_nectar_factory,
    run_trial,
    success_rate,
)
from repro.experiments import protocol_factory
from repro.experiments.scenarios import PARTITIONED_DRONE_DISTANCE

N = 21
T = 2


def nectar_under_two_faced(scenario):
    byz = protocol_factory(TwoFacedNectarNode, silent_towards=scenario.muted)
    return run_trial(
        scenario.graph,
        t=scenario.t,
        byzantine_factories={b: byz for b in scenario.byzantine},
        honest_factory=honest_nectar_factory,
    )


def mtgv2_under_two_faced(scenario):
    byz = protocol_factory(TwoFacedMtgv2Node, silent_towards=scenario.muted)
    return run_trial(
        scenario.graph,
        t=scenario.t,
        byzantine_factories={b: byz for b in scenario.byzantine},
        honest_factory=honest_mtgv2_factory,
    )


def mtg_under_saturation():
    graph = drone_graph(N, PARTITIONED_DRONE_DISTANCE, 1.2, seed=3)
    byzantine = balanced_placement(
        [range(N // 2), range(N // 2, N)], T, seed=3
    )
    byz = protocol_factory(SaturatingMtgNode)
    return run_trial(
        graph,
        t=T,
        byzantine_factories={b: byz for b in byzantine},
        honest_factory=honest_mtg_factory,
    )


def show(name, attack, result):
    rate = success_rate(result.correct_verdicts, result.ground_truth)
    decisions = {}
    for verdict in result.correct_verdicts.values():
        key = getattr(verdict, "decision", verdict)
        decisions[str(key)] = decisions.get(str(key), 0) + 1
    print(f"{name:<8} vs {attack:<22} success={rate:>5.0%}   verdicts: {decisions}")


def main() -> None:
    print(f"scenario: {N} nodes, {T} Byzantine bridges between two islands\n")
    scenario = bridged_partition_scenario(N, T, seed=3)

    show("NECTAR", "two-faced bridges", nectar_under_two_faced(scenario))
    show("MtGv2", "two-faced bridges", mtgv2_under_two_faced(scenario))
    show("MtG", "filter saturation", mtg_under_saturation())

    print()
    print("NECTAR: every correct node answers PARTITIONABLE — the bridges")
    print("cannot push perceived connectivity above t, whatever they relay.")
    print("MtGv2: the favored island believes the network is connected")
    print("(it is! but the muted island cannot reach it) — agreement broken.")
    print("MtG: saturated Bloom filters make every id look reachable —")
    print("all correct nodes are fooled at once.")


if __name__ == "__main__":
    main()


def test_gallery_outcomes():
    """Pin the gallery's headline numbers."""
    scenario = bridged_partition_scenario(N, T, seed=3)
    nectar = nectar_under_two_faced(scenario)
    assert success_rate(nectar.correct_verdicts, nectar.ground_truth) == 1.0
    mtg = mtg_under_saturation()
    assert success_rate(mtg.correct_verdicts, mtg.ground_truth) == 0.0
