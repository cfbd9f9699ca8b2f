"""Golden-row equivalence suite and unit tests for the spec layer.

The redesign contract: every figure id in ``FIGURE_SPECS`` produces
rows *bit-identical* to its pre-spec (PR-1) implementation, for any
worker count — including ``connectivity-resilience`` and
``topology-comparison``, which used to run serially.
``tests/golden/figures.json`` holds reference outputs captured from
the pre-redesign figure functions (including cases that exercise the
skip-note semantics); these tests replay each case's keyword arguments
as axis overrides through ``SWEEP_ENGINE.run`` and compare whole
figures, not just means.
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter
from dataclasses import replace

import pytest

from repro.adversary.behaviors import SpamNectarNode
from repro.core.nectar import NectarNode
from repro.core.validation import ValidationMode
from repro.crypto.signer import HmacScheme, NullScheme
from repro.crypto.sizes import PAYLOAD_PROFILE, WireProfile
from repro.errors import ExperimentError
from repro.experiments.envspec import EnvironmentSpec
from repro.experiments.persistence import figure_to_dict, spec_digest
from repro.experiments.runner import protocol_factory, run_trial
from repro.experiments.spec import (
    FIGURE_SPECS,
    PROFILES,
    SWEEP_ENGINE,
    TopologySpec,
    TrialSpec,
    attack_rates,
    execute_trial,
)

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "figures.json").read_text()
)


def golden_figure(case: str, workers: int | None = None):
    """Replay one golden case; a ``-skip`` case reruns its figure id
    at parameters that exercise the skip notes."""
    return SWEEP_ENGINE.run(
        case.removesuffix("-skip"),
        overrides=GOLDEN[case]["kwargs"],
        workers=workers,
    )


class TestGoldenRows:
    """Bit-identical reproduction of the pre-redesign outputs."""

    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_serial_rows_bit_identical(self, case):
        figure = golden_figure(case)
        assert figure_to_dict(figure) == GOLDEN[case]["figure"]

    # Every case shards, including the two historically-serial sweeps
    # (topology-comparison, connectivity-resilience).
    @pytest.mark.parametrize("case", sorted(GOLDEN))
    def test_sharded_rows_bit_identical(self, case):
        figure = golden_figure(case, workers=2)
        assert figure_to_dict(figure) == GOLDEN[case]["figure"]

    def test_rows_helper_matches_golden_flat_view(self):
        figure = golden_figure("ablation-sigsize")
        expected = [
            (s["name"], p["x"], p["mean"], p["ci_half_width"], p["trials"])
            for s in GOLDEN["ablation-sigsize"]["figure"]["series"]
            for p in s["points"]
        ]
        assert figure.rows() == expected


class TestRegistry:
    def test_all_figures_registered(self):
        assert sorted(FIGURE_SPECS) == [
            "ablation-batching",
            "ablation-rounds",
            "ablation-sigsize",
            "ablation-spam",
            # the off-model environment scenarios (DESIGN.md §8):
            "backend-comparison",
            "connectivity-resilience",
            # the adversarial mission campaign scenario (DESIGN.md §11):
            "detection-under-deception",
            "fig3",
            "fig3-random",
            "fig4",
            "fig5",
            "fig6",
            "fig7",
            "fig8",
            "mobility-resilience",
            # the temporal mission scenarios (DESIGN.md §10):
            "mtg-vs-nectar-detection",
            "nectar-under-loss",
            "partition-detection",
            "topology-comparison",
        ]

    def test_every_spec_has_workers_capability(self):
        for spec in FIGURE_SPECS.values():
            assert "workers" in spec.capabilities

    def test_registry_key_matches_figure_id(self):
        for figure_id, spec in FIGURE_SPECS.items():
            assert spec.figure_id == figure_id


class TestResolve:
    def test_reduced_presets(self, monkeypatch):
        monkeypatch.delenv("REPRO_FULL", raising=False)
        resolved = SWEEP_ENGINE.resolve("fig3")
        assert resolved.scale == "reduced"
        assert resolved.params["ns"] == (10, 20, 30)
        assert resolved.params["ks"] == (2, 6, 10)

    def test_paper_presets(self):
        resolved = SWEEP_ENGINE.resolve("fig3", scale="paper")
        assert resolved.params["ns"] == (20, 40, 60, 80, 100)
        assert resolved.params["ks"] == (2, 10, 18, 26, 34)

    def test_env_variable_still_selects_paper_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_FULL", "1")
        assert SWEEP_ENGINE.resolve("fig8").scale == "paper"
        assert SWEEP_ENGINE.resolve("fig8").params["trials"] == 50

    def test_overrides_replace_axis_values(self):
        resolved = SWEEP_ENGINE.resolve("fig3", overrides={"ns": [8, 10]})
        assert resolved.params["ns"] == (8, 10)  # normalised to tuple

    def test_unknown_axis_rejected(self):
        with pytest.raises(ExperimentError, match="unknown axis"):
            SWEEP_ENGINE.resolve("fig3", overrides={"bogus": 1})

    def test_unknown_figure_rejected(self):
        with pytest.raises(ExperimentError, match="unknown figure"):
            SWEEP_ENGINE.resolve("fig99")

    def test_malformed_numeric_overrides_name_the_axis(self):
        for figure_id, overrides, message in (
            ("fig6", {"trials": 0}, "axis 'trials' needs at least 1"),
            ("fig3", {"ns": (8, "x")}, "axis 'ns' takes numbers"),
            ("fig3", {"ns": ""}, "axis 'ns' takes numbers"),
            ("fig3", {"ks": 2.5}, "axis 'ks' takes integers"),
        ):
            with pytest.raises(ExperimentError, match=message):
                SWEEP_ENGINE.resolve(figure_id, overrides=overrides)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ExperimentError, match="unknown scale"):
            SWEEP_ENGINE.resolve("fig3", scale="gigantic")

    def test_profile_objects_normalised_to_names(self):
        resolved = SWEEP_ENGINE.resolve(
            "fig3", overrides={"profile": PAYLOAD_PROFILE}
        )
        assert resolved.params["profile"] == "payload"

    def test_unregistered_profile_rejected(self):
        rogue = WireProfile(name="rogue", signature_bytes=48)
        with pytest.raises(ExperimentError, match="not registered"):
            SWEEP_ENGINE.resolve("fig3", overrides={"profile": rogue})

    def test_equivalent_inputs_resolve_to_one_digest(self):
        """Ints from JSON, floats from --set, lists vs tuples: one key."""
        from_json = SWEEP_ENGINE.resolve("fig4", overrides={"distances": [0, 6]})
        from_cli = SWEEP_ENGINE.resolve(
            "fig4", overrides={"distances": (0.0, 6.0)}
        )
        assert from_json.params["distances"] == (0.0, 6.0)
        assert spec_digest(from_json.payload()) == spec_digest(from_cli.payload())

    def test_scalar_on_sequence_axis_is_wrapped(self):
        resolved = SWEEP_ENGINE.resolve("fig8", overrides={"ts": 2})
        assert resolved.params["ts"] == (2,)

    def test_sequence_on_scalar_axis_rejected(self):
        with pytest.raises(ExperimentError, match="single value"):
            SWEEP_ENGINE.resolve("fig8", overrides={"n": (11, 13)})

    def test_resolved_sweep_with_extra_arguments_rejected(self):
        resolved = SWEEP_ENGINE.resolve("fig3", overrides={"ns": (8,), "ks": (2,)})
        with pytest.raises(ExperimentError, match="already-resolved"):
            SWEEP_ENGINE.run(resolved, overrides={"ns": (10,)})
        with pytest.raises(ExperimentError, match="already-resolved"):
            SWEEP_ENGINE.run(resolved, scale="paper")

    def test_payload_is_json_canonical_and_hashable(self):
        resolved = SWEEP_ENGINE.resolve("fig3", overrides={"ns": (8, 10)})
        payload = resolved.payload()
        assert payload["figure"] == "fig3"
        assert payload["axes"]["ns"] == [8, 10]
        # Same resolution -> same digest; different axes -> different.
        again = SWEEP_ENGINE.resolve("fig3", overrides={"ns": (8, 10)})
        assert spec_digest(again.payload()) == spec_digest(payload)
        other = SWEEP_ENGINE.resolve("fig3", overrides={"ns": (8, 12)})
        assert spec_digest(other.payload()) != spec_digest(payload)


class TestSeedModes:
    def test_hashed_seeds_reach_trial_cells(self):
        from repro.experiments.parallel import trial_seeds

        overrides = {"ns": (8,), "ks": (2,), "trials": 3}
        index_plan = SWEEP_ENGINE.plan(
            SWEEP_ENGINE.resolve("fig3-random", overrides=overrides)
        )
        hashed_plan = SWEEP_ENGINE.plan(
            SWEEP_ENGINE.resolve(
                "fig3-random", overrides=overrides, seed_mode="hashed", base_seed=7
            )
        )
        index_seeds = [c.topology.seed for c in index_plan.groups[0].cells]
        hashed_seeds = [c.topology.seed for c in hashed_plan.groups[0].cells]
        assert index_seeds == [0, 1, 2]
        assert hashed_seeds == trial_seeds(7, 3)

    def test_hashed_seeds_shard_identically(self):
        overrides = {"ns": (8,), "ks": (2,), "trials": 3}
        serial = SWEEP_ENGINE.run(
            "fig3-random", overrides=overrides, seed_mode="hashed", base_seed=7
        )
        sharded = SWEEP_ENGINE.run(
            "fig3-random",
            overrides=overrides,
            seed_mode="hashed",
            base_seed=7,
            workers=2,
        )
        assert figure_to_dict(sharded) == figure_to_dict(serial)

    def test_unknown_seed_mode_rejected(self):
        with pytest.raises(ExperimentError, match="seed mode"):
            SWEEP_ENGINE.resolve("fig3", seed_mode="clock")


class TestExecuteTrial:
    def test_cost_trial_measure_mismatch_rejected(self):
        spec = TrialSpec(
            topology=TopologySpec(kind="family", family="harary", n=8, k=2),
            measure="success-rate",
        )
        with pytest.raises(ExperimentError, match="mean-kb-sent"):
            execute_trial(spec)

    def test_unknown_protocol_rejected(self):
        spec = TrialSpec(
            topology=TopologySpec(kind="family", family="harary", n=8, k=2),
            protocol="carrier-pigeon",
        )
        with pytest.raises(ExperimentError, match="protocol"):
            execute_trial(spec)

    def test_two_faced_targets_signed_protocols_only(self):
        spec = TrialSpec(
            topology=TopologySpec(kind="bridged-drone", n=11, t=1),
            protocol="mtg",
            adversary="two-faced",
            measure="success-rate",
        )
        with pytest.raises(ExperimentError, match="two-faced"):
            execute_trial(spec)

    def test_unknown_profile_name_raises_experiment_error(self):
        spec = TrialSpec(
            topology=TopologySpec(kind="family", family="harary", n=8, k=2),
            profile="typo",
        )
        with pytest.raises(ExperimentError, match="unknown wire profile"):
            execute_trial(spec)

    def test_spam_measure_mismatch_rejected(self):
        spec = TrialSpec(
            topology=TopologySpec(kind="family", family="harary", n=10, k=4),
            adversary="spam",
            spammers=1,
            measure="success-rate",
        )
        with pytest.raises(ExperimentError, match="correct-kb-sent"):
            execute_trial(spec)

    def test_spam_seed_reaches_run_trial(self, monkeypatch):
        import repro.experiments.spec as spec_module

        captured = {}
        real_run_trial = spec_module.run_trial

        def spy(*args, **kwargs):
            captured["seed"] = kwargs.get("seed")
            return real_run_trial(*args, **kwargs)

        monkeypatch.setattr(spec_module, "run_trial", spy)
        execute_trial(
            TrialSpec(
                topology=TopologySpec(kind="family", family="harary", n=10, k=4),
                adversary="spam",
                spammers=1,
                seed=5,
                measure="correct-kb-sent",
            )
        )
        assert captured["seed"] == 5

    #: a cost cell on k-regular(n=12, k=4), construction seed 0.
    _KREG_CELL = TrialSpec(
        topology=TopologySpec(kind="family", family="k-regular", n=12, k=4)
    )

    @pytest.mark.parametrize(
        ("seed", "rounds", "loss_rate"),
        [(1, 0, 0.3), (2, 0, 0.3), (3, 0, 0.3), (0, 2, 0.0), (4, 3, 0.3)],
    )
    def test_unbatched_cell_is_the_direct_trial(self, seed, rounds, loss_rate):
        """The batching-off executor runs the trial its spec describes:
        seed (which seeds the lossy channel) and round budget included."""
        cell = replace(
            self._KREG_CELL,
            batching=False,
            seed=seed,
            rounds=rounds,
            env=EnvironmentSpec(loss_rate=loss_rate),
        )
        profile = PROFILES[cell.profile]

        def unbatched(setup):
            return NectarNode(
                setup.node_id,
                setup.n,
                setup.t,
                setup.key_store.key_pair_of(setup.node_id),
                setup.scheme,
                setup.key_store.directory,
                setup.neighbor_proofs,
                validation_mode=ValidationMode.ACCOUNTING,
                connectivity_cutoff=1,
                batching=False,
            )

        direct = run_trial(
            cell.topology.build(),
            honest_factory=unbatched,
            rounds=rounds or None,
            scheme=NullScheme(signature_size=profile.signature_bytes),
            profile=profile,
            validation_mode=ValidationMode.ACCOUNTING,
            seed=seed,
            with_ground_truth=False,
            env=cell.env,
        )
        assert execute_trial(cell) == direct.mean_kb_sent()

    @pytest.mark.parametrize("batching", [True, False])
    def test_full_cost_cell_signs_through_hmac(self, monkeypatch, batching):
        """With ``env.validation=full`` a cost cell signs and verifies
        real HMACs, batched or not: ``NullScheme.verify`` only checks a
        signature's length, so FULL validation on it checks nothing."""
        cell = replace(self._KREG_CELL, batching=batching)
        accounting = execute_trial(cell)
        calls: Counter = Counter()
        for scheme in (HmacScheme, NullScheme):
            for method in ("sign", "verify"):

                def recording(self, *args, _real=getattr(scheme, method),
                              _key=(scheme.__name__, method)):
                    calls[_key] += 1
                    return _real(self, *args)

                monkeypatch.setattr(scheme, method, recording)
        full = replace(cell, env=EnvironmentSpec(validation="full"))
        assert execute_trial(full) == accounting
        assert calls[("HmacScheme", "sign")] > 0
        assert calls[("HmacScheme", "verify")] > 0
        assert calls[("NullScheme", "sign")] == 0
        assert calls[("NullScheme", "verify")] == 0

    @pytest.mark.parametrize(
        ("profile", "rounds"),
        [("compact", 0), ("ecdsa", 0), ("payload", 0), ("ecdsa", 2), ("compact", 3)],
    )
    def test_spam_cell_is_the_direct_trial(self, profile, rounds):
        """The spam executor runs the trial its spec describes: wire
        profile and round budget included."""
        cell = replace(
            self._KREG_CELL,
            adversary="spam",
            spammers=1,
            seed=2,
            profile=profile,
            rounds=rounds,
            measure="correct-kb-sent",
        )
        graph = cell.topology.build()
        direct = run_trial(
            graph,
            t=1,
            byzantine_factories={0: protocol_factory(SpamNectarNode)},
            rounds=rounds or None,
            profile=PROFILES[profile],
            connectivity_cutoff=2,
            seed=2,
            with_ground_truth=False,
        )
        correct = [v for v in graph.nodes() if v != 0]
        assert execute_trial(cell) == direct.stats.mean_kb_sent(correct)

    def test_scenario_kind_needed_for_build_scenario(self):
        with pytest.raises(ExperimentError, match="not a scenario"):
            TopologySpec(kind="family", family="harary", n=8, k=2).build_scenario()

    def test_attack_rates_match_fig8_claims(self):
        rates = attack_rates(15, 2, seed=0)
        assert set(rates) == {"nectar", "mtgv2", "mtg"}
        assert rates["nectar"] == pytest.approx(1.0)
        assert rates["mtg"] == pytest.approx(0.0)
