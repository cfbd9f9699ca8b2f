"""Tests for the EnvironmentSpec layer (DESIGN.md §8).

Covers the redesign contract: default environments are bit-identical
to the pre-environment code path (rows *and* spec digests), off-model
environments (lossy / async / mobility) run end to end through the
declarative sweep engine, and the sync and async backends agree on
verdicts and bytes when driven through ``EnvironmentSpec``.
"""

import dataclasses

import pytest

from repro.errors import ExperimentError
from repro.experiments.envspec import (
    DEFAULT_ENVIRONMENT,
    EnvironmentSpec,
    environment_axis_names,
    environment_from_overrides,
)
from repro.experiments.persistence import figure_to_dict, spec_digest
from repro.experiments.runner import run_trial
from repro.experiments.spec import (
    ADVERSARIES,
    SWEEP_ENGINE,
    TopologySpec,
    TrialSpec,
    execute_trial,
)
from repro.graphs.generators.classic import cycle_graph, grid_graph


class TestEnvironmentSpec:
    def test_default_is_the_papers_model(self):
        env = DEFAULT_ENVIRONMENT
        assert env.backend == "sync"
        assert env.resolved_channel() == "reliable"
        assert env.loss_rate == 0.0
        assert env.cache and env.quiescence_skip
        assert env.is_default

    def test_loss_rate_auto_selects_lossy_channel(self):
        assert EnvironmentSpec(loss_rate=0.3).resolved_channel() == "lossy"
        assert EnvironmentSpec(loss_rate=0.0).resolved_channel() == "reliable"

    def test_validate_rejects_unknown_names(self):
        with pytest.raises(ExperimentError, match="unknown backend"):
            EnvironmentSpec(backend="quantum").validate()
        with pytest.raises(ExperimentError, match="unknown channel"):
            EnvironmentSpec(channel="foam").validate()
        with pytest.raises(ExperimentError, match="unknown validation"):
            EnvironmentSpec(validation="vibes").validate()

    def test_validate_rejects_loss_on_async(self):
        with pytest.raises(ExperimentError, match="only modelled on the sync"):
            EnvironmentSpec(backend="async", loss_rate=0.4).validate()

    def test_validate_rejects_out_of_range_loss(self):
        with pytest.raises(ExperimentError):
            EnvironmentSpec(loss_rate=1.0).validate()

    def test_payload_holds_only_non_default_fields(self):
        assert DEFAULT_ENVIRONMENT.payload() == {}
        payload = EnvironmentSpec(backend="async", loss_rate=0.0).payload()
        assert payload == {"backend": "async"}
        rebuilt = EnvironmentSpec.from_payload(payload)
        assert rebuilt == EnvironmentSpec(backend="async")

    def test_overrides_coerce_cli_text_types(self):
        env = environment_from_overrides(
            {"loss_rate": 0.4, "cache": "false", "quiescence_skip": 1}
        )
        assert env.loss_rate == 0.4
        assert env.cache is False
        assert env.quiescence_skip is True

    def test_overrides_reject_unknown_fields(self):
        with pytest.raises(ExperimentError, match="unknown environment axis"):
            environment_from_overrides({"latency": 3})

    def test_overrides_reject_uncoercible_values(self):
        with pytest.raises(ExperimentError, match="expects a boolean"):
            environment_from_overrides({"cache": "maybe"})
        with pytest.raises(ExperimentError, match="expects a number"):
            environment_from_overrides({"loss_rate": "lots"})
        with pytest.raises(ExperimentError, match="expects a name"):
            environment_from_overrides({"backend": 3})

    def test_with_fields_applies_exactly_the_named_fields(self):
        lossy = EnvironmentSpec(channel="lossy", loss_rate=0.4)
        merged = lossy.with_fields(EnvironmentSpec(backend="async"), ["backend"])
        assert merged.backend == "async"
        assert merged.loss_rate == 0.4  # not clobbered back to default
        # An explicitly-named default value is a real override:
        reset = lossy.with_fields(DEFAULT_ENVIRONMENT, ["loss_rate"])
        assert reset.loss_rate == 0.0
        assert reset.channel == "lossy"
        assert lossy.with_fields(DEFAULT_ENVIRONMENT, []) == lossy

    def test_validate_rejects_orphaned_channel_parameters(self):
        """A parameter the resolved channel would ignore is an error,
        not a silently-archived lie."""
        with pytest.raises(ExperimentError, match="env.jitter_ms only applies"):
            EnvironmentSpec(jitter_ms=50.0).validate()
        with pytest.raises(ExperimentError, match="env.speed only applies"):
            EnvironmentSpec(speed=2.0).validate()
        with pytest.raises(ExperimentError, match="env.loss_rate only applies"):
            EnvironmentSpec(channel="mobility", loss_rate=0.3).validate()
        # ...while the consuming channel accepts them:
        EnvironmentSpec(channel="jittered", jitter_ms=50.0).validate()
        EnvironmentSpec(channel="mobility", speed=2.0).validate()
        EnvironmentSpec(loss_rate=0.3).validate()  # auto-resolves to lossy

    def test_axis_names_cover_every_field(self):
        names = environment_axis_names()
        assert "env.loss_rate" in names
        assert "env.backend" in names
        assert len(names) == len(dataclasses.fields(EnvironmentSpec))


class TestRunTrialAdapter:
    @pytest.mark.parametrize("graph", [cycle_graph(6), grid_graph(3, 3)])
    def test_sync_async_verdict_and_byte_equality_through_env(self, graph):
        sync = run_trial(
            graph, t=1, with_ground_truth=False, env=DEFAULT_ENVIRONMENT
        )
        asynchronous = run_trial(
            graph,
            t=1,
            with_ground_truth=False,
            env=EnvironmentSpec(backend="async"),
        )
        assert asynchronous.verdicts == sync.verdicts
        assert asynchronous.stats.bytes_sent == sync.stats.bytes_sent
        assert asynchronous.stats.messages_sent == sync.stats.messages_sent

    def test_env_validation_override_forces_full(self):
        from repro.crypto.cache import CacheStats

        graph = cycle_graph(6)
        result = run_trial(
            graph,
            t=0,
            with_ground_truth=False,
            env=EnvironmentSpec(validation="full"),
        )
        assert isinstance(result.cache_stats, CacheStats)
        assert result.cache_stats.proof_hits + result.cache_stats.proof_misses > 0

    def test_env_cache_off_disables_cache(self):
        graph = cycle_graph(6)
        result = run_trial(
            graph, t=0, with_ground_truth=False, env=EnvironmentSpec(cache=False)
        )
        assert result.cache_stats is None

    def test_legacy_kwargs_alongside_env_rejected(self):
        """Backend, loss and quiescence exist only as env fields: the
        old shorthand keywords are not accepted at all."""
        graph = cycle_graph(5)
        for kwargs in (
            {"loss_rate": 0.4},
            {"backend": "async"},
            {"quiescence_skip": False},
        ):
            with pytest.raises(TypeError):
                run_trial(
                    graph,
                    t=0,
                    with_ground_truth=False,
                    env=DEFAULT_ENVIRONMENT,
                    **kwargs,
                )

    def test_env_quiescence_off_runs_all_rounds(self):
        graph = cycle_graph(6)
        eager = run_trial(graph, t=0, with_ground_truth=False)
        full = run_trial(
            graph,
            t=0,
            with_ground_truth=False,
            env=EnvironmentSpec(quiescence_skip=False),
        )
        assert full.rounds_executed == full.rounds
        assert eager.rounds_executed <= full.rounds_executed
        assert full.verdicts == eager.verdicts


class TestTrialSpecEnv:
    def test_default_env_cell_reproduces_legacy_cell(self):
        spec = TrialSpec(
            topology=TopologySpec(kind="family", family="harary", n=10, k=4)
        )
        assert spec.env is DEFAULT_ENVIRONMENT
        assert execute_trial(spec) == execute_trial(
            dataclasses.replace(spec, env=EnvironmentSpec())
        )

    def test_async_cost_cell_matches_sync(self):
        sync_spec = TrialSpec(
            topology=TopologySpec(kind="family", family="harary", n=10, k=4)
        )
        async_spec = dataclasses.replace(
            sync_spec, env=EnvironmentSpec(backend="async")
        )
        assert execute_trial(async_spec) == execute_trial(sync_spec)

    def test_lossy_cost_cell_loses_bytes(self):
        reliable = TrialSpec(
            topology=TopologySpec(kind="family", family="harary", n=10, k=4)
        )
        lossy = dataclasses.replace(reliable, env=EnvironmentSpec(loss_rate=0.5))
        # Sends are counted in full but relaying dries up, so the mean
        # KB sent per node drops.
        assert execute_trial(lossy) < execute_trial(reliable)

    def test_mixed_adversary_registered_and_runs(self):
        assert "mixed" in ADVERSARIES
        rate = execute_trial(
            TrialSpec(
                topology=TopologySpec(kind="bridged-drone", n=13, t=3),
                protocol="nectar",
                adversary="mixed",
                measure="success-rate",
            )
        )
        assert 0.0 <= rate <= 1.0

    def test_mixed_adversary_targets_nectar_only(self):
        with pytest.raises(ExperimentError, match="mixed"):
            execute_trial(
                TrialSpec(
                    topology=TopologySpec(kind="bridged-drone", n=11, t=1),
                    protocol="mtg",
                    adversary="mixed",
                    measure="success-rate",
                )
            )


class TestSweepEngineEnvAxes:
    FAST = {"ns": (8, 10), "ks": (2,)}

    def test_default_resolution_payload_and_digest_unchanged(self):
        """The acceptance bar: unchanged sweeps keep their spec digests."""
        resolved = SWEEP_ENGINE.resolve("fig3", overrides=self.FAST)
        payload = resolved.payload()
        assert "env" not in payload
        assert payload == {
            "figure": "fig3",
            "scale": "reduced",
            "axes": {"ns": [8, 10], "ks": [2], "profile": "ecdsa"},
            "seed_mode": "index",
            "base_seed": 0,
        }

    def test_env_override_lands_in_payload_and_digest(self):
        base = SWEEP_ENGINE.resolve("fig3", overrides=self.FAST)
        lossy = SWEEP_ENGINE.resolve(
            "fig3", overrides={**self.FAST, "env.loss_rate": 0.4}
        )
        assert lossy.payload()["env"] == {"loss_rate": 0.4}
        assert spec_digest(lossy.payload()) != spec_digest(base.payload())

    def test_unknown_env_axis_rejected(self):
        with pytest.raises(ExperimentError, match="unknown environment axis"):
            SWEEP_ENGINE.resolve("fig3", overrides={"env.latency": 1})

    def test_invalid_env_combination_rejected_at_resolve(self):
        with pytest.raises(ExperimentError, match="only modelled on the sync"):
            SWEEP_ENGINE.resolve(
                "fig3",
                overrides={"env.backend": "async", "env.loss_rate": 0.4},
            )

    def test_env_sweep_shards_bit_identically(self):
        overrides = {**self.FAST, "env.loss_rate": 0.4}
        serial = SWEEP_ENGINE.run("fig3", overrides=overrides)
        sharded = SWEEP_ENGINE.run("fig3", overrides=overrides, workers=2)
        assert figure_to_dict(sharded) == figure_to_dict(serial)

    def test_async_env_sweep_matches_default_rows(self):
        """The async backend reproduces the sync rows for cost sweeps."""
        base = SWEEP_ENGINE.run("fig3", overrides=self.FAST)
        asynchronous = SWEEP_ENGINE.run(
            "fig3", overrides={**self.FAST, "env.backend": "async"}, workers=2
        )
        assert asynchronous.rows() == base.rows()


class TestOffModelScenarios:
    def test_nectar_under_loss_smoke(self):
        figure = SWEEP_ENGINE.run(
            "nectar-under-loss",
            overrides={"n": 13, "t": 2, "trials": 2, "loss_rates": (0.0, 0.4)},
            workers=2,
        )
        assert [series.name for series in figure.series] == ["Nectar"]
        xs = [point.x for point in figure.series[0].points]
        assert xs == [0.0, 0.4]
        assert all(0.0 <= p.mean <= 1.0 for p in figure.series[0].points)

    def test_backend_comparison_smoke_notes_parity(self):
        figure = SWEEP_ENGINE.run(
            "backend-comparison", overrides={"ns": (8, 10)}, workers=2
        )
        assert [series.name for series in figure.series] == ["sync", "async"]
        assert any("sync ≡ async" in note for note in figure.notes)

    def test_mobility_resilience_smoke(self):
        figure = SWEEP_ENGINE.run(
            "mobility-resilience",
            overrides={"n": 13, "t": 2, "trials": 2, "speeds": (0.5,)},
        )
        assert all(0.0 <= p.mean <= 1.0 for p in figure.series[0].points)

    def test_scenario_env_survives_global_backend_override(self):
        """Global env.* merges field-wise into scenario cells (and the
        invalid lossy+async combination then fails loudly)."""
        resolved = SWEEP_ENGINE.resolve(
            "nectar-under-loss",
            overrides={
                "n": 13,
                "t": 2,
                "trials": 1,
                "loss_rates": (0.4,),
                "env.backend": "async",
            },
        )
        with pytest.raises(ExperimentError, match="only modelled on the sync"):
            SWEEP_ENGINE.run(resolved)

    def test_explicit_default_override_resets_scenario_cells(self):
        """--set env.loss_rate=0.0 on the lossy scenario really forces
        reliable channels (and keys a distinct artefact)."""
        overrides = {"n": 13, "t": 2, "trials": 2, "loss_rates": (0.0, 0.4)}
        baseline = SWEEP_ENGINE.run("nectar-under-loss", overrides=overrides)
        forced = SWEEP_ENGINE.resolve(
            "nectar-under-loss", overrides={**overrides, "env.loss_rate": 0.0}
        )
        assert forced.env_fields == ("loss_rate",)
        assert forced.payload()["env"] == {"loss_rate": 0.0}
        figure = SWEEP_ENGINE.run(forced)
        reliable_rate = baseline.series[0].points[0].mean  # x = 0.0
        # Every x now runs loss-free, so every row equals the x=0 row.
        assert [p.mean for p in figure.series[0].points] == [
            reliable_rate,
            reliable_rate,
        ]
        plain = SWEEP_ENGINE.resolve("nectar-under-loss", overrides=overrides)
        assert spec_digest(forced.payload()) != spec_digest(plain.payload())
