"""Equivalence and invalidation suite for the artifact layer
(DESIGN.md §9).

The ArtifactCache contract is that enabling it never changes a result:
sweep rows, verdicts and traffic statistics must be bit-identical with
the cache on vs off, serial vs any worker count.  The invalidation
contract is that every field of the keyed specs participates in the
content address — mutating anything changes the key.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import HmacScheme, NullScheme, RsaScheme, scheme_fingerprint
from repro.crypto.keys import KeyStore
from repro.crypto.signer import SignatureScheme
from repro.errors import ExperimentError
from repro.experiments.artifacts import (
    ARTIFACTS,
    ArtifactCache,
    artifact_key,
    clear_artifact_cache,
)
from repro.experiments.envspec import DEFAULT_ENVIRONMENT, EnvironmentSpec
from repro.experiments.mission import clear_mission_memo
from repro.experiments.parallel import colocation_chunks
from repro.experiments.persistence import figure_to_dict
from repro.experiments.runner import build_deployment, compute_ground_truth, run_trial
from repro.experiments.spec import (
    SWEEP_ENGINE,
    TopologySpec,
    TrialSpec,
    _cell_colocation_key,
    _process_origin,
    absorb_shard,
    artifact_scope,
    execute_trial,
)
from repro.graphs.generators.regular import harary_graph
from repro.graphs.graph import Graph


@pytest.fixture(autouse=True)
def _cold_artifacts():
    """Every test starts and ends with an empty artifact cache."""
    clear_artifact_cache()
    yield
    clear_artifact_cache()


_GRAPH = harary_graph(2, 6)

#: store -> (counter prefix, lookup(cache, seed, build), a builder of a
#: real artifact); the lookup asks that store of ``cache`` for one key,
#: and distinct seeds are distinct keys.
STORES = {
    "topologies": (
        "topology",
        lambda cache, seed, build: cache.topology(f"topology-{seed}", build),
        lambda: harary_graph(2, 6),
    ),
    "connectivity": (
        "connectivity",
        lambda cache, seed, build: cache.connectivity(_GRAPH, seed, build),
        lambda: 2,
    ),
    "key_pools": (
        "key_pool",
        lambda cache, seed, build: cache.key_store(HmacScheme(), range(6), seed, build),
        lambda: KeyStore(HmacScheme(), range(6), seed=0),
    ),
    "deployments": (
        "deployment",
        lambda cache, seed, build: cache.deployment(_GRAPH, HmacScheme(), seed, build),
        lambda: build_deployment(_GRAPH),
    ),
}


# ----------------------------------------------------------------------
# Graph digests
# ----------------------------------------------------------------------
class TestGraphDigest:
    def test_equal_graphs_share_digest(self):
        a = Graph(4, [(0, 1), (1, 2), (2, 3)])
        b = Graph(4, [(2, 3), (2, 1), (0, 1)])  # other order, same graph
        assert a.digest() == b.digest()

    def test_edge_change_changes_digest(self):
        a = Graph(4, [(0, 1), (1, 2)])
        b = Graph(4, [(0, 1), (1, 3)])
        assert a.digest() != b.digest()

    def test_node_count_changes_digest(self):
        a = Graph(3, [(0, 1)])
        b = Graph(4, [(0, 1)])
        assert a.digest() != b.digest()


# ----------------------------------------------------------------------
# Store behaviour
# ----------------------------------------------------------------------
class TestArtifactCache:
    def test_topology_interned_once(self):
        cache = ArtifactCache()
        builds = []

        def build():
            builds.append(1)
            return harary_graph(2, 6)

        first = cache.topology("key", build)
        second = cache.topology("key", build)
        assert first is second
        assert len(builds) == 1
        assert cache.stats.topology_hits == 1
        assert cache.stats.topology_misses == 1

    def test_connectivity_keyed_by_content_not_identity(self):
        cache = ArtifactCache()
        computed = []

        def compute():
            computed.append(1)
            return 2

        a = harary_graph(2, 6)
        b = harary_graph(2, 6)  # equal graph, distinct object
        assert a is not b
        assert cache.connectivity(a, 3, compute) == 2
        assert cache.connectivity(b, 3, compute) == 2
        assert len(computed) == 1

    def test_connectivity_cutoff_is_part_of_the_key(self):
        cache = ArtifactCache()
        graph = harary_graph(2, 6)
        cache.connectivity(graph, 1, lambda: 1)
        cache.connectivity(graph, None, lambda: 2)
        assert cache.stats.connectivity_misses == 2

    def test_key_pool_hit_requires_same_scheme_n_seed(self):
        cache = ArtifactCache()

        def pool(scheme, n, seed):
            from repro.crypto.keys import KeyStore

            return cache.key_store(
                scheme, range(n), seed, lambda: KeyStore(scheme, range(n), seed=seed)
            )

        pool(HmacScheme(), 5, 0)
        pool(HmacScheme(), 5, 0)  # hit: fresh instance, same fingerprint
        assert cache.stats.key_pool_hits == 1
        pool(HmacScheme(), 6, 0)  # different n
        pool(HmacScheme(), 5, 1)  # different seed
        pool(NullScheme(), 5, 0)  # different scheme
        pool(RsaScheme(bits=256), 5, 0)  # different scheme again
        assert cache.stats.key_pool_misses == 5

    def test_unknown_scheme_bypasses_the_pool(self):
        class WeirdScheme(SignatureScheme):
            signature_size = 8

            def generate_keypair(self, node_id, rng):
                from repro.crypto.signer import KeyPair

                return KeyPair(node_id=node_id, private_key=b"x", public_key=b"y")

            def sign(self, key_pair, data):
                return b"\x00" * 8

            def verify(self, public_key, data, signature):
                return True

        assert scheme_fingerprint(WeirdScheme()) is None
        cache = ArtifactCache()
        from repro.crypto.keys import KeyStore

        scheme = WeirdScheme()
        first = cache.key_store(
            scheme, range(3), 0, lambda: KeyStore(scheme, range(3), seed=0)
        )
        second = cache.key_store(
            scheme, range(3), 0, lambda: KeyStore(scheme, range(3), seed=0)
        )
        assert first is not second
        assert cache.stats.key_pool_bypasses == 2
        assert len(cache) == 0

    @pytest.mark.parametrize("store", sorted(STORES))
    def test_snapshot_round_trip(self, tmp_path, store):
        counter, lookup, build = STORES[store]
        cache = ArtifactCache()
        lookup(cache, 0, build)
        path = cache.save(tmp_path / "artifacts.pkl")
        fresh = ArtifactCache()
        assert fresh.load(path)
        assert len(fresh) == len(cache) == 1
        assert len(fresh.snapshot()[store]) == 1
        # The reloaded store answers without rebuilding.
        lookup(fresh, 0, lambda: pytest.fail("should be stored"))
        assert getattr(fresh.stats, f"{counter}_hits") == 1

    def test_load_missing_or_corrupt_is_harmless(self, tmp_path):
        cache = ArtifactCache()
        assert not cache.load(tmp_path / "absent.pkl")
        bad = tmp_path / "bad.pkl"
        bad.write_bytes(b"not a pickle")
        assert not cache.load(bad)
        assert len(cache) == 0


# ----------------------------------------------------------------------
# Invalidation: every spec field participates in the artifact key
# ----------------------------------------------------------------------
_TOPOLOGY_SPECS = st.builds(
    TopologySpec,
    kind=st.sampled_from(("family", "drone", "bridged-drone", "split")),
    n=st.integers(4, 40),
    k=st.integers(0, 6),
    family=st.sampled_from(("", "harary", "k-regular", "k-diamond")),
    t=st.integers(0, 3),
    distance=st.floats(0.0, 6.0, allow_nan=False),
    radius=st.floats(0.5, 3.0, allow_nan=False),
    seed=st.integers(0, 10),
)

_ENVIRONMENTS = st.builds(
    EnvironmentSpec,
    backend=st.sampled_from(("sync", "async")),
    channel=st.sampled_from(("", "lossy", "jittered", "mobility")),
    loss_rate=st.floats(0.0, 0.9, allow_nan=False),
    jitter_ms=st.floats(0.0, 5.0, allow_nan=False),
    validation=st.sampled_from(("", "full", "accounting")),
    scheme=st.sampled_from(("", "hmac", "rsa-256")),
    cache=st.booleans(),
    artifacts=st.booleans(),
    quiescence_skip=st.booleans(),
)


class TestKeyInvalidation:
    @settings(max_examples=60, deadline=None)
    @given(_TOPOLOGY_SPECS, _TOPOLOGY_SPECS)
    def test_distinct_topology_specs_have_distinct_keys(self, a, b):
        """Mutating *any* field must change the artifact key."""
        if a == b:
            assert a.artifact_key() == b.artifact_key()
        else:
            assert a.artifact_key() != b.artifact_key()

    @settings(max_examples=60, deadline=None)
    @given(_TOPOLOGY_SPECS, st.integers(0, 7))
    def test_single_field_mutation_changes_key(self, spec, salt):
        fields = dataclasses.fields(TopologySpec)
        field = fields[salt % len(fields)]
        value = getattr(spec, field.name)
        if isinstance(value, str):
            mutated = value + "x"
        elif isinstance(value, float):
            mutated = value + 1.0
        else:
            mutated = value + 1
        other = dataclasses.replace(spec, **{field.name: mutated})
        assert other.artifact_key() != spec.artifact_key()

    @settings(max_examples=60, deadline=None)
    @given(_ENVIRONMENTS, _ENVIRONMENTS)
    def test_distinct_environments_have_distinct_payload_digests(self, a, b):
        """The env payload (the spec-digest input that keys on-disk
        artifact snapshots) must separate any two distinct specs."""
        key_a = artifact_key({"env": a.payload()})
        key_b = artifact_key({"env": b.payload()})
        if a == b:
            assert key_a == key_b
        else:
            assert key_a != key_b


# ----------------------------------------------------------------------
# Equivalence: cache on == cache off, serial == sharded
# ----------------------------------------------------------------------
def _figure_fingerprint(figure):
    return figure_to_dict(figure)


class TestSweepEquivalence:
    def _compare(self, figure_id, overrides, workers_list=(None, 2)):
        baseline = SWEEP_ENGINE.run(figure_id, overrides=dict(overrides))
        expected = _figure_fingerprint(baseline)
        for workers in workers_list:
            clear_artifact_cache()
            cached = SWEEP_ENGINE.run(
                figure_id,
                overrides={**overrides, "env.artifacts": True},
                workers=workers,
            )
            assert _figure_fingerprint(cached) == expected, (
                f"{figure_id}: rows diverged with artifacts on "
                f"(workers={workers})"
            )

    def test_fig3_rows_identical(self):
        self._compare("fig3", {"ns": (8, 10), "ks": (2, 4)})

    def test_connectivity_resilience_rows_identical(self):
        self._compare(
            "connectivity-resilience",
            {"families": ("k-diamond",), "n": 14, "k": 4, "ts": (2,), "trials": 2},
        )

    def test_topology_comparison_rows_identical(self):
        self._compare(
            "topology-comparison",
            {"families": ("k-regular", "k-diamond"), "n": 12, "k": 4, "trials": 2},
        )

    def test_fig8_rows_identical(self):
        self._compare("fig8", {"n": 13, "ts": (1, 2), "trials": 2})

    def test_rsa_scheme_rows_identical(self):
        self._compare(
            "fig3", {"ns": (8,), "ks": (2, 3)}, workers_list=(None,)
        )
        clear_artifact_cache()
        off = SWEEP_ENGINE.run(
            "fig3", overrides={"ns": (8,), "ks": (2, 3), "env.scheme": "rsa-256"}
        )
        clear_artifact_cache()
        on = SWEEP_ENGINE.run(
            "fig3",
            overrides={
                "ns": (8,),
                "ks": (2, 3),
                "env.scheme": "rsa-256",
                "env.artifacts": True,
            },
        )
        assert _figure_fingerprint(on) == _figure_fingerprint(off)
        assert ARTIFACTS.stats.key_pool_hits >= 1  # pooled across the two cells


class TestKindChecks:
    def test_mismatched_spec_fails_identically_with_warm_cache(self):
        """A spec whose adversary expects a different topology kind
        must raise the same targeted error cold, warm, or uncached —
        a warm intern must never stand in for the kind check."""
        from repro.experiments.spec import TrialSpec, execute_trial

        top = TopologySpec(kind="partitioned-drone", n=13, t=2, seed=0)
        for artifacts in (False, True, True):  # off, cold cache, warm cache
            spec = TrialSpec(
                topology=top,
                protocol="nectar",
                adversary="two-faced",
                measure="success-rate",
                env=EnvironmentSpec(artifacts=artifacts),
            )
            if artifacts:
                # Intern the topology the way an earlier cell of the
                # sweep would, so the second artifact round hits the cache.
                ARTIFACTS.topology(top.artifact_key(), top.build_artifact)
            with pytest.raises(ExperimentError, match="is not a scenario"):
                execute_trial(spec)

    def test_cost_trial_on_scenario_kind_fails_identically(self):
        from repro.experiments.spec import TrialSpec, execute_trial

        top = TopologySpec(kind="split", family="k-diamond", n=14, k=4, t=2)
        for artifacts in (False, True):
            spec = TrialSpec(
                topology=top, env=EnvironmentSpec(artifacts=artifacts)
            )
            with pytest.raises(ExperimentError, match="needs build_scenario"):
                execute_trial(spec)

    #: Singly-wrong attack cells: overrides of a valid two-faced NECTAR
    #: cell on a bridged drone scenario, and the error each must raise.
    WRONG_ATTACK_CELLS = {
        "two-faced-on-mtg": (
            {"protocol": "mtg"},
            "two-faced adversary targets nectar/mtgv2, got 'mtg'",
        ),
        "mixed-on-mtgv2": (
            {"adversary": "mixed", "protocol": "mtgv2"},
            "mixed adversary targets nectar, got 'mtgv2'",
        ),
        "saturating-on-nectar": (
            {"adversary": "saturating"},
            "saturating adversary targets mtg, got 'nectar'",
        ),
        "unknown-adversary": ({"adversary": "bogus"}, "unknown adversary 'bogus'"),
        "wrong-measure": (
            {"measure": "mean-kb-sent"},
            "adversarial trials measure success-rate, got 'mean-kb-sent'",
        ),
        "two-faced-on-partitioned-drone": (
            {"topology": TopologySpec(kind="partitioned-drone", n=13, t=2)},
            "topology kind 'partitioned-drone' is not a scenario",
        ),
        "saturating-on-family": (
            {
                "adversary": "saturating",
                "protocol": "mtg",
                "topology": TopologySpec(kind="family", family="harary", n=10, k=4),
            },
            "topology kind 'family' is not a scenario",
        ),
    }

    @pytest.mark.parametrize("case", sorted(WRONG_ATTACK_CELLS))
    def test_wrong_attack_cell_fails_identically(self, case):
        """Each singly-wrong attack cell raises its targeted error with
        the artifact cache off, cold and warm."""
        overrides, message = self.WRONG_ATTACK_CELLS[case]
        cell = TrialSpec(
            topology=TopologySpec(kind="bridged-drone", n=13, t=2),
            protocol="nectar",
            adversary="two-faced",
            measure="success-rate",
        )
        cell = dataclasses.replace(cell, **overrides)
        top = cell.topology
        for state in ("off", "cold", "warm"):
            if state == "warm":
                ARTIFACTS.topology(top.artifact_key(), top.build_artifact)
            else:
                clear_artifact_cache()
            env = EnvironmentSpec(artifacts=state != "off")
            with pytest.raises(ExperimentError, match=re.escape(message)):
                execute_trial(dataclasses.replace(cell, env=env))


class TestTrialEquivalence:
    def test_rsa_trial_verdicts_and_traffic_identical(self):
        graph = harary_graph(2, 8)
        plain = run_trial(
            graph, t=1, scheme=RsaScheme(bits=256), seed=3,
        )
        clear_artifact_cache()
        cached_env = EnvironmentSpec(artifacts=True)
        first = run_trial(
            graph, t=1, scheme=RsaScheme(bits=256), seed=3, env=cached_env
        )
        second = run_trial(
            graph, t=1, scheme=RsaScheme(bits=256), seed=3, env=cached_env
        )
        # The second run reuses the whole interned deployment (keys and
        # proofs), so the key pool is only consulted by the first build.
        assert ARTIFACTS.stats.deployment_hits == 1
        assert ARTIFACTS.stats.deployment_misses == 1
        assert ARTIFACTS.stats.key_pool_misses == 1
        for result in (first, second):
            assert result.verdicts == plain.verdicts
            assert result.stats.bytes_sent == plain.stats.bytes_sent
            assert result.ground_truth == plain.ground_truth

    def test_hmac_pooled_deployment_still_verifies(self):
        graph = harary_graph(2, 8)
        env = EnvironmentSpec(artifacts=True)
        first = run_trial(graph, t=1, seed=0, env=env)
        second = run_trial(graph, t=1, seed=0, env=env)
        baseline = run_trial(graph, t=1, seed=0)
        assert first.verdicts == second.verdicts == baseline.verdicts
        assert first.stats.bytes_sent == baseline.stats.bytes_sent

    def test_ground_truth_served_from_certificate_store(self):
        graph = harary_graph(3, 9)
        direct = compute_ground_truth(graph, 1, frozenset())
        cached = compute_ground_truth(graph, 1, frozenset(), artifacts=True)
        again = compute_ground_truth(graph, 1, frozenset(), artifacts=True)
        assert cached == again == direct
        assert ARTIFACTS.stats.connectivity_hits == 1
        assert ARTIFACTS.stats.connectivity_misses == 1

    def test_build_deployment_uses_pool_scheme(self):
        graph = harary_graph(2, 6)
        first = build_deployment(graph, seed=5, artifacts=True)
        second = build_deployment(graph, seed=5, artifacts=True)
        assert first.key_store is second.key_store
        assert second.scheme is first.key_store.scheme


# ----------------------------------------------------------------------
# Environment knobs and the on-disk layer
# ----------------------------------------------------------------------
class TestEnvironmentKnobs:
    def test_default_environment_payload_unchanged(self):
        """The new fields must not disturb pre-existing spec digests."""
        assert DEFAULT_ENVIRONMENT.payload() == {}
        assert not DEFAULT_ENVIRONMENT.artifacts
        assert DEFAULT_ENVIRONMENT.scheme == ""

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ExperimentError, match="unknown signature scheme"):
            EnvironmentSpec(scheme="dsa").validate()

    def test_artifact_axis_coercion(self):
        resolved = SWEEP_ENGINE.resolve(
            "fig3", overrides={"env.artifacts": "true", "env.scheme": "rsa-256"}
        )
        assert resolved.env.artifacts is True
        assert resolved.env.scheme == "rsa-256"

    def test_artifact_store_round_trip(self, tmp_path):
        overrides = {"ns": (8,), "ks": (2,), "env.artifacts": True}
        first = SWEEP_ENGINE.run(
            "fig3", overrides=dict(overrides), artifact_store=tmp_path
        )
        stores = list(tmp_path.glob("artifacts-fig3-*.pkl"))
        assert len(stores) == 1
        clear_artifact_cache()
        second = SWEEP_ENGINE.run(
            "fig3", overrides=dict(overrides), artifact_store=tmp_path
        )
        assert _figure_fingerprint(second) == _figure_fingerprint(first)
        # The reloaded store answered the topology without a rebuild.
        assert ARTIFACTS.stats.topology_hits >= 1

    def test_store_untouched_without_artifact_cells(self, tmp_path):
        SWEEP_ENGINE.run(
            "fig3", overrides={"ns": (8,), "ks": (2,)}, artifact_store=tmp_path
        )
        assert list(tmp_path.glob("*.pkl")) == []

    def test_scope_builds_nothing_ahead_of_the_cells(self):
        """Each artifact is built by the first cell that asks for it:
        entering the scope of an attack sweep interns no topology and
        certifies no graph."""
        resolved = SWEEP_ENGINE.resolve(
            "fig8", overrides={"n": 13, "ts": (1, 2), "trials": 2, "env.artifacts": True}
        )
        _plan, cells = SWEEP_ENGINE.prepare(resolved)
        with artifact_scope(resolved, cells) as snapshot:
            assert len(ARTIFACTS) == 0 and ARTIFACTS.stats.total() == 0
        assert not any(snapshot[store] for store in STORES)


# ----------------------------------------------------------------------
# Worker deltas (DESIGN.md §9.2): drain / merge / sharded persistence
# ----------------------------------------------------------------------
class TestWorkerDeltas:
    @pytest.mark.parametrize("store", sorted(STORES))
    def test_drain_reports_only_new_entries(self, store):
        counter, lookup, build = STORES[store]
        cache = ArtifactCache()
        a = lookup(cache, 0, build)
        first = cache.drain_delta()
        assert list(first[store].values()) == [a]
        assert first["stats"][f"{counter}_misses"] == 1
        lookup(cache, 0, build)  # hit: no new entry
        b = lookup(cache, 1, build)
        second = cache.drain_delta()
        assert list(second[store].values()) == [b]
        assert second["stats"][f"{counter}_hits"] == 1
        assert second["stats"][f"{counter}_misses"] == 1
        assert not any(second[other] for other in STORES if other != store)

    def test_adopt_starts_a_fresh_window(self):
        parent = ArtifactCache()
        parent.topology("warm", lambda: "W")
        worker = ArtifactCache()
        worker.topology("stale", lambda: "S")
        worker.adopt(parent.snapshot())
        worker.topology("warm", lambda: "never-built")  # hit on warm-up
        worker.topology("fresh", lambda: "F")
        delta = worker.drain_delta()
        assert set(delta["topologies"]) == {"fresh"}  # not the warm-up set
        assert delta["stats"]["topology_hits"] == 1
        assert delta["stats"]["topology_misses"] == 1

    def test_merge_unions_entries_and_adds_counters(self):
        parent = ArtifactCache()
        parent.topology("a", lambda: "A")
        worker = ArtifactCache()
        worker.adopt(parent.snapshot())
        worker.connectivity(Graph(3, [(0, 1), (1, 2)]), None, lambda: 1)
        delta = worker.drain_delta()
        parent.merge_delta(delta)
        assert parent.connectivity(
            Graph(3, [(0, 1), (1, 2)]), None, lambda: 99
        ) == 1  # served from the merged certificate, not recomputed
        assert parent.stats.connectivity_misses == 1  # the worker's miss
        assert parent.stats.connectivity_hits == 1  # the parent's hit

    def test_absorb_merges_only_deltas_from_other_processes(self):
        worker = ArtifactCache()
        worker.topology("w", lambda: "W")
        delta = worker.drain_delta()
        values = [None, None]
        # Ran here: the lookups are already in this process's counters.
        absorb_shard(
            values, [1], {"values": [7.0], "delta": delta, "origin": _process_origin()}
        )
        assert values == [None, 7.0]
        assert ARTIFACTS.stats.topology_misses == 0
        absorb_shard(values, [0], {"values": [5.0], "delta": delta, "origin": "w-1"})
        assert values == [5.0, 7.0]
        assert ARTIFACTS.stats.topology_misses == 1

    def test_merge_ignores_foreign_versions(self):
        cache = ArtifactCache()
        cache.merge_delta({"version": 999, "topologies": {"x": "X"}})
        assert len(cache) == 0

    def test_sharded_store_persists_worker_certificates(self, tmp_path):
        """The on-disk snapshot of a sharded run must include artifacts
        first computed inside workers (certificates, key pools), which
        reach the parent only through the workers' deltas."""
        overrides = {
            "families": ("k-diamond",),
            "n": 14,
            "k": 4,
            "ts": (2,),
            "trials": 2,
            "env.artifacts": True,
        }
        SWEEP_ENGINE.run(
            "connectivity-resilience",
            overrides=overrides,
            workers=2,
            artifact_store=tmp_path,
        )
        parent_hits = ARTIFACTS.stats.hits()
        assert parent_hits > 0
        # κ certificates are only computed inside trials — i.e. inside
        # workers under sharding — so their presence in the snapshot
        # proves the deltas were merged back.
        snapshots = list(tmp_path.glob("artifacts-*.pkl"))
        assert len(snapshots) == 1
        fresh = ArtifactCache()
        assert fresh.load(snapshots[0])
        assert len(fresh.snapshot()["connectivity"]) > 0

    def test_sharded_stats_cover_the_process_tree(self):
        overrides = {"ns": (8, 10), "ks": (2, 4), "env.artifacts": True}
        SWEEP_ENGINE.run("fig3", overrides=dict(overrides), workers=2)
        sharded = ARTIFACTS.stats.counters()
        clear_artifact_cache()
        SWEEP_ENGINE.run("fig3", overrides=dict(overrides))
        serial = ARTIFACTS.stats.counters()
        # Workers reported their activity back exactly once: every store
        # saw the same number of lookups as the serial run (hits and
        # misses may split differently across worker caches).
        for store in ("topology", "key_pool", "deployment"):
            lookups = {
                name: counters[f"{store}_hits"] + counters[f"{store}_misses"]
                for name, counters in (("sharded", sharded), ("serial", serial))
            }
            assert lookups["sharded"] == lookups["serial"] > 0, store

    @pytest.mark.parametrize("artifacts", [False, True])
    def test_trial_cells_share_a_shard_per_topology(self, artifacts):
        overrides = {"n": 13, "ts": (1, 2), "trials": 2, "env.artifacts": artifacts}
        resolved = SWEEP_ENGINE.resolve("fig8", overrides=overrides)
        _, cells = SWEEP_ENGINE.prepare(resolved)
        shards = colocation_chunks(cells, _cell_colocation_key)
        if not artifacts:
            assert [len(shard) for shard in shards] == [1] * len(cells)
            return
        # NECTAR and MtGv2 attack one scenario: they share its shard.
        assert all(len({cells[i].topology for i in shard}) == 1 for shard in shards)
        assert len(shards) == len({cell.topology for cell in cells}) < len(cells)

    def test_sharded_sweep_builds_each_topology_once(self):
        overrides = {"n": 13, "ts": (1, 2), "trials": 2, "env.artifacts": True}
        SWEEP_ENGINE.run("fig8", overrides=dict(overrides))
        serial = ARTIFACTS.stats.topology_misses
        clear_artifact_cache()
        SWEEP_ENGINE.run("fig8", overrides=dict(overrides), workers=2)
        assert ARTIFACTS.stats.topology_misses == serial > 0


# ----------------------------------------------------------------------
# Pinned reuse: row digests and one miss per distinct key
# ----------------------------------------------------------------------
def _rows_sha256(figure) -> str:
    """sha256 of the flat rows (series, x, mean, CI half-width, trials)."""
    rows = [
        [series.name, point.x, point.mean, point.ci_half_width, point.trials]
        for series in figure.series
        for point in series.points
    ]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


#: name -> (sweep, overrides, rows sha256, misses of the topology,
#: connectivity, key-pool and deployment stores).  Each miss count is
#: the number of distinct keys the sweep asks its store for; a second
#: miss on any key means reuse broke, even when the rows survive.
REUSE_PINS = {
    # 5 cells, one k-regular graph each, all at n = 8 and seed 0: one
    # RSA key pool behind 5 deployments; cost cells certify nothing.
    "rsa-keygen": (
        "fig3",
        {"ns": (8,), "ks": (2, 3, 4, 5, 6), "env.scheme": "rsa-1024"},
        "1d7f6c9956e30370b16f6bb1e37cef31d59a418456e6d62300609c50bf7c94a8",
        (5, 0, 1, 5),
    ),
    # 2 families x 2 seeds: 4 split scenarios, each certified once for
    # its three protocol series; one key pool per seed.
    "connectivity-resilience": (
        "connectivity-resilience",
        {
            "families": ("k-regular", "k-diamond"),
            "n": 14,
            "k": 4,
            "ts": (2,),
            "trials": 2,
        },
        "cb57f43c0859a4eed07bdceb0fd21f83f448f980d0de21021f775e32f0ed2114",
        (4, 4, 2, 4),
    ),
    # 4 topology specs at trial seed 0 (one key pool); both k-diamond
    # seeds build the same graph, so 3 deployments.
    "topology-interning": (
        "topology-comparison",
        {"families": ("k-regular", "k-diamond"), "n": 14, "k": 4, "trials": 2},
        "2bb61def032e87a6d764dced182d7aaa247d747c259d824284ff5c1f2dd72100",
        (4, 0, 1, 3),
    ),
    # 2 missions, one trajectory and one key pool each (keys do not
    # rotate mid-mission); 10 epoch deployments over 9 distinct graphs.
    "partition-detection": (
        "partition-detection",
        {"trials": 2, "epochs": 5, "drifts": (1.0,), "env.scheme": "rsa-512"},
        "ce8e24a89265f9d08b8188678857dab79a2a843cf742e1b84333d509d09c499a",
        (2, 9, 2, 10),
    ),
}


class TestReusePins:
    """Serial sweeps with artifacts on, from a cold start.

    The digests hold on either trial engine (the ``REPRO_NO_NUMPY=1``
    job runs them on the scheduler); the miss counts are exact and
    machine-independent, unlike a wall-clock ratio of cache on to off.
    """

    @pytest.mark.parametrize("name", sorted(REUSE_PINS))
    def test_rows_and_misses_pinned(self, name):
        figure_id, overrides, digest, misses = REUSE_PINS[name]
        # A mission memoised by an earlier test would skip its lookups.
        clear_mission_memo()
        figure = SWEEP_ENGINE.run(
            figure_id,
            scale="reduced",
            overrides={**overrides, "env.artifacts": True},
        )
        assert _rows_sha256(figure) == digest
        stats = ARTIFACTS.stats
        assert (
            stats.topology_misses,
            stats.connectivity_misses,
            stats.key_pool_misses,
            stats.deployment_misses,
        ) == misses
