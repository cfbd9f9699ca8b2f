"""Tests for the sharded trial executor (DESIGN.md §6.3).

The contract under test: sweeps produce *identical result rows* for
any worker count, because every cell is a pure function of its
argument tuple — seeds travel in the arguments, never through ambient
RNG state or shared mutable objects.
"""

from __future__ import annotations

import random

import pytest

from repro.experiments.parallel import (
    WORKERS_ENV,
    parallel_map,
    resolve_workers,
    trial_seeds,
)
from repro.experiments.spec import run_figure


def _seeded_cell(args):
    """A cell whose output depends only on its explicit seed."""
    seed, scale = args
    rng = random.Random(seed)
    return scale * sum(rng.random() for _ in range(10))


def _identity_cell(item):
    return item


class TestResolveWorkers:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert resolve_workers(None) == 1

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "7")
        assert resolve_workers(3) == 3

    def test_env_variable(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert resolve_workers(None) == 5

    def test_zero_means_cpu_count(self):
        assert resolve_workers(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(-2)


class TestTrialSeeds:
    def test_deterministic(self):
        assert trial_seeds(42, 8) == trial_seeds(42, 8)

    def test_prefix_stable(self):
        assert trial_seeds(42, 16)[:8] == trial_seeds(42, 8)

    def test_unique_within_and_across_bases(self):
        a = trial_seeds(1, 64)
        b = trial_seeds(2, 64)
        assert len(set(a)) == 64
        assert not set(a) & set(b)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            trial_seeds(0, -1)


class TestParallelMap:
    @pytest.mark.parametrize("workers", [None, 1, 2, 3])
    def test_order_and_values_preserved(self, workers):
        items = [(seed, 2.0) for seed in range(12)]
        expected = [_seeded_cell(item) for item in items]
        assert parallel_map(_seeded_cell, items, workers=workers) == expected

    def test_empty_items(self):
        assert parallel_map(_identity_cell, [], workers=4) == []

    def test_single_item_stays_serial(self):
        assert parallel_map(_identity_cell, ["x"], workers=8) == ["x"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_ambient_rng_isolation(self, workers):
        """Cells must not read global RNG state: perturbing it between
        runs cannot change the results."""
        items = [(seed, 1.0) for seed in range(6)]
        random.seed(123)
        first = parallel_map(_seeded_cell, items, workers=workers)
        random.seed(999)
        second = parallel_map(_seeded_cell, items, workers=workers)
        assert first == second


class TestSweepEquivalence:
    """Serial and parallel sweeps must emit identical result rows."""

    def test_fig3_rows_identical_for_any_worker_count(self):
        overrides = {"ns": (8, 10, 12), "ks": (2, 3)}
        serial = run_figure("fig3", overrides=overrides)
        for workers in (2, 3):
            parallel = run_figure("fig3", overrides=overrides, workers=workers)
            assert parallel == serial

    def test_fig8_rows_identical_under_sharding(self):
        overrides = {"n": 13, "ts": (1,), "trials": 2}
        serial = run_figure("fig8", overrides=overrides)
        parallel = run_figure("fig8", overrides=overrides, workers=2)
        assert parallel == serial

    def test_workers_env_variable_reaches_sweeps(self, monkeypatch):
        overrides = {"ns": (8, 10), "ks": (2,)}
        serial = run_figure("fig3", overrides=overrides)
        monkeypatch.setenv(WORKERS_ENV, "2")
        assert run_figure("fig3", overrides=overrides) == serial


def _pid_cell(item):
    """A cell that reports which worker process ran it."""
    import os

    return (os.getpid(), item)


def _parity_key(item):
    return item % 2


def _no_key(item):
    return None


class TestColocation:
    """``colocate`` is a placement hint: equal keys share one worker,
    results are bit-identical either way (the mission sweeps rely on
    this to hit one worker's memo with all of a mission's series)."""

    def test_chunks_group_by_key_in_first_appearance_order(self):
        from repro.experiments.parallel import colocation_chunks

        keys = ["a", None, "a", "b", None, "b"]
        chunks = colocation_chunks(keys, lambda item: item)
        assert chunks == [[0, 2], [1], [3, 5], [4]]

    def test_equal_keys_share_a_worker(self):
        results = parallel_map(
            _pid_cell, list(range(6)), workers=3, colocate=_parity_key
        )
        assert [item for _, item in results] == list(range(6))
        pids_by_key = {}
        for pid, item in results:
            pids_by_key.setdefault(_parity_key(item), set()).add(pid)
        assert all(len(pids) == 1 for pids in pids_by_key.values())

    def test_results_identical_with_and_without_colocation(self):
        items = [(seed, 1.5) for seed in range(8)]
        plain = parallel_map(_seeded_cell, items, workers=2)
        colocated = parallel_map(
            _seeded_cell, items, workers=2, colocate=lambda item: item[0] % 3
        )
        assert colocated == plain == [_seeded_cell(item) for item in items]

    def test_all_none_keys_fall_back_to_plain_sharding(self):
        items = list(range(5))
        assert parallel_map(
            _identity_cell, items, workers=2, colocate=_no_key
        ) == items

    def test_serial_path_ignores_colocation(self):
        items = list(range(4))
        assert parallel_map(
            _identity_cell, items, workers=1, colocate=_parity_key
        ) == items
