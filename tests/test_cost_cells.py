"""Cost cells answered by the closed form's traffic view (DESIGN.md §15.4).

An honest, batched NECTAR cost cell whose trial would run crypto-free on
the closed form and leave nothing observable but its traffic is answered
by ``predict_nectar_traffic`` — no deployment, no nodes, no verdicts.
Every other cell still runs its one trial, and the scheduler switch
sends every cell through the full trial, which is what the property
below compares against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.experiments.spec as spec_module
from repro import perf
from repro.core.nectar import NectarNode
from repro.experiments import runner
from repro.experiments.artifacts import clear_artifact_cache
from repro.experiments.envspec import EnvironmentSpec
from repro.experiments.runner import nectar_cost_trial
from repro.experiments.scenarios import TOPOLOGY_FAMILIES
from repro.experiments.spec import (
    PROFILES,
    SWEEP_ENGINE,
    TopologySpec,
    TrialSpec,
    execute_trial,
)
from repro.graphs.graph import Graph
from repro.perf import fastpath


@pytest.fixture(autouse=True)
def _closed_form(monkeypatch):
    """Each test starts with the switch unset and a cold artifact cache."""
    monkeypatch.delenv(perf.SCHEDULER_SWITCH, raising=False)
    clear_artifact_cache()
    yield
    clear_artifact_cache()


def _default_nectar_cell(figure: str) -> TrialSpec:
    """The first NECTAR cell of ``figure`` at its default (reduced) scale."""
    _plan, cells = SWEEP_ENGINE.prepare(SWEEP_ENGINE.resolve(figure))
    return next(cell for cell in cells if cell.protocol == "nectar")


def _count_work(monkeypatch) -> Counter:
    """Count trials, deployments, fast-path attempts and NECTAR nodes."""
    counts: Counter = Counter()

    def counting(name, fn):
        def spy(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return spy

    # Cost cells reach run_trial through runner's namespace, batched or
    # not; spec's name is patched too, so no trial escapes the count.
    trial = counting("trials", runner.run_trial)
    for module in (runner, spec_module):
        monkeypatch.setattr(module, "run_trial", trial)
    monkeypatch.setattr(
        runner, "build_deployment", counting("deployments", runner.build_deployment)
    )
    monkeypatch.setattr(
        fastpath, "try_run_trial", counting("attempts", fastpath.try_run_trial)
    )
    monkeypatch.setattr(
        NectarNode, "__init__", counting("nodes", NectarNode.__init__)
    )
    return counts


@pytest.mark.parametrize("figure", ["fig3", "fig6"])
def test_default_cost_cell_runs_no_trial(figure, monkeypatch):
    cell = _default_nectar_cell(figure)
    counts = _count_work(monkeypatch)
    value = execute_trial(cell)
    assert dict(counts) == {}
    assert value > 0


def _env(cell: TrialSpec, **fields) -> TrialSpec:
    return replace(cell, env=replace(cell.env, **fields))


#: cells that must keep their one trial, and whether their value must
#: still equal the default cell's.
_TRIAL_CELLS = {
    "validation-full": (lambda c: _env(c, validation="full"), True),
    "scheme": (lambda c: _env(c, scheme="hmac"), True),
    "artifacts": (lambda c: _env(c, artifacts=True), True),
    "async": (lambda c: _env(c, backend="async"), True),
    "lossy": (lambda c: _env(c, loss_rate=0.3), False),
    "unbatched": (lambda c: replace(c, batching=False), False),
    "scheduler-switch": (lambda c: c, True),
}


@pytest.mark.parametrize("variant", sorted(_TRIAL_CELLS))
@pytest.mark.parametrize("figure", ["fig3", "fig6"])
def test_other_cost_cells_run_one_trial(figure, variant, monkeypatch):
    default = _default_nectar_cell(figure)
    expected = execute_trial(default)
    derive, same_value = _TRIAL_CELLS[variant]
    if variant == "scheduler-switch":
        monkeypatch.setenv(perf.SCHEDULER_SWITCH, "1")  # after import
    counts = _count_work(monkeypatch)
    value = execute_trial(derive(default))
    assert counts["trials"] == 1
    assert counts["deployments"] == 1
    assert counts["nodes"] == default.topology.n
    if same_value:
        assert value == expected


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=16), st.data())
def test_cost_cell_equals_the_scheduled_trial(n, data):
    """The cell's value is ``==`` the full trial on the round scheduler,
    on any graph (disconnected, with isolated nodes), wire profile,
    round budget and quiescence setting."""
    possible = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = data.draw(
        st.lists(st.sampled_from(possible), unique=True) if possible else st.just([])
    )
    graph = Graph(n, edges)
    profile = data.draw(st.sampled_from(["compact", "ecdsa", "payload"]))
    rounds = data.draw(st.just(0) | st.integers(min_value=1, max_value=n + 2))
    env = EnvironmentSpec(quiescence_skip=data.draw(st.booleans()))
    cell = TrialSpec(
        topology=TopologySpec(kind="family", family="drawn", n=n),
        profile=profile,
        rounds=rounds,
        env=env,
    )
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(TOPOLOGY_FAMILIES, "drawn", lambda n, k, seed: graph)
        patch.delenv(perf.SCHEDULER_SWITCH, raising=False)
        counts = _count_work(patch)
        value = execute_trial(cell)
        assert counts["trials"] == 0
        patch.setenv(perf.SCHEDULER_SWITCH, "1")
        scheduled = nectar_cost_trial(
            graph, profile=PROFILES[profile], rounds=rounds or None, env=env
        )
    assert value == scheduled.mean_kb_sent()
