"""The layer tracer: self-time arithmetic, alias patching, restoration."""

import sys
import types

import pytest

import tracer as tracing
from tracer import Target, Tracer


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture
def synthetic(monkeypatch):
    """A fake ``repro`` module of nested functions on a fake clock, plus
    a second module importing one of them by name (an alias)."""
    clock = FakeClock()
    module = types.ModuleType("repro._tracer_fixture")

    def leaf():
        clock.now += 3.0

    def middle():
        clock.now += 1.0
        module.leaf()
        module.leaf()
        clock.now += 2.0

    def outer():
        clock.now += 0.5
        module.middle()
        clock.now += 0.25

    module.leaf, module.middle, module.outer = leaf, middle, outer
    alias = types.ModuleType("repro._tracer_alias")
    alias.leaf = leaf
    monkeypatch.setitem(sys.modules, module.__name__, module)
    monkeypatch.setitem(sys.modules, alias.__name__, alias)
    return clock, module, alias


def test_self_time_subtracts_direct_children(synthetic):
    clock, module, _ = synthetic
    tracer = Tracer(clock=clock)
    targets = [
        Target("outer", "repro._tracer_fixture:outer", "calls"),
        Target("middle", "repro._tracer_fixture:middle", "calls"),
        Target("leaf", "repro._tracer_fixture:leaf", "calls"),
    ]
    with tracer.installed(targets):
        module.outer()
    assert tracer.value("leaf", "calls") == 2
    assert tracer.value("leaf", "self_s") == pytest.approx(6.0)
    assert tracer.value("middle", "self_s") == pytest.approx(3.0)
    assert tracer.value("outer", "self_s") == pytest.approx(0.75)
    assert tracer.covered_s() == pytest.approx(9.75)


def test_same_layer_nesting_counts_each_interval_once(synthetic):
    clock, module, _ = synthetic
    tracer = Tracer(clock=clock)
    targets = [
        Target("one", "repro._tracer_fixture:outer"),
        Target("one", "repro._tracer_fixture:leaf"),
    ]
    with tracer.installed(targets):
        module.outer()
    assert tracer.value("one", "self_s") == pytest.approx(9.75)


def test_function_targets_patch_every_alias(synthetic):
    clock, module, alias = synthetic
    original = module.leaf
    tracer = Tracer(clock=clock)
    with tracer.installed([Target("leaf", "repro._tracer_fixture:leaf", "calls")]):
        assert module.leaf is not original
        assert alias.leaf is module.leaf
        alias.leaf()
        module.middle()
    assert tracer.value("leaf", "calls") == 3
    assert module.leaf is original and alias.leaf is original


def test_observer_sees_enclosing_layer(synthetic):
    clock, module, _ = synthetic
    seen = []
    tracer = Tracer(clock=clock)
    targets = [
        Target("middle", "repro._tracer_fixture:middle"),
        Target(
            "leaf",
            "repro._tracer_fixture:leaf",
            observe=lambda t, args, result: seen.append(t.inside("middle")),
        ),
    ]
    with tracer.installed(targets):
        module.leaf()
        module.middle()
    assert seen == [False, True, True]


def test_vertex_connectivity_is_wrapped_at_both_import_sites():
    import repro.core.decision as decision
    import repro.experiments.runner as runner
    import repro.graphs.connectivity as connectivity

    original = connectivity.vertex_connectivity
    assert decision.vertex_connectivity is original
    assert runner.vertex_connectivity is original
    tracer = Tracer()
    with tracer.installed(tracing.all_targets()):
        wrapped = connectivity.vertex_connectivity
        assert wrapped is not original
        assert decision.vertex_connectivity is wrapped
        assert runner.vertex_connectivity is wrapped
    assert decision.vertex_connectivity is original
    assert runner.vertex_connectivity is original


def test_uninstall_restores_every_patched_attribute():
    import repro  # noqa: F401 - loads every layer the targets name
    from repro.net.simulator import SyncNetwork

    run = vars(SyncNetwork)["run"]
    tracer = Tracer()
    tracer.install(tracing.all_targets())
    patched = tracer.patched
    try:
        assert not tracer.missing
        assert vars(SyncNetwork)["run"] is not run
        assert any(
            layer.layer == "crypto.signer" for layer in tracing.signer_targets()
        )
    finally:
        tracer.uninstall()
    assert len(patched) > len(tracing.LAYER_TARGETS)
    for owner, name, original in patched:
        assert vars(owner)[name] is original, f"{owner}.{name} not restored"
    assert tracer.patched == []


def test_missing_targets_are_reported_not_fatal():
    tracer = Tracer()
    with tracer.installed(
        [
            Target("gone", "repro.no_such_module:f"),
            Target("gone", "repro.experiments.spec:no_such_function"),
            Target("gone", "repro.experiments.spec:SweepEngine.no_such_method"),
        ]
    ):
        pass
    assert len(tracer.missing) == 3
