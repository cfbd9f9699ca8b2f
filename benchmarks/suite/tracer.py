"""Outside-in layer tracer for the benchmark's traced run.

The program has no spans of its own, so the traced run wraps the public
functions of each ``repro`` layer from here, for the duration of one
call, and restores every patched attribute afterwards.

* A span is one call of a wrapped function.  Spans keep a stack; a
  span's *self* time is its duration minus the durations of the spans
  it directly encloses, so summing self time over layers never counts
  an interval twice.
* A function target patches every ``repro.*`` module attribute that
  *is* the original object, which catches ``from x import f`` aliases
  (``runner.vertex_connectivity``, ``decision.vertex_connectivity``).
  A method target patches the class attribute once.
* Counters are bumped per call (the target's ``counter``) and by the
  target's ``observe`` hook, which reads the call's arguments and
  result (round counts, traffic bytes, cache hits).

Targets that no longer exist (a later change removed or renamed the
function) are skipped and reported in :attr:`Tracer.missing`; their
layer metrics then read 0.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Iterator


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    Attributes:
        layer: the layer its spans are charged to.
        path: ``"module:attr"`` or ``"module:Class.method"``.
        counter: counter bumped once per call (None: time only).
        observe: ``observe(tracer, args, result)`` after a call that
            returned normally.
    """

    layer: str
    path: str
    counter: str | None = None
    observe: Callable[["Tracer", tuple, object], None] | None = None


class Tracer:
    """Span stack, per-layer self time and per-layer counters."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        #: layer -> counter name -> value; ``self_s`` holds self time.
        self.stats: dict[str, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: target paths that could not be resolved at install time.
        self.missing: list[str] = []
        self._stack: list[list] = []  # [layer, seconds covered by children]
        self._patches: list[tuple[object, str, object]] = []

    # -- counters -----------------------------------------------------
    def count(self, layer: str, name: str, amount: float = 1) -> None:
        self.stats[layer][name] += amount

    def inside(self, layer: str) -> bool:
        """Whether an open span of ``layer`` encloses the current point."""
        return any(frame[0] == layer for frame in self._stack)

    def value(self, layer: str, name: str) -> float:
        return self.stats[layer][name] if layer in self.stats else 0.0

    def covered_s(self) -> float:
        """Total self time over all layers (the time any span covered)."""
        return sum(layer["self_s"] for layer in self.stats.values())

    # -- spans --------------------------------------------------------
    def wrap(self, fn: Callable, target: Target) -> Callable:
        stack = self._stack
        stats = self.stats[target.layer]
        counter = target.counter
        observe = target.observe
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                stats[counter] += 1
            frame = [target.layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stats["self_s"] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    # -- install / restore ----------------------------------------------
    def install(self, targets: list[Target]) -> None:
        for target in targets:
            if not self._install_one(target):
                self.missing.append(target.path)

    def uninstall(self) -> None:
        """Restore every patched attribute, last patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    @contextlib.contextmanager
    def installed(self, targets: list[Target]) -> Iterator["Tracer"]:
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    @property
    def patched(self) -> list[tuple[object, str, object]]:
        """``(owner, attribute, original)`` of every live patch."""
        return list(self._patches)

    def _install_one(self, target: Target) -> bool:
        module_name, _, attr_path = target.path.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, method = attr_path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            if not isinstance(owner, type) or method not in vars(owner):
                return False
            original = vars(owner)[method]
            if not isinstance(original, types.FunctionType):
                return False
            self._patch(owner, method, original, self.wrap(original, target))
            return True
        original = getattr(module, attr_path, None)
        if not callable(original):
            return False
        wrapped = self.wrap(original, target)
        for alias_owner in _repro_modules():
            for name, value in list(vars(alias_owner).items()):
                if value is original:
                    self._patch(alias_owner, name, original, wrapped)
        return True

    def _patch(self, owner: object, name: str, original: object, wrapped) -> None:
        setattr(owner, name, wrapped)
        self._patches.append((owner, name, original))


def _repro_modules() -> list[types.ModuleType]:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


# ----------------------------------------------------------------------
# The layer map: which public functions belong to which layer
# ----------------------------------------------------------------------
def _observe_fastpath(tracer: Tracer, args: tuple, result) -> None:
    if result is not None:
        tracer.count("perf.fastpath", "eligible")


def _observe_network(tracer: Tracer, args: tuple, result) -> None:
    network = args[0]
    tracer.count("net.simulator", "rounds", network.rounds_executed or 0)
    tracer.count("net.simulator", "bytes", network.stats.total_bytes_sent())


def _observe_stacked(tracer: Tracer, args: tuple, result) -> None:
    tracer.count("crypto.signer", "stacked_items", len(args[1]))


def _observe_trial(tracer: Tracer, args: tuple, result) -> None:
    cache_stats = getattr(result, "cache_stats", None)
    if cache_stats is not None:
        tracer.count("crypto.cache", "hits", cache_stats.hits())
        tracer.count("crypto.cache", "misses", cache_stats.misses())


def _observe_kappa(tracer: Tracer, args: tuple, result) -> None:
    if tracer.inside("core.decision"):
        tracer.count("core.decision", "kappa_spans")


LAYER_TARGETS: tuple[Target, ...] = (
    Target(
        "perf.fastpath",
        "repro.perf.fastpath:try_run_trial",
        "calls",
        _observe_fastpath,
    ),
    Target(
        "net.simulator", "repro.net.simulator:SyncNetwork.run", "runs", _observe_network
    ),
    Target("core.validation", "repro.core.validation:AnnouncementValidator.validate", "calls"),
    Target("crypto.batch", "repro.crypto.batch:RoundPrimer.__call__", "calls"),
    Target("crypto.keys", "repro.experiments.runner:build_deployment", "deployments"),
    Target("crypto.keys", "repro.crypto.keys:KeyStore.__init__", "keystores"),
    Target("crypto.keys", "repro.crypto.proofs:make_proof", "proofs"),
    Target(
        "graphs.connectivity",
        "repro.graphs.connectivity:vertex_connectivity",
        "calls",
        _observe_kappa,
    ),
    Target(
        "graphs.connectivity",
        "repro.perf.kernels:certify_graphs",
        "calls",
        _observe_kappa,
    ),
    Target("core.decision", "repro.core.decision:decide", "calls"),
    Target("graphs", "repro.experiments.spec:TopologySpec.build", "calls"),
    Target("graphs", "repro.experiments.spec:TopologySpec.build_scenario", "calls"),
    Target("graphs", "repro.experiments.mission:mission_graphs", "calls"),
    Target("adversary.campaign", "repro.adversary.campaign:plan_placements", "calls"),
    Target("experiments.mission", "repro.experiments.mission:MissionSession.step"),
    Target("experiments.mission", "repro.experiments.mission:run_epoch", "epochs"),
    Target(
        "experiments.runner",
        "repro.experiments.runner:run_trial",
        "trials",
        _observe_trial,
    ),
    Target("experiments.spec", "repro.experiments.spec:SweepEngine.plan"),
    Target("experiments.spec", "repro.experiments.spec:SweepEngine.assemble"),
    Target("experiments.spec", "repro.experiments.spec:execute_trial", "cells"),
    Target("fabric.queue", "repro.fabric.queue:FabricQueue.submit", "ops"),
    Target("fabric.queue", "repro.fabric.queue:FabricQueue.claim", "ops"),
    Target("fabric.queue", "repro.fabric.queue:FabricQueue.write_result", "ops"),
    Target("fabric.queue", "repro.fabric.queue:FabricQueue.read_result", "ops"),
    Target("fabric.queue", "repro.fabric.queue:FabricQueue.completed_shards", "scan_calls"),
)

_SIGNER_METHODS = {
    "sign": ("signs", None),
    "verify": ("verifies", None),
    "verify_stacked": (None, _observe_stacked),
}


def signer_targets() -> list[Target]:
    """``sign`` / ``verify`` / ``verify_stacked`` on every scheme class.

    Walks the live :class:`SignatureScheme` hierarchy, so a scheme added
    later is traced too; abstract declarations are skipped.
    """
    try:
        from repro.crypto.signer import SignatureScheme
    except ImportError:
        return []
    classes: list[type] = []
    pending = [SignatureScheme]
    while pending:
        cls = pending.pop()
        if cls not in classes:
            classes.append(cls)
            pending.extend(cls.__subclasses__())
    targets = []
    for cls in classes:
        for method, (counter, observe) in _SIGNER_METHODS.items():
            fn = vars(cls).get(method)
            if fn is None or getattr(fn, "__isabstractmethod__", False):
                continue
            targets.append(
                Target(
                    "crypto.signer",
                    f"{cls.__module__}:{cls.__qualname__}.{method}",
                    counter,
                    observe,
                )
            )
    return targets


def all_targets() -> list[Target]:
    return list(LAYER_TARGETS) + signer_targets()


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, traced_wall_s: float) -> dict[str, float]:
    """The per-layer metrics one traced call yields, by metric name.

    Metrics measured outside the span stack (artifact hit rates, the
    pool probe, queue bytes, epoch latencies, tracing overhead) are
    added by the caller.
    """
    v = tracer.value
    metrics = {
        "perf.fastpath.calls": v("perf.fastpath", "calls"),
        "perf.fastpath.self_s": v("perf.fastpath", "self_s"),
        "perf.fastpath.eligible_ratio": _ratio(
            v("perf.fastpath", "eligible"), v("perf.fastpath", "calls")
        ),
        "net.simulator.runs": v("net.simulator", "runs"),
        "net.simulator.self_s": v("net.simulator", "self_s"),
        "net.simulator.rounds": v("net.simulator", "rounds"),
        "net.simulator.bytes": v("net.simulator", "bytes"),
        "crypto.signer.signs": v("crypto.signer", "signs"),
        "crypto.signer.verifies": v("crypto.signer", "verifies"),
        "crypto.signer.stacked_items": v("crypto.signer", "stacked_items"),
        "crypto.signer.self_s": v("crypto.signer", "self_s"),
        "core.validation.calls": v("core.validation", "calls"),
        "core.validation.self_s": v("core.validation", "self_s"),
        "crypto.cache.hits": v("crypto.cache", "hits"),
        "crypto.cache.misses": v("crypto.cache", "misses"),
        "crypto.cache.hit_rate": _ratio(
            v("crypto.cache", "hits"),
            v("crypto.cache", "hits") + v("crypto.cache", "misses"),
        ),
        "crypto.batch.calls": v("crypto.batch", "calls"),
        "crypto.batch.self_s": v("crypto.batch", "self_s"),
        "crypto.keys.deployments": v("crypto.keys", "deployments"),
        "crypto.keys.keystores": v("crypto.keys", "keystores"),
        "crypto.keys.proofs": v("crypto.keys", "proofs"),
        "crypto.keys.self_s": v("crypto.keys", "self_s"),
        "graphs.connectivity.calls": v("graphs.connectivity", "calls"),
        "graphs.connectivity.self_s": v("graphs.connectivity", "self_s"),
        "core.decision.calls": v("core.decision", "calls"),
        "core.decision.self_s": v("core.decision", "self_s"),
        "core.decision.kappa_ratio": _ratio(
            v("core.decision", "kappa_spans"), v("core.decision", "calls")
        ),
        "graphs.calls": v("graphs", "calls"),
        "graphs.self_s": v("graphs", "self_s"),
        "adversary.campaign.calls": v("adversary.campaign", "calls"),
        "adversary.campaign.self_s": v("adversary.campaign", "self_s"),
        "experiments.mission.epochs": v("experiments.mission", "epochs"),
        "experiments.mission.self_s": v("experiments.mission", "self_s"),
        "experiments.runner.trials": v("experiments.runner", "trials"),
        "experiments.runner.self_s": v("experiments.runner", "self_s"),
        "experiments.spec.cells": v("experiments.spec", "cells"),
        "experiments.spec.self_s": v("experiments.spec", "self_s"),
        "fabric.queue.ops": v("fabric.queue", "ops") + v("fabric.queue", "scan_calls"),
        "fabric.queue.self_s": v("fabric.queue", "self_s"),
        "fabric.queue.scan_calls": v("fabric.queue", "scan_calls"),
        "trace.coverage": _ratio(tracer.covered_s(), traced_wall_s),
    }
    return metrics
