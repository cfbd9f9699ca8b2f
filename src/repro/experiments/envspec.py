"""EnvironmentSpec: the declarative environment behind every trial
(DESIGN.md §8).

The paper's system model fixes reliable synchronous channels, yet its
own evaluation steps off-model twice (MtG's 40% loss tolerance,
Sec. VI-A; the salticidae "real code" leg, Sec. V-B).  Historically the
knobs for those regimes — ``backend=`` string dispatch, ``loss_rate``,
validation/cache/quiescence toggles — were loose ``run_trial`` kwargs,
invisible to the sweep layer.  :class:`EnvironmentSpec` packages them
into one frozen, picklable cell that composes:

* a **channel model** (:data:`repro.net.channel.CHANNEL_MODELS`):
  ``reliable`` | ``lossy`` | ``jittered`` | ``mobility`` |
  ``budgeted``;
* an **execution backend** (:data:`repro.net.channel.BACKENDS`):
  ``sync`` | ``async``;
* the **validation / cache / quiescence** execution knobs.

Every :class:`~repro.experiments.spec.TrialSpec` carries one (the
default environment reproduces the paper's model bit-identically), and
the sweep engine addresses its fields as ``env.*`` axes, so

.. code-block:: sh

    repro sweep fig3 --set env.loss_rate=0.4
    repro sweep fig8 --set env.backend=async

work on *any* registered sweep.  Default environments are omitted from
resolved-sweep payloads, so pre-existing spec digests (and the
artefacts keyed by them) are unchanged.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.crypto import SCHEME_FACTORIES
from repro.errors import ChannelError, ExperimentError
from repro.net.channel import (
    BACKENDS,
    CHANNEL_MODELS,
    ChannelModel,
    channel_model,
)

#: values accepted by :attr:`EnvironmentSpec.validation`; "" defers to
#: the caller (cost trials keep ACCOUNTING, adversarial trials FULL).
VALIDATION_CHOICES = ("", "full", "accounting")

#: channel-parameter field -> the channel profile that consumes it.
#: :meth:`EnvironmentSpec.validate` rejects a non-default value whose
#: resolved channel would silently ignore it (an archived spec must
#: never record a parameter that had no effect on the run).
_CHANNEL_PARAMS = {
    "loss_rate": "lossy",
    "jitter_ms": "jittered",
    "reach": "mobility",
    "arena": "mobility",
    "speed": "mobility",
    "bandwidth": "budgeted",
    "latency_ms": "budgeted",
}


@dataclass(frozen=True)
class EnvironmentSpec:
    """Where and how a trial executes: channel × backend × knobs.

    Every field is a plain picklable value; channel models and
    backends are referenced by registry name, mirroring how
    :class:`~repro.experiments.spec.TrialSpec` references protocols
    and wire profiles.  The default instance *is* the paper's model
    (reliable synchronous channels, full caching, quiescence skip on)
    and executes bit-identically to the historical code path.

    Attributes:
        backend: execution backend name
            (:data:`repro.net.channel.BACKENDS`).
        channel: channel-model name
            (:data:`repro.net.channel.CHANNEL_MODELS`); "" auto-selects
            ``lossy`` when ``loss_rate`` > 0, else ``budgeted`` when
            ``bandwidth``/``latency_ms`` are set, else ``reliable``.
        loss_rate: per-message drop probability for the ``lossy``
            channel (sync backend only; the paper's model is 0.0).
        jitter_ms: in-round delivery jitter bound for the ``jittered``
            channel (observable on the asyncio backend).
        reach: radio reach of the ``mobility`` channel.
        arena: arena side length of the ``mobility`` channel.
        speed: per-round node speed of the ``mobility`` channel.
        bandwidth: per-round deliveries per sender of the ``budgeted``
            channel (0 = unlimited; the radio is a shared medium, so
            the budget spans all of a node's links).  Lets missions
            *degrade* links rather than only rewire them
            (DESIGN.md §10).
        latency_ms: per-delivery latency bound of the ``budgeted``
            channel (observable on the asyncio backend).
        validation: override of the trial's validation mode
            (:data:`VALIDATION_CHOICES`; "" keeps the caller default).
        scheme: override of the trial's signature scheme, by registry
            name (:data:`repro.crypto.SCHEME_FACTORIES`; "" keeps the
            caller default).  Makes keygen-cost regimes sweepable:
            ``--set env.scheme=rsa-512`` puts real Miller–Rabin key
            generation behind every cell of any sweep.
        cache: share one verification cache per trial (DESIGN.md §6.1).
        artifacts: consult the sweep-scoped
            :data:`~repro.experiments.artifacts.ARTIFACTS` cache for
            trial-invariant work — interned topologies/scenarios,
            connectivity certificates, signer key pools (DESIGN.md §9).
            Off by default: the default environment must execute (and
            hash) exactly like the historical code path, and a shared
            cross-trial store is something a determinism audit should
            have to opt into.  Equivalence-tested either way.
        quiescence_skip: sync scheduler short-circuit (DESIGN.md §6.2).
    """

    backend: str = "sync"
    channel: str = ""
    loss_rate: float = 0.0
    jitter_ms: float = 0.0
    reach: float = 2.5
    arena: float = 5.0
    speed: float = 0.5
    bandwidth: int = 0
    latency_ms: float = 0.0
    validation: str = ""
    scheme: str = ""
    cache: bool = True
    artifacts: bool = False
    quiescence_skip: bool = True

    def resolved_channel(self) -> str:
        """The effective channel-model name ("" auto-resolution)."""
        if self.channel:
            return self.channel
        if self.loss_rate > 0.0:
            return "lossy"
        if self.bandwidth > 0 or self.latency_ms > 0.0:
            return "budgeted"
        return "reliable"

    def channel_model(self) -> ChannelModel:
        """Instantiate this environment's channel model.

        Raises:
            ExperimentError: on unknown names or invalid parameters.
        """
        name = self.resolved_channel()
        params: dict[str, object] = {}
        if name == "lossy":
            params["loss_rate"] = self.loss_rate
        elif name == "jittered":
            params["jitter_ms"] = self.jitter_ms
        elif name == "mobility":
            params.update(reach=self.reach, arena=self.arena, speed=self.speed)
        elif name == "budgeted":
            params.update(bandwidth=self.bandwidth, latency_ms=self.latency_ms)
        try:
            return channel_model(name, **params)
        except ChannelError as exc:
            raise ExperimentError(str(exc)) from exc

    def validate(self) -> None:
        """Check the spec against the registries and model constraints.

        Raises:
            ExperimentError: on unknown backend/channel/validation
                names, out-of-range channel parameters, or a channel
                the chosen backend cannot host (i.i.d. loss is only
                modelled on the sync backend).
        """
        if self.backend not in BACKENDS:
            raise ExperimentError(
                f"unknown backend {self.backend!r}; known: {sorted(BACKENDS)}"
            )
        if self.channel and self.channel not in CHANNEL_MODELS:
            raise ExperimentError(
                f"unknown channel model {self.channel!r}; "
                f"known: {sorted(CHANNEL_MODELS)}"
            )
        if self.validation not in VALIDATION_CHOICES:
            raise ExperimentError(
                f"unknown validation {self.validation!r}; "
                f"known: {[v for v in VALIDATION_CHOICES if v]}"
            )
        if self.scheme and self.scheme not in SCHEME_FACTORIES:
            raise ExperimentError(
                f"unknown signature scheme {self.scheme!r}; "
                f"known: {sorted(SCHEME_FACTORIES)}"
            )
        resolved = self.resolved_channel()
        for name, owner in _CHANNEL_PARAMS.items():
            if owner != resolved and getattr(self, name) != getattr(
                DEFAULT_ENVIRONMENT, name
            ):
                raise ExperimentError(
                    f"env.{name} only applies to the {owner!r} channel "
                    f"(this environment resolves to {resolved!r}); "
                    f"set env.channel={owner}"
                )
        model = self.channel_model()  # raises on bad parameters
        if self.backend != "sync" and not model.async_safe:
            # Delivery-order-dependent models (i.i.d. loss, finite
            # bandwidth budgets) are only modelled on the sync backend.
            raise ExperimentError(
                f"the {resolved!r} channel configuration is delivery-order "
                "dependent and only modelled on the sync backend"
            )

    @property
    def is_default(self) -> bool:
        """Whether this is the paper's default environment."""
        return self == DEFAULT_ENVIRONMENT

    def payload(self) -> dict:
        """JSON-safe non-default fields, for spec hashing.

        Only fields that differ from the default environment appear,
        so default environments hash to nothing (pre-environment spec
        digests are preserved) and future fields never disturb old
        digests.
        """
        return {
            field.name: getattr(self, field.name)
            for field in dataclasses.fields(self)
            if getattr(self, field.name) != getattr(DEFAULT_ENVIRONMENT, field.name)
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "EnvironmentSpec":
        """Rebuild a spec from :meth:`payload` output (or overrides).

        Raises:
            ExperimentError: on unknown fields or uncoercible values.
        """
        return environment_from_overrides(payload)

    def with_fields(
        self, override: "EnvironmentSpec", names: Sequence[str]
    ) -> "EnvironmentSpec":
        """This environment with ``override``'s values for ``names``.

        The merge rule behind global ``env.*`` sweep overrides: exactly
        the fields the user *named* are applied — whether or not their
        value happens to be the default — so ``--set env.backend=async``
        retargets a lossy scenario's cells without discarding their
        loss rates (the combination is then rejected by
        :meth:`validate`, loudly), and ``--set env.loss_rate=0.0``
        genuinely forces a lossy scenario's channels reliable instead
        of being silently dropped.
        """
        if not names:
            return self
        return dataclasses.replace(
            self, **{name: getattr(override, name) for name in names}
        )


#: the paper's model; the ``env`` every spec carries unless overridden.
DEFAULT_ENVIRONMENT = EnvironmentSpec()

_TRUE_WORDS = frozenset({"true", "yes", "on", "1"})
_FALSE_WORDS = frozenset({"false", "no", "off", "0"})


def _coerce(name: str, default: object, value: object) -> object:
    """Coerce one override to its field's type, with real errors.

    Values arrive from three sources with different native types —
    library calls (typed), ``--set`` text (str/int/float scalars) and
    JSON spec files (JSON types) — and must all land on the same spec
    (hence the same digest).
    """
    if isinstance(default, bool):
        if isinstance(value, bool):
            return value
        if isinstance(value, int) and value in (0, 1):
            return bool(value)
        if isinstance(value, str):
            word = value.strip().lower()
            if word in _TRUE_WORDS:
                return True
            if word in _FALSE_WORDS:
                return False
        raise ExperimentError(f"env.{name} expects a boolean, got {value!r}")
    if isinstance(default, int) and not isinstance(default, bool):
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ExperimentError(f"env.{name} expects an integer, got {value!r}")
    if isinstance(default, float):
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
        raise ExperimentError(f"env.{name} expects a number, got {value!r}")
    if isinstance(default, str):
        if isinstance(value, str):
            return value
        raise ExperimentError(f"env.{name} expects a name, got {value!r}")
    return value  # pragma: no cover - no other field types exist


def environment_from_overrides(
    overrides: Mapping[str, object] | None,
) -> EnvironmentSpec:
    """Build an environment from ``env.*`` axis overrides.

    Args:
        overrides: field name -> value (names *without* the ``env.``
            prefix).  None or empty returns the default environment.

    Raises:
        ExperimentError: on unknown field names or uncoercible values.
    """
    if not overrides:
        return DEFAULT_ENVIRONMENT
    defaults = {
        field.name: getattr(DEFAULT_ENVIRONMENT, field.name)
        for field in dataclasses.fields(EnvironmentSpec)
    }
    changes = {}
    for name, value in overrides.items():
        if name not in defaults:
            raise ExperimentError(
                f"unknown environment axis env.{name}; "
                f"known: {['env.' + key for key in defaults]}"
            )
        changes[name] = _coerce(name, defaults[name], value)
    return dataclasses.replace(DEFAULT_ENVIRONMENT, **changes)


def environment_axis_names() -> list[str]:
    """The ``env.*`` axis names every sweep accepts."""
    return [f"env.{field.name}" for field in dataclasses.fields(EnvironmentSpec)]


__all__ = [
    "DEFAULT_ENVIRONMENT",
    "EnvironmentSpec",
    "VALIDATION_CHOICES",
    "environment_axis_names",
    "environment_from_overrides",
]
