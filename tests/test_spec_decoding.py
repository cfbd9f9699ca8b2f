"""Property tests of the one JSON decoder behind every spec read from
JSON (:func:`repro.types.decode_spec`).

Every spec round-trips through its JSON form unchanged, and a
wrong-typed value in any one field is an :class:`ExperimentError`
naming that field — never a ``TypeError``, ``ValueError`` or
``AttributeError`` escaping from deeper code (one such line used to
kill the ``repro serve`` daemon).
"""

import dataclasses
import json
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.campaign import (
    ADVERSARY_PROFILES,
    PLACEMENT_POLICIES,
    AdversarySpec,
)
from repro.crypto import SCHEME_FACTORIES
from repro.errors import ExperimentError
from repro.experiments.envspec import BACKENDS, VALIDATION_CHOICES, EnvironmentSpec
from repro.experiments.mission import (
    EPOCH_SEED_MODES,
    MISSION_PROTOCOLS,
    MissionSpec,
    TrajectorySpec,
)
from repro.fabric.chaos import ERRNOS, FAULT_KINDS, ROLES, Fault, FaultPlan
from repro.net.channel import CHANNEL_MODELS
from repro.service.events import EVENT_TYPES, event_from_payload, event_payload

_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_SEEDS = st.integers(min_value=0, max_value=2**63 - 1)
_NAMES = st.text(max_size=12)

#: a valid value for each channel parameter (``env.*`` field).
_CHANNEL_PARAMETERS = {
    "loss_rate": st.floats(min_value=0.0, max_value=0.99),
    "jitter_ms": st.floats(min_value=0.0, max_value=50.0),
    "reach": st.floats(min_value=0.1, max_value=10.0),
    "arena": st.floats(min_value=0.1, max_value=10.0),
    "speed": st.floats(min_value=0.1, max_value=10.0),
    "bandwidth": st.integers(min_value=0, max_value=8),
    "latency_ms": st.floats(min_value=0.0, max_value=50.0),
}

TRAJECTORIES = st.builds(
    TrajectorySpec,
    kind=st.sampled_from(["drifting-scatters", "waypoint"]),
    n=st.integers(min_value=2, max_value=200),
    epochs=st.integers(min_value=1, max_value=200),
    start=_FLOATS,
    drift=_FLOATS,
    radius=_FLOATS,
    reach=_FLOATS,
    arena=_FLOATS,
    speed=_FLOATS,
    seed=_SEEDS,
)


def adversaries(max_count=8):
    return st.builds(
        AdversarySpec,
        profile=st.sampled_from(ADVERSARY_PROFILES),
        placement=st.sampled_from(PLACEMENT_POLICIES),
        count=st.integers(min_value=1, max_value=max_count),
        seed=_SEEDS,
    )


@st.composite
def environments(draw):
    channel = draw(st.sampled_from(sorted(CHANNEL_MODELS)))
    # The async backend hosts only delivery-order-free channels.
    backend = "sync" if not CHANNEL_MODELS[channel].async_safe else draw(
        st.sampled_from(BACKENDS)
    )
    params = {
        field.name: draw(_CHANNEL_PARAMETERS[field.name])
        for field in dataclasses.fields(CHANNEL_MODELS[channel])
    }
    if channel == "budgeted" and backend == "async":
        params["bandwidth"] = 0  # a finite budget is order-dependent too
    env = EnvironmentSpec(
        backend=backend,
        channel=channel,
        validation=draw(st.sampled_from(VALIDATION_CHOICES)),
        scheme=draw(st.sampled_from([""] + sorted(SCHEME_FACTORIES))),
        cache=draw(st.booleans()),
        artifacts=draw(st.booleans()),
        quiescence_skip=draw(st.booleans()),
        **params,
    )
    env.validate()
    return env


@st.composite
def missions(draw):
    t = draw(st.integers(min_value=0, max_value=6))
    protocol = draw(st.sampled_from(MISSION_PROTOCOLS))
    adversary = None
    if protocol == "nectar" and t >= 1 and draw(st.booleans()):
        adversary = draw(adversaries(max_count=t))
    return MissionSpec(
        trajectory=draw(TRAJECTORIES),
        t=t,
        connectivity_cutoff=draw(
            st.none() | st.integers(min_value=t + 1, max_value=t + 8)
        ),
        seed=draw(_SEEDS),
        epoch_seeds=draw(st.sampled_from(EPOCH_SEED_MODES)),
        protocol=protocol,
        env=draw(environments()),
        adversary=adversary,
    )


_OPTIONAL_INTS = st.none() | st.integers(min_value=0, max_value=1000)

FAULTS = st.builds(
    Fault,
    kind=st.sampled_from(FAULT_KINDS),
    role=st.sampled_from(ROLES),
    target=_NAMES,
    op=_NAMES,
    at_op=st.integers(min_value=1, max_value=100),
    burst=st.integers(min_value=1, max_value=100),
    errno=st.sampled_from(ERRNOS),
    shard=_OPTIONAL_INTS,
    at_cell=_OPTIONAL_INTS,
    seconds=_FLOATS,
    once=st.booleans(),
    max_fires=_OPTIONAL_INTS,
    fault_id=_NAMES,
)

_SCALARS = {
    bool: st.booleans(),
    int: st.integers(),
    float: _FLOATS,
    str: _NAMES,
}


def _optional(kind):
    """``(X, True)`` for ``X | None``, else ``(kind, False)``."""
    options = typing.get_args(kind)
    if type(None) in options:
        return next(o for o in options if o is not type(None)), True
    return kind, False


def events(cls):
    """Any instance of one event class, by its fields' declared types."""
    strategies = {}
    for name, kind in typing.get_type_hints(cls).items():
        kind, optional = _optional(kind)
        strategies[name] = st.none() | _SCALARS[kind] if optional else _SCALARS[kind]
    return st.builds(cls, **strategies)


#: spec name in errors -> (instances, encode, decode).
CODECS = {
    "trajectory": (TRAJECTORIES, TrajectorySpec.payload, TrajectorySpec.from_payload),
    "adversary": (adversaries(), AdversarySpec.payload, AdversarySpec.from_payload),
    "mission": (missions(), MissionSpec.payload, MissionSpec.from_payload),
    "env": (environments(), EnvironmentSpec.payload, EnvironmentSpec.from_payload),
    "fault": (FAULTS, Fault.to_payload, Fault.from_payload),
    "plan": (
        st.builds(
            FaultPlan, faults=st.lists(FAULTS, max_size=4).map(tuple), seed=_SEEDS
        ),
        FaultPlan.to_payload,
        FaultPlan.from_payload,
    ),
    **{
        name: (events(cls), event_payload, event_from_payload)
        for name, cls in EVENT_TYPES.items()
    },
}

def _json(payload):
    return json.loads(json.dumps(payload))


def _wrong_values(kind):
    """JSON values that a field of declared type ``kind`` refuses."""
    kind, optional = _optional(kind)
    if kind is bool:
        values = ["maybe", 2, 0.5, [], {}]
    elif kind is int:
        values = ["12", "x", 1.5, True, [], {}]
    elif kind is float:
        values = ["fast", True, [], {}]
    elif kind is str:
        values = [3, 1.5, True, [], {}]
    elif typing.get_origin(kind) is tuple:
        values = ["x", 3, True, {}]
    else:  # a nested spec
        values = ["lossy", 3, True, []]
    return values if optional else values + [None]


@pytest.mark.parametrize("name", sorted(CODECS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_json_round_trip(name, data):
    instances, encode, decode = CODECS[name]
    spec = data.draw(instances)
    assert decode(_json(encode(spec))) == spec


@pytest.mark.parametrize("name", sorted(CODECS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_wrong_typed_field_is_named(name, data):
    instances, encode, decode = CODECS[name]
    spec = data.draw(instances)
    payload = _json(encode(spec))
    declared = typing.get_type_hints(type(spec))
    field = data.draw(st.sampled_from(sorted(set(declared) - {"sequence"})))
    payload[field] = data.draw(st.sampled_from(_wrong_values(declared[field])))
    with pytest.raises(ExperimentError) as raised:
        decode(payload)
    nested = field in ("trajectory", "env", "adversary")
    assert (field if nested else f"{name}.{field}") in str(raised.value)


class TestFormerlyMisread:
    """Inputs the hand-written decoders cast or accepted."""

    def mission(self, **changes):
        payload = MissionSpec(trajectory=TrajectorySpec(n=8, epochs=3), t=1).payload()
        return {**payload, **changes}

    @pytest.mark.parametrize("t", [1.9, True])
    def test_t_must_be_an_integer(self, t):
        # int() read both as 1.
        with pytest.raises(ExperimentError, match=r"mission\.t expects an integer"):
            MissionSpec.from_payload(self.mission(t=t))

    def test_integral_float_is_still_an_integer(self):
        assert MissionSpec.from_payload(self.mission(t=1.0)).t == 1

    def test_adversary_count_must_be_an_integer(self):
        with pytest.raises(ExperimentError, match=r"adversary\.count expects"):
            MissionSpec.from_payload(self.mission(adversary={"count": 1.5}))

    def test_fault_once_reads_boolean_words(self):
        # bool("no") was True; the decoder reads the word, as --set does.
        assert Fault.from_payload({"kind": "kill", "once": "no"}).once is False
        with pytest.raises(ExperimentError, match=r"fault\.once expects a boolean"):
            Fault.from_payload({"kind": "kill", "once": "maybe"})

    def test_fault_at_op_must_be_an_integer(self):
        # Fault.__post_init__ raised TypeError comparing "2" < 1.
        with pytest.raises(ExperimentError, match=r"fault\.at_op expects an integer"):
            Fault.from_payload({"kind": "queue-error", "at_op": "2"})

    def test_missing_required_field_is_named(self):
        with pytest.raises(ExperimentError, match=r"fault\.kind is required"):
            Fault.from_payload({"role": "worker"})
        with pytest.raises(ExperimentError, match=r"mission\.trajectory is required"):
            MissionSpec.from_payload({"t": 1})

    def test_explicit_graphs_have_no_json_field(self):
        with pytest.raises(ExperimentError, match="unknown trajectory field"):
            TrajectorySpec.from_payload({"n": 8, "epochs": 3, "sequence": []})

    def test_unhashable_event_type_is_refused(self):
        with pytest.raises(ExperimentError, match="unknown event type"):
            event_from_payload({"event": ["MissionAccepted"]})
