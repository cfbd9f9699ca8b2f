"""Shared vocabulary for the NECTAR reproduction.

The paper (Sec. II) works with a set of ``n`` processes identified by
unique IDs, connected by a static undirected graph, with up to ``t``
Byzantine processes.  This module defines the small, dependency-free
types that every other subpackage builds on: node identifiers, edges,
the two-valued decision of a partition detection algorithm (Sec. III-D)
and the verdict record a node produces at the end of a run — plus the
one decoder (:func:`decode_spec`) that turns a JSON object into any of
the frozen specs built on them.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import typing
from dataclasses import dataclass
from typing import Iterable, Mapping, TypeVar

from repro.errors import ExperimentError

# A node is identified by a small non-negative integer, as in the paper
# where processes are p_1 .. p_n.  Using plain ints keeps the simulator
# fast and the wire encoding compact (two bytes per ID, see net.codec).
NodeId = int

#: Maximum node id representable on the wire (two bytes, see net.codec).
MAX_NODE_ID = 0xFFFF


def canonical_edge(u: NodeId, v: NodeId) -> tuple[NodeId, NodeId]:
    """Return the canonical (sorted) form of an undirected edge.

    The communication graph is undirected (Sec. II), so ``(u, v)`` and
    ``(v, u)`` denote the same channel.  All bookkeeping structures key
    edges by their canonical form to avoid double counting.

    Raises:
        ValueError: if ``u == v`` (self loops are not channels).
    """
    if u == v:
        raise ValueError(f"self loop ({u}, {v}) is not a communication channel")
    if u < v:
        return (u, v)
    return (v, u)


Edge = tuple[NodeId, NodeId]


class Decision(enum.Enum):
    """The two outcomes of Byzantine partition detection (Sec. III-C).

    ``NOT_PARTITIONABLE``
        No placement of the ``t`` Byzantine nodes can disconnect the
        correct nodes.

    ``PARTITIONABLE``
        Byzantine nodes *might* be able to disconnect correct nodes
        (this is not certain: correct nodes cannot distinguish a low
        connectivity from Byzantine nodes hiding edges).
    """

    NOT_PARTITIONABLE = "NOT_PARTITIONABLE"
    PARTITIONABLE = "PARTITIONABLE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Verdict:
    """What a node reports after its one-shot ``decide()`` call.

    Attributes:
        decision: one of the two :class:`Decision` values.
        confirmed: the additional Boolean output of NECTAR (Sec. III-D,
            Validity): ``True`` means the node detected an *actual*
            partition, i.e. some nodes were unreachable in its view and
            the Byzantine nodes effectively form a vertex cut.
        reachable: the number of nodes the deciding node saw as
            reachable (``r`` in Algorithm 1).
        connectivity: the vertex connectivity the node computed on its
            discovered graph (``k`` in Algorithm 1), or ``None`` when
            the protocol did not need to compute it (baselines, or
            unreachable nodes short-circuit).
    """

    decision: Decision
    confirmed: bool
    reachable: int
    connectivity: int | None = None

    @property
    def partition_suspected(self) -> bool:
        """True when the verdict reports any form of partition danger."""
        return self.decision is Decision.PARTITIONABLE


class BaselineDecision(enum.Enum):
    """Outcome vocabulary of the non-Byzantine baselines (MtG, MtGv2).

    The baselines of Sec. V-A answer the *classic* partition detection
    question — is the network currently partitioned? — rather than the
    Byzantine-partitionability question.
    """

    CONNECTED = "CONNECTED"
    PARTITIONED = "PARTITIONED"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class GroundTruth:
    """Reference facts about a run, computed from the real topology.

    Built by the experiment layer from the *actual* graph and the
    *actual* Byzantine placement, which no node knows (Sec. II).

    Attributes:
        n: total number of nodes.
        t: declared maximum number of Byzantine nodes.
        byzantine: the actual set of Byzantine node ids.
        connectivity: vertex connectivity ``k`` of the full graph G.
        graph_partitioned: whether G itself is disconnected (Def. 1).
        correct_subgraph_partitioned: whether the subgraph induced by
            the correct nodes is disconnected (the condition of Lemma 3
            and of the Safety property).
        byzantine_partitionable: whether G is t-Byzantine partitionable,
            i.e. ``connectivity <= t`` (Corollary 1).
    """

    n: int
    t: int
    byzantine: frozenset[NodeId]
    connectivity: int
    graph_partitioned: bool
    correct_subgraph_partitioned: bool
    byzantine_partitionable: bool

    @property
    def correct_nodes(self) -> frozenset[NodeId]:
        """Ids of the correct (non-Byzantine) nodes."""
        return frozenset(range(self.n)) - self.byzantine


def validate_node_ids(ids: Iterable[NodeId]) -> None:
    """Check that every id fits the wire format and is non-negative.

    Raises:
        ValueError: on a negative or oversized id.
    """
    for node_id in ids:
        if not 0 <= node_id <= MAX_NODE_ID:
            raise ValueError(
                f"node id {node_id} outside the representable range "
                f"[0, {MAX_NODE_ID}]"
            )


# ----------------------------------------------------------------------
# Specs read from JSON: one typed decoder
# ----------------------------------------------------------------------
_Spec = TypeVar("_Spec")

#: ``dataclasses.field`` metadata of a spec field with no JSON form
#: (an explicit trajectory's graphs): payloads leave it out and
#: :func:`decode_spec` rejects it as unknown.
NOT_JSON = {"json": False}

_TRUE_WORDS = frozenset({"true", "yes", "on", "1"})
_FALSE_WORDS = frozenset({"false", "no", "off", "0"})


def _json_fields(cls: type) -> list[dataclasses.Field]:
    return [f for f in dataclasses.fields(cls) if f.metadata.get("json", True)]


@functools.cache
def _field_types(cls: type) -> dict[str, object]:
    return typing.get_type_hints(cls)


def _coerce(label: str, kind: object, value: object) -> object:
    """One JSON value as a field of declared type ``kind``.

    Values arrive from library calls (typed), ``--set`` text
    (str/int/float scalars) and JSON files, and must all land on the
    same spec (hence the same digest): a boolean also takes 0/1 and the
    words true/false, yes/no, on/off; an integer takes an integral
    float; a number takes an integer.  ``X | None`` takes null,
    ``tuple[X, ...]`` a list, and a nested spec decodes through its own
    ``from_payload``.

    Raises:
        ExperimentError: naming ``label`` for a value of another type.
    """
    options = typing.get_args(kind)
    if type(None) in options:  # X | None
        if value is None:
            return None
        (kind,) = [option for option in options if option is not type(None)]
    if typing.get_origin(kind) is tuple:  # tuple[X, ...]
        if not isinstance(value, list):
            raise ExperimentError(f"{label} expects a list, got {value!r}")
        item_kind = typing.get_args(kind)[0]
        return tuple(
            _coerce(f"{label}[{index}]", item_kind, item)
            for index, item in enumerate(value)
        )
    if kind is bool:
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
        raise ExperimentError(f"{label} expects a boolean, got {value!r}")
    if kind is int:
        if isinstance(value, int) and not isinstance(value, bool):
            return value
        if isinstance(value, float) and value.is_integer():
            return int(value)
        raise ExperimentError(f"{label} expects an integer, got {value!r}")
    if kind is float:
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                return float(value)
            except OverflowError:
                pass
        raise ExperimentError(f"{label} expects a number, got {value!r}")
    if kind is str:
        if isinstance(value, str):
            return value
        raise ExperimentError(f"{label} expects a name, got {value!r}")
    return kind.from_payload(value)  # a nested spec


def decode_spec(
    cls: type[_Spec], payload: object, name: str, unknown: str = ""
) -> _Spec:
    """Build the frozen dataclass ``cls`` from a JSON object.

    Every key must name a field, and its value is read by the field's
    declared type (:func:`_coerce`); absent fields keep their defaults.
    The caller runs the spec's own ``validate()`` afterwards.

    Args:
        name: the spec's name in errors, which name ``<name>.<field>``.
        unknown: what an unknown key is called ("<name> field" by
            default; the ``env.*`` overrides say "environment axis").

    Raises:
        ExperimentError: on a non-object, an unknown key, a missing
            required field or a wrong-typed value.
    """
    if not isinstance(payload, Mapping):
        raise ExperimentError(f"{name} must be a JSON object, got {payload!r}")
    fields = _json_fields(cls)
    names = [field.name for field in fields]
    for key in payload:
        if key not in names:
            raise ExperimentError(
                f"unknown {unknown or name + ' field'} {name}.{key}; "
                f"known: {[f'{name}.{known}' for known in names]}"
            )
    declared = _field_types(cls)
    values = {}
    for field in fields:
        if field.name in payload:
            values[field.name] = _coerce(
                f"{name}.{field.name}", declared[field.name], payload[field.name]
            )
        elif (
            field.default is dataclasses.MISSING
            and field.default_factory is dataclasses.MISSING
        ):
            raise ExperimentError(f"{name}.{field.name} is required")
    return cls(**values)


def spec_payload(spec: object, omit_defaults: bool = False) -> dict:
    """A spec's JSON object, the inverse of :func:`decode_spec`: its
    JSON fields in declaration order, less those at their defaults when
    ``omit_defaults`` is set."""
    return {
        field.name: getattr(spec, field.name)
        for field in _json_fields(type(spec))
        if not omit_defaults
        or field.default is dataclasses.MISSING
        or getattr(spec, field.name) != field.default
    }
