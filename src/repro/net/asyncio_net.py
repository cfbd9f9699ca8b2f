"""Asyncio execution backend: real tasks, real bytes.

The paper's prototype runs "real code" — C++ processes over the
salticidae network stack, one Docker container each (Sec. V-B).  This
backend is our equivalent of the real-code leg: every node runs as its
own asyncio task, every message is serialised to bytes through
:mod:`repro.net.codec`, shipped over per-channel queues (in-memory
duplex links standing in for TCP connections), length-framed, and
parsed back on the receiving side.

Synchrony is provided by a round barrier, mirroring how a synchronous
algorithm is deployed on a real network with a known delay bound ΔT:
optional per-message jitter (``jitter_ms``) delays deliveries inside
the round without ever violating the bound.

The same :class:`repro.net.simulator.RoundProtocol` instances run
unchanged on either backend; an integration test checks both backends
produce identical verdicts and byte counts.

:mod:`asyncio` loads on first use: the :class:`AsyncCluster` methods
that run it import it, not this module, so a process that never runs
the async backend (a sync sweep, a mission, a fabric worker) starts
without the async stack (DESIGN.md §6.5).  Annotations naming asyncio
types are never evaluated (``from __future__ import annotations``).
"""

from __future__ import annotations

import random
from typing import Any, Mapping

from repro.crypto.sizes import DEFAULT_PROFILE, WireProfile
from repro.errors import ChannelError, CodecError, ProtocolError
from repro.graphs.graph import Graph
from repro.net.channel import RELIABLE_CHANNEL, ChannelModel
from repro.net.codec import decode_envelope, encode_envelope
from repro.net.message import Envelope
from repro.net.simulator import RoundProtocol
from repro.net.stats import TrafficStats
from repro.types import NodeId

#: Length-prefix framing: 4 bytes, big endian, then the frame.
_FRAME_PREFIX_BYTES = 4


def frame(data: bytes) -> bytes:
    """Length-prefix a chunk for the stream."""
    return len(data).to_bytes(_FRAME_PREFIX_BYTES, "big") + data


def unframe(data: bytes) -> bytes:
    """Strip and check a length prefix.

    Raises:
        CodecError: on truncated or inconsistent framing.
    """
    if len(data) < _FRAME_PREFIX_BYTES:
        raise CodecError("truncated frame prefix")
    length = int.from_bytes(data[:_FRAME_PREFIX_BYTES], "big")
    body = data[_FRAME_PREFIX_BYTES:]
    if len(body) != length:
        raise CodecError("frame length mismatch")
    return body


class AsyncCluster:
    """Run round protocols as concurrent asyncio tasks over byte channels.

    Args:
        graph: the communication graph G.
        protocols: one protocol instance per node.
        profile: wire profile for encoding.
        channel: channel model applied to in-flight messages.  Must be
            ``async_safe`` — delivery decisions a pure function of
            ``(round, edge)`` — because this backend's global delivery
            order is not reproducible (the i.i.d. lossy model is
            therefore sync-only).
        jitter_ms: optional max artificial delay (milliseconds of
            simulated time) applied to each message inside its round;
            defaults to the channel model's own jitter bound.
        seed: RNG seed for the jitter and the channel state.
    """

    def __init__(
        self,
        graph: Graph,
        protocols: Mapping[NodeId, RoundProtocol],
        profile: WireProfile = DEFAULT_PROFILE,
        channel: ChannelModel = RELIABLE_CHANNEL,
        jitter_ms: float | None = None,
        seed: int = 0,
    ) -> None:
        if set(protocols) != set(graph.nodes()):
            raise ProtocolError("protocols must cover exactly the graph's nodes")
        if not channel.async_safe:
            raise ProtocolError(
                f"channel model {type(channel).__name__} is not usable on the "
                "asyncio backend (delivery order is not reproducible)"
            )
        self._graph = graph
        self._protocols = dict(protocols)
        self._profile = profile
        self._channel_state = channel.state(graph, seed)
        self._jitter_ms = channel.jitter_ms if jitter_ms is None else jitter_ms
        self._rng = random.Random(("async-jitter", seed).__repr__())
        self.stats = TrafficStats()
        # One inbox queue per directed channel (u, v) in E.
        self._channels: dict[tuple[NodeId, NodeId], asyncio.Queue] = {}

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------
    def run(self, rounds: int) -> dict[NodeId, Any]:
        """Synchronous wrapper around :meth:`run_async`.

        Raises:
            ProtocolError: when called from inside a running event loop
                — ``asyncio.run`` cannot nest.  Await :meth:`run_async`
                there instead; the fleet service (DESIGN.md §12) steps
                missions on worker threads for exactly this reason.
        """
        import asyncio

        try:
            asyncio.get_running_loop()
        except RuntimeError:
            return asyncio.run(self.run_async(rounds))
        raise ProtocolError(
            "AsyncCluster.run() cannot block inside a running event loop; "
            "await run_async() instead (or step the cluster from a worker "
            "thread, as the fleet service does)"
        )

    async def run_async(self, rounds: int) -> dict[NodeId, Any]:
        """Execute ``rounds`` rounds; returns per-node verdicts."""
        import asyncio

        if rounds < 1:
            raise ProtocolError("at least one round is required")
        for u, neighbors in self._graph.iter_adjacency():
            for v in neighbors:
                # setdefault: queues of an earlier run on the same
                # topology persist — they are drained every round, so
                # reuse is safe.
                self._channels.setdefault((u, v), asyncio.Queue())
        barrier = asyncio.Barrier(self._graph.n)
        verdicts: dict[NodeId, Any] = {}
        tasks = [
            asyncio.create_task(
                self._node_main(node_id, rounds, barrier, verdicts)
            )
            for node_id in sorted(self._protocols)
        ]
        await asyncio.gather(*tasks)
        return verdicts

    # ------------------------------------------------------------------
    # Per-node task
    # ------------------------------------------------------------------
    async def _node_main(
        self,
        node_id: NodeId,
        rounds: int,
        barrier: asyncio.Barrier,
        verdicts: dict[NodeId, Any],
    ) -> None:
        import asyncio

        protocol = self._protocols[node_id]
        for round_number in range(1, rounds + 1):
            # Send phase.
            for outgoing in protocol.begin_round(round_number):
                if not self._graph.has_edge(node_id, outgoing.destination):
                    raise ChannelError(
                        f"node {node_id} attempted to send to non-neighbor "
                        f"{outgoing.destination}"
                    )
                envelope = Envelope(
                    sender=node_id,
                    round_number=round_number,
                    payload=outgoing.payload,
                )
                data = frame(encode_envelope(envelope, self._profile))
                self.stats.record_send(node_id, len(data) - _FRAME_PREFIX_BYTES)
                if self._jitter_ms > 0:
                    await asyncio.sleep(
                        self._rng.random() * self._jitter_ms / 1000.0
                    )
                await self._channels[(node_id, outgoing.destination)].put(data)
            await barrier.wait()  # everything of this round is in flight
            # Receive phase: drain each incoming channel.
            for neighbor in sorted(self._graph.neighbors(node_id)):
                queue = self._channels[(neighbor, node_id)]
                while not queue.empty():
                    data = queue.get_nowait()
                    try:
                        envelope = decode_envelope(
                            unframe(data), self._profile
                        )
                    except CodecError:
                        continue  # Byzantine junk: drop silently
                    if not self._channel_state.delivers(
                        round_number, neighbor, node_id
                    ):
                        continue  # channel dropped it: sent, not received
                    self.stats.record_receive(
                        node_id, len(data) - _FRAME_PREFIX_BYTES
                    )
                    protocol.deliver(
                        round_number, envelope.sender, envelope.payload
                    )
            await barrier.wait()  # everyone finished delivering
        verdicts[node_id] = protocol.conclude()
