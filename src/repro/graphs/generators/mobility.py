"""Mobile topology sequences (MANET substrate).

The paper motivates partition detection with mobile ad hoc networks
(Sec. I and the MtG/Ritter related work [4, 6]) and handles evolving
graphs by assuming stability during each run (footnote 2).  This
module generates the evolving topologies those runs observe:

* :func:`random_waypoint_mission` — the classic random-waypoint
  mobility model: each node picks a waypoint in the arena, moves
  toward it at its speed, then picks another;
* :func:`drifting_scatters_mission` — the Fig. 2 storyline as a
  topology sequence: two drone scatters separating (or approaching)
  step by step.

Both yield one proximity graph per time step, ready for the mission
layer (:mod:`repro.experiments.mission`, DESIGN.md §10), whose
``drifting-scatters`` / ``waypoint`` trajectory kinds are declarative
wrappers over these generators.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.errors import TopologyError
from repro.graphs.generators.drone import drone_graph
from repro.graphs.graph import Graph
from repro.types import Edge


@dataclass(frozen=True)
class MobilitySnapshot:
    """One time step of a mobile deployment."""

    step: int
    graph: Graph
    positions: tuple[tuple[float, float], ...]


def _proximity_graph(n: int, positions, radius: float) -> Graph:
    edges: list[Edge] = []
    for u in range(n):
        ux, uy = positions[u]
        for v in range(u + 1, n):
            vx, vy = positions[v]
            if math.hypot(ux - vx, uy - vy) < radius:
                edges.append((u, v))
    return Graph(n, edges)


def random_waypoint_mission(
    n: int,
    steps: int,
    radius: float,
    arena: float = 5.0,
    speed: float = 0.5,
    seed: int = 0,
) -> Iterator[MobilitySnapshot]:
    """Random-waypoint mobility in a square arena.

    Args:
        n: number of mobile nodes.
        steps: number of time steps to generate.
        radius: communication scope (edge iff distance < radius).
        arena: side length of the square arena.
        speed: distance travelled per time step.
        seed: RNG seed; the whole trajectory is deterministic.

    Yields:
        One :class:`MobilitySnapshot` per step.

    Raises:
        TopologyError: on non-positive parameters.
    """
    if n < 2:
        raise TopologyError("a mission needs at least 2 nodes")
    if steps < 1:
        raise TopologyError("a mission needs at least one step")
    if radius <= 0 or arena <= 0 or speed <= 0:
        raise TopologyError("radius, arena and speed must be positive")
    rng = random.Random(("waypoint", n, steps, radius, arena, speed, seed).__repr__())
    positions = [
        (rng.random() * arena, rng.random() * arena) for _ in range(n)
    ]
    waypoints = [
        (rng.random() * arena, rng.random() * arena) for _ in range(n)
    ]
    for step in range(steps):
        yield MobilitySnapshot(
            step=step,
            graph=_proximity_graph(n, positions, radius),
            positions=tuple(positions),
        )
        for node in range(n):
            x, y = positions[node]
            wx, wy = waypoints[node]
            distance = math.hypot(wx - x, wy - y)
            if distance <= speed:
                positions[node] = (wx, wy)
                waypoints[node] = (rng.random() * arena, rng.random() * arena)
            else:
                positions[node] = (
                    x + speed * (wx - x) / distance,
                    y + speed * (wy - y) / distance,
                )


def drifting_scatters_mission(
    n: int,
    distances: Sequence[float],
    radius: float,
    seed: int = 0,
) -> list[Graph]:
    """The Fig. 2 storyline: two scatters at a scripted distance profile.

    Args:
        n: number of drones.
        distances: barycenter distance at each step (e.g. increasing
            for a separation mission).
        radius: communication scope.
        seed: deployment seed (one resample per step, same seed).

    Returns:
        One proximity graph per scripted distance.
    """
    if not distances:
        raise TopologyError("a mission needs at least one step")
    return [drone_graph(n, d, radius, seed=seed) for d in distances]
