"""Dinic's maximum-flow algorithm on unit-capacity digraphs.

Dolev's reliable broadcast (:mod:`repro.extensions.dolev`) delivers a
message once the paths it arrived on contain t + 1 vertex-disjoint
ones: a max flow in the vertex-split digraph of those paths (Menger's
theorem [20 in the paper]).  The test suite also uses this network as
the independent Menger reference for :mod:`repro.graphs.connectivity`,
which counts disjoint paths on adjacency lists without building one.
Capacities in that construction are 0/1/∞, so a compact adjacency-list
Dinic with integer capacities suffices.
"""

from __future__ import annotations

from collections import deque

#: Stand-in for infinite capacity; larger than any cut in our graphs.
INFINITY = 10**9


class FlowNetwork:
    """A directed flow network with integer capacities.

    Vertices are dense integers ``0 .. vertex_count-1``; edges are
    added with :meth:`add_edge`, which also creates the residual
    reverse edge.
    """

    def __init__(self, vertex_count: int) -> None:
        if vertex_count < 1:
            raise ValueError("a flow network needs at least one vertex")
        self.vertex_count = vertex_count
        # Edge arrays: edge i goes to _to[i] with residual capacity
        # _capacity[i]; edge i ^ 1 is its reverse.
        self._to: list[int] = []
        self._capacity: list[int] = []
        self._outgoing: list[list[int]] = [[] for _ in range(vertex_count)]
        # Scratch arrays for the Dinic phases, allocated once per
        # network and reset in place via the matching templates, so
        # repeated phases do not reallocate them.
        self._levels = [-1] * vertex_count
        self._next_edge = [0] * vertex_count
        self._level_template = [-1] * vertex_count
        self._next_template = [0] * vertex_count

    def add_edge(self, source: int, target: int, capacity: int) -> None:
        """Add a directed edge and its zero-capacity residual twin."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        for endpoint in (source, target):
            if not 0 <= endpoint < self.vertex_count:
                raise ValueError(f"vertex {endpoint} out of range")
        self._outgoing[source].append(len(self._to))
        self._to.append(target)
        self._capacity.append(capacity)
        self._outgoing[target].append(len(self._to))
        self._to.append(source)
        self._capacity.append(0)

    # ------------------------------------------------------------------
    # Dinic phases
    # ------------------------------------------------------------------
    def _build_levels(self, source: int, sink: int) -> list[int] | None:
        levels = self._levels
        levels[:] = self._level_template
        levels[source] = 0
        queue = deque([source])
        while queue:
            vertex = queue.popleft()
            for edge_index in self._outgoing[vertex]:
                target = self._to[edge_index]
                if self._capacity[edge_index] > 0 and levels[target] < 0:
                    levels[target] = levels[vertex] + 1
                    queue.append(target)
        if levels[sink] < 0:
            return None
        return levels

    def _augment(
        self,
        vertex: int,
        sink: int,
        pushed: int,
        levels: list[int],
        next_edge: list[int],
    ) -> int:
        if vertex == sink:
            return pushed
        while next_edge[vertex] < len(self._outgoing[vertex]):
            edge_index = self._outgoing[vertex][next_edge[vertex]]
            target = self._to[edge_index]
            if self._capacity[edge_index] > 0 and levels[target] == levels[vertex] + 1:
                flow = self._augment(
                    target,
                    sink,
                    min(pushed, self._capacity[edge_index]),
                    levels,
                    next_edge,
                )
                if flow > 0:
                    self._capacity[edge_index] -= flow
                    self._capacity[edge_index ^ 1] += flow
                    return flow
            next_edge[vertex] += 1
        return 0

    def residual_reachable(self, source: int) -> set[int]:
        """Vertices reachable from ``source`` in the residual network.

        Call after :meth:`max_flow` to extract a minimum cut: the cut
        edges are exactly the saturated edges crossing the boundary of
        this set (max-flow/min-cut theorem).
        """
        seen = {source}
        queue = deque([source])
        while queue:
            vertex = queue.popleft()
            for edge_index in self._outgoing[vertex]:
                target = self._to[edge_index]
                if self._capacity[edge_index] > 0 and target not in seen:
                    seen.add(target)
                    queue.append(target)
        return seen

    def max_flow(self, source: int, sink: int, cutoff: int | None = None) -> int:
        """Compute the maximum flow from ``source`` to ``sink``.

        Args:
            source: flow source vertex.
            sink: flow sink vertex.
            cutoff: optional early-exit bound — once the flow reaches
                ``cutoff`` the exact value no longer matters to the
                caller (used by connectivity, which only needs to know
                whether κ(s, t) is below the current minimum).

        Returns:
            The max-flow value, possibly truncated at ``cutoff``.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        if cutoff is not None and cutoff <= 2:
            # Adjacency-degree fast path: the flow cannot exceed the
            # residual out-degree of the source or in-degree of the
            # sink, and at most two shortest-path augmentations decide
            # a cutoff <= 2 query — skipping the Dinic level machinery
            # entirely.  Dolev's delivery check lives in this regime
            # (t + 1 disjoint paths for small t).
            capacity_bound = min(
                self._residual_out_capacity(source, cutoff),
                self._residual_in_capacity(sink, cutoff),
            )
            cutoff = min(cutoff, capacity_bound)
            total = 0
            while total < cutoff:
                pushed = self._augment_shortest(source, sink, cutoff - total)
                if pushed == 0:
                    return total
                total += pushed
            return cutoff
        total = 0
        while True:
            levels = self._build_levels(source, sink)
            if levels is None:
                if cutoff is not None:
                    return min(total, cutoff)
                return total
            next_edge = self._next_edge
            next_edge[:] = self._next_template
            while True:
                pushed = self._augment(source, sink, INFINITY, levels, next_edge)
                if pushed == 0:
                    break
                total += pushed
                if cutoff is not None and total >= cutoff:
                    return cutoff

    # ------------------------------------------------------------------
    # cutoff <= 2 fast path
    # ------------------------------------------------------------------
    def _residual_out_capacity(self, vertex: int, limit: int) -> int:
        """Residual capacity leaving ``vertex``, saturated at ``limit``.

        In the vertex-split connectivity networks the source's out-arcs
        all enter unit internal arcs, so this is exactly the adjacency
        degree — but the sum form stays correct for arbitrary
        capacities.
        """
        capacity = self._capacity
        total = 0
        for edge_index in self._outgoing[vertex]:
            if capacity[edge_index] > 0:
                total += capacity[edge_index]
                if total >= limit:
                    return limit
        return total

    def _residual_in_capacity(self, vertex: int, limit: int) -> int:
        """Residual capacity entering ``vertex``, saturated at ``limit``.

        Each incoming edge's index is the reverse (``^ 1``) of an index
        listed in the vertex's outgoing adjacency.
        """
        capacity = self._capacity
        total = 0
        for edge_index in self._outgoing[vertex]:
            if capacity[edge_index ^ 1] > 0:
                total += capacity[edge_index ^ 1]
                if total >= limit:
                    return limit
        return total

    def _augment_shortest(self, source: int, sink: int, limit: int) -> int:
        """One Edmonds–Karp step: push along a shortest residual path.

        Returns the amount pushed (0 when the sink is unreachable).
        Correctness does not depend on path choice — any augmenting
        path preserves max-flow optimality — so interleaving this with
        the Dinic phases is safe; it is only used when ``cutoff``
        bounds the answer by 2, where one BFS per flow unit is cheaper
        than building level graphs.
        """
        parent_edge = self._levels  # reuse the scratch array
        parent_edge[:] = self._level_template
        parent_edge[source] = -2
        queue = deque([source])
        capacity = self._capacity
        while queue:
            vertex = queue.popleft()
            if vertex == sink:
                break
            for edge_index in self._outgoing[vertex]:
                target = self._to[edge_index]
                if capacity[edge_index] > 0 and parent_edge[target] == -1:
                    parent_edge[target] = edge_index
                    queue.append(target)
        if parent_edge[sink] == -1:
            return 0
        # Walk back to find the bottleneck, then apply it.
        bottleneck = limit
        vertex = sink
        while vertex != source:
            edge_index = parent_edge[vertex]
            bottleneck = min(bottleneck, capacity[edge_index])
            vertex = self._to[edge_index ^ 1]
        vertex = sink
        while vertex != source:
            edge_index = parent_edge[vertex]
            capacity[edge_index] -= bottleneck
            capacity[edge_index ^ 1] += bottleneck
            vertex = self._to[edge_index ^ 1]
        return bottleneck
