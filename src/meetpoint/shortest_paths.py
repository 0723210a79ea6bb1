"""Single-source shortest paths and the per-user distance matrix."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from heapq import heappop, heappush
from typing import Iterator, Sequence

from .errors import EmptySources, InvalidSource
from .graph import Graph

# Sentinel for "no path"; kept out of arithmetic (callers test for it).
UNREACHABLE = math.inf


@dataclass(frozen=True)
class DistanceRow:
    """Shortest distances from one source to every vertex."""

    source: int
    distances: tuple[float, ...]


@dataclass(frozen=True)
class DistanceMatrix:
    """One DistanceRow per user, all over the same graph and channel.

    This is deliberately partial: rows cover the users, not every vertex.
    """

    rows: tuple[DistanceRow, ...]
    channel: str

    @property
    def user_count(self) -> int:
        return len(self.rows)

    @property
    def vertex_count(self) -> int:
        return len(self.rows[0].distances) if self.rows else 0

    @cached_property
    def ranked(self) -> tuple[tuple[float, ...], ...]:
        """Row m holds, for every vertex, the m-th smallest user distance to it.

        Sorted columns do not depend on user order, so anything summed over
        them is bit-identical under any permutation of the rows. Built on
        first use and kept with the matrix.
        """
        return tuple(zip(*map(sorted, zip(*(row.distances for row in self.rows)))))


@dataclass(frozen=True)
class ReachabilitySet:
    """Per-user sets of vertices with a finite distance."""

    masks: tuple[frozenset[int], ...]

    @classmethod
    def from_matrix(cls, matrix: DistanceMatrix) -> "ReachabilitySet":
        return cls(tuple(
            frozenset(v for v, d in enumerate(row.distances) if d != UNREACHABLE)
            for row in matrix.rows
        ))

    def mutual(self) -> frozenset[int]:
        """Vertices reachable by every user."""
        if not self.masks:
            return frozenset()
        common = self.masks[0]
        for mask in self.masks[1:]:
            common &= mask
        return common


def _search(graph: Graph, source: int, channel_index: int) -> Iterator[tuple[int, float]]:
    """Yield (vertex, distance) in settle order.

    Classic heap-driven search with lazy deletion: stale queue entries are
    skipped via the visited list. Equal tentative distances settle in
    ascending vertex-id order because the heap keys are (distance, vertex).
    """
    n = graph.vertex_count
    targets = graph.out_targets
    weights = graph.out_weights[channel_index]
    best = [UNREACHABLE] * n
    best[source] = 0
    visited = [False] * n
    heap: list[tuple[float, int]] = [(0, source)]
    while heap:
        dist, u = heappop(heap)
        if visited[u]:
            continue
        visited[u] = True
        yield u, dist
        for v, w in zip(targets[u], weights[u]):
            if visited[v]:
                continue
            candidate = dist + w
            if candidate < best[v]:
                best[v] = candidate
                heappush(heap, (candidate, v))


def _bfs(graph: Graph, source: int) -> list[float]:
    """Hop counts from ``source``, one frontier per level.

    On a channel whose weights are all the integer 1 these are exactly the
    distances ``_search`` settles, with the same int type.
    """
    targets = graph.out_targets
    distances: list[float] = [UNREACHABLE] * graph.vertex_count
    distances[source] = 0
    frontier = [source]
    depth = 0
    while frontier:
        depth += 1
        reached: list[int] = []
        push = reached.append
        for u in frontier:
            for v in targets[u]:
                # identity test: unreached entries still hold the sentinel object
                if distances[v] is UNREACHABLE:
                    distances[v] = depth
                    push(v)
        frontier = reached
    return distances


def dijkstra_row(graph: Graph, source: int, channel: str = "distance") -> DistanceRow:
    """Exact shortest distances from ``source``; no-path entries are UNREACHABLE.

    Distances stay exact integers whenever all channel weights are integers.
    A channel whose weights are all 1 is searched breadth-first.
    """
    if not 0 <= source < graph.vertex_count:
        raise InvalidSource(f"source {source} out of range for {graph.vertex_count} vertices")
    ci = graph.channel_index(channel)
    if graph.unit_weight[ci]:
        return DistanceRow(source, tuple(_bfs(graph, source)))
    distances = [UNREACHABLE] * graph.vertex_count
    for v, d in _search(graph, source, ci):
        distances[v] = d
    return DistanceRow(source, tuple(distances))


def build_partial_matrix(
    graph: Graph, sources: Sequence[int], channel: str = "distance"
) -> DistanceMatrix:
    """One dijkstra_row per source, in source order.

    A source listed more than once is searched once; its users share the
    same row object.
    """
    if not sources:
        raise EmptySources("at least one source is required")
    rows: dict[int, DistanceRow] = {}
    for s in sources:
        if s not in rows:
            rows[s] = dijkstra_row(graph, s, channel)
    return DistanceMatrix(tuple(rows[s] for s in sources), channel)
