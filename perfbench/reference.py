"""Reference answers for checking the benchmark's outputs.

Nothing here imports ``meetpoint.scoring`` or ``meetpoint.shortest_paths``:
distances come from a plain BFS (grid maps) or a plain Dijkstra over the
generated edge list (road graphs), and destinations from straight-line
scoring. The disparity sum uses the sorted-column identity
``sum_{i<j} |x_i - x_j| = sum_j (2j - k + 1) * x_(j)`` instead of the
pairwise loop, so the two sides share no formula either.
"""

from __future__ import annotations

import math
from collections import deque
from heapq import heappop, heappush
from typing import Sequence

# relative tie band for destinations scored from blended (inexact) distances
TIE_BAND = 1e-9
# the library's default objective weights, which every workload uses
WEIGHT_TOTAL = 0.5
WEIGHT_DISPARITY = 0.5


def free_cells(text: str) -> list[tuple[int, int]]:
    """(row, column) of a map text's free cells; the index is the vertex id."""
    return [
        (r, c)
        for r, line in enumerate(text.splitlines())
        for c, ch in enumerate(line)
        if ch in (" ", "U")
    ]


def grid_adjacency(cells: Sequence[tuple[int, int]]) -> list[list[int]]:
    """4-neighbour lists of free cells, ascending vertex id."""
    ids = {cell: v for v, cell in enumerate(cells)}
    adjacency: list[list[int]] = [[] for _ in ids]
    for (r, c), v in ids.items():
        for cell in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)):
            if cell in ids:
                adjacency[v].append(ids[cell])
        adjacency[v].sort()
    return adjacency


def bfs(adjacency: list[list[int]], source: int) -> list[float]:
    """Hop counts from ``source``; unreachable vertices read inf."""
    dist: list[float] = [math.inf] * len(adjacency)
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        step = dist[u] + 1
        for v in adjacency[u]:
            if dist[v] == math.inf:
                dist[v] = step
                queue.append(v)
    return dist


def weighted_adjacency(
    vertex_count: int, edges: Sequence[tuple[int, int, tuple[float, ...]]], channel: int
) -> list[list[tuple[int, float]]]:
    """Undirected adjacency of one weight channel of an edge list."""
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(vertex_count)]
    for u, v, weights in edges:
        adjacency[u].append((v, weights[channel]))
        adjacency[v].append((u, weights[channel]))
    return adjacency


def dijkstra(adjacency: list[list[tuple[int, float]]], source: int) -> list[float]:
    dist: list[float] = [math.inf] * len(adjacency)
    dist[source] = 0
    heap = [(0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        for v, w in adjacency[u]:
            if d + w < dist[v]:
                dist[v] = d + w
                heappush(heap, (d + w, v))
    return dist


def scores(rows: Sequence[Sequence[float]]) -> list[float]:
    """Combined score per vertex (inf where some user cannot reach it).

    Each term is its vertex's share of the term's sum over mutually
    reachable vertices, weighted WEIGHT_TOTAL and WEIGHT_DISPARITY; a term
    summing to zero contributes nothing.
    """
    k = len(rows)
    coef = [2 * j - k + 1 for j in range(k)]
    totals: list[float] = []
    disparities: list[float] = []
    for column in zip(*rows):
        if math.inf in column:
            totals.append(math.inf)
            disparities.append(math.inf)
            continue
        ordered = sorted(column)
        totals.append(math.fsum(ordered))
        disparities.append(math.fsum(c * x for c, x in zip(coef, ordered)))
    finite = [v for v, t in enumerate(totals) if t != math.inf]
    sum_total = math.fsum(totals[v] for v in finite)
    sum_disparity = math.fsum(disparities[v] for v in finite)
    combined = [math.inf] * len(totals)
    for v in finite:
        score = 0.0
        if sum_total > 0:
            score += WEIGHT_TOTAL * (totals[v] / sum_total)
        if sum_disparity > 0:
            score += WEIGHT_DISPARITY * (disparities[v] / sum_disparity)
        combined[v] = score
    return combined


def best(combined: Sequence[float]) -> int:
    """Lowest vertex id of minimal score; -1 when no vertex is reachable by all."""
    low = min(combined, default=math.inf)
    return -1 if low == math.inf else combined.index(low)


def within_tie_band(combined: Sequence[float], vertex: int) -> bool:
    """Whether ``vertex`` scores within the relative tie band of the minimum."""
    if not 0 <= vertex < len(combined) or combined[vertex] == math.inf:
        return False
    low = min(combined)
    return combined[vertex] <= low + TIE_BAND * abs(low)


def blend(
    channel_rows: Sequence[Sequence[Sequence[float]]], weights: Sequence[float]
) -> list[list[float]]:
    """Weighted sum over channels of per-user rows: channel_rows[channel][user][vertex]."""
    blended = []
    for per_channel in zip(*channel_rows):
        row = []
        for cell in zip(*per_channel):
            row.append(math.inf if math.inf in cell else math.fsum(
                w * d for w, d in zip(weights, cell)))
        blended.append(row)
    return blended


def objective_weights(scores_by_user: Sequence[Sequence[int]]) -> list[float]:
    """Per-objective weights proportional to the summed priority scores."""
    totals = [sum(column) for column in zip(*scores_by_user)]
    grand = sum(totals)
    return [t / grand for t in totals]


def simulate(
    adjacency: list[list[int]], positions: Sequence[int], ticks: int
) -> list[tuple[int, tuple[int, ...]]]:
    """(destination, positions) for tick 0 through ``ticks`` on a unit-weight grid.

    Every tick picks the destination from the current positions, then each
    user not on it steps to the neighbour closest to it (lowest id on ties).
    Stops early once everyone shares a vertex.
    """
    def plan(at: tuple[int, ...]) -> int:
        return best(scores([bfs(adjacency, p) for p in at]))

    current = tuple(positions)
    destination = plan(current)
    frames = [(destination, current)]
    while len(frames) <= ticks and len(set(current)) > 1:
        remaining = bfs(adjacency, destination)
        current = tuple(
            p if p == destination
            else min(adjacency[p], key=lambda v: (remaining[v], v))
            for p in current
        )
        frames.append((destination, current))
        if len(set(current)) > 1:
            destination = plan(current)
    return frames
