"""Weighted directed graphs over dense integer vertex ids."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import EmptyChannelList, InvalidEdgeEndpoint, NegativeWeight, UnknownChannel

# (from-vertex, to-vertex, one weight per channel)
Edge = tuple[int, int, tuple[float, ...]]


@dataclass(frozen=True)
class Graph:
    """Immutable weighted digraph.

    Every edge carries one finite, non-negative weight per named channel;
    the first channel is conventionally ``"distance"``. Instances are safe
    to share between threads once constructed.

    Outgoing edges are stored flat: ``out_targets[v]`` lists the targets of
    ``v`` in ascending id order (parallel edges keep their input order) and
    ``out_weights[c][v]`` the matching weights on channel ``c``.
    ``unit_weight[c]`` tells whether every weight on channel ``c`` is the
    integer 1, which lets searches on that channel run as plain BFS.
    """

    vertex_count: int
    edges: tuple[Edge, ...]
    channels: tuple[str, ...] = ("distance",)
    out_targets: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    out_weights: tuple[tuple[tuple[float, ...], ...], ...] = field(
        init=False, repr=False, compare=False
    )
    unit_weight: tuple[bool, ...] = field(init=False, repr=False, compare=False)
    _reverse: Graph | None = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        if not self.channels:
            raise EmptyChannelList("at least one weight channel is required")
        if self.channels[0] != "distance":
            raise ValueError(f"the first channel must be 'distance', got {self.channels[0]!r}")
        n, width = self.vertex_count, len(self.channels)
        # sorted by (source, target); the sort is stable, so parallel edges
        # keep their input order
        ordered = sorted(self.edges, key=itemgetter(0, 1))
        sources = list(map(itemgetter(0), ordered))
        heads = tuple(map(itemgetter(1), ordered))
        if ordered and (sources[0] < 0 or sources[-1] >= n or min(heads) < 0 or max(heads) >= n):
            u, v, _ = next(e for e in self.edges if not (0 <= e[0] < n and 0 <= e[1] < n))
            raise InvalidEdgeEndpoint(f"edge ({u}, {v}) out of range for {n} vertices")
        weight_rows = list(map(itemgetter(2), ordered))
        if set(map(len, weight_rows)) - {width}:
            u, v, weights = next(e for e in self.edges if len(e[2]) != width)
            raise ValueError(f"edge ({u}, {v}) carries {len(weights)} weights, expected {width}")

        # vertex u's out-edges are ordered[offsets[u]:offsets[u + 1]]
        offsets = list(map(bisect_left, repeat(sources, n + 1), range(n + 1)))
        spans = list(zip(offsets, offsets[1:]))
        out_weights = []
        unit = []
        for ci, name in enumerate(self.channels):
            column = tuple(map(itemgetter(ci), weight_rows))
            if not all(map(math.isfinite, column)) or min(column, default=0) < 0:
                u, v, w = next(
                    (u, v, weights[ci]) for u, v, weights in self.edges
                    if not 0 <= weights[ci] < math.inf
                )
                raise NegativeWeight(f"edge ({u}, {v}), channel {name!r}: {w!r}")
            out_weights.append(tuple(column[a:b] for a, b in spans))
            unit.append(column.count(1) == len(column) and set(map(type, column)) <= {int})
        object.__setattr__(self, "out_targets", tuple(heads[a:b] for a, b in spans))
        object.__setattr__(self, "out_weights", tuple(out_weights))
        object.__setattr__(self, "unit_weight", tuple(unit))

    def channel_index(self, channel: str) -> int:
        try:
            return self.channels.index(channel)
        except ValueError:
            raise UnknownChannel(channel) from None

    def reverse(self) -> Graph:
        """The same graph with every edge flipped.

        Built on the first call and kept, so later calls return the same
        object. Two threads racing on the first call may each build one; the
        results are equal.
        """
        if self._reverse is None:
            flipped = tuple((v, u, w) for u, v, w in self.edges)
            object.__setattr__(self, "_reverse", Graph(self.vertex_count, flipped, self.channels))
        return self._reverse


def build_graph(
    vertex_count: int,
    edges: Iterable[tuple[int, int, object]],
    channels: Sequence[str] = ("distance",),
    *,
    undirected: bool = False,
) -> Graph:
    """Validate and freeze a graph.

    ``edges`` yields (from, to, weight) or (from, to, (w1, w2, ...)) with one
    weight per channel. With ``undirected=True`` each input edge is expanded
    into both directions.
    """
    normalized: list[Edge] = []
    for u, v, w in edges:
        weights = tuple(w) if isinstance(w, (tuple, list)) else (w,)
        normalized.append((u, v, weights))
        if undirected:
            normalized.append((v, u, weights))
    return Graph(vertex_count, tuple(normalized), tuple(channels))


def neighbors(graph: Graph, v: int, channel: str = "distance") -> list[tuple[int, float]]:
    """Outgoing (target, weight) pairs of ``v`` on one channel, ascending target id."""
    ci = graph.channel_index(channel)
    return list(zip(graph.out_targets[v], graph.out_weights[ci][v]))
