"""Weighted directed graphs over dense integer vertex ids."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, count, repeat
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import EmptyChannelList, InvalidEdgeEndpoint, NegativeWeight, UnknownChannel

# (from-vertex, to-vertex, one weight per channel)
Edge = tuple[int, int, tuple[float, ...]]


@dataclass(frozen=True)
class Graph:
    """Immutable weighted digraph, stored as flat out-edge tables.

    Every edge carries one finite, non-negative weight per named channel;
    the first channel is conventionally ``"distance"``. ``out_targets[v]``
    lists the targets of ``v`` in ascending id order (parallel edges keep
    their input order) and ``out_weights[c][v]`` the matching weights on
    channel ``c``. ``unit_weight[c]`` tells whether every weight on channel
    ``c`` is the integer 1, which lets searches on that channel run as plain
    BFS. Instances are safe to share between threads once constructed.

    The tables are taken as given; ``build_graph`` builds and checks them
    from an edge list. Two graphs are equal when their tables are.
    """

    vertex_count: int
    channels: tuple[str, ...]
    out_targets: tuple[tuple[int, ...], ...] = field(repr=False)
    out_weights: tuple[tuple[tuple[float, ...], ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        if not self.channels:
            raise EmptyChannelList("at least one weight channel is required")
        if self.channels[0] != "distance":
            raise ValueError(f"the first channel must be 'distance', got {self.channels[0]!r}")

    @cached_property
    def unit_weight(self) -> tuple[bool, ...]:
        columns = [list(chain.from_iterable(rows)) for rows in self.out_weights]
        return tuple(c.count(1) == len(c) and set(map(type, c)) <= {int} for c in columns)

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge as (from, to, weights), in (from, to) order."""
        sources = chain.from_iterable(map(repeat, count(), map(len, self.out_targets)))
        targets = chain.from_iterable(self.out_targets)
        weights = zip(*(chain.from_iterable(rows) for rows in self.out_weights))
        return tuple(zip(sources, targets, weights))

    def channel_index(self, channel: str) -> int:
        try:
            return self.channels.index(channel)
        except ValueError:
            raise UnknownChannel(channel) from None

    def reverse(self) -> Graph:
        """The same graph with every edge flipped.

        Built on the first call and kept, so later calls return the same
        object. A symmetric graph returns itself.
        """
        return self._flipped

    @property
    def symmetric(self) -> bool:
        """Whether flipping every edge gives the same graph back.

        True for every undirected graph and every grid map. Worked out from
        the tables on first use and kept.
        """
        return self._flipped is self

    @cached_property
    def _flipped(self) -> Graph:
        edges = [(v, u, w) for u, v, w in self.edges]
        flipped = build_graph(self.vertex_count, edges, self.channels)
        return self if flipped == self else flipped


def build_graph(
    vertex_count: int,
    edges: Iterable[tuple[int, int, object]],
    channels: Sequence[str] = ("distance",),
    *,
    undirected: bool = False,
) -> Graph:
    """Validate an edge list and freeze it into a graph.

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
    n, width, channels = vertex_count, len(channels), tuple(channels)
    # sorted by (source, target); the sort is stable, so parallel edges
    # keep their input order
    ordered = sorted(normalized, key=itemgetter(0, 1))
    sources = list(map(itemgetter(0), ordered))
    heads = tuple(map(itemgetter(1), ordered))
    if ordered and (sources[0] < 0 or sources[-1] >= n or min(heads) < 0 or max(heads) >= n):
        u, v, _ = next(e for e in normalized if not (0 <= e[0] < n and 0 <= e[1] < n))
        raise InvalidEdgeEndpoint(f"edge ({u}, {v}) out of range for {n} vertices")
    weight_rows = list(map(itemgetter(2), ordered))
    if set(map(len, weight_rows)) - {width}:
        u, v, weights = next(e for e in normalized if len(e[2]) != width)
        raise ValueError(f"edge ({u}, {v}) carries {len(weights)} weights, expected {width}")

    # vertex u's out-edges are ordered[offsets[u]:offsets[u + 1]]
    offsets = list(map(bisect_left, repeat(sources, n + 1), range(n + 1)))
    spans = list(zip(offsets, offsets[1:]))
    out_weights = []
    for ci, name in enumerate(channels):
        column = tuple(map(itemgetter(ci), weight_rows))
        if not all(map(math.isfinite, column)) or min(column, default=0) < 0:
            u, v, w = next(
                (u, v, weights[ci]) for u, v, weights in normalized
                if not 0 <= weights[ci] < math.inf
            )
            raise NegativeWeight(f"edge ({u}, {v}), channel {name!r}: {w!r}")
        out_weights.append(tuple(column[a:b] for a, b in spans))
    return Graph(n, channels, tuple(heads[a:b] for a, b in spans), tuple(out_weights))


def neighbors(graph: Graph, v: int, channel: str = "distance") -> list[tuple[int, float]]:
    """Outgoing (target, weight) pairs of ``v`` on one channel, ascending target id."""
    ci = graph.channel_index(channel)
    return list(zip(graph.out_targets[v], graph.out_weights[ci][v]))
