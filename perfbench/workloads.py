"""The benchmark's workloads: seeded input generators, sessions, checkers.

Every workload drives the library's public API from one thread, closed loop:
each call is issued after the previous one returns. Calls go through module
attributes (``scoring.plan_destination``, ``sim.step``) so a traced run can
wrap them; an untraced run calls the same attributes unwrapped.

A workload has three parts:

- ``inputs(seed)`` builds everything the program will receive (map text or
  edge list, and a request stream). It is untimed.
- ``setup(inputs)`` is what a user pays before the first answer: parsing the
  map or building the graph, plus one warm-up call. It is reported as
  ``setup_s``.
- ``session(instance, inputs)`` issues one operation per ``step()`` and
  records its output; ``check(inputs, sessions)`` compares the outputs with
  ``reference`` and returns the number of failed operations.

``MOVES`` beside each workload records which end-to-end metric each
per-layer metric should move on it; layers left out should not move.
"""

from __future__ import annotations

import math
import random
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

from meetpoint import graph as graph_module
from meetpoint import gridmap, maps, scoring, sim
from meetpoint.scoring import PreferenceProfile

from . import reference

SOLVE_USERS = tuple(range(2, 9))
CROWD_USERS = (48, 56, 64, 72, 80, 88, 96)
CROWD_VERTICES = 300
CROWD_STATIONS = 30
CROWD_NEIGHBOURS = 2
# time = distance * factor: motorway, two street classes, lane
ROAD_FACTORS = (0.6, 1.0, 1.0, 1.7)
SIM_USERS = 8


def _report(exc: BaseException) -> None:
    print(f"operation failed: {exc!r}", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr, limit=4)


class Stream:
    """Lazily generated, seeded request sequence; item i is the same every run."""

    def __init__(self, seed: str, make: Callable[[random.Random, int], object]) -> None:
        self._rng = random.Random(seed)
        self._make = make
        self._items: list = []

    def __getitem__(self, index: int):
        while len(self._items) <= index:
            self._items.append(self._make(self._rng, len(self._items)))
        return self._items[index]


def _block_sizes(rng: random.Random, index: int, sizes: tuple[int, ...], memo: list) -> int:
    """User count of request ``index``: each block of len(sizes) requests
    uses every size once, in a seeded order, so every run has the same mix."""
    if index % len(sizes) == 0:
        memo[:] = rng.sample(sizes, len(sizes))
    return memo[index % len(sizes)]


@dataclass
class GridInputs:
    text: str
    cells: list[tuple[int, int]]  # free cells; the index is the vertex id
    requests: Stream


@dataclass
class RoadInputs:
    vertex_count: int
    edges: list[tuple[int, int, tuple[float, ...]]]
    requests: Stream


class SolveSession:
    """One ``plan_destination`` per step over a request stream."""

    def __init__(self, graph, inputs) -> None:
        self.graph = graph
        self.requests = inputs.requests
        self.outputs: list[int | None] = []  # destination, or None on an exception

    def step(self) -> float:
        positions, profile = self.requests[len(self.outputs)]
        start = perf_counter()
        try:
            destination = scoring.plan_destination(self.graph, positions, profile).destination
        except Exception as exc:  # a failed solve is counted, the run goes on
            elapsed = perf_counter() - start
            _report(exc)
            self.outputs.append(None)
            return elapsed
        elapsed = perf_counter() - start
        self.outputs.append(destination)
        return elapsed


# ---------------------------------------------------------------- solve_large

class SolveLarge:
    name = "solve_large"
    op = "solve"
    WHY = ("one-shot solves, 2-8 users, on the stock 109x128 walled map: the per-user "
           "shortest-path rows dominate, distance channel only, no input repeats")
    MOVES = {
        "gridmap.parse_s": "setup_s",
        "graph.build_s": "setup_s",
        "shortest_paths.rows": "op_p50_ms, ops_per_s",
        "shortest_paths.row_p50_ms": "op_p50_ms, ops_per_s",
        "shortest_paths.matrix_s": "op_p50_ms, ops_per_s",
        "shortest_paths.reach_s": "op_p50_ms",
        "scoring.total_s": "op_p50_ms",
        "scoring.combine_s": "op_p50_ms",
        "scoring.select_s": "op_p50_ms",
    }

    def inputs(self, seed: int) -> GridInputs:
        text = maps.bench_map("109x128")
        cells = reference.free_cells(text)
        n = len(cells)
        memo: list[int] = []

        def make(rng: random.Random, index: int):
            k = _block_sizes(rng, index, SOLVE_USERS, memo)
            if index % 5 == 4:  # a group that already stands close together
                low = rng.randrange(n - 60)
                return tuple(rng.sample(range(low, low + 60), k)), None
            return tuple(rng.sample(range(n), k)), None

        return GridInputs(text, cells, Stream(f"solve_large:{seed}", make))

    def setup(self, inputs: GridInputs):
        _, graph = gridmap.parse_grid_map(inputs.text)
        scoring.plan_destination(graph, (0, graph.vertex_count - 1))
        return graph

    session = SolveSession

    def check(self, inputs: GridInputs, sessions: list[SolveSession]) -> int:
        adjacency = reference.grid_adjacency(inputs.cells)
        rows: dict[int, list[float]] = {}
        expected: dict[int, int] = {}
        failed = 0
        for session in sessions:
            for index, got in enumerate(session.outputs):
                if index not in expected:
                    positions, _ = inputs.requests[index]
                    for p in positions:
                        if p not in rows:
                            rows[p] = reference.bfs(adjacency, p)
                    expected[index] = reference.best(reference.scores([rows[p] for p in positions]))
                    for p in positions:  # positions rarely recur; keep memory flat
                        rows.pop(p, None)
                failed += got != expected[index]
        return failed


# ---------------------------------------------------------------- crowd_venue

def road_graph(rng: random.Random, n: int) -> list[tuple[int, int, tuple[float, ...]]]:
    """Undirected roads between ``n`` random points, connected by construction.

    Vertex i > 0 is first joined to its nearest lower-numbered vertex (a
    spanning tree), then every vertex to its nearest few neighbours. Distance
    is the rounded length (at least 1); time is distance times a road-class
    factor.
    """
    points = [(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(n)]

    def gap(a: int, b: int) -> float:
        return math.dist(points[a], points[b])

    pairs = set()
    for i in range(1, n):
        pairs.add((min(range(i), key=lambda j: gap(i, j)), i))
    for i in range(n):
        nearest = sorted((j for j in range(n) if j != i), key=lambda j: gap(i, j))
        for j in nearest[:CROWD_NEIGHBOURS]:
            pairs.add((min(i, j), max(i, j)))
    edges = []
    for a, b in sorted(pairs):
        distance = max(1, round(gap(a, b)))
        edges.append((a, b, (distance, distance * rng.choice(ROAD_FACTORS))))
    return edges


class CrowdVenue:
    name = "crowd_venue"
    op = "solve"
    WHY = ("one-shot solves, 48-96 users sharing stations, on a 300-vertex road graph "
           "with distance and time channels: pairwise scoring and blending dominate")
    MOVES = {
        "graph.build_s": "setup_s",
        "scoring.similarity_s": "op_p50_ms, ops_per_s",
        "scoring.pair_terms": "op_p50_ms, ops_per_s",
        "scoring.blend_s": "op_p50_ms, ops_per_s",
        "scoring.blend_cells": "op_p50_ms, ops_per_s",
        "shortest_paths.matrix_s": "op_p50_ms (small share)",
        "shortest_paths.rows_repeat_ratio": "op_p50_ms",
    }

    def inputs(self, seed: int) -> RoadInputs:
        rng = random.Random(f"crowd_venue:graph:{seed}")
        edges = road_graph(rng, CROWD_VERTICES)
        stations = rng.sample(range(CROWD_VERTICES), CROWD_STATIONS)
        memo: list[int] = []

        def make(rng: random.Random, index: int):
            k = _block_sizes(rng, index, CROWD_USERS, memo)
            positions = tuple(
                rng.choice(stations) if rng.random() < 0.75 else rng.randrange(CROWD_VERTICES)
                for _ in range(k)
            )
            scores = tuple((rng.randint(0, 5), rng.randint(0, 5)) for _ in range(k))
            return positions, PreferenceProfile(("distance", "time"), scores)

        return RoadInputs(CROWD_VERTICES, edges, Stream(f"crowd_venue:{seed}", make))

    def setup(self, inputs: RoadInputs):
        graph = graph_module.build_graph(
            inputs.vertex_count, inputs.edges, ("distance", "time"), undirected=True
        )
        warm = PreferenceProfile(("distance", "time"), ((1, 1), (1, 1)))
        scoring.plan_destination(graph, inputs.edges[0][:2], warm)
        return graph

    session = SolveSession

    def check(self, inputs: RoadInputs, sessions: list[SolveSession]) -> int:
        adjacency = [
            reference.weighted_adjacency(inputs.vertex_count, inputs.edges, c) for c in (0, 1)
        ]
        rows: dict[tuple[int, int], list[float]] = {}
        scored: dict[int, list[float]] = {}
        failed = 0
        for session in sessions:
            for index, got in enumerate(session.outputs):
                if index not in scored:
                    positions, profile = inputs.requests[index]
                    for p in positions:
                        for c in (0, 1):
                            if (p, c) not in rows:
                                rows[(p, c)] = reference.dijkstra(adjacency[c], p)
                    scored[index] = reference.scores(reference.blend(
                        [[rows[(p, c)] for p in positions] for c in (0, 1)],
                        reference.objective_weights(profile.scores),
                    ))
                failed += got is None or not reference.within_tie_band(scored[index], got)
        return failed


# ----------------------------------------------------------------- sim_replan

@dataclass
class SimRecord:
    start: tuple[int, ...]
    frames: list[tuple[int, tuple[int, ...]]] = field(default_factory=list)
    errors: int = 0
    met: bool = False
    gave_up: bool = False  # positions repeated or the tick cap ran out


class SimSession:
    """One tick per step: ``SimState.initial`` opens a simulation, ``step``
    advances it until every user shares a vertex."""

    def __init__(self, graph, inputs: GridInputs) -> None:
        self.graph = graph
        self.placements = inputs.requests
        self.cap = 10 * graph.vertex_count  # as sim.run
        self.records: list[SimRecord] = []
        self.state = None
        self.seen: set[tuple[int, ...]] = set()

    def step(self) -> float:
        if self.state is None:
            record = SimRecord(self.placements[len(self.records)])
            self.records.append(record)
            start = perf_counter()
            try:
                self.state = sim.SimState.initial(self.graph, record.start)
            except Exception as exc:
                return self._failed(exc, start)
            elapsed = perf_counter() - start
            self.seen = set()
        else:
            record = self.records[-1]
            start = perf_counter()
            try:
                self.state, _ = sim.step(self.state)
            except Exception as exc:
                return self._failed(exc, start)
            elapsed = perf_counter() - start
        positions = self.state.positions
        record.frames.append((self.state.current_destination, positions))
        if len(set(positions)) == 1:
            record.met = True
        elif positions in self.seen or len(record.frames) > self.cap:
            record.gave_up = True  # a repeated state repeats forever
        self.seen.add(positions)
        if record.met or record.gave_up:
            self.state = None
        return elapsed

    def _failed(self, exc: Exception, start: float) -> float:
        elapsed = perf_counter() - start
        _report(exc)
        self.records[-1].errors += 1
        self.state = None
        return elapsed

    def dest_changes(self) -> tuple[int, int]:
        """(ticks whose destination differs from the previous tick's, ticks)."""
        changes = ticks = 0
        for record in self.records:
            ticks += len(record.frames)
            changes += sum(
                a[0] != b[0] for a, b in zip(record.frames, record.frames[1:])
            )
        return changes, ticks


class SimReplan:
    name = "sim_replan"
    op = "tick"
    WHY = ("replanning simulations, 8 users, on the stock 88x27 walled map: every tick "
           "replans from scratch and rebuilds the reverse graph; inputs repeat tick to tick")
    MOVES = {
        "gridmap.parse_s": "setup_s",
        "graph.build_s": "setup_s",
        "graph.reverse_calls": "op_p50_ms",
        "graph.reverse_s": "op_p50_ms",
        "shortest_paths.rows_repeat_ratio": "op_p50_ms",
        "sim.ticks": "op_p50_ms, ops_per_s",
        "sim.step_self_s": "op_p50_ms",
        "sim.next_move_calls": "op_p50_ms",
        "sim.next_move_s": "op_p50_ms",
    }

    def inputs(self, seed: int) -> GridInputs:
        text = maps.bench_map("88x27")
        cells = reference.free_cells(text)
        width = max(c for _, c in cells) + 1
        left = [v for v, (_, c) in enumerate(cells) if c < width // 3]
        right = [v for v, (_, c) in enumerate(cells) if c >= 2 * width // 3]

        def make(rng: random.Random, index: int) -> tuple[int, ...]:
            if index % 2 == 0:
                return tuple(rng.sample(range(len(cells)), SIM_USERS))
            # "stick": one user far left, the rest bunched around a right-hand cell
            loner = rng.choice(left)
            r0, c0 = cells[rng.choice(right)]
            bunch = sorted(
                right, key=lambda v: (abs(cells[v][0] - r0) + abs(cells[v][1] - c0), v)
            )[:SIM_USERS - 1]
            return (loner, *bunch)

        return GridInputs(text, cells, Stream(f"sim_replan:{seed}", make))

    def setup(self, inputs: GridInputs):
        _, graph = gridmap.parse_grid_map(inputs.text)
        sim.step(sim.SimState.initial(graph, (0, graph.vertex_count - 1)))
        return graph

    session = SimSession

    def check(self, inputs: GridInputs, sessions: list[SimSession]) -> int:
        adjacency = reference.grid_adjacency(inputs.cells)
        longest: dict[int, int] = {}
        for session in sessions:
            for index, record in enumerate(session.records):
                longest[index] = max(longest.get(index, 0), len(record.frames))
        expected = {
            index: reference.simulate(adjacency, inputs.requests[index], ticks - 1)
            for index, ticks in longest.items()
        }
        failed = 0
        for session in sessions:
            for index, record in enumerate(session.records):
                if record.errors or record.gave_up:
                    failed += len(record.frames) + record.errors
                    continue
                want = expected[index]
                failed += sum(
                    i >= len(want) or frame != want[i] for i, frame in enumerate(record.frames)
                )
        return failed


WORKLOADS = {w.name: w for w in (SolveLarge(), CrowdVenue(), SimReplan())}
