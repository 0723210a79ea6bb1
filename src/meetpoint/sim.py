"""Tick-by-tick replanning: every user walks one step toward the current best
meeting vertex, which is recomputed from scratch each tick.

The loop ends when all users stand on one vertex. Because movement ties are
broken deterministically the chosen destination can drift while users move,
so the achieved meeting vertex may differ from the tick-0 choice; traces
record both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import MaxTicksExceeded, UnreachableDestination
from .graph import Graph
from .scoring import ObjectiveWeights, PreferenceProfile, plan_destination
from .shortest_paths import UNREACHABLE, DistanceRow, dijkstra_row

# movement always follows physical distance, whatever channels scored the choice
MOVE_CHANNEL = "distance"


@dataclass(frozen=True)
class SimState:
    graph: Graph
    positions: tuple[int, ...]
    profile: PreferenceProfile | None
    weights: ObjectiveWeights
    tick: int
    current_destination: int

    @classmethod
    def initial(
        cls,
        graph: Graph,
        positions: Sequence[int],
        profile: PreferenceProfile | None = None,
        weights: ObjectiveWeights | None = None,
    ) -> "SimState":
        """Tick-0 state with the destination already selected."""
        weights = weights if weights is not None else ObjectiveWeights()
        plan = plan_destination(graph, positions, profile, weights)
        return cls(graph, tuple(positions), profile, weights, 0, plan.destination)


@dataclass(frozen=True)
class Snapshot:
    tick: int
    destination: int
    positions: tuple[int, ...]


@dataclass(frozen=True)
class SimTrace:
    """Record of one simulation run.

    ``final_destination`` is where the users actually met; when a run is cut
    off it falls back to the last selected destination. ``step_counts`` count
    the ticks in which each user moved, ``visited`` the vertices each user
    ever stood on.
    """

    snapshots: tuple[Snapshot, ...]
    initial_destination: int
    final_destination: int
    converged: bool
    step_counts: tuple[int, ...]
    visited: tuple[frozenset[int], ...]


def next_move(
    graph: Graph,
    position: int,
    destination: int,
    channel: str = MOVE_CHANNEL,
    *,
    distances_to_destination: DistanceRow | None = None,
) -> int:
    """One greedy step: the neighbor minimizing edge weight plus remaining distance.

    Ties break toward the lower vertex id. ``distances_to_destination`` is a
    row computed on the reversed graph from ``destination``; callers moving
    many users per tick pass it in to share one search. The reversed graph
    is built once per graph and kept.
    """
    if position == destination:
        return position
    ci = graph.channel_index(channel)
    if distances_to_destination is None:
        distances_to_destination = dijkstra_row(graph.reverse(), destination, channel)
    remaining = distances_to_destination.distances
    if remaining[position] == UNREACHABLE:
        raise UnreachableDestination(f"{destination} is unreachable from {position}")

    best_target = -1
    best_cost = UNREACHABLE
    for target, weight in zip(graph.out_targets[position], graph.out_weights[ci][position]):
        if target == position or remaining[target] == UNREACHABLE:
            continue
        cost = weight + remaining[target]
        if cost < best_cost or (cost == best_cost and target < best_target):
            best_cost = cost
            best_target = target
    if best_target < 0:
        raise UnreachableDestination(f"{destination} is unreachable from {position}")
    return best_target


def step(state: SimState) -> tuple[SimState, bool]:
    """Re-plan from the current positions, then move every user at once.

    All moves are computed against the same pre-move positions, so user
    order never matters. Users already at the destination wait.
    """
    plan = plan_destination(state.graph, state.positions, state.profile, state.weights)
    destination = plan.destination
    remaining = dijkstra_row(state.graph.reverse(), destination, MOVE_CHANNEL)
    new_positions = []
    for position in state.positions:
        if position == destination:
            new_positions.append(position)
        else:
            new_positions.append(
                next_move(
                    state.graph,
                    position,
                    destination,
                    distances_to_destination=remaining,
                )
            )
    moved = tuple(new_positions) != state.positions
    next_state = SimState(
        state.graph,
        tuple(new_positions),
        state.profile,
        state.weights,
        state.tick + 1,
        destination,
    )
    return next_state, moved


def _finish(snapshots: list[Snapshot], initial: int, final: int, converged: bool) -> SimTrace:
    starts = snapshots[0].positions
    counts = [0] * len(starts)
    visited = [{p} for p in starts]
    for before, after in zip(snapshots, snapshots[1:]):
        for i, (a, b) in enumerate(zip(before.positions, after.positions)):
            if a != b:
                counts[i] += 1
            visited[i].add(b)
    return SimTrace(
        tuple(snapshots),
        initial,
        final,
        converged,
        tuple(counts),
        tuple(frozenset(s) for s in visited),
    )


def run(state: SimState, max_ticks: int | None = None) -> SimTrace:
    """Step until every user shares a vertex or the tick budget runs out.

    Raises MaxTicksExceeded (with the partial trace attached) on a run that
    does not converge; oscillating destinations make that a real outcome,
    not just a safety net.
    """
    if max_ticks is None:
        max_ticks = 10 * state.graph.vertex_count
    if max_ticks < 1:
        raise ValueError("max_ticks must be at least 1")

    initial = state.current_destination
    snapshots = [Snapshot(state.tick, state.current_destination, state.positions)]
    current = state
    for _ in range(max_ticks):
        if len(set(current.positions)) == 1:
            return _finish(snapshots, initial, current.positions[0], True)
        current, _ = step(current)
        snapshots.append(Snapshot(current.tick, current.current_destination, current.positions))
    if len(set(current.positions)) == 1:
        return _finish(snapshots, initial, current.positions[0], True)
    partial = _finish(snapshots, initial, current.current_destination, False)
    raise MaxTicksExceeded(f"users did not meet within {max_ticks} ticks", partial)


def serialize_trace(trace: SimTrace) -> str:
    """One line per snapshot: tick, destination, comma-joined positions."""
    lines = [
        f"{snap.tick} {snap.destination} {','.join(str(p) for p in snap.positions)}"
        for snap in trace.snapshots
    ]
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> SimTrace:
    """Rebuild a trace from its text form; '#' lines and blanks are ignored."""
    snapshots = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tick_part, dest_part, pos_part = line.split()
        snapshots.append(
            Snapshot(
                int(tick_part),
                int(dest_part),
                tuple(int(p) for p in pos_part.split(",")),
            )
        )
    if not snapshots:
        raise ValueError("trace has no records")
    last = snapshots[-1]
    converged = len(set(last.positions)) == 1
    final = last.positions[0] if converged else last.destination
    return _finish(snapshots, snapshots[0].destination, final, converged)
