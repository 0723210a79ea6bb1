"""Wall-clock comparison of the per-user search against the all-pairs baseline.

Each cell times one full solve: distance-matrix build plus destination
selection. The baseline side can take hours on big maps, so it runs under a
deadline and a cell that blows it is reported censored rather than failed.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .errors import FloydTimeout
from .gridmap import parse_grid_map
from .graph import Graph
from .maps import bench_map
from .oracle import brute_force_destination
from .scoring import ObjectiveWeights, plan_destination

CSV_HEADER = "map,users,md_seconds,floyd_seconds"


@contextmanager
def _quiesced_gc():
    """Collect once, then keep the collector out of the timed section."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True)
class BenchRow:
    map_name: str
    users: int
    md_seconds: float
    floyd_seconds: float | None  # None when skipped or censored
    floyd_censored: bool = False


def sample_positions(vertex_count: int, count: int, *, map_name: str, seed: int) -> tuple[int, ...]:
    """Seeded user placement; every vertex id is a free cell."""
    rng = random.Random(f"bench:{seed}:{map_name}:{count}")
    return tuple(rng.sample(range(vertex_count), count))


def time_selection(
    graph: Graph,
    positions: Sequence[int],
    *,
    weights: ObjectiveWeights | None = None,
    reps: int = 5,
) -> float:
    """Median wall time of matrix build plus destination selection.

    One untimed warmup run absorbs first-touch costs before measuring.
    """
    plan_destination(graph, positions, None, weights)
    samples = []
    with _quiesced_gc():
        for _ in range(reps):
            start = time.perf_counter()
            plan_destination(graph, positions, None, weights)
            samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def time_baseline(
    graph: Graph,
    positions: Sequence[int],
    *,
    weights: ObjectiveWeights | None = None,
    reps: int = 5,
    timeout: float = 300.0,
) -> tuple[float | None, bool]:
    """Median wall time of the all-pairs build plus exhaustive selection.

    Returns (seconds, censored); a single run past ``timeout`` censors the
    whole cell since repeats would only repeat the wait.
    """
    samples = []
    with _quiesced_gc():
        for _ in range(reps):
            start = time.perf_counter()
            try:
                brute_force_destination(
                    graph, positions, None, weights, deadline=start + timeout
                )
            except FloydTimeout:
                return None, True
            samples.append(time.perf_counter() - start)
    return statistics.median(samples), False


def _interleaved_md_times(
    graph: Graph,
    positions_by_count: dict[int, tuple[int, ...]],
    *,
    weights: ObjectiveWeights | None,
    reps: int,
) -> dict[int, float]:
    """Per-cell medians measured round-robin across user counts.

    Interleaving decorrelates the cells from slow machine phases: a noise
    burst lands on one round of every cell instead of on all repetitions
    of a single cell, which matters when cells are compared to each other.
    """
    samples: dict[int, list[float]] = {count: [] for count in positions_by_count}
    for positions in positions_by_count.values():  # warmup, untimed
        plan_destination(graph, positions, None, weights)
    with _quiesced_gc():
        for _ in range(reps):
            for count, positions in positions_by_count.items():
                start = time.perf_counter()
                plan_destination(graph, positions, None, weights)
                samples[count].append(time.perf_counter() - start)
    return {count: statistics.median(times) for count, times in samples.items()}


def run_bench(
    sizes: Iterable[str],
    user_counts: Iterable[int],
    *,
    reps: int = 5,
    floyd_timeout: float = 300.0,
    include_floyd: bool = True,
    seed: int = 0,
    weights: ObjectiveWeights | None = None,
) -> list[BenchRow]:
    rows = []
    counts = list(user_counts)
    for size in sizes:
        _, graph = parse_grid_map(bench_map(size, seed=seed))
        positions_by_count = {
            count: sample_positions(graph.vertex_count, count, map_name=size, seed=seed)
            for count in counts
        }
        md_times = _interleaved_md_times(graph, positions_by_count, weights=weights, reps=reps)
        for count in counts:
            if include_floyd:
                floyd, censored = time_baseline(
                    graph,
                    positions_by_count[count],
                    weights=weights,
                    reps=reps,
                    timeout=floyd_timeout,
                )
            else:
                floyd, censored = None, False
            rows.append(BenchRow(size, count, md_times[count], floyd, censored))
    return rows


def format_csv(rows: Iterable[BenchRow]) -> str:
    """Header line plus one line per cell."""
    lines = [CSV_HEADER]
    for row in rows:
        if row.floyd_censored:
            floyd = "censored"
        elif row.floyd_seconds is None:
            floyd = ""
        else:
            floyd = f"{row.floyd_seconds:.6f}"
        lines.append(f"{row.map_name},{row.users},{row.md_seconds:.6f},{floyd}")
    return "\n".join(lines) + "\n"


def write_csv(rows: Iterable[BenchRow], out: TextIO) -> None:
    out.write(format_csv(rows))
