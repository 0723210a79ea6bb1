"""Destination scoring: total travel, travel disparity, blending, selection.

Scores come in per-vertex vectors. ``total_distance`` sums every user's
shortest distance into a vertex; ``similarity_penalty`` sums the pairwise
absolute differences of those distances, so it is zero exactly where all
users travel equally far. The two are combined as weighted shares of their
own sums, and the lowest-scoring vertex reachable by everyone wins.

Each layer is one pass over the rows or columns of the distance matrix, so a
solve costs O(V k log k) for k users on V vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, mul, sub
from typing import Iterable, Literal, Sequence

from .errors import (
    AllZeroScores,
    EmptyMatrix,
    LengthMismatch,
    NoCandidate,
    NoMutuallyReachableVertex,
    NonFiniteEntry,
    ShapeMismatch,
    ZeroSum,
)
from .graph import Graph
from .shortest_paths import (
    UNREACHABLE,
    DistanceMatrix,
    DistanceRow,
    ReachabilitySet,
    build_partial_matrix,
)

MAX_PRIORITY_SCORE = 5

Kind = Literal["total", "similarity", "combined"]


@dataclass(frozen=True)
class ScoreVector:
    values: tuple[float, ...]
    kind: Kind


@dataclass(frozen=True)
class PreferenceProfile:
    """Per-user priority scores, one integer in 0..5 per objective."""

    objectives: tuple[str, ...]
    scores: tuple[tuple[int, ...], ...]  # scores[user][objective]

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("at least one objective is required")
        for row in self.scores:
            if len(row) != len(self.objectives):
                raise ValueError(
                    f"score row {row} does not match {len(self.objectives)} objectives"
                )
            for s in row:
                if not 0 <= s <= MAX_PRIORITY_SCORE:
                    raise ValueError(f"priority score {s} outside 0..{MAX_PRIORITY_SCORE}")


@dataclass(frozen=True)
class ObjectiveWeights:
    """Convex weights for the two score terms: alpha total, beta disparity."""

    alpha: float = 0.5
    beta: float = 0.5

    def __post_init__(self) -> None:
        # nan fails both comparisons; an infinite weight fails the sum below
        if not (self.alpha >= 0 and self.beta >= 0):
            raise ValueError(f"weights must be non-negative, got {self.alpha} and {self.beta}")
        if abs(self.alpha + self.beta - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {self.alpha} + {self.beta}")


def total_distance(matrix: DistanceMatrix) -> ScoreVector:
    """Column sums over user rows; any unreachable entry poisons its column.

    Each column is summed in ascending order (``matrix.ranked``), so the
    result is bit-identical under any user order and exact on integers.
    """
    if not matrix.rows:
        raise EmptyMatrix("matrix has no rows")
    acc: Iterable[float] = repeat(0.0, matrix.vertex_count)
    for ranked_row in matrix.ranked:
        acc = map(add, acc, ranked_row)
    return ScoreVector(tuple(acc), "total")


def similarity_penalty(matrix: DistanceMatrix) -> ScoreVector:
    """Per-vertex sum of |distance difference| over unordered user pairs.

    Zero everywhere for a single user; unreachable columns stay unreachable.
    With a column sorted as a_(0) <= ... <= a_(k-1), the sum equals
    sum_{m=1}^{k-1} m (k - m) (a_(m) - a_(m-1)): every gap is crossed by the
    m users below it times the k - m above it. All terms are non-negative
    and the result is exact on integer distances.
    """
    if not matrix.rows:
        raise EmptyMatrix("matrix has no rows")
    ranked = matrix.ranked
    k = len(ranked)
    acc: Iterable[float] = repeat(0.0, matrix.vertex_count)
    for m in range(1, k):
        gaps = map(sub, ranked[m], ranked[m - 1])
        acc = map(add, acc, map(mul, repeat(m * (k - m)), gaps))
    values = tuple(acc)
    if UNREACHABLE in ranked[-1]:
        # a column holding inf sorts it last; its gap sum is inf or nan (inf - inf)
        values = tuple(
            UNREACHABLE if top == UNREACHABLE else x for top, x in zip(ranked[-1], values)
        )
    return ScoreVector(values, "similarity")


def normalize(values: Sequence[float]) -> list[float]:
    """Entry-wise (1 - x/sum) / 2; expects finite, non-negative entries.

    Outputs lie in [0, 0.5] and decrease as the raw entry grows, so cheaper
    entries map to larger normalized values.
    """
    for x in values:
        if not math.isfinite(x):
            raise NonFiniteEntry(f"cannot normalize {x!r}")
    total = math.fsum(values)
    if total <= 0:
        raise ZeroSum("normalization needs a positive sum")
    return [(1 - x / total) / 2 for x in values]


def priority_weights(profile: PreferenceProfile) -> tuple[float, ...]:
    """Convex per-objective weights proportional to summed priority scores."""
    totals = [
        sum(row[k] for row in profile.scores)
        for k in range(len(profile.objectives))
    ]
    grand = sum(totals)
    if grand == 0:
        raise AllZeroScores("every priority score is zero")
    return tuple(t / grand for t in totals)


def blend_objectives(
    matrices: Sequence[DistanceMatrix], weights: Sequence[float]
) -> DistanceMatrix:
    """Entry-wise weighted sum of per-objective matrices.

    Any unreachable entry makes the blended entry unreachable. A single
    matrix with weight 1 is returned unchanged, keeping integer distances
    exact.
    """
    if len(matrices) != len(weights):
        raise ShapeMismatch(f"{len(matrices)} matrices vs {len(weights)} weights")
    if not matrices:
        raise ShapeMismatch("no matrices to blend")
    first = matrices[0]
    for m in matrices[1:]:
        if m.user_count != first.user_count or m.vertex_count != first.vertex_count:
            raise ShapeMismatch("matrices differ in user or vertex count")
        for row, ref in zip(m.rows, first.rows):
            if row.source != ref.source:
                raise ShapeMismatch("matrices disagree on user order")
    if len(matrices) == 1 and weights[0] == 1:
        return first

    # users sharing a source share its row objects; blend each row set once
    blended: dict[tuple[int, ...], DistanceRow] = {}
    blended_rows = []
    for cells in zip(*(m.rows for m in matrices)):
        key = tuple(map(id, cells))
        row = blended.get(key)
        if row is None:
            row = blended[key] = DistanceRow(cells[0].source, _blend_row(cells, weights))
        blended_rows.append(row)
    channel = "+".join(m.channel for m in matrices)
    return DistanceMatrix(tuple(blended_rows), channel)


def _blend_row(cells: Sequence[DistanceRow], weights: Sequence[float]) -> tuple[float, ...]:
    """0.0 + w_1 d_1 + w_2 d_2 + ... per vertex, summed left to right."""
    acc: Iterable[float] = repeat(0.0, len(cells[0].distances))
    for w, cell in zip(weights, cells):
        acc = map(add, acc, map(mul, repeat(w), cell.distances))
    # an unreachable entry in any channel leaves inf, -inf or nan (0 * inf)
    inf = UNREACHABLE
    return tuple(x if -inf < x < inf else inf for x in acc)


def combine(
    d_total: ScoreVector, d_sim: ScoreVector, weights: ObjectiveWeights
) -> ScoreVector:
    """Weighted sum of each vector's share of its own total.

    Only vertices finite in both vectors count; a term whose sum is zero
    (e.g. a single user's disparity) contributes nothing rather than failing.
    The argmin of this combination is the argmax of the normalize() form.
    """
    if len(d_total.values) != len(d_sim.values):
        raise LengthMismatch(
            f"{len(d_total.values)} total entries vs {len(d_sim.values)} disparity entries"
        )
    totals, sims = d_total.values, d_sim.values
    finite = None  # every vertex counts, as on any connected graph
    counted_totals, counted_sims = totals, sims
    if UNREACHABLE in totals or UNREACHABLE in sims:
        finite = [t != UNREACHABLE and s != UNREACHABLE for t, s in zip(totals, sims)]
        counted_totals = tuple(compress(totals, finite))
        counted_sims = tuple(compress(sims, finite))
    if not counted_totals:
        raise NoMutuallyReachableVertex("no vertex is reachable by every user")
    sum_total = math.fsum(counted_totals)
    sum_sim = math.fsum(counted_sims)

    # a term whose sum is not positive contributes 0.0 * (x / 1.0) == 0.0, so
    # every entry is 0.0 + alpha * (t / sum_total) + beta * (s / sum_sim)
    # with the same rounding as adding only the terms that count
    alpha, sum_total = (weights.alpha, sum_total) if sum_total > 0 else (0.0, 1.0)
    beta, sum_sim = (weights.beta, sum_sim) if sum_sim > 0 else (0.0, 1.0)
    values = tuple([
        0.0 + alpha * (t / sum_total) + beta * (s / sum_sim) for t, s in zip(totals, sims)
    ])
    if finite is not None:  # the other entries came out inf or nan (0 * inf)
        values = tuple(v if ok else UNREACHABLE for v, ok in zip(values, finite))
    return ScoreVector(values, "combined")


def select_destination(combined: ScoreVector, reachability: ReachabilitySet) -> int:
    """Lowest-id vertex with the minimal combined score among mutually reachable ones."""
    candidates = reachability.mutual()
    best_vertex = -1
    best_score = UNREACHABLE
    for v, score in enumerate(combined.values):
        if score == UNREACHABLE or v not in candidates:
            continue
        if score < best_score:
            best_score = score
            best_vertex = v
    if best_vertex < 0:
        raise NoCandidate("no vertex is reachable by every user")
    return best_vertex


@dataclass(frozen=True)
class PlanResult:
    """Everything the selection pipeline produced for one set of positions."""

    destination: int
    matrix: DistanceMatrix
    d_total: ScoreVector
    d_sim: ScoreVector
    combined: ScoreVector
    objective_weights: tuple[float, ...]


def plan_destination(
    graph: Graph,
    positions: Sequence[int],
    profile: PreferenceProfile | None = None,
    weights: ObjectiveWeights | None = None,
) -> PlanResult:
    """Full selection pipeline from current user positions.

    Builds one distance matrix per objective channel, blends them with the
    profile's priority weights, scores every vertex and picks the argmin
    (lowest id on ties). Without a profile only the ``distance`` channel is
    used.
    """
    weights = weights if weights is not None else ObjectiveWeights()
    if profile is None:
        channels: tuple[str, ...] = ("distance",)
        obj_weights: tuple[float, ...] = (1.0,)
    else:
        if len(profile.scores) != len(positions):
            raise ShapeMismatch(f"{len(profile.scores)} score rows for {len(positions)} users")
        channels = profile.objectives
        obj_weights = priority_weights(profile)
    matrices = [build_partial_matrix(graph, positions, ch) for ch in channels]
    blended = blend_objectives(matrices, obj_weights)
    d_total = total_distance(blended)
    d_sim = similarity_penalty(blended)
    try:
        combined = combine(d_total, d_sim, weights)
    except NoMutuallyReachableVertex as exc:
        # pipeline callers deal in candidates, not vector-level diagnostics
        raise NoCandidate(str(exc)) from None
    # a combined score is finite exactly where every user can reach the vertex
    values = combined.values
    destination = values.index(min(values))
    return PlanResult(destination, blended, d_total, d_sim, combined, obj_weights)
