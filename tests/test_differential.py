"""Differential tests: the fast paths against slow, independent baselines.

Small random graphs, directed or undirected, with disconnected parts and
repeated user positions, and small random walled grid maps. Channels whose
weights are all the integer 1 take the breadth-first row search; integer
weights with zeros, and float 1.0 weights, take the heap search.
"""

import math
from itertools import combinations

import hypothesis.strategies as st
import pytest
from hypothesis import given

from meetpoint import (
    UNREACHABLE,
    DistanceMatrix,
    DistanceRow,
    ObjectiveWeights,
    ScoreVector,
    brute_force_destination,
    build_graph,
    combine,
    dijkstra_row,
    neighbors,
    next_move,
    plan_destination,
    similarity_penalty,
    total_distance,
)
from meetpoint.errors import NoCandidate, NoMutuallyReachableVertex
from meetpoint.gridmap import GridMap
from meetpoint.shortest_paths import _search
from meetpoint.sim import SimState, step


WEIGHTS = {
    "unit": st.just(1),
    "float_one": st.just(1.0),
    "integer": st.integers(min_value=0, max_value=5),
}


@st.composite
def graphs(draw, *, undirected=None, channels=("distance",)):
    """Random graph; each channel draws one kind of weight from WEIGHTS."""
    n = draw(st.integers(min_value=1, max_value=9))
    kinds = [draw(st.sampled_from(sorted(WEIGHTS))) for _ in channels]
    if undirected is None:
        undirected = draw(st.booleans())
    weights = st.tuples(*(WEIGHTS[kind] for kind in kinds))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex, weights), max_size=3 * n))
    return build_graph(n, edges, channels, undirected=undirected)


@st.composite
def instances(draw):
    graph = draw(graphs())
    positions = draw(st.lists(
        st.integers(min_value=0, max_value=graph.vertex_count - 1), min_size=1, max_size=5
    ))
    alpha = draw(st.floats(min_value=0.0, max_value=1.0))
    return graph, tuple(positions), ObjectiveWeights(alpha, 1.0 - alpha)


@given(instances())
def test_plan_matches_brute_force(instance):
    graph, positions, weights = instance
    try:
        expected = brute_force_destination(graph, positions, None, weights)
    except NoCandidate:
        with pytest.raises(NoCandidate):
            plan_destination(graph, positions, None, weights)
        return
    assert plan_destination(graph, positions, None, weights).destination == expected


@given(graphs(channels=("distance", "time")))
def test_rows_equal_heap_rows_on_every_channel(graph):
    # all-int-1 channels take the breadth-first search, every other the heap
    for ci, channel in enumerate(graph.channels):
        for source in range(graph.vertex_count):
            settled = [UNREACHABLE] * graph.vertex_count
            for v, d in _search(graph, source, ci):
                settled[v] = d
            row = dijkstra_row(graph, source, channel).distances
            assert row == tuple(settled)
            # the CLI prints ints and floats differently
            assert [type(d) for d in row] == [type(d) for d in settled]


@given(graphs(channels=("distance", "time")))
def test_build_graph_round_trips_its_edges(graph):
    rebuilt = build_graph(graph.vertex_count, graph.edges, graph.channels)
    assert rebuilt == graph
    assert rebuilt.unit_weight == graph.unit_weight


@given(graphs(undirected=False))
def test_reverse_is_a_cached_flip(graph):
    reverse = graph.reverse()
    flipped = [(v, u, w) for u, v, w in graph.edges]
    fresh = build_graph(graph.vertex_count, flipped, graph.channels)
    assert reverse == fresh
    assert reverse.out_targets == fresh.out_targets
    assert reverse.out_weights == fresh.out_weights
    assert reverse.unit_weight == fresh.unit_weight
    assert graph.reverse() is reverse
    assert reverse.reverse() == graph
    assert graph.symmetric == (reverse is graph)


@given(graphs(undirected=True, channels=("distance", "time")))
def test_undirected_graph_is_its_own_reverse(graph):
    assert graph.symmetric
    assert graph.reverse() is graph


@st.composite
def grids(draw):
    width = draw(st.integers(min_value=1, max_value=7))
    height = draw(st.integers(min_value=1, max_value=7))
    row = st.tuples(*[st.booleans()] * width)
    return GridMap(width, height, tuple(draw(st.lists(row, min_size=height, max_size=height))))


@given(grids(), st.sampled_from([("distance",), ("distance", "time")]))
def test_grid_tables_equal_the_built_graph(grid, channels):
    edges = []
    for u in range(grid.vertex_count):
        r, c = grid.cell_of(u)
        for dr, dc in ((1, 0), (0, 1), (-1, 0), (0, -1)):
            if 0 <= r + dr < grid.height and 0 <= c + dc < grid.width:
                v = grid.vertex_at(r + dr, c + dc)
                if v is not None:
                    edges.append((u, v, (1,) * len(channels)))
    graph = grid.to_graph(channels)
    built = build_graph(grid.vertex_count, edges, channels)
    assert graph == built
    assert graph.unit_weight == built.unit_weight == (True,) * len(channels)
    assert graph.reverse() is graph


@given(graphs(undirected=False), st.data())
def test_moves_follow_shortest_paths_on_directed_graphs(graph, data):
    vertex = st.integers(min_value=0, max_value=graph.vertex_count - 1)
    positions = tuple(data.draw(st.lists(vertex, min_size=1, max_size=4)))
    try:
        state = SimState.initial(graph, positions)
    except NoCandidate:
        return
    destination = state.current_destination
    after, _ = step(state)
    for position, moved_to in zip(positions, after.positions):
        assert moved_to == next_move(graph, position, destination)
        if position == destination:
            assert moved_to == position
            continue
        weight = min(w for t, w in neighbors(graph, position) if t == moved_to)
        to_go = dijkstra_row(graph, moved_to).distances[destination]
        assert weight + to_go == dijkstra_row(graph, position).distances[destination]


entries = st.one_of(st.integers(min_value=0, max_value=10**9), st.just(UNREACHABLE))


@given(
    st.integers(min_value=1, max_value=8).flatmap(
        lambda width: st.lists(st.lists(entries, min_size=width, max_size=width),
                               min_size=1, max_size=8)
    )
)
def test_scores_equal_pairwise_forms_on_integers(rows):
    matrix = DistanceMatrix(
        tuple(DistanceRow(i, tuple(row)) for i, row in enumerate(rows)), "distance"
    )
    totals, sims = [], []
    for column in zip(*rows):
        if UNREACHABLE in column:
            totals.append(UNREACHABLE)
            sims.append(UNREACHABLE)
            continue
        totals.append(math.fsum(column))
        sims.append(math.fsum(abs(a - b) for a, b in combinations(column, 2)))
    assert total_distance(matrix).values == tuple(totals)
    assert similarity_penalty(matrix).values == tuple(sims)


scores = st.one_of(st.floats(min_value=0.0, max_value=1e6), st.just(0.0), st.just(UNREACHABLE))


@given(
    st.lists(st.tuples(scores, scores), min_size=1, max_size=12),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_combine_keeps_the_loop_formula_bit_for_bit(pairs, alpha):
    # the per-vertex loop combine() replaced, kept as the reference
    weights = ObjectiveWeights(alpha, 1.0 - alpha)
    totals = tuple(t for t, _ in pairs)
    sims = tuple(s for _, s in pairs)
    finite = [v for v in range(len(pairs)) if UNREACHABLE not in pairs[v]]
    if not finite:
        with pytest.raises(NoMutuallyReachableVertex):
            combine(ScoreVector(totals, "total"), ScoreVector(sims, "similarity"), weights)
        return
    sum_total = math.fsum(totals[v] for v in finite)
    sum_sim = math.fsum(sims[v] for v in finite)
    expected = [UNREACHABLE] * len(pairs)
    for v in finite:
        score = 0.0
        if sum_total > 0:
            score += weights.alpha * (totals[v] / sum_total)
        if sum_sim > 0:
            score += weights.beta * (sims[v] / sum_sim)
        expected[v] = score
    got = combine(ScoreVector(totals, "total"), ScoreVector(sims, "similarity"), weights).values
    assert [x.hex() for x in got] == [x.hex() for x in expected]
