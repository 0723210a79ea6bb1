import random

import pytest

from meetpoint import (
    UNREACHABLE,
    build_graph,
    build_partial_matrix,
    dijkstra_row,
    floyd_all_pairs,
)
from meetpoint.errors import EmptySources, InvalidSource, UnknownChannel
from meetpoint.shortest_paths import ReachabilitySet, _search

from conftest import random_connected_graph


def triangle_star():
    return build_graph(3, [(0, 1, 2), (0, 2, 4)], undirected=True)


def example_pair_graph():
    # two users at 0 and 1; rows come out as [0,2,4,1] and [2,0,6,3]
    return build_graph(4, [(0, 1, 2), (0, 2, 4), (0, 3, 1)], undirected=True)


def test_row_routes_through_middleman():
    row = dijkstra_row(triangle_star(), 1)
    assert row.distances == (2, 0, 6)


def test_isolated_vertex_is_unreachable():
    row = dijkstra_row(build_graph(2, []), 0)
    assert row.distances == (0, UNREACHABLE)


def test_row_distances_stay_integers():
    row = dijkstra_row(example_pair_graph(), 1)
    assert all(isinstance(d, int) for d in row.distances)


def test_partial_matrix_rows_in_source_order():
    matrix = build_partial_matrix(example_pair_graph(), [0, 1])
    assert matrix.rows[0].distances == (0, 2, 4, 1)
    assert matrix.rows[1].distances == (2, 0, 6, 3)


def test_single_source_matrix():
    matrix = build_partial_matrix(triangle_star(), [2])
    assert matrix.user_count == 1
    assert matrix.rows[0].source == 2


def test_colocated_users_get_identical_rows():
    matrix = build_partial_matrix(triangle_star(), [1, 1])
    assert matrix.rows[0].distances == matrix.rows[1].distances


def test_empty_sources():
    with pytest.raises(EmptySources):
        build_partial_matrix(triangle_star(), [])


def test_invalid_source():
    with pytest.raises(InvalidSource):
        dijkstra_row(triangle_star(), 9)


def test_unknown_channel():
    with pytest.raises(UnknownChannel):
        dijkstra_row(triangle_star(), 0, "time")


def test_rows_match_floyd_on_random_graphs():
    rng = random.Random(11)
    for _ in range(20):
        graph = random_connected_graph(rng, 30)
        full = floyd_all_pairs(graph)
        for source in range(graph.vertex_count):
            assert dijkstra_row(graph, source).distances == full.distances[source]


def test_settle_distances_are_monotone():
    rng = random.Random(13)
    for _ in range(20):
        graph = random_connected_graph(rng, 40)
        settled = [d for _, d in _search(graph, 0, 0)]
        assert settled == sorted(settled)


def test_triangle_consistency():
    rng = random.Random(17)
    for _ in range(20):
        graph = random_connected_graph(rng, 40)
        row = dijkstra_row(graph, rng.randrange(graph.vertex_count)).distances
        for u, v, (w,) in graph.edges:
            if row[u] != UNREACHABLE:
                assert row[v] <= row[u] + w


def test_recomputation_is_identical():
    graph = random_connected_graph(random.Random(19), 40)
    assert dijkstra_row(graph, 3) == dijkstra_row(graph, 3)


def test_work_scales_linearly_with_users():
    # settled-vertex count as a work proxy: per-row work is independent of
    # how many other rows are built
    graph = random_connected_graph(random.Random(29), 40, min_vertices=10)
    sources = list(range(4))

    def work(srcs):
        return sum(len(list(_search(graph, s, 0))) for s in srcs)

    assert work(sources * 2) <= 2.05 * work(sources)


def test_reachability_masks():
    graph = build_graph(3, [(0, 1, 1)], undirected=True)
    matrix = build_partial_matrix(graph, [0, 2])
    reach = ReachabilitySet.from_matrix(matrix)
    assert reach.masks[0] == frozenset({0, 1})
    assert reach.masks[1] == frozenset({2})
    assert reach.mutual() == frozenset()
    for row, mask in zip(matrix.rows, reach.masks):
        assert row.source in mask
