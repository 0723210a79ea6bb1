import math

import pytest

from meetpoint import build_graph, neighbors
from meetpoint.errors import (
    EmptyChannelList,
    InvalidEdgeEndpoint,
    NegativeWeight,
    UnknownChannel,
)


def triangle_star():
    # 3 vertices: 0-1 costs 2, 0-2 costs 4, no direct 1-2 road
    return build_graph(3, [(0, 1, 2), (0, 2, 4)], undirected=True)


def test_undirected_expansion():
    g = triangle_star()
    assert len(g.edges) == 4
    assert (1, 0, (2,)) in g.edges and (2, 0, (4,)) in g.edges


def test_single_vertex_no_edges_is_valid():
    g = build_graph(1, [])
    assert g.vertex_count == 1
    assert neighbors(g, 0) == []


def test_out_of_range_endpoint():
    with pytest.raises(InvalidEdgeEndpoint):
        build_graph(3, [(0, 5, 1)])


@pytest.mark.parametrize("bad", [-1, math.inf, math.nan])
def test_bad_weights_rejected(bad):
    with pytest.raises(NegativeWeight):
        build_graph(2, [(0, 1, bad)])


def test_empty_channel_list():
    with pytest.raises(EmptyChannelList):
        build_graph(2, [(0, 1, ())], channels=())


def test_first_channel_must_be_distance():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, (1, 2))], channels=("time", "distance"))


def test_weight_count_must_match_channels():
    with pytest.raises(ValueError):
        build_graph(2, [(0, 1, (1, 2))], channels=("distance",))


def test_neighbors_sorted_by_target():
    g = triangle_star()
    assert neighbors(g, 0) == [(1, 2), (2, 4)]
    assert neighbors(g, 1) == [(0, 2)]


def test_neighbors_unknown_channel():
    with pytest.raises(UnknownChannel):
        neighbors(triangle_star(), 0, "time")


def test_neighbors_picks_requested_channel():
    g = build_graph(2, [(0, 1, (3, 7))], channels=("distance", "time"), undirected=True)
    assert neighbors(g, 0, "time") == [(1, 7)]
    assert neighbors(g, 0, "distance") == [(1, 3)]


def test_reverse_flips_directed_edges():
    g = build_graph(3, [(0, 1, 5), (1, 2, 1)])
    r = g.reverse()
    assert neighbors(r, 1) == [(0, 5)]
    assert neighbors(r, 0) == []
    assert neighbors(r, 2) == [(1, 1)]


def test_equality_compares_tables_not_input_order():
    edges = [(0, 1, 5), (1, 2, 1), (0, 2, 3)]
    assert build_graph(3, edges) == build_graph(3, edges[::-1])
    # parallel edges keep their input order
    assert build_graph(2, [(0, 1, 1), (0, 1, 2)]) != build_graph(2, [(0, 1, 2), (0, 1, 1)])
