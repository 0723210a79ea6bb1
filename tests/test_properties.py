"""Property tests over generated graphs and score vectors."""

from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import example, given, settings

from meetpoint import (
    UNREACHABLE,
    ObjectiveWeights,
    build_graph,
    build_partial_matrix,
    dijkstra_row,
    floyd_all_pairs,
    plan_destination,
    similarity_penalty,
    total_distance,
)


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    edges = []
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.append((u, v, draw(st.integers(min_value=1, max_value=9))))
    extra = draw(st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=0, max_value=n - 1),
            st.integers(min_value=1, max_value=9),
        ),
        max_size=2 * n,
    ))
    edges.extend((u, v, w) for u, v, w in extra if u != v)
    return build_graph(n, edges, undirected=True)


@st.composite
def graph_with_users(draw):
    graph = draw(connected_graphs())
    count = draw(st.integers(min_value=1, max_value=4))
    users = tuple(
        draw(st.integers(min_value=0, max_value=graph.vertex_count - 1))
        for _ in range(count)
    )
    return graph, users


@given(connected_graphs())
def test_rows_equal_floyd_rows(graph):
    full = floyd_all_pairs(graph)
    for source in range(graph.vertex_count):
        assert dijkstra_row(graph, source).distances == full.distances[source]


@given(graph_with_users())
def test_scores_are_nonnegative_where_reachable(pair):
    graph, users = pair
    matrix = build_partial_matrix(graph, users)
    for vector in (total_distance(matrix), similarity_penalty(matrix)):
        for value in vector.values:
            assert value == UNREACHABLE or value >= 0


@given(graph_with_users())
def test_destination_ignores_user_order(pair):
    graph, users = pair
    base = plan_destination(graph, users).destination
    rotated = users[1:] + users[:1]
    assert plan_destination(graph, rotated).destination == base
    assert plan_destination(graph, tuple(reversed(users))).destination == base


@given(graph_with_users())
def test_colocation_wins(pair):
    graph, users = pair
    vertex = users[0]
    plan = plan_destination(graph, tuple(vertex for _ in users))
    assert plan.destination == vertex


@given(
    st.lists(st.floats(min_value=0.01, max_value=99.0), min_size=2, max_size=20),
    st.floats(min_value=0.0, max_value=1.0),
)
@example(values=[2.0] + [1.0] * 6, alpha=2.220446049250313e-16)
@example(values=[2.0, 2.0, 3.0, 1.0, 1.0, 2.0], alpha=0.9999999999999999)
@settings(max_examples=200)
def test_norm_form_equivalence(values, alpha):
    # the combination's argmin set must equal the argmax set of the
    # normalized weighted sum. Checked in exact rationals on the same float
    # inputs: the normalized blend sits near 0.45, where half an ulp can
    # exceed the true gap between two vertices, so no float normalize() can
    # keep this property on every input
    other = list(reversed(values))
    weights = ObjectiveWeights(alpha, 1.0 - alpha)
    a, b = Fraction(weights.alpha), Fraction(weights.beta)
    totals, sims = [Fraction(x) for x in values], [Fraction(x) for x in other]
    sum_t, sum_s = sum(totals), sum(sims)
    combined = [a * (t / sum_t) + b * (s / sum_s) for t, s in zip(totals, sims)]
    blends = [a * (1 - t / sum_t) / 2 + b * (1 - s / sum_s) / 2 for t, s in zip(totals, sims)]
    argmin = {v for v, c in enumerate(combined) if c == min(combined)}
    argmax = {v for v, n in enumerate(blends) if n == max(blends)}
    assert argmin == argmax
