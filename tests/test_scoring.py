import math
import random

import pytest

from meetpoint import (
    UNREACHABLE,
    ObjectiveWeights,
    PreferenceProfile,
    ReachabilitySet,
    ScoreVector,
    blend_objectives,
    build_graph,
    build_partial_matrix,
    combine,
    floyd_all_pairs,
    normalize,
    plan_destination,
    priority_weights,
    select_destination,
    similarity_penalty,
    total_distance,
)
from meetpoint.errors import (
    AllZeroScores,
    EmptyMatrix,
    LengthMismatch,
    NoCandidate,
    NoMutuallyReachableVertex,
    NonFiniteEntry,
    ShapeMismatch,
    ZeroSum,
)
from meetpoint.shortest_paths import DistanceMatrix, DistanceRow

from conftest import random_connected_graph


def example_pair_matrix():
    graph = build_graph(4, [(0, 1, 2), (0, 2, 4), (0, 3, 1)], undirected=True)
    return build_partial_matrix(graph, [0, 1])


def matrix_of(*rows):
    return DistanceMatrix(
        tuple(DistanceRow(i, tuple(r)) for i, r in enumerate(rows)), "distance"
    )


def full_reach(matrix):
    return ReachabilitySet.from_matrix(matrix)


# --- total_distance ---------------------------------------------------------


def test_total_distance_worked_example():
    assert total_distance(example_pair_matrix()).values == (2, 2, 10, 4)


def test_total_single_user_is_identity():
    m = matrix_of([0, 3, 7])
    assert total_distance(m).values == (0, 3, 7)


def test_total_unreachable_column_poisoned():
    m = matrix_of([0, UNREACHABLE], [1, 2])
    assert total_distance(m).values == (1, UNREACHABLE)


def test_total_matches_floyd_column_sums():
    rng = random.Random(31)
    for _ in range(20):
        graph = random_connected_graph(rng, 25)
        users = [rng.randrange(graph.vertex_count) for _ in range(3)]
        got = total_distance(build_partial_matrix(graph, users)).values
        full = floyd_all_pairs(graph).distances
        expected = tuple(sum(full[u][v] for u in users) for v in range(graph.vertex_count))
        assert got == expected


def test_empty_matrix_rejected():
    with pytest.raises(EmptyMatrix):
        total_distance(DistanceMatrix((), "distance"))
    with pytest.raises(EmptyMatrix):
        similarity_penalty(DistanceMatrix((), "distance"))


# --- similarity_penalty -----------------------------------------------------


def test_similarity_worked_example():
    assert similarity_penalty(example_pair_matrix()).values == (2, 2, 2, 2)


def test_similarity_identical_rows_all_zero():
    m = matrix_of([0, 4, 2], [0, 4, 2])
    assert similarity_penalty(m).values == (0, 0, 0)


def test_similarity_three_users_hand_enumerated():
    # pairs (0,1), (0,2), (1,2) per column
    m = matrix_of([0, 3], [1, 2], [2, 1])
    assert similarity_penalty(m).values == (4, 4)


def test_similarity_single_user_is_zero():
    assert similarity_penalty(matrix_of([5, 0, 1])).values == (0, 0, 0)


def test_similarity_unreachable_column_poisoned():
    m = matrix_of([0, UNREACHABLE], [1, 0])
    assert similarity_penalty(m).values == (1, UNREACHABLE)


# --- normalize --------------------------------------------------------------


def test_normalize_uniform_pair():
    assert normalize([1, 1]) == [0.25, 0.25]


def test_normalize_worked_example():
    got = normalize([2, 2, 10, 4])
    expected = [(1 - 2 / 18) / 2, (1 - 2 / 18) / 2, (1 - 10 / 18) / 2, (1 - 4 / 18) / 2]
    assert got == pytest.approx(expected, abs=1e-12)
    assert got == pytest.approx([0.4444, 0.4444, 0.2222, 0.3889], abs=5e-5)


def test_normalize_extremes_hit_bounds():
    assert normalize([0, 4]) == [0.5, 0.0]


def test_normalize_range_and_monotonicity():
    rng = random.Random(37)
    values = [rng.uniform(0, 100) for _ in range(50)]
    normed = normalize(values)
    assert all(0 <= n <= 0.5 for n in normed)
    order = sorted(range(50), key=lambda i: values[i])
    assert sorted(range(50), key=lambda i: -normed[i]) == order


def test_normalize_errors():
    with pytest.raises(ZeroSum):
        normalize([0, 0])
    with pytest.raises(NonFiniteEntry):
        normalize([1, math.inf])


# --- priority_weights -------------------------------------------------------


def test_priority_weights_worked_example():
    profile = PreferenceProfile(("distance", "time"), ((4, 3), (5, 4)))
    assert priority_weights(profile) == (0.5625, 0.4375)


def test_priority_weights_single_objective():
    assert priority_weights(PreferenceProfile(("distance",), ((3,), (2,)))) == (1.0,)


def test_priority_weights_symmetry():
    profile = PreferenceProfile(("distance", "time"), ((2, 2), (4, 4)))
    assert priority_weights(profile) == (0.5, 0.5)


def test_priority_weights_all_zero():
    with pytest.raises(AllZeroScores):
        priority_weights(PreferenceProfile(("distance", "time"), ((0, 0),)))


def test_profile_validates_score_range():
    with pytest.raises(ValueError):
        PreferenceProfile(("distance",), ((6,),))
    with pytest.raises(ValueError):
        PreferenceProfile(("distance",), ((-1,),))


# --- blend_objectives -------------------------------------------------------


def test_blend_single_matrix_unchanged():
    m = example_pair_matrix()
    assert blend_objectives([m], [1.0]) is m


def test_blend_equal_matrices_is_fixed_point():
    m = example_pair_matrix()
    blended = blend_objectives([m, m], [0.5625, 0.4375])
    for row, ref in zip(blended.rows, m.rows):
        assert row.distances == ref.distances


def test_blend_midpoint():
    a = matrix_of([0, 2])
    b = matrix_of([0, 4])
    assert blend_objectives([a, b], [0.5, 0.5]).rows[0].distances == (0, 3)


def test_blend_unreachable_wins():
    a = matrix_of([0, UNREACHABLE])
    b = matrix_of([0, 4])
    assert blend_objectives([a, b], [0.5, 0.5]).rows[0].distances == (0, UNREACHABLE)


def test_blend_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        blend_objectives([matrix_of([0, 1]), matrix_of([0, 1, 2])], [0.5, 0.5])
    with pytest.raises(ShapeMismatch):
        blend_objectives([matrix_of([0, 1])], [0.5, 0.5])


# --- combine and select -----------------------------------------------------


def test_combine_worked_example():
    dt = ScoreVector((2, 2, 10, 4), "total")
    ds = ScoreVector((2, 2, 2, 2), "similarity")
    got = combine(dt, ds, ObjectiveWeights(0.9, 0.1))
    assert got.values == pytest.approx((0.125, 0.125, 0.525, 0.225), abs=1e-12)


def test_combine_alpha_only_reduces_to_total_share():
    dt = ScoreVector((1, 3), "total")
    ds = ScoreVector((5, 7), "similarity")
    got = combine(dt, ds, ObjectiveWeights(1.0, 0.0))
    assert got.values == (0.25, 0.75)


def test_combine_zero_similarity_sum_disables_term():
    dt = ScoreVector((1, 3), "total")
    ds = ScoreVector((0, 0), "similarity")
    got = combine(dt, ds, ObjectiveWeights(0.5, 0.5))
    assert got.values == (0.5 * 0.25, 0.5 * 0.75)


def test_combine_keeps_unreachable():
    dt = ScoreVector((1, UNREACHABLE), "total")
    ds = ScoreVector((0, UNREACHABLE), "similarity")
    got = combine(dt, ds, ObjectiveWeights())
    assert got.values[1] == UNREACHABLE


def test_combine_errors():
    with pytest.raises(LengthMismatch):
        combine(ScoreVector((1,), "total"), ScoreVector((1, 2), "similarity"),
                ObjectiveWeights())
    with pytest.raises(NoMutuallyReachableVertex):
        combine(ScoreVector((UNREACHABLE,), "total"),
                ScoreVector((UNREACHABLE,), "similarity"), ObjectiveWeights())


def test_select_breaks_ties_by_lowest_id():
    combined = ScoreVector((0.125, 0.125, 0.525, 0.225), "combined")
    reach = ReachabilitySet((frozenset(range(4)),))
    assert select_destination(combined, reach) == 0


def test_select_single_candidate():
    combined = ScoreVector((UNREACHABLE, 0.4, UNREACHABLE), "combined")
    reach = ReachabilitySet((frozenset({1}),))
    assert select_destination(combined, reach) == 1


def test_select_no_candidate():
    combined = ScoreVector((0.5,), "combined")
    with pytest.raises(NoCandidate):
        select_destination(combined, ReachabilitySet((frozenset(),)))


def test_plan_disconnected_users_has_no_candidate():
    graph = build_graph(2, [])
    with pytest.raises(NoCandidate):
        plan_destination(graph, [0, 1])


def test_colocated_users_select_their_vertex():
    graph = random_connected_graph(random.Random(41), 20, min_vertices=3)
    plan = plan_destination(graph, [2, 2, 2])
    assert plan.destination == 2
    assert plan.combined.values[2] == 0


def test_two_users_on_path_meet_in_the_middle():
    n = 9
    graph = build_graph(n, [(i, i + 1, 1) for i in range(n - 1)], undirected=True)
    plan = plan_destination(graph, [0, n - 1])
    assert plan.destination == (n - 1) // 2


def test_objective_weights_validation():
    with pytest.raises(ValueError):
        ObjectiveWeights(0.7, 0.7)
    with pytest.raises(ValueError):
        ObjectiveWeights(-0.1, 1.1)
    for alpha, beta in [(math.nan, 0.5), (math.nan, math.nan), (math.inf, 0.0)]:
        with pytest.raises(ValueError):
            ObjectiveWeights(alpha, beta)


def test_plan_needs_one_score_row_per_user():
    graph = build_graph(3, [(0, 1, 1), (1, 2, 1)], undirected=True)
    profile = PreferenceProfile(("distance",), ((5,),))
    with pytest.raises(ShapeMismatch):
        plan_destination(graph, [0, 1, 2], profile)


# --- invariants -------------------------------------------------------------


def test_norm_form_argmax_equivalence():
    rng = random.Random(43)
    weights = ObjectiveWeights(0.7, 0.3)
    for _ in range(200):
        n = rng.randint(2, 30)
        dt = [rng.uniform(0.1, 50) for _ in range(n)]
        ds = [rng.uniform(0.0, 50) for _ in range(n)]
        if sum(ds) == 0:
            continue
        combined = combine(
            ScoreVector(tuple(dt), "total"), ScoreVector(tuple(ds), "similarity"), weights
        )
        argmin = min(range(n), key=lambda v: (combined.values[v], v))
        nt, ns = normalize(dt), normalize(ds)
        scores = [weights.alpha * nt[v] + weights.beta * ns[v] for v in range(n)]
        argmax = max(range(n), key=lambda v: (scores[v], -v))
        assert argmin == argmax


def test_similarity_scaling_leaves_selection_alone():
    rng = random.Random(47)
    for _ in range(100):
        n = rng.randint(2, 20)
        dt = ScoreVector(tuple(rng.randint(0, 30) for _ in range(n)), "total")
        raw = [rng.randint(0, 30) for _ in range(n)]
        if sum(dt.values) == 0 or sum(raw) == 0:
            continue
        scale = rng.choice([0.5, 2, 3, 10])
        ds = ScoreVector(tuple(raw), "similarity")
        scaled = ScoreVector(tuple(scale * x for x in raw), "similarity")
        weights = ObjectiveWeights(0.4, 0.6)
        reach = ReachabilitySet((frozenset(range(n)),))
        plain = select_destination(combine(dt, ds, weights), reach)
        rescaled = select_destination(combine(dt, scaled, weights), reach)
        assert plain == rescaled
        assert min(range(n), key=lambda v: (raw[v], v)) == \
            min(range(n), key=lambda v: (scaled.values[v], v))


def test_user_permutation_changes_nothing():
    rng = random.Random(53)
    for _ in range(30):
        graph = random_connected_graph(rng, 25)
        users = [rng.randrange(graph.vertex_count) for _ in range(4)]
        shuffled = users[:]
        rng.shuffle(shuffled)
        a = plan_destination(graph, users)
        b = plan_destination(graph, shuffled)
        assert a.destination == b.destination
        assert a.d_total.values == b.d_total.values
        assert a.d_sim.values == b.d_sim.values
