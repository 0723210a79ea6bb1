"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (visible under ``pytest -s`` or in captured output).
"""

import random
import time
from contextlib import contextmanager

import pytest

from meetpoint import (
    ObjectiveWeights,
    PreferenceProfile,
    brute_force_destination,
    build_partial_matrix,
    dijkstra_row,
    floyd_all_pairs,
    parse_grid_map,
    plan_destination,
    priority_weights,
    similarity_penalty,
    total_distance,
)
from meetpoint.bench import run_bench, sample_positions, time_baseline, time_selection
from meetpoint.gridmap import parse_grid_map as parse_map
from meetpoint.maps import bench_map
from meetpoint.sim import SimState, run, serialize_trace

from conftest import (
    FIXTURE_MAPS,
    assert_matches_golden,
    random_connected_graph,
    random_instance,
    scenario_88x27,
)


@contextmanager
def criterion(number, name):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number} [{name}]: FAIL")
        raise
    print(f"criterion {number} [{name}]: PASS ({time.perf_counter() - start:.1f}s)")


def example_pair_matrix():
    from meetpoint import build_graph

    graph = build_graph(4, [(0, 1, 2), (0, 2, 4), (0, 3, 1)], undirected=True)
    return build_partial_matrix(graph, [0, 1])


def test_criterion_1_worked_example_exactness():
    with criterion(1, "worked-example exactness"):
        matrix = example_pair_matrix()
        assert total_distance(matrix).values == (2, 2, 10, 4)
        assert similarity_penalty(matrix).values == (2, 2, 2, 2)


def test_criterion_2_preference_weights():
    with criterion(2, "preference weights"):
        profile = PreferenceProfile(("distance", "time"), ((4, 3), (5, 4)))
        w_distance, w_time = priority_weights(profile)
        assert w_distance == pytest.approx(0.5625)
        assert w_time == pytest.approx(0.4375)
        assert abs(w_distance - 0.56) <= 0.005
        assert abs(w_time - 0.44) <= 0.005


def test_criterion_3_shortest_path_oracle_equivalence():
    with criterion(3, "shortest-path oracle equivalence"):
        rng = random.Random(1003)
        for _ in range(100):
            graph = random_connected_graph(rng, 50)
            full = floyd_all_pairs(graph)
            for source in range(graph.vertex_count):
                assert dijkstra_row(graph, source).distances == full.distances[source]


def test_criterion_4_selection_optimality():
    with criterion(4, "selection matches exhaustive search"):
        rng = random.Random(1004)
        for _ in range(100):
            graph, users, profile, weights = random_instance(rng)
            fast = plan_destination(graph, users, profile, weights).destination
            slow = brute_force_destination(graph, users, profile, weights)
            assert fast == slow
        for name, text in FIXTURE_MAPS.items():
            grid, graph = parse_map(text, require_users=True)
            assert graph.vertex_count <= 300, name
            fast = plan_destination(graph, grid.user_starts).destination
            slow = brute_force_destination(graph, grid.user_starts)
            assert fast == slow, name


def test_criterion_5_norm_form_equivalence():
    from meetpoint import ScoreVector, combine, normalize

    with criterion(5, "normalized-form argmin/argmax equivalence"):
        rng = random.Random(1005)
        for _ in range(1000):
            n = rng.randint(2, 40)
            totals = [rng.uniform(0.001, 100.0) for _ in range(n)]
            sims = [rng.uniform(0.001, 100.0) for _ in range(n)]
            alpha = rng.random()
            weights = ObjectiveWeights(alpha, 1.0 - alpha)
            combined = combine(
                ScoreVector(tuple(totals), "total"),
                ScoreVector(tuple(sims), "similarity"),
                weights,
            ).values
            nt, ns = normalize(totals), normalize(sims)
            blends = [weights.alpha * nt[v] + weights.beta * ns[v] for v in range(n)]
            argmin = min(range(n), key=lambda v: (combined[v], v))
            argmax = max(range(n), key=lambda v: (blends[v], -v))
            assert argmin == argmax


def test_criterion_6_linear_scaling_in_users():
    with criterion(6, "per-user scaling is linear"):
        counts = list(range(2, 8))
        rows = run_bench(["109x128"], counts, reps=7, include_floyd=False, seed=1)
        times = [row.md_seconds for row in rows]

        n = len(counts)
        mean_x = sum(counts) / n
        mean_y = sum(times) / n
        sxx = sum((x - mean_x) ** 2 for x in counts)
        sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(counts, times))
        slope = sxy / sxx
        intercept = mean_y - slope * mean_x
        ss_res = sum((y - (intercept + slope * x)) ** 2 for x, y in zip(counts, times))
        ss_tot = sum((y - mean_y) ** 2 for y in times)
        r_squared = 1.0 - ss_res / ss_tot
        per_user = [t / k for t, k in zip(times, counts)]

        print(f"  109x128 md_seconds={['%.3f' % t for t in times]} r2={r_squared:.4f}")
        assert r_squared >= 0.9
        assert max(per_user) / min(per_user) < 1.5


def test_criterion_7_fast_path_dominates_baseline():
    with criterion(7, "faster than the all-pairs baseline"):
        _, graph = parse_grid_map(bench_map("88x27", seed=0))
        positions = sample_positions(graph.vertex_count, 4, map_name="88x27", seed=0)
        md = time_selection(graph, positions, reps=3)
        # the baseline needs ~hours here; a 20s cap exercises the same
        # censoring path the CLI uses with its 300s default
        floyd, censored = time_baseline(graph, positions, reps=1, timeout=20.0)
        print(f"  md={md:.3f}s floyd={'censored' if censored else f'{floyd:.3f}s'}")
        assert censored or md * 10 <= floyd


def _sim_scenario(text):
    grid, graph = parse_map(text, require_users=True)
    state = SimState.initial(graph, grid.user_starts)
    rows = [dijkstra_row(graph, u).distances for u in grid.user_starts]
    spread = sum(
        rows[a][grid.user_starts[b]]
        for a in range(len(rows))
        for b in range(a + 1, len(rows))
    )
    budget = 4 * (graph.vertex_count + int(spread))
    trace = run(state, budget)
    # realized walks can detour but never beat the tick-0 shortest distance
    for start, steps in zip(grid.user_starts, trace.step_counts):
        assert steps >= dijkstra_row(graph, start).distances[trace.final_destination]
    for position in trace.snapshots[-1].positions:
        assert position == trace.final_destination
    return trace


def test_criterion_8_convergence_and_drift():
    with criterion(8, "simulations converge; drift recorded"):
        drifted = []
        for k in range(2, 7):
            name = f"open22x10_u{k}"
            trace = _sim_scenario(FIXTURE_MAPS[name])
            if trace.initial_destination != trace.final_destination:
                drifted.append(name)
            assert_matches_golden(f"{name}.trace", serialize_trace(trace))
        for preset in ("random", "stick"):
            trace = _sim_scenario(scenario_88x27(preset))
            if trace.initial_destination != trace.final_destination:
                drifted.append(f"88x27_{preset}")
            assert_matches_golden(f"walled88x27_{preset}.trace", serialize_trace(trace))
        print(f"  initial != achieved destination in: {drifted or 'none'}")


def test_criterion_9_invariant_bundle():
    with criterion(9, "invariant bundle"):
        rng = random.Random(1009)

        # permuting users changes neither scores nor the selection
        for _ in range(50):
            graph, users, profile, weights = random_instance(rng, max_vertices=25)
            shuffled = list(users)
            rng.shuffle(shuffled)
            a = plan_destination(graph, users, profile, weights)
            b = plan_destination(graph, shuffled, profile, weights)
            assert a.destination == b.destination
            assert a.d_total.values == b.d_total.values
            assert a.d_sim.values == b.d_sim.values

        # co-located users meet where they stand; one user stays put
        for _ in range(30):
            graph = random_connected_graph(rng, 20)
            vertex = rng.randrange(graph.vertex_count)
            assert plan_destination(graph, [vertex] * 3).destination == vertex
            solo = run(SimState.initial(graph, (vertex,)))
            assert solo.snapshots[-1].tick == 0
            assert solo.final_destination == vertex

        # deterministic tie-breaking: repeated runs agree, and an exact
        # two-way tie resolves to the lower vertex id
        matrix = example_pair_matrix()
        from meetpoint import ReachabilitySet, combine, select_destination

        combined = combine(
            total_distance(matrix), similarity_penalty(matrix), ObjectiveWeights(0.9, 0.1)
        )
        assert combined.values[0] == combined.values[1]
        assert select_destination(combined, ReachabilitySet.from_matrix(matrix)) == 0
        for _ in range(20):
            graph, users, profile, weights = random_instance(rng, max_vertices=20)
            first = plan_destination(graph, users, profile, weights).destination
            again = plan_destination(graph, users, profile, weights).destination
            assert first == again

        # simultaneous moves: user order cannot affect the simulation
        from meetpoint.maps import open_map, with_random_users

        for seed in range(5):
            text = with_random_users(open_map(11, 6), 3, seed=seed)
            grid, graph = parse_map(text, require_users=True)
            users = list(grid.user_starts)
            perm = users[:]
            rng.shuffle(perm)
            index = [users.index(p) for p in perm]
            a = run(SimState.initial(graph, users))
            b = run(SimState.initial(graph, perm))
            assert a.final_destination == b.final_destination
            for sa, sb in zip(a.snapshots, b.snapshots):
                assert sa.destination == sb.destination
                assert tuple(sa.positions[i] for i in index) == sb.positions
