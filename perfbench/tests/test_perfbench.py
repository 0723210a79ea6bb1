"""Tests of the benchmark itself: generators, checkers, tracing, output shape.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import math
import random
import shutil
import subprocess
import sys
from collections import deque

import pytest

from meetpoint import scoring, sim
from meetpoint.graph import build_graph
from meetpoint.gridmap import parse_grid_map
from meetpoint.maps import walled_map, with_random_users
from meetpoint.oracle import brute_force_destination
from meetpoint.scoring import PreferenceProfile
from perfbench import reference
from perfbench.spans import Tracer, layer_metrics
from perfbench.workloads import WORKLOADS, road_graph

from conftest import ROOT

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def first_requests(name, seed, count=15):
    inputs = WORKLOADS[name].inputs(seed)
    return [inputs.requests[i] for i in range(count)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    assert first_requests(name, 3) == first_requests(name, 3)
    assert first_requests(name, 3) != first_requests(name, 4)


def test_road_graph_is_deterministic_and_connected():
    for seed in range(5):
        edges = road_graph(random.Random(seed), 300)
        assert edges == road_graph(random.Random(seed), 300)
        adjacency = reference.weighted_adjacency(300, edges, 0)
        seen, queue = {0}, deque([0])
        while queue:
            for v, _ in adjacency[queue.popleft()]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        assert len(seen) == 300
        assert all(isinstance(d, int) and d >= 1 for _, _, (d, _) in edges)


def test_solve_user_counts_are_stratified():
    sizes = [len(positions) for positions, _ in first_requests("solve_large", 9, 14)]
    assert sorted(sizes[:7]) == sorted(sizes[7:]) == list(range(2, 9))


def test_grid_reference_matches_oracle():
    text = with_random_users(walled_map(14, 9, wall_fraction=0.15, seed=2), 4, seed=1)
    _, graph = parse_grid_map(text)
    adjacency = reference.grid_adjacency(reference.free_cells(text))
    rng = random.Random(5)
    for _ in range(5):
        users = rng.sample(range(graph.vertex_count), rng.randint(2, 5))
        combined = reference.scores([reference.bfs(adjacency, u) for u in users])
        assert reference.best(combined) == brute_force_destination(graph, users)


def test_road_reference_matches_oracle_within_tie_band():
    edges = road_graph(random.Random(8), 40)
    graph = build_graph(40, edges, ("distance", "time"), undirected=True)
    adjacency = [reference.weighted_adjacency(40, edges, c) for c in (0, 1)]
    rng = random.Random(6)
    for _ in range(5):
        users = [rng.randrange(40) for _ in range(rng.randint(3, 9))]
        scores = tuple((rng.randint(0, 5), rng.randint(1, 5)) for _ in users)
        profile = PreferenceProfile(("distance", "time"), scores)
        blended = reference.blend(
            [[reference.dijkstra(adjacency[c], u) for u in users] for c in (0, 1)],
            reference.objective_weights(scores),
        )
        combined = reference.scores(blended)
        assert reference.within_tie_band(combined, brute_force_destination(graph, users, profile))


def run_sessions(name, seed, ops):
    workload = WORKLOADS[name]
    inputs = workload.inputs(seed)
    session = workload.session(workload.setup(inputs), inputs)
    for _ in range(ops):
        session.step()
    return workload, inputs, session


@pytest.mark.parametrize("name", ["solve_large", "crowd_venue"])
def test_checker_counts_wrong_destinations(name):
    workload, inputs, session = run_sessions(name, 1, 3)
    assert workload.check(inputs, [session]) == 0
    session.outputs[0] = 0 if session.outputs[0] != 0 else 1
    session.outputs[1] = None  # the solve raised
    if name == "crowd_venue":
        # a wrong answer there must fall outside the tie band, not just differ
        positions, profile = inputs.requests[0]
        adjacency = [reference.weighted_adjacency(300, inputs.edges, c) for c in (0, 1)]
        combined = reference.scores(reference.blend(
            [[reference.dijkstra(adjacency[c], p) for p in positions] for c in (0, 1)],
            reference.objective_weights(profile.scores),
        ))
        session.outputs[0] = max(range(300), key=lambda v: combined[v])
    assert workload.check(inputs, [session]) == 2


def test_checker_counts_non_meeting_and_diverging_simulations():
    workload, inputs, session = run_sessions("sim_replan", 2, 6)
    assert workload.check(inputs, [session]) == 0
    record = session.records[0]
    destination, positions = record.frames[3]
    record.frames[3] = (destination + 1, positions)
    assert workload.check(inputs, [session]) == 1
    record.gave_up = True
    assert workload.check(inputs, [session]) == len(record.frames)


def test_sim_session_gives_up_on_a_repeated_state():
    workload = WORKLOADS["sim_replan"]
    inputs = workload.inputs(0)
    session = workload.session(workload.setup(inputs), inputs)
    session.step()
    successor, _ = sim.step(session.state)
    session.seen.add(successor.positions)  # as if the next state had come round before
    session.step()
    assert session.records[0].gave_up and session.state is None
    assert workload.check(inputs, [session]) == 2


def test_tracer_restores_originals_and_reports_missing_targets(monkeypatch):
    from perfbench import spans

    gone = ("meetpoint.scoring", "no_such_function", "scoring.select", None)
    monkeypatch.setattr(spans, "TARGETS", spans.TARGETS + (gone,))
    original = scoring.plan_destination
    tracer = Tracer()
    tracer.install()
    try:
        assert scoring.plan_destination is not original
        tracer.request = 0
        graph = build_graph(3, [(0, 1, 1), (1, 2, 1)], undirected=True)
        assert scoring.plan_destination(graph, (0, 2)).destination == 1
    finally:
        tracer.uninstall()
    assert scoring.plan_destination is original
    assert tracer.missing == {"scoring.select"}
    metrics = layer_metrics(tracer.spans, 1, tracer.missing)
    assert "scoring.select_s" not in metrics
    assert metrics["scoring.plan_calls"] == 1
    assert metrics["shortest_paths.rows"] == 2
    assert metrics["scoring.plan_self_s"] < sum(
        s.duration for s in tracer.spans if s.name == "scoring.plan")


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_reported_with_its_unit(name, trace):
    done = run_bench(ROOT, "--workload", name, "--seed", "5", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    info, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert info["seed"] == 5 and info["python"] and info["nproc"] >= 1


def test_fails_without_the_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench(tmp_path, "--workload", "solve_large", "--seed", "1", "--seconds", "1")
    assert done.returncode != 0
    assert "metrics" not in done.stdout


def test_workload_docs_match_benchmark_json():
    assert [(w["name"], w["why"]) for w in BENCHMARK["workloads"]] == [
        (w.name, w.WHY) for w in WORKLOADS.values()
    ]
