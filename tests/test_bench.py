from meetpoint.bench import (
    BenchRow,
    format_csv,
    run_bench,
    sample_positions,
    time_baseline,
    time_selection,
)
from meetpoint.gridmap import parse_grid_map
from meetpoint.maps import bench_map


def test_single_cell_csv_shape():
    rows = run_bench(["8x5"], [2], reps=1, seed=3)
    text = format_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "map,users,md_seconds,floyd_seconds"
    assert len(lines) == 2
    name, users, md, floyd = lines[1].split(",")
    assert name == "8x5" and users == "2"
    assert float(md) >= 0 and float(floyd) > 0


def test_positions_are_seeded_and_stable():
    a = sample_positions(100, 4, map_name="22x10", seed=7)
    b = sample_positions(100, 4, map_name="22x10", seed=7)
    c = sample_positions(100, 4, map_name="22x10", seed=8)
    assert a == b
    assert a != c
    assert len(set(a)) == 4


def test_fast_path_beats_baseline_on_small_map_at_every_user_count():
    _, graph = parse_grid_map(bench_map("22x10"))
    for count in range(2, 8):
        positions = sample_positions(graph.vertex_count, count, map_name="22x10", seed=0)
        md = time_selection(graph, positions, reps=1)
        floyd, censored = time_baseline(graph, positions, reps=1, timeout=120.0)
        assert not censored
        assert md < floyd, f"{count} users: {md}s vs {floyd}s"


def test_timeout_censors_instead_of_failing():
    _, graph = parse_grid_map(bench_map("22x10"))
    positions = sample_positions(graph.vertex_count, 2, map_name="22x10", seed=0)
    floyd, censored = time_baseline(graph, positions, reps=1, timeout=1e-9)
    assert censored
    assert floyd is None


def test_csv_marks_censored_and_skipped_cells():
    rows = [
        BenchRow("22x10", 2, 0.001, None, True),
        BenchRow("22x10", 3, 0.002, None, False),
    ]
    lines = format_csv(rows).splitlines()
    assert lines[1].endswith(",censored")
    assert lines[2].endswith(",")
