import pytest

from meetpoint.cli import main

from conftest import MINI_SPLIT, assert_matches_golden

EXAMPLE_GRAPH = """\
v 4 distance
e 0 1 2
e 0 2 4
e 0 3 1
u 0
u 1
"""


@pytest.fixture
def example_graph_file(tmp_path):
    path = tmp_path / "pair.graph"
    path.write_text(EXAMPLE_GRAPH)
    return path


def test_solve_graph_instance(example_graph_file, capsys):
    code = main(["solve", "--graph", str(example_graph_file),
                 "--alpha", "0.9", "--beta", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "d_total: 2 2 10 4" in out
    assert "d_sim: 2 2 2 2" in out
    assert "combined: 0.125 0.125 0.525 0.225" in out
    assert out.rstrip().endswith("destination: 0")


def test_solve_one_user_map(tmp_path, capsys):
    path = tmp_path / "one.map"
    path.write_text(" U \n")
    assert main(["solve", "--map", str(path)]) == 0
    assert "destination: 1" in capsys.readouterr().out


def test_solve_disconnected_map_fails(tmp_path, capsys):
    path = tmp_path / "split.map"
    path.write_text(MINI_SPLIT)
    assert main(["solve", "--map", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_solve_requires_an_instance(capsys):
    assert main(["solve"]) == 1
    assert "required" in capsys.readouterr().err


def test_solve_scores_set_objective_weights(example_graph_file, capsys):
    # time channel missing in the file, so two-column scores must fail
    assert main(["solve", "--graph", str(example_graph_file),
                 "--scores", "4,3;5,4"]) == 1
    capsys.readouterr()


def test_solve_missing_file(capsys):
    assert main(["solve", "--map", "/nonexistent.map"]) == 1
    capsys.readouterr()


def test_simulate_writes_trace_and_frame(tmp_path, capsys):
    path = tmp_path / "row.map"
    path.write_text("U    U\n")
    trace_path = tmp_path / "row.trace"
    assert main(["simulate", "--map", str(path), "--out", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "final destination: 2" in out
    assert "steps: 2,3" in out
    assert trace_path.read_text().startswith("0 2 0,5\n")


def test_simulate_no_users(tmp_path, capsys):
    path = tmp_path / "empty.map"
    path.write_text("   \n")
    assert main(["simulate", "--map", str(path)]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_budget_exceeded_reports_partial_trace(tmp_path, capsys):
    path = tmp_path / "long.map"
    path.write_text("U        U\n")
    trace_path = tmp_path / "long.trace"
    code = main(["simulate", "--map", str(path), "--max-ticks", "1",
                 "--out", str(trace_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "did not meet" in captured.err
    assert len(trace_path.read_text().splitlines()) == 2


def test_render_zero_tick_trace(tmp_path, capsys):
    map_path = tmp_path / "dot.map"
    map_path.write_text(" U\n")
    trace_path = tmp_path / "dot.trace"
    trace_path.write_text("0 1 1\n")
    assert main(["render", str(trace_path), "--map", str(map_path)]) == 0
    out = capsys.readouterr().out
    assert out == "--- tick 0 (destination 1) ---\n D\n"


def test_render_path_trace_marks_middle(tmp_path, capsys):
    map_path = tmp_path / "row.map"
    map_path.write_text("U U\n")
    trace_path = tmp_path / "row.trace"
    trace_path.write_text("0 1 0,2\n1 1 1,1\n")
    assert main(["render", str(trace_path), "--map", str(map_path)]) == 0
    frames = capsys.readouterr().out
    assert "--- tick 0 (destination 1) ---\nUDU\n" in frames
    assert frames.endswith("--- tick 1 (destination 1) ---\n.D.\n")


def test_render_rejects_mismatched_map(tmp_path, capsys):
    map_path = tmp_path / "tiny.map"
    map_path.write_text(" \n")
    trace_path = tmp_path / "big.trace"
    trace_path.write_text("0 9 9\n")
    assert main(["render", str(trace_path), "--map", str(map_path)]) == 1
    capsys.readouterr()


def test_bench_csv_smoke(tmp_path):
    out_path = tmp_path / "bench.csv"
    code = main(["bench", "--sizes", "6x4", "--users", "2", "--reps", "1",
                 "--no-floyd", "--seed", "1", "--out", str(out_path)])
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "map,users,md_seconds,floyd_seconds"
    assert lines[1].startswith("6x4,2,") and lines[1].endswith(",")


def test_render_22x10_fixture_is_pinned(tmp_path, capsys):
    from conftest import FIXTURE_MAPS

    map_path = tmp_path / "open.map"
    map_path.write_text(FIXTURE_MAPS["open22x10_u2"])
    trace_path = tmp_path / "open.trace"
    assert main(["simulate", "--map", str(map_path), "--out", str(trace_path)]) == 0
    capsys.readouterr()
    renderings = []
    for _ in range(2):
        assert main(["render", str(trace_path), "--map", str(map_path)]) == 0
        renderings.append(capsys.readouterr().out)
    assert renderings[0] == renderings[1]
    assert_matches_golden("render_open22x10_u2.txt", renderings[0])


def test_simulate_deterministic_and_pinned(tmp_path, capsys):
    map_path = tmp_path / "det.map"
    map_path.write_text("U      \n   #   \n      U\n")
    outputs = []
    for name in ("a.trace", "b.trace"):
        trace_path = tmp_path / name
        assert main(["simulate", "--map", str(map_path),
                     "--out", str(trace_path)]) == 0
        capsys.readouterr()
        outputs.append(trace_path.read_text())
    assert outputs[0] == outputs[1]
    assert_matches_golden("cli_det.trace", outputs[0])
