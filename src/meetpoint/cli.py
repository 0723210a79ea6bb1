"""Command-line front end: solve one-shot instances, simulate, bench, render."""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Sequence

from . import bench as benchmod
from .errors import MaxTicksExceeded, MeetpointError, NoUsers
from .gridmap import ACHIEVED, INITIAL, USER, GridMap, parse_grid_map, render_trace_frames
from .graph import Graph
from .graphio import parse_graph_file
from .scoring import ObjectiveWeights, PlanResult, PreferenceProfile, plan_destination
from .shortest_paths import UNREACHABLE
from .sim import SimState, parse_trace, run, serialize_trace

GRID_CHANNELS = ("distance", "time")

_COLORS = {USER: "31", ACHIEVED: "32", INITIAL: "33"}


def _fmt(x) -> str:
    if x == UNREACHABLE:
        return "inf"
    if isinstance(x, int):
        return str(x)
    return format(x, ".6g")


def _colorize(frame: str) -> str:
    """ANSI-highlight markers for terminals; plain text everywhere else."""
    if os.environ.get("MEETPOINT_NO_COLOR") or not sys.stdout.isatty():
        return frame
    out = []
    for ch in frame:
        code = _COLORS.get(ch)
        out.append(f"\x1b[{code}m{ch}\x1b[0m" if code else ch)
    return "".join(out)


def _parse_scores(text: str) -> tuple[tuple[int, ...], ...]:
    rows = []
    for chunk in text.replace(";", " ").split():
        rows.append(tuple(int(tok) for tok in chunk.split(",")))
    if not rows:
        raise ValueError("empty --scores")
    width = len(rows[0])
    if any(len(row) != width for row in rows):
        raise ValueError("every user needs the same number of scores")
    return tuple(rows)


def _objective_weights(args) -> ObjectiveWeights:
    alpha, beta = args.alpha, args.beta
    if alpha is None and beta is None:
        return ObjectiveWeights()
    if alpha is None:
        alpha = 1.0 - beta
    if beta is None:
        beta = 1.0 - alpha
    return ObjectiveWeights(alpha, beta)


def _load_instance(args) -> tuple[Graph, tuple[int, ...], PreferenceProfile | None, GridMap | None]:
    """Instance from --map or --graph, with --scores layered on top."""
    scores = _parse_scores(args.scores) if getattr(args, "scores", None) else None

    if getattr(args, "graph", None):
        graph, users, profile = parse_graph_file(Path(args.graph).read_text())
        grid = None
        if not users:
            raise NoUsers(f"{args.graph} defines no users")
        if scores is not None:
            profile = PreferenceProfile(graph.channels[: len(scores[0])], scores)
    else:
        if not getattr(args, "map", None):
            raise MeetpointError("one of --map or --graph is required")
        width = len(scores[0]) if scores else 1
        if width > len(GRID_CHANNELS):
            raise MeetpointError(f"grid maps support at most {len(GRID_CHANNELS)} objectives")
        channels = GRID_CHANNELS[:width]
        grid, graph = parse_grid_map(
            Path(args.map).read_text(), channels=channels, require_users=True
        )
        users = grid.user_starts
        profile = PreferenceProfile(channels, scores) if width > 1 else None
    if scores is not None and len(scores) != len(users):
        raise MeetpointError(f"{len(scores)} score rows for {len(users)} users")
    return graph, users, profile, grid


def _print_plan(plan: PlanResult, users: Sequence[int], out) -> None:
    print(f"users: {' '.join(str(u) for u in users)}", file=out)
    print(f"matrix [{plan.matrix.channel}]:", file=out)
    for row in plan.matrix.rows:
        print(f"  {row.source}: {' '.join(_fmt(d) for d in row.distances)}", file=out)
    print(f"d_total: {' '.join(_fmt(v) for v in plan.d_total.values)}", file=out)
    print(f"d_sim: {' '.join(_fmt(v) for v in plan.d_sim.values)}", file=out)
    print(f"combined: {' '.join(_fmt(v) for v in plan.combined.values)}", file=out)
    print(f"destination: {plan.destination}", file=out)


def cmd_solve(args) -> int:
    graph, users, profile, _ = _load_instance(args)
    plan = plan_destination(graph, users, profile, _objective_weights(args))
    _print_plan(plan, users, sys.stdout)
    if args.out:
        with open(args.out, "w") as fh:
            _print_plan(plan, users, fh)
    return 0


def _report_trace(trace, grid: GridMap, out_path: str | None) -> None:
    frames = render_trace_frames(grid, trace)
    print(_colorize(frames[-1]), end="")
    print(f"ticks: {trace.snapshots[-1].tick}")
    print(f"initial destination: {trace.initial_destination}")
    print(f"final destination: {trace.final_destination}")
    print(f"destination drift: {'yes' if trace.initial_destination != trace.final_destination else 'no'}")
    print(f"steps: {','.join(str(c) for c in trace.step_counts)}")
    text = serialize_trace(trace)
    if out_path:
        Path(out_path).write_text(text)
    else:
        print("trace:")
        print(text, end="")


def cmd_simulate(args) -> int:
    graph, users, profile, grid = _load_instance(args)
    if grid is None:
        raise MeetpointError("simulate needs --map")
    state = SimState.initial(graph, users, profile, _objective_weights(args))
    try:
        trace = run(state, args.max_ticks)
    except MaxTicksExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        _report_trace(exc.trace, grid, args.out)
        return 1
    _report_trace(trace, grid, args.out)
    return 0


def _parse_counts(text: str) -> list[int]:
    if ":" in text:
        lo, hi = text.split(":")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",") if tok]


def cmd_bench(args) -> int:
    rows = benchmod.run_bench(
        [s for s in args.sizes.split(",") if s],
        _parse_counts(args.users),
        reps=args.reps,
        floyd_timeout=args.floyd_timeout,
        include_floyd=not args.no_floyd,
        seed=args.seed,
    )
    csv_text = benchmod.format_csv(rows)
    if args.out:
        Path(args.out).write_text(csv_text)
    else:
        print(csv_text, end="")
    return 0


def cmd_render(args) -> int:
    trace = parse_trace(Path(args.trace).read_text())
    grid, _ = parse_grid_map(Path(args.map).read_text())
    limit = grid.vertex_count
    for snap in trace.snapshots:
        ids = (*snap.positions, snap.destination)
        if any(not 0 <= v < limit for v in ids):
            raise MeetpointError(
                f"trace references vertex outside the map's {limit} free cells"
            )
    frames = render_trace_frames(grid, trace)
    last = len(frames) - 1
    for i, (snap, frame) in enumerate(zip(trace.snapshots, frames)):
        dest = trace.final_destination if i == last else snap.destination
        print(f"--- tick {snap.tick} (destination {dest}) ---")
        print(_colorize(frame), end="")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meetpoint",
        description="Meeting-point planning for multiple users on graphs and grid maps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_instance_args(p):
        p.add_argument("--map", help="grid map file ('#' wall, ' ' free, 'U' user)")
        p.add_argument("--graph", help="graph instance file (v/e/u records)")
        p.add_argument("--alpha", type=float, help="weight of total travel (default 0.5)")
        p.add_argument("--beta", type=float, help="weight of travel disparity (default 0.5)")
        p.add_argument("--scores", help="priority scores, e.g. '4,3;5,4' (users ;, objectives ,)")
        p.add_argument("--out", help="also write the result to this path")

    p_solve = sub.add_parser("solve", help="pick the meeting vertex for one instance")
    add_instance_args(p_solve)
    p_solve.set_defaults(func=cmd_solve)

    p_sim = sub.add_parser("simulate", help="run the replanning loop until users meet")
    add_instance_args(p_sim)
    p_sim.add_argument("--max-ticks", type=int, default=None,
                       help="tick budget (default 10x vertex count)")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="time the solver against the all-pairs baseline")
    p_bench.add_argument("--sizes", default="22x10,88x27,109x128",
                         help="comma-separated WxH map sizes")
    p_bench.add_argument("--users", default="2:7", help="user counts, '2:7' or '2,3,4'")
    p_bench.add_argument("--reps", type=int, default=5, help="repetitions per cell")
    p_bench.add_argument("--floyd-timeout", type=float, default=300.0,
                         help="seconds before a baseline cell is censored")
    p_bench.add_argument("--no-floyd", action="store_true", help="skip the baseline")
    p_bench.add_argument("--seed", type=int, default=0,
                         help="seed for wall layouts and user placement")
    p_bench.add_argument("--out", help="CSV output path (default stdout)")
    p_bench.set_defaults(func=cmd_bench)

    p_render = sub.add_parser("render", help="replay a trace as ASCII frames")
    p_render.add_argument("trace", help="trace file from 'simulate'")
    p_render.add_argument("--map", required=True, help="map the trace was recorded on")
    p_render.set_defaults(func=cmd_render)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (MeetpointError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
