"""Run one benchmark workload and print its metrics as a JSON line.

    python3 perfbench/run.py --workload solve_large --seed 1 --seconds 25 --trace 0

The program is imported from ``src/`` of the checkout this file sits in; the
run fails (exit 2, no result line) when that source tree is missing.

``--trace 0`` measures the end-to-end metrics with nothing installed in the
library: set-up time, per-operation latency (median and p90) and operations
per second, all scaled to reference host speed (see ``calibrate``), plus peak
resident memory. ``--trace 1`` runs the workload twice on the same
operations, first plain for half of ``--seconds`` and then with span
wrappers, and reports the per-layer metrics derived from the spans plus the
traced/plain time ratio; spans are written to ``.perfbench_out/``.

The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``. The line before it records the run's settings (seed, Python
version, core count), the failed ratio, the unscaled figures (``raw_*``) and
the end-to-end figures under the operation's own name (``solve_p50_ms`` or
``tick_p50_ms``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# an untraced run sets up at least SETUP_REPEATS times and for at least
# SETUP_SECONDS, and reports the median as setup_s
SETUP_REPEATS = 5
SETUP_SECONDS = 1.0
# an untraced run goes on past --seconds until this many operations are
# done, so that ten samples lie beyond p90
MIN_OPS = 100

UNITS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "gridmap.parse_s": "s",
    "graph.build_s": "s",
    "graph.reverse_calls": "count",
    "graph.reverse_s": "s",
    "shortest_paths.rows": "count",
    "shortest_paths.row_p50_ms": "ms",
    "shortest_paths.matrix_s": "s",
    "shortest_paths.reach_s": "s",
    "shortest_paths.rows_repeat_ratio": "ratio",
    "scoring.similarity_s": "s",
    "scoring.pair_terms": "count",
    "scoring.blend_s": "s",
    "scoring.blend_cells": "count",
    "scoring.total_s": "s",
    "scoring.combine_s": "s",
    "scoring.select_s": "s",
    "scoring.plan_calls": "count",
    "scoring.plan_self_s": "s",
    "sim.ticks": "count",
    "sim.step_self_s": "s",
    "sim.next_move_calls": "count",
    "sim.next_move_s": "s",
    "sim.dest_change_ratio": "ratio",
    "bench.trace_overhead": "ratio",
}


def timed_loop(session, speed, *, seconds=None, min_ops=0, ops=None, tracer=None):
    """Closed loop: issue operations until ``seconds`` have passed and
    ``min_ops`` are done, or until exactly ``ops`` are done.

    Returns one (start, end, latency) per operation, in seconds: end - start
    is the loop's whole time for the operation including bookkeeping, latency
    the library call alone. A calibration sample runs before each operation
    and after the last.
    """
    records: list[tuple[float, float, float]] = []
    gc.collect()  # start clean, then leave the collector on as users do
    deadline = perf_counter() + seconds if seconds is not None else None
    while True:
        if ops is not None and len(records) >= ops:
            break
        if deadline is not None and perf_counter() >= deadline and len(records) >= min_ops:
            break
        speed.sample()
        if tracer is not None:
            tracer.request = len(records)
        start = perf_counter()
        latency = session.step()
        records.append((start, perf_counter(), latency))
    speed.sample()
    return records


def p90(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[-1] if len(samples) > 1 else samples[0]


def summarize(records, speed) -> dict[str, float]:
    """Latency and throughput at reference speed, and as measured (raw_*)."""
    scales = [speed.scale(start, end) for start, end, _ in records]
    figures = {}
    for prefix, factors in (("", scales), ("raw_", [1.0] * len(scales))):
        latencies = [latency * f for (_, _, latency), f in zip(records, factors)]
        busy = sum((end - start) * f for (start, end, _), f in zip(records, factors))
        figures[f"{prefix}op_p50_ms"] = statistics.median(latencies) * 1000
        figures[f"{prefix}op_p90_ms"] = p90(latencies) * 1000
        figures[f"{prefix}ops_per_s"] = len(records) / busy
    return figures


def end_to_end(workload, inputs, seconds: float):
    from perfbench.calibrate import Speedometer

    speed = Speedometer()
    spans: list[tuple[float, float]] = []
    while len(spans) < SETUP_REPEATS or sum(e - s for s, e in spans) < SETUP_SECONDS:
        gc.collect()
        speed.sample()
        start = perf_counter()
        instance = workload.setup(inputs)
        spans.append((start, perf_counter()))
    speed.sample()
    setups = [(end - start) * speed.scale(start, end) for start, end in spans]

    session = workload.session(instance, inputs)
    records = timed_loop(session, speed, seconds=seconds, min_ops=MIN_OPS)
    figures = summarize(records, speed)
    metrics = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": figures["op_p50_ms"],
        "op_p90_ms": figures["op_p90_ms"],
        "ops_per_s": figures["ops_per_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        "ops": len(records),
        "setups": len(setups),
        "raw_setup_s": statistics.median(end - start for start, end in spans),
        **{k: v for k, v in figures.items() if k.startswith("raw_")},
        "kernel_ms_range": [min(speed.kernels) * 1000, max(speed.kernels) * 1000],
    }
    return metrics, extra, [session]


def traced(workload, inputs, seconds: float, spans_path: Path):
    from perfbench.calibrate import Speedometer
    from perfbench.spans import SETUP, Tracer, layer_metrics

    speed = Speedometer()
    plain = workload.session(workload.setup(inputs), inputs)
    plain_records = timed_loop(plain, speed, seconds=seconds / 2)

    tracer = Tracer()
    tracer.install()
    try:
        tracer.request = SETUP
        for _ in range(SETUP_REPEATS):
            instance = workload.setup(inputs)
        session = workload.session(instance, inputs)
        traced_records = timed_loop(session, speed, ops=len(plain_records), tracer=tracer)
    finally:
        tracer.uninstall()
    tracer.write(spans_path)

    metrics = layer_metrics(tracer.spans, SETUP_REPEATS, tracer.missing)
    dest_changes = getattr(session, "dest_changes", None)
    changes, ticks = dest_changes() if dest_changes else (0, 0)
    metrics["sim.dest_change_ratio"] = changes / ticks if ticks else 0.0
    metrics["bench.trace_overhead"] = (
        summarize(plain_records, speed)["ops_per_s"]
        / summarize(traced_records, speed)["ops_per_s"]
    )
    extra = {
        "ops": len(plain_records),
        "spans": len(tracer.spans),
        "absent": sorted(tracer.missing),
    }
    return metrics, extra, [plain, session]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "meetpoint" / "__init__.py").is_file():
        print(f"no program source at {SRC}", file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)

    if args.trace:
        spans_path = OUT / f"spans-{workload.name}-{args.seed}.jsonl"
        metrics, extra, sessions = traced(workload, inputs, args.seconds, spans_path)
    else:
        metrics, extra, sessions = end_to_end(workload, inputs, args.seconds)

    attempted = extra["ops"] * len(sessions)
    failed = workload.check(inputs, sessions)
    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "op": workload.op,
        "failed_ratio": failed / attempted,
        **extra,
    }
    if not args.trace:
        op = workload.op
        info["report"] = {
            "setup_s": metrics["setup_s"],
            f"{op}_p50_ms": metrics["op_p50_ms"],
            f"{op}_p90_ms": metrics["op_p90_ms"],
            f"{op}s_per_s": metrics["ops_per_s"],
            "peak_rss_mb": metrics["peak_rss_mb"],
        }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.path[0:1] = [str(SRC), str(ROOT)]  # in place of this file's own directory
    sys.exit(main())
