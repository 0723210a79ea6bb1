"""Spans around the library's layer boundaries, recorded from outside.

A traced run replaces public functions where the calling module looks them
up (``meetpoint.scoring.build_partial_matrix`` is what ``plan_destination``
calls, ``meetpoint.sim.dijkstra_row`` what ``step`` calls) with wrappers that
record one span per call, and puts the originals back afterwards. A target
that no longer exists is skipped and the metrics derived from it are
reported absent. Untraced runs install nothing.
"""

from __future__ import annotations

import importlib
import json
import statistics
import weakref
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Iterable

SETUP = "setup"


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    request: object  # solve or tick index, or SETUP
    attrs: dict[str, Any] | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _graph_key(tracer: "Tracer", graph: object) -> object:
    return tracer.graph_keys.get(id(graph), ("graph", id(graph)))


def _row_attrs(tracer: "Tracer", args: tuple, kwargs: dict, result: object) -> dict:
    graph, source = args[0], args[1]
    channel = args[2] if len(args) > 2 else kwargs.get("channel", "distance")
    return {"key": (_graph_key(tracer, graph), source, channel)}


def _reverse_attrs(tracer: "Tracer", args: tuple, kwargs: dict, result: object) -> None:
    # a reversed graph is rebuilt every tick; key it by its origin so rows on
    # equal reversed graphs count as repeats
    key = ("reverse", _graph_key(tracer, args[0]))
    tracer.graph_keys[id(result)] = key
    weakref.finalize(result, tracer.graph_keys.pop, id(result), None)
    return None


def _pair_attrs(tracer: "Tracer", args: tuple, kwargs: dict, result: object) -> dict:
    matrix = args[0]
    k = matrix.user_count
    return {"pair_terms": k * (k - 1) // 2 * matrix.vertex_count}


def _blend_attrs(tracer: "Tracer", args: tuple, kwargs: dict, result: object) -> dict:
    matrices = args[0]
    if result is matrices[0]:  # a lone channel is passed through unblended
        return {"cells": 0}
    return {"cells": len(matrices) * result.user_count * result.vertex_count}


# (module, attribute path, span name, attrs hook)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("meetpoint.gridmap", "parse_grid_map", "gridmap.parse", None),
    ("meetpoint.gridmap", "GridMap.to_graph", "graph.build", None),
    ("meetpoint.graph", "build_graph", "graph.build", None),
    ("meetpoint.graph", "Graph.reverse", "graph.reverse", _reverse_attrs),
    ("meetpoint.scoring", "plan_destination", "scoring.plan", None),
    ("meetpoint.sim", "plan_destination", "scoring.plan", None),
    ("meetpoint.scoring", "build_partial_matrix", "shortest_paths.matrix", None),
    ("meetpoint.shortest_paths", "dijkstra_row", "shortest_paths.row", _row_attrs),
    ("meetpoint.sim", "dijkstra_row", "shortest_paths.row", _row_attrs),
    ("meetpoint.scoring", "ReachabilitySet.from_matrix", "shortest_paths.reach", None),
    ("meetpoint.scoring", "blend_objectives", "scoring.blend", _blend_attrs),
    ("meetpoint.scoring", "total_distance", "scoring.total", None),
    ("meetpoint.scoring", "similarity_penalty", "scoring.similarity", _pair_attrs),
    ("meetpoint.scoring", "combine", "scoring.combine", None),
    ("meetpoint.scoring", "select_destination", "scoring.select", None),
    ("meetpoint.sim", "SimState.initial", "sim.step", None),
    ("meetpoint.sim", "step", "sim.step", None),
    ("meetpoint.sim", "next_move", "sim.next_move", None),
)


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request: object = None
        self.graph_keys: dict[int, object] = {}
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn: Callable, hook: Callable | None) -> Callable:
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, self.request)
            spans.append(span)
            stack.append(index)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if hook is not None:
                span.attrs = hook(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module_name, path, name, hook in TARGETS:
            owner: object = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            try:
                for part in parents:
                    owner = getattr(owner, part)
                raw = vars(owner)[attr]
            except (AttributeError, KeyError):
                self.missing.add(name)
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                patched: object = type(raw)(self._wrap(name, raw.__func__, hook))
            else:
                patched = self._wrap(name, raw, hook)
            setattr(owner, attr, patched)
            self._undo.append((owner, attr, raw))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                record = {
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "parent": span.parent,
                    "request": span.request,
                }
                if span.attrs:
                    record.update((k, v if k != "key" else repr(v)) for k, v in span.attrs.items())
                out.write(json.dumps(record) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus that of its direct children."""
    own = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            own[span.parent] -= span.duration
    return own


# metric -> the span name it is derived from
SOURCES = {
    "gridmap.parse_s": "gridmap.parse",
    "graph.build_s": "graph.build",
    "graph.reverse_calls": "graph.reverse",
    "graph.reverse_s": "graph.reverse",
    "shortest_paths.rows": "shortest_paths.row",
    "shortest_paths.row_p50_ms": "shortest_paths.row",
    "shortest_paths.matrix_s": "shortest_paths.matrix",
    "shortest_paths.reach_s": "shortest_paths.reach",
    "shortest_paths.rows_repeat_ratio": "shortest_paths.row",
    "scoring.similarity_s": "scoring.similarity",
    "scoring.pair_terms": "scoring.similarity",
    "scoring.blend_s": "scoring.blend",
    "scoring.blend_cells": "scoring.blend",
    "scoring.total_s": "scoring.total",
    "scoring.combine_s": "scoring.combine",
    "scoring.select_s": "scoring.select",
    "scoring.plan_calls": "scoring.plan",
    "scoring.plan_self_s": "scoring.plan",
    "sim.ticks": "sim.step",
    "sim.step_self_s": "sim.step",
    "sim.next_move_calls": "sim.next_move",
    "sim.next_move_s": "sim.next_move",
}


def layer_metrics(spans: list[Span], setups: int, missing: Iterable[str]) -> dict[str, float]:
    """Per-layer metrics from one traced run.

    Set-up layers (map parsing, graph building) are averaged per set-up;
    every other metric covers the timed loop only. Metrics whose spans could
    not be installed are left out.
    """
    own = self_times(spans)
    setup: dict[str, list[int]] = {}
    loop: dict[str, list[int]] = {}
    for i, span in enumerate(spans):
        (setup if span.request == SETUP else loop).setdefault(span.name, []).append(i)

    def total(name: str, table: dict[str, list[int]] = loop) -> float:
        return sum(spans[i].duration for i in table.get(name, ()))

    def self_total(name: str, table: dict[str, list[int]] = loop) -> float:
        return sum(own[i] for i in table.get(name, ()))

    def count(name: str) -> int:
        return len(loop.get(name, ()))

    def attr_sum(name: str, key: str) -> int:
        # a call that raised carries no attributes
        return sum((spans[i].attrs or {}).get(key, 0) for i in loop.get(name, ()))

    rows = loop.get("shortest_paths.row", [])
    seen: set[object] = set()
    repeats = 0
    for i in rows:
        key = (spans[i].attrs or {}).get("key")
        repeats += key is not None and key in seen
        seen.add(key)

    metrics = {
        "gridmap.parse_s": self_total("gridmap.parse", setup) / setups,
        "graph.build_s": total("graph.build", setup) / setups,
        "graph.reverse_calls": count("graph.reverse"),
        "graph.reverse_s": total("graph.reverse"),
        "shortest_paths.rows": len(rows),
        "shortest_paths.row_p50_ms": (
            statistics.median(spans[i].duration for i in rows) * 1000 if rows else 0.0
        ),
        "shortest_paths.matrix_s": total("shortest_paths.matrix"),
        "shortest_paths.reach_s": total("shortest_paths.reach"),
        "shortest_paths.rows_repeat_ratio": repeats / len(rows) if rows else 0.0,
        "scoring.similarity_s": total("scoring.similarity"),
        "scoring.pair_terms": attr_sum("scoring.similarity", "pair_terms"),
        "scoring.blend_s": total("scoring.blend"),
        "scoring.blend_cells": attr_sum("scoring.blend", "cells"),
        "scoring.total_s": total("scoring.total"),
        "scoring.combine_s": total("scoring.combine"),
        "scoring.select_s": total("scoring.select"),
        "scoring.plan_calls": count("scoring.plan"),
        "scoring.plan_self_s": self_total("scoring.plan"),
        "sim.ticks": count("sim.step"),
        "sim.step_self_s": self_total("sim.step"),
        "sim.next_move_calls": count("sim.next_move"),
        "sim.next_move_s": total("sim.next_move"),
    }
    missing = set(missing)
    return {name: value for name, value in metrics.items() if SOURCES[name] not in missing}
