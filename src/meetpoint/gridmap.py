"""ASCII grid maps and their rendering.

One text line per map row: ``#`` is a wall, a space is a free cell and ``U``
is a free cell holding a user start. Lines shorter than the widest one are
right-padded with walls. Free cells become vertices, numbered row-major, and
4-adjacent free cells are joined by unit-weight edges in both directions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Sequence

from .errors import EmptyMap, NoUsers, UnknownCharacter
from .graph import Graph

WALL = "#"
FREE = " "
USER = "U"
VISITED = "."
ACHIEVED = "D"
INITIAL = "I"


@dataclass(frozen=True)
class GridMap:
    width: int
    height: int
    walls: tuple[tuple[bool, ...], ...]  # walls[row][col]
    user_starts: tuple[int, ...] = ()  # vertex ids, reading order
    _vertex_ids: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)
    _cells: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ids: list[tuple[int, ...]] = []
        cells: list[tuple[int, int]] = []
        for r in range(self.height):
            row = []
            for c in range(self.width):
                if self.walls[r][c]:
                    row.append(-1)
                else:
                    row.append(len(cells))
                    cells.append((r, c))
            ids.append(tuple(row))
        object.__setattr__(self, "_vertex_ids", tuple(ids))
        object.__setattr__(self, "_cells", tuple(cells))
        for v in self.user_starts:
            if not 0 <= v < len(cells):
                raise ValueError(f"user start {v} is not a free-cell vertex")

    @property
    def vertex_count(self) -> int:
        return len(self._cells)

    def vertex_at(self, row: int, col: int) -> int | None:
        """Vertex id of a cell, or None for walls."""
        vid = self._vertex_ids[row][col]
        return None if vid < 0 else vid

    def cell_of(self, vertex: int) -> tuple[int, int]:
        return self._cells[vertex]

    def to_graph(self, channels: Sequence[str] = ("distance",)) -> Graph:
        """4-connected unit-weight graph over the free cells.

        Every requested channel carries the same unit step weight. Row-major
        ids put a cell's neighbours in the order up < left < right < down,
        so the out-edge tables are filled in place, already sorted.
        """
        blank = (-1,) * (self.width + 2)
        rows = [blank, *((-1, *row, -1) for row in self._vertex_ids), blank]
        targets = []
        for up, row, down in zip(rows, rows[1:], rows[2:]):
            for c in range(1, self.width + 1):
                if row[c] >= 0:
                    around = (up[c], row[c - 1], row[c + 1], down[c])
                    targets.append(tuple(v for v in around if v >= 0))
        ones = [(1,) * degree for degree in range(5)]
        unit = tuple(ones[len(t)] for t in targets)
        return Graph(self.vertex_count, tuple(channels), tuple(targets), (unit,) * len(channels))


def parse_grid_map(
    text: str,
    *,
    channels: Sequence[str] = ("distance",),
    require_users: bool = False,
) -> tuple[GridMap, Graph]:
    """Parse map text into a grid and its traversal graph."""
    lines = text.splitlines()
    while lines and not lines[-1]:
        lines.pop()
    if not lines:
        raise EmptyMap("map has no rows")
    width = max(len(line) for line in lines)
    if width == 0:
        raise EmptyMap("map has no columns")

    walls: list[tuple[bool, ...]] = []
    user_cells: list[tuple[int, int]] = []
    for r, line in enumerate(lines):
        padded = line.ljust(width, WALL)
        row = []
        for c, ch in enumerate(padded):
            if ch == WALL:
                row.append(True)
            elif ch in (FREE, USER):
                row.append(False)
                if ch == USER:
                    user_cells.append((r, c))
            else:
                raise UnknownCharacter(f"{ch!r} at row {r}, column {c}")
        walls.append(tuple(row))

    grid = GridMap(width, len(lines), tuple(walls))
    starts = tuple(grid.vertex_at(r, c) for r, c in user_cells)
    if require_users and not starts:
        raise NoUsers("map defines no 'U' cells")
    grid = replace(grid, user_starts=starts)
    return grid, grid.to_graph(channels)


def render_map(grid: GridMap) -> str:
    """Map text for a grid; inverse of parsing up to wall padding."""
    rows = [[WALL if grid.walls[r][c] else FREE for c in range(grid.width)]
            for r in range(grid.height)]
    for v in grid.user_starts:
        r, c = grid.cell_of(v)
        rows[r][c] = USER
    return "\n".join("".join(row) for row in rows) + "\n"


def render_frame(
    grid: GridMap,
    *,
    users: Iterable[int] = (),
    visited: Iterable[int] = (),
    initial: int | None = None,
    destination: int | None = None,
) -> str:
    """One map frame with path and destination markers.

    Overlap resolves as destination > initial > user > visited trail.
    """
    rows = [[WALL if grid.walls[r][c] else FREE for c in range(grid.width)]
            for r in range(grid.height)]

    def paint(vertex: int, ch: str) -> None:
        r, c = grid.cell_of(vertex)
        rows[r][c] = ch

    for v in visited:
        paint(v, VISITED)
    for v in users:
        paint(v, USER)
    if initial is not None:
        paint(initial, INITIAL)
    if destination is not None:
        paint(destination, ACHIEVED)
    return "\n".join("".join(row) for row in rows) + "\n"


def render_trace_frames(grid: GridMap, trace) -> list[str]:
    """One frame per trace snapshot.

    Earlier frames mark the destination selected at that tick; the last frame
    marks the achieved destination and the full visited trail.
    """
    frames = []
    seen: set[int] = set()
    last = len(trace.snapshots) - 1
    for i, snap in enumerate(trace.snapshots):
        seen.update(snap.positions)
        destination = trace.final_destination if i == last else snap.destination
        frames.append(
            render_frame(
                grid,
                users=snap.positions,
                visited=seen,
                initial=trace.initial_destination,
                destination=destination,
            )
        )
    return frames
