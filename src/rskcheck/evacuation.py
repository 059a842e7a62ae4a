"""The minimal-entry deletion operator, by a forward jeu-de-taquin slide,
and the evacuation involution on standard Young tableaux.

A slide moves a hole through the grid: at each step the hole swallows the
smaller of the entries directly below and directly to its right (the only
one present when just one exists) and takes that entry's place. When
neither neighbor exists the hole has reached a corner and drops off the
diagram. Deletion erases the minimal entry and slides the resulting hole
out; entries keep their labels, so iterating deletion on a 1..n tableau
yields grids over {2..n}, {3..n}, and so on. Evacuation records, for each
of the n deletions, which corner was vacated: the cell vacated by the
i-th deletion (0-based) receives entry n - i.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Sequence

from .tableaux import Cell, StandardYoungTableau, validate_grid

__all__ = [
    "EvacuationTrace",
    "delta",
    "evacuation",
    "evacuation_trace",
]

Grid = tuple[tuple[int, ...], ...]


class EvacuationTrace(namedtuple("EvacuationTrace", "vacated_cells evacuation")):
    """The corner vacated by each deletion step, plus the tableau that
    records them."""

    __slots__ = ()


def _slide(rows: list[list[int]], r: int, c: int) -> tuple[int, int]:
    """Slide the hole at 0-based (r, c) to a corner; returns its resting cell.

    The entry at (r, c) is treated as absent and overwritten by the first
    move.
    """
    while True:
        below = None
        if r + 1 < len(rows) and c < len(rows[r + 1]):
            below = rows[r + 1][c]
        right = None
        if c + 1 < len(rows[r]):
            right = rows[r][c + 1]
        if below is None and right is None:
            return r, c
        if right is None or (below is not None and below < right):
            rows[r][c] = below
            r += 1
        else:
            rows[r][c] = right
            c += 1


def _remove_corner(rows: list[list[int]], r: int, c: int) -> None:
    # the vacated cell is always the last of its row, and a row empties
    # only when it is the bottom row
    assert c == len(rows[r]) - 1
    rows[r].pop()
    if not rows[r]:
        assert r == len(rows) - 1
        del rows[r]


def delta(t: StandardYoungTableau | Iterable[Sequence[int]]) -> tuple[Grid, Cell]:
    """Erase the minimal entry and slide the hole out.

    Accepts a standard tableau or any tableau-like grid (strictly
    increasing rows and columns), since iterated deletion leaves grids
    whose entries are no longer 1..n. Entries are not renumbered. Returns
    the shrunken grid and the vacated corner.
    """
    grid = t if isinstance(t, StandardYoungTableau) else validate_grid(t)
    if not grid:
        raise ValueError("cannot delete from an empty tableau")
    rows = [list(row) for row in grid]
    # the minimal entry of an increasing grid sits in the top-left cell
    r, c = _slide(rows, 0, 0)
    _remove_corner(rows, r, c)
    return tuple(tuple(row) for row in rows), Cell(r + 1, c + 1)


def evacuation_trace(t: StandardYoungTableau) -> EvacuationTrace:
    """Run n deletions, recording each vacated corner.

    The corner vacated by deletion i (0-based) receives entry n - i, so
    the record is a standard tableau of the original shape.
    """
    n = t.n
    work = [list(row) for row in t]
    out = [[0] * len(row) for row in t]
    vacated: list[Cell] = []
    for i in range(n):
        r, c = _slide(work, 0, 0)
        _remove_corner(work, r, c)
        out[r][c] = n - i
        vacated.append(Cell(r + 1, c + 1))
    evacuated = StandardYoungTableau._trusted(map(tuple, out))
    return EvacuationTrace(tuple(vacated), evacuated)


def evacuation(t: StandardYoungTableau) -> StandardYoungTableau:
    """The evacuation tableau; an involution preserving the shape."""
    return evacuation_trace(t).evacuation
