"""Schensted row insertion, the bijection from permutations to pairs of
standard Young tableaux, and its inverse.

Insertion follows the classical bump rule: a value either appends to the
end of a row or displaces the leftmost strictly larger entry into the row
below, cascading until an append happens. The insertion tableau
accumulates the inserted values; the recording tableau marks, with entry
i, the cell created at step i.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .permutations import Permutation
from .tableaux import Cell, StandardYoungTableau, validate_grid

__all__ = [
    "InsertionOutcome",
    "TableauPair",
    "inverse_rsk",
    "recording_cells",
    "row_insert",
    "rsk",
    "same_recording_tableau",
]


class TableauPair(namedtuple("TableauPair", "p q")):
    """Insertion tableau p and recording tableau q of a common shape."""

    __slots__ = ()

    def __new__(cls, p: StandardYoungTableau, q: StandardYoungTableau) -> TableauPair:
        if p.shape != q.shape:
            raise ValueError(
                "shape mismatch between insertion and recording tableaux: "
                f"{p.shape} vs {q.shape}"
            )
        return tuple.__new__(cls, (p, q))

    @classmethod
    def _make(cls, iterable: Iterable[StandardYoungTableau]) -> TableauPair:
        # _replace builds through _make, so it checks the shapes too.
        return cls(*iterable)


class InsertionOutcome(namedtuple("InsertionOutcome", "rows new_cell bump_path")):
    """Result of inserting one value: the grown grid, the appended cell,
    and the cells touched on the way down (ending at the appended cell).
    Library API that the verifier does not call."""

    __slots__ = ()


def _insert(rows: list[list[int]], x: int) -> tuple[int, int]:
    """Bump x into the grid in place; returns the 0-based new cell."""
    r = 0
    val = x
    while True:
        if r == len(rows):
            rows.append([val])
            return r, 0
        row = rows[r]
        idx = bisect_left(row, val)
        if idx == len(row):
            row.append(val)
            return r, idx
        row[idx], val = val, row[idx]
        r += 1


def _uninsert(rows: list[list[int]], r: int) -> int:
    """Undo, in place, the insertion that ended at the last cell of row r:
    empty that cell and reverse-bump its value upward, each row giving up
    its rightmost entry smaller than the value coming up. Returns the
    letter that leaves the top row."""
    val = rows[r].pop()
    if not rows[r]:
        del rows[r]
    for upper in range(r - 1, -1, -1):
        row = rows[upper]
        idx = bisect_left(row, val) - 1
        row[idx], val = val, row[idx]
    return val


def row_insert(grid: Iterable[Sequence[int]], x: int) -> InsertionOutcome:
    """Insert x into a tableau-like grid by the bump rule.

    x lands at the end of the first row if it is >= every entry there;
    otherwise it replaces the leftmost larger entry, which is inserted into
    the next row, and so on until a row (possibly a brand-new one) takes an
    append. The bump path lists one cell per row visited, the last being
    the new cell. Library API that the verifier does not call.
    """
    before = validate_grid(grid)
    if not isinstance(x, int) or isinstance(x, bool) or x < 1:
        raise ValueError(f"inserted value must be a positive integer, got {x!r}")
    if any(x in row for row in before):
        raise ValueError(f"value {x} already present in the grid")
    rows = [list(row) for row in before]
    r, c = _insert(rows, x)
    new_cell = Cell(r + 1, c + 1)
    # Each row above the new cell had exactly one entry bumped out of it.
    path = [
        Cell(i + 1, [a == b for a, b in zip(old, new)].index(False) + 1)
        for i, (old, new) in enumerate(zip(before, rows[:r]))
    ]
    return InsertionOutcome(
        rows=tuple(tuple(row) for row in rows),
        new_cell=new_cell,
        bump_path=(*path, new_cell),
    )


def _schensted(word: Iterable[int]) -> tuple[list[list[int]], list[list[int]]]:
    """Insertion and recording rows of a word of distinct positive integers.

    The insertion rows are built by bumping the letters in order; the
    recording rows receive entry i at the cell created by step i.
    """
    p_rows: list[list[int]] = []
    q_rows: list[list[int]] = []
    for step, x in enumerate(word, start=1):
        r, _ = _insert(p_rows, x)
        if r == len(q_rows):
            q_rows.append([step])
        else:
            q_rows[r].append(step)
    return p_rows, q_rows


def rsk(w: Permutation) -> TableauPair:
    """Map a permutation to its (insertion, recording) tableau pair."""
    if w.n < 1:
        raise ValueError("rsk requires a nonempty permutation")
    p_rows, q_rows = _schensted(w)
    return TableauPair(
        StandardYoungTableau._trusted(map(tuple, p_rows)),
        StandardYoungTableau._trusted(map(tuple, q_rows)),
    )


def inverse_rsk(pair: TableauPair) -> Permutation:
    """Recover the unique permutation mapping to the given tableau pair.

    Entries n, n-1, ..., 1 of the recording tableau locate the cells to
    empty; each emptied value reverse-bumps upward, displacing the
    rightmost smaller entry of the row above, until it exits the top row
    as a letter of the permutation.
    """
    row_of = {v: r for r, row in enumerate(pair.q) for v in row}
    p_rows = [list(row) for row in pair.p]
    letters = [_uninsert(p_rows, row_of[k]) for k in range(pair.q.n, 0, -1)]
    return Permutation(letters[::-1])


def recording_cells(values: Sequence[int]) -> list[Cell]:
    """Cells where the recording tableau grows, one per inserted value.

    Works on any sequence of distinct positive integers, so suffix words
    of a permutation can be inserted too. Library API that the verifier
    does not call.
    """
    rows: list[list[int]] = []
    return [Cell(r + 1, c + 1) for r, c in (_insert(rows, x) for x in values)]


def same_recording_tableau(
    u: Iterable[int],
    v: Iterable[int],
    *,
    start: tuple[Iterable[Sequence[int]], Iterable[Sequence[int]]] = ((), ()),
) -> bool:
    """Whether inserting u and inserting v grow cells in the identical
    order, i.e. whether the two recording tableaux are equal.

    The sequences must have equal length. Both insertion runs advance in
    lockstep and stop at the first step whose new cells differ.

    `start` holds the insertion rows that u and v are bumped into, empty by
    default. With the rows of P(x) and P(y) for two words of equal length
    k, the answer is whether steps k+1 onwards of Q(x + u) and Q(y + v)
    agree. The rows are copied, never changed.
    """
    rows_u = [list(row) for row in start[0]]
    rows_v = [list(row) for row in start[1]]
    for xu, xv in zip(u, v, strict=True):
        if _insert(rows_u, xu) != _insert(rows_v, xv):
            return False
    return True
