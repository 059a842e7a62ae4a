"""Integer partition shapes and standard Young tableaux, each the
immutable tuple of its parts or rows: validation, transposition, hook
predicates, enumeration, and hook-length counting."""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from itertools import chain
from math import factorial

__all__ = [
    "Cell",
    "Shape",
    "StandardYoungTableau",
    "count_syt",
    "enumerate_syt",
    "partitions",
    "validate_grid",
]


class Cell(namedtuple("Cell", "row col")):
    """1-based (row, column) position in a Young diagram."""

    __slots__ = ()


class Shape(tuple):
    """An integer partition drawn as a left-justified Young diagram: the
    immutable tuple of its parts.

    Parts weakly decrease and are all positive; the empty shape is legal.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int]) -> "Shape":
        parts = tuple(parts)
        previous = None
        for i, p in enumerate(parts, start=1):
            if not isinstance(p, int) or isinstance(p, bool):
                raise ValueError(f"part {p!r} at index {i} is not an integer")
            if p < 1:
                raise ValueError(f"part {p} at index {i} is not positive")
            if previous is not None and p > previous:
                raise ValueError(
                    f"parts must weakly decrease: part {p} at index {i} exceeds {previous}"
                )
            previous = p
        return tuple.__new__(cls, parts)

    # Wraps parts the library built itself, without validating them.
    _trusted = classmethod(tuple.__new__)

    @property
    def size(self) -> int:
        return sum(self)

    def conjugate(self) -> "Shape":
        """Transpose the diagram: part j of the result counts parts >= j."""
        width = self[0] if self else 0
        return Shape._trusted(sum(1 for p in self if p >= j) for j in range(1, width + 1))

    def is_hook(self) -> bool:
        """True for (k, 1, 1, ..., 1).

        The single cell (1) counts as a hook; a bare row (k) with k >= 2
        does not.
        """
        if not self:
            raise ValueError("empty shape")
        if self == (1,):
            return True
        return len(self) >= 2 and all(p == 1 for p in self[1:])

    def is_symmetric_hook(self) -> bool:
        """A hook equal to its conjugate: ((n+1)/2, 1^((n-1)/2)), n odd."""
        return self.is_hook() and self.conjugate() == self

    def __repr__(self) -> str:
        return f"Shape({list(self)})"


def validate_grid(rows: Iterable[Sequence[int]]) -> tuple[tuple[int, ...], ...]:
    """Validate a tableau-like grid and return it as nested tuples.

    Row lengths must form a partition, entries must be distinct positive
    integers, and entries must strictly increase along rows and down
    columns. Entries need not be exactly 1..n, so partially evacuated
    grids are accepted.
    """
    grid = tuple(tuple(row) for row in rows)
    for r, row in enumerate(grid, start=1):
        if len(row) == 0:
            raise ValueError(f"row {r} is empty")
        if r >= 2 and len(row) > len(grid[r - 2]):
            raise ValueError(
                f"row lengths must weakly decrease: row {r} is longer than row {r - 1}"
            )
    seen: set[int] = set()
    for r, row in enumerate(grid, start=1):
        for c, v in enumerate(row, start=1):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"entry {v!r} at cell ({r},{c}) is not an integer")
            if v < 1:
                raise ValueError(f"entry {v} at cell ({r},{c}) is not positive")
            if v in seen:
                raise ValueError(f"duplicate entry {v} at cell ({r},{c})")
            seen.add(v)
            if c >= 2 and row[c - 2] >= v:
                raise ValueError(f"row order violated at ({r},{c})")
            if r >= 2 and grid[r - 2][c - 1] >= v:
                raise ValueError(f"column order violated at ({r},{c})")
    return grid


class StandardYoungTableau(tuple):
    """A ragged grid filled with 1..n, strictly increasing along rows and
    down columns: the immutable tuple of its rows, each a tuple."""

    __slots__ = ()

    def __new__(cls, rows: Iterable[Sequence[int]]) -> "StandardYoungTableau":
        grid = validate_grid(rows)
        n = sum(len(row) for row in grid)
        present = {v for row in grid for v in row}
        # validate_grid rejects duplicates, so the n distinct entries are
        # exactly 1..n as soon as none of 1..n is missing
        for v in range(1, n + 1):
            if v not in present:
                raise ValueError(f"missing entry {v}: entries must be exactly 1..{n}")
        return tuple.__new__(cls, grid)

    # Wraps rows the library built itself, without validating them.
    _trusted = classmethod(tuple.__new__)

    @property
    def n(self) -> int:
        return sum(map(len, self))

    @property
    def shape(self) -> Shape:
        return Shape._trusted(map(len, self))

    def transpose(self) -> "StandardYoungTableau":
        """Reflect across the main diagonal: cell (i,j) moves to (j,i)."""
        width = len(self[0]) if self else 0
        return StandardYoungTableau._trusted(
            tuple(row[j] for row in self if len(row) > j) for j in range(width)
        )

    def cell_of(self, value: int) -> Cell:
        """Locate an entry; raises ValueError when absent."""
        for r, row in enumerate(self, start=1):
            for c, v in enumerate(row, start=1):
                if v == value:
                    return Cell(r, c)
        raise ValueError(f"entry {value} not present")

    def reading_word(self) -> tuple[int, ...]:
        """Concatenation of the rows, top row first."""
        return tuple(chain.from_iterable(self))

    def ascii(self) -> str:
        """One row per line, cells space-separated."""
        return "\n".join(" ".join(map(str, row)) for row in self)

    def __repr__(self) -> str:
        return f"StandardYoungTableau({[list(row) for row in self]})"


def partitions(n: int) -> Iterator[Shape]:
    """All partitions of n, in decreasing lexicographic order of parts."""
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")

    def gen(remaining: int, cap: int) -> Iterator[tuple[int, ...]]:
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in gen(remaining - first, first):
                yield (first, *rest)

    for parts in gen(n, n):
        yield Shape(parts)


def enumerate_syt(shape: Shape) -> list[StandardYoungTableau]:
    """All standard Young tableaux of the given shape.

    Built by recursively removing the largest entry from a corner, then
    sorted by reading word so the order is deterministic.
    """
    tableaux = [StandardYoungTableau._trusted(rows) for rows in _fillings(shape)]
    tableaux.sort(key=StandardYoungTableau.reading_word)
    return tableaux


def _fillings(parts: tuple[int, ...]) -> list[tuple[tuple[int, ...], ...]]:
    n = sum(parts)
    if n == 0:
        return [()]
    out = []
    for r in range(len(parts)):
        if r + 1 < len(parts) and parts[r + 1] == parts[r]:
            continue  # not a corner: the row below is equally long
        child = list(parts)
        child[r] -= 1
        if child[r] == 0:
            child.pop()
        for rows in _fillings(tuple(child)):
            if r < len(rows):
                grown = rows[:r] + (rows[r] + (n,),) + rows[r + 1 :]
            else:
                grown = rows + ((n,),)
            out.append(grown)
    return out


def count_syt(shape: Shape) -> int:
    """Number of standard Young tableaux of the given shape, by the
    hook-length formula: n! divided by the product of all hook lengths."""
    n = shape.size
    if n == 0:
        return 1
    conj = shape.conjugate()
    hook_product = 1
    for i, p in enumerate(shape):
        for j in range(p):
            hook_product *= (p - j) + (conj[j] - i) - 1
    return factorial(n) // hook_product
