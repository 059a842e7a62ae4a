"""A reference for checking rskcheck's outputs, kept apart from the program.

Everything here is built on one plain Schensted insertion (a linear scan
per row, not the program's binary search), so no answer is produced by
the code under test:

- evacuation of a standard tableau T is the insertion tableau of the
  reverse complement of T's row reading word (Schützenberger);
- deleting the minimum of a tableau-like grid and sliding the hole out
  (delta) gives the insertion tableau of the reading word without its
  minimum, since jeu de taquin keeps the Knuth class;
- phi and theta are written by standardization rather than by shifts.

The worked examples of the paper, which are classical facts, check the
reference itself (see `worked_examples_failures`).
"""

from __future__ import annotations

from math import comb

Rows = list[list[int]]


def insert(values: list[int]) -> tuple[Rows, Rows]:
    """Insertion and recording tableaux of a word of distinct integers."""
    p: Rows = []
    q: Rows = []
    for step, x in enumerate(values, start=1):
        r = 0
        while True:
            if r == len(p):
                p.append([x])
                q.append([step])
                break
            row = p[r]
            for i, y in enumerate(row):
                if y > x:
                    row[i], x = x, y
                    break
            else:
                row.append(x)
                q[r].append(step)
                break
            r += 1
    return p, q


def reading_word(rows: Rows) -> list[int]:
    """Rows from the bottom up, each read left to right."""
    return [v for row in reversed(rows) for v in row]


def shape(rows: Rows) -> list[int]:
    return [len(row) for row in rows]


def transpose(rows: Rows) -> Rows:
    if not rows:
        return []
    return [[row[j] for row in rows if len(row) > j] for j in range(len(rows[0]))]


def evacuation(rows: Rows) -> Rows:
    """Evacuation of a standard tableau with entries 1..n."""
    word = reading_word(rows)
    n = len(word)
    return insert([n + 1 - v for v in reversed(word)])[0]


def evacuation_vacated(evac: Rows) -> list[list[int]]:
    """The corner vacated by deletion i holds n - i in the evacuation."""
    where = {v: [r + 1, c + 1] for r, row in enumerate(evac) for c, v in enumerate(row)}
    return [where[v] for v in range(len(where), 0, -1)]


def delta(rows: Rows) -> tuple[Rows, list[int]]:
    """Erase the minimal entry, slide the hole out; returns (grid, 1-based cell)."""
    word = reading_word(rows)
    word.remove(min(word))
    result = insert(word)[0]
    before, after = shape(rows), shape(result)
    for r, length in enumerate(before):
        if r >= len(after) or after[r] < length:
            return result, [r + 1, length]
    raise AssertionError("delta removed no cell")


def phi(w: list[int], a: int, b: int) -> list[int]:
    """Lift w by new end letters a and b; the interior keeps w's pattern."""
    free = [v for v in range(1, len(w) + 3) if v not in (a, b)]
    return [a] + [free[v - 1] for v in w] + [b]


def theta(w: list[int]) -> list[int]:
    """Drop the end letters and standardize the interior."""
    interior = w[1:-1]
    rank = {v: i for i, v in enumerate(sorted(interior), start=1)}
    return [rank[v] for v in interior]


def in_R(w: list[int]) -> bool:
    """Definition: w and its reverse have one recording tableau."""
    return insert(w)[1] == insert(w[::-1])[1]


def is_symmetric_hook(parts: list[int]) -> bool:
    n = sum(parts)
    return n % 2 == 1 and parts == [(n + 1) // 2] + [1] * ((n - 1) // 2)


def is_standard(rows: Rows) -> bool:
    """Rows weakly shorten, entries are 1..n, rows and columns increase."""
    lengths = shape(rows)
    if any(b > a for a, b in zip(lengths, lengths[1:])) or 0 in lengths:
        return False
    if sorted(v for row in rows for v in row) != list(range(1, sum(lengths) + 1)):
        return False
    rows_ok = all(x < y for row in rows for x, y in zip(row, row[1:]))
    cols_ok = all(up[c] < low[c] for up, low in zip(rows, rows[1:]) for c in range(len(low)))
    return rows_ok and cols_ok


def count_R(n: int) -> int:
    """Closed form of |R_n|: 2^((n-1)/2) * C(n-1, (n-1)/2) for odd n, else 0."""
    if n % 2 == 0:
        return 0
    half = (n - 1) // 2
    return 2**half * comb(n - 1, half)


def count_M(n: int) -> int:
    """Symmetric-hook tableaux fixed by evacuation then transpose: 2^((n-1)/2)."""
    return 2 ** ((n - 1) // 2) if n % 2 == 1 else 0


def worked_examples_failures() -> list[str]:
    """Check the reference against the paper's worked examples."""
    failures = []
    p, q = insert([5, 2, 3, 1, 4])
    if (p, q) != ([[1, 3, 4], [2], [5]], [[1, 3, 5], [2], [4]]):
        failures.append(f"insertion of 52314 gives P={p} Q={q}")
    evac = evacuation([[1, 3, 5], [2], [4]])
    if evac != [[1, 2, 4], [3], [5]]:
        failures.append(f"evacuation of [[1,3,5],[2],[4]] gives {evac}")
    lifted = phi([5, 2, 3, 1, 4], 1, 7)
    if lifted != [1, 6, 3, 4, 2, 5, 7]:
        failures.append(f"phi(52314, 1, 7) gives {lifted}")
    projected = theta([1, 6, 3, 4, 2, 5, 7])
    if projected != [5, 2, 3, 1, 4]:
        failures.append(f"theta(1634257) gives {projected}")
    counts = [count_R(n) for n in range(1, 11)]
    if counts != [1, 0, 4, 0, 24, 0, 160, 0, 1120, 0]:
        failures.append(f"closed form gives {counts}")
    return failures
