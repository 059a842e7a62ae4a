"""One-line permutations, each the immutable tuple of its entries:
reverse/complement/inverse operators and deterministic lexicographic
iteration over the symmetric group."""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import permutations
from math import factorial

__all__ = [
    "Permutation",
    "iterate_sn",
    "next_permutation",
    "unrank",
]

# n! sweeps and tableau sizes stay at desk scale below this bound.
MAX_SIZE = 20


class Permutation(tuple):
    """A permutation of {1, ..., n} in one-line notation: the immutable
    tuple of its entries.

    The empty permutation (n = 0) is allowed only as an iteration base
    case. Positions are 1-based in all error messages.
    """

    __slots__ = ()

    def __new__(cls, values: Iterable[int]) -> "Permutation":
        entries = tuple(values)
        n = len(entries)
        if n > MAX_SIZE:
            raise ValueError(f"size {n} exceeds the supported maximum {MAX_SIZE}")
        seen = [False] * (n + 1)
        for i, v in enumerate(entries, start=1):
            if not isinstance(v, int) or isinstance(v, bool):
                raise ValueError(f"entry {v!r} at position {i} is not an integer")
            if v < 1:
                raise ValueError(f"entry {v} at position {i} is not a positive integer")
            if v > n:
                raise ValueError(f"entry {v} at position {i} exceeds the length {n}")
            if seen[v]:
                raise ValueError(f"duplicate value {v} at position {i}")
            seen[v] = True
        return tuple.__new__(cls, entries)

    # Wraps entries the library built itself, without validating them.
    _trusted = classmethod(tuple.__new__)

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse "5 2 3 1 4", "5,2,3,1,4", or the compact ASCII form "52314" (n <= 9)."""
        s = text.strip()
        if not s:
            raise ValueError("empty permutation text")
        if any(ch in s for ch in " ,\t"):
            values = []
            for token in s.replace(",", " ").split():
                # One optional sign, then ASCII digits: int() alone would
                # also read Unicode digits and underscores.
                digits = token[1:] if token[0] in "+-" else token
                if not (digits.isascii() and digits.isdigit()):
                    raise ValueError(f"invalid integer {token!r} in permutation text")
                values.append(int(token))
            return cls(values)
        if s.isascii() and s.isdigit():
            return cls(int(ch) for ch in s)
        raise ValueError(f"cannot parse permutation from {text!r}")

    @property
    def n(self) -> int:
        return len(self)

    def reverse(self) -> "Permutation":
        """w_n ... w_1."""
        return Permutation._trusted(self[::-1])

    def complement(self) -> "Permutation":
        """(n+1-w_1) ... (n+1-w_n)."""
        m = len(self) + 1
        return Permutation._trusted(m - v for v in self)

    def inverse(self) -> "Permutation":
        """The permutation whose entry at position w_i is i."""
        inv = [0] * len(self)
        for i, v in enumerate(self, start=1):
            inv[v - 1] = i
        return Permutation._trusted(inv)

    def __str__(self) -> str:
        return " ".join(map(str, self))

    def __repr__(self) -> str:
        return f"Permutation({list(self)})"


def next_permutation(values: list[int]) -> bool:
    """Advance to the lexicographic successor in place.

    Returns False (leaving the list unchanged) when the input is already the
    lexicographic maximum. Library API that the verifier does not call.
    """
    i = len(values) - 2
    while i >= 0 and values[i] >= values[i + 1]:
        i -= 1
    if i < 0:
        return False
    j = len(values) - 1
    while values[j] <= values[i]:
        j -= 1
    values[i], values[j] = values[j], values[i]
    values[i + 1 :] = values[i + 1 :][::-1]
    return True


def unrank(n: int, r: int) -> Permutation:
    """The r-th permutation of S_n in lexicographic order, 0 <= r < n!.

    Digits of r in the factorial number system index into the pool of unused
    values, so unrank is a bijection from [0, n!) onto S_n. Library API
    that the verifier does not call.
    """
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    total = factorial(n)
    if not 0 <= r < total:
        raise ValueError(f"rank {r} out of range [0, {n}!) = [0, {total})")
    if n > MAX_SIZE:
        raise ValueError(f"size {n} exceeds the supported maximum {MAX_SIZE}")
    pool = list(range(1, n + 1))
    out = []
    block = total
    for k in range(n, 0, -1):
        block //= k
        idx, r = divmod(r, block)
        out.append(pool.pop(idx))
    return Permutation._trusted(out)


def iterate_sn(n: int) -> Iterator[Permutation]:
    """Yield all n! permutations of S_n in lexicographic order.

    For n = 0 yields the empty permutation once.
    """
    if n < 0:
        raise ValueError(f"size must be nonnegative, got {n}")
    if n > MAX_SIZE:
        raise ValueError(f"size {n} exceeds the supported maximum {MAX_SIZE}")
    # permutations() of a sorted pool comes out in lexicographic order.
    for entries in permutations(range(1, n + 1)):
        yield Permutation._trusted(entries)
