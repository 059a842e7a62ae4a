"""Size-raising maps between neighboring symmetric groups and the
membership predicates for the reverse-stable sets.

phi lifts a permutation of n to one of n+2 by prepending a chosen first
letter a and appending a chosen last letter b, shifting the interior
entries just enough to keep all relative orders while freeing the two new
values. theta is the shared left inverse: drop the endpoints and close
the two gaps their values leave behind.

The three predicates classify by recording tableau: is_in_R holds when a
permutation and its reverse share a recording tableau, is_in_H when the
recording tableau has symmetric hook shape, and is_in_M when a tableau is
fixed by evacuation followed by transposition.
"""

from __future__ import annotations

from .evacuation import evacuation
from .permutations import MAX_SIZE, Permutation
from .rsk import rsk, same_recording_tableau
from .tableaux import StandardYoungTableau

__all__ = [
    "is_in_H",
    "is_in_M",
    "is_in_R",
    "phi",
    "satisfies_first_row_property",
    "theta",
]


def phi(w: Permutation, a: int, b: int) -> Permutation:
    """Lift w into the symmetric group two sizes up.

    The result starts with a and ends with b; interior entry i+1 is w_i
    shifted up by 0, 1, or 2 so that the values a and b stay free: with
    c = min(a, b) and d = max(a, b), entries below c are kept, entries in
    [c, d-1) move up one, and entries >= d-1 move up two.
    """
    m = len(w) + 2
    for name, value in (("a", a), ("b", b)):
        # The lift is built unchecked, so a value that is no integer stops here.
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"parameter {name}={value!r} is not an integer")
        if not 1 <= value <= m:
            raise ValueError(f"parameter {name}={value} outside [1, {m}]")
    if a == b:
        raise ValueError(f"parameters must differ, got a = b = {a}")
    if m > MAX_SIZE:
        raise ValueError(f"size {m} exceeds the supported maximum {MAX_SIZE}")
    c, d = (a, b) if a < b else (b, a)
    out = [a]
    for v in w:
        if v < c:
            out.append(v)
        elif v < d - 1:
            out.append(v + 1)
        else:
            out.append(v + 2)
    out.append(b)
    return Permutation._trusted(out)


def theta(w: Permutation) -> Permutation:
    """Drop the endpoints and close the gaps their values leave.

    With c = min(w_1, w_n) and d = max(w_1, w_n), each interior entry is
    lowered by 0, 1, or 2 according to whether it sits below c, between c
    and d, or above d. All relative orders among interior entries are
    preserved, and theta(phi(w, a, b)) = w for every valid (a, b).
    """
    if len(w) < 3:
        raise ValueError(f"requires size at least 3, got {len(w)}")
    first, last = w[0], w[-1]
    c, d = (first, last) if first < last else (last, first)
    out = []
    for v in w[1:-1]:
        if v < c:
            out.append(v)
        elif v < d:
            out.append(v - 1)
        else:
            out.append(v - 2)
    return Permutation._trusted(out)


def is_in_R(w: Permutation) -> bool:
    """Whether w and its reverse produce the same recording tableau.

    Decided by running both insertion sequences, never by the
    symmetric-hook/first-row characterization, so this predicate can serve
    as the independent oracle for that characterization.
    """
    if w.n < 1:
        raise ValueError("requires a nonempty permutation")
    return same_recording_tableau(w, w[::-1])


def is_in_H(w: Permutation) -> bool:
    """Whether the recording tableau of w has symmetric hook shape."""
    if w.n < 1:
        raise ValueError("requires a nonempty permutation")
    return rsk(w).q.shape.is_symmetric_hook()


def satisfies_first_row_property(t: StandardYoungTableau) -> bool:
    """Whether every first-row entry i > 1 pairs with n - i + 2 in column 1."""
    if not t:
        return True
    n = t.n
    first_column = {row[0] for row in t}
    return all(n - i + 2 in first_column for i in t[0] if i > 1)


def is_in_M(t: StandardYoungTableau) -> bool:
    """Whether t is fixed by evacuation followed by transposition.

    Computed by actually evacuating, never by the first-row shortcut, so
    the two routes stay independent.
    """
    return evacuation(t).transpose() == t
