"""Exhaustive sweeps over symmetric groups and tableau families: set
counts, memberships, and machine-readable verification reports.

R_n is listed by one pruned search, `_reverse_stable`: it builds each
word from both ends, inserts in lockstep, and drops a subtree at the
first recording step that differs; every word it completes is judged by
the definitional `same_recording_tableau`. Its members are sorted, so
they come out in rank order.

H_n and C_n, whose recording tableaux are the symmetric hooks and those
of them with the first-row property, are not searched: by the RSK
bijection they are the `inverse_rsk` images of their tableau pairs. The
characterization is the set equality R_n = C_n. The R side never looks
at a shape, and the C side never compares a word with its reverse.

The relations and phi/theta suites are plain loops over S_n in rank
order, run in this process, and each computes a value once and looks it
up after that. The relations suite inserts each word once and evacuates
and transposes each tableau once, and then checks the eight relations by
lookup. The phi/theta suite projects each lift once; once the lifts tile
S_{n+2}, the reverse and complement laws are checked there by lookup.

Only the R search is pooled. Its tasks are the pairs of end letters
a < b; each searches the words with w_1 = a and w_n = b and adds the
reverse of every member it finds. The tasks and their order do not
depend on the worker count, so no result does either. A worker that dies
ends the search with ChildProcessError.

`verify` plans a verification run, checks every range and the worker
count before any work starts, and shares one memo of R_n between the
count, characterization and transport claims, so a run builds each R_n
once. The plan's R searches share one pool of at most `workers`
processes, started at the first and closed after the last; `count_R`,
`list_set` and `verify_R_transport` called alone start a pool of their
own.
"""

from __future__ import annotations

import json
import os
import time
from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import cache, partial
from itertools import permutations
from math import comb, factorial

from .evacuation import evacuation
from .permutations import Permutation
from .reverse_maps import is_in_M, phi, satisfies_first_row_property, theta
from .rsk import TableauPair, _insert, _uninsert, inverse_rsk, rsk, same_recording_tableau
from .tableaux import Shape, StandardYoungTableau, enumerate_syt

__all__ = [
    "DEFAULT_MAX_COUNT_N",
    "DEFAULT_MAX_LIST_N",
    "PHI_THETA_MAX_N",
    "SUITES",
    "SYMMETRY_MAX_N",
    "SetName",
    "VerificationReport",
    "append_reports",
    "count_H",
    "count_M",
    "count_M_formula",
    "count_R",
    "count_R_formula",
    "list_set",
    "symmetric_hook_shape",
    "verify",
    "verify_R_transport",
    "verify_characterization",
    "verify_count_theorem",
    "verify_phi_theta",
    "verify_symmetry_relations",
]

DEFAULT_MAX_COUNT_N = 11
DEFAULT_MAX_LIST_N = 8

# Largest sizes of the n!-scan suites: the symmetry relations and the
# phi/theta sources are checked up to these sizes, whatever the run's n_max.
SYMMETRY_MAX_N = 7
PHI_THETA_MAX_N = 6

SUITES = ("count", "characterization", "symmetry", "phi_theta", "transport")

SetName = str  # the sets list_set accepts: "R", "H" or "M"

_REPORT_FIELDS = "check n observed expected formula passed elapsed_ms workers detail"


class VerificationReport(namedtuple("VerificationReport", _REPORT_FIELDS, defaults=(None,))):
    """One verified claim: what was observed, what was expected, timing.
    detail, None by default, holds diagnostics only and is not part of the
    JSON schema."""

    __slots__ = ()

    def as_dict(self) -> dict[str, object]:
        """Every field but detail, in declaration order."""
        payload = self._asdict()
        del payload["detail"]
        return payload

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))


def append_reports(reports: list[VerificationReport], path: str | os.PathLike[str]) -> None:
    """Append reports to a JSON-lines file, one report per line."""
    with open(path, "a", encoding="utf-8") as handle:
        for report in reports:
            handle.write(report.to_json() + "\n")


def count_R_formula(n: int) -> int:
    """Closed form for the reverse-stable count: 2^((n-1)/2) * C(n-1, (n-1)/2)
    for odd n, 0 for even n."""
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    if n % 2 == 0:
        return 0
    half = (n - 1) // 2
    return 2**half * comb(n - 1, half)


def count_M_formula(n: int) -> int:
    """Closed form for the symmetric-hook tableaux fixed by
    evacuation-transpose: 2^((n-1)/2) for odd n, 0 for even n."""
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    if n % 2 == 0:
        return 0
    return 2 ** ((n - 1) // 2)


def symmetric_hook_shape(n: int) -> Shape:
    """The unique self-conjugate hook of odd size n: ((n+1)/2, 1^((n-1)/2))."""
    if n < 1 or n % 2 == 0:
        raise ValueError(f"no symmetric hook shape exists for n={n}")
    return Shape(((n + 1) // 2,) + (1,) * ((n - 1) // 2))


# ---------------------------------------------------------------------------
# the R search and the n! scans


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")


def _reverse_stable(task: tuple[int, int, int]) -> list[tuple[int, ...]]:
    """The members of R_n that begin with `first` and end with `last`,
    where first < last, together with their reverses, unordered.

    A backtracking search from both ends: depth k fixes w_k and then
    w_{n+1-k}, bumps w_k into the forward rows and w_{n+1-k} into the
    reverse rows, and goes on only with a w_{n+1-k} whose new cell is
    w_k's. Step k of Q(w) and of Q(w^r) is compared there, so a subtree
    dropped at a mismatch holds no member. Each step is undone in place by
    a reverse bump. For odd n the middle letter is forced. Every completed
    word is judged by same_recording_tableau, the module global at the
    time of the search.

    Q(w) = Q(w^r) is symmetric in w and w^r, and so is the search: step k
    compares the same two cells for both. So each member is recorded
    together with its reverse, which begins with last and so is found by
    no task with first < last; for n >= 2 no word is its own reverse.
    """
    n, first, last = task
    half = n // 2
    w = [0] * n
    w[0], w[-1] = first, last
    # The first letter of each end lands in the empty rows' one corner.
    forward: list[list[int]] = [[first]]
    backward: list[list[int]] = [[last]]
    found = []

    def extend(k: int, free: tuple[int, ...]) -> None:
        if k == half:
            if free:
                w[half] = free[0]
            if same_recording_tableau(w, w[::-1]):
                found.extend((tuple(w), tuple(w[::-1])))
            return
        for i, a in enumerate(free):
            rest = free[:i] + free[i + 1 :]
            w[k] = a
            cell = _insert(forward, a)
            for j, b in enumerate(rest):
                back = _insert(backward, b)
                if back == cell:
                    w[n - 1 - k] = b
                    extend(k + 1, rest[:j] + rest[j + 1 :])
                _uninsert(backward, back[0])
            _uninsert(forward, cell[0])

    extend(1, tuple(a for a in range(1, n + 1) if a not in (first, last)))
    return found


class _SearchPool:
    """Runs the tasks of R searches: in this process for one worker, and
    otherwise on one process pool, started at the first search and kept
    for every later one until close(). A failed or interrupted search
    closes it, and the tasks not yet started are cancelled. The pool never
    holds more processes than requested, CPUs, or tasks in a search of
    size `largest`, the largest it will run."""

    def __init__(self, workers: int, largest: int) -> None:
        _check_workers(workers)
        self.workers = workers
        self.largest = largest
        self.executor = None

    def map(self, tasks: list[tuple[int, int, int]]) -> Iterable[list[tuple[int, ...]]]:
        if self.workers == 1:
            return map(_reverse_stable, tasks)
        # Imported here so that commands which never search in parallel do
        # not pay for loading the process pool.
        import signal
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        if self.executor is None:
            size = min(self.workers, comb(self.largest, 2), os.cpu_count() or 1)
            # A terminal sends Ctrl-C to the whole process group; only this
            # process reports it, so the workers ignore it.
            self.executor = ProcessPoolExecutor(
                size, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_IGN)
            )
        try:
            # Ctrl-C waits until every task is queued: raised inside the
            # executor's locking, it can leave a lock held that close() then
            # waits on forever. The pool's threads start here and inherit the
            # mask, so the signal can only reach this thread.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                results = self.executor.map(_reverse_stable, tasks)
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            return list(results)
        except BaseException as exc:
            self.close()
            if isinstance(exc, BrokenProcessPool):
                raise ChildProcessError("a search worker ended abruptly") from None
            raise

    def close(self) -> None:
        if self.executor is not None:
            self.executor.shutdown(cancel_futures=True)
            self.executor = None


def _reverse_stable_members(n: int, pool: _SearchPool) -> list[tuple[int, ...]]:
    """R_n in rank order: one search task for each pair of end letters
    a < b, run on `pool`. The one word of S_1 is its own reverse."""
    if n == 1:
        return [(1,)]
    tasks = [(n, a, b) for a in range(1, n) for b in range(a + 1, n + 1)]
    return sorted(member for members in pool.map(tasks) for member in members)


def _search_alone(n: int, workers: int) -> list[tuple[int, ...]]:
    """R_n, on a pool of its own that is closed when the search ends."""
    pool = _SearchPool(workers, n)
    try:
        return _reverse_stable_members(n, pool)
    finally:
        pool.close()


def _hook_tableaux(n: int) -> list[StandardYoungTableau]:
    """The standard tableaux of the symmetric hook of size n; none for even n."""
    return enumerate_syt(symmetric_hook_shape(n)) if n % 2 else []


def _inverse_images(recording: list[StandardYoungTableau]) -> list[tuple[int, ...]]:
    """The entries of every permutation whose recording tableau is in
    `recording`, in rank order: by the RSK bijection, one per insertion
    tableau of the recording tableau's shape."""
    fillings = cache(enumerate_syt)
    pairs = (TableauPair(p, q) for q in recording for p in fillings(q.shape))
    return sorted(inverse_rsk(pair).entries for pair in pairs)


def _relations_failure(n: int) -> str | None:
    """The first word of S_n, in rank order, for which one of the eight
    tableau-pair identities tying a permutation's reverse, complement, and
    inverse to transposes and evacuations fails. Each word is inserted once,
    and each tableau evacuated once and transposed once."""
    pairs = {word: rsk(Permutation._trusted(word)) for word in permutations(range(1, n + 1))}
    evacuate = cache(evacuation)
    transpose = cache(StandardYoungTableau.transpose)
    for word, pair in pairs.items():
        w = Permutation._trusted(word)
        p, q = pair.p, pair.q
        ep, eq = evacuate(p), evacuate(q)
        pt, qt = transpose(p), transpose(q)
        ept, eqt = transpose(ep), transpose(eq)
        wi = w.inverse()
        cases = (
            ("identity", w, p, q),
            ("complement", w.complement(), ept, qt),
            ("reverse", w.reverse(), pt, eqt),
            ("reverse-complement", w.reverse().complement(), ep, eq),
            ("inverse", wi, q, p),
            ("inverse-complement", wi.complement(), eqt, pt),
            ("inverse-reverse", wi.reverse(), qt, ept),
            ("inverse-reverse-complement", wi.reverse().complement(), eq, ep),
        )
        for name, v, expect_p, expect_q in cases:
            got = pairs[v.entries]
            if got.p != expect_p or got.q != expect_q:
                return f"{name} relation fails for {w}"
    return None


def _phi_theta_failure(n: int) -> str | None:
    """The first failure, if any, of the phi/theta laws at size n: every
    lift of every word of S_n is undone by projection, the lift images tile
    S_{n+2}, and projection commutes with reverse and complement there.

    Each lift is projected once. Once the lifts tile S_{n+2}, the table of
    projections holds theta(v) for every v there, so the last two laws are
    checked by lookup."""
    m = n + 2
    project: dict[tuple[int, ...], Permutation] = {}
    for word in permutations(range(1, n + 1)):
        w = Permutation._trusted(word)
        for a in range(1, m + 1):
            for b in range(1, m + 1):
                if a == b:
                    continue
                lifted = phi(w, a, b)
                if theta(lifted) != w:
                    return f"projection fails to undo lift ({a},{b}) of {w}"
                project[lifted.entries] = w
    # A lift that is no word of S_{n+2} covers nothing.
    covered = sum(map(project.__contains__, permutations(range(1, m + 1))))
    if covered != factorial(m):
        return f"lift images cover {covered} of {factorial(m)} permutations"
    reverse, complement = cache(Permutation.reverse), cache(Permutation.complement)
    for word in permutations(range(1, m + 1)):
        projected = project[word]
        if project[word[::-1]] != reverse(projected):
            return f"projection does not commute with reverse on {Permutation._trusted(word)}"
        if project[tuple(m + 1 - v for v in word)] != complement(projected):
            return f"projection does not commute with complement on {Permutation._trusted(word)}"
    return None


# ---------------------------------------------------------------------------
# counting and listing


def _check_count_range(n: int, max_n: int) -> None:
    if not 1 <= n <= max_n:
        raise ValueError(f"n={n} outside the configured range [1, {max_n}]")


def count_R(n: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N) -> int:
    """Exhaustive count of permutations sharing a recording tableau with
    their reverse, by the two-ended pruned search."""
    _check_count_range(n, max_n)
    return len(_search_alone(n, workers))


def count_H(n: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N) -> int:
    """Count the permutations whose recording tableau has symmetric hook
    shape, listed as the inverse RSK images of the hook's tableau pairs."""
    _check_count_range(n, max_n)
    _check_workers(workers)
    return len(_inverse_images(_hook_tableaux(n)))


def count_M(n: int, *, max_n: int = DEFAULT_MAX_COUNT_N) -> int:
    """Count the symmetric-hook tableaux fixed by evacuation-transpose.

    Even sizes have no symmetric hook shape, so the count is 0 rather than
    an error.
    """
    return len(list_set("M", n, max_n=max_n))


def list_set(
    which: SetName,
    n: int,
    *,
    workers: int = 1,
    list_max: int = DEFAULT_MAX_LIST_N,
    max_n: int = DEFAULT_MAX_COUNT_N,
) -> list[Permutation] | list[StandardYoungTableau]:
    """Materialize the members of R_n, H_n, or M_n in deterministic order.

    R and H are lists of permutations in lexicographic order; M is the
    list of qualifying symmetric-hook tableaux in reading-word order.
    """
    if which == "M":
        _check_count_range(n, max_n)
        return [t for t in _hook_tableaux(n) if is_in_M(t)]
    if which not in ("R", "H"):
        raise ValueError(f"unknown set {which!r}: expected R, H, or M")
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    if n > list_max:
        raise ValueError(
            f"listing is capped at n={list_max} (counting is still allowed)"
        )
    _check_count_range(n, max_n)
    if which == "R":
        members = _search_alone(n, workers)
    else:
        _check_workers(workers)
        members = _inverse_images(_hook_tableaux(n))
    return [Permutation._trusted(entries) for entries in members]


# ---------------------------------------------------------------------------
# verification sweeps


def _report(
    check: str,
    n: int,
    workers: int,
    measure: Callable[[], tuple[int | bool, str | None]],
    formula: int | None = None,
) -> VerificationReport:
    """Time one claim and report it.

    measure returns the observed value and a detail line. A claim with a
    closed form passes when the observed count equals it; any other claim
    passes when it observes True.
    """
    started = time.perf_counter()
    observed, detail = measure()
    expected = True if formula is None else formula
    return VerificationReport(
        check=check,
        n=n,
        observed=observed,
        expected=expected,
        formula=formula,
        passed=observed == expected,
        elapsed_ms=int((time.perf_counter() - started) * 1000),
        workers=workers,
        detail=detail,
    )


def _holds(failure: str | None) -> tuple[bool, str | None]:
    return failure is None, failure


def _characterization(n: int, members: list[tuple[int, ...]]) -> tuple[bool, str | None]:
    """Whether R_n, given by its members, is C_n; if not, the least of R_n ^ C_n."""
    recording = [q for q in _hook_tableaux(n) if satisfies_first_row_property(q)]
    disagree = set(members) ^ set(_inverse_images(recording))
    if disagree:
        return False, "first counterexample: " + " ".join(map(str, min(disagree)))
    return True, None


def _transport(members: list[tuple[int, ...]]) -> tuple[bool, str]:
    """Project each member of R_{n+2} into R_n and lift it back by its endpoints."""
    for entries in members:
        v = Permutation._trusted(entries)
        projected = theta(v)
        if not same_recording_tableau(projected.entries, projected.entries[::-1]):
            return False, f"projection of {v} leaves the reverse-stable set"
        if phi(projected, v.entries[0], v.entries[-1]) != v:
            return False, f"endpoint lift does not reassemble {v}"
    return True, f"checked {len(members)} members"


def verify(
    suites: Iterable[str], n_max: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N
) -> list[Callable[[], VerificationReport]]:
    """Plan a run of the named suites up to size n_max: one claim per
    report, in SUITES order and then by size, which checks and reports
    when called. Symmetry and phi/theta stop at their caps, and transport
    sources at n_max - 2. Every range is checked here, before any claim
    runs. The claims share one memo of R_n, so a report's elapsed_ms
    counts only the work its own claim did, and one search pool, which
    starts at the plan's first pooled search and closes after its last."""
    chosen = set(suites)
    if chosen - set(SUITES):
        raise ValueError(f"unknown suite {min(chosen - set(SUITES))!r}: expected one of {SUITES}")
    caps = {"symmetry": SYMMETRY_MAX_N, "phi_theta": PHI_THETA_MAX_N, "transport": n_max - 2}
    sizes = {suite: range(1, min(n_max, caps.get(suite, n_max)) + 1) for suite in SUITES}
    to_search = set()
    if chosen & {"count", "characterization"}:
        _check_count_range(n_max, max_n)
        to_search.update(sizes["count"])
    for n in sizes["transport"] if "transport" in chosen else ():
        _check_count_range(n + 2, max_n)
        to_search.add(n + 2)
    pool = _SearchPool(workers, max(to_search, default=1))

    @cache
    def members(n: int) -> list[tuple[int, ...]]:
        found = _reverse_stable_members(n, pool)
        to_search.discard(n)
        if not to_search:
            pool.close()
        return found

    claims = {
        "count": lambda n: _report(
            "count_R", n, workers, lambda: (len(members(n)), None), count_R_formula(n)
        ),
        "characterization": lambda n: _report(
            "characterization", n, workers, lambda: _characterization(n, members(n))
        ),
        "symmetry": partial(verify_symmetry_relations, workers=workers),
        "phi_theta": partial(verify_phi_theta, workers=workers),
        "transport": lambda n: _report(
            "r_transport", n, workers, lambda: _transport(members(n + 2))
        ),
    }
    return [partial(claims[suite], n) for suite in SUITES if suite in chosen for n in sizes[suite]]


def verify_count_theorem(
    n_max: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N
) -> list[VerificationReport]:
    """Compare the exhaustive reverse-stable count with its closed form
    for every size up to n_max."""
    return [claim() for claim in verify(["count"], n_max, workers=workers, max_n=max_n)]


def verify_characterization(
    n_max: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N
) -> list[VerificationReport]:
    """Check, for every n up to n_max, that R_n equals C_n, the permutations
    whose recording tableau is the symmetric hook with the first-row
    property, and report the least word of R_n ^ C_n, if any."""
    return [claim() for claim in verify(["characterization"], n_max, workers=workers, max_n=max_n)]


def verify_symmetry_relations(n: int, *, workers: int = 1) -> VerificationReport:
    """Check the eight tableau-pair identities for every permutation of
    size n. The check runs in this process; workers is only echoed."""
    if not 1 <= n <= SYMMETRY_MAX_N:
        raise ValueError(f"n={n} outside the supported range [1, {SYMMETRY_MAX_N}]")
    _check_workers(workers)
    return _report("symmetry_relations", n, workers, lambda: _holds(_relations_failure(n)))


def verify_phi_theta(n: int, *, workers: int = 1) -> VerificationReport:
    """Check that projection undoes every lift of every size-n permutation,
    that the lift images tile the symmetric group two sizes up exactly, and
    that projection commutes with reverse and complement there. The check
    runs in this process; workers is only echoed."""
    if not 1 <= n <= PHI_THETA_MAX_N:
        raise ValueError(f"n={n} outside the supported range [1, {PHI_THETA_MAX_N}]")
    _check_workers(workers)
    return _report("phi_theta", n, workers, lambda: _holds(_phi_theta_failure(n)))


def verify_R_transport(
    n: int, *, workers: int = 1, max_n: int = DEFAULT_MAX_COUNT_N
) -> VerificationReport:
    """Check that projecting any reverse-stable permutation of size n+2
    lands in the reverse-stable set of size n, and that lifting it back by
    its endpoints reassembles the original."""
    if n < 1:
        raise ValueError(f"size must be positive, got {n}")
    _check_count_range(n + 2, max_n)
    members = partial(_search_alone, n + 2, workers)
    return _report("r_transport", n, workers, lambda: _transport(members()))
